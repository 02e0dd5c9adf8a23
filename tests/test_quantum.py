import pytest

from greenring import quantum
from greenring.core_ring import GroupSpec, basis_element, chi, zero
from greenring.quantum import eval_at_element, relations

from crosschecks import evaluate, quantum_closed_form, quantum_number

# the published table of the first quantum numbers, constant term first
TABLE = {
    0: (),
    1: (1,),
    2: (0, 1),
    3: (-1, 0, 1),
    4: (0, -2, 0, 1),
    5: (1, 0, -3, 0, 1),
    6: (0, 3, 0, -4, 0, 1),
    7: (-1, 0, 6, 0, -5, 0, 1),
}


class TestQuantumNumber:
    @pytest.mark.parametrize("n", sorted(TABLE))
    def test_table(self, n):
        assert quantum_number(n) == TABLE[n]

    def test_evaluate_at_two_gives_n(self):
        assert all(evaluate(quantum_number(n), 2) == n for n in range(201))

    def test_seven_at_two_by_hand(self):
        assert 64 - 80 + 24 - 1 == 7
        assert evaluate(quantum_number(7), 2) == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            quantum_number(-1)


class TestClosedForm:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_table_rows(self, n):
        assert quantum_closed_form(n) == TABLE[n]

    def test_matches_recurrence_up_to_100(self):
        for n in range(1, 101):
            assert quantum_closed_form(n) == quantum_number(n), n


class TestEvalAtElement:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_small_indecomposables(self, p):
        # [r] at chi_0 recovers V_r for r <= p
        group = GroupSpec(p, 2)
        for r in range(1, p + 1):
            assert eval_at_element(r, chi(group, 0)) == basis_element(group, r)

    def test_one_is_unit(self):
        group = GroupSpec(5, 3)
        target = basis_element(group, 9) - basis_element(group, 4)
        assert eval_at_element(1, target) == basis_element(group, 1)

    def test_zero_index(self):
        group = GroupSpec(3, 2)
        assert eval_at_element(0, chi(group, 0)) == zero(group)

    @pytest.mark.parametrize("p,k", [(5, 1), (5, 2), (3, 1), (7, 1)])
    def test_pair_identity(self, p, k):
        # ([s+1] - [s-1]) at chi_k = V_{s p^k + 1} - V_{s p^k - 1} for
        # 0 < s < p: the two-term geometric pair sits in a difference of
        # consecutive quantum numbers, not in [s+1] alone
        group = GroupSpec(p, 3)
        pk = p**k
        for s in range(1, p):
            level = chi(group, k)
            got = eval_at_element(s + 1, level) - eval_at_element(s - 1, level)
            expected = basis_element(group, s * pk + 1) - basis_element(
                group, s * pk - 1
            )
            assert got == expected


class TestRelations:
    @pytest.mark.parametrize(
        "p,alpha", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (5, 3), (7, 2)]
    )
    def test_relation_F_vanishes(self, p, alpha):
        values = relations(GroupSpec(p, alpha))
        for j in range(1, alpha):
            assert values[j].is_zero(), (p, alpha, j)

    @pytest.mark.parametrize("p,alpha", [(2, 1), (2, 3), (3, 2), (5, 3), (7, 2)])
    def test_relation_F0_vanishes(self, p, alpha):
        assert relations(GroupSpec(p, alpha))[0].is_zero()

    @pytest.mark.parametrize("p,alpha", [(2, 4), (3, 3), (5, 2)])
    def test_descent_equals_v_difference(self, p, alpha):
        # the recursive middle element of F_j is V_{p^j} - V_{p^j - 1}
        group = GroupSpec(p, alpha)
        for j, (_, _, descent) in enumerate(quantum._levels(group)):
            pj = p**j
            expected = basis_element(group, pj)
            if pj > 1:
                expected = expected - basis_element(group, pj - 1)
            assert descent == expected

    def test_one_pass_over_the_levels(self, monkeypatch):
        # D_j is carried forward, and [p], [p - 1] at chi_j are U-elements:
        # 2 alpha - 1 ring products and no quantum-number recurrence
        counts = {"mul": 0, "eval": 0}

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(quantum, "mul", counting("mul", quantum.mul))
        monkeypatch.setattr(
            quantum, "eval_at_element", counting("eval", quantum.eval_at_element)
        )
        values = relations(GroupSpec(2, 40))
        assert len(values) == 40 and all(v.is_zero() for v in values)
        assert counts["mul"] <= 2 * 40 - 1
        assert counts["eval"] == 0
