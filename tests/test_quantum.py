import pytest

from greenring import quantum
from greenring.core_ring import GroupSpec, basis_element, chi, zero
from greenring.quantum import (
    IntPolynomial,
    eval_at_element,
    quantum_closed_form,
    quantum_number,
    relations,
)

# the published table of the first quantum numbers, constant term first
TABLE = {
    0: IntPolynomial(),
    1: IntPolynomial(1),
    2: IntPolynomial(0, 1),
    3: IntPolynomial(-1, 0, 1),
    4: IntPolynomial(0, -2, 0, 1),
    5: IntPolynomial(1, 0, -3, 0, 1),
    6: IntPolynomial(0, 3, 0, -4, 0, 1),
    7: IntPolynomial(-1, 0, 6, 0, -5, 0, 1),
}


class TestIntPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert IntPolynomial(1, 2, 0, 0) == IntPolynomial(1, 2)

    def test_degree(self):
        assert IntPolynomial().degree == -1
        assert IntPolynomial(5).degree == 0
        assert IntPolynomial(0, 0, 3).degree == 2

    def test_arithmetic(self):
        x = IntPolynomial(0, 1)
        assert x * x - IntPolynomial(1) == IntPolynomial(-1, 0, 1)
        assert 2 * x == IntPolynomial(0, 2)

    def test_exact_division(self):
        num = IntPolynomial(-1, 0, 0, 1)  # X^3 - 1
        den = IntPolynomial(-1, 1)  # X - 1
        quot, rem = divmod(num, den)
        assert quot == IntPolynomial(1, 1, 1)
        assert rem.is_zero()

    def test_json_roundtrip(self):
        poly = IntPolynomial(1, 0, -3, 0, 1)
        assert IntPolynomial.from_json_list(poly.to_json_list()) == poly

    def test_str(self):
        assert str(TABLE[5]) == "X^4 - 3X^2 + 1"
        assert str(IntPolynomial()) == "0"


class TestQuantumNumber:
    @pytest.mark.parametrize("n", sorted(TABLE))
    def test_table(self, n):
        assert quantum_number(n) == TABLE[n]

    def test_evaluate_at_two_gives_n(self):
        assert all(quantum_number(n)(2) == n for n in range(201))

    def test_seven_at_two_by_hand(self):
        assert 64 - 80 + 24 - 1 == 7
        assert quantum_number(7)(2) == 7

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
