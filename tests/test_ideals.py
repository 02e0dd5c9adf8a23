import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenring.core_ring import GroupSpec, RingElement, basis_element, mul
from greenring.ideals import (
    CyclicGroupSpec,
    _invariant_factors,
    _smith_dense,
    LatticeBasis,
    cyclotomic,
    euler_phi,
    ideal_lattice,
    induced_ideal_q,
    invariant_factors,
    non_induced_rank,
    principal_generation_check,
    rank_report,
    semisimple_ideal,
    smith_normal_form,
    z_rank,
)
from greenring.quantum import IntPolynomial
from greenring.ubasis import IntMatrix


class TestEulerPhi:
    @pytest.mark.parametrize("n,phi", [(1, 1), (9, 6), (12, 4), (97, 96), (360, 96)])
    def test_values(self, n, phi):
        assert euler_phi(n) == phi

    def test_counts_coprime_residues(self):
        for n in range(1, 200):
            from math import gcd

            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


class TestCyclotomic:
    def test_first(self):
        assert cyclotomic(1) == IntPolynomial(-1, 1)

    def test_fourth(self):
        assert cyclotomic(4) == IntPolynomial(1, 0, 1)

    def test_degree_is_totient(self):
        assert all(cyclotomic(n).degree == euler_phi(n) for n in range(1, 101))

    def test_product_over_divisors(self):
        n = 24
        product = IntPolynomial(1)
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic(d)
        assert product == IntPolynomial(*([-1] + [0] * (n - 1) + [1]))


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(IntMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))) == (1, 1, 1)

    def test_diagonal_passthrough(self):
        assert smith_normal_form(IntMatrix(((2, 0), (0, 4)))) == (2, 4)

    def test_semisimple_m4(self):
        mat = IntMatrix(semisimple_ideal(4).generators)
        assert smith_normal_form(mat) == (1, 1)

    def test_zero_matrix(self):
        assert smith_normal_form(IntMatrix(((0, 0), (0, 0)))) == (0, 0)

    def test_divisibility_fix(self):
        # gcd of all entries must surface as d_1
        assert smith_normal_form(IntMatrix(((2, 0), (0, 3)))) == (1, 6)

    @given(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=4, max_size=4),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_sympy(self, rows):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        ours = [f for f in smith_normal_form(IntMatrix(tuple(map(tuple, rows)))) if f]
        theirs = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
        diag = [
            abs(int(theirs[i, i])) for i in range(min(theirs.rows, theirs.cols))
        ]
        assert ours == [d for d in diag if d]

    @given(
        st.integers(1, 8).flatmap(
            lambda ncols: st.lists(
                st.lists(
                    st.one_of(
                        st.sampled_from([0, 0, 0, 1, -1]), st.integers(-9, 9)
                    ),
                    min_size=ncols,
                    max_size=ncols,
                ),
                min_size=1,
                max_size=8,
            )
        )
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_cross_check_sparse_phase_against_dense(self, rows):
        # Cross-check: the heap-driven sparse phase plus dense remainder
        # against the dense routine alone.  The weights towards 0 and +-1
        # make pivots, fill-in and a dense remainder all occur.
        dense = [d for d in _smith_dense([list(r) for r in rows]) if d]
        assert _invariant_factors([tuple(r) for r in rows]) == dense


class TestInducedIdealQ:
    def test_p3_alpha1(self):
        basis = induced_ideal_q(GroupSpec(3, 1))
        assert basis.generators == ((0, 0, 1),)

    def test_p3_alpha2(self):
        basis = induced_ideal_q(GroupSpec(3, 2))
        assert [g.index(1) + 1 for g in basis.generators] == [3, 6, 9]

    def test_p2_alpha3(self):
        basis = induced_ideal_q(GroupSpec(2, 3))
        assert [g.index(1) + 1 for g in basis.generators] == [2, 4, 6, 8]
        assert z_rank(basis) == 4

    @pytest.mark.parametrize(
        "p,alpha",
        [(2, a) for a in range(1, 8)]
        + [(3, a) for a in range(1, 6)]
        + [(5, a) for a in range(1, 4)]
        + [(7, 2)],
    )
    def test_quotient_rank_is_totient(self, p, alpha):
        # every q = p^alpha up to 243 for p in {2, 3, 5}, plus 49
        group = GroupSpec(p, alpha)
        assert group.q - z_rank(induced_ideal_q(group)) == euler_phi(group.q)


class TestSemisimpleIdeal:
    def test_m1(self):
        assert semisimple_ideal(1).generators == ()

    def test_prime_gives_all_ones(self):
        assert semisimple_ideal(7).generators == ((1,) * 7,)

    def test_m4(self):
        assert semisimple_ideal(4).generators == ((1, 0, 1, 0), (0, 1, 0, 1))

    @pytest.mark.parametrize("m", list(range(1, 61)))
    def test_quotient_rank_and_freeness(self, m):
        basis = semisimple_ideal(m)
        factors = invariant_factors(basis)
        assert m - len(factors) == euler_phi(m)
        assert all(f == 1 for f in factors)


class TestZRank:
    def test_empty(self):
        assert z_rank(LatticeBasis(5, ())) == 0

    def test_standard_basis(self):
        assert z_rank(LatticeBasis(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))) == 3

    def test_dependent_rows(self):
        assert z_rank(LatticeBasis(3, ((1, 2, 3), (2, 4, 6)))) == 1


class TestPrincipalGeneration:
    @pytest.mark.parametrize("p,alpha", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
    def test_holds(self, p, alpha):
        assert principal_generation_check(GroupSpec(p, alpha))

    @pytest.mark.parametrize("p,alpha", [(2, 3), (3, 2), (5, 2)])
    def test_product_identity_u_mp(self, p, alpha):
        # U_{mp} = U_{(m-1)p+1} * U_p, the single-generator mechanism
        from greenring.ubasis import u_element

        group = GroupSpec(p, alpha)
        for m in range(1, group.q // p + 1):
            lhs = u_element(group, m * p)
            rhs = mul(u_element(group, (m - 1) * p + 1), u_element(group, p))
            assert lhs == rhs, (p, alpha, m)


class TestNonInducedRank:
    @pytest.mark.parametrize(
        "n,p,expected",
        [(9, 3, 6), (12, 2, 4), (12, 3, 4), (7, 3, 6), (30, 5, 8), (1, 2, 1)],
    )
    def test_values(self, n, p, expected):
        assert non_induced_rank(CyclicGroupSpec(n, p)) == expected

    def test_coprime_characteristic_uses_semisimple_path(self):
        spec = CyclicGroupSpec(9, 2)
        assert spec.alpha == 0 and spec.m == 9
        assert non_induced_rank(spec) == euler_phi(9)

    def test_report_fields(self):
        report = rank_report(CyclicGroupSpec(12, 2))
        assert report == {
            "n": 12,
            "p": 2,
            "ideal_rank": 8,
            "quotient_rank": 4,
            "phi_n": 4,
            "invariant_factors": [1] * 8,
        }

    @pytest.mark.parametrize("n", list(range(1, 61)))
    def test_totient_for_every_valid_characteristic(self, n):
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]
        for p in primes or [2]:
            spec = CyclicGroupSpec(n, p)
            assert non_induced_rank(spec) == euler_phi(n), (n, p)
            assert all(f == 1 for f in invariant_factors(ideal_lattice(spec)))


class TestIdealMembership:
    @given(
        data=st.dictionaries(st.integers(1, 27), st.integers(-2, 2), max_size=3),
        gen_index=st.integers(1, 9),
    )
    @settings(max_examples=50, deadline=None)
    def test_products_stay_in_induced_span(self, data, gen_index):
        group = GroupSpec(3, 3)
        x = RingElement(group, data)
        generator = basis_element(group, 3 * gen_index)
        product = mul(x, generator)
        assert all(idx % 3 == 0 for idx in product.coeffs)
