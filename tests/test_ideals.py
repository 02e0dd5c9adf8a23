import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import totient

import greenring
from greenring import ideals
from greenring.core_ring import GroupSpec, RingElement, basis_element, mul
from greenring.digits import is_prime
from greenring.ideals import (
    _invariant_factors,
    _order_parts,
    LatticeBasis,
    ideal_lattice,
    induced_ideal_q,
    invariant_factors,
    principal_generation_check,
    rank_report,
    semisimple_ideal,
    smith_normal_form,
)
from greenring.ubasis import IntMatrix


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(IntMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))) == (1, 1, 1)

    def test_diagonal_passthrough(self):
        assert smith_normal_form(IntMatrix(((2, 0), (0, 4)))) == (2, 4)

    def test_semisimple_m4(self):
        gens = semisimple_ideal(4).generators
        rows = tuple(tuple(dict(g).get(j, 0) for j in range(4)) for g in gens)
        assert smith_normal_form(IntMatrix(rows)) == (1, 1)

    def test_zero_matrix(self):
        assert smith_normal_form(IntMatrix(((0, 0), (0, 0)))) == (0, 0)

    def test_divisibility_fix(self):
        # gcd of all entries must surface as d_1
        assert smith_normal_form(IntMatrix(((2, 0), (0, 3)))) == (1, 6)
        # the pairwise gcd/lcm fix across three non-unit pivots
        diag = ((4, 0, 0), (0, 6, 0), (0, 0, 10))
        assert smith_normal_form(IntMatrix(diag)) == (2, 2, 60)
        # a row with no +-1 entry: several Euclid rounds of column steps
        assert smith_normal_form(IntMatrix(((6, 10, 15),))) == (1,)

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
        # Cross-check: the sparse elimination, unit pass then least
        # absolute values, against sympy's dense Smith normal form.  The
        # weights towards 0 and +-1 make unit pivots, fill-in and a
        # non-unit remainder all occur.
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix
        from sympy.polys.matrices.normalforms import smith_normal_form as sympy_snf

        theirs = sympy_snf(DomainMatrix.from_list(rows, sympy.ZZ)).diagonal()
        sparse = [[(j, v) for j, v in enumerate(r) if v] for r in rows]
        assert _invariant_factors(sparse) == [abs(int(d)) for d in theirs if d]


class TestInducedIdealQ:
    def test_p3_alpha1(self):
        basis = induced_ideal_q(GroupSpec(3, 1))
        assert basis.generators == (((2, 1),),)

    def test_p3_alpha2(self):
        basis = induced_ideal_q(GroupSpec(3, 2))
        assert basis.generators == tuple(((i - 1, 1),) for i in (3, 6, 9))

    def test_p2_alpha3(self):
        basis = induced_ideal_q(GroupSpec(2, 3))
        assert basis.generators == tuple(((i - 1, 1),) for i in (2, 4, 6, 8))
        assert len(invariant_factors(basis)) == 4

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
        assert group.q - len(invariant_factors(induced_ideal_q(group))) == totient(group.q)


class TestSemisimpleIdeal:
    def test_m1(self):
        assert semisimple_ideal(1).generators == ()

    def test_prime_gives_all_ones(self):
        assert semisimple_ideal(7).generators == (tuple((i, 1) for i in range(7)),)

    def test_m4(self):
        assert semisimple_ideal(4).generators == (((0, 1), (2, 1)), ((1, 1), (3, 1)))

    @pytest.mark.parametrize("m", list(range(1, 61)))
    def test_quotient_rank_and_freeness(self, m):
        basis = semisimple_ideal(m)
        factors = invariant_factors(basis)
        assert m - len(factors) == totient(m)
        assert all(f == 1 for f in factors)


class TestZRank:
    def test_empty(self):
        assert len(invariant_factors(LatticeBasis(5, ()))) == 0

    def test_standard_basis(self):
        basis = LatticeBasis(3, (((0, 1),), ((1, 1),), ((2, 1),)))
        assert len(invariant_factors(basis)) == 3

    def test_dependent_rows(self):
        basis = LatticeBasis(3, (((0, 1), (1, 2), (2, 3)), ((0, 2), (1, 4), (2, 6))))
        assert len(invariant_factors(basis)) == 1

    @pytest.mark.parametrize("column", [-1, 3])
    def test_rejects_column_outside_ambient_rank(self, column):
        with pytest.raises(ValueError):
            LatticeBasis(3, (((0, 1),), ((column, 1),)))

    @pytest.mark.parametrize(
        "generator", [((0, 0), (1, 1)), ((0, 2), (0, -1)), ((1, 1), (0, 1))]
    )
    def test_rejects_zero_value_or_unordered_columns(self, generator):
        # a zero value used to reach the elimination as a raw KeyError, and
        # a repeated column was folded by dict() into its last value
        with pytest.raises(ValueError):
            LatticeBasis(3, (generator, ((1, 2),)))


class TestPrincipalGeneration:
    @pytest.mark.parametrize("p,alpha", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
    def test_holds(self, p, alpha):
        assert principal_generation_check(GroupSpec(p, alpha))

    def test_refuses_q_above_matrix_order(self, monkeypatch):
        # (2, 64) would take 2^63 products; the cap refuses it before one
        def refuse(group, r):
            raise AssertionError("a U-element was built")

        monkeypatch.setattr(ideals, "u_element", refuse)
        with pytest.raises(ValueError, match="exceeds 4096"):
            principal_generation_check(GroupSpec(2, 64))

    @pytest.mark.parametrize("p,alpha", [(2, 3), (3, 2), (5, 2)])
    def test_product_identity_u_mp(self, p, alpha):
        # U_{mp} = U_{(m-1)p+1} * U_p, the single-generator mechanism
        from greenring.ubasis import u_element

        group = GroupSpec(p, alpha)
        for m in range(1, group.q // p + 1):
            lhs = u_element(group, m * p)
            rhs = mul(u_element(group, (m - 1) * p + 1), u_element(group, p))
            assert lhs == rhs, (p, alpha, m)


def _characteristics(n: int) -> list[int]:
    """The primes dividing n, plus the smallest prime that does not."""
    found = [p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]
    p = 2
    while n % p == 0 or not is_prime(p):
        p += 1
    return found + [p]


class TestNonInducedRank:
    @pytest.mark.parametrize(
        "n,p,expected",
        [(9, 3, 6), (12, 2, 4), (12, 3, 4), (7, 3, 6), (30, 5, 8), (1, 2, 1)],
    )
    def test_values(self, n, p, expected):
        assert rank_report(n, p)["quotient_rank"] == expected

    def test_p_part_cap_counts_rows(self):
        # the p-part holds q/p rows: q = p = 1048583 is one row, while
        # q = 2^22 at p = 2 is 2^21 rows, above MAX_FACTOR_ORDER
        assert rank_report(1048583, 1048583)["quotient_rank"] == 1048582
        with pytest.raises(ValueError, match="2097152 rows"):
            rank_report(2**22, 2)

    def test_report_rank_cap(self):
        # n = 2p with p = 10^8 + 7: two one-row factors, but the report
        # would list n - phi(n) = p + 1 invariant factors
        with pytest.raises(ValueError, match="100000008 invariant factors"):
            rank_report(2 * 100000007, 100000007)

    def test_coprime_characteristic_uses_semisimple_path(self):
        assert _order_parts(9, 2) == (9, 0)
        assert rank_report(9, 2)["quotient_rank"] == totient(9)

    def test_report_fields(self):
        report = rank_report(12, 2)
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
            assert rank_report(n, p)["quotient_rank"] == totient(n), (n, p)
            assert rank_report(n, p)["phi_n"] == totient(n), (n, p)
            assert all(f == 1 for f in invariant_factors(ideal_lattice(n, p)))

    def test_torsion_in_a_factor_is_a_verification_failure(self):
        # The product assembly needs free factors, certified from the rows:
        # rows sharing a column (here spanning a sublattice of index 2) or
        # a row with no +-1 must raise, also under python -O.
        script = (
            "from greenring import ideals\n"
            "shared = (((0, 1), (1, 1)), ((0, 1), (1, -1)))\n"
            "for rows in (shared, (((0, 2),),)):\n"
            "    basis = ideals.LatticeBasis(3, rows)\n"
            "    ideals.semisimple_ideal = lambda m, basis=basis: basis\n"
            "    try:\n"
            "        ideals.rank_report(12, 2)\n"
            "    except ideals.VerificationError as exc:\n"
            "        print(exc)\n"
        )
        src = str(Path(greenring.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "the factor of order 3 has rows sharing a column",
            "the factor of order 3 has a row with no +-1",
        ], done.stdout

    @given(
        st.integers(361, 1200).flatmap(
            lambda n: st.tuples(st.just(n), st.sampled_from(_characteristics(n)))
        )
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_cross_check_against_n_wide_lattice(self, case):
        # Cross-check: the factor-by-factor report against one Smith form
        # of the whole n-wide induced ideal, past acceptance 07's n <= 360.
        n, p = case
        report = rank_report(n, p)
        factors = invariant_factors(ideal_lattice(n, p))
        assert n - len(factors) == report["quotient_rank"] == totient(n)
        assert report["ideal_rank"] == len(factors)
        assert all(f == 1 for f in factors)


class TestSparsePass:
    def test_library_lattices_never_reach_the_dense_remainder(self, monkeypatch):
        # Every lattice the library builds is fully pivoted by the unit
        # pass; only TestSmithNormalForm's matrices need a non-unit pivot.
        def refuse(rows, cols, rid, j):
            raise AssertionError("non-unit pivot reached")

        monkeypatch.setattr(ideals, "_reduce", refuse)
        for n in range(1, 201):
            for p in _characteristics(n):
                assert rank_report(n, p)["quotient_rank"] == totient(n), (n, p)
                assert all(f == 1 for f in invariant_factors(ideal_lattice(n, p)))
        for p, alpha in [(2, 8), (3, 5), (5, 3), (7, 3)]:
            assert principal_generation_check(GroupSpec(p, alpha)), (p, alpha)


class TestFreenessCertificate:
    def test_rank_report_runs_no_smith_form(self, monkeypatch):
        # The rank path reads each factor's rank off its certified rows.
        def refuse(vectors):
            raise AssertionError("Smith form reached")

        monkeypatch.setattr(ideals, "_invariant_factors", refuse)
        for n in range(1, 201):
            for p in _characteristics(n):
                assert rank_report(n, p)["quotient_rank"] == totient(n), (n, p)

    def test_cross_check_certificate_against_smith_form(self):
        # Cross-check: on every factor lattice rank_report builds up to
        # order 4096, the certified rows are the Smith form's unit factors.
        for ell in filter(is_prime, range(2, 4097)):
            order, alpha = ell, 1
            while order <= 4096:
                for basis in semisimple_ideal(order), induced_ideal_q(GroupSpec(ell, alpha)):
                    rows = order - ideals._free_quotient_rank(basis)
                    assert invariant_factors(basis) == (1,) * rows, (order, alpha)
                order, alpha = order * ell, alpha + 1


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
