import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenring import core_ring, digits, ubasis
from greenring.core_ring import GroupSpec, RingElement, basis_element, chi, mul, one
from greenring.quantum import eval_at_element
from greenring.ubasis import (
    MAX_MATRIX_ORDER,
    IntMatrix,
    _support_bound,
    change_of_basis,
    cousins,
    render_matrix,
    u_element,
    v_in_u,
)

G53 = GroupSpec(5, 3)


class TestUElement:
    def test_worked_example(self):
        assert u_element(G53, 12) == RingElement(G53, {12: 1, 8: -1, 2: 1})
        assert u_element(G53, 12).dim() == 6

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 10, 15, 20, 25, 50, 75, 100, 125])
    def test_digit_multiples_are_plain_v(self, r):
        # single nonzero digit in r - 1's expansion shifted by one:
        # V_i = U_i whenever i = a p^k
        assert u_element(G53, r) == basis_element(G53, r)

    def test_unit(self):
        assert u_element(G53, 1) == basis_element(G53, 1)

    @pytest.mark.parametrize("p,alpha", [(2, 3), (3, 3), (5, 2)])
    def test_top_term_and_dimension(self, p, alpha):
        group = GroupSpec(p, alpha)
        for r in range(1, group.q + 1):
            element = u_element(group, r)
            assert element.top_index() == r
            assert element.coeffs[r] == 1
            digits_product = 1
            rem = r - 1
            while rem:
                rem, d = divmod(rem, p)
                digits_product *= d + 1
            assert element.dim() == digits_product

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            u_element(G53, 126)


class TestCousins:
    def test_enumerated_example(self):
        assert cousins(63, 5) == frozenset({63, 57, 43, 37})

    def test_single_digit(self):
        assert cousins(4, 10) == frozenset({4})

    def test_zero_digits_collapse(self):
        assert cousins(50, 5) == frozenset({50})

    def test_zero(self):
        assert cousins(0, 3) == frozenset({0})

    def test_bad_base(self):
        with pytest.raises(ValueError):
            cousins(5, 1)

    @given(n=st.integers(0, 10**6), base=st.sampled_from([2, 3, 5, 7, 10]))
    @settings(max_examples=200, deadline=None)
    def test_cardinality_is_power_of_two(self, n, base):
        digits = []
        m = n
        while m:
            m, d = divmod(m, base)
            digits.append(d)
        nonzero_lower = sum(1 for d in digits[:-1] if d)
        assert len(cousins(n, base)) == 2**nonzero_lower


class TestVInU:
    def test_worked_example(self):
        assert v_in_u(G53, 62) == (32, 38, 58, 62)

    def test_small_indices_are_themselves(self):
        for r in range(1, 6):
            assert v_in_u(G53, r) == (r,)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_p_powers(self, k):
        assert v_in_u(G53, 5**k) == (5**k,)

    @pytest.mark.parametrize("p,alpha", [(2, 3), (3, 3), (5, 2)])
    def test_expansion_reproduces_v(self, p, alpha):
        # closed form cross-validated against the tensor engine
        group = GroupSpec(p, alpha)
        for r in range(1, group.q + 1):
            total = None
            for j in v_in_u(group, r):
                term = u_element(group, j)
                total = term if total is None else total + term
            assert total == basis_element(group, r), (p, alpha, r)

    @pytest.mark.parametrize("p,alpha", [(2, 4), (3, 3), (5, 2)])
    def test_support_bounds(self, p, alpha):
        # sizes need not be powers of two (v_in_u(5) over q = 16 is
        # {1, 3, 5}); what does hold: r is always the top index
        group = GroupSpec(p, alpha)
        for r in range(1, group.q + 1):
            support = v_in_u(group, r)
            assert support[-1] == r
            assert all(1 <= j <= r for j in support)

    def test_size_three_support(self):
        # the counterexample to the power-of-two guess, pinned down
        group = GroupSpec(2, 4)
        assert v_in_u(group, 5) == (1, 3, 5)


class TestCurlyU:
    """The splitting recursion's index set run down from level beta
    (``digits.split_indices``), ascending."""

    def test_worked_example(self):
        assert tuple(sorted(digits.split_indices(62, 5, 2))) == (32, 38, 58, 62)
        assert tuple(sorted(digits.split_indices(62, 5, 3))) == (32, 38, 58, 62)

    def test_level_zero(self):
        assert tuple(sorted(digits.split_indices(62, 5, 0))) == (62,)

    def test_multiple_of_power_single_branch(self):
        assert tuple(sorted(digits.split_indices(50, 5, 2))) == (50,)

    @pytest.mark.parametrize("p,alpha", [(2, 4), (2, 7), (3, 3), (5, 3)])
    def test_top_level_matches_closed_form(self, p, alpha):
        # the cousins closed form cross-checks both the recursion and the
        # V-to-U matrix built from it
        group = GroupSpec(p, alpha)
        matrix = change_of_basis(group, "v_to_u")
        for r in range(1, group.q + 1):
            closed = v_in_u(group, r)
            assert tuple(sorted(digits.split_indices(r, p, alpha))) == closed
            indicator = tuple(int(j in closed) for j in range(1, group.q + 1))
            assert matrix.entries[r - 1] == indicator, (p, alpha, r)


class TestChangeOfBasis:
    @pytest.mark.parametrize("p,alpha", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
    def test_triangular_unit_diagonal_01(self, p, alpha):
        group = GroupSpec(p, alpha)
        matrix = change_of_basis(group, "v_to_u")
        for i, row in enumerate(matrix.entries):
            assert row[i] == 1
            assert all(v == 0 for v in row[i + 1 :])
            assert all(v in (0, 1) for v in row)

    @pytest.mark.parametrize("p,alpha", [(2, 3), (3, 2), (5, 2)])
    def test_directions_are_inverse(self, p, alpha):
        group = GroupSpec(p, alpha)
        forward = change_of_basis(group, "v_to_u")
        backward = change_of_basis(group, "u_to_v")
        fwd = np.array(forward.entries, dtype=np.int64)
        bwd = np.array(backward.entries, dtype=np.int64)
        identity = np.eye(group.q, dtype=np.int64)
        assert np.array_equal(fwd @ bwd, identity)
        assert np.array_equal(bwd @ fwd, identity)

    def test_row_at_power_is_standard_vector(self):
        group = GroupSpec(3, 2)
        matrix = change_of_basis(group, "v_to_u")
        assert matrix.entries[2] == (0, 0, 1, 0, 0, 0, 0, 0, 0)

    def test_u_to_v_row_matches_worked_example(self):
        group = GroupSpec(5, 2)
        row = change_of_basis(group, "u_to_v").entries[11]
        expected = [0] * 25
        expected[11], expected[7], expected[1] = 1, -1, 1
        assert row == tuple(expected)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            change_of_basis(G53, "sideways")

    @pytest.mark.parametrize("p,alpha", [(2, 13), (4099, 1), (2, 30)])
    def test_oversized_group_rejected_before_building(self, p, alpha):
        group = GroupSpec(p, alpha)
        assert group.q > MAX_MATRIX_ORDER
        with pytest.raises(ValueError, match=f"exceeds {MAX_MATRIX_ORDER}"):
            change_of_basis(group, "v_to_u")


class TestIntMatrix:
    def test_rejects_non_integral_entries(self):
        with pytest.raises(TypeError):
            IntMatrix(((1.5, 0), (0, 1)))
        assert IntMatrix(((np.int64(1), False),)).entries == ((1, 0),)


class TestRenderMatrix:
    def test_text_identity(self):
        grid = render_matrix(IntMatrix(((1, 0), (0, 1))), "text").decode()
        assert grid == "█·\n·█\n"

    def test_csv(self):
        data = render_matrix(IntMatrix(((1, -2), (0, 3))), "csv")
        assert data == b"1,-2\n0,3\n"

    def test_pbm_header_and_shape(self):
        group = GroupSpec(3, 3)
        matrix = change_of_basis(group, "v_to_u")
        data = render_matrix(matrix, "pbm").decode().splitlines()
        assert data[0] == "P1"
        assert data[1] == "27 27"
        assert len(data) == 2 + 27

    def test_pbm_rejects_general_integers(self):
        with pytest.raises(ValueError):
            render_matrix(IntMatrix(((2,),)), "pbm")
        with pytest.raises(ValueError):
            render_matrix(IntMatrix(((-1,),)), "text")


def _u_element_in_order(group, r, top_down):
    """Cross-check of the single-level rule in ``u_element``: U_r as the
    ring product of its chi-level factors [d + 1] at chi_i, multiplied in
    one plain order, from the highest digit level down or from the lowest
    up, through the tensor engine."""
    digs = digits.to_digits(r - 1, group.p)
    levels = range(len(digs) - 1, -1, -1) if top_down else range(len(digs))
    out = one(group)
    for level in levels:
        if digs[level]:
            out = mul(out, eval_at_element(digs[level] + 1, chi(group, level)))
    return out


class TestUElementOrder:
    @pytest.mark.parametrize("p,alpha", [(5, 4), (2, 10), (3, 6), (7, 3)])
    def test_orders_agree_within_support_bound(self, p, alpha):
        # the bound is attained on every r of these groups
        group = GroupSpec(p, alpha)
        for r in range(1, group.q + 1):
            element = u_element(group, r)
            assert element == _u_element_in_order(group, r, top_down=True), r
            assert element == _u_element_in_order(group, r, top_down=False), r
            assert len(element.coeffs) == _support_bound(r, p), r

    def test_support_bound_from_digits(self):
        # r - 1 = 62 = (2, 2, 2) in base 5: the digits above level 0 give 3 * 3
        assert _support_bound(63, 5) == 9
        assert _support_bound(1, 5) == 1
        # r - 1 = 2^20 - 1 is twenty binary ones: U_r = V_r
        assert _support_bound(2**20, 2) == 1
        # r - 1 = (4, 4, 1, 2, 3) in base 5: the run of 4s and the digit
        # after it give one term, the digits above it 3 * 4
        assert _support_bound(1 + 4 + 4 * 5 + 1 * 25 + 2 * 125 + 3 * 625, 5) == 12

    def test_single_term_u_element_at_a_high_level(self):
        group = GroupSpec(2, 20)
        assert u_element(group, 2**20) == basis_element(group, 2**20)

    def test_refused_before_any_product(self, monkeypatch):
        # 99999999998 has 24 binary ones above level 0: up to 2^24 terms,
        # refused before the expansion builds any element
        def no_element(group, coeffs):
            raise AssertionError("an element was built")

        monkeypatch.setattr(ubasis, "RingElement", no_element)
        with pytest.raises(ValueError, match="16777216 terms"):
            u_element(GroupSpec(2, 60), 99999999999)

    def test_largest_allowed_bound_is_accepted(self):
        # the bound equals MAX_INDEX_SET: accepted, and attained
        r = 2 * (2**18 - 1) + 1
        assert _support_bound(r, 2) == digits.MAX_INDEX_SET
        element = u_element(GroupSpec(2, 20), r)
        assert element.top_index() == r
        assert element.coeffs[r] == 1
        assert element.dim() == 2**18
        assert len(element.coeffs) == digits.MAX_INDEX_SET

    def test_tensor_memo_untouched(self):
        # the U-basis takes no ring product, so the pair memo stays as it was
        group = GroupSpec(5, 4)
        before = dict(core_ring._TENSOR_CACHE)
        for r in range(1, group.q + 1):
            u_element(group, r)
        assert core_ring._TENSOR_CACHE == before
