import itertools
import json
import os
import random
import subprocess
import sys
import threading
from array import array
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenring
from greenring import core_ring, oracle
from greenring.core_ring import (
    GroupSpec,
    RingElement,
    basis_element,
    chi,
    induce,
    mul,
    one,
    tensor,
    zero,
)
from greenring.digits import VerificationError
from greenring.oracle import jordan_type
from greenring.ubasis import u_element

from crosschecks import chi_power, mul_chi_V

PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

G53 = GroupSpec(5, 3)
G33 = GroupSpec(3, 3)
G23 = GroupSpec(2, 3)


def V(group, *pairs):
    return RingElement(group, dict(pairs))


class TestGroupSpec:
    def test_q_is_derived(self):
        assert GroupSpec(3, 4).q == 81

    @pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 100])
    def test_rejects_composite(self, p):
        with pytest.raises(ValueError):
            GroupSpec(p, 2)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            GroupSpec(5, 0)

    def test_order_bits_bound(self):
        assert GroupSpec(2, core_ring.MAX_ORDER_BITS).q == 2**core_ring.MAX_ORDER_BITS
        with pytest.raises(ValueError, match="bits"):
            GroupSpec(2, core_ring.MAX_ORDER_BITS + 1)
        with pytest.raises(ValueError, match="bits"):
            GroupSpec(3, 10**9)


class TestRingElement:
    def test_zero_coefficients_pruned(self):
        assert V(G53, (3, 0), (4, 2)).coeffs == {4: 2}

    def test_coeffs_are_read_only(self):
        element = V(G53, (4, 2))
        with pytest.raises(TypeError):
            element.coeffs[4] = 3
        assert dict(element.coeffs) == {4: 2} and element.coeffs.get(4) == 2
        assert hash(element) == hash(V(G53, (4, 2)))

    def test_index_zero_is_the_zero_module(self):
        assert V(G53, (0, 7)).is_zero()
        assert V(G53, (-3, 2), (1, 1)) == one(G53)

    def test_overflowing_index_rejected(self):
        with pytest.raises(ValueError):
            V(G53, (126, 1))

    def test_additive_inverse(self):
        assert (V(G53, (2, 1)) + V(G53, (2, -1))).is_zero()

    def test_add_doubles(self):
        assert V(G53, (3, 1)) + V(G53, (3, 1)) == V(G53, (3, 2))

    def test_add_disjoint(self):
        lhs = V(G53, (12, 1), (8, -1)) + V(G53, (2, 1))
        assert lhs == V(G53, (12, 1), (8, -1), (2, 1))

    def test_mismatched_groups_rejected(self):
        with pytest.raises(ValueError):
            one(G53) + one(G33)
        with pytest.raises(ValueError):
            mul(one(G53), one(G33))

    def test_non_integral_input_rejected(self):
        # indices and coefficients are taken by operator.index: a float is
        # refused, never truncated, while bools and numpy integers pass
        with pytest.raises(TypeError):
            RingElement(G53, {2.7: 1})
        with pytest.raises(TypeError):
            RingElement(G53, {3: 1.9})
        assert RingElement(G53, {np.int64(3): np.int32(2), 2: True}) == V(G53, (3, 2), (2, 1))

    def test_str_rendering(self):
        assert str(V(G53, (12, 1), (8, -1), (2, 1))) == "V12 - V8 + V2"
        assert str(V(G23, (2, 2))) == "2V2"
        assert str(zero(G53)) == "0"
        assert str(V(G53, (5, -2))) == "-2V5"

    def test_json_keys_sorted_numerically(self):
        element = V(G53, (100, 1), (2, 1), (30, -1))
        assert list(element.to_json_dict()["coeffs"]) == ["2", "30", "100"]


class TestDim:
    def test_paper_example(self):
        assert V(G53, (12, 1), (8, -1), (2, 1)).dim() == 6

    def test_zero(self):
        assert zero(G53).dim() == 0

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_chi_has_dimension_two(self, k):
        assert chi(G53, k).dim() == 2


class TestChi:
    def test_p5_level1(self):
        assert chi(G53, 1) == V(G53, (6, 1), (4, -1))

    def test_level0_is_v2(self):
        for group in (G53, G33, G23):
            assert chi(group, 0) == basis_element(group, 2)

    def test_p3_level2(self):
        assert chi(G33, 2) == V(G33, (10, 1), (8, -1))

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            chi(G53, 3)


class TestMulChiV:
    def test_middle_case(self):
        assert mul_chi_V(G53, 0, 2) == V(G53, (3, 1), (1, 1))

    def test_digit_rule_at_multiple(self):
        # j = 1 digit rule: the V_0 term vanishes
        assert mul_chi_V(G53, 1, 5) == V(G53, (10, 1))

    def test_s_equals_one(self):
        assert mul_chi_V(G53, 0, 1) == basis_element(G53, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            mul_chi_V(G53, 0, 6)

    @pytest.mark.parametrize("p,alpha", [(2, 3), (3, 2), (5, 2)])
    def test_agrees_with_tensor_difference_everywhere(self, p, alpha):
        group = GroupSpec(p, alpha)
        for k in range(alpha):
            pk = p**k
            for s in range(1, p ** (k + 1) + 1):
                expected = tensor(group, pk + 1, s)
                if pk - 1 >= 1:
                    expected = expected - tensor(group, pk - 1, s)
                assert mul_chi_V(group, k, s) == expected, (p, alpha, k, s)


class TestTensor:
    def test_unit(self):
        for s in (1, 7, 125):
            assert tensor(G53, 1, s) == basis_element(G53, s)

    def test_paper_product(self):
        assert tensor(G53, 2, 11) == V(G53, (12, 1), (10, 1))

    def test_oracle_frozen_p3(self):
        # Jordan type of J_2 (x) J_2 over F_3 (oracle: blocks 3, 1)
        assert tensor(G33, 2, 2) == V(G33, (3, 1), (1, 1))

    def test_oracle_frozen_p2(self):
        # Jordan type of J_2 (x) J_2 over F_2 (oracle: blocks 2, 2)
        assert tensor(G23, 2, 2) == V(G23, (2, 2))

    def test_oracle_frozen_p5_midrange(self):
        # oracle: J_4 (x) J_4 over F_5 -> 3 blocks of 5 and one of 1
        assert tensor(G53, 4, 4) == V(G53, (5, 3), (1, 1))
        assert tensor(G53, 3, 4) == V(G53, (5, 2), (2, 1))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            tensor(G53, 0, 4)
        with pytest.raises(ValueError):
            tensor(G53, 2, 126)

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    def test_level_zero_equals_oracle(self, p):
        # beta = 0 of the digit reduction (the classical C_p rule), with
        # s = p entering at beta = 1 as an exact power
        group = GroupSpec(p, 1)
        for s in range(1, p + 1):
            for r in range(1, s + 1):
                expected = jordan_type(p, r, s).multiplicities()
                assert tensor(group, r, s).coeffs == expected, (p, r, s)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_cross_check_chi0_recurrence(self, p):
        # cross-check against the retired base case: E_1 = V_s and
        # E_{m+1} = chi_0 E_m - E_{m-1}, so E_r = [r] at chi_0 times V_s
        # = V_r (x) V_s, built from mul_chi_V alone
        group = GroupSpec(p, 1)
        for s in range(2, p):
            prev, cur = zero(group), basis_element(group, s)
            for r in range(2, s + 1):
                step = zero(group)
                for t, c in cur.coeffs.items():
                    step = step + c * mul_chi_V(group, 0, t)
                prev, cur = cur, step - prev
                assert tensor(group, r, s) == cur, (p, r, s)

    @pytest.mark.parametrize("p,alpha", [(2, 6), (3, 4), (5, 3), (7, 2), (11, 2)])
    def test_cross_check_p_power_rule(self, p, alpha):
        # cross-check against the retired rule V_r (x) V_{p^k} = r V_{p^k}:
        # g (x) g - 1 has an r-dimensional kernel, so there are r blocks,
        # each bounded by the p-power envelope p^k
        group = GroupSpec(p, alpha)
        for k in range(alpha + 1):
            pk = p**k
            for r in range(1, pk + 1):
                assert tensor(group, r, pk) == V(group, (pk, r)), (p, r, pk)

    @pytest.mark.parametrize("p,alpha", [(2, 3), (3, 3), (5, 2), (7, 1)])
    def test_symmetry_positivity_dimension(self, p, alpha):
        group = GroupSpec(p, alpha)
        q = group.q
        for r in range(1, q + 1):
            for s in range(r, q + 1):
                product = tensor(group, r, s)
                assert product == tensor(group, s, r)
                assert all(c > 0 for c in product.coeffs.values())
                assert product.dim() == r * s


class TestDigitBlocks:
    """The digit reduction writes remainder terms b_j < p^beta straight
    into disjoint blocks and merges only multiples of p^beta."""

    @staticmethod
    def _category(p, r, s):
        _, pb = core_ring._leading_level(p, s)
        r0, r1 = divmod(r, pb)
        s0, s1 = divmod(s, pb)
        if r1 and s1:
            if pb in jordan_type(p, r1, s1).multiplicities():
                return "collision"
        elif r1 == 0:
            return "r1 = 0"
        else:
            return "s1 = 0"
        if r0 == s0:
            return "shift = 0"
        return None

    @pytest.mark.parametrize("p,alpha", [(2, 6), (3, 4), (5, 3)])
    def test_engine_equals_oracle_on_every_branch(self, p, alpha):
        # the collision category is the only one where remainder terms
        # (b_j = p^beta) land on multiples of p^beta
        group = GroupSpec(p, alpha)
        pairs = [(r, s) for s in range(1, group.q + 1) for r in range(1, s + 1)]
        random.Random(p).shuffle(pairs)
        picked = {"collision": [], "r1 = 0": [], "s1 = 0": [], "shift = 0": []}
        for r, s in pairs:
            bucket = picked.get(self._category(p, r, s))
            if bucket is not None and len(bucket) < 15:
                bucket.append((r, s))
        for name, bucket in picked.items():
            assert bucket, f"no pair in category {name} at p = {p}"
            for r, s in bucket:
                expected = jordan_type(p, r, s).multiplicities()
                assert tensor(group, r, s).coeffs == expected, (name, p, r, s)


class TestSharedMemoEntry:
    """tensor wraps the memo's read-only mapping; the checks still run."""

    def test_index_above_q_still_rejected(self, monkeypatch):
        # V_6 for (2, 3) is positive and has dimension 6, so only the
        # bound check on the stored entry, P(3) = 5 at p = 5, can catch it
        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
        monkeypatch.setattr(core_ring, "_tensor_level", lambda p, pb, r, s, idx, vals: ([6], [1]))
        with pytest.raises(VerificationError, match=r"index 6 exceeds 5 at \(5, 2, 3\)"):
            tensor(GroupSpec(5, 1), 2, 3)
        assert core_ring._TENSOR_CACHE == {}

    def test_multiplicity_beyond_int32_raises(self, monkeypatch):
        # a one-level chain: 34 terms of total dimension r s = 2^32, positive
        # and at most P(s) = 2^16, with over 2^31 copies of V_1; only the
        # int32 storage of a large entry can catch it
        r = s = 2**16
        idx = list(range(2, 35)) + [1]
        vals = [1] * 33 + [r * s - sum(idx[:-1])]
        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
        monkeypatch.setattr(core_ring, "_tensor_level", lambda p, pb, r, s, i, v: (idx, vals))
        with pytest.raises(VerificationError, match="multiplicity above min"):
            tensor(GroupSpec(2, 30), r, s)

    def test_coeffs_reject_assignment(self):
        product = tensor(G53, 7, 11)
        with pytest.raises(TypeError):
            product.coeffs[1] = 5

    def test_warm_calls_agree(self):
        first, second = tensor(G53, 7, 11), tensor(G53, 11, 7)
        assert first == second and hash(first) == hash(second)
        assert first.coeffs is second.coeffs


class TestCompactEntry:
    """A memo entry of a pair with r s above _INTERIOR_KEEP_DIM = 2^14 is a
    read-only mapping over two arrays, or two tuples above an envelope of
    2^31; a pair within it stays a read-only proxy over a dict.  All act as
    the oracle's dict of block multiplicities."""

    G54 = GroupSpec(5, 4)
    G57 = GroupSpec(5, 7)
    G216 = GroupSpec(2, 16)
    G325 = GroupSpec(3, 25)
    # at p = 5 these pairs straddle r s = 2^14, with 10 and 8 terms
    SMALL, LARGE = (128, 128), (128, 129)
    BIG = (54168, 20447)  # 1,091 terms at (5,7)
    WIDE = (65536, 65537)  # 33 terms at (5,7), r = 2^16
    HUGE = (676461728396, 529453331036)  # 95 terms at (3,25), all above 2^31
    # a level for V_{2^15} (x) V_{2^15} at p = 2 with 2^16 copies of V_1
    _OVER_UINT16 = ([1, 2**15], [2**16, 2**15 - 2])

    def test_size_rule(self):
        # the form follows the dimension, not the term count
        small, large = (tensor(self.G54, *pair).coeffs for pair in (self.SMALL, self.LARGE))
        assert 128 * 128 == core_ring._INTERIOR_KEEP_DIM < 128 * 129
        assert (len(small), len(large)) == (10, 8)
        assert type(small) is MappingProxyType
        assert type(large) is core_ring._Terms

    @pytest.mark.parametrize("pair", [SMALL, LARGE])
    def test_equality_both_ways(self, pair):
        entry = tensor(self.G54, *pair).coeffs
        want = jordan_type(5, *pair, budget=2**15).multiplicities()
        keys, values = zip(*want.items())
        reordered = core_ring._Terms(keys[::-1], values[::-1])
        for other in (want, MappingProxyType(want), entry, reordered):
            assert entry == other and other == entry
            assert not (entry != other or other != entry)
        top = max(want)
        for wrong in ({**want, top: want[top] + 1}, {i: want[i] for i in keys[1:]}):
            for other in (wrong, MappingProxyType(wrong), core_ring._Terms(*zip(*wrong.items()))):
                assert entry != other and other != entry
                assert not (entry == other or other == entry)
        assert entry != list(want.items()) and entry != 0

    @pytest.mark.parametrize("pair", [SMALL, LARGE])
    def test_reads(self, pair):
        entry = tensor(self.G54, *pair).coeffs
        want = jordan_type(5, *pair, budget=2**15).multiplicities()
        assert len(entry) == len(want)
        assert sorted(entry) == sorted(entry.keys()) == sorted(want)
        assert sorted(entry.values()) == sorted(want.values())
        assert list(zip(entry, entry.values())) == list(entry.items())
        items = entry.items()
        assert list(items) == list(items) and sorted(items) == sorted(want.items())
        assert (max(want), want[max(want)]) in items
        for i in range(self.G54.q + 2):
            assert (i in entry) == (i in entry.keys()) == (i in want)
            assert entry.get(i) == want.get(i)
            assert entry.get(i, -1) == want.get(i, -1)
            if i in want:
                assert entry[i] == want[i]
            else:
                with pytest.raises(KeyError):
                    entry[i]

    @pytest.mark.parametrize("pair", [SMALL, LARGE])
    def test_rejects_assignment(self, pair):
        entry = tensor(self.G54, *pair).coeffs
        before = dict(entry.items())
        with pytest.raises(TypeError):
            entry[1] = 5
        with pytest.raises(TypeError):
            entry[max(before)] = 5
        with pytest.raises(TypeError):
            del entry[max(before)]
        assert entry == before

    def test_storage_form_follows_the_envelope(self):
        # int32 indices; uint16 multiplicities when r < 2^16, else int32
        forms = ((self.BIG, 1091, "H"), (self.LARGE, 8, "H"), (self.WIDE, 33, "i"))
        for pair, terms, typecode in forms:
            entry = tensor(self.G57, *pair).coeffs
            assert len(entry) == terms
            assert type(entry._keys) is type(entry._values) is array
            assert (entry._keys.typecode, entry._values.typecode) == ("i", typecode)
        huge = tensor(self.G325, *self.HUGE).coeffs
        assert len(huge) == 95 and min(huge) > 2**31
        assert type(huge._keys) is type(huge._values) is tuple

    def test_text_json_and_hash_equal_a_rebuilt_element(self):
        # the arrays at (5,7) and the tuples at (3,25)
        for group, pair in ((self.G57, self.BIG), (self.G325, self.HUGE)):
            element = tensor(group, *pair)
            assert type(element.coeffs) is core_ring._Terms and len(element.coeffs) > 32
            rebuilt = RingElement(group, dict(element.coeffs.items()))
            assert type(rebuilt.coeffs) is MappingProxyType
            assert str(element).encode() == str(rebuilt).encode()
            assert json.dumps(element.to_json_dict()) == json.dumps(rebuilt.to_json_dict())
            assert hash(element) == hash(rebuilt)
            assert element == rebuilt and rebuilt == element
            assert element + rebuilt == 2 * rebuilt and element - rebuilt == zero(group)

    def test_warm_read_does_not_iterate_the_entry(self, monkeypatch):
        cold = tensor(self.G57, *self.BIG)

        def refuse(self):
            raise AssertionError("a warm read iterated the entry")

        monkeypatch.setattr(core_ring._Terms, "__iter__", refuse)
        warm = tensor(self.G57, *self.BIG[::-1])
        assert warm.coeffs is cold.coeffs and warm.group == self.G57

    def test_multiplicity_beyond_uint16_raises(self, monkeypatch):
        # a one-level chain at r = s = 2^15, positive, of dimension r s and
        # with its top index at P(s) = 2^15, but 2^16 copies of V_1: only
        # the uint16 multiplicities of an entry with r < 2^16 can catch it
        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
        monkeypatch.setattr(core_ring, "_tensor_level", lambda p, pb, r, s, i, v: self._OVER_UINT16)
        with pytest.raises(VerificationError, match=r"multiplicity above min\(r, s\)"):
            tensor(self.G216, 2**15, 2**15)
        assert core_ring._TENSOR_CACHE == {}

    def test_multiplicity_beyond_uint16_raises_under_optimize(self):
        script = (
            "from greenring import core_ring, digits\n"
            f"core_ring._tensor_level = lambda p, pb, r, s, i, v: {self._OVER_UINT16}\n"
            "try:\n"
            "    core_ring.tensor(core_ring.GroupSpec(2, 16), 2**15, 2**15)\n"
            "except digits.VerificationError as exc:\n"
            "    print(exc)\n"
        )
        out = _run_optimized(script)
        assert out.startswith("multiplicity above min(r, s)"), out

    def test_default_sweep_stores_only_dicts(self, monkeypatch):
        # every pair a default verify sweep asks for has r s <= 2^14, so
        # each is stored, and compared, as a dict
        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
        assert oracle.verify_engine(3, 4) == []
        entries = core_ring._TENSOR_CACHE.values()
        assert len(entries) == 3321
        assert all(type(entry) is MappingProxyType for entry in entries)

    def test_compact_form_is_under_half_a_dict(self):
        # 6.2 bytes a term against 33.9 for a dict of the same terms
        entry = tensor(self.G57, *self.BIG).coeffs
        assert len(entry) >= 1000
        compact = sys.getsizeof(entry) + sys.getsizeof(entry._keys) + sys.getsizeof(entry._values)
        assert compact < sys.getsizeof(dict(entry.items())) / 4


class TestLevelLists:
    """_grid builds a level as an index list and a multiplicity list, in
    which a dict no longer merges a repeated index (the lists themselves
    are checked in TestIndexTable's sweep)."""

    def test_collision_term_left_in_the_copies_raises_under_optimize(self):
        # with the cut of V_{p^beta} from the copies removed, its copies sit
        # beside the slot sums that already count it: a repeated index that
        # a dict would have merged adds positive dimension, and the
        # dimension check raises.  V_3 (x) V_4 = V_2 + 2 V_5 at p = 5, so
        # V_8 (x) V_9 reads the collision term V_5
        script = (
            "import inspect, textwrap\n"
            "from greenring import core_ring, digits\n"
            "source = inspect.getsource(core_ring._grid)\n"
            "cut = '            idx, vals = idx[:-1], vals[:-1]\\n'\n"
            "if source.count(cut) != 1:\n"
            "    raise SystemExit('the cut is not in _grid')\n"
            "exec(textwrap.dedent(source.replace(cut, '')), vars(core_ring))\n"
            "try:\n"
            "    core_ring.tensor(core_ring.GroupSpec(5, 2), 8, 9)\n"
            "except digits.VerificationError as exc:\n"
            "    print(exc)\n"
        )
        out = _run_optimized(script)
        assert out.startswith("dimension lost at (5, 8, 9)"), out


class TestMul:
    def test_unit_element(self):
        x = V(G53, (12, 1), (8, -1), (2, 1))
        assert mul(one(G53), x) == x

    def test_chi1_squared(self):
        # worked product: chi_1^2 = V_11 - V_9 + 2 V_1 over p = 5
        # (consistent with U_12 = (chi_1^2 - 1) chi_0 = V12 - V8 + V2)
        assert mul(chi(G53, 1), chi(G53, 1)) == V(G53, (11, 1), (9, -1), (1, 2))

    @pytest.mark.parametrize("p,alpha,i,j", [(3, 3, 0, 1), (3, 3, 1, 2), (5, 3, 0, 2)])
    def test_chi_product_identity(self, p, alpha, i, j):
        # chi_i chi_j = V_{p^j+p^i+1} - V_{p^j-p^i-1} - V_{p^j+p^i-1} + V_{p^j-p^i+1}
        # (colliding middle terms cancel, e.g. p = 3, i = 0, j = 1)
        group = GroupSpec(p, alpha)
        pi, pj = p**i, p**j
        expected = (
            V(group, (pj + pi + 1, 1))
            + V(group, (pj - pi - 1, -1))
            + V(group, (pj + pi - 1, -1))
            + V(group, (pj - pi + 1, 1))
        )
        assert mul(chi(group, i), chi(group, j)) == expected

    @given(
        r=st.integers(1, 27),
        s=st.integers(1, 27),
        t=st.integers(1, 27),
    )
    @settings(max_examples=40, deadline=None)
    def test_associative_on_basis(self, r, s, t):
        a, b, c = (basis_element(G33, i) for i in (r, s, t))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


_small_elements = st.dictionaries(
    st.integers(1, 27), st.integers(-3, 3), max_size=4
).map(lambda d: RingElement(G33, d))


class TestDimHomomorphism:
    @given(a=_small_elements, b=_small_elements)
    @settings(max_examples=60, deadline=None)
    def test_multiplicative_and_additive(self, a, b):
        assert mul(a, b).dim() == a.dim() * b.dim()
        assert (a + b).dim() == a.dim() + b.dim()


def _pairwise(a, b):
    """Cross-check reference for mul: the pairwise sum of
    c d V_r (x) V_s over the terms of a and b, from the memoized pair
    decompositions."""
    out = {}
    for r, c in a.coeffs.items():
        for s, d in b.coeffs.items():
            for idx, e in core_ring._tensor_coeffs(a.group.p, r, s).items():
                out[idx] = out.get(idx, 0) + c * d * e
    return RingElement(a.group, out)


def _signed(group, min_size=2, max_size=5):
    coeff = st.integers(-3, 3).filter(bool)
    return st.dictionaries(
        st.integers(1, group.q), coeff, min_size=min_size, max_size=max_size
    ).map(lambda d: RingElement(group, d))


def _clustered(group):
    """Signed elements with two to six terms under one leading digit at
    level alpha - 1, plus up to six terms anywhere.  A product of two of
    them runs mul's aggregated branch at that level: at the top level,
    or, when V_q is present, in the product of the digit-0 groups."""
    top = group.q // group.p
    coeff = st.integers(-3, 3).filter(bool)
    return st.tuples(
        st.integers(1, group.p - 1),
        st.dictionaries(st.integers(0, top - 1), coeff, min_size=2, max_size=6),
        st.dictionaries(st.integers(1, group.q), coeff, max_size=6),
    ).map(
        lambda t: RingElement(
            group, {**t[2], **{t[0] * top + r1: c for r1, c in t[1].items()}}
        )
    )


class TestMulCrossCheck:
    """Cross-check: mul's digit-group aggregation against the pairwise sum
    of pair decompositions."""

    @pytest.mark.parametrize("p,alpha", [(2, 8), (3, 5), (5, 4), (7, 3)])
    def test_signed_elements(self, p, alpha):
        group = GroupSpec(p, alpha)

        @given(_clustered(group), _clustered(group))
        @settings(max_examples=60, deadline=None, derandomize=True)
        def check(a, b):
            assert mul(a, b) == _pairwise(a, b)

        check()

    @pytest.mark.parametrize("p,alpha", [(2, 8), (3, 5), (5, 4), (7, 3)])
    def test_single_and_multi_term_digit_groups_aggregate(self, p, alpha):
        # at the top level each factor has one digit group of two terms and
        # one of a single term, so neither has a single term in every group:
        # every pair of groups aggregates, the single-term ones included
        group = GroupSpec(p, alpha)
        pb = p ** (alpha - 1)
        a = RingElement(group, {pb + 1: 2, pb + 3: -1, 3: 1})
        b = RingElement(group, {1: -3, 2: 1, pb: 2})
        for x in (a, b):
            terms = tuple(sorted(x.coeffs.items()))
            groups = core_ring._by_digit(terms, pb)
            assert sorted(map(len, groups.values())) == [1, 2]
        assert mul(a, b) == mul(b, a) == _pairwise(a, b)

    def test_a_sub_product_read_at_two_levels(self, monkeypatch):
        # the per-call table of this product at (3,5) holds the sub-product
        # (2 V_3 - 2 V_7) (-V_8) at p^beta = 3, read by a product at
        # p^beta = 9 and by one at 27; mul builds in ascending p^beta, so it
        # is there for both readers, whatever order they were found in
        group = GroupSpec(3, 5)
        a = RingElement(group, {124: -2, 147: 2, 165: 2, 169: -2, 194: -2})
        b = RingElement(group, {114: -1, 115: -1, 134: -1, 216: -2, 224: -1})
        readers = {}
        split = core_ring._split

        def recorded(p, pb, x, y):
            out = split(p, pb, x, y)
            for *_, sub in out[2]:
                readers.setdefault(sub, set()).add(out[0])
            return out

        monkeypatch.setattr(core_ring, "_split", recorded)
        assert mul(a, b) == _pairwise(a, b)
        assert readers[((3, 2), (7, -2)), ((8, -1),)] == {9, 27}

    def test_chain_products_of_72_term_u_elements(self):
        # shaped like the benchmark's products: U_r at (5,5) with r - 1 of
        # base-5 digits (d0, a, b, c, 2), (a, b, c) a permutation of
        # (1, 2, 3), each U_r times the next
        group = GroupSpec(5, 5)
        digit_rows = [(0, 1, 2, 3), (3, 2, 1, 3), (1, 3, 2, 1), (2, 1, 3, 2)]
        units = [
            u_element(group, 1 + sum(d * 5**i for i, d in enumerate((*row, 2))))
            for row in digit_rows
        ]
        assert [len(u.coeffs) for u in units] == [72] * 4
        for a, b in zip(units, units[1:]):
            assert mul(a, b) == _pairwise(a, b)

    def test_u_element_path_equals_pairs_and_leaves_only_pair_reads(self, monkeypatch):
        # all 24 U_r at (5,5) with r - 1 of base-5 digits (d0, perm(1, 2, 3), 2),
        # each times the next: mul's per-call table of aggregated products
        # changes no answer, and the pair memo ends up holding exactly what
        # mul's own pair reads store
        group = GroupSpec(5, 5)
        units = [
            u_element(group, 1 + sum(d * 5**i for i, d in enumerate((d0, *perm, 2))))
            for d0 in range(4)
            for perm in itertools.permutations((1, 2, 3))
        ]
        pairs = list(zip(units, units[1:]))
        reads = []
        tensor_coeffs = core_ring._tensor_coeffs

        def recorded(p, r, s):
            reads.append((p, r, s))
            return tensor_coeffs(p, r, s)

        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
        monkeypatch.setattr(core_ring, "_tensor_coeffs", recorded)
        products = [mul(a, b) for a, b in pairs]
        after_mul = core_ring._TENSOR_CACHE
        monkeypatch.setattr(core_ring, "_tensor_coeffs", tensor_coeffs)
        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
        for key in reads:
            tensor_coeffs(*key)
        assert reads and after_mul == core_ring._TENSOR_CACHE
        for (a, b), product in zip(pairs, products):
            assert product == _pairwise(a, b)


class TestDeepChains:
    """mul computes its aggregated products from an explicit stack, so a
    digit chain as deep as the 4,096-bit order cap answers exactly (the
    pair engine's loop is tested through the CLI, test_cli.py)."""

    @staticmethod
    def _x(group, a):
        return V(group, (2**a - 1, 1), (2**a - 3, 1))

    def test_mul_equals_pairs_at_small_depth(self):
        for a in range(2, 40):
            group = GroupSpec(2, a)
            x = self._x(group, a)
            assert mul(x, x) == _pairwise(x, x), a

    def test_mul_answers_at_4095_levels(self):
        x = self._x(GroupSpec(2, 4096), 4095)
        product = mul(x, x)
        assert product.dim() == x.dim() ** 2
        assert min(product.coeffs.values()) > 0


class TestMulAlgebra:
    """Ring laws on signed multi-term elements; they exercise the
    orientation of digit-group pairs with r0 > s0."""

    @pytest.mark.parametrize("group", [GroupSpec(3, 3), GroupSpec(2, 5)])
    def test_commutative(self, group):
        @given(_signed(group), _signed(group))
        @settings(max_examples=60, deadline=None, derandomize=True)
        def check(a, b):
            assert mul(a, b) == mul(b, a)

        check()

    @pytest.mark.parametrize("group", [GroupSpec(3, 3), GroupSpec(2, 5)])
    def test_associative(self, group):
        @given(_signed(group), _signed(group), _signed(group, max_size=4))
        @settings(max_examples=40, deadline=None, derandomize=True)
        def check(a, b, c):
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

        check()


def _run_optimized(script):
    """Run script in a child interpreter under python -O; its stdout."""
    src = str(Path(greenring.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestMulChecks:
    """mul checks its product with plain ifs that hold under python -O.
    The factors are modules whose only digit-group pair (digits 3 and 2
    at p^beta = 5) has three terms on each side, of total weight 20, so
    the patched grid helper acts on the aggregated branch only (a single
    pair passes weight 1); pair entries stay exact."""

    _SCRIPT = (
        "from greenring import core_ring, digits\n"
        "grid = core_ring._grid\n"
        "def patched(p, pb, r0, s0, w, wr1, ws1, boundary, idx, vals):\n"
        "    idx, vals = grid(p, pb, r0, s0, w, wr1, ws1, boundary, idx, vals)\n"
        "    if w > 1:\n"
        "        top = max(idx)\n"
        "        k = idx.index(top)\n"
        "{edit}"
        "    return idx, vals\n"
        "core_ring._grid = patched\n"
        "G = core_ring.GroupSpec(5, 2)\n"
        "a = core_ring.RingElement(G, {{16: 1, 17: 2, 18: 1}})\n"
        "b = core_ring.RingElement(G, {{11: 1, 12: 3, 14: 1}})\n"
        "try:\n"
        "    core_ring.mul(a, b)\n"
        "except digits.VerificationError as exc:\n"
        "    print(exc)\n"
    )

    def test_lost_term_raises_under_optimize(self):
        edit = "        del idx[k], vals[k]\n"
        out = _run_optimized(self._SCRIPT.format(edit=edit))
        assert out.startswith("dimension lost in a product"), out

    def test_negative_coefficient_raises_under_optimize(self):
        # moves the top term's dimension onto V_1, leaving -1 V_top
        edit = (
            "        idx.append(1)\n"
            "        vals.append(top * (vals[k] + 1))\n"
            "        vals[k] = -1\n"
        )
        out = _run_optimized(self._SCRIPT.format(edit=edit))
        assert out.startswith("negative multiplicity in a product"), out


class TestChiPower:
    def test_power_one_is_chi(self):
        for i in range(3):
            assert chi_power(G53, i, 1) == chi(G53, i)

    def test_p5_square(self):
        assert chi_power(G53, 1, 2) == V(G53, (11, 1), (9, -1), (1, 2))

    def test_p3_square_matches_tensor(self):
        assert chi_power(G33, 0, 2) == tensor(G33, 2, 2)

    @pytest.mark.parametrize("p,alpha", [(3, 2), (5, 2), (7, 2)])
    def test_closed_form_equals_iterated_mul(self, p, alpha):
        group = GroupSpec(p, alpha)
        for i in range(alpha):
            acc = one(group)
            for s in range(1, p):
                acc = mul(acc, chi(group, i))
                assert chi_power(group, i, s) == acc, (p, i, s)

    def test_exponent_out_of_range(self):
        with pytest.raises(ValueError):
            chi_power(G53, 0, 5)


class TestInduce:
    def test_regular_module_from_trivial_subgroup(self):
        assert induce(G53, 0, 1) == basis_element(G53, 125)

    def test_p3_example(self):
        assert induce(GroupSpec(3, 2), 1, 2) == basis_element(GroupSpec(3, 2), 6)

    def test_p5_example(self):
        assert induce(G53, 2, 7) == basis_element(G53, 35)

    def test_image_is_exactly_multiples_of_p(self):
        group = GroupSpec(3, 3)
        image = {
            induce(group, beta, r).top_index()
            for beta in range(group.alpha)
            for r in range(1, group.p**beta + 1)
        }
        assert image == set(range(3, 28, 3))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induce(G53, 3, 1)
        with pytest.raises(ValueError):
            induce(G53, 1, 6)


class TestReductionParameters:
    """The leading-level split and digit case that drive one level of the
    reduction of V_r (x) V_s, r <= s."""

    @pytest.mark.parametrize(
        "p,r,s",
        [
            (5, 2, 11), (5, 7, 11), (5, 11, 21), (3, 4, 7), (2, 3, 7), (5, 9, 9),
            (5, 2, 3), (5, 3, 25), (2, 1, 1),
        ],
    )
    def test_case_split(self, p, r, s):
        beta, pb = core_ring._leading_level(p, s)
        assert pb == p**beta
        r0, r1 = divmod(r, pb)
        s0, s1 = divmod(s, pb)
        assert pb <= s < pb * p and 1 <= s0 < p
        assert r == r0 * pb + r1 and 0 <= r1 < pb
        assert s == s0 * pb + s1 and 0 <= s1 < pb
        if r0 + s0 < p:
            d1 = d2 = r0
        else:
            d1, d2 = p - s0 - 1, p - s0
            # the carry term: c1 = r + s - p^(beta+1) copies of V_{p^(beta+1)}
            product = tensor(GroupSpec(p, beta + 1), r, s)
            assert product.coeffs.get(pb * p, 0) == r + s - pb * p
        # d1 and d2 read off the grid of one pair: remainders (0, 0) give
        # only the d2 weight terms, at odd k; (0, 1) gives the d1 step
        # terms at even k, and weight terms beside them when p^beta > 1

        def slots(r1, s1):
            out, _ = core_ring._grid(p, pb, r0, s0, 1, r1, s1, max(0, r1 - s1), (), ())
            return [(i - (s0 - r0) * pb) // pb for i in out if i < pb * p]

        assert slots(0, 0) == [2 * i - 1 for i in range(1, d2 + 1)]
        assert [k for k in slots(0, 1) if k % 2 == 0] == [2 * i for i in range(1, d1 + 1)]


class TestDigitZeroPart:
    """_grid at r0 = s0 = 0, mul's pair of two digit-0 groups: the level is
    the remainders' product itself, in its order, with a term at p^beta,
    the collision term, put back last; the four sums write nothing."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("beta", [1, 2])
    def test_identity_on_the_remainders_product(self, p, beta):
        pb = p**beta
        rng = random.Random(pb)
        for collision in (False, True):
            for size in range(pb):
                idx = rng.sample(range(1, pb), size) + [pb] * collision
                vals = [rng.choice((-3, -1, 1, 2, 5)) for _ in idx]
                left = ((rng.randrange(1, pb), rng.choice((-2, 1, 3))),)
                right = {rng.randrange(1, pb): rng.choice((-2, 1, 3)) for _ in range(3)}
                sums = core_ring._merge(left, tuple(sorted(right.items())))
                out = core_ring._grid(p, pb, 0, 0, *sums, tuple(idx), tuple(vals))
                assert out == (idx, vals), (sums, idx, vals)


class TestMemoRetention:
    """The memo keeps every pair a caller asks for, and an interior pair of
    a digit chain only when r s <= _INTERIOR_KEEP_DIM; larger interior
    entries are computed, checked, used and dropped."""

    G57 = GroupSpec(5, 7)
    # at (5,7) the chain of V_r (x) V_s reads the interior pair (150, 200)
    # at p^beta = 5^6: 150 * 200 = 30000 is above the bound
    R, S = 3 * 5**6 + 200, 4 * 5**6 + 150

    @staticmethod
    def _queries(group, count):
        rng = random.Random(7)
        return [(rng.randint(1, group.q), rng.randint(1, group.q)) for _ in range(count)]

    def test_cold_tensor_calls_keep_requested_and_drop_large_interior(self, monkeypatch):
        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
        queries = self._queries(self.G57, 3000)
        for r, s in queries:
            tensor(self.G57, r, s)
        requested = {(5, min(r, s), max(r, s)) for r, s in queries}
        memo = core_ring._TENSOR_CACHE
        assert requested <= memo.keys()
        large = {key for key in memo if key[1] * key[2] > core_ring._INTERIOR_KEEP_DIM}
        assert large <= requested
        # the rule has something to drop: interior entries below the bound are kept
        assert len(memo) > len(requested)

    def test_mul_pair_reads_are_kept(self, monkeypatch):
        # every V-term of b sits alone in its digit group, so mul reads the
        # pair memo for every pair of terms
        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
        a = V(self.G57, (47075, 1), (30100, 2))
        b = V(self.G57, (62650, 1), (15000, 3))
        mul(a, b)
        pairs = {(5, min(r, s), max(r, s)) for r in a.coeffs for s in b.coeffs}
        assert pairs <= core_ring._TENSOR_CACHE.keys()

    def test_warm_call_returns_the_same_mapping(self, monkeypatch):
        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
        cold = tensor(self.G57, self.R, self.S)
        assert (5, 150, 200) not in core_ring._TENSOR_CACHE
        assert tensor(self.G57, self.S, self.R).coeffs is cold.coeffs

    def test_results_equal_a_memo_that_keeps_everything(self, monkeypatch):
        # 115,067 pairs: 3,000 random pairs and every ordered pair
        # r, s <= 60 at six groups, and every r <= s <= 256/243/125/100 at
        # p = 2/3/5/7
        pairs = []
        for p, alpha in [(2, 12), (3, 7), (5, 5), (7, 4), (11, 3), (5, 7)]:
            q = p**alpha
            rng = random.Random(q)
            pairs += [(p, alpha, rng.randint(1, q), rng.randint(1, q)) for _ in range(3000)]
            pairs += [(p, alpha, r, s) for r in range(1, 61) for s in range(1, 61)]
        for p, alpha, top in [(2, 8, 256), (3, 5, 243), (5, 3, 125), (7, 3, 100)]:
            pairs += [(p, alpha, r, s) for s in range(1, top + 1) for r in range(1, s + 1)]
        assert len(pairs) == 115067
        groups = {key: GroupSpec(*key) for key in {(p, alpha) for p, alpha, _, _ in pairs}}

        def run():
            monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
            return [tensor(groups[p, alpha], r, s).coeffs for p, alpha, r, s in pairs]

        bounded = run()
        monkeypatch.setattr(core_ring, "_INTERIOR_KEEP_DIM", float("inf"))
        assert run() == bounded

    def test_a_compact_entry_read_as_a_remainders_product(self, monkeypatch):
        # a requested (150, 200) is kept as a _Terms; the chain of (R, S)
        # stops at it and builds its one level from it, to the terms, in
        # their order, of the same query on a cleared memo
        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
        cold = list(tensor(self.G57, self.R, self.S).coeffs.items())
        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
        assert type(tensor(self.G57, 150, 200).coeffs) is core_ring._Terms
        levels = []
        tensor_level = core_ring._tensor_level

        def recorded(p, pb, r, s, idx, vals):
            levels.append((r, s))
            return tensor_level(p, pb, r, s, idx, vals)

        monkeypatch.setattr(core_ring, "_tensor_level", recorded)
        warm = list(tensor(self.G57, self.R, self.S).coeffs.items())
        assert levels == [(self.R, self.S)]
        assert warm == cold

    _SCRIPT = (
        "from greenring import core_ring, digits\n"
        "level = core_ring._tensor_level\n"
        "def patched(p, pb, r, s, idx, vals):\n"
        "    idx, vals = level(p, pb, r, s, idx, vals)\n"
        "    if (r, s) == (150, 200):\n"
        "        k = idx.index(max(idx))\n"
        "        del idx[k], vals[k]\n"
        "    return idx, vals\n"
        "core_ring._tensor_level = patched\n"
        "try:\n"
        "    core_ring.tensor(core_ring.GroupSpec(5, 7), {r}, {s})\n"
        "except digits.VerificationError as exc:\n"
        "    print(exc)\n"
    )

    def test_lost_dimension_on_a_dropped_entry_raises(self, monkeypatch):
        level = core_ring._tensor_level

        def patched(p, pb, r, s, idx, vals):
            idx, vals = level(p, pb, r, s, idx, vals)
            if (r, s) == (150, 200):
                k = idx.index(max(idx))
                del idx[k], vals[k]
            return idx, vals

        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
        monkeypatch.setattr(core_ring, "_tensor_level", patched)
        with pytest.raises(VerificationError, match=r"dimension lost at \(5, 150, 200\)"):
            tensor(self.G57, self.R, self.S)

    def test_lost_dimension_on_a_dropped_entry_raises_under_optimize(self):
        out = _run_optimized(self._SCRIPT.format(r=self.R, s=self.S))
        assert out.startswith("dimension lost at (5, 150, 200)"), out


class TestIndexTable:
    """Indices as _grid writes them, plain ints, and as the memo holds
    them: each stored entry's indices run from 1 to P(s), the least power
    of p that is at least s."""

    G57 = GroupSpec(5, 7)

    @pytest.fixture
    def cleared(self, monkeypatch):
        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})

    def test_memo_keys_are_the_table_objects(self, cleared):
        # every entry of the memo, requested and interior, after 300 cold
        # queries at (5,7)
        rng = random.Random(1)
        for _ in range(300):
            tensor(self.G57, rng.randint(1, self.G57.q), rng.randint(1, self.G57.q))
        memo = core_ring._TENSOR_CACHE
        assert len(memo) > 300
        for (p, r, s), entry in memo.items():
            _, pb = core_ring._leading_level(p, s)
            bound = pb if s == pb else pb * p
            assert all(type(i) is int and 1 <= i <= bound for i in entry), (r, s)
            if r * s <= core_ring._INTERIOR_KEEP_DIM:
                assert type(entry) is MappingProxyType
            else:
                assert entry._keys.typecode == "i"
                assert entry._values.typecode == ("H" if r < 2**16 else "i")

    def test_table_stays_within_its_bound(self, cleared):
        # the 4,095-level chain, whose envelope 2^4095 is far above int32
        product = tensor(GroupSpec(2, 4096), 3, 2**4095 - 1)
        assert product.dim() == 3 * (2**4095 - 1) and min(product.coeffs.values()) > 0
        assert max(product.coeffs) <= 2**4095

    def test_no_nonpositive_index_is_read(self, monkeypatch):
        # every pair r <= s of the pinned sweep groups, and mul products of
        # U-elements and of signed elements at (5,3); every level _grid
        # writes holds only positive indices, each once, and a term at the
        # envelope p^(beta+1), the collision term of the level above, last
        grid = core_ring._grid
        levels = []

        def recorded(p, pb, r0, s0, w, wr1, ws1, boundary, idx, vals):
            out = grid(p, pb, r0, s0, w, wr1, ws1, boundary, idx, vals)
            levels.append((p * pb, *out))
            return out

        monkeypatch.setattr(core_ring, "_grid", recorded)
        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
        for p, alpha in ((3, 4), (7, 2), (5, 3), (2, 7)):
            group = GroupSpec(p, alpha)
            for s in range(1, group.q + 1):
                for r in range(1, s + 1):
                    tensor(group, r, s)
        units = [u_element(G53, r) for r in range(1, G53.q + 1, 7)]
        for a, b in zip(units, units[1:]):
            assert mul(a, b) == _pairwise(a, b)
        rng = random.Random(5)
        for _ in range(50):
            a, b = (
                RingElement(G53, {rng.randint(1, 125): rng.choice((-2, -1, 1, 3)) for _ in range(6)})
                for _ in range(2)
            )
            assert mul(a, b) == _pairwise(a, b)
        assert len(levels) > 20000
        for envelope, idx, vals in levels:
            assert len(idx) == len(vals) == len(set(idx))
            assert min(idx, default=1) > 0
            assert envelope not in idx[:-1]

    def test_concurrent_growth_keeps_every_slot(self, cleared):
        # four threads start together from an empty memo and ask for
        # overlapping pairs whose envelopes rise level by level, so each
        # reads entries that others are still storing
        pairs = [
            (group, r, p**k + r)
            for group, p in ((self.G57, 5), (GroupSpec(2, 16), 2))
            for k in range(group.alpha)
            for r in (1, 2, 3, p**k - 1)
            if r >= 1 and p**k + r <= group.q
        ]
        want = [dict(tensor(*pair).coeffs) for pair in pairs]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                core_ring._TENSOR_CACHE = {}
                barrier = threading.Barrier(4)
                results = [None] * 4

                def work(t):
                    barrier.wait()
                    order = pairs[t::2] + pairs  # overlapping, in two orders
                    got = {pair: dict(tensor(*pair).coeffs) for pair in order}
                    results[t] = [got[pair] for pair in pairs]

                threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [want] * 4
        finally:
            sys.setswitchinterval(switch)

    def test_import_and_trick_leave_the_table_empty(self):
        # the tensor memo, after import and after a digit trick
        script = (
            "from greenring import cli, core_ring\n"
            "print(len(core_ring._TENSOR_CACHE))\n"
            "cli.main(['trick', '62', '--base', '5'])\n"
            "print(len(core_ring._TENSOR_CACHE))\n"
        )
        src = str(Path(greenring.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        first, *_, last = done.stdout.splitlines()
        assert (first, last) == ("0", "0"), done.stdout
