import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from crosschecks import (
    block_multiplicities_euclid,
    first_column,
    jordan_type_elder,
    rank_mod_p_pivoting,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import greenring
from greenring import core_ring, oracle
from greenring.digits import VerificationError
from greenring.oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    JordanType,
    _barrett,
    _box_blocks,
    _echelon_basis,
    _reduce,
    _repeat,
    _times_nilpotent,
    jordan_type,
    jordan_type_dense,
    rank_fp,
    tensor_generator_matrix,
    verify_engine,
)

# A prime with p*(p-1) >= 2^63, beyond what int64 elimination could hold;
# the oracle works in Python ints and takes it.
INT64_UNSAFE_PRIME = 4294967311
# The largest prime with p*(p-1) < 2^63; the next prime is 3037000507.
LARGEST_ADMITTED_PRIME = 3037000493

# sha256 of one line "p r s blocks..." per pair of the default-budget sweeps
# of (3,4), (7,2), (5,3) and (2,7), lines joined by newlines.
SWEEP_DIGEST = "1f25a4ed0725d3a3bbc30eba7856c5e72fe8045a8a25846c4992e25cc6887a19"


def _dense(rows, n):
    """Rows {column: residue} as lists of length n."""
    return [[row.get(c, 0) for c in range(n)] for row in rows]


def _field(c, s):
    """The field of column c in a packed row: c itself, or, with s,
    c + c // s, a zero guard field following each run of s columns."""
    return c if s is None else c + c // s


def _pack(row, p, s=None):
    """A row {column: entry} packed as the oracle packs it, one field per
    column holding the entry mod p."""
    width = _barrett(p)[0]
    return sum(int(v) % p << width * _field(c, s) for c, v in row.items())


def _rows(matrix, p, s=None):
    """A matrix as packed rows."""
    return [_pack(dict(enumerate(row)), p, s) for row in matrix]


def _entries(row, p, s=None):
    """A packed row as {column: field} on its nonzero fields; with s, the
    guard fields must be zero."""
    width = _barrett(p)[0]
    out = {}
    for f in range(row.bit_length() // width + 1):
        if v := row >> width * f & (1 << width) - 1:
            assert s is None or f % (s + 1) < s, f"guard field {f} holds {v}"
            out[f if s is None else f - f // (s + 1)] = v
    return out


class TestGeneratorMatrix:
    def test_trivial(self):
        assert _dense(tensor_generator_matrix(5, 1, 1), 1) == [[1]]

    def test_identity_factor(self):
        m = tensor_generator_matrix(3, 2, 1)
        assert _dense(m, 2) == [[1, 0], [1, 1]]

    def test_kron_2x2_mod2(self):
        m = tensor_generator_matrix(2, 2, 2)
        j2 = np.array([[1, 0], [1, 1]])
        assert _dense(m, 4) == (np.kron(j2, j2) % 2).tolist()

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            tensor_generator_matrix(2, 200, 200, budget=100)


class TestRankFp:
    def test_entries_reduced(self):
        # all three are invertible over Q; negative entries reduce too
        assert rank_fp(5, [[7, -1], [10, 3]]) == 2
        assert rank_fp(5, [[5, 10], [-5, 15]]) == 0
        assert rank_fp(3, [[4, 1], [1, -2]]) == 1

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            rank_fp(6, [[1]])

    def test_prime_beyond_int64(self):
        p = INT64_UNSAFE_PRIME
        assert rank_fp(p, [[1]]) == 1
        # dependent only mod p; d a - c b would overflow int64
        assert rank_fp(p, [[1, 2], [p + 1, 2 * p + 2]]) == 1
        assert rank_fp(p, [[p - 1, p - 1], [p - 1, 1]]) == 2

    def test_requires_two_dimensions(self):
        for entries in ([1, 2, 3], [[[1]]], [[1, 2], [3]]):
            with pytest.raises(ValueError):
                rank_fp(5, entries)

    def test_identity(self):
        assert rank_fp(7, np.eye(5, dtype=int)) == 5

    def test_zero(self):
        assert rank_fp(3, np.zeros((4, 4), dtype=int)) == 0

    def test_nilpotent_block(self):
        n = (np.array(_dense(tensor_generator_matrix(3, 3, 1), 3)) - np.eye(3, dtype=int)) % 3
        assert rank_fp(3, n) == 2

    def test_rank_counts_mod_p(self):
        # rows dependent over F_5 but independent over Q
        assert rank_fp(5, [[1, 2], [6, 7]]) == 1
        assert rank_fp(5, [[1, 2], [6, 8]]) == 2

    def test_entries_beyond_int64(self):
        # 2^70 = 4 and -2^70 = 1 mod 5; neither fits in int64
        assert rank_fp(5, [[2**70, 1], [1, 1]]) == 2
        assert rank_fp(5, [[-(2**70), 1], [1, 1]]) == 1
        assert rank_fp(7, [[2**64 + 1, 2**64]]) == 1

    def test_largest_admitted_prime_does_not_overflow(self):
        p = LARGEST_ADMITTED_PRIME
        assert p * (p - 1) < 2**63 <= 3037000507 * 3037000506
        assert rank_fp(p, [[p - 1] * 4] * 4) == 1
        # rows -(1, 1) and (-1, 1) are independent
        assert rank_fp(p, [[p - 1, p - 1], [p - 1, 1]]) == 2
        basis = _echelon_basis(_rows([[p - 1] * 3] * 3, p), p)
        assert [_entries(row, p) for row in basis] == [{0: 1, 1: 1, 2: 1}]


@st.composite
def _matrices_mod_p(draw):
    """A prime from {2, 3, 5, 7, 101} and an int64 matrix of residues up to
    30 x 30: a product of two factors drawn from a seed, so ranks below
    full occur, with some rows set to zero."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101]), label="p")
    rows = draw(st.integers(1, 30), label="rows")
    cols = draw(st.integers(1, 30), label="cols")
    inner = draw(st.integers(1, 30), label="inner")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    matrix = rng.integers(0, p, size=(rows, inner)) @ rng.integers(0, p, size=(inner, cols)) % p
    zero = draw(st.lists(st.integers(0, rows - 1), max_size=rows), label="zero rows")
    matrix[zero] = 0
    return p, matrix


class TestEchelonBasis:
    """The trailing-column echelon basis behind rank_fp and
    jordan_type_dense, against leading-column pivoting."""

    @given(_matrices_mod_p())
    def test_rank_equals_pivoting_cross_check(self, case):
        p, matrix = case
        basis = [_entries(row, p) for row in _echelon_basis(_rows(matrix, p), p)]
        assert len(basis) == rank_mod_p_pivoting(matrix.copy(), p)
        # nonzero residues, one trailing column per row, each ending in 1,
        # and the same row space
        assert all(0 < v < p for row in basis for v in row.values())
        trailing = [max(row) for row in basis]
        assert len(set(trailing)) == len(trailing)
        assert all(row[low] == 1 for row, low in zip(basis, trailing))
        cols = matrix.shape[1]
        stacked = np.vstack([matrix, np.array(_dense(basis, cols), dtype=np.int64).reshape(-1, cols)])
        assert rank_mod_p_pivoting(stacked, p) == len(basis)

    @given(_matrices_mod_p(), st.data())
    def test_rank_invariant_under_row_permutation(self, case, data):
        p, matrix = case
        order = data.draw(st.permutations(range(len(matrix))), label="order")
        assert len(_echelon_basis(_rows(matrix[order], p), p)) == len(_echelon_basis(_rows(matrix, p), p))

    def test_empty_shapes(self):
        assert rank_fp(3, np.zeros((0, 4), dtype=int)) == 0
        assert rank_fp(3, np.zeros((4, 0), dtype=int)) == 0


class TestJordanType:
    def test_identity_factor(self):
        for s in (1, 4, 9):
            assert jordan_type(3, 1, s) == JordanType((s,))

    def test_spec_values(self):
        assert jordan_type(3, 2, 3).blocks == (3, 3)
        assert jordan_type(5, 2, 11).blocks == (12, 10)

    def test_symmetry(self):
        for p in (2, 3, 5):
            for r in range(1, 8):
                for s in range(1, 8):
                    assert jordan_type(p, r, s) == jordan_type(p, s, r)

    def test_dimension_always_rs(self):
        for p in (2, 3, 5, 7):
            for r in range(1, 10):
                for s in range(r, 10):
                    assert jordan_type(p, r, s).dimension == r * s

    def test_block_count_is_min(self):
        for p in (2, 3, 5):
            for r in range(1, 11):
                for s in range(r, 11):
                    assert len(jordan_type(p, r, s).blocks) == r

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            jordan_type(2, 150, 150, budget=16384)

    def test_prime_beyond_int64(self):
        # p >= r + s - 1, so the blocks are r+s-1, r+s-3, ..., s-r+1
        assert jordan_type(INT64_UNSAFE_PRIME, 9, 13).blocks == (21, 19, 17, 15, 13, 11, 9, 7, 5)
        assert jordan_type_dense(INT64_UNSAFE_PRIME, 3, 4).blocks == (6, 4, 2)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_fast_path_equals_dense_rank_sequence(self, p):
        # r x r presentation reduction over F_p[t] vs the literal
        # Kronecker/rank-sequence oracle
        for r in range(1, 15):
            for s in range(r, 15):
                assert jordan_type(p, r, s) == jordan_type_dense(p, r, s), (p, r, s)

    def test_fast_path_equals_dense_bigger_spot_checks(self):
        for p, r, s in ((2, 9, 31), (3, 17, 26), (5, 12, 37), (7, 20, 22)):
            assert jordan_type(p, r, s) == jordan_type_dense(p, r, s)

    def test_fast_path_equals_dense_on_benchmark_spot_pool(self):
        # the 26 pairs the benchmark draws its dense spot checks from
        pool = [(r, s) for r in range(9, 16) for s in range(r, 26) if 200 <= r * s <= 250]
        assert len(pool) == 26
        for r, s in pool:
            assert jordan_type(5, r, s) == jordan_type_dense(5, r, s), (r, s)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_fast_path_equals_dense_square_and_lopsided(self, p):
        # r = s: the first column holds every row, and the one reduced
        # column that ends at the last row loses it when shifted; r << s:
        # long runs of columns shift with no row falling off
        for r, s in ((15, 15), (16, 16), (2, 64), (3, 80)):
            assert jordan_type(p, r, s) == jordan_type_dense(p, r, s), (r, s)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_equals_elder_rule_cross_check(self, p):
        # the box criterion vs the column-by-column elder rule on the
        # presentation, every r <= s <= 64
        for s in range(1, 65):
            for r in range(1, s + 1):
                assert jordan_type(p, r, s) == jordan_type_elder(p, r, s), (r, s)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_box_criterion_equals_euclid_cross_check(self, p):
        # the same remainder degrees read off box counts and computed by
        # the Euclidean algorithm, as dicts in the same order, every
        # r <= s <= 64
        for s in range(1, 65):
            for r in range(1, s + 1):
                got = list(_box_blocks(p, r, s).items())
                assert got == list(block_multiplicities_euclid(p, r, s).items()), (r, s)

    def test_box_criterion_equals_euclid_at_random_large_p(self):
        rng = random.Random(2026)
        primes = [17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 2**31 - 1]
        for _ in range(300):
            p = rng.choice(primes)
            r = rng.randint(1, 128)
            s = rng.randint(r, DEFAULT_BUDGET // r)
            assert _box_blocks(p, r, s) == block_multiplicities_euclid(p, r, s), (p, r, s)

    def test_block_multiplicities_ascending(self):
        # one entry per remainder, sizes strictly increasing, on both routes
        for blocks in (_box_blocks, block_multiplicities_euclid):
            assert blocks(5, 3, 4) == {2: 1, 5: 2}
            for p in (2, 3, 7):
                for s in range(1, 40):
                    for r in range(1, s + 1):
                        sizes = list(blocks(p, r, s))
                        assert sizes == sorted(set(sizes)), (p, r, s)

    def test_sweep_over_r_builds_few_first_columns(self):
        # an ascending sweep over r asks for lengths 1, 2, 4, ... and s
        for p, s in ((5, 100), (2, 128)):
            first_column.cache_clear()
            for r in range(1, s + 1):
                block_multiplicities_euclid(p, r, s)
            assert first_column.cache_info().currsize <= math.ceil(math.log2(s)) + 1

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(p=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]), data=st.data())
    def test_engine_equals_oracle_at_random_pairs(self, p, data):
        budget = 16384
        r = data.draw(st.integers(1, 128), label="r")
        hi = budget // r
        if r * r <= 300 and data.draw(st.booleans(), label="dense"):
            hi = 300 // r
        s = data.draw(st.integers(r, hi), label="s")
        alpha = 1
        while p**alpha < s:
            alpha += 1
        expected = jordan_type(p, r, s, budget=budget)
        got = core_ring.tensor(core_ring.GroupSpec(p, alpha), r, s)
        assert got.coeffs == expected.multiplicities()
        if r * s <= 300:
            assert expected == jordan_type_dense(p, r, s)

    def test_sweep_digest_pinned(self):
        lines = []
        for p, alpha in ((3, 4), (7, 2), (5, 3), (2, 7)):
            q = p**alpha
            for s in range(1, min(q, DEFAULT_BUDGET) + 1):
                for r in range(1, min(s, DEFAULT_BUDGET // s) + 1):
                    blocks = jordan_type(p, r, s).blocks
                    lines.append(f"{p} {r} {s} " + " ".join(map(str, blocks)))
        assert len(lines) == 20677
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SWEEP_DIGEST

    @pytest.mark.parametrize("p,alpha", [(2, 17), (3, 10)])
    def test_engine_equals_box_criterion_past_budget(self, p, alpha):
        # r s far above DEFAULT_BUDGET: the criterion costs O(r) a pair
        group = core_ring.GroupSpec(p, alpha)
        rng = random.Random(p * 1000 + alpha)
        for _ in range(40):
            r = rng.randint(1000, 20000)
            s = rng.randint(r, group.q)
            assert core_ring.tensor(group, r, s).coeffs == _box_blocks(p, r, s), (r, s)

    @pytest.mark.parametrize("p,top", [(2**31 - 1, 40), (61, 30)])
    def test_large_p_is_clebsch_gordan(self, p, top):
        # for p >= r + s - 1 the blocks are r+s-1, r+s-3, ..., s-r+1
        for s in range(1, top + 1):
            for r in range(1, s + 1):
                assert jordan_type(p, r, s).blocks == tuple(range(r + s - 1, s - r, -2))

    def test_multiplicity_formula_sanity(self):
        # number of blocks = rank(N^0) - rank(N^1)
        p, r, s = 3, 5, 7
        g = np.array(_dense(tensor_generator_matrix(p, r, s), r * s))
        n = (g - np.eye(r * s, dtype=np.int64)) % p
        blocks = len(jordan_type(p, r, s).blocks)
        assert r * s - rank_fp(p, n) == blocks


class TestFirstColumn:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_equals_direct_formula(self, p):
        # every length for s <= 64; for s <= 200 the lengths jordan_type
        # asks for, the powers of two below s and s itself.  A tuple only
        # equals a tuple, so this also pins the type no caller can alter.
        for s in range(1, 201):
            full = tuple((-1) ** k * math.comb(s, k) % p for k in range(s))
            lengths = range(s + 1) if s <= 64 else [*(1 << e for e in range(s.bit_length())), s]
            for length in lengths:
                assert first_column(p, s, length) == full[:length], (s, length)


class TestJordanTypeDataclass:
    def test_sorted_descending(self):
        assert JordanType((1, 3, 2)).blocks == (3, 2, 1)

    def test_multiplicities(self):
        assert JordanType((5, 5, 1)).multiplicities() == {5: 2, 1: 1}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            JordanType((0,))

    def test_rejects_non_integral_blocks(self):
        with pytest.raises(TypeError):
            JordanType((2.5, 1))
        assert JordanType((np.int64(2), True)).blocks == (2, 1)


def _swept_pairs(q, budget):
    """The pair count ``verify_engine`` holds against its cap: the lengths
    of the sweep's rows, summed."""
    return sum(len(row) for _, row in oracle._sweep_rows(q, budget))


class TestVerifyEngine:
    def test_p2_full(self):
        assert verify_engine(2, 3) == []

    def test_p2_exhaustive_to_64(self):
        # the p = 2 degeneracy of the column rule, swept over all of q = 64
        assert verify_engine(2, 6) == []

    def test_p3_full(self):
        assert verify_engine(3, 3) == []

    def test_p5_alpha2_full(self):
        assert verify_engine(5, 2) == []

    def test_budget_skips_large_pairs(self):
        # only pairs with r*s <= budget are checked; must still be clean
        assert verify_engine(3, 4, budget=500) == []

    @pytest.mark.parametrize("budget", [0, -5])
    def test_rejects_budget_below_one(self, budget):
        # such a budget checks no pair, so a clean result would mean nothing
        with pytest.raises(ValueError, match="budget"):
            verify_engine(3, 2, budget=budget)

    def test_wrong_pair_is_reported(self, monkeypatch):
        # an engine that answers V_3 (x) V_4 = 2 V_4 + 2 V_2 at p = 5: the
        # entry lists the expected blocks descending and the engine's answer
        real = core_ring._tensor_level
        monkeypatch.setattr(core_ring, "_TENSOR_CACHE", {})
        monkeypatch.setattr(
            core_ring,
            "_tensor_level",
            lambda p, pb, r, s, idx, vals: (
                ([4, 2], [2, 2]) if (r, s) == (3, 4) else real(p, pb, r, s, idx, vals)
            ),
        )
        got = {"p": 5, "alpha": 1, "coeffs": {"2": 2, "4": 2}}
        assert verify_engine(5, 1) == [{"r": 3, "s": 4, "expected": [5, 5, 2], "got": got}]

    def test_large_group_small_budget_is_bounded(self):
        # q = 2^16 has about 2e9 pairs; only the 144 within budget are visited
        assert verify_engine(2, 16, budget=64) == []

    @pytest.mark.parametrize("q", [1, 2, 9, 64, 1000, 2**30])
    @pytest.mark.parametrize("budget", [1, 2, 63, 64, 65, 1000, 20000])
    def test_sweep_pairs_counts_the_visited_pairs(self, q, budget):
        direct = sum(min(s, budget // s) for s in range(1, min(q, budget) + 1))
        assert _swept_pairs(q, budget) == direct

    def test_default_budget_is_within_the_cap(self):
        # s <= 16384 reaches every pair the default budget admits
        most = _swept_pairs(2**30, DEFAULT_BUDGET)
        assert most == _swept_pairs(16384, DEFAULT_BUDGET) == 80840
        assert most <= oracle.MAX_VERIFY_PAIRS

    @pytest.mark.parametrize("p,alpha", [(2, 3), (3, 2), (2, 6)])
    @pytest.mark.parametrize("budget", [1, 9, 63, 64, 10**6])
    def test_judged_pairs_match_an_independent_enumeration(self, monkeypatch, p, alpha, budget):
        # every pair 1 <= r <= s <= q with r s <= budget, each once, s then r ascending
        judged = []
        real = oracle._box_blocks

        def recording(p, r, s):
            judged.append((r, s))
            return real(p, r, s)

        monkeypatch.setattr(oracle, "_box_blocks", recording)
        assert verify_engine(p, alpha, budget=budget) == []
        q = p**alpha
        brute = [(r, s) for s in range(1, q + 1) for r in range(1, s + 1) if r * s <= budget]
        assert judged == brute

    def test_oversized_sweep_refused_before_any_pair(self, monkeypatch):
        # (3, 2) at budget 9 sweeps 1 + 2 + 3 + 2 + 1 + 1 + 1 + 1 + 1 = 13
        # pairs: a cap of 13 lets it through, 12 refuses it unvisited
        monkeypatch.setattr(oracle, "MAX_VERIFY_PAIRS", 13)
        assert verify_engine(3, 2, budget=9) == []
        monkeypatch.setattr(oracle, "MAX_VERIFY_PAIRS", 12)

        def visited(p, r, s):
            raise AssertionError(f"pair ({r}, {s}) visited")

        monkeypatch.setattr(oracle, "_box_blocks", visited)
        with pytest.raises(ValueError, match="more than 12 pairs"):
            verify_engine(3, 2, budget=9)
        # a sweep this large would run for days; it is refused at once
        monkeypatch.setattr(oracle, "MAX_VERIFY_PAIRS", 2**20)
        with pytest.raises(ValueError, match="sweeps more than 1048576 pairs"):
            verify_engine(2, 30, budget=10**12)


class TestShiftedProduct:
    """jordan_type_dense multiplies by N = J_r (x) J_s - 1 as three shifted
    copies of each row; it must equal the dense product with g - 1."""

    @pytest.mark.parametrize(
        "p,r,s", [(2, 1, 1), (2, 3, 8), (3, 4, 4), (5, 9, 25), (5, 15, 16), (7, 6, 2)]
    )
    def test_equals_dense_product(self, p, r, s):
        n = r * s
        g = np.array(_dense(tensor_generator_matrix(p, r, s), n))
        nilpotent = (g - np.eye(n, dtype=np.int64)) % p
        rows = np.random.default_rng(r * s).integers(0, p, size=(7, n))
        got = _times_nilpotent(_rows(rows, p, s), r, s, p)
        assert _dense([_entries(row, p, s) for row in got], n) == (rows @ nilpotent % p).tolist()

    def test_checked_against_generator(self, monkeypatch):
        def without_corner(rows, r, s, p):
            out = []
            for row in rows:
                prod = {}
                for c, v in _entries(row, p, s).items():
                    if c >= s:
                        prod[c - s] = prod.get(c - s, 0) + v
                    if c % s:
                        prod[c - 1] = prod.get(c - 1, 0) + v
                out.append(_pack(prod, p, s))
            return out

        monkeypatch.setattr(oracle, "_times_nilpotent", without_corner)
        with pytest.raises(VerificationError, match="shifted product"):
            jordan_type_dense(3, 2, 2)

    def test_rank_of_nilpotent_checked(self, monkeypatch):
        # losing one row of N's basis still gives nonnegative multiplicities
        # summing to r s; only the fixed-point count catches it
        real = oracle._echelon_basis
        calls = []

        def drop_one_row(work, p):
            calls.append(None)
            basis = real(work, p)
            return basis[1:] if len(calls) == 1 else basis

        monkeypatch.setattr(oracle, "_echelon_basis", drop_one_row)
        with pytest.raises(VerificationError, match="rank of g - 1 is 8, not 9"):
            jordan_type_dense(5, 3, 4)


# the primes of the reduction tests: the smallest ones, one of 7 bits, and
# primes just under 2^31, just over 2^32 and at 10^18
REDUCTION_PRIMES = [2, 3, 5, 7, 101, 2**31 - 1, INT64_UNSAFE_PRIME, 10**18 + 3]


class TestBarrettReduction:
    """One Barrett step reduces every field of a packed row mod p, as long
    as each field is below p^2."""

    @given(p=st.sampled_from(REDUCTION_PRIMES), data=st.data())
    def test_equals_fieldwise_mod(self, p, data):
        fields = data.draw(st.lists(st.integers(0, p * p - 1), min_size=1, max_size=40), label="fields")
        width, k, m = _barrett(p)
        q = _repeat((1 << width - k) - 1, width, len(fields))
        packed = sum(v << width * j for j, v in enumerate(fields))
        assert _reduce(packed, p, k, m, q) == sum(v % p << width * j for j, v in enumerate(fields))

    @pytest.mark.parametrize("p", REDUCTION_PRIMES)
    def test_fields_stay_below_p_squared(self, p):
        # the largest field before a reduction: a product with N, a row
        # step row + (p - c) own, and a row scaled to end in 1
        for most in (3 * (p - 1), (p - 1) + (p - 1) ** 2, (p - 1) ** 2):
            assert most < p * p
        width, k, m = _barrett(p)
        q = _repeat((1 << width - k) - 1, width, 1)
        assert [_reduce(x, p, k, m, q) for x in (p * p - 1, p, p - 1)] == [p - 1, 0, p - 1]


def _run_python(*args, path=()):
    src = str(Path(greenring.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *path])}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


TESTS = str(Path(__file__).resolve().parent)


def test_corrupted_w_table_raises_under_optimize():
    # over F_5, (1 - x)^5 = 1 - x^5 is 1 mod x^3, of degree 0 by Lucas;
    # with W(6) bumped, m = 1 passes the box criterion for r = 3, s = 5.
    # The check is a plain if, so it holds under python -O
    script = (
        "from greenring import digits, oracle\n"
        "oracle._w_table(5, 8)[6] += 1\n"
        "try:\n"
        "    oracle.jordan_type(5, 3, 5)\n"
        "except digits.VerificationError as e:\n"
        "    print(e)\n"
    )
    done = _run_python("-O", "-c", script)
    assert (done.returncode, done.stdout) == (
        0, "box criterion gives (1 - x)^5 mod x^3 over F_5 degree 1, not 0\n"
    ), done.stderr


def test_corrupted_w_table_past_lucas_raises_under_optimize():
    # with W(150) bumped at p = 5, m = 1 passes the box criterion for
    # r = 51, s = 101, where r + s - 2 = 150 and 50 + 100 carries in base 5;
    # the largest degree is still right, so only the Kummer check on
    # degree 1 sees it.  It is a plain if, so it holds under python -O
    script = (
        "from greenring import digits, oracle\n"
        "oracle._w_table(5, 152)[150] += 1\n"
        "try:\n"
        "    oracle.jordan_type(5, 51, 101)\n"
        "except digits.VerificationError as e:\n"
        "    print(e)\n"
    )
    done = _run_python("-O", "-c", script)
    assert (done.returncode, done.stdout) == (
        0,
        "box criterion keeps degree 1 of x^51 and (1 - x)^101 over F_5, "
        "against C(150, 50) by Kummer\n",
    ), done.stderr


def test_remainders_above_constant_raise_under_optimize():
    # the Euclidean cross-check: with C(s, k) read as 0 except at k = 2,
    # f mod x^3 is x^2, which divides x^3; the check is a plain if, so it
    # holds under python -O
    script = (
        "import types\n"
        "import crosschecks\n"
        "from greenring import digits\n"
        "crosschecks.math = types.SimpleNamespace(comb=lambda n, k: int(k == 2))\n"
        "try:\n"
        "    crosschecks.block_multiplicities_euclid(5, 3, 4)\n"
        "except digits.VerificationError as e:\n"
        "    print(e)\n"
    )
    done = _run_python("-O", "-c", script, path=[TESTS])
    assert (done.returncode, done.stdout) == (
        0, "remainders of x^3 and (1 - x)^4 over F_5 end at degree 2, not 0\n"
    ), done.stderr
    assert "Traceback" not in done.stderr


def test_block_size_sum_raises_under_optimize():
    # the Euclidean cross-check: a first remainder step that stops after
    # one row operation leaves x^3 mod (1 - x) at degree 2, above its
    # divisor: the degrees rise once, two segments share a size and the
    # dict keeps one of them
    script = (
        "import crosschecks\n"
        "from greenring import digits\n"
        "real = crosschecks.poly_remainder\n"
        "calls = []\n"
        "def one_row(a, b, p):\n"
        "    calls.append(None)\n"
        "    if len(calls) > 1:\n"
        "        return real(a, b, p)\n"
        "    c = a[0] * pow(b[0], -1, p) % p\n"
        "    a = [(x - c * y) % p for x, y in zip(a, b + [0] * len(a))]\n"
        "    while a and not a[0]:\n"
        "        del a[0]\n"
        "    return a\n"
        "crosschecks.poly_remainder = one_row\n"
        "try:\n"
        "    crosschecks.block_multiplicities_euclid(3, 3, 4)\n"
        "except digits.VerificationError as e:\n"
        "    print(e)\n"
    )
    done = _run_python("-O", "-c", script, path=[TESTS])
    assert (done.returncode, done.stdout) == (
        0, "block sizes sum to 16, not 12, for p=3, r=3, s=4\n"
    ), done.stderr


def test_nilpotent_rank_check_raises_under_optimize():
    # the fixed-point check is a plain if, so it holds under python -O
    script = (
        "from greenring import digits, oracle\n"
        "real = oracle._echelon_basis\n"
        "calls = []\n"
        "def drop_one_row(work, p):\n"
        "    calls.append(None)\n"
        "    basis = real(work, p)\n"
        "    return basis[1:] if len(calls) == 1 else basis\n"
        "oracle._echelon_basis = drop_one_row\n"
        "try:\n"
        "    oracle.jordan_type_dense(5, 3, 4)\n"
        "except digits.VerificationError as e:\n"
        "    print(e)\n"
    )
    done = _run_python("-O", "-c", script)
    assert (done.returncode, done.stdout) == (
        0, "rank of g - 1 is 8, not 9, for p=5, r=3, s=4\n"
    ), done.stderr


def test_faulty_reduction_raises_under_optimize():
    # with the Barrett multiplier one short, a field at p stays at p, so a
    # row step leaves its trailing field in place and would repeat
    # forever; the check is a plain if, so it holds under python -O
    script = (
        "from greenring import digits, oracle\n"
        "real = oracle._barrett\n"
        "def short_multiplier(p):\n"
        "    width, k, m = real(p)\n"
        "    return width, k, m - 1\n"
        "oracle._barrett = short_multiplier\n"
        "try:\n"
        "    oracle.jordan_type_dense(5, 3, 4)\n"
        "except digits.VerificationError as e:\n"
        "    print(e)\n"
    )
    done = _run_python("-O", "-c", script)
    assert (done.returncode, done.stdout) == (0, "row step mod 5 left field 0 uncleared\n"), done.stderr


def test_package_runs_without_numpy():
    # with numpy unimportable, the package, every CLI command and the
    # dense cross-check run
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import greenring\n"
        "from greenring import cli, oracle\n"
        "for argv in (\n"
        "    ['tensor', '--p', '5', '--alpha', '3', '2', '11'],\n"
        "    ['ubasis', '--p', '5', '--alpha', '3', '12'],\n"
        "    ['cousins', '63', '--base', '5'],\n"
        "    ['matrix', '--p', '2', '--alpha', '2'],\n"
        "    ['trick', '62', '--base', '5'],\n"
        "    ['rank', '12', '--p', '2'],\n"
        "    ['verify', '--p', '3', '--alpha', '2'],\n"
        "    ['relations', '--p', '5', '--alpha', '2'],\n"
        "):\n"
        "    print(cli.main(argv))\n"
        "print(oracle.jordan_type_dense(5, 3, 4).blocks)\n"
        "print(oracle.tensor_generator_matrix(3, 2, 1))\n"
        "print(oracle.rank_fp(3, [[1, 2], [2, 4]]))\n"
    )
    done = _run_python("-c", script)
    assert (done.returncode, done.stdout.split("\n")) == (
        0,
        [
            "V12 + V10", "0",
            "V12 - V8 + V2", "0",
            "37 43 57 63", "0",
            "1,0,0,0", "0,1,0,0", "1,0,1,0", "0,0,0,1", "0",
            "62 = (3)(3)(2) + (3)(2)(3) + (2)(3)(3) + (2)(2)(2)", "0",
            "quotient_rank 4, phi 4", "0",
            "0 mismatches", "0",
            "F0 F1 all vanish", "0",
            "(5, 5, 2)",
            "[{0: 1}, {0: 1, 1: 1}]",
            "1",
            "",
        ],
    ), done.stderr


def test_import_builds_no_table():
    # import greenring must stay cheap: the W tables and the digit
    # tables fill on first use, not at import
    script = (
        "import greenring\n"
        "from greenring import cli, digits, oracle\n"
        "caches = (digits._chunk_tables,)\n"
        "sizes = lambda: [len(oracle._W_TABLES), *(c.cache_info().currsize for c in caches)]\n"
        "print(sizes())\n"
        "cli.main(['trick', '62', '--base', '5'])\n"
        "oracle.jordan_type(5, 3, 4)\n"
        "print(sizes())\n"
    )
    done = _run_python("-c", script)
    assert (done.returncode, done.stdout) == (
        0, "[0, 0]\n62 = (3)(3)(2) + (3)(2)(3) + (2)(3)(3) + (2)(2)(2)\n[1, 1]\n"
    ), done.stderr


def test_library_boundary():
    # the package and a CLI command load none of the tests' dependencies
    # or cross-checks, and every exported name resolves
    script = (
        "import importlib, pkgutil, sys\n"
        "import greenring\n"
        "from greenring import cli\n"
        "cli.main(['rank', '12', '--p', '2'])\n"
        "print(sorted({'sympy', 'hypothesis', 'crosschecks'} & set(sys.modules)))\n"
        "missing = [n for n in greenring.__all__ if not hasattr(greenring, n)]\n"
        "for info in pkgutil.iter_modules(greenring.__path__):\n"
        "    module = importlib.import_module('greenring.' + info.name)\n"
        "    names = getattr(module, '__all__', ())\n"
        "    missing += [info.name + '.' + n for n in names if not hasattr(module, n)]\n"
        "print(missing)\n"
    )
    done = _run_python("-c", script)
    assert (done.returncode, done.stdout) == (0, "quotient_rank 4, phi 4\n[]\n[]\n"), done.stderr
