import math
import random

import pytest
import sympy
from crosschecks import trick_text_per_digit
from hypothesis import given, settings
from hypothesis import strategies as st

from greenring import digits
from greenring.core_ring import GroupSpec
from greenring.digits import (
    MAX_INDEX_SET,
    VerificationError,
    is_prime,
    prime_factors,
    split_indices,
    to_digits,
    trick_certificate,
    trick_set,
)
from greenring.ubasis import MAX_MATRIX_ORDER, cousins, v_in_u


class TestToDigits:
    def test_worked_example(self):
        assert to_digits(61, 5) == (1, 2, 2)

    def test_zero_is_empty(self):
        assert to_digits(0, 7) == ()

    def test_single_digit(self):
        assert to_digits(9, 10) == (9,)

    def test_bad_base(self):
        with pytest.raises(ValueError):
            to_digits(5, 1)

    @given(n=st.integers(0, 10**9), base=st.integers(2, 16))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, n, base):
        digits = to_digits(n, base)
        assert sum(d * base**i for i, d in enumerate(digits)) == n
        assert all(0 <= d < base for d in digits)
        assert not digits or digits[-1] != 0


class TestPrimes:
    def test_against_sympy(self):
        assert all(is_prime(n) == sympy.isprime(n) for n in range(-2, 100_001))
        for n in range(1, 2001):
            assert list(prime_factors(n).items()) == sorted(sympy.factorint(n).items()), n

    @pytest.mark.parametrize(
        "n,factors",
        [(2**20 * 3, {2: 20, 3: 1}), (1048573, {1048573: 1}), (1009 * 1013, {1009: 1, 1013: 1})],
    )
    def test_limit_admits_factors_up_to_it(self, n, factors):
        assert prime_factors(n, 2**20) == factors

    @pytest.mark.parametrize(
        "n", [1000000000000000003, 999999000001, 1048583, 3 * 1048583, 1048583**2]
    )
    def test_limit_refuses_a_larger_prime_factor(self, n):
        # trial division stops at the limit, so even 10^18 + 3 (prime)
        # is refused after at most 2^20 divisions
        with pytest.raises(ValueError):
            prime_factors(n, 2**20)

    def test_small_factor_rejects_at_once(self):
        # 2^61 - 1 is prime: dividing it out by trial would take minutes
        assert not is_prime(2 * (2**61 - 1))

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
    def test_rejects_strong_pseudoprimes(self, n):
        # strong pseudoprimes to the bases 2..7 and 2..23 respectively
        assert not sympy.isprime(n)
        assert not is_prime(n)

    def test_large_primes_at_once(self):
        assert is_prime(10**18 + 3)
        assert is_prime(2**61 - 1)
        assert not is_prime((10**9 + 7) * (10**9 + 9))

    def test_undecided_above_the_miller_rabin_bound(self):
        # 3317044064679887385961981 has no prime factor up to 41
        with pytest.raises(ValueError, match="Miller-Rabin"):
            is_prime(3317044064679887385961981)


class TestTrickSet:
    def test_worked_example(self):
        assert trick_set(62, 5) == frozenset({62, 58, 38, 32})

    def test_single_digit_n(self):
        for base in (2, 5, 10):
            for n in range(1, base):
                assert trick_set(n, base) == frozenset({n})

    def test_base_powers(self):
        assert trick_set(100, 10) == frozenset({100})
        assert trick_set(8, 2) == frozenset({8})

    def test_max_is_n(self):
        for n in (1, 17, 62, 99, 1000):
            values = trick_set(n, 5)
            assert max(values) == n
            assert all(1 <= j <= n for j in values)

    @pytest.mark.parametrize("p,alpha", [(2, 5), (3, 4), (5, 3)])
    def test_prime_base_matches_u_basis_support(self, p, alpha):
        group = GroupSpec(p, alpha)
        for n in range(1, group.q):
            assert trick_set(n, p) == frozenset(v_in_u(group, n)), (p, n)


class TestTrickCertificate:
    def test_worked_example(self):
        cert = trick_certificate(62, 5)
        assert cert.j_set == (32, 38, 58, 62)
        products = sorted(product for _, _, product in cert.terms)
        assert products == [8, 18, 18, 18]
        assert sum(products) == 62

    def test_single_term(self):
        cert = trick_certificate(7, 10)
        assert cert.terms == ((7, (6,), 7),)

    def test_power_of_base(self):
        cert = trick_certificate(100, 10)
        assert cert.terms == ((100, (9, 9), 100),)

    def test_products_match_digits(self):
        for n in (3, 61, 62, 125, 9999):
            for j, digits, product in trick_certificate(n, 5).terms:
                assert digits == to_digits(j - 1, 5)
                assert product == math.prod(d + 1 for d in digits)

    def test_json_shape(self):
        payload = trick_certificate(62, 5).to_json_dict()
        assert payload["n"] == 62 and payload["base"] == 5
        assert payload["sum"] == 62
        assert [t["j"] for t in payload["terms"]] == [32, 38, 58, 62]

    @given(n=st.integers(1, 5000), base=st.sampled_from([2, 3, 4, 5, 6, 7, 9, 10]))
    @settings(max_examples=300, deadline=None)
    def test_identity_holds(self, n, base):
        cert = trick_certificate(n, base)
        assert sum(product for _, _, product in cert.terms) == n


class TestTrickText:
    def test_equals_per_digit_cross_check_small_n(self):
        for base in range(2, 12):
            for n in range(1, 1001):
                cert = trick_certificate(n, base)
                assert cert.to_text() == trick_text_per_digit(cert), (n, base)

    def test_equals_per_digit_cross_check_seeded_pairs(self):
        # bases up to 400 take both the chunk path and the per-digit path
        rng = random.Random(23)
        for _ in range(500):
            cert = trick_certificate(rng.randint(1, 10**6), rng.randint(2, 400))
            assert cert.to_text() == trick_text_per_digit(cert), (cert.n, cert.base)

    @pytest.mark.parametrize(
        "n,base,text",
        [
            (1, 10, "1 = 1"),
            (9, 10, "9 = 9"),
            (10, 10, "10 = 10"),
            (100, 10, "100 = (10)(10)"),
            (257, 256, "257 = (2)(1) + 255"),
            (258, 257, "258 = (2)(1) + 256"),
        ],
    )
    def test_edge_cases(self, n, base, text):
        # n = 1, terms of one digit printing their product, and the last
        # base of the chunk path next to the first of the per-digit path
        assert trick_certificate(n, base).to_text() == text

    @pytest.mark.parametrize("base", [2, 3, 10, 16, 255, 256])
    def test_exact_powers_of_the_chunk(self, base):
        # j - 1 = chunk^e: every chunk below the top one is all zeros
        chunk = digits._chunk_tables(base)[0]
        for e in (1, 2, 3):
            cert = trick_certificate(chunk**e + 1, base)
            assert cert.j_set[-1] - 1 == chunk**e
            assert cert.to_text() == trick_text_per_digit(cert), (e, base)

    def test_labels_match_the_digits_of_every_table_entry(self):
        for base in range(2, digits._CHUNK_LIMIT + 1):
            _, padded, leading, *labels = digits._chunk_tables(base)
            for table, text in zip((padded, leading), labels):
                assert len(text) == len(table)
                for (ds, _), label in zip(table, text):
                    assert label == "".join(f"({d + 1})" for d in reversed(ds))


def _split_recursive(r, base, level):
    """Cross-check of the level-by-level ``split_indices``: the splitting
    recursion in recursive form, one disjointness check and one frozenset
    union per split."""
    if level == 0:
        return frozenset((r,))
    step = base**level
    m, j = divmod(r, step)
    if m % base != 0 and j != 0:
        upper = _split_recursive(r, base, level - 1)
        lower = _split_recursive(m * step - j, base, level - 1)
        if upper & lower:
            raise VerificationError(f"splitting produced duplicates {sorted(upper & lower)}")
        return upper | lower
    return _split_recursive(r, base, level - 1)


class TestSplitIndices:
    def test_cross_check_trick_sets_against_recursion(self):
        for base in (2, 3, 5, 7, 10):
            level = 1
            for n in range(1, 3001):
                while base**level <= n:
                    level += 1
                assert trick_set(n, base) == _split_recursive(n, base, level), (n, base)

    @pytest.mark.parametrize("p,alpha", [(2, 7), (3, 5), (5, 4)])
    def test_cross_check_curly_u_against_recursion(self, p, alpha):
        group = GroupSpec(p, alpha)
        for r in range(1, group.q + 1):
            for beta in range(alpha + 1):
                want = tuple(sorted(_split_recursive(r, p, beta)))
                assert tuple(sorted(split_indices(r, p, beta))) == want, (p, r, beta)

    def test_level_zero_is_the_index(self):
        assert split_indices(62, 5, 0) == frozenset({62})

    def test_alternating_binary_grows_like_fibonacci(self):
        # 87381 = 0b10101010101010101: |J| is the Fibonacci number F(18)
        assert len(trick_set(87381, 2)) == 2584

    def test_cap_admits_small_groups_and_cousins_below_a_million(self):
        assert MAX_INDEX_SET >= MAX_MATRIX_ORDER
        assert len(cousins(2**19 - 1, 2)) == 2**18

    def test_oversized_sets_raise_value_error(self, monkeypatch):
        monkeypatch.setattr(digits, "MAX_INDEX_SET", 2000)
        with pytest.raises(ValueError, match="exceeds 2000 entries"):
            trick_set(87381, 2)
        assert len(trick_set(21845, 2)) == 987  # 0b101010101010101
        with pytest.raises(ValueError, match="2048 cousins"):
            cousins(2**12 - 1, 2)
        assert len(cousins(2**11 - 1, 2)) == 1024
