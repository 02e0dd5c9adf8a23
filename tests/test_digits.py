import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from greenring.core_ring import GroupSpec
from greenring.digits import (
    is_prime,
    prime_factors,
    to_digits,
    trick_certificate,
    trick_set,
)
from greenring.ubasis import v_in_u


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
        for n in range(-2, 2001):
            assert is_prime(n) == sympy.isprime(n), n
            if n >= 1:
                assert prime_factors(n) == sorted(sympy.factorint(n)), n

    def test_small_factor_rejects_at_once(self):
        # 2^61 - 1 is prime: dividing it out by trial would take minutes
        assert not is_prime(2 * (2**61 - 1))


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
