"""The pick-a-number digit identity.

For any base b >= 2 and any n >= 1, the splitting recursion below produces
a set J of integers j <= n such that n is the sum over J of the products
of (digit + 1) over the base-b digits of j - 1.  For prime bases the set J
is the U-basis support of the n-th indecomposable; the recursion itself
never looks at a group, so composite bases work too and are checked
exhaustively in the test suite.

The module also holds the package's single prime factorization, its
primality test and its ``VerificationError``; it imports nothing from the
package, so the engine-free oracle can share them.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = [
    "VerificationError",
    "prime_factors",
    "is_prime",
    "TrickCertificate",
    "to_digits",
    "trick_set",
    "trick_certificate",
]


class VerificationError(Exception):
    """An internal invariant failed: the computed answer is wrong, not the
    input.  The command line reports it with exit status 1."""


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n in ascending order, by trial division;
    empty for n <= 1."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# Miller-Rabin with the primes up to 41 as bases is exact below this
# bound (Sorenson and Webster 2015); the same primes serve as the trial
# divisors that reject composites with a small factor at once.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Primality by trial division by the primes up to 41, then a
    deterministic Miller-Rabin test; raises ``ValueError`` at or above
    the bound where those bases are proven exact rather than guess."""
    if n < 2:
        return False
    for d in _SMALL_PRIMES:
        if n % d == 0:
            return n == d
    if n < 43 * 43:
        return True
    if n >= _MILLER_RABIN_LIMIT:
        raise ValueError(
            f"primality of {n} is not decided: deterministic Miller-Rabin "
            f"is exact only below {_MILLER_RABIN_LIMIT}"
        )
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _SMALL_PRIMES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_base(base: int) -> None:
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")


def to_digits(n: int, base: int) -> tuple[int, ...]:
    """Little-endian base-b digits, no leading zeros; 0 has no digits."""
    _check_base(base)
    if n < 0:
        raise ValueError("digit expansion requires n >= 0")
    digits = []
    while n:
        n, d = divmod(n, base)
        digits.append(d)
    return tuple(digits)


def split_indices(r: int, base: int, level: int) -> frozenset[int]:
    """Index set of the level-by-level splitting recursion.

    At level 0 the set is {r}.  At level beta write r = m b^beta + j with
    0 <= j < b^beta; when b does not divide m and j != 0, descend into both
    m b^beta + j and m b^beta - j, otherwise descend into r unchanged.
    The j = 0 case takes the single branch: the split would duplicate r.
    """
    if level == 0:
        return frozenset((r,))
    step = base**level
    m, j = divmod(r, step)
    if m % base != 0 and j != 0:
        upper = split_indices(r, base, level - 1)
        lower = split_indices(m * step - j, base, level - 1)
        joint = upper & lower
        if joint:
            raise VerificationError(f"splitting produced duplicates {sorted(joint)}")
        return upper | lower
    return split_indices(r, base, level - 1)


def trick_set(n: int, base: int) -> frozenset[int]:
    """The index set J for n: the recursion run from the lowest level
    whose power of the base exceeds n (higher levels are no-ops)."""
    _check_base(base)
    if n < 1:
        raise ValueError("the identity is stated for n >= 1")
    level = 1
    while base**level <= n:
        level += 1
    return split_indices(n, base, level)


@dataclasses.dataclass(frozen=True)
class TrickCertificate:
    """Checked witness of the digit identity for one (n, base) pair.

    ``terms`` holds one (j, digits of j-1, product of digits+1) triple per
    index, ascending in j; the products sum to n by construction.
    """

    n: int
    base: int
    j_set: tuple[int, ...]
    terms: tuple[tuple[int, tuple[int, ...], int], ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "base": self.base,
            "terms": [
                {"j": j, "digits": list(digits), "product": product}
                for j, digits, product in self.terms
            ],
            "sum": sum(product for _, _, product in self.terms),
        }


def trick_certificate(n: int, base: int) -> TrickCertificate:
    """Build and verify the certificate; a sum mismatch raises rather than
    returning a bad witness (it would mean the recursion is misread)."""
    indices = sorted(trick_set(n, base))
    terms = []
    for j in indices:
        digits = to_digits(j - 1, base)
        product = math.prod(d + 1 for d in digits)
        terms.append((j, digits, product))
    total = sum(product for _, _, product in terms)
    if total != n:
        raise VerificationError(
            f"digit identity failed for n={n} base={base}: got {total}"
        )
    return TrickCertificate(n, base, tuple(indices), tuple(terms))
