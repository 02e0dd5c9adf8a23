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
import functools
import math

__all__ = [
    "VerificationError",
    "prime_factors",
    "is_prime",
    "TrickCertificate",
    "to_digits",
    "trick_set",
    "trick_certificate",
    "MAX_INDEX_SET",
]


class VerificationError(Exception):
    """An internal invariant failed: the computed answer is wrong, not the
    input.  The command line reports it with exit status 1."""


def prime_factors(n: int, limit: int | None = None) -> dict[int, int]:
    """The factorization of n as {prime: exponent}, primes ascending (so
    iterating it gives the distinct primes), by trial division; empty for
    n <= 1.  With a limit, trial division stops past it and a prime factor
    above the limit raises ``ValueError``, so no n costs more than limit
    divisions."""
    out: dict[int, int] = {}
    top = n if limit is None else limit
    rest, d = n, 2
    while d * d <= rest and d <= top:
        while rest % d == 0:
            out[d] = out.get(d, 0) + 1
            rest //= d
        d += 1
    if rest > top:
        raise ValueError(f"{n} has a prime factor above {limit}")
    if rest > 1:
        out[rest] = 1
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


# Index sets are capped so that no input can run until it is killed: |J|
# grows like a Fibonacci number in alternating binary digits (2,584 terms at
# n = 87,381, and beyond any memory at n = 6148914691236517205), and the
# cousins of n number 2^(nonzero non-leading digits).  The cap admits every
# cousin set of n <= 10^6 (at most 2^18, in base 2), every trick set of
# n <= 100,000 in bases 2..10 (at most 2,584) and every index set of a group
# with q <= 4096 (a subset of 1..q).  ``ubasis.u_element`` applies it to its
# bound on the V-support of U_r.
MAX_INDEX_SET = 2**18


def split_indices(r: int, base: int, level: int) -> frozenset[int]:
    """Index set of the splitting recursion, walked level by level.

    The walk starts from [r] at level ``level`` and goes down to level 1.
    At level beta each index x = m b^beta + j with 0 <= j < b^beta stays,
    and when b does not divide m and j != 0 it also gains the partner
    m b^beta - j = x - 2j; at level 0 the list holds the set.  The j = 0
    case takes the single branch: the split would duplicate x.  Two
    branches reaching one index raise ``VerificationError`` (one length
    check on the final list catches every such duplicate); a list longer
    than ``MAX_INDEX_SET`` raises ``ValueError`` at the level it appears.
    """
    indices = [r]
    for beta in range(level, 0, -1):
        step = base**beta
        indices += [x - 2 * j for x in indices if (j := x % step) and x // step % base]
        if len(indices) > MAX_INDEX_SET:
            raise ValueError(
                f"the index set of {r} in base {base} exceeds {MAX_INDEX_SET} "
                f"entries at level {beta}"
            )
    out = frozenset(indices)
    if len(out) != len(indices):
        raise VerificationError(f"splitting produced duplicates for {r} in base {base}")
    return out


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

    ``products`` holds, for each index j of ``j_set`` (ascending), the
    product of (digit + 1) over the digits of j - 1; ``trick_certificate``
    checks at construction that they sum to n.  ``terms`` is derived from
    them on each read: one (j, digits of j - 1, product) triple per index.
    """

    n: int
    base: int
    j_set: tuple[int, ...]
    products: tuple[int, ...]

    @property
    def terms(self) -> tuple[tuple[int, tuple[int, ...], int], ...]:
        return tuple(zip(self.j_set, _expansions(self.j_set, self.base), self.products))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "base": self.base,
            "terms": [
                {"j": j, "digits": list(digits), "product": product}
                for j, digits, product in self.terms
            ],
            "sum": sum(self.products),
        }

    def to_text(self) -> str:
        """The identity as one line, 'n = ' and the terms in descending j
        joined by ' + ': each term is the (d+1) labels of the digits of
        j - 1, most significant first, or its product when j - 1 has fewer
        than two digits.

        For a base up to _CHUNK_LIMIT, j - 1 is expanded by divmods by the
        chunk and each chunk's labels are read from ``_chunk_tables``; a
        larger base has few digits per number and formats each one."""
        base, parts = self.base, []
        pairs = zip(reversed(self.j_set), reversed(self.products))
        if base > _CHUNK_LIMIT:
            for j, product in pairs:
                ds = to_digits(j - 1, base)
                text = "".join(f"({d + 1})" for d in reversed(ds))
                parts.append(text if len(ds) > 1 else str(product))
        else:
            chunk, _, _, padded, leading = _chunk_tables(base)
            for j, product in pairs:
                x, text = j - 1, ""
                if x < base:
                    parts.append(str(product))
                    continue
                while x >= chunk:
                    x, low = divmod(x, chunk)
                    text = padded[low] + text
                parts.append(leading[x] + text)
        return f"{self.n} = " + " + ".join(parts)


# Digit expansions of a base up to _CHUNK_LIMIT read whole chunks of digits
# and their text from tables built once per base (``_chunk_tables``); a
# larger base has few digits per number and expands and formats them one by
# one.
_CHUNK_LIMIT = 256


@functools.lru_cache(maxsize=None)  # at most one entry per base <= _CHUNK_LIMIT
def _chunk_tables(base: int) -> tuple[int, tuple, tuple, tuple, tuple]:
    """(chunk, padded, leading, padded labels, leading labels) for chunk =
    base^w, the largest power of the base up to _CHUNK_LIMIT.  For
    x < chunk, padded[x] is (the w digits of x, little-endian and
    zero-filled, their product of (digit + 1)), and leading[x] the same
    without the zero fill; the labels of each are its digits as "(d+1)"
    text, most significant digit first, in tuples of their own so that
    ``TrickCertificate.to_text`` unpacks no more per term than it reads."""
    padded = [((), 1)]
    while len(padded) * base <= _CHUNK_LIMIT:
        # x = low + len(padded) d: the new digit d goes on top
        padded = [(ds + (d,), p * (d + 1)) for d in range(base) for ds, p in padded]
    leading = [((), 1)] + [(to_digits(x, base), p) for x, (_, p) in enumerate(padded) if x]
    labels = [f"({d + 1})" for d in range(base)]
    text = [tuple("".join(labels[d] for d in reversed(ds)) for ds, _ in table)
            for table in (padded, leading)]
    return len(padded), tuple(padded), tuple(leading), *text


def _expansions(indices, base: int) -> list[tuple[int, ...]]:
    """The digits of j - 1, little-endian, for each index j."""
    if base > _CHUNK_LIMIT:
        return [to_digits(j - 1, base) for j in indices]
    chunk, padded, leading, _, _ = _chunk_tables(base)
    expansions = []
    for j in indices:
        x, digits = j - 1, ()
        while x >= chunk:
            x, low = divmod(x, chunk)
            digits += padded[low][0]
        expansions.append(digits + leading[x][0])
    return expansions


def _products(indices, base: int) -> list[int]:
    """The product of (digit + 1) over the digits of j - 1, for each index j."""
    if base > _CHUNK_LIMIT:
        return [math.prod(d + 1 for d in to_digits(j - 1, base)) for j in indices]
    chunk, padded, leading, _, _ = _chunk_tables(base)
    products = []
    for j in indices:
        x, product = j - 1, 1
        while x >= chunk:
            x, low = divmod(x, chunk)
            product *= padded[low][1]
        products.append(product * leading[x][1])
    return products


def trick_certificate(n: int, base: int) -> TrickCertificate:
    """Build and verify the certificate; a sum mismatch raises rather than
    returning a bad witness (it would mean the recursion is misread).

    Each index's product of successors of the digits of j - 1 is read from
    per-base tables of digit chunks (``_products``); the digits themselves
    are left to ``TrickCertificate.terms``.  The base was checked once by
    ``trick_set``."""
    indices = sorted(trick_set(n, base))
    products = _products(indices, base)
    total = sum(products)
    if total != n:
        raise VerificationError(
            f"digit identity failed for n={n} base={base}: got {total}"
        )
    return TrickCertificate(n, base, tuple(indices), tuple(products))
