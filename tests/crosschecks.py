"""The tests' cross-checks: closed forms that the library does not run.

Each function is a second derivation of something the library computes
another way, kept here so the tests can compare the two:

* ``quantum_number`` and ``quantum_closed_form``: the quantum-number
  polynomials [n], by the recurrence and by the alternating binomial sum,
  as coefficient tuples with the constant term first; ``evaluate`` reads
  one at an integer;
* ``chi_power``: chi_i^s by the binomial closed form, against repeated
  ``mul`` by chi_i;
* ``mul_chi_V``: chi_k . V_s by the column rule, against the digit
  reduction of the tensor engine;
* ``rank_mod_p_pivoting``: rank over F_p by leading-column pivoting with
  an outer-product update per pivot, against the oracle's trailing-column
  echelon basis;
* ``trick_text_per_digit``: a digit certificate's text, formatting every
  digit of every term, against ``TrickCertificate.to_text``, which joins
  the labels of whole digit chunks;
* ``block_multiplicities_euclid``: the block size -> multiplicity dict of
  V_r (x) V_s from the Euclidean remainders of x^r and (1 - x)^s over F_p
  (``poly_remainder``, from the presentation's ``first_column``), against
  the oracle's box criterion, which reads the same remainder degrees off
  p-adic valuations of box counts;
* ``jordan_type_elder``: the Jordan type of V_r (x) V_s by the elder rule
  on the columns of the scalar presentation matrix, against both.

The tests import it as ``from crosschecks import ...``; pytest puts this
directory on ``sys.path``.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

from greenring.core_ring import GroupSpec, RingElement
from greenring.digits import TrickCertificate, VerificationError
from greenring.oracle import JordanType

if TYPE_CHECKING:
    import numpy as np


def evaluate(coeffs: tuple[int, ...], x: int) -> int:
    """The polynomial with these coefficients, constant term first, at x."""
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def quantum_number(n: int) -> tuple[int, ...]:
    """The n-th quantum number by the recurrence [n] = [2][n-1] - [n-2].

    [n] has degree n - 1 and leading coefficient 1, so X [n-1] is two
    coefficients longer than [n-2]; [0] is the empty tuple."""
    if n < 0:
        raise ValueError("quantum numbers are indexed by n >= 0")
    prev, cur = (), (1,)
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, tuple(a - b for a, b in zip((0, *cur), (*prev, 0, 0)))
    return cur


def quantum_closed_form(n: int) -> tuple[int, ...]:
    """[n] as the alternating binomial sum over X^(n-1-2i).

    The nominal summation bound ceil(n/2) overshoots; summands whose
    binomial coefficient vanishes are simply zero.
    """
    if n < 1:
        raise ValueError("closed form is stated for n >= 1")
    out = [0] * n
    for i in range(math.ceil(n / 2) + 1):
        e = n - 1 - 2 * i
        if e < 0 or n - 1 - i < i:
            continue
        out[e] = (-1) ** i * math.comb(n - 1 - i, i)
    return tuple(out)


def chi_power(group: GroupSpec, i: int, s: int) -> RingElement:
    """chi_i^s, 0 < s < p, by the binomial closed form.

    Summand nu contributes binom(s, nu) (V_{e p^i + 1} - V_{e p^i - 1})
    with e = s - 2 nu; terms whose index falls to zero or below vanish, so
    negative e contributes nothing and e = 0 leaves the central
    binom(s, s/2) V_1.
    """
    if not 0 <= i < group.alpha:
        raise ValueError(f"level {i} outside 0..{group.alpha - 1}")
    if not 0 < s < group.p:
        raise ValueError(f"exponent {s} outside 1..{group.p - 1}")
    pi = group.p**i
    out: dict[int, int] = {}
    for nu in range(s + 1):
        coeff = math.comb(s, nu)
        e = s - 2 * nu
        for idx, sign in ((e * pi + 1, 1), (e * pi - 1, -1)):
            if idx > 0:
                out[idx] = out.get(idx, 0) + sign * coeff
    return RingElement(group, out)


def mul_chi_V(group: GroupSpec, k: int, s: int) -> RingElement:
    """Decomposition of chi_k . V_s for 1 <= s <= p^(k+1), by the column rule.

    Three ranges; nonpositive indices vanish and colliding indices merge
    (both happen at the range boundaries, e.g. s = p^(k+1)).  For p = 2
    the middle range is empty and s = 2^k falls through to the first.
    """
    if not 0 <= k < group.alpha:
        raise ValueError(f"level {k} outside 0..{group.alpha - 1}")
    p = group.p
    pk = p**k
    pk1 = pk * p
    if not 1 <= s <= pk1:
        raise ValueError(f"index {s} outside 1..{pk1} for level {k}")
    if s <= pk:
        terms = ((s + pk, 1), (pk - s, -1))
    elif s < (p - 1) * pk:
        terms = ((s + pk, 1), (s - pk, 1))
    else:
        terms = ((s - pk, 1), (pk1, 2), (2 * pk1 - (s + pk), -1))
    out: dict[int, int] = {}
    for idx, c in terms:
        out[idx] = out.get(idx, 0) + c
    return RingElement(group, out)


def rank_mod_p_pivoting(work: np.ndarray, p: int) -> int:
    """Row-echelon rank of an int64 array with entries in 0..p-1, reducing
    `work` in place: pivot on the leading column, swap the pivot row up,
    scale it to 1 and clear the column below it in one outer product."""
    import numpy as np

    rows, cols = work.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = work[rank:, c].nonzero()[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            work[[rank, piv]] = work[[piv, rank]]
        inv = pow(int(work[rank, c]), p - 2, p)
        work[rank, c:] = work[rank, c:] * inv % p
        # Columns left of c are already zero below the pivot row; only rows
        # with a nonzero entry in column c change.
        hit = rank + 1 + work[rank + 1 :, c].nonzero()[0]
        if hit.size:
            work[hit, c:] = (work[hit, c:] - np.outer(work[hit, c], work[rank, c:])) % p
        rank += 1
    return rank


def trick_text_per_digit(cert: TrickCertificate) -> str:
    """'n = ' and the terms in descending j, joined by ' + ': each term the
    "(d+1)" of every digit of j - 1, most significant first, or its product
    when j - 1 has fewer than two digits."""
    parts = [
        _per_digit_label(digs) if len(digs) > 1 else str(product)
        for _, digs, product in reversed(cert.terms)
    ]
    return f"{cert.n} = " + " + ".join(parts)


# An index j recurs in the sets of many n, so a sweep over n formats each
# digit tuple once.
@functools.lru_cache(maxsize=1 << 14)
def _per_digit_label(digs: tuple[int, ...]) -> str:
    return "".join(f"({d + 1})" for d in reversed(digs))


@functools.lru_cache(maxsize=128)
def first_column(p: int, s: int, length: int) -> tuple[int, ...]:
    """The first ``length`` rows of column 0 of the presentation matrix,
    (-1)^k C(s, k) mod p for k < length, as a tuple no caller can alter.

    The rows of column 0 for r are the first r rows of it for any larger
    r, so ``block_multiplicities_euclid`` asks for the length r rounded up
    to a power of two (at most s): a sweep over r = 1..s for one s builds
    at most ceil(log2 s) + 1 columns, and a single query at most 2r
    entries."""
    return tuple((-1) ** k * math.comb(s, k) % p for k in range(length))


def poly_remainder(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b over F_p, p prime, for coefficient lists with the leading
    coefficient first and nonzero, reducing a in place; the remainder
    comes back in the same form, [] for zero.  Each row operation clears
    the leading coefficient at position i with a multiple of b, touching
    only the positions where b has a nonzero coefficient after its
    leading one (by Lucas, (1 - x)^s and many of its remainders are
    sparse when p is small)."""
    inv = pow(b[0], -1, p)
    terms = [(k, y) for k, y in enumerate(b[1:], 1) if y]
    top = len(a) - len(b) + 1
    for i in range(top):
        if c := a[i]:
            c = c * inv % p
            for k, y in terms:
                k += i
                a[k] = (a[k] - c * y) % p
    while top < len(a) and not a[top]:
        top += 1
    return a[top:]


def block_multiplicities_euclid(p: int, r: int, s: int) -> dict[int, int]:
    """Block size -> multiplicity of V_r (x) V_s over F_p, p prime, for
    r <= s, sizes ascending, from the Euclidean remainders of x^r and
    f = (1 - x)^s mod x^r (the ``oracle`` module docstring).

    Remainder degrees r = d_0 > d_1 > ... > d_k = 0 give the block size
    s + r - d_(i-1) - d_i with multiplicity d_(i-1) - d_i.  f(0) = 1, so
    the remainders must end at a constant; and the sizes must sum to r s,
    which they do exactly when the degrees fall from r to 0 and no two
    segments share a size.
    """
    # f mod x^r, leading coefficient first: column 0's first r rows reversed
    col = first_column(p, s, min(s, 1 << (r - 1).bit_length()))[r - 1 :: -1]
    lead = 0
    while lead < r and not col[lead]:
        lead += 1
    a, b = [1] + [0] * r, list(col[lead:])
    blocks: dict[int, int] = {}
    d = r  # degree of a
    while b:
        e = len(b) - 1
        blocks[s + r - d - e] = d - e
        d = e
        if not e:
            break
        a, b = b, poly_remainder(a, b, p)
    if d:
        raise VerificationError(
            f"remainders of x^{r} and (1 - x)^{s} over F_{p} end at degree {d}, not 0"
        )
    total = sum(size * mult for size, mult in blocks.items())
    if total != r * s:
        raise VerificationError(
            f"block sizes sum to {total}, not {r * s}, for p={p}, r={r}, s={s}"
        )
    return blocks


def jordan_type_elder(p: int, r: int, s: int) -> JordanType:
    """Jordan type of V_r (x) V_s over F_p, p prime, by the elder rule on
    the r x r scalar presentation matrix A[i, j] = (-1)^(i-j) C(s, i-j)
    mod p (the ``oracle`` module docstring).

    Columns are reduced left to right, each by the earlier column that
    owns its lowest nonzero row; column j ending at row i is one block of
    size s + j - i.  Column j starts from reduced column j - 1 shifted
    down a row, which lies in the same coset of the earlier columns as
    column j itself.  Columns are lists cut after their lowest nonzero
    row, so a column that ended above the last row shifts with no row
    falling off; a step replaces col by d col - c own with d = own[low]
    and c = col[low], so no modular inverse is taken.
    """
    if r > s:
        r, s = s, r
    col = list(first_column(p, s, s)[:r])
    owner: dict[int, list[int]] = {}  # lowest row -> reduced column ending there
    blocks = []
    for j in range(r):
        if len(col) < r:
            col = [0, *col]
        else:
            if j:  # column 0 holds all r rows and is not shifted
                col = [0, *col[: r - 1]]
            while col and not col[-1]:
                col.pop()
            if not col:
                raise VerificationError(f"start of column {j} is zero for p={p}, r={r}, s={s}")
        low = len(col) - 1
        while low in owner:
            own = owner[low]
            d, c = own[low], col[low]
            col = [(d * x - c * y) % p for x, y in zip(col, own)]
            while col and not col[-1]:
                col.pop()
            if len(col) > low or not col:
                raise VerificationError(
                    f"presentation reduction stalled at row {low} for p={p}, r={r}, s={s}"
                )
            low = len(col) - 1
        owner[low] = col
        blocks.append(s + j - low)
    jt = JordanType(tuple(blocks))
    if jt.dimension != r * s:
        raise VerificationError(f"presentation reduction inconsistent for p={p}, r={r}, s={s}")
    return jt
