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
* ``jordan_type_elder``: the Jordan type of V_r (x) V_s by the elder rule
  on the columns of the scalar presentation matrix, against the oracle's
  Euclidean remainder degrees.

The tests import it as ``from crosschecks import ...``; pytest puts this
directory on ``sys.path``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from greenring.core_ring import GroupSpec, RingElement
from greenring.digits import TrickCertificate, VerificationError
from greenring.oracle import JordanType


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
        "".join(f"({d + 1})" for d in reversed(digs)) if len(digs) > 1 else str(product)
        for _, digs, product in reversed(cert.terms)
    ]
    return f"{cert.n} = " + " + ".join(parts)


@functools.cache
def _presentation_column(p: int, s: int) -> tuple[int, ...]:
    """(-1)^k C(s, k) mod p for k < s: column 0 of the presentation matrix
    for every r <= s."""
    return tuple((-1) ** k * math.comb(s, k) % p for k in range(s))


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
    col = list(_presentation_column(p, s)[:r])
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
