"""Ground-truth Jordan types of tensor products of Jordan blocks over F_p.

Everything in this module is plain linear algebra over the prime field:
build the unipotent operator, read off the sizes of its Jordan blocks.
Nothing here consults the symbolic decomposition engine; the engine is
tested against these results, never the other way around.

Two independent computations are provided.

``jordan_type_dense`` is the literal construction: the Kronecker product
J_r(1) (x) J_s(1), the rank sequence of powers of N = g - 1 by dense
elimination, and block multiplicities via

    mult(k) = rank(N^(k-1)) - 2 rank(N^k) + rank(N^(k+1)).

Cost grows like (r s)^3, fine for a few hundred dimensions.

``jordan_type`` is a blocked elimination that exploits the bigraded
structure and handles the full default budget (dimension 16384) quickly.
V_r (x) V_s is the algebra R = k[x,y]/(x^r, y^s) with the group generator
acting as multiplication by the unit u = (1+x)(1+y).  For every k,

    dim ker (u-1)^k  =  dim R / ((u-1)^k R)          (rank-nullity)
                     =  dim k[x,y] / (x^r, y^s, ((1+x)(1+y) - 1)^k).

Substituting X = 1+x and Z = (1+x)(1+y) (allowed: the quotient is local
and 1+x is a unit there) turns the three generators into X - 1 = x,
(Z - X) * unit, and Z - 1; the further linear substitution X -> x,
Z -> x + y carries them to x^r, y^s, (x+y)^k.  Hence u - 1 has the same
kernel filtration, so the same Jordan type, as multiplication by x + y,
which is homogeneous of degree 1: a chain of bidiagonal maps between the
graded slices of R.  The chain decomposes into intervals, one per Jordan
block, recovered by a single echelon sweep along the grading in which a
contested pivot always goes to the oldest chain (so that for every b the
surviving chains born by slice b span the image of slice b, for all b at
once).
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np

from .digits import VerificationError, is_prime

DEFAULT_BUDGET = 16384


class BudgetExceeded(ValueError):
    """Requested tensor product exceeds the configured dimension budget."""


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")


@dataclasses.dataclass(frozen=True)
class JordanType:
    """Multiset of Jordan block sizes, stored as a descending tuple."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(sorted((int(b) for b in self.blocks), reverse=True))
        if blocks and blocks[-1] < 1:
            raise ValueError("block sizes must be positive")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dimension(self) -> int:
        return sum(self.blocks)

    def multiplicities(self) -> dict[int, int]:
        """Map block size -> multiplicity."""
        return dict(Counter(self.blocks))


def _jordan_block(n: int) -> np.ndarray:
    """Unipotent Jordan block: identity plus ones on the subdiagonal."""
    return np.eye(n, dtype=np.int64) + np.eye(n, k=-1, dtype=np.int64)


def tensor_generator_matrix(
    p: int, r: int, s: int, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """The rs x rs matrix J_r(1) (x) J_s(1) over F_p, entries in 0..p-1."""
    _require_prime(p)
    if r < 1 or s < 1:
        raise ValueError("block sizes must be at least 1")
    if r * s > budget:
        raise BudgetExceeded(f"dimension {r * s} exceeds budget {budget}")
    return np.kron(_jordan_block(r), _jordan_block(s)) % p


def _rank_mod_p(work: np.ndarray, p: int) -> int:
    """Row-echelon rank of an int64 array, destroying `work`."""
    rows, cols = work.shape
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(work[rank:, c])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            work[[rank, piv]] = work[[piv, rank]]
        inv = pow(int(work[rank, c]), p - 2, p)
        work[rank] = work[rank] * inv % p
        below = work[rank + 1 :, c]
        if below.size:
            work[rank + 1 :] = (work[rank + 1 :] - np.outer(below, work[rank])) % p
        rank += 1
    return rank


def rank_fp(p: int, entries) -> int:
    """Rank over F_p of a two-dimensional integer array, by exact Gaussian
    elimination after reducing the entries mod p."""
    _require_prime(p)
    array = np.asarray(entries, dtype=np.int64)
    if array.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    return _rank_mod_p(array % p, p)


def jordan_type_dense(
    p: int, r: int, s: int, budget: int = DEFAULT_BUDGET
) -> JordanType:
    """Jordan type of J_r (x) J_s from the dense rank sequence of N = g - 1.

    Cubic in r*s per power of N; intended for modest sizes and as the
    cross-check for :func:`jordan_type`.
    """
    g = tensor_generator_matrix(p, r, s, budget=budget)
    n = r * s
    nilpotent = (g - np.eye(n, dtype=np.int64)) % p
    ranks = [n]
    power = nilpotent
    while True:
        rk = _rank_mod_p(power.copy(), p)
        ranks.append(rk)
        if rk == 0:
            break
        power = power @ nilpotent % p
    ranks.append(0)
    blocks: list[int] = []
    for k in range(1, len(ranks) - 1):
        mult = ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]
        blocks.extend([k] * mult)
    jt = JordanType(tuple(blocks))
    if jt.dimension != n:
        raise VerificationError(f"rank sequence inconsistent for p={p}, r={r}, s={s}")
    return jt


def jordan_type(p: int, r: int, s: int, budget: int = DEFAULT_BUDGET) -> JordanType:
    """Exact Jordan type of V_r (x) V_s over F_p.

    Uses the graded chain described in the module docstring: slice d of
    k[x,y]/(x^r, y^s) is spanned by the monomials x^i y^(d-i) with
    max(0, d-s+1) <= i <= min(r-1, d), and multiplication by x + y sends
    basis vector e_i to f_i + f_{i+1} (terms outside the slice vanish).
    Chains of images are swept forward; every time a chain's vector is
    reduced to zero a block of that chain's length is emitted.
    """
    _require_prime(p)
    if r < 1 or s < 1:
        raise ValueError("block sizes must be at least 1")
    if r * s > budget:
        raise BudgetExceeded(f"dimension {r * s} exceeds budget {budget}")
    if r > s:
        r, s = s, r
    if r == 1:
        return JordanType((s,))

    def lo(d: int) -> int:
        return max(0, d - s + 1)

    def hi(d: int) -> int:
        return min(r - 1, d)

    blocks: list[int] = []
    active = np.ones((1, 1), dtype=np.int64)  # columns = chain vectors in slice d
    births = [0]
    col_of_pivot = {0: 0}  # absolute row index -> column position

    for d in range(r + s - 1):
        l0, h0 = lo(d), hi(d)
        l1, h1 = lo(d + 1), hi(d + 1)
        if d + 1 > r + s - 2:
            blocks.extend(d + 1 - b for b in births)
            break
        n1 = h1 - l1 + 1
        m = active.shape[1]
        image = np.zeros((n1, m), dtype=np.int64)
        # term f_i <- e_i
        a, b = max(l0, l1), min(h0, h1)
        if a <= b:
            image[a - l1 : b - l1 + 1] += active[a - l0 : b - l0 + 1]
        # term f_{i+1} <- e_i
        a, b = max(l0, l1 - 1), min(h0, h1 - 1)
        if a <= b:
            image[a + 1 - l1 : b + 2 - l1] += active[a - l0 : b - l0 + 1]
        image %= p

        if l1 == l0:
            # No slice bottom was cut off: every chain keeps its pivot row
            # (the pivot coefficient is copied verbatim by the f_i term),
            # so no reduction is needed.  A grown slice spawns one chain.
            if h1 == h0 + 1:
                born = np.zeros((n1, 1), dtype=np.int64)
                born[h1 - l1, 0] = 1
                image = np.hstack([image, born])
                births.append(d + 1)
                col_of_pivot[h1] = m
        else:
            # Bottom row l0 was cut off; exactly the chain holding that
            # pivot is disturbed.  Re-settle it, always letting the older
            # chain keep a contested pivot row.
            x = col_of_pivot.pop(l0)
            while True:
                col = image[:, x]
                nz = np.flatnonzero(col)
                if nz.size == 0:
                    blocks.append(d + 1 - births[x])
                    image = np.delete(image, x, axis=1)
                    births.pop(x)
                    col_of_pivot = {
                        row: (c - 1 if c > x else c)
                        for row, c in col_of_pivot.items()
                    }
                    break
                row = int(nz[0])
                abs_row = row + l1
                holder = col_of_pivot.get(abs_row)
                if holder is None:
                    inv = pow(int(col[row]), p - 2, p)
                    image[:, x] = col * inv % p
                    col_of_pivot[abs_row] = x
                    break
                if births[holder] <= births[x]:
                    # holder is older: reduce x past this row
                    image[:, x] = (col - col[row] * image[:, holder]) % p
                else:
                    # x is older: it takes the row, the holder re-settles
                    inv = pow(int(col[row]), p - 2, p)
                    image[:, x] = col * inv % p
                    col_of_pivot[abs_row] = x
                    x = holder
        active = image

    jt = JordanType(tuple(blocks))
    if jt.dimension != r * s:
        raise VerificationError(f"chain sweep inconsistent for p={p}, r={r}, s={s}")
    return jt


def verify_engine(
    p: int, alpha: int, budget: int = DEFAULT_BUDGET
) -> list[dict]:
    """Sweep all 1 <= r <= s <= p^alpha with r*s within budget and compare
    the symbolic tensor decomposition against the oracle Jordan type.

    Returns the list of mismatches (empty on success), each entry ready
    for JSON serialization.
    """
    from . import core_ring

    group = core_ring.GroupSpec(p, alpha)
    q = group.q
    mismatches = []
    for s in range(1, q + 1):
        for r in range(1, s + 1):
            if r * s > budget:
                continue
            expected = jordan_type(p, r, s, budget=budget)
            got = core_ring.tensor(group, r, s)
            if got.coeffs != expected.multiplicities():
                mismatches.append(
                    {
                        "r": r,
                        "s": s,
                        "expected": list(expected.blocks),
                        "got": got.to_json_dict(),
                    }
                )
    return mismatches
