"""Ground-truth Jordan types of tensor products of Jordan blocks over F_p.

Everything in this module is plain linear algebra over the prime field:
build the unipotent operator, read off the sizes of its Jordan blocks.
Nothing here consults the symbolic decomposition engine; the engine is
tested against these results, never the other way around.

Two independent computations are provided.

``jordan_type_dense`` is the literal construction and the cross-check:
the Kronecker product J_r(1) (x) J_s(1), the rank sequence of powers of
N = g - 1 by dense elimination, and block multiplicities via

    mult(k) = rank(N^(k-1)) - 2 rank(N^k) + rank(N^(k+1)).

Each power is taken on an echelon basis of the row space of the previous
one, so the matrices shrink as the ranks fall; the product with N is three
shifted copies of that basis (N = L (x) 1 + 1 (x) L + L (x) L for the
subdiagonal shift L), checked once against g - 1.

The echelon basis is keyed by each row's trailing nonzero column, which
is what keeps the powers cheap.  Read a row as an r x s array with its
trailing entry at cell (i, j).  The three shifts move that entry to
(i - 1, j), (i, j - 1) and (i - 1, j - 1), and every other entry to a
cell before (i, j - 1); so for j >= 1 the row times N has its trailing
entry at (i, j - 1), with the same coefficient.  The rows of B N, for an
echelon basis B of the row space of N^k, therefore keep distinct
trailing columns, except those whose trailing entry sat at j = 0: at
most r of them.  Each row is placed by a dict lookup, and only the
colliding ones are reduced, one at a time, by the inverse-free step
d row - c own that ``jordan_type`` uses.  At p = 5 and r s in 200..250,
the sizes of the benchmark's spot checks, a check makes about 2,200
such steps and takes about 30 ms, against about 75 ms for leading-column
pivoting with an outer-product update per pivot (2-vCPU VM).  That
suits a few hundred dimensions.

``jordan_type`` reduces an r x r presentation and handles the full
default budget (dimension 16384) quickly.  V_r (x) V_s is the algebra
R = k[x,y]/(x^r, y^s) with the group generator acting as multiplication
by the unit u = (1+x)(1+y).  For every k,

    dim ker (u-1)^k  =  dim R / ((u-1)^k R)          (rank-nullity)
                     =  dim k[x,y] / (x^r, y^s, ((1+x)(1+y) - 1)^k).

Substituting X = 1+x and Z = (1+x)(1+y) (allowed: the quotient is local
and 1+x is a unit there) turns the three generators into X - 1 = x,
(Z - X) * unit, and Z - 1; the further linear substitution X -> x,
Z -> x + y carries them to x^r, y^s, (x+y)^k.  Hence u - 1 has the same
kernel filtration, so the same Jordan type, as multiplication by
t = x + y.

Take r <= s.  With y = t - x, R = k[t][x]/(x^r, (t-x)^s).  Over k[t] it
is generated by x^0 .. x^(r-1), and its relations are x^j (t-x)^s for
j < r, so R is the cokernel of the r x r matrix M over F_p[t] with

    M[i, j] = (-1)^(i-j) C(s, i-j) t^(s-(i-j))      for i >= j,

and the Jordan blocks of t are the exponents e of its invariant factors
t^e (det M = t^(rs)).  M is graded: generator x^i has degree i, relation
j has degree s + j, and entry (i, j) is homogeneous of degree s + j - i.
For such a matrix the elder rule of persistence (Zomorodian and Carlsson,
"Computing Persistent Homology", 2005) gives the invariant factors from
the scalar matrix A[i, j] = (-1)^(i-j) C(s, i-j) mod p: reduce the
columns left to right, each by the earlier column that owns its lowest
nonzero row (earlier columns have lower degree, so the multiplier is a
power of t).  Column j ending with lowest row i pairs generator x^i with
relation j: one Jordan block of size s + j - i.  The cost does not
depend on s.

Write a_j for column j of A and L for the r x r down-shift.  Reduced
column j lies in a_j + span(a_0 .. a_(j-1)), up to a unit, and the index
of its lowest nonzero row is the least that index takes over that coset:
the earlier reduced columns end at distinct rows, none of them its own,
so adding any combination of them ends at the largest row involved.
Any start in the coset therefore gives the same blocks.  A = (1 - L)^s mod L^r is a polynomial in L, so
L A v = A L v and a_j = L a_(j-1); L times reduced column j - 1 lies in
a_j + span(a_1 .. a_(j-1)), and ``jordan_type`` starts column j there.
Over the 4,546 pairs of the default-budget sweeps of (3,4) and (7,2)
that takes 39,289 reduction steps, against 211,769 from a_j.  A is
unitriangular, so such a start is never zero.

Owners are kept as reduced, not scaled to 1 at their lowest row.  A
step replaces col by d col - c own, with d = own[low] and c = col[low]:
row low clears with no modular inverse, and scaling by the unit d moves
no lowest row.  Columns are plain int lists of about 25 entries, where
numpy's per-call overhead would outweigh its arithmetic.

Column 0 depends on p and s only, and the rows of a_0 for r are the
first r rows of a_0 for any larger r.  ``_first_column`` therefore builds
it once per (p, s, length), with the length r rounded up to a power of
two (at most s), in a small LRU cache: a sweep over r = 1..s for one s
builds at most ceil(log2 s) + 1 columns, where it built s of them, and a
single query builds at most 2r entries.  The shift rule: reduced columns
end at distinct rows, so at most one of them ends at the last row r - 1.
Every other one shifts to [0, *col] with no row falling off and its last
entry still nonzero, so it needs neither a slice nor a scan for trailing
zeros; only the column ending at row r - 1 loses that row and is
rescanned.  The start is always a new list, since ``owner`` holds the
reduced column itself.  Over the 4,546 pairs of the (3,4) and (7,2)
sweeps the two cut ``verify_engine``, the engine's answers included, from
a median of about 0.27 to 0.22 s in a fresh process, and their first
columns from 112,706 ``math.comb`` calls to 11,094 (2-vCPU VM).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from collections import Counter
from typing import TYPE_CHECKING

from .digits import VerificationError, is_prime

if TYPE_CHECKING:
    import numpy as np

DEFAULT_BUDGET = 16384


class BudgetExceeded(ValueError):
    """Requested tensor product exceeds the configured dimension budget."""


def _require_prime(p: int) -> None:
    # The dense path and rank_fp eliminate in int64, forming d*a - c*b with
    # a, b, c, d in 0..p-1, so within (p-1)^2; jordan_type works in Python
    # ints but refuses the same moduli, so every oracle entry accepts the
    # same p.
    if p * (p - 1) >= 2**63:
        raise ValueError(f"modulus {p} too large: p*(p-1) must be below the int64 limit 2^63")
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")


def _check_pair(p: int, r: int, s: int, budget: int) -> None:
    """The arguments of a Jordan type query: a prime p, block sizes r, s
    of at least 1, and r s within the budget (``BudgetExceeded``)."""
    _require_prime(p)
    if r < 1 or s < 1:
        raise ValueError("block sizes must be at least 1")
    if r * s > budget:
        raise BudgetExceeded(f"dimension {r * s} exceeds budget {budget}")


@dataclasses.dataclass(frozen=True)
class JordanType:
    """Multiset of Jordan block sizes, stored as a descending tuple."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(sorted(map(operator.index, self.blocks), reverse=True))
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
    import numpy as np

    return np.eye(n, dtype=np.int64) + np.eye(n, k=-1, dtype=np.int64)


def tensor_generator_matrix(
    p: int, r: int, s: int, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """The rs x rs matrix J_r(1) (x) J_s(1) over F_p, entries in 0..p-1."""
    import numpy as np

    _check_pair(p, r, s, budget)
    return np.kron(_jordan_block(r), _jordan_block(s)) % p


def _echelon_basis(work: np.ndarray, p: int) -> np.ndarray:
    """An echelon basis of the row space of the int64 array `work` over
    F_p, as rows of `work`; entries in 0..p-1, reduced in place.

    Each basis row owns its trailing nonzero column.  A row whose
    trailing column is free is kept as it is; one whose column is owned
    becomes d row - c own with d = own[low] and c = row[low], which
    clears column low with no modular inverse, and repeats until its
    trailing column is free or the row is zero.
    """
    import numpy as np

    trail = np.where(work != 0, np.arange(work.shape[1]), -1).max(axis=1, initial=-1)
    owner: dict[int, int] = {}  # trailing column -> index of the row that owns it
    for i, low in enumerate(trail.tolist()):
        row = work[i]
        while low in owner:
            own = work[owner[low]]
            d, c = int(own[low]), int(row[low])
            row *= d
            row -= c * own
            row %= p
            nz = row[:low].nonzero()[0]
            low = int(nz[-1]) if nz.size else -1
        if low >= 0:
            owner[low] = i
    return work[list(owner.values())]


def rank_fp(p: int, entries) -> int:
    """Rank over F_p of a two-dimensional array of integers.

    The entries may be any integers, negative or beyond int64: they are
    reduced mod p as exact integers, and the elimination then runs in
    int64 on residues (``_echelon_basis``).
    """
    import numpy as np

    _require_prime(p)
    array = np.asarray(entries, dtype=object)
    if array.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    return len(_echelon_basis((array % p).astype(np.int64), p))


def _times_nilpotent(basis: np.ndarray, r: int, s: int, p: int) -> np.ndarray:
    """basis @ N mod p for N = J_r (x) J_s - 1 and int64 basis rows of
    length r s.

    J = 1 + L for the subdiagonal shift L, so N = L (x) 1 + 1 (x) L +
    L (x) L, and a row viewed as an r x s array is multiplied by N as the
    sum of three copies of it shifted by one step: along r, along s, and
    along both.  No dense product is formed.
    """
    import numpy as np

    rows = basis.reshape(-1, r, s)
    out = np.zeros_like(rows)
    out[:, :-1, :] += rows[:, 1:, :]
    out[:, :, :-1] += rows[:, :, 1:]
    out[:, :-1, :-1] += rows[:, 1:, 1:]
    return out.reshape(-1, r * s) % p


def jordan_type_dense(
    p: int, r: int, s: int, budget: int = DEFAULT_BUDGET
) -> JordanType:
    """Jordan type of J_r (x) J_s from the dense rank sequence of N = g - 1.

    Intended for a few hundred dimensions and as the cross-check for
    :func:`jordan_type`.  Besides the sum of the block sizes, the rank of
    N itself is checked: its kernel, the fixed points of g, has dimension
    min(r, s) in every characteristic.
    """
    import numpy as np

    nilpotent = tensor_generator_matrix(p, r, s, budget=budget)
    n = r * s
    identity = np.eye(n, dtype=np.int64)
    # the shifted product applied to the identity is N itself, so checking
    # it against g - 1 ties every later power to the Kronecker construction
    work = _times_nilpotent(identity, r, s, p)
    nilpotent -= identity
    nilpotent %= p
    if not np.array_equal(work, nilpotent):
        raise VerificationError(f"shifted product differs from g - 1 for p={p}, r={r}, s={s}")
    del nilpotent, identity
    ranks = [n]
    while True:
        basis = _echelon_basis(work, p)
        ranks.append(len(basis))
        if not len(basis):
            break
        # basis spans the row space of N^k, so its product with N spans
        # the row space of N^(k+1).
        work = _times_nilpotent(basis, r, s, p)
    ranks.append(0)
    # the block sizes below sum to n for any rank sequence; this can fail
    if n - ranks[1] != min(r, s):
        raise VerificationError(
            f"rank of g - 1 is {ranks[1]}, not {n - min(r, s)}, for p={p}, r={r}, s={s}"
        )
    blocks: list[int] = []
    for k in range(1, len(ranks) - 1):
        mult = ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]
        blocks.extend([k] * mult)
    jt = JordanType(tuple(blocks))
    if jt.dimension != n:
        raise VerificationError(f"rank sequence inconsistent for p={p}, r={r}, s={s}")
    return jt


@functools.lru_cache(maxsize=128)
def _first_column(p: int, s: int, length: int) -> tuple[int, ...]:
    """The first ``length`` rows of column 0 of the presentation matrix,
    (-1)^k C(s, k) mod p for k < length, as a tuple no caller can alter."""
    return tuple((-1) ** k * math.comb(s, k) % p for k in range(length))


def jordan_type(p: int, r: int, s: int, budget: int = DEFAULT_BUDGET) -> JordanType:
    """Exact Jordan type of V_r (x) V_s over F_p.

    Reduces the scalar presentation matrix A of the module docstring,
    whose column j holds (-1)^k C(s, k) mod p at row j + k, starting each
    column from the one before it, reduced and shifted down a row.  Every
    step must lower the column's lowest nonzero row, so a column needs at
    most r steps.  Column 0 is a prefix of the one ``_first_column``
    shares across every r of this (p, s); a shifted column is sliced and
    rescanned only when it ended at the last row.
    """
    _check_pair(p, r, s, budget)
    if r > s:
        r, s = s, r

    # Columns are lists cut after their lowest nonzero row.  Column 0 is
    # a_0, read from the prefix shared by every r of this (p, s); column j
    # starts from the reduced column j - 1 shifted down one row.
    col = list(_first_column(p, s, min(s, 1 << (r - 1).bit_length()))[:r])
    owner: dict[int, list[int]] = {}  # lowest row -> reduced column ending there
    blocks: list[int] = []
    for j in range(r):
        if len(col) < r:
            # column j - 1 ends above the last row: none falls off and the
            # last entry stays nonzero.  A new list, since owner holds col.
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


def verify_engine(
    p: int, alpha: int, budget: int = DEFAULT_BUDGET
) -> list[dict]:
    """Sweep all 1 <= r <= s <= p^alpha with r*s within budget and compare
    the symbolic tensor decomposition against the oracle Jordan type.

    Returns the list of mismatches (empty on success), each entry ready
    for JSON serialization.  A budget below 1 would check no pair at all,
    so it is rejected.
    """
    from . import core_ring

    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    group = core_ring.GroupSpec(p, alpha)
    q = group.q
    mismatches = []
    for s in range(1, min(q, budget) + 1):
        for r in range(1, min(s, budget // s) + 1):
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
