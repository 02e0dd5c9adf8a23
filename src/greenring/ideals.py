"""Ideals of induced representations and their Z-module ranks.

The rank theorem takes C_n in characteristic p as the pair (n, p):
``rank_report(n, p)`` and ``ideal_lattice(n, p)`` split n = m p^alpha
with p not dividing m in one place (``_order_parts``), and the p-part
C_q, q = p^alpha, is a ``GroupSpec(p, alpha)`` when alpha >= 1.  n = 1
and every p not dividing n have no p-part.

For the p-part the induced ideal is the span of the V_i with p dividing i;
for the coprime part C_m the representation ring is modelled as
Z[Y]/(Y^m - 1) on the character basis Y^0..Y^(m-1), and the ideal is
spanned by the characters induced from the maximal proper subgroups
(induction is transitive, so maximal subgroups suffice): inducing the
j-th character of the index-l subgroup gives the sum of Y^i over
i = j mod m/l.  The headline check is that the quotient rank always
equals the Euler totient, whichever characteristic is chosen;
``rank_report`` takes phi(n) from its own factorization, and the tests
compare it with an independent totient.

Every lattice row is sparse: a tuple of (column, value) pairs over its
nonzero entries, columns ascending.  A prime-power factor l^k of the
coprime part holds l^k nonzero entries in all, and the p-part holds q/p
one-entry rows; ``rank_report`` refuses an l^k or a q/p above
``MAX_FACTOR_ORDER`` before it builds anything.  A factor's rows have
pairwise disjoint supports (cosets of one subgroup, or single columns),
each holding a +-1, so they span a direct summand and the factor's
quotient is free; ``rank_report`` checks exactly that on the rows it
builds, in one pass over their entries.  The exact Smith normal form
(``invariant_factors``, ``smith_normal_form``) is off that path.  One
sparse elimination computes it, +-1 pivots first and least absolute
values after; it is the labelled cross-check of the certificate and the
engine of ``principal_generation_check``.  ``ideal_lattice``, the whole
n-wide ideal in one lattice, is the tests' cross-check of the
factor-by-factor route and is not exported.
"""

from __future__ import annotations

import dataclasses
import math

from .core_ring import GroupSpec, mul
from .digits import VerificationError, is_prime, prime_factors
from .ubasis import MAX_MATRIX_ORDER, IntMatrix, u_element

__all__ = [
    "LatticeBasis",
    "induced_ideal_q",
    "semisimple_ideal",
    "smith_normal_form",
    "invariant_factors",
    "rank_report",
    "principal_generation_check",
    "MAX_FACTOR_ORDER",
]


@dataclasses.dataclass(frozen=True)
class LatticeBasis:
    """Z-span of integer vectors inside a fixed free module Z^ambient_rank.

    Each generator is a tuple of (column, value) pairs over its nonzero
    entries, in strictly ascending column order; a zero value, a column
    out of order or repeated, or one outside 0..ambient_rank-1 raises
    ``ValueError``.  The lattices ``rank_report`` builds hold at most
    ``MAX_FACTOR_ORDER`` nonzero entries each.
    """

    ambient_rank: int
    generators: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        width = self.ambient_rank
        for g in self.generators:
            last = -1
            for j, v in g:
                if not 0 <= j < width:
                    raise ValueError("generator column outside the ambient rank")
                if j <= last:
                    raise ValueError("generator columns not strictly ascending")
                if not v:
                    raise ValueError("zero value in a generator")
                last = j


def _order_parts(n: int, p: int) -> tuple[int, int]:
    """(m, alpha) with n = m p^alpha and p not dividing m, for C_n in
    characteristic p.  alpha = 0 (p coprime to n, or n = 1) selects the
    semisimple-only path; the p-part is a ``GroupSpec(p, alpha)`` only when
    alpha >= 1.  An order below 1, then a p that is not prime, raises
    ``ValueError``."""
    if n < 1:
        raise ValueError("group order must be at least 1")
    if not is_prime(p):
        raise ValueError(f"characteristic must be prime, got {p}")
    m, alpha = n, 0
    while m % p == 0:
        m, alpha = m // p, alpha + 1
    return m, alpha


def induced_ideal_q(group: GroupSpec) -> LatticeBasis:
    """The induced ideal for the p-group: standard vectors at the indices
    divisible by p, in the V-basis of rank q."""
    q, p = group.q, group.p
    return LatticeBasis(q, tuple(((idx - 1, 1),) for idx in range(p, q + 1, p)))


def semisimple_ideal(m: int) -> LatticeBasis:
    """Induced-character span for C_m on the basis Y^0..Y^(m-1); the model
    Z[Y]/(Y^m - 1) assumes the field holds the m-th roots of unity.  Each
    prime l dividing m gives m/l rows of l ones, each a tuple of
    (column, 1) pairs, so a prime power m = l^k holds m nonzero entries
    (``rank_report`` caps m at ``MAX_FACTOR_ORDER``)."""
    if m < 1:
        raise ValueError("order must be at least 1")
    gens = []
    for ell in prime_factors(m):
        d = m // ell
        gens += (tuple((i, 1) for i in range(j, m, d)) for j in range(d))
    return LatticeBasis(m, tuple(gens))


def ideal_lattice(n: int, p: int) -> LatticeBasis:
    """Combined induced ideal for C_n = C_m x C_q, q = n/m the p-part, in
    characteristic p on the product basis; coordinate i*q + j holds
    Y^i tensor V_{j+1}.  The n-wide cross-check of ``rank_report``'s
    factor-by-factor route; only tests build it."""
    m, alpha = _order_parts(n, p)
    q = n // m
    gens = [
        tuple((i * q + j, v) for i, v in sv)
        for sv in semisimple_ideal(m).generators
        for j in range(q)
    ]
    if alpha >= 1:
        p_part = induced_ideal_q(GroupSpec(p, alpha)).generators
        gens += (tuple((i * q + j, v) for j, v in g) for g in p_part for i in range(m))
    return LatticeBasis(n, tuple(gens))


def _subtract(rows, cols, rid, c, vec) -> None:
    """rows[rid] -= c * vec, keeping the column index; an emptied row leaves."""
    row = rows[rid]
    for k, w in vec.items():
        if nv := row.get(k, 0) - c * w:
            cols[k].add(rid)
            row[k] = nv
        else:
            del row[k]
            cols[k].discard(rid)
    if not row:
        del rows[rid]


def _pivots(rows):
    """Pivots (row id, column): the unit pass, each row in input order at its
    first +-1 entry if any, then the least absolute value left."""
    for rid in range(len(rows)):
        j = next((k for k, v in rows.get(rid, {}).items() if v == 1 or v == -1), None)
        if j is not None:
            yield rid, j
    while rows:
        yield min((abs(v), rid, j) for rid, row in rows.items() for j, v in row.items())[1:]


def _reduce(rows, cols, rid, j) -> bool:
    """Non-unit pivot step at d = rows[rid][j], the least absolute value left:
    floor-quotient row steps, then, once column j holds d alone, column
    steps leave remainders below |d|.  True when none is left; otherwise
    the least remainder is the next pivot."""
    pivot = rows[rid]
    d = pivot[j]
    for other in cols[j] - {rid}:
        _subtract(rows, cols, other, rows[other][j] // d, pivot)
    if len(cols[j]) == 1:
        _subtract(rows, cols, rid, 1, {k: v - v % d for k, v in pivot.items() if k != j})
    return len(cols[j]) == len(pivot) == 1


def _invariant_factors(vectors) -> list[int]:
    """Nonzero invariant factors of the span of sparse integer rows, each
    an iterable of (column, nonzero value) pairs.

    One integer-exact elimination over dict rows under stable ids, with a
    column index to the ids of the rows holding each column, so a step
    visits only its column's rows.  The unit pass comes first (``_pivots``)
    because it needs no search and no column step: a +-1 pivot's quotients
    are exact, so one row step clears its column and its row leaves.  On
    every lattice the library builds that pass leaves nothing.  The rest
    pivots on the least absolute value left, Euclid on rows and columns
    (``_reduce``), and a pivot alone in its row and column leaves.  The
    non-unit pivots become a chain pairwise, diag(a, b) ~ diag(gcd, lcm).
    The Smith form is unique, so pivot order changes only the fill-in.
    ``rank_report`` does not call it.
    """
    rows = dict(enumerate(filter(None, map(dict, vectors))))
    cols: dict[int, set[int]] = {}
    for rid, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(rid)
    diagonal: list[int] = []
    for rid, j in _pivots(rows):
        pivot = rows[rid]
        d = pivot[j]
        if d != 1 and d != -1 and not _reduce(rows, cols, rid, j):
            continue
        del rows[rid]
        for k in pivot:
            cols[k].discard(rid)
        for other in list(cols[j]):
            _subtract(rows, cols, other, rows[other][j] // d, pivot)
        diagonal.append(abs(d))
    chain = [d for d in diagonal if d > 1]
    for i in range(len(chain)):
        for k in range(i + 1, len(chain)):
            chain[i], chain[k] = math.gcd(chain[i], chain[k]), math.lcm(chain[i], chain[k])
    return [1] * (len(diagonal) - len(chain)) + chain


def invariant_factors(basis: LatticeBasis) -> tuple[int, ...]:
    """Nonzero invariant factors of the lattice inside its ambient module.

    Cross-check of the freeness certificate ``rank_report`` checks on each
    factor; the rank path does not call it."""
    return tuple(_invariant_factors(basis.generators))


def smith_normal_form(mat: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith normal form, d_1 | d_2 | ..., zeros included
    up to min(rows, cols).  A cross-check: the rank path does not call it."""
    factors = _invariant_factors([(j, v) for j, v in enumerate(r) if v] for r in mat.entries)
    width = min(mat.rows, mat.cols)
    return tuple(factors) + (0,) * (width - len(factors))


# A factor of order l^k is one sparse lattice with l^k nonzero entries:
# rank 2^20 --p 3 peaks near 210 MB.  The p-part holds q/p entries, one a
# row.  Factoring stops at the cap too, so refusing a huge prime factor
# costs at most 2^20 trial divisions, and phi(n) is taken from the same
# factorization.  The report lists its n - phi(n) unit invariant factors,
# which for a huge p and m >= 2 is at least q; the second cap keeps that
# list within 128 MB.
MAX_FACTOR_ORDER = 2**20
MAX_REPORT_RANK = 2**24


def _free_quotient_rank(basis: LatticeBasis) -> int:
    """Rank of the quotient of Z^ambient_rank by the rows, certified free.

    The rows must have pairwise disjoint supports, each holding a +-1.
    Each row then clears to a unit vector at its +-1 column, using the
    unit vectors of the other columns; so the rows and those unit vectors
    form a unimodular basis, the rows span a direct summand, and the
    quotient is free of rank ambient_rank - len(rows).  Either condition
    failing raises ``VerificationError``.
    """
    order = basis.ambient_rank
    seen: set[int] = set()
    for g in basis.generators:
        row = dict(g)
        if 1 not in row.values() and -1 not in row.values():
            raise VerificationError(f"the factor of order {order} has a row with no +-1")
        before = len(seen)
        seen.update(row)
        if len(seen) - before != len(row):
            raise VerificationError(f"the factor of order {order} has rows sharing a column")
    return order - len(basis.generators)


def rank_report(n: int, p: int) -> dict:
    """JSON-ready summary of the rank computation for C_n in
    characteristic p.

    Z[C_n] is the tensor product of the rings of its prime-power factors
    (Chinese remainder theorem), and the induced ideal is the sum of each
    factor's ideal tensored with the other factors.  Tensor products are
    right exact, so the quotient is the tensor product of the factors'
    quotients, ranks multiplied.  The all-unit invariant factors need free
    factors: each factor's rows are certified by ``_free_quotient_rank``,
    which also counts the rank, so no totient formula enters it.
    A factor order l^k of m, or a p-part row count q/p, above
    ``MAX_FACTOR_ORDER``, or an ideal rank n - phi(n) above
    ``MAX_REPORT_RANK``, raises ``ValueError`` before any lattice is built.
    """
    m, alpha = _order_parts(n, p)
    q = n // m
    primes = prime_factors(m, MAX_FACTOR_ORDER)
    orders = [ell**k for ell, k in primes.items()]
    for order in orders:
        if order > MAX_FACTOR_ORDER:
            raise ValueError(f"a factor of order {order} exceeds {MAX_FACTOR_ORDER}")
    if q // p > MAX_FACTOR_ORDER:
        raise ValueError(
            f"the factor of order {q} has {q // p} rows, more than {MAX_FACTOR_ORDER}"
        )
    # phi is multiplicative, and the factorization above is complete; a
    # second one of n would trial-divide up to sqrt(p) when p is huge.
    # phi(q) = q - q/p is 1 at q = 1.
    phi_n = math.prod(order - order // ell for ell, order in zip(primes, orders))
    phi_n *= q - q // p
    if n - phi_n > MAX_REPORT_RANK:
        raise ValueError(
            f"the report would list {n - phi_n} invariant factors, "
            f"more than {MAX_REPORT_RANK}"
        )
    factors = [semisimple_ideal(order) for order in orders]
    if alpha >= 1:
        factors.append(induced_ideal_q(GroupSpec(p, alpha)))
    quotient_rank = 1
    for basis in factors:
        quotient_rank *= _free_quotient_rank(basis)
    ideal_rank = n - quotient_rank
    return {
        "n": n,
        "p": p,
        "ideal_rank": ideal_rank,
        "quotient_rank": quotient_rank,
        "phi_n": phi_n,
        "invariant_factors": [1] * ideal_rank,
    }


def principal_generation_check(group: GroupSpec) -> bool:
    """Whether the products U_{(m-1)p+1} * U_p for 1 <= m <= q/p span the
    same lattice as the induced ideal {V_i : p | i}.

    One inclusion is support membership (every product must sit on indices
    divisible by p); the other holds exactly when the q/p square matrix of
    products has all-unit invariant factors.  A q above the change of
    basis's ``MAX_MATRIX_ORDER`` raises ``ValueError`` before any product.
    """
    p, q = group.p, group.q
    if q > MAX_MATRIX_ORDER:
        raise ValueError(f"q = {q} exceeds {MAX_MATRIX_ORDER}")
    k = q // p
    u_p = u_element(group, p)
    vectors = []
    for m_idx in range(1, k + 1):
        product = mul(u_element(group, (m_idx - 1) * p + 1), u_p)
        if any(i % p for i in product.coeffs):
            return False
        vectors.append(sorted((i // p - 1, c) for i, c in product.coeffs.items()))
    return _invariant_factors(vectors) == [1] * k
