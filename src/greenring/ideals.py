"""Ideals of induced representations and their Z-module ranks.

For the p-part the induced ideal is the span of the V_i with p dividing i;
for the coprime part C_m the representation ring is modelled as
Z[Y]/(Y^m - 1) on the character basis Y^0..Y^(m-1), and the ideal is
spanned by the characters induced from the maximal proper subgroups
(induction is transitive, so maximal subgroups suffice): inducing the
j-th character of the index-l subgroup gives the sum of Y^i over
i = j mod m/l.  Ranks and torsion are read off Smith normal forms
computed in exact integer arithmetic; the headline check is that the
quotient rank always equals the Euler totient, whichever characteristic
is chosen.
"""

from __future__ import annotations

import dataclasses
import functools

from .core_ring import GroupSpec, mul
from .digits import VerificationError, is_prime, prime_factors
from .quantum import IntPolynomial
from .ubasis import IntMatrix, u_element

__all__ = [
    "LatticeBasis",
    "CyclicGroupSpec",
    "induced_ideal_q",
    "semisimple_ideal",
    "ideal_lattice",
    "z_rank",
    "smith_normal_form",
    "invariant_factors",
    "non_induced_rank",
    "rank_report",
    "principal_generation_check",
    "euler_phi",
    "cyclotomic",
]


def euler_phi(n: int) -> int:
    """Euler totient via factorization."""
    if n < 1:
        raise ValueError("totient is defined for n >= 1")
    out = n
    for p in prime_factors(n):
        out -= out // p
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial: divide Y^n - 1 by the cyclotomic
    polynomials of the proper divisors."""
    if n < 1:
        raise ValueError("cyclotomic polynomials are indexed by n >= 1")
    poly = IntPolynomial(*([-1] + [0] * (n - 1) + [1]))
    for d in range(1, n):
        if n % d == 0:
            poly, rem = divmod(poly, cyclotomic(d))
            if not rem.is_zero():
                raise VerificationError(f"cyclotomic division left a remainder at {n}")
    return poly


@dataclasses.dataclass(frozen=True)
class LatticeBasis:
    """Z-span of integer vectors inside a fixed free module Z^ambient_rank."""

    ambient_rank: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        gens = tuple(tuple(int(v) for v in g) for g in self.generators)
        if any(len(g) != self.ambient_rank for g in gens):
            raise ValueError("generator length differs from ambient rank")
        object.__setattr__(self, "generators", gens)


@dataclasses.dataclass(frozen=True)
class CyclicGroupSpec:
    """Order n factored as m * p^alpha with p not dividing m.

    alpha = 0 (so q = 1) is allowed and selects the semisimple-only path.
    """

    n: int
    p: int
    m: int = dataclasses.field(init=False)
    alpha: int = dataclasses.field(init=False)
    q: int = dataclasses.field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("group order must be at least 1")
        if not is_prime(self.p):
            raise ValueError(f"characteristic must be prime, got {self.p}")
        m, alpha = self.n, 0
        while m % self.p == 0:
            m //= self.p
            alpha += 1
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "q", self.p**alpha)


def induced_ideal_q(group: GroupSpec) -> LatticeBasis:
    """The induced ideal for the p-group: standard vectors at the indices
    divisible by p, in the V-basis of rank q."""
    q, p = group.q, group.p
    gens = []
    for idx in range(p, q + 1, p):
        vec = [0] * q
        vec[idx - 1] = 1
        gens.append(tuple(vec))
    return LatticeBasis(q, tuple(gens))


def semisimple_ideal(m: int) -> LatticeBasis:
    """Induced-character span for C_m on the basis Y^0..Y^(m-1)."""
    if m < 1:
        raise ValueError("order must be at least 1")
    gens = []
    for ell in prime_factors(m):
        d = m // ell
        for j in range(d):
            vec = [0] * m
            for i in range(j, m, d):
                vec[i] = 1
            gens.append(tuple(vec))
    return LatticeBasis(m, tuple(gens))


def ideal_lattice(spec: CyclicGroupSpec) -> LatticeBasis:
    """Combined induced ideal for C_n = C_m x C_q on the product basis;
    coordinate i*q + j holds Y^i tensor V_{j+1}."""
    m, q, p, n = spec.m, spec.q, spec.p, spec.n
    gens = []
    for sv in semisimple_ideal(m).generators:
        for j in range(q):
            vec = [0] * n
            for i in range(m):
                if sv[i]:
                    vec[i * q + j] = sv[i]
            gens.append(tuple(vec))
    if spec.alpha >= 1:
        for idx in range(p, q + 1, p):
            for i in range(m):
                vec = [0] * n
                vec[i * q + (idx - 1)] = 1
                gens.append(tuple(vec))
    return LatticeBasis(n, tuple(gens))


def _smith_dense(mat: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of a dense integer matrix, textbook
    pivoting with the divisibility fix; exact arithmetic throughout."""
    mat = [row[:] for row in mat]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    out: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        pos = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(mat[i][j])
                if v and (best is None or v < best):
                    best, pos = v, (i, j)
        if pos is None:
            break
        while True:
            i0, j0 = pos
            if i0 != t:
                mat[t], mat[i0] = mat[i0], mat[t]
            if j0 != t:
                for row in mat:
                    row[t], row[j0] = row[j0], row[t]
            if mat[t][t] < 0:
                mat[t] = [-v for v in mat[t]]
            piv = mat[t][t]
            for i in range(t + 1, nrows):
                v = mat[i][t]
                if v:
                    qq = v // piv
                    if qq:
                        rowt = mat[t]
                        mat[i] = [a - qq * b for a, b in zip(mat[i], rowt)]
            for j in range(t + 1, ncols):
                v = mat[t][j]
                if v:
                    qq = v // piv
                    if qq:
                        for i in range(t, nrows):
                            mat[i][j] -= qq * mat[i][t]
            pos = None
            for i in range(t + 1, nrows):
                if mat[i][t]:
                    pos = (i, t)
                    break
            if pos is None:
                for j in range(t + 1, ncols):
                    if mat[t][j]:
                        pos = (t, j)
                        break
            if pos is not None:
                continue
            piv = mat[t][t]
            offender = None
            for i in range(t + 1, nrows):
                if any(v % piv for v in mat[i][t + 1 :]):
                    offender = i
                    break
            if offender is None:
                break
            mat[t] = [a + b for a, b in zip(mat[t], mat[offender])]
            pos = (t, t)
        out.append(mat[t][t])
        t += 1
    return out


def _invariant_factors(vectors) -> list[int]:
    """Nonzero invariant factors of the span of integer vectors.

    Sparse phase first: repeatedly pivot on a +-1 entry chosen to limit
    fill-in (these contribute unit factors and keep the arithmetic
    integer-exact for the incidence-like matrices this module builds);
    whatever is left goes through the dense routine.
    """
    rows: list[dict[int, int]] = []
    for vec in vectors:
        row = {j: int(v) for j, v in enumerate(vec) if v}
        if row:
            rows.append(row)
    units = 0
    while rows:
        col_count: dict[int, int] = {}
        for row in rows:
            for j in row:
                col_count[j] = col_count.get(j, 0) + 1
        best = None
        for ri, row in enumerate(rows):
            for j, v in row.items():
                if v in (1, -1):
                    score = (len(row) - 1) * (col_count[j] - 1)
                    if best is None or score < best[0]:
                        best = (score, ri, j, v)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, ri, j, v = best
        pivot = rows.pop(ri)
        if v == -1:
            pivot = {k: -w for k, w in pivot.items()}
        survivors = []
        for row in rows:
            c = row.get(j)
            if c:
                for k, w in pivot.items():
                    nv = row.get(k, 0) - c * w
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
            if row:
                survivors.append(row)
        rows = survivors
        units += 1
    factors = [1] * units
    if rows:
        cols = sorted({j for row in rows for j in row})
        colmap = {j: i for i, j in enumerate(cols)}
        dense = [[0] * len(cols) for _ in rows]
        for i, row in enumerate(rows):
            for j, v in row.items():
                dense[i][colmap[j]] = v
        factors.extend(d for d in _smith_dense(dense) if d)
    return factors


def invariant_factors(basis: LatticeBasis) -> tuple[int, ...]:
    """Nonzero invariant factors of the lattice inside its ambient module."""
    return tuple(_invariant_factors(basis.generators))


def z_rank(basis: LatticeBasis) -> int:
    """Rank of the integer span."""
    return len(invariant_factors(basis))


def smith_normal_form(mat: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith normal form, d_1 | d_2 | ..., zeros included
    up to min(rows, cols)."""
    factors = _invariant_factors(mat.entries)
    width = min(mat.rows, mat.cols)
    return tuple(factors) + (0,) * (width - len(factors))


def non_induced_rank(spec: CyclicGroupSpec) -> int:
    """Rank of the quotient by the combined induced ideal; the rank
    theorems say this equals euler_phi(n) for every valid characteristic."""
    return spec.n - z_rank(ideal_lattice(spec))


def rank_report(spec: CyclicGroupSpec) -> dict:
    """JSON-ready summary of the rank computation for one (n, p)."""
    factors = invariant_factors(ideal_lattice(spec))
    return {
        "n": spec.n,
        "p": spec.p,
        "ideal_rank": len(factors),
        "quotient_rank": spec.n - len(factors),
        "phi_n": euler_phi(spec.n),
        "invariant_factors": list(factors),
    }


def principal_generation_check(group: GroupSpec) -> bool:
    """Whether the products U_{(m-1)p+1} * U_p for 1 <= m <= q/p span the
    same lattice as the induced ideal {V_i : p | i}.

    One inclusion is support membership (every product must sit on indices
    divisible by p); the other holds exactly when the q/p square matrix of
    products has all-unit invariant factors.
    """
    p, q = group.p, group.q
    k = q // p
    u_p = u_element(group, p)
    vectors = []
    for m_idx in range(1, k + 1):
        product = mul(u_element(group, (m_idx - 1) * p + 1), u_p)
        if any(i % p for i in product.coeffs):
            return False
        vec = [0] * k
        for i, c in product.coeffs.items():
            vec[i // p - 1] = c
        vectors.append(tuple(vec))
    factors = _invariant_factors(vectors)
    return len(factors) == k and all(f == 1 for f in factors)
