"""The U-basis of the representation ring and both change-of-basis
directions.

U_r is the product of quantum numbers [r_i + 1] evaluated at chi_i, one
factor per base-p digit r_i of r - 1.  ``u_element`` expands it straight
from the digits, from level 0 up, by the action of one such factor on a
V_j with j <= p^i; it takes no ring product, so the U-basis does not use
the tensor engine or its memo (the ring product of the factors is its
cross-check in the tests).  The U_j form a second Z-basis:
each V_r is a multiplicity-free 0/1 sum of U_j.  The index set comes from
the digit-splitting recursion (``digits.split_indices``); the change of
basis takes that route.  The cousins closed form (``v_in_u``) derives
the same set independently and is kept as the cross-check.  The V-to-U
matrix is lower triangular with unit diagonal; rendered as a bitmap it
shows a Sierpinski-like pattern.
"""

from __future__ import annotations

import dataclasses
import math
import operator

from . import digits
from .core_ring import GroupSpec, RingElement

__all__ = [
    "IntMatrix",
    "u_element",
    "cousins",
    "change_of_basis",
    "render_matrix",
]


@dataclasses.dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix; entries stored as a tuple of row tuples."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(map(operator.index, row)) for row in self.entries)
        if rows and any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def _low_run(digs: tuple[int, ...], p: int) -> int:
    """The level k of the first digit of r - 1 below p - 1 (its length if
    there is none): the factors at levels 0 .. k multiply to the single
    term U_{(d_k + 1) p^k} = V_{(d_k + 1) p^k}."""
    k = 0
    while k < len(digs) and digs[k] == p - 1:
        k += 1
    return k


def _support_bound(r: int, p: int) -> int:
    """An upper bound on the number of V-terms of U_r, from the digits
    d_0, d_1, ... of r - 1: with d_0 .. d_(k-1) equal to p - 1 and d_k
    below it, the product of (d_i + 1) over the levels i > k.

    Multiplied from the lowest digit up, the factors up to level k give
    U_{(d_k + 1) p^k} = V_{(d_k + 1) p^k}, a single term, and the partial
    product before a level i > k is U_{r'} with r' <= p^i.  On a term V_j
    with j <= p^i the factor [d_i + 1] at chi_i gives at most d_i + 1
    terms (V_{(d_i - 2e) p^i +- j}, folded at zero), so every partial
    product, and U_r, stays within the bound."""
    digs = digits.to_digits(r - 1, p)
    return math.prod(d + 1 for d in digs[_low_run(digs, p) + 1 :])


def u_element(group: GroupSpec, r: int) -> RingElement:
    """U_r expanded into the V-basis, one digit level at a time.

    For 1 <= j <= p^i and a digit d, the factor at level i acts on V_j by

        [d + 1]_{chi_i} V_j = sum over e = d, d - 2, ... >= 0 of
                              V_{e p^i + j} - V_{e p^i - j},

    with indices <= 0 dropped (induction on d, from [n + 1] = X [n] - [n - 1]
    and the column rule of chi_i on V_j).  Taken from level 0 up, the
    partial product before level i is U_{r'} with r' <= p^i, so the rule
    applies at every level and no ring product is taken.  Every partial
    product stays within ``_support_bound``; an r whose bound exceeds
    ``digits.MAX_INDEX_SET`` raises ``ValueError`` before any work.  The
    top index of the result is exactly r with coefficient 1, and its
    dimension is the product of (digit + 1) over the digits of r - 1.
    """
    if not 1 <= r <= group.q:
        raise ValueError(f"index {r} outside 1..{group.q}")
    bound = _support_bound(r, group.p)
    if bound > digits.MAX_INDEX_SET:
        raise ValueError(
            f"U_{r} may have up to {bound} terms in base {group.p}, "
            f"more than {digits.MAX_INDEX_SET}"
        )
    out = {1: 1}
    for level, d in enumerate(digits.to_digits(r - 1, group.p)):
        if not d:
            continue
        step = group.p**level
        bases = range(d * step, -1, -2 * step)  # e p^i for e = d, d - 2, ...
        nxt: dict[int, int] = {}
        get = nxt.get
        for j, c in out.items():
            for base in bases:
                nxt[base + j] = get(base + j, 0) + c
                if base > j:
                    nxt[base - j] = get(base - j, 0) - c
        out = {t: c for t, c in nxt.items() if c}
    return RingElement(group, out)


def cousins(n: int, base: int) -> frozenset[int]:
    """All sign choices on the non-leading digits of the base-b expansion.
    There are exactly 2^(nonzero non-leading digits) of them; more than
    ``digits.MAX_INDEX_SET`` raises ``ValueError`` before any is built.

    >>> sorted(cousins(63, 5))
    [37, 43, 57, 63]
    """
    if n < 0:
        raise ValueError("cousins are defined for n >= 0")
    digs = digits.to_digits(n, base)
    if not digs:
        return frozenset((0,))
    size = 2 ** sum(1 for d in digs[:-1] if d)
    if size > digits.MAX_INDEX_SET:
        raise ValueError(
            f"{n} has {size} cousins in base {base}, more than {digits.MAX_INDEX_SET}"
        )
    values = {digs[-1] * base ** (len(digs) - 1)}
    for i in range(len(digs) - 1):
        term = digs[i] * base**i
        if term:
            values = {v + term for v in values} | {v - term for v in values}
    return frozenset(values)


def v_in_u(group: GroupSpec, r: int) -> tuple[int, ...]:
    """Ascending indices j with V_r = sum of U_j: all j such that q - r is
    a cousin of q - j in base p.

    Closed-form cross-check of the splitting recursion
    (``digits.split_indices``): it scans q cousin sets, so the change of
    basis does not use it.
    """
    if not 1 <= r <= group.q:
        raise ValueError(f"index {r} outside 1..{group.q}")
    target = group.q - r
    return tuple(
        j for j in range(1, group.q + 1) if target in cousins(group.q - j, group.p)
    )


# The change of basis is a dense q x q matrix, and its rendering takes about
# two bytes an entry.  At q = 4096 that is 16.8 M entries, about 32 MiB of
# csv or pbm and about 300 MB while it is built; q = 2^30 would ask for
# 10^18 entries, so larger groups are refused before any row is built.
MAX_MATRIX_ORDER = 4096


def change_of_basis(group: GroupSpec, direction: str) -> IntMatrix:
    """Square change-of-basis matrix over indices 1..q, for
    q <= MAX_MATRIX_ORDER (a larger q raises ValueError).

    ``v_to_u``: entry (i, j) is 1 when j lies in the splitting-recursion
    index set of V_i, else 0.
    ``u_to_v``: row r holds the V-basis coefficients of U_r; this is the
    integer inverse of the other direction.
    """
    q = group.q
    if q > MAX_MATRIX_ORDER:
        raise ValueError(
            f"q = {q} exceeds {MAX_MATRIX_ORDER}: the dense q x q change of "
            f"basis would have {q * q} entries"
        )
    key = direction.lower().replace("-", "_")
    if key == "v_to_u":
        coeffs = [
            dict.fromkeys(digits.split_indices(i, group.p, group.alpha), 1)
            for i in range(1, q + 1)
        ]
    elif key == "u_to_v":
        coeffs = [u_element(group, r).coeffs for r in range(1, q + 1)]
    else:
        raise ValueError(f"direction must be v_to_u or u_to_v, got {direction!r}")
    return IntMatrix(
        tuple(tuple(row.get(t, 0) for t in range(1, q + 1)) for row in coeffs)
    )


def render_matrix(matrix: IntMatrix, format: str) -> bytes:
    """Render as a text grid (filled/empty cells for 1/0), CSV of
    integers, or a P1 portable bitmap; the cell formats require all
    entries to be 0 or 1."""
    if format == "csv":
        lines = [",".join(str(v) for v in row) for row in matrix.entries]
        return ("\n".join(lines) + "\n").encode()
    if format not in ("text", "pbm"):
        raise ValueError(f"format must be text, csv or pbm, got {format!r}")
    if any(v not in (0, 1) for row in matrix.entries for v in row):
        raise ValueError(f"{format} rendering requires 0/1 entries")
    if format == "pbm":
        header = f"P1\n{matrix.cols} {matrix.rows}\n"
        body = "\n".join(" ".join(str(v) for v in row) for row in matrix.entries)
        return (header + body + "\n").encode()
    grid = "\n".join(
        "".join("█" if v else "·" for v in row) for row in matrix.entries
    )
    return (grid + "\n").encode()
