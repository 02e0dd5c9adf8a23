"""Quantum-number polynomials and the relation polynomials of the
chi-presentation of the ring.

A quantum number [n] is the integer polynomial with [0] = 0, [1] = 1,
[2] = X and [n] = [2][n-1] - [n-2]; evaluating at 2 gives back n.
Substituting a ring element for X (most usefully one of the chi
generators) is how the higher indecomposables and the U-basis are built:
[r] at chi_0 equals V_r for r <= p.
"""

from __future__ import annotations

import dataclasses
import math

from .core_ring import GroupSpec, RingElement, chi, mul, one, zero

__all__ = [
    "IntPolynomial",
    "quantum_number",
    "quantum_closed_form",
    "eval_at_element",
    "relation_F",
    "relation_F0",
]


@dataclasses.dataclass(frozen=True, init=False)
class IntPolynomial:
    """Univariate integer polynomial, dense coefficients, constant term first.

    >>> IntPolynomial(1, 0, -3, 0, 1).degree
    4
    >>> IntPolynomial(0, 1)(7)
    7
    """

    coeffs: tuple[int, ...]

    def __init__(self, *coeffs: int):
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", tuple(int(c) for c in coeffs[:end]))

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return IntPolynomial(*(x + y for x, y in zip(a, b)))

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(*(-c for c in self.coeffs))

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        return self + (-other)

    def __mul__(self, other) -> IntPolynomial:
        if isinstance(other, int):
            return IntPolynomial(*(c * other for c in self.coeffs))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(*out)

    __rmul__ = __mul__

    def __divmod__(self, other: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
        """Long division; every leading-coefficient step must divide exactly.

        >>> divmod(IntPolynomial(-1, 0, 0, 1), IntPolynomial(-1, 1))
        (IntPolynomial('X^2 + X + 1'), IntPolynomial('0'))
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot: list[int] = [0] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        for k in range(len(rem) - len(other.coeffs), -1, -1):
            t, leftover = divmod(rem[k + other.degree], lead)
            if leftover:
                raise ValueError("leading coefficient does not divide exactly")
            if t:
                quot[k] = t
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= t * b
        return IntPolynomial(*quot), IntPolynomial(*rem)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                power = "X" if i == 1 else f"X^{i}"
                body = power if mag == 1 else f"{mag}{power}"
            parts.append((sign, body))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"IntPolynomial('{self}')"

    def to_json_list(self) -> list[int]:
        return list(self.coeffs)

    @staticmethod
    def from_json_list(coeffs) -> IntPolynomial:
        return IntPolynomial(*(int(c) for c in coeffs))


_X = IntPolynomial(0, 1)


def quantum_number(n: int) -> IntPolynomial:
    """The n-th quantum number by the recurrence [n] = [2][n-1] - [n-2]."""
    if n < 0:
        raise ValueError("quantum numbers are indexed by n >= 0")
    prev, cur = IntPolynomial(), IntPolynomial(1)
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, _X * cur - prev
    return cur


def quantum_closed_form(n: int) -> IntPolynomial:
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
    return IntPolynomial(*out)


def eval_at_element(n: int, x: RingElement) -> RingElement:
    """[n] evaluated at a ring element through the defining recurrence."""
    if n < 0:
        raise ValueError("quantum numbers are indexed by n >= 0")
    group = x.group
    prev, cur = zero(group), one(group)
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, mul(x, cur) - prev
    return cur


# Checking the relations of a group takes about alpha^2 p ring products of
# elements with about p terms, each reduced over up to alpha digit levels,
# so the work grows as alpha^3 p^2.  On a 2-vCPU VM, alpha^3 p^2 near 10^7
# took 0.8 s at (2, 135) and 3.1 s at (1117, 2), while (2, 400) took 7.2 s
# and (3001, 2) 19.3 s; larger groups are refused before any product.
MAX_RELATION_WORK = 10**7


def _check_relation_work(group: GroupSpec) -> None:
    work = group.alpha**3 * group.p**2
    if work > MAX_RELATION_WORK:
        raise ValueError(
            f"relations at p = {group.p}, alpha = {group.alpha} are too large: "
            f"alpha^3 p^2 = {work} exceeds {MAX_RELATION_WORK}"
        )


def _descent(group: GroupSpec, j: int) -> RingElement:
    """D_j with D_0 = 1 and D_j = [p]_{chi_{j-1}} D_{j-1} - [p-1]_{chi_{j-1}}.

    Unwinding the recursion shows D_j = V_{p^j} - V_{p^j - 1}: the [p]
    factors accumulate to V_{p^j}, and the correction terms assemble
    V_{p^j - 1} through [p]_{chi_{j-1}} V_{p^(j-1)-1} + [p-1]_{chi_{j-1}}
    = V_{p^j - 1} (tested exhaustively in the suite).
    """
    p = group.p
    out = one(group)
    for i in range(j):
        level = chi(group, i)
        out = mul(eval_at_element(p, level), out) - eval_at_element(p - 1, level)
    return out


def relation_F(group: GroupSpec, j: int) -> RingElement:
    """The j-th relation of the chi-presentation, evaluated at the chi
    generators; must come out zero in the ring.

    F_j = (X_j - 2 [p]_{X_{j-1}} D_{j-1} + 2 [p-1]_{X_{j-1}}) [p]_{X_j}
        = (X_j - 2 D_j) [p]_{X_j},

    with D as in :func:`_descent`.  For j = 1 (where D_0 = 1) this is the
    widely quoted two-term head, up to the sign of the [p-1] term; for
    j >= 2 the recursive factor is required for the relation to vanish.
    See docs/discrepancies.md.  A group past ``MAX_RELATION_WORK`` raises
    ``ValueError`` before any product.
    """
    if not 1 <= j < group.alpha:
        raise ValueError(f"level {j} outside 1..{group.alpha - 1}")
    _check_relation_work(group)
    here = chi(group, j)
    head = here - 2 * _descent(group, j)
    return mul(head, eval_at_element(group.p, here))


def relation_F0(group: GroupSpec) -> RingElement:
    """Adopted bottom relation F_0 = (X_0 - 2) [p]_{X_0} at chi_0; zero in
    the ring, and compatible with replacing it by [p]_{X_0} alone in the
    quotient presentation.  A group past ``MAX_RELATION_WORK`` raises
    ``ValueError`` before any product."""
    _check_relation_work(group)
    x0 = chi(group, 0)
    return mul(x0 - 2 * one(group), eval_at_element(group.p, x0))
