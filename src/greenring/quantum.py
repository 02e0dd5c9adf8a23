"""Quantum-number polynomials and the relation polynomials of the
chi-presentation of the ring.

A quantum number [n] is the integer polynomial with [0] = 0, [1] = 1,
[2] = X and [n] = [2][n-1] - [n-2]; evaluating at 2 gives back n.
At a chi generator, [d + 1]_{chi_j} is the U-element U_{d p^j + 1}, and
[r] at chi_0 equals V_r for r <= p.  The relations read [p] and [p - 1]
at chi_j from ``ubasis.u_element``; evaluating at a ring element by the
recurrence (``eval_at_element``) is their cross-check.
"""

from __future__ import annotations

import dataclasses
import math

from .core_ring import GroupSpec, RingElement, chi, mul, one, zero
from .ubasis import u_element

__all__ = ["relations"]


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
    """[n] evaluated at a ring element through the defining recurrence.

    The library evaluates [p] and [p - 1] at chi_j as U-elements (see
    :func:`relations`); this recurrence of ring products is kept as their
    cross-check in the tests.
    """
    if n < 0:
        raise ValueError("quantum numbers are indexed by n >= 0")
    group = x.group
    prev, cur = zero(group), one(group)
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, mul(x, cur) - prev
    return cur


# The relations take 2 alpha - 1 ring products, one pass over the levels;
# alpha^3 p^2 bounds that work loosely: on a 2-vCPU VM, at the cap
# (1117, 2) takes 0.05 s and (2, 135) 0.17 s in process.  Larger groups
# are refused before any product.
MAX_RELATION_WORK = 10**7


def _check_relation_work(group: GroupSpec) -> None:
    work = group.alpha**3 * group.p**2
    if work > MAX_RELATION_WORK:
        raise ValueError(
            f"relations at p = {group.p}, alpha = {group.alpha} are too large: "
            f"alpha^3 p^2 = {work} exceeds {MAX_RELATION_WORK}"
        )


def _levels(group: GroupSpec):
    """Yield (chi_j, [p]_{chi_j}, D_j) for j = 0 .. alpha - 1, carrying

        D_0 = 1,  D_(j+1) = [p]_{chi_j} D_j - [p-1]_{chi_j}

    forward; [p]_{chi_j} = U_{(p-1) p^j + 1} and [p-1]_{chi_j} =
    U_{(p-2) p^j + 1} come from ``u_element``.  Unwinding the recursion
    shows D_j = V_{p^j} - V_{p^j - 1} (tested in the suite).
    """
    p = group.p
    descent = one(group)
    for j in range(group.alpha):
        top = u_element(group, (p - 1) * p**j + 1)
        yield chi(group, j), top, descent
        if j + 1 < group.alpha:
            below = u_element(group, (p - 2) * p**j + 1)
            descent = mul(top, descent) - below


def relations(group: GroupSpec) -> list[RingElement]:
    """The relations F_0 .. F_(alpha-1) of the chi-presentation, evaluated
    at the chi generators; each must come out zero in the ring.

    F_j = (X_j - 2 D_j) [p]_{X_j}, with D_j as in :func:`_levels`; at
    j = 0 (D_0 = 1) this is the adopted bottom relation (X_0 - 2) [p]_{X_0}.
    For j = 1 it is the widely quoted two-term head up to the sign of the
    [p-1] term; for j >= 2 the recursive factor is required for the
    relation to vanish.  See docs/discrepancies.md.  One pass over the
    levels takes 2 alpha - 1 ring products.  A group past
    ``MAX_RELATION_WORK`` raises ``ValueError`` before any product.
    """
    _check_relation_work(group)
    return [mul(x - 2 * descent, top) for x, top, descent in _levels(group)]
