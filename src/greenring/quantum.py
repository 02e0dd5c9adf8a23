"""The relations of the chi-presentation of the ring, and quantum numbers
evaluated at a ring element.

A quantum number [n] is the polynomial with [0] = 0, [1] = 1, [2] = X and
[n] = [2][n-1] - [n-2].  At a chi generator, [d + 1]_{chi_j} is the
U-element U_{d p^j + 1}, and [r] at chi_0 equals V_r for r <= p.  The
relations read [p] and [p - 1] at chi_j from ``ubasis.u_element``;
evaluating at a ring element by the recurrence (``eval_at_element``) is
their cross-check.
"""

from __future__ import annotations

from .core_ring import GroupSpec, RingElement, chi, mul, one, zero
from .ubasis import u_element

__all__ = ["relations"]


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
# (1117, 2) takes 0.03-0.05 s and (2, 135) 0.05-0.09 s in process.  Larger groups
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
