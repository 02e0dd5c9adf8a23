"""Elements of the representation ring of a cyclic p-group in the V-basis,
with the full tensor-product decomposition engine.

Conventions
-----------
For the group of order q = p^alpha the indecomposables are V_1 .. V_q,
where V_1 is the unit of the ring.  An index of zero or below denotes the
zero module and is silently dropped when an element is assembled; the
column rules below produce such terms on purpose.  Indices above q never
arise from valid inputs and are rejected.

The engine decomposes V_r (x) V_s (with r <= s after swapping) by one
rule, the digit reduction at the level beta of the leading base-p digit
of s: s = s0 p^beta + s1 with 1 <= s0 < p, r = r0 p^beta + r1, applied to
the remainders' product V_{r1} (x) V_{s1}.  At beta = 0 (s < p) this is
the classical C_p decomposition; an exact power s = p^beta enters with
s0 = 1, s1 = 0 and yields r V_s.  A pair's digit chain is linear, one
remainders' product per level, so ``_tensor_coeffs`` runs it as a loop:
it walks down the chain to a memo hit or a zero remainder, dividing
p^beta down level by level, then builds the levels bottom-up.  No depth
of chain meets Python's recursion limit, up to the 4,096-bit order cap.

The boundary term of the digit-reduction rule admits several candidate
readings; they were discriminated empirically against the brute-force
oracle (``greenring.oracle``), and the reading implemented here survives
exhaustive sweeps.  See docs/discrepancies.md for the record.

A level is two lists, its indices and its multiplicities, and every
index is written once.  One reduction copies the whole remainders'
product into disjoint blocks between consecutive multiples of p^beta:
the indices by list comprehensions, the multiplicities by list
repetition.  The terms on multiples of p^beta sit in a slot list; the one
remainder term that lands there, V_{p^beta}, is cut from the copies by
its position, last, and counted in the slots (see ``_grid``, the one home
of the rule).  Indices are written as plain ints.

The ring product ``mul`` runs the same reduction on whole elements rather
than pair by pair.  The rule is linear in the remainders' product, so
for the terms of a and b that share leading digits r0 and s0 at the top
level it needs only the aggregated remainder product
(sum c V_{r1}) (sum d V_{s1}) and four bilinear sums over the two sides
(``_merge``); the spread |r1 - s1| enters through |x| = 2 max(0, x) - x.
Every pair of digit groups is one part of one shape, its two digits,
its sums and the key of its sub-product, and ``_grid`` builds every
part: for two groups below p^beta (r0 = s0 = 0) the rule is the
identity on their sub-product.  Like the pair engine, ``mul`` runs in
two passes with no recursion: the first records the split of every
aggregated product reachable from the factors, and the second builds
them in ascending p^beta, each once per call, in a table local to the
call.  Each product decides once: when either factor has a single term
in every digit group, the whole product is summed from the pair memo;
otherwise every pair of digit groups aggregates, single-term groups
included.

All operations are pure functions on immutable values.  The tensor memo
table is a read-mostly dict.  It keeps every pair a caller asks for
(``tensor``, and the pair reads of ``mul``), each once, as a read-only
mapping that ``tensor`` returns without copying.  Its form follows the
pair's dimension r s against ``_INTERIOR_KEEP_DIM`` = 2^14.  A pair
within it, of at most min(r, s) <= 128 terms, stays a proxy over a dict,
whose comparisons and iteration run at C speed.  A larger pair is a
``_Terms``, a mapping over two arrays, the indices in ``array('i')`` and
the multiplicities in ``array('H')`` while min(r, s) < 2^16 (else
``array('i')``), at 6 bytes a term where a dict takes about 34; above an
envelope of 2^31 the two are tuples.  An interior pair of a digit chain,
a remainders' product that a level reads, is kept only up to the same
dimension bound; a larger one is computed, used and dropped.  The
per-call table of ``mul`` never enters the memo.  Every computed entry,
kept or not, is checked for positivity and dimension, and every stored
one for its top index, so a memo read needs no check.  CPython dict
operations are atomic under the GIL and recomputing an entry is
harmless, so no locking is used.

The closed forms that cross-check the engine, chi_k . V_s by the column
rule and chi_i^s by the binomial sum, live with the tests
(``tests/crosschecks.py``).  ``RingElement.to_json_dict`` is the one
serialisation, the command line's json output; nothing reads it back.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from array import array
from collections.abc import ItemsView, Mapping, Sequence
from types import MappingProxyType

from .digits import VerificationError, is_prime

__all__ = [
    "GroupSpec",
    "RingElement",
    "zero",
    "one",
    "basis_element",
    "chi",
    "tensor",
    "mul",
    "induce",
]


# The group order q = p^alpha is formed once per group.  Its size in bits is
# bounded before it is formed: 3^(10^9) alone takes over 30 s, and a q of
# more than about 7,000 bits can no longer be printed, squared, in an error
# message (Python's 4,300-digit limit on int to str).
MAX_ORDER_BITS = 4096


@dataclasses.dataclass(frozen=True)
class GroupSpec:
    """Ambient cyclic p-group data: order q = p^alpha, at most
    2^MAX_ORDER_BITS (a larger one raises ``ValueError`` before q is formed)."""

    p: int
    alpha: int
    q: int = dataclasses.field(init=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.alpha < 1:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.alpha * math.log2(self.p) > MAX_ORDER_BITS:
            raise ValueError(
                f"q = {self.p}^{self.alpha} has more than {MAX_ORDER_BITS} bits"
            )
        object.__setattr__(self, "q", self.p**self.alpha)


class RingElement:
    """A virtual module: finite integer combination of V_1 .. V_q.

    ``coeffs`` is a read-only mapping index -> nonzero integer
    coefficient, so the hash cannot go stale.  Nonpositive indices passed
    to the constructor are the zero module and vanish; zero coefficients
    are pruned.
    """

    __slots__ = ("group", "coeffs")

    def __init__(self, group: GroupSpec, coeffs: Mapping[int, int]):
        clean: dict[int, int] = {}
        for idx, c in coeffs.items():
            idx, c = operator.index(idx), operator.index(c)
            if c == 0 or idx <= 0:
                continue
            if idx > group.q:
                raise ValueError(f"index {idx} exceeds q = {group.q}")
            clean[idx] = c
        self.group = group
        self.coeffs = MappingProxyType(clean)

    @classmethod
    def _wrap(cls, group: GroupSpec, coeffs: Mapping[int, int]) -> RingElement:
        """An element over an already clean read-only mapping, not copied."""
        element = object.__new__(cls)
        element.group = group
        element.coeffs = coeffs
        return element

    def is_zero(self) -> bool:
        return not self.coeffs

    def dim(self) -> int:
        """Image under the dimension homomorphism to Z."""
        return sum(map(operator.mul, self.coeffs, self.coeffs.values()))

    def top_index(self) -> int:
        """Largest index with nonzero coefficient (0 for the zero element)."""
        return max(self.coeffs, default=0)

    def _binop(self, other: RingElement, sign: int) -> RingElement:
        if self.group != other.group:
            raise ValueError("elements live over different groups")
        out = dict(self.coeffs.items())
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, 0) + sign * c
        return RingElement(self.group, out)

    def __add__(self, other: RingElement) -> RingElement:
        return self._binop(other, 1)

    def __sub__(self, other: RingElement) -> RingElement:
        return self._binop(other, -1)

    def __neg__(self) -> RingElement:
        return RingElement(self.group, {i: -c for i, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return mul(self, other)
        if isinstance(other, int):
            return RingElement(
                self.group, {i: c * other for i, c in self.coeffs.items()}
            )
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement)
            and self.group == other.group
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.group, tuple(sorted(self.coeffs.items()))))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for idx, c in sorted(self.coeffs.items(), reverse=True):
            mag = abs(c)
            term = f"V{idx}" if mag == 1 else f"{mag}V{idx}"
            parts.append(("-" if c < 0 else "+", term))
        head_sign, head = parts[0]
        rendered = ("-" if head_sign == "-" else "") + head
        for sign, term in parts[1:]:
            rendered += f" {sign} {term}"
        return rendered

    def __repr__(self) -> str:
        return f"RingElement(p={self.group.p}, alpha={self.group.alpha}, '{self}')"

    def to_json_dict(self) -> dict:
        """{"p": .., "alpha": .., "coeffs": {...}} with numerically sorted keys."""
        return {
            "p": self.group.p,
            "alpha": self.group.alpha,
            "coeffs": {str(i): c for i, c in sorted(self.coeffs.items())},
        }


def zero(group: GroupSpec) -> RingElement:
    return RingElement(group, {})


def basis_element(group: GroupSpec, r: int) -> RingElement:
    """The class of the indecomposable V_r."""
    if not 1 <= r <= group.q:
        raise ValueError(f"index {r} outside 1..{group.q}")
    return RingElement(group, {r: 1})


def one(group: GroupSpec) -> RingElement:
    return basis_element(group, 1)


def chi(group: GroupSpec, k: int) -> RingElement:
    """The virtual element V_{p^k+1} - V_{p^k-1}; for k = 0 this is V_2."""
    if not 0 <= k < group.alpha:
        raise ValueError(f"level {k} outside 0..{group.alpha - 1}")
    pk = group.p**k
    return RingElement(group, {pk + 1: 1, pk - 1: -1})


# Tensor memo: key (p, r, s) with r <= s; the decomposition of
# V_r (x) V_s depends only on p, never on alpha, because every block is
# bounded by the p-power envelope of max(r, s).  Values are read-only
# mappings, shared with every element ``tensor`` returns for the key
# (``_memo_entry``).  The form follows r s against _INTERIOR_KEEP_DIM:
# a pair within it is a MappingProxyType over a dict, which compares and
# iterates at C speed, and a larger one a _Terms over an int32 index
# array and a uint16 (or int32) multiplicity array, 6 bytes a term against
# about 34 in a dict.  The default verify budget is the same 2^14, so a
# sweep stores and compares dicts only, while a bulk tensor workload at
# (5,7) asks almost only for pairs above it.  Every pair a caller asks
# for is stored; an interior pair of a digit chain (the remainders'
# product a level reads) is stored only when r s <= _INTERIOR_KEEP_DIM.
# In a bulk tensor workload the larger interior entries hold about half
# the memo's terms and are almost never read again, so they are
# computed, checked, used and dropped.  A dimension bound does not depend
# on p, and caps the interior part at the pairs r <= s with r s <= 2^14
# (80,840 of them for each p).
_TENSOR_CACHE: dict[tuple[int, int, int], Mapping[int, int]] = {}
_INTERIOR_KEEP_DIM = 2**14


class _Terms(Mapping):
    """A read-only mapping over two sequences, arrays or tuples, the
    indices and the multiplicities of a memo entry in the order
    ``_grid`` wrote them.  Looking up one index scans the indices, so
    callers iterate it (``items()``) rather than index it; ``values()`` is
    the sequence of multiplicities."""

    __slots__ = ("_keys", "_values")

    def __init__(self, keys: Sequence[int], values: Sequence[int]):
        self._keys = keys
        self._values = values

    def __getitem__(self, key):
        try:
            return self._values[self._keys.index(key)]
        except ValueError:
            raise KeyError(key) from None

    def __contains__(self, key) -> bool:
        return key in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def values(self) -> Sequence[int]:
        return self._values

    def items(self) -> ItemsView:
        return _TermsItems(self)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Mapping):
            return NotImplemented
        return dict(zip(self._keys, self._values)) == other

    def __repr__(self) -> str:
        return f"_Terms({dict(zip(self._keys, self._values))})"


class _TermsItems(ItemsView):
    """The (index, multiplicity) pairs of a _Terms, zipped afresh on each
    iteration."""

    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping.values())


def _memo_entry(
    idx: list[int], vals: list[int], r: int, s: int, envelope: int,
) -> Mapping[int, int]:
    """The read-only memo entry of V_r (x) V_s, r <= s, for a checked
    level's index and multiplicity lists, its terms in the same order.
    The form follows the pair's dimension.  Up to r s = _INTERIOR_KEEP_DIM
    (every kept interior pair, and every pair a default verify sweep asks
    for) it is a proxy over a dict, of at most r terms.  A larger pair is a
    _Terms over two arrays when the level's envelope p^(beta+1) is below
    2^31: the indices are at most the envelope, in int32, and a
    multiplicity is at most r, the block count, in uint16 when r < 2^16
    and else in int32.  Above that envelope it is two tuples."""
    if r * s <= _INTERIOR_KEEP_DIM:
        return MappingProxyType(dict(zip(idx, vals)))
    if envelope >= 2**31:
        return _Terms(tuple(idx), tuple(vals))
    try:
        return _Terms(array("i", idx), array("H" if r < 2**16 else "i", vals))
    except OverflowError:
        raise VerificationError("multiplicity above min(r, s)") from None


def _leading_level(p: int, n: int) -> tuple[int, int]:
    """(beta, p^beta) for the leading base-p digit of n >= 1."""
    beta, pb = 0, 1
    while pb * p <= n:
        beta, pb = beta + 1, pb * p
    return beta, pb


def _merge(left, right) -> tuple[int, int, int, int]:
    """(sum w, sum w r1, sum w s1, sum w max(0, r1 - s1)) over the pairs
    of (r1, c) in left and (s1, d) in right, with weight w = c d.  Both
    sides are sorted by remainder; the boundary sum comes from one merge
    pass with running sums over the left side."""
    total_c = total_cx = 0
    for x, c in left:
        total_c += c
        total_cx += x * c
    # below_*: the left terms with x <= y, for y ascending
    total_d = total_dy = boundary = 0
    k = below_c = below_cx = 0
    for y, d in right:
        total_d += d
        total_dy += y * d
        while k < len(left) and left[k][0] <= y:
            below_c += left[k][1]
            below_cx += left[k][0] * left[k][1]
            k += 1
        boundary += d * (total_cx - below_cx - y * (total_c - below_c))
    return total_c * total_d, total_cx * total_d, total_c * total_dy, boundary


def _grid(
    p: int, pb: int, r0: int, s0: int,
    w: int, wr1: int, ws1: int, boundary: int, idx: Sequence[int], vals: Sequence[int],
) -> tuple[list[int], list[int]]:
    """One level of the digit reduction at pb = p^beta, with
    0 <= r0 <= s0 < p: sum w V_{r0 p^beta + r1} (x) V_{s0 p^beta + s1} over
    pairs (r1, s1) of weight w, given four sums over the pairs, written
    w = sum w, wr1 = sum w r1, ws1 = sum w s1 and
    boundary = sum w max(0, r1 - s1), and the remainders' product
    rest = sum w V_{r1} (x) V_{s1} = sum a_j V_{b_j} as two sequences, its
    indices idx = (b_j) and multiplicities vals = (a_j), with b_j = p^beta
    last when it is there.  Returns the level the same way, as two lists.
    A single pair passes (1, r1, s1, max(0, r1 - s1)); ``mul`` passes the
    sums of a digit-group pair (``_merge``).  This is the one home of the
    rule.  A pair's own level has s0 >= 1; r0 = s0 = 0 comes only from
    ``mul``'s two digit-0 groups, where the rule is the identity on the
    remainders' product: no slot, step or carry is written, and a term at
    p^beta, the collision term, is put back last.

    The grid terms sit on shift + k p^beta, shift = (s0 - r0) p^beta, in a
    slot list indexed by k: the boundary term at k = 0 (see
    docs/discrepancies.md), spread = sum w |r1 - s1| = 2 boundary - wr1 + ws1
    at the steps k = 2i, i = 1..d1, and weight = p^beta w - wr1 - ws1 at
    k = 2i - 1, i = 1..d2.  The digit case sets the counts: without a carry
    (r0 + s0 < p) d1 = d2 = r0; with one, d1 = p - s0 - 1, d2 = p - s0, and
    c1 = (r0 + s0 - p) p^beta w + wr1 + ws1 at V_{p^(beta+1)}.

    Disjoint blocks: every b_j is at most p^beta, and a remainder term with
    b_j < p^beta lands at shift + b_j or shift + 2i p^beta +- b_j, inside
    the open interval (shift + k p^beta, shift + (k+1) p^beta) for k = 0,
    2i - 1 or 2i.  Those intervals are disjoint and hold no multiple of
    p^beta, so the indices of the whole remainder product are copied in by
    two list comprehensions, the shifted copies and the mirrored ones, and
    its multiplicities by one list repetition.  Only the collision term
    b_j = p^beta would land on the grid, at the odd slots: it is cut from
    the copies by its position, last, and its multiplicity goes into the
    slot sums.  The nonzero slots, in ascending order, and the carry are
    appended after the copies, so every index is written once, and a term
    at the envelope p^(beta+1), the collision term of the level above, is
    written last.  Every index written is a plain int, positive and at
    most the envelope."""
    carry = r0 + s0 >= p
    d1 = p - s0 - 1 if carry else r0
    shift = (s0 - r0) * pb
    slots = [2 * boundary - wr1 + ws1, pb * w - wr1 - ws1] * (d1 + 1)
    slots[0] = boundary if shift else 0
    if not carry:
        slots[-1] = 0  # d2 = d1: no weight term at k = 2 d1 + 1
    out: list[int] = []
    mult: list[int] = []
    if idx:
        if idx[-1] == pb:
            top = vals[-1]
            for k in range(1, 2 * d1, 2):
                slots[k] += 2 * top
            slots[-1] += top
            idx, vals = idx[:-1], vals[:-1]
        steps = range(shift + 2 * pb, shift + (2 * d1 + 1) * pb, 2 * pb)
        out = [base + b for base in (shift, *steps) for b in idx]
        if steps:
            out += [base - b for base in steps for b in idx]
        mult = list(vals) * (1 + 2 * len(steps))
    for k, c in enumerate(slots):
        if c:
            out.append(shift + k * pb)
            mult.append(c)
    if carry:
        c1 = (r0 + s0 - p) * pb * w + wr1 + ws1
        if c1:
            out.append(pb * p)
            mult.append(c1)
    return out, mult


def _tensor_level(
    p: int, pb: int, r: int, s: int, idx: Sequence[int], vals: Sequence[int],
) -> tuple[list[int], list[int]]:
    """V_r (x) V_s, r <= s, by one level of the digit reduction at
    pb = p^beta, the leading level of s, from the remainders' product
    V_{r1} (x) V_{s1} as indices and multiplicities (empty when r1 s1 = 0),
    as two lists (``_grid``)."""
    r0, r1 = divmod(r, pb)
    s0, s1 = divmod(s, pb)
    return _grid(p, pb, r0, s0, 1, r1, s1, r1 - s1 if r1 > s1 else 0, idx, vals)


def _tensor_coeffs(p: int, r: int, s: int) -> Mapping[int, int]:
    """The decomposition of V_r (x) V_s, read from the memo when present.

    Otherwise a loop in two passes, with no recursion.  The first walks
    down the digit chain: each level reads exactly one remainders' product
    V_{r1} (x) V_{s1}, whose leading level is found by dividing p^beta
    down, and the walk stops at a memo hit or at r1 s1 = 0.  The second
    builds the levels bottom-up (``_tensor_level``), each from the one
    below, as index and multiplicity lists.  Both checks run on every
    computed level, as plain ifs that survive ``python -O``; the lists hold
    every index once, so a repeated index would add positive dimension and
    fail the second.  The requested entry is stored as a shared read-only
    mapping (``_memo_entry``); an interior one only when
    r s <= _INTERIOR_KEEP_DIM.  A third plain if runs once on every level
    that is stored: its top index must be at most P(s), the least power of
    p that is at least s (p^beta when s = p^beta, else p^(beta+1))."""
    if r > s:
        r, s = s, r
    entry = _TENSOR_CACHE.get((p, r, s))
    if entry is not None:
        return entry
    _, pb = _leading_level(p, s)
    chain = []
    rest: tuple[Sequence[int], Sequence[int]] = ((), ())
    while True:
        chain.append((r, s, pb))
        r1, s1 = r % pb, s % pb
        if not (r1 and s1):
            break
        r, s = (r1, s1) if r1 <= s1 else (s1, r1)
        entry = _TENSOR_CACHE.get((p, r, s))
        if entry is not None:
            # an entry keeps the order _grid wrote its terms in
            rest = tuple(entry), tuple(entry.values())
            break
        while pb > s:
            pb //= p
    top = chain[0]
    for level in reversed(chain):
        r, s, pb = level
        idx, vals = _tensor_level(p, pb, r, s, *rest)
        key = (p, r, s)
        if min(vals, default=1) <= 0:
            raise VerificationError(f"negative multiplicity at {key}")
        if sum(map(operator.mul, idx, vals)) != r * s:
            raise VerificationError(f"dimension lost at {key}")
        if level is top or r * s <= _INTERIOR_KEEP_DIM:
            bound = pb if s == pb else pb * p
            if max(idx) > bound:
                raise VerificationError(f"index {max(idx)} exceeds {bound} at {key}")
            entry = _TENSOR_CACHE[key] = _memo_entry(idx, vals, r, s, pb * p)
        rest = idx, vals
    return entry


def tensor(group: GroupSpec, r: int, s: int) -> RingElement:
    """Exact decomposition of V_r (x) V_s into indecomposables.  The
    result wraps the memo's read-only mapping without copying or reading
    it: every stored entry has its indices at most P(s), the least power
    of p that is at least s (``_tensor_coeffs``), and s <= q gives
    P(s) <= q."""
    for idx in (r, s):
        if not 1 <= idx <= group.q:
            raise ValueError(f"index {idx} outside 1..{group.q}")
    return RingElement._wrap(group, _tensor_coeffs(group.p, r, s))


def _by_digit(terms: tuple, pb: int) -> dict[int, tuple]:
    """The terms ((r, c), ...), sorted by r, split by leading digit at pb,
    as r0 -> ((r1, c), ...) sorted by r1."""
    groups: dict[int, list] = {}
    for r, c in terms:
        r0, r1 = divmod(r, pb)
        groups.setdefault(r0, []).append((r1, c))
    return {r0: tuple(group) for r0, group in groups.items()}


def _split(p: int, pb: int, a: tuple, b: tuple) -> tuple[int, dict[int, int], list]:
    """The product of two nonempty term tuples a and b, sorted by index,
    split by digit groups at p^beta, the leading level of their largest
    index, found by dividing pb down.  Returns p^beta, the terms summed so
    far, and the digit-group pairs still to add.  When either factor has a
    single term in every digit group, the whole product is summed from the
    checked, memoized pair decompositions and no pair is left.  Otherwise
    every pair of groups is left, two groups below p^beta included, as
    (r0, s0, sums, sub) with r0 <= s0: sums are the pair's ``_merge`` sums,
    and sub is the key of the sub-product the pair needs (None when it is
    zero), a pair of term tuples below p^beta."""
    top = max(a[-1][0], b[-1][0])
    while pb > top:
        pb //= p
    groups_a, groups_b = _by_digit(a, pb), _by_digit(b, pb)
    if len(groups_a) == len(a) or len(groups_b) == len(b):
        out: dict[int, int] = {}
        for r, c in a:
            for s, d in b:
                w = c * d
                for idx, e in _tensor_coeffs(p, r, s).items():
                    out[idx] = out.get(idx, 0) + w * e
        return pb, out, []
    parts = []
    for digit_a, terms_a in groups_a.items():
        for digit_b, terms_b in groups_b.items():
            if digit_a <= digit_b:
                r0, s0, left, right = digit_a, digit_b, terms_a, terms_b
            else:
                r0, s0, left, right = digit_b, digit_a, terms_b, terms_a
            low = tuple(term for term in left if term[0])
            high = tuple(term for term in right if term[0])
            sub = (low, high) if low and high else None
            parts.append((r0, s0, _merge(left, right), sub))
    return pb, {}, parts


def _product(p: int, a: tuple, b: tuple) -> dict[int, int]:
    """Raw coefficients of the product of two nonempty term tuples
    ((r, c), ...) sorted by index (see ``mul``), in two passes, with no
    recursion.  The first records the split (``_split``) of every
    aggregated product reachable from (a, b), each once.  The second
    builds them in ascending p^beta, each split released as it is used,
    into a table that maps a pair of term tuples to their product: a
    sub-product's indices are remainders below the p^beta of every product
    that reads it, so it sits at a lower level and is built first."""
    _, pb = _leading_level(p, max(a[-1][0], b[-1][0]))
    splits: dict[tuple, tuple] = {}
    stack = [((a, b), pb)]
    while stack:
        key, pb = stack.pop()
        if key not in splits:
            splits[key] = split = _split(p, pb, *key)
            stack += [(sub, split[0]) for *_, sub in split[2] if sub]
    table: dict[tuple, dict[int, int]] = {}
    for key in sorted(splits, key=lambda key: splits[key][0]):
        pb, out, parts = splits.pop(key)
        for r0, s0, sums, sub in parts:
            rest = table[sub] if sub else {}
            part = zip(*_grid(p, pb, r0, s0, *sums, tuple(rest), tuple(rest.values())))
            for idx, c in part:
                out[idx] = out.get(idx, 0) + c
        # a term at the envelope goes last, where _grid looks for the
        # collision term when the product is a remainders' product
        if pb * p in out:
            out[pb * p] = out.pop(pb * p)
        table[key] = out
    return table[a, b]


def mul(a: RingElement, b: RingElement) -> RingElement:
    """Ring product: bilinear extension of the tensor decomposition,
    computed one digit group at a time.

    At the level beta of the largest index of a and b, each factor splits
    by leading digit, A_{r0} = sum c V_{r0 p^beta + r1}.  For a pair of
    groups (r0, s0), oriented so that r0 <= s0 (the rule is symmetric when
    r0 = s0), the digit reduction is linear in the remainders' product, so
    the sum of V_r (x) V_s c d over the pair needs the aggregated product
    (sum c V_{r1}) (sum d V_{s1}) once and its shifted and mirrored copies;
    the collision term V_{p^beta} uses the aggregate's coefficient there.
    The grid terms on multiples of p^beta are bilinear sums of the weights
    w = c d against r1 and s1; the boundary sum sum w max(0, r1 - s1) comes
    from one merge pass with running sums, and the spread sum w |r1 - s1|
    from |x| = 2 max(0, x) - x (``_merge``, ``_grid``).  The rule is
    linear, so a group of one term aggregates exactly as well.  Each
    product, and each sub-product, decides once (``_split``): when either
    factor has a single term in every digit group, no pair of groups
    aggregates, and the whole product is summed from the checked, memoized
    pair decompositions instead; nothing else reads the pair memo.  Two
    groups both below p^beta are a pair like any other, at r0 = s0 = 0,
    where the rule passes their sub-product, a product at a lower level,
    through unchanged.

    The aggregated products live in a table local to the call, keyed by the
    two sides' sorted (r1, c) tuples: a U_r has the same remainder part
    under each of its leading digits, so the same product recurs across
    digit-group pairs and levels, and is computed once.  The table is
    dropped with the call and never enters the pair memo.  The products are
    built in two passes, not by recursion (``_product``): every split is
    recorded first, then the products are built from the lowest level up.

    The result is checked with plain ifs that survive ``python -O``: its
    dimension must be dim a * dim b, and a product of two modules (all
    coefficients positive) must have positive coefficients only."""
    if a.group != b.group:
        raise ValueError("elements live over different groups")
    out = {}
    if a.coeffs and b.coeffs:
        out = _product(
            a.group.p, tuple(sorted(a.coeffs.items())), tuple(sorted(b.coeffs.items()))
        )
    product = RingElement(a.group, out)
    if product.dim() != a.dim() * b.dim():
        raise VerificationError(
            f"dimension lost in a product: {product.dim()} != {a.dim()} * {b.dim()}"
        )
    if (
        min(a.coeffs.values(), default=0) > 0
        and min(b.coeffs.values(), default=0) > 0
        and min(product.coeffs.values(), default=1) <= 0
    ):
        raise VerificationError("negative multiplicity in a product of modules")
    return product


def induce(group: GroupSpec, beta: int, r: int) -> RingElement:
    """Induction to the full group of the r-th indecomposable of the
    subgroup of order p^beta: a single indecomposable V_{r p^(alpha-beta)}."""
    if not 0 <= beta < group.alpha:
        raise ValueError(f"subgroup level {beta} outside 0..{group.alpha - 1}")
    if not 1 <= r <= group.p**beta:
        raise ValueError(f"index {r} outside 1..{group.p**beta}")
    return basis_element(group, r * group.p ** (group.alpha - beta))
