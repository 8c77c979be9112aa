"""Formal contexts, derivation and modal operators, and the pair algebras.

Subsets of objects/attributes are bitmasks (bit g set <=> object g in the
set), and all enumerations run in ascending-mask order so results are
deterministic.  Empty object or attribute sets are permitted; derivation of
the empty set returns the full opposite universe.

All five pair kinds and both pair algebras are read from the two completion
tables of their family (``_completions``), never pair by pair.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .algebra import FiniteAlgebra
from .errors import AlgebraError, BudgetError

# 2**|G| + 2**|M| table entries: a 1x16 or 16x16 context fits.  On a 2-core
# host `protoconcepts --kind semi` takes about 2 s on 1x16 and 8 s on 1x18.
MAX_COMPLETION_ENTRIES = 1 << 17


class FormalContext:
    """Objects, attributes, and an incidence bit-matrix.  Immutable."""

    __slots__ = ("objects", "attributes", "incidence", "n_objects", "n_attributes",
                 "obj_rows", "attr_cols", "full_objects", "full_attributes")

    def __init__(self, objects, attributes, incidence):
        self.objects = tuple(str(s) for s in objects)
        self.attributes = tuple(str(s) for s in attributes)
        if len(set(self.objects)) != len(self.objects):
            raise AlgebraError("object names must be pairwise distinct")
        if len(set(self.attributes)) != len(self.attributes):
            raise AlgebraError("attribute names must be pairwise distinct")
        self.n_objects = len(self.objects)
        self.n_attributes = len(self.attributes)
        arr = np.asarray(incidence, dtype=bool).reshape(self.n_objects, self.n_attributes)
        arr = arr.copy()
        arr.flags.writeable = False
        self.incidence = arr
        self.obj_rows = tuple(
            int(sum(1 << m for m in range(self.n_attributes) if arr[g, m]))
            for g in range(self.n_objects)
        )
        self.attr_cols = tuple(
            int(sum(1 << g for g in range(self.n_objects) if arr[g, m]))
            for m in range(self.n_attributes)
        )
        self.full_objects = (1 << self.n_objects) - 1
        self.full_attributes = (1 << self.n_attributes) - 1

    def signature(self):
        return (self.n_objects, self.n_attributes, self.obj_rows)

    def __repr__(self):
        return f"FormalContext({self.n_objects}x{self.n_attributes})"


def complement_context(ctx: FormalContext) -> FormalContext:
    """Same ground sets with the incidence bitwise complemented."""
    return FormalContext(ctx.objects, ctx.attributes, ~ctx.incidence)


def derive(ctx: FormalContext, side: str, mask: int) -> int:
    """One application of the prime operator.

    side="extent": mask is an object set, result the attributes common to all
    of them.  side="intent": dual.  The empty set derives to the full
    opposite universe.
    """
    if side == "extent":
        out = ctx.full_attributes
        rows = ctx.obj_rows
    elif side == "intent":
        out = ctx.full_objects
        rows = ctx.attr_cols
    else:
        raise AlgebraError(f"side must be 'extent' or 'intent', got {side!r}")
    i = 0
    while mask:
        if mask & 1:
            out &= rows[i]
        mask >>= 1
        i += 1
    return out


def modal(ctx: FormalContext, op: str, mask: int) -> int:
    """Possibility/necessity images.

    box_p/diamond_p take an attribute set to an object set (g' <= B resp.
    g' meets B); box_o/diamond_o take an object set to an attribute set.
    """
    if op == "box_p":
        return sum(1 << g for g in range(ctx.n_objects) if ctx.obj_rows[g] & ~mask == 0)
    if op == "diamond_p":
        return sum(1 << g for g in range(ctx.n_objects) if ctx.obj_rows[g] & mask)
    if op == "box_o":
        return sum(1 << m for m in range(ctx.n_attributes) if ctx.attr_cols[m] & ~mask == 0)
    if op == "diamond_o":
        return sum(1 << m for m in range(ctx.n_attributes) if ctx.attr_cols[m] & mask)
    raise AlgebraError(f"unknown modal operator {op!r}")


@dataclass(frozen=True)
class ConceptPair:
    """A pair (extent mask, intent mask) with its recomputable kind flags."""

    extent: int
    intent: int
    concept: bool
    semiconcept: bool
    protoconcept: bool
    oo_semiconcept: bool
    oo_protoconcept: bool


def pair_flags(ctx: FormalContext, a: int, b: int) -> ConceptPair:
    ap = derive(ctx, "extent", a)
    bp = derive(ctx, "intent", b)
    app = derive(ctx, "intent", ap)
    return ConceptPair(
        extent=a,
        intent=b,
        concept=(ap == b and bp == a),
        semiconcept=(ap == b or bp == a),
        protoconcept=(app == bp),
        oo_semiconcept=(modal(ctx, "box_o", a) == b or modal(ctx, "diamond_p", b) == a),
        oo_protoconcept=(
            modal(ctx, "diamond_p", modal(ctx, "box_o", a)) == modal(ctx, "diamond_p", b)
        ),
    )


_KINDS = ("concept", "semiconcept", "protoconcept", "oo_semiconcept", "oo_protoconcept")


def _completions(ctx: FormalContext, oo: bool) -> tuple[list[int], list[int]]:
    """The completion tables, indexed by mask: ``E[a]`` is the intent that
    completes extent a (a' or, when ``oo``, box_o a) and ``I[b]`` the extent
    that completes intent b (b' or diamond_p b)."""
    entries = ctx.full_objects + ctx.full_attributes + 2
    if entries > MAX_COMPLETION_ENTRIES:
        raise BudgetError(
            f"completion tables of a {ctx.n_objects}x{ctx.n_attributes} context need "
            f"{entries} entries, more than the limit of {MAX_COMPLETION_ENTRIES}")
    complete, ext, itt = (modal, "box_o", "diamond_p") if oo else (derive, "extent", "intent")
    return ([complete(ctx, ext, a) for a in range(ctx.full_objects + 1)],
            [complete(ctx, itt, b) for b in range(ctx.full_attributes + 1)])


def _generated_pairs(ctx: FormalContext, kind: str) -> list[tuple[int, int]]:
    """The (extent, intent) masks of every ``kind`` pair, ascending: the
    (oo-)semiconcepts are the completed extents and intents, the concepts the
    (a, E[a]) with I[E[a]] = a, the (oo-)protoconcepts the (a, b) with I[E[a]] = I[b]."""
    E, I = _completions(ctx, kind.startswith("oo_"))
    if kind.endswith("semiconcept"):
        return sorted({*enumerate(E), *((a, b) for b, a in enumerate(I))})
    if kind == "concept":
        return [(a, b) for a, b in enumerate(E) if I[b] == a]
    intents_by_image: dict[int, list[int]] = {}
    for b, a in enumerate(I):
        intents_by_image.setdefault(a, []).append(b)
    return [(a, b) for a, e in enumerate(E) for b in intents_by_image.get(I[e], ())]


def enumerate_pairs(ctx: FormalContext, kind: str) -> list[ConceptPair]:
    """All pairs of the requested kind, ordered by (extent mask, intent mask)."""
    if kind not in _KINDS:
        raise AlgebraError(f"unknown pair kind {kind!r} (known: {_KINDS})")
    return [pair_flags(ctx, a, b) for a, b in _generated_pairs(ctx, kind)]


def _pair_name(prefix: str, a: int, b: int) -> str:
    return f"{prefix}{a:x}_{b:x}"


@dataclass(frozen=True)
class PairAlgebra:
    """A FiniteAlgebra whose elements are (extent, intent) pairs."""

    algebra: FiniteAlgebra
    pairs: tuple[tuple[int, int], ...]

    def index_of(self, a: int, b: int) -> int:
        return self.pairs.index((a, b))


def _pair_algebra(ctx: FormalContext, kind: str, prefix: str, meet_extents,
                  top, bot) -> PairAlgebra:
    """The algebra on the ``kind`` pairs of ctx: meet combines extents with
    ``meet_extents`` and join intersects intents, the negations complement
    one side, and the completion tables supply the other side; top/bot are
    pairs.  Elements are named with ``prefix``."""
    members = _generated_pairs(ctx, kind)
    index = {ab: i for i, ab in enumerate(members)}
    E, I = _completions(ctx, kind.startswith("oo_"))
    # (a, E[a]) and (I[b], b) are semiconcepts, which every kind built here
    # contains (a'' = (a')', b''' = b', diamond box diamond = diamond): no lookup misses.
    at_extent = [index[ab] for ab in enumerate(E)]
    at_intent = [index[a, b] for b, a in enumerate(I)]
    mt = [[at_extent[meet_extents(a, c)] for c, _ in members] for a, _ in members]
    jt = [[at_intent[b & d] for _, d in members] for _, b in members]
    gt = [at_extent[ctx.full_objects & ~a] for a, _ in members]
    ot = [at_intent[ctx.full_attributes & ~b] for _, b in members]
    alg = FiniteAlgebra(
        [_pair_name(prefix, a, b) for a, b in members], mt, jt, gt, ot, index[top], index[bot])
    return PairAlgebra(alg, tuple(members))


def protoconcept_algebra(ctx: FormalContext, kind: str = "protoconcept") -> PairAlgebra:
    """The algebra on the protoconcepts of ctx (kind="semiconcept" restricts to
    the semiconcept subalgebra; both are closed under all six operations).

    meet intersects extents, join intersects intents, the negations complement
    one side and re-derive the other; top is (G, {}), bottom ({}, M).
    """
    if kind not in ("protoconcept", "semiconcept"):
        raise AlgebraError(f"kind must be protoconcept or semiconcept, got {kind!r}")
    return _pair_algebra(
        ctx, kind, "p", operator.and_, (ctx.full_objects, 0), (0, ctx.full_attributes))


def oo_protoconcept_algebra(ctx: FormalContext, kind: str = "oo_protoconcept") -> PairAlgebra:
    """The algebra on the object-oriented protoconcepts (or semiconcepts).

    meet unions extents and applies necessity, join intersects intents and
    applies possibility; top is ({}, {}), bottom (G, M).
    """
    if kind not in ("oo_protoconcept", "oo_semiconcept"):
        raise AlgebraError(f"kind must be oo_protoconcept or oo_semiconcept, got {kind!r}")
    return _pair_algebra(
        ctx, kind, "r", operator.or_, (0, 0), (ctx.full_objects, ctx.full_attributes))


def all_contexts(n_objects: int, n_attributes: int):
    """Every incidence on fixed ground sets, ascending by row-major bit pattern."""
    cells = n_objects * n_attributes
    for code in range(1 << cells):
        bits = [[bool(code >> (g * n_attributes + m) & 1) for m in range(n_attributes)]
                for g in range(n_objects)]
        yield FormalContext(
            [f"g{i}" for i in range(n_objects)],
            [f"m{i}" for i in range(n_attributes)],
            np.asarray(bits, dtype=bool).reshape(n_objects, n_attributes),
        )
