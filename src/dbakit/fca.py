"""Formal contexts, derivation and modal operators, and the pair algebras.

Subsets of objects/attributes are bitmasks (bit g set <=> object g in the
set), and all enumerations run in ascending-mask order so results are
deterministic.  Empty object or attribute sets are permitted; derivation of
the empty set returns the full opposite universe.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .algebra import FiniteAlgebra
from .errors import AlgebraError


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


def _generated_pairs(ctx: FormalContext, kind: str) -> list[tuple[int, int]]:
    """The (extent, intent) masks of every ``kind`` pair, ascending: group
    generators by their generated closure instead of testing all pairs.
    Each kind builds only the groupings it reads."""
    if kind == "semiconcept":
        out = [(a, derive(ctx, "extent", a)) for a in range(ctx.full_objects + 1)]
        out += [(derive(ctx, "intent", b), b) for b in range(ctx.full_attributes + 1)]
        return sorted(set(out))
    if kind in ("oo_protoconcept", "oo_semiconcept"):
        # object-oriented kinds via the complemented context
        base = _generated_pairs(complement_context(ctx), kind.removeprefix("oo_"))
        return sorted((ctx.full_objects & ~a, b) for a, b in base)
    by_extent_closure: dict[int, list[int]] = {}
    for a in range(ctx.full_objects + 1):
        app = derive(ctx, "intent", derive(ctx, "extent", a))
        by_extent_closure.setdefault(app, []).append(a)
    out = []
    if kind == "concept":
        for v in by_extent_closure:
            vp = derive(ctx, "extent", v)
            if derive(ctx, "intent", vp) == v:
                out.append((v, vp))
    else:
        by_intent_prime: dict[int, list[int]] = {}
        for b in range(ctx.full_attributes + 1):
            by_intent_prime.setdefault(derive(ctx, "intent", b), []).append(b)
        for v, a_list in by_extent_closure.items():
            for a in a_list:
                out.extend((a, b) for b in by_intent_prime.get(v, ()))
    return sorted(set(out))


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
                  extent_pair, intent_pair, top, bot) -> PairAlgebra:
    """The algebra on the ``kind`` pairs of ctx: meet combines extents with
    ``meet_extents`` and join intersects intents, the negations complement
    one side; ``extent_pair(a)``/``intent_pair(b)`` complete a side to a pair,
    and top/bot are pairs.  Elements are named with ``prefix``."""
    members = _generated_pairs(ctx, kind)
    index = {ab: i for i, ab in enumerate(members)}

    def loc(pair):
        try:
            return index[pair]
        except KeyError:
            a, b = pair
            raise AlgebraError(
                f"operation left the {kind} universe at ({a:#x}, {b:#x})") from None

    mt = [[loc(extent_pair(meet_extents(a, c))) for c, _ in members] for a, _ in members]
    jt = [[loc(intent_pair(b & d)) for _, d in members] for _, b in members]
    gt = [loc(extent_pair(ctx.full_objects & ~a)) for a, _ in members]
    ot = [loc(intent_pair(ctx.full_attributes & ~b)) for _, b in members]
    alg = FiniteAlgebra(
        [_pair_name(prefix, a, b) for a, b in members], mt, jt, gt, ot, loc(top), loc(bot))
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
        ctx, kind, "p", operator.and_,
        lambda a: (a, derive(ctx, "extent", a)), lambda b: (derive(ctx, "intent", b), b),
        (ctx.full_objects, 0), (0, ctx.full_attributes))


def oo_protoconcept_algebra(ctx: FormalContext, kind: str = "oo_protoconcept") -> PairAlgebra:
    """The algebra on the object-oriented protoconcepts (or semiconcepts).

    meet unions extents and applies necessity, join intersects intents and
    applies possibility; top is ({}, {}), bottom (G, M).
    """
    if kind not in ("oo_protoconcept", "oo_semiconcept"):
        raise AlgebraError(f"kind must be oo_protoconcept or oo_semiconcept, got {kind!r}")
    return _pair_algebra(
        ctx, kind, "r", operator.or_,
        lambda a: (a, modal(ctx, "box_o", a)), lambda b: (modal(ctx, "diamond_p", b), b),
        (0, 0), (ctx.full_objects, ctx.full_attributes))


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
