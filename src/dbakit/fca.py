"""Formal contexts, derivation and modal operators, and the pair algebras.

Subsets of objects/attributes are bitmasks (bit g set <=> object g in the
set), and all enumerations run in ascending-mask order so results are
deterministic.  Empty object or attribute sets are permitted; derivation of
the empty set returns the full opposite universe.

All five pair kinds, their flags and both pair algebras are read from the
completion tables (``_completions``), never derived pair by pair.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .algebra import FiniteAlgebra
from .errors import AlgebraError, BudgetError

# 2**|G| + 2**|M| table entries: a 1x16 or 16x16 context fits.  On a 2-core
# host `protoconcepts --kind semi` takes about 1 s on 1x16 and 3 s on 1x18.
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
        arr = self._incidence(incidence, (self.n_objects, self.n_attributes))
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

    @staticmethod
    def _incidence(values, shape):
        """values as a new bool array of the given shape: the entries must be
        booleans or 0/1, as ``FiniteAlgebra`` checks its tables; with no
        objects, no rows ([]) is that shape too."""
        try:
            arr = np.array(values)  # a new array: the caller may write to values
        except ValueError:  # ragged rows
            arr = None
        if arr is not None and arr.size == 0 and shape[0] == 0:
            arr = arr.reshape(shape)
        if arr is None or arr.shape != shape:
            got = "ragged rows" if arr is None else arr.shape
            raise AlgebraError(f"incidence must have shape {shape}, got {got}")
        if arr.dtype != bool:  # each entry as given, before numpy's common type
            for v in np.array(values, dtype=object).ravel().tolist():
                if not (isinstance(v, (bool, np.bool_))
                        or isinstance(v, (int, np.integer)) and v in (0, 1)):
                    raise AlgebraError(f"incidence entries must be booleans or 0/1, got {v!r}")
        return arr.astype(bool)

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
    if oo:
        # box_o a meets, over the objects g outside a, the attributes g lacks
        # (the table of those meets is indexed by G - a); diamond_p b joins
        # the columns of b
        lacks = [ctx.full_attributes & ~row for row in ctx.obj_rows]
        return (_fold_masks(lacks, ctx.full_attributes, operator.and_)[::-1],
                _fold_masks(ctx.attr_cols, 0, operator.or_))
    return (_fold_masks(ctx.obj_rows, ctx.full_attributes, operator.and_),
            _fold_masks(ctx.attr_cols, ctx.full_objects, operator.and_))


def _fold_masks(values, start, op) -> list[int]:
    """``T[mask]``: start combined by op with ``values[i]`` for each bit i of
    mask, for every mask over ``len(values)`` bits; each entry extends the
    entry without its lowest bit."""
    table = [start] * (1 << len(values))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = op(table[mask ^ low], values[low.bit_length() - 1])
    return table


def _generated_pairs(ctx: FormalContext, kind: str) -> list[tuple[int, int]]:
    """The (extent, intent) masks of every ``kind`` pair, ascending."""
    return _pairs_of(kind, *_completions(ctx, kind.startswith("oo_")))


def _pairs_of(kind: str, E: list[int], I: list[int]) -> list[tuple[int, int]]:
    """The ``kind`` pairs of the completion tables E, I of kind's family: the
    (oo-)semiconcepts are the completed extents and intents, the concepts the
    (a, E[a]) with I[E[a]] = a, the (oo-)protoconcepts the (a, b) with I[E[a]] = I[b]."""
    if kind.endswith("semiconcept"):
        return sorted({*enumerate(E), *((a, b) for b, a in enumerate(I))})
    if kind == "concept":
        return [(a, b) for a, b in enumerate(E) if I[b] == a]
    intents_by_image: dict[int, list[int]] = {}
    for b, a in enumerate(I):
        intents_by_image.setdefault(a, []).append(b)
    return [(a, b) for a, e in enumerate(E) for b in intents_by_image.get(I[e], ())]


def enumerate_pairs(ctx: FormalContext, kind: str) -> list[ConceptPair]:
    """All pairs of the requested kind, ordered by (extent mask, intent mask).

    The five flags are ``pair_flags``'s, read from the completion tables of
    both families instead of derived pair by pair."""
    if kind not in _KINDS:
        raise AlgebraError(f"unknown pair kind {kind!r} (known: {_KINDS})")
    E, I = _completions(ctx, False)
    Eo, Io = _completions(ctx, True)
    members = _pairs_of(kind, Eo, Io) if kind.startswith("oo_") else _pairs_of(kind, E, I)
    return [ConceptPair(a, b,
                        concept=E[a] == b and I[b] == a,
                        semiconcept=E[a] == b or I[b] == a,
                        protoconcept=I[E[a]] == I[b],
                        oo_semiconcept=Eo[a] == b or Io[b] == a,
                        oo_protoconcept=Io[Eo[a]] == Io[b])
            for a, b in members]


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
    E, I = _completions(ctx, kind.startswith("oo_"))
    members = _pairs_of(kind, E, I)
    index = {ab: i for i, ab in enumerate(members)}
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
