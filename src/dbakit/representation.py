"""Primary filters/ideals, the standard context, and the clopen-set representation.

For a finite dBa this module enumerates the primary filters F and primary
ideals I, forms the standard context (filters x ideals, related when they
intersect), attaches to every element x the masks F_x (filters containing x)
and I_x (ideals containing x), rebuilds an image algebra on the distinct
pairs (F_x, I_x) from the algebra's own embedding-retraction map pairs, and
exposes checkable forms of the structural claims: the derivation identities,
the quasi-embedding x -> (F_x, I_x), the clopen-set description of the
finite topologies, and the clopen protoconcept/semiconcept characterizations.

The checks read the standard context only through ``fca``'s completion
tables (a' and b' by mask), so every mask they read is a subset of its sides.

Set families here are concrete bitmask collections; "closed" means generated
from the subbase {F_x} by finite unions and intersections, and "clopen"
means closed with closed complement.  The closed family is every union of
the least sets, one per point p: the intersection of the subbase sets (and
the full space) holding p.  On a valid finite representation every singleton
is a least set, so the space is discrete and both clopen families are full
powersets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_

import numpy as np

from .algebra import FiniteAlgebra, _class_flags, passes, quasi_order
from .constructions import (
    RetractionPair, build_from_boolean_pair, canonical_pairs, check_theorem_conditions,
)
from .errors import AlgebraError, BudgetError
from .fca import FormalContext, _completions, _generated_pairs


@dataclass(frozen=True)
class FilterSet:
    """A subset of the universe tagged as filter or ideal, with its flags."""

    kind: str  # "filter" | "ideal"
    members: frozenset
    mask: int
    proper: bool
    primary: bool


def _mask_of(members) -> int:
    return sum(1 << x for x in set(members))


def _closed(s: frozenset, table: np.ndarray, rel: np.ndarray) -> bool:
    """s is closed under the operation with n x n table ``table`` and upward
    closed under the relation ``rel`` (an n x n bool matrix): one
    whole-array test each, on the rows of s."""
    rows = np.fromiter(s, np.intp, len(s))
    inside = np.zeros(len(table), bool)
    inside[rows] = True
    return bool(inside[table[rows[:, None], rows]].all()) and not (rel[rows] > inside).any()


def _members(alg: FiniteAlgebra, members) -> frozenset:
    """members as a set of element indices; AlgebraError names a member
    that is not one."""
    return frozenset(FiniteAlgebra._index(x, alg.n, "member") for x in members)


def is_filter(alg: FiniteAlgebra, members) -> bool:
    """Closed under meet and upward closed under the quasi-order."""
    return _closed(_members(alg, members), alg.meet, quasi_order(alg).rel)


def is_ideal(alg: FiniteAlgebra, members) -> bool:
    """Closed under join and downward closed under the quasi-order."""
    return _closed(_members(alg, members), alg.join, quasi_order(alg).rel.T)


def is_primary(alg: FiniteAlgebra, members, kind: str) -> bool:
    """Nonempty, proper, a filter (resp. ideal), and containing x or its
    negation (resp. opposition) for every x."""
    if kind not in ("filter", "ideal"):
        raise AlgebraError(f"kind must be 'filter' or 'ideal', got {kind!r}")
    return _is_primary(alg, _members(alg, members), kind)


def _is_primary(alg: FiniteAlgebra, s: frozenset, kind: str) -> bool:
    """``is_primary`` of a set of element indices and a valid kind."""
    if not s or len(s) == alg.n:
        return False
    rel = quasi_order(alg).rel
    if kind == "filter":
        closed, comp = _closed(s, alg.meet, rel), alg.neg.tolist()
    else:
        closed, comp = _closed(s, alg.join, rel.T), alg.opp.tolist()
    return closed and all(x in s or comp[x] in s for x in range(alg.n))


def _make_filterset(alg, kind, mask) -> FilterSet:
    members = frozenset(x for x in range(alg.n) if mask >> x & 1)
    return FilterSet(
        kind=kind,
        members=members,
        mask=mask,
        proper=len(members) != alg.n,
        primary=_is_primary(alg, members, kind),
    )


def enumerate_primary(alg: FiniteAlgebra, kind: str) -> list[FilterSet]:
    """All primary filters (resp. ideals), ascending by member bitmask.

    Closed form: in a finite dBa every filter has a least element, so the
    primary filters are exactly the upsets {z : a <= z} of the atoms a of the
    Boolean part D_meet (the meet idempotents) under the quasi-order, and the
    primary ideals the downsets {z : z <= c} of the coatoms c of D_join.  This
    is the finite case of the Stone-type representation: the Stone space of a
    finite Boolean algebra is discrete on its atoms.  Requires a dBa.
    """
    if kind not in ("filter", "ideal"):
        raise AlgebraError(f"kind must be 'filter' or 'ideal', got {kind!r}")
    if not passes(alg, "DBA23"):
        raise AlgebraError("primary filter/ideal enumeration requires a dBa")
    rel = quasi_order(alg).rel
    if kind == "filter":
        t, up = alg.meet, rel.tolist()
    else:  # dually: coatoms and downsets, through the converse order
        t, up = alg.join, rel.T.tolist()
    part = np.flatnonzero(t.diagonal() == np.arange(alg.n)).tolist()
    # an atom has exactly one part element strictly below it: the part's bottom
    atoms = [a for a in part if sum(up[b][a] for b in part if b != a) == 1]
    masks = sorted(_mask_of(z for z, above in enumerate(up[a]) if above) for a in atoms)
    return [_make_filterset(alg, kind, mask) for mask in masks]


@dataclass(frozen=True)
class StandardContext:
    """Primary filters vs primary ideals; delta relates intersecting pairs,
    nabla is the bitwise complement."""

    variant: str  # "delta" | "nabla"
    filters: tuple
    ideals: tuple
    context: FormalContext

    @property
    def incidence(self):
        return self.context.incidence


def standard_context(alg: FiniteAlgebra, variant: str = "delta") -> StandardContext:
    if variant not in ("delta", "nabla"):
        raise AlgebraError(f"variant must be 'delta' or 'nabla', got {variant!r}")
    filters = tuple(enumerate_primary(alg, "filter"))
    ideals = tuple(enumerate_primary(alg, "ideal"))
    rows = [[bool(f.mask & i.mask) for i in ideals] for f in filters]
    inc = np.asarray(rows, dtype=bool).reshape(len(filters), len(ideals))
    if variant == "nabla":
        inc = ~inc
    ctx = FormalContext(
        [f"F{k}" for k in range(len(filters))],
        [f"I{k}" for k in range(len(ideals))],
        inc,
    )
    return StandardContext(variant, filters, ideals, ctx)


@dataclass
class RepresentationResult:
    algebra: FiniteAlgebra
    std: StandardContext                 # delta variant
    f_masks: tuple[int, ...]             # per element: primary filters containing it
    i_masks: tuple[int, ...]             # per element: primary ideals containing it
    pairs: tuple[tuple[int, int], ...]   # distinct (F_x, I_x), ascending
    h: tuple[int, ...]                   # element -> pair index
    image: FiniteAlgebra                 # algebra rebuilt on the pairs
    meet_part: FiniteAlgebra             # the input's D_meet (extract_boolean_part)
    join_part: FiniteAlgebra             # the input's D_join
    r_map: tuple[int, ...]               # pair index -> meet_part element
    e_map: tuple[int, ...]               # meet_part element -> pair index
    rp_map: tuple[int, ...]              # pair index -> join_part element
    ep_map: tuple[int, ...]              # join_part element -> pair index
    homomorphism: bool = False
    order_preserving_reflecting: bool = False
    injective: bool = False
    surjective: bool = False
    conditions_ok: bool = False
    image_is_dba: bool = False
    parts_boolean: bool = False
    # verify_pair_embedding's verdicts, on its first call; a copy made with
    # dataclasses.replace starts without them
    _embedding: dict | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def quasi_embedding(self) -> bool:
        return self.homomorphism and self.order_preserving_reflecting

    @property
    def isomorphism(self) -> bool:
        return self.quasi_embedding and self.injective and self.surjective


def _moved(pair: RetractionPair, h, size: int) -> RetractionPair:
    """``pair`` moved onto the image along the onto map h: r at a pair is r of
    any element mapped to it, and e is h after e."""
    r = {}
    for x, k in enumerate(h):
        if r.setdefault(k, pair.r[x]) != pair.r[x]:
            raise AlgebraError("representation retraction is not well defined")
    return RetractionPair(size, pair.target, [r[k] for k in range(size)],
                          [h[x] for x in pair.e])


def _is_homomorphism(alg: FiniteAlgebra, f, meet, join, neg, opp, top, bot) -> bool:
    """The map x -> f[x] (an array) commutes with the four operations and
    sends alg's top and bottom to ``top`` and ``bot``.  The operations are
    given by their values at the images: ``meet[x, y]`` (an n x n array) is
    the meet of f[x] and f[y], ``neg[x]`` the negation of f[x], and so on."""
    return bool((f[alg.meet] == meet).all() and (f[alg.join] == join).all()
                and (f[alg.neg] == neg).all() and (f[alg.opp] == opp).all()
                and f[alg.top] == top and f[alg.bot] == bot)


def _is_order_embedding(alg: FiniteAlgebra, leq) -> bool:
    """``leq`` (an n x n bool array) is alg's quasi-order."""
    return bool((quasi_order(alg).rel == leq).all())


def representation(alg: FiniteAlgebra) -> RepresentationResult:
    """Build the pair map x -> (F_x, I_x) and the image algebra, and record
    the homomorphism/order/injectivity verdicts.  The image is rebuilt from
    the input's own map pairs (``canonical_pairs``) moved onto the pairs
    through h."""
    std = standard_context(alg, "delta")
    n = alg.n
    f_masks = tuple(
        sum(1 << k for k, f in enumerate(std.filters) if x in f.members)
        for x in range(n))
    i_masks = tuple(
        sum(1 << k for k, i in enumerate(std.ideals) if x in i.members)
        for x in range(n))
    pair_of = lambda x: (f_masks[x], i_masks[x])
    pairs = tuple(sorted(set(pair_of(x) for x in range(n))))
    pair_index = {p: k for k, p in enumerate(pairs)}
    h = tuple(pair_index[pair_of(x)] for x in range(n))

    p_pair, q_pair = (_moved(pair, h, len(pairs)) for pair in canonical_pairs(alg))
    cond = check_theorem_conditions(len(pairs), p_pair, q_pair, "new")
    image = build_from_boolean_pair(
        len(pairs), p_pair, q_pair,
        names=[f"d{f:x}_{i:x}" for f, i in pairs])

    res = RepresentationResult(
        algebra=alg, std=std, f_masks=f_masks, i_masks=i_masks, pairs=pairs,
        h=h, image=image, meet_part=p_pair.target.alg, join_part=q_pair.target.alg,
        r_map=p_pair.r, e_map=p_pair.e, rp_map=q_pair.r, ep_map=q_pair.e,
    )
    res.conditions_ok = cond.ok
    res.image_is_dba = passes(image, "DBA23")
    res.parts_boolean = passes(res.meet_part, "BOOLEAN") and passes(res.join_part, "BOOLEAN")

    f = np.array(h)
    fx, fy = f[:, None], f[None, :]
    res.homomorphism = _is_homomorphism(
        alg, f, image.meet[fx, fy], image.join[fx, fy], image.neg[f], image.opp[f],
        image.top, image.bot)
    res.order_preserving_reflecting = _is_order_embedding(alg, quasi_order(image).rel[fx, fy])
    res.injective = len(set(h)) == n
    res.surjective = set(h) == set(range(len(pairs)))
    return res


# --- checkable structural claims -------------------------------------------

def _masks(rep: RepresentationResult):
    """(E, D, F, I, full_f, full_i) as arrays: the completion tables of the
    standard context (filters -> ideals, ideals -> filters), the element
    masks, and the full masks of both sides."""
    ctx = rep.std.context
    E, D = map(np.array, _completions(ctx, False))
    F, I = np.array(rep.f_masks), np.array(rep.i_masks)
    return E, D, F, I, ctx.full_objects, ctx.full_attributes


def verify_derivation_identities(rep: RepresentationResult) -> list[str]:
    """The seven filter/ideal mask identities; returns the failing item names."""
    alg = rep.algebra
    E, D, F, I, full_f, full_i = _masks(rep)
    m, j = alg.meet, alg.join
    msq, jsq = m.diagonal(), j.diagonal()
    EF, DI, Fm, Fj, Im, Ij = E[F], D[I], F[msq], F[jsq], I[msq], I[jsq]
    elements = np.arange(alg.n)
    checks = {
        "meet-idempotent-prime": ((EF != I) | (I != Ij))[msq == elements],
        "join-idempotent-prime": ((DI != F) | (F != Fm))[jsq == elements],
        "prime-is-meet-square": (EF != Im) | (Im != I[jsq[msq]]),
        "prime-is-join-square": (DI != Fj) | (Fj != F[msq[jsq]]),
        "complement-negation": (full_f & ~F != F[alg.neg]) | (full_i & ~I != I[alg.opp]),
        "ideal-intersection-join": (Ij != I).any() or (I[:, None] & I != I[j]).any(),
        "filter-intersection-meet": (Fm != F).any() or (F[:, None] & F != F[m]).any(),
    }
    return [name for name, bad in checks.items() if np.any(bad)]


def verify_pair_embedding(rep: RepresentationResult) -> dict:
    """The map x -> (F_x, I_x) lands in the protoconcepts of the standard
    context and is a homomorphism for the pair operations there, preserving
    and reflecting the quasi-order.  Computed once per result."""
    if rep._embedding is None:
        rep._embedding = _pair_embedding(rep)
    return dict(rep._embedding)


def _pair_embedding(rep: RepresentationResult) -> dict:
    E, D, F, I, full_f, full_i = _masks(rep)
    proto = bool((D[E[F]] == D[I]).all())
    # the operations of fca's protoconcept algebra, which complete an extent
    # or an intent; a pair (a, b) is compared as the number a * width + b
    # (the masks of a dBa of n elements are below n: one bit per atom of a
    # Boolean part)
    width = full_i + 1
    extents, intents = F[:, None] & F[None, :], I[:, None] & I[None, :]
    neg, opp = full_f & ~F, full_i & ~I
    hom = _is_homomorphism(
        rep.algebra, F * width + I, extents * width + E[extents], D[intents] * width + intents,
        neg * width + E[neg], D[opp] * width + opp, full_f * width, full_i)
    order = _is_order_embedding(rep.algebra, (F[:, None] & ~F[None, :] == 0)
                                & (I[None, :] & ~I[:, None] == 0))
    return {"protoconcepts": proto, "homomorphism": hom, "order": order}


def closed_set_family(rep: RepresentationResult, side: str,
                      max_family: int = 1 << 16) -> frozenset:
    """All sets generated from the subbase {F_x} (resp. {I_x}) by finite
    unions and intersections, together with the empty set and the full space:
    every union of the least sets (see the module docstring)."""
    if side == "filter":
        base = set(rep.f_masks) | {0, rep.std.context.full_objects}
    elif side == "ideal":
        base = set(rep.i_masks) | {0, rep.std.context.full_attributes}
    else:
        raise AlgebraError(f"side must be 'filter' or 'ideal', got {side!r}")
    space = reduce(or_, base)
    least = {reduce(and_, [s for s in base if s >> p & 1])
             for p in range(space.bit_length()) if space >> p & 1}
    family = {0}
    for low in least:
        if len(family) > max_family:
            break
        family |= {s | low for s in family}
    if len(family) > max_family:
        raise BudgetError("closed-set family exceeded its budget")
    return frozenset(family)


def clopen_family(rep: RepresentationResult, side: str) -> frozenset:
    closed = closed_set_family(rep, side)
    full = rep.std.context.full_objects if side == "filter" else rep.std.context.full_attributes
    return frozenset(s for s in closed if (full & ~s) in closed)


def verify_clopen_sets(rep: RepresentationResult) -> bool:
    """Clopen family on each side is exactly the element-mask family."""
    return (clopen_family(rep, "filter") == frozenset(rep.f_masks)
            and clopen_family(rep, "ideal") == frozenset(rep.i_masks))


@dataclass(frozen=True)
class ClopenCharacterization:
    status: str  # "protoconcept" | "semiconcept" | "not-applicable"
    set_equal: bool | None = None
    isomorphic: bool | None = None

    @property
    def ok(self) -> bool:
        return self.status != "not-applicable" and bool(self.set_equal) and bool(self.isomorphic)


def verify_clopen_characterization(rep: RepresentationResult) -> ClopenCharacterization:
    """Fully contextual input: the clopen protoconcepts of the standard
    context are exactly the pairs (F_x, I_x) and carry a copy of the algebra.
    Pure input: same with clopen semiconcepts.  Anything else: not applicable."""
    flags = _class_flags(rep.algebra)
    if flags.is_fully_contextual:
        status = "protoconcept"
    elif flags.is_pure:
        status = "semiconcept"
    else:
        return ClopenCharacterization("not-applicable")
    cf = clopen_family(rep, "filter")
    ci = clopen_family(rep, "ideal")
    found = {(a, b) for a, b in _generated_pairs(rep.std.context, status)
             if a in cf and b in ci}
    want = set(zip(rep.f_masks, rep.i_masks))
    set_equal = found == want
    emb = verify_pair_embedding(rep)
    iso = emb["homomorphism"] and emb["order"] and rep.injective and set_equal
    return ClopenCharacterization(status, set_equal, iso)


def verify_translated_continuity(rep: RepresentationResult) -> bool:
    """Finite-scale continuity: both derivations of the standard context take
    clopen sets to clopen sets.  Through the complement relation nabla this is
    the same statement, as each of its modal images is a derivation or the
    complement of one (diamond_p b = F - b', box_p b = (I - b)', diamond_o a =
    I - a', box_o a = (F - a)') and a clopen family is closed under complement."""
    E, D = _completions(rep.std.context, False)
    cf = clopen_family(rep, "filter")
    ci = clopen_family(rep, "ideal")
    return all(E[a] in ci for a in cf) and all(D[b] in cf for b in ci)
