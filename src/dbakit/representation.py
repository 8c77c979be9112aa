"""Primary filters/ideals, the standard context, and the clopen-set representation.

For a finite dBa this module enumerates the primary filters F and primary
ideals I, forms the standard context (filters x ideals, related when they
intersect), attaches to every element x the masks F_x (filters containing x)
and I_x (ideals containing x), rebuilds an image algebra on the distinct
pairs (F_x, I_x) through the embedding-retraction construction, and exposes
checkable forms of the structural claims: the derivation identities, the
quasi-embedding x -> (F_x, I_x), the clopen-set description of the finite
topologies, and the clopen protoconcept/semiconcept characterizations.

Set families here are concrete bitmask collections; "closed" means generated
from the subbase {F_x} by finite unions and intersections, and "clopen"
means closed with closed complement.  The closed family is every union of
the least sets, one per point p: the intersection of the subbase sets (and
the full space) holding p.  On a valid finite representation every singleton
is a least set, so the space is discrete and both clopen families are full
powersets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

import numpy as np

from .algebra import (
    FiniteAlgebra, classify, meet_idempotents, join_idempotents,
    passes, quasi_order,
)
from .constructions import (
    BooleanView, RetractionPair, build_from_boolean_pair, check_theorem_conditions,
)
from .errors import AlgebraError, BudgetError
from .fca import FormalContext, _generated_pairs, complement_context, derive, modal

MAX_REPRESENTATION_SIZE = 20
NAIVE_SWEEP_LIMIT = 12


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


def _closed(s: frozenset, rows, rel) -> bool:
    """s is closed under the operation with table ``rows`` and upward closed
    under the relation ``rel`` (an n x n bool matrix)."""
    for x in s:
        for y in s:
            if rows[x][y] not in s:
                return False
        for z in range(len(rows)):
            if rel[x, z] and z not in s:
                return False
    return True


def is_filter(alg: FiniteAlgebra, members) -> bool:
    """Closed under meet and upward closed under the quasi-order."""
    return _closed(frozenset(members), alg._rows_m, quasi_order(alg).rel)


def is_ideal(alg: FiniteAlgebra, members) -> bool:
    """Closed under join and downward closed under the quasi-order."""
    return _closed(frozenset(members), alg._rows_j, quasi_order(alg).rel.T)


def is_primary(alg: FiniteAlgebra, members, kind: str) -> bool:
    """Nonempty, proper, a filter (resp. ideal), and containing x or its
    negation (resp. opposition) for every x."""
    s = frozenset(members)
    if not s or len(s) == alg.n:
        return False
    if kind == "filter":
        if not is_filter(alg, s):
            return False
        comp = alg._lneg
    elif kind == "ideal":
        if not is_ideal(alg, s):
            return False
        comp = alg._lopp
    else:
        raise AlgebraError(f"kind must be 'filter' or 'ideal', got {kind!r}")
    return all(x in s or comp[x] in s for x in range(alg.n))


def _make_filterset(alg, kind, mask) -> FilterSet:
    members = frozenset(x for x in range(alg.n) if mask >> x & 1)
    return FilterSet(
        kind=kind,
        members=members,
        mask=mask,
        proper=len(members) != alg.n,
        primary=is_primary(alg, members, kind),
    )


def enumerate_primary(alg: FiniteAlgebra, kind: str,
                      max_size: int = MAX_REPRESENTATION_SIZE) -> list[FilterSet]:
    """All primary filters (resp. ideals), ascending by member bitmask.

    Closed form: in a finite dBa every filter has a least element, so the
    primary filters are exactly the upsets {z : a <= z} of the atoms a of the
    Boolean part D_meet (the meet idempotents) under the quasi-order, and the
    primary ideals the downsets {z : z <= c} of the coatoms c of D_join.  This
    is the finite case of the Stone-type representation: the Stone space of a
    finite Boolean algebra is discrete on its atoms.  Requires a dBa within
    the size budget; pass a larger ``max_size`` for bigger algebras.
    """
    if alg.n > max_size:
        raise BudgetError(
            f"primary {kind} enumeration limited to {max_size} elements, got {alg.n}")
    if kind not in ("filter", "ideal"):
        raise AlgebraError(f"kind must be 'filter' or 'ideal', got {kind!r}")
    if not passes(alg, "DBA23"):
        raise AlgebraError("primary filter/ideal enumeration requires a dBa")
    rel = quasi_order(alg).rel
    if kind == "filter":
        part, up = meet_idempotents(alg), rel.tolist()
    else:  # dually: coatoms and downsets, through the converse order
        part, up = join_idempotents(alg), rel.T.tolist()
    # an atom has exactly one part element strictly below it: the part's bottom
    atoms = [a for a in part if sum(up[b][a] for b in part if b != a) == 1]
    masks = sorted(_mask_of(z for z, above in enumerate(up[a]) if above) for a in atoms)
    return [_make_filterset(alg, kind, mask) for mask in masks]


def enumerate_primary_naive(alg: FiniteAlgebra, kind: str,
                            max_size: int = NAIVE_SWEEP_LIMIT) -> list[FilterSet]:
    """Oracle: test every subset directly."""
    if alg.n > max_size:
        raise BudgetError(
            f"naive sweep limited to {max_size} elements, got {alg.n}")
    out = []
    for mask in range(1 << alg.n):
        members = [x for x in range(alg.n) if mask >> x & 1]
        if is_primary(alg, members, kind):
            out.append(mask)
    return [_make_filterset(alg, kind, mask) for mask in sorted(out)]


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


def standard_context(alg: FiniteAlgebra, variant: str = "delta",
                     max_size: int = MAX_REPRESENTATION_SIZE) -> StandardContext:
    if variant not in ("delta", "nabla"):
        raise AlgebraError(f"variant must be 'delta' or 'nabla', got {variant!r}")
    filters = tuple(enumerate_primary(alg, "filter", max_size))
    ideals = tuple(enumerate_primary(alg, "ideal", max_size))
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
    meet_part: FiniteAlgebra             # Boolean algebra on the meet-side pairs
    join_part: FiniteAlgebra
    r_map: tuple[int, ...]
    e_map: tuple[int, ...]
    rp_map: tuple[int, ...]
    ep_map: tuple[int, ...]
    homomorphism: bool = False
    order_preserving_reflecting: bool = False
    injective: bool = False
    surjective: bool = False
    conditions_ok: bool = False
    image_is_dba: bool = False
    parts_boolean: bool = False

    @property
    def quasi_embedding(self) -> bool:
        return self.homomorphism and self.order_preserving_reflecting

    @property
    def isomorphism(self) -> bool:
        return self.quasi_embedding and self.injective and self.surjective


def representation(alg: FiniteAlgebra,
                   max_size: int = MAX_REPRESENTATION_SIZE) -> RepresentationResult:
    """Build the pair map x -> (F_x, I_x) and the image algebra, and record
    the homomorphism/order/injectivity verdicts."""
    std = standard_context(alg, "delta", max_size)
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

    m, j, g, o = alg._rows_m, alg._rows_j, alg._lneg, alg._lopp
    mm = lambda x: m[x][x]
    jj = lambda x: j[x][x]

    def build_part(idems, square, combine_meet, combine_join, comp_op):
        """Boolean algebra on {(F_u, I_u) : u idempotent}, via representatives."""
        part_pairs = tuple(sorted(set(pair_of(u) for u in idems)))
        idx = {p: k for k, p in enumerate(part_pairs)}
        rep = {}
        for u in sorted(idems):
            rep.setdefault(pair_of(u), u)
        reps = [rep[p] for p in part_pairs]

        def table(fn):
            t = [[idx[pair_of(fn(u, v))] for v in reps] for u in reps]
            for a, u in enumerate(reps):  # well-definedness across representatives
                for u2 in idems:
                    if pair_of(u2) != part_pairs[a]:
                        continue
                    for b, v in enumerate(reps):
                        if idx[pair_of(fn(u2, v))] != t[a][b]:
                            raise AlgebraError("representation pairs are not operation-compatible")
            return t

        mt = table(combine_meet)
        jt = table(combine_join)
        ct = [idx[pair_of(comp_op(u))] for u in reps]
        top = idx[pair_of(square(alg.top))]
        bot = idx[pair_of(square(alg.bot))]
        names = [f"d{f:x}_{i:x}" for f, i in part_pairs]
        return FiniteAlgebra(names, mt, jt, ct, ct, top, bot), part_pairs, idx

    vee_ = lambda u, v: g[m[g[u]][g[v]]]
    wedge_ = lambda u, v: o[j[o[u]][o[v]]]
    cap_alg, cap_pairs, cap_idx = build_part(
        sorted(meet_idempotents(alg)), mm,
        combine_meet=lambda u, v: m[u][v], combine_join=vee_, comp_op=lambda u: g[u])
    cup_alg, cup_pairs, cup_idx = build_part(
        sorted(join_idempotents(alg)), jj,
        combine_meet=wedge_, combine_join=lambda u, v: j[u][v], comp_op=lambda u: o[u])

    # retraction pairs: square into each part, include back
    r_map, rp_map = [None] * len(pairs), [None] * len(pairs)
    for x in range(n):
        for target, value in ((r_map, cap_idx[pair_of(mm(x))]),
                              (rp_map, cup_idx[pair_of(jj(x))])):
            if target[h[x]] is not None and target[h[x]] != value:
                raise AlgebraError("representation retraction is not well defined")
            target[h[x]] = value
    e_map = [pair_index[p] for p in cap_pairs]
    ep_map = [pair_index[p] for p in cup_pairs]

    p_pair = RetractionPair(len(pairs), BooleanView(cap_alg), r_map, e_map)
    q_pair = RetractionPair(len(pairs), BooleanView(cup_alg), rp_map, ep_map)
    cond = check_theorem_conditions(len(pairs), p_pair, q_pair, "new")
    image = build_from_boolean_pair(
        len(pairs), p_pair, q_pair,
        names=[f"d{f:x}_{i:x}" for f, i in pairs])

    res = RepresentationResult(
        algebra=alg, std=std, f_masks=f_masks, i_masks=i_masks, pairs=pairs,
        h=h, image=image, meet_part=cap_alg, join_part=cup_alg,
        r_map=tuple(r_map), e_map=tuple(e_map),
        rp_map=tuple(rp_map), ep_map=tuple(ep_map),
    )
    res.conditions_ok = cond.ok
    res.image_is_dba = passes(image, "DBA23")
    res.parts_boolean = passes(cap_alg, "BOOLEAN") and passes(cup_alg, "BOOLEAN")

    im, ij, ig, io = image._rows_m, image._rows_j, image._lneg, image._lopp
    res.homomorphism = (
        all(h[m[x][y]] == im[h[x]][h[y]] and h[j[x][y]] == ij[h[x]][h[y]]
            for x in range(n) for y in range(n))
        and all(h[g[x]] == ig[h[x]] and h[o[x]] == io[h[x]] for x in range(n))
        and h[alg.top] == image.top and h[alg.bot] == image.bot
    )
    rel_a = quasi_order(alg).rel
    rel_i = quasi_order(image).rel
    res.order_preserving_reflecting = all(
        bool(rel_a[x, y]) == bool(rel_i[h[x], h[y]])
        for x in range(n) for y in range(n))
    res.injective = len(set(h)) == n
    res.surjective = set(h) == set(range(len(pairs)))
    return res


# --- checkable structural claims -------------------------------------------

def verify_derivation_identities(rep: RepresentationResult) -> list[str]:
    """The six filter/ideal mask identities; returns the failing item names."""
    alg = rep.algebra
    ctx = rep.std.context
    n = alg.n
    m, j, g, o = alg._rows_m, alg._rows_j, alg._lneg, alg._lopp
    F, I = rep.f_masks, rep.i_masks
    full_f = ctx.full_objects
    full_i = ctx.full_attributes
    fails = []

    def prime_f(mask):  # filters -> ideals
        return derive(ctx, "extent", mask)

    def prime_i(mask):  # ideals -> filters
        return derive(ctx, "intent", mask)

    if any(prime_f(F[x]) != I[x] or I[x] != I[j[x][x]]
           for x in meet_idempotents(alg)):
        fails.append("meet-idempotent-prime")
    if any(prime_i(I[y]) != F[y] or F[y] != F[m[y][y]]
           for y in join_idempotents(alg)):
        fails.append("join-idempotent-prime")
    for x in range(n):
        sq = m[x][x]
        if prime_f(F[x]) != I[sq] or I[sq] != I[j[sq][sq]]:
            fails.append("prime-is-meet-square")
            break
    for x in range(n):
        sq = j[x][x]
        if prime_i(I[x]) != F[sq] or F[sq] != F[m[sq][sq]]:
            fails.append("prime-is-join-square")
            break
    if any(full_f & ~F[x] != F[g[x]] or full_i & ~I[x] != I[o[x]] for x in range(n)):
        fails.append("complement-negation")
    if any(I[x] & I[y] != I[j[x][y]] for x in range(n) for y in range(n)) or \
            any(I[j[x][x]] != I[x] for x in range(n)):
        fails.append("ideal-intersection-join")
    if any(F[x] & F[y] != F[m[x][y]] for x in range(n) for y in range(n)) or \
            any(F[m[x][x]] != F[x] for x in range(n)):
        fails.append("filter-intersection-meet")
    return fails


def verify_pair_embedding(rep: RepresentationResult) -> dict:
    """The map x -> (F_x, I_x) lands in the protoconcepts of the standard
    context and is a homomorphism for the pair operations there, preserving
    and reflecting the quasi-order."""
    alg = rep.algebra
    ctx = rep.std.context
    n = alg.n
    m, j, g, o = alg._rows_m, alg._rows_j, alg._lneg, alg._lopp
    F, I = rep.f_masks, rep.i_masks

    def is_proto(a, b):
        return derive(ctx, "intent", derive(ctx, "extent", a)) == derive(ctx, "intent", b)

    proto = all(is_proto(F[x], I[x]) for x in range(n))

    def pmeet(x, y):
        a = F[x] & F[y]
        return (a, derive(ctx, "extent", a))

    def pjoin(x, y):
        b = I[x] & I[y]
        return (derive(ctx, "intent", b), b)

    def pneg(x):
        a = ctx.full_objects & ~F[x]
        return (a, derive(ctx, "extent", a))

    def popp(x):
        b = ctx.full_attributes & ~I[x]
        return (derive(ctx, "intent", b), b)

    hom = (
        all(pmeet(x, y) == (F[m[x][y]], I[m[x][y]]) and
            pjoin(x, y) == (F[j[x][y]], I[j[x][y]])
            for x in range(n) for y in range(n))
        and all(pneg(x) == (F[g[x]], I[g[x]]) and popp(x) == (F[o[x]], I[o[x]])
                for x in range(n))
        and (F[alg.top], I[alg.top]) == (ctx.full_objects, 0)
        and (F[alg.bot], I[alg.bot]) == (0, ctx.full_attributes)
    )
    rel = quasi_order(alg).rel
    order = all(
        bool(rel[x, y]) == (F[x] & ~F[y] == 0 and I[y] & ~I[x] == 0)
        for x in range(n) for y in range(n))
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
    cl = classify(rep.algebra)
    if cl.is_fully_contextual:
        status = "protoconcept"
    elif cl.is_pure:
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
    """Finite-scale continuity through the complement relation: the four
    modal images of every clopen set under nabla are clopen."""
    ctx = complement_context(rep.std.context)
    cf = clopen_family(rep, "filter")
    ci = clopen_family(rep, "ideal")
    for b in ci:
        if modal(ctx, "diamond_p", b) not in cf or modal(ctx, "box_p", b) not in cf:
            return False
    for a in cf:
        if modal(ctx, "diamond_o", a) not in ci or modal(ctx, "box_o", a) not in ci:
            return False
    return True
