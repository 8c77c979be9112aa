"""Primary filters/ideals, standard contexts, and the pair representation."""

import collections
import dataclasses
import importlib
import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest

from dbakit.algebra import (
    FiniteAlgebra, classify, join_idempotents, meet_idempotents, passes, quasi_order,
)
from dbakit.constructions import (
    BooleanView, RetractionPair, _pairs_along, build_from_boolean_pair, canonical_pairs,
    check_theorem_conditions, generalized_glued_sum, glued_sum, powerset_boolean,
)
from dbakit.errors import AlgebraError, BudgetError
from dbakit.fca import (
    FormalContext, _completions, _generated_pairs, all_contexts, complement_context, derive, modal,
    protoconcept_algebra,
)
from dbakit.fixtures import (
    boolean2, builtin_fixtures, cex_5ab, chain3, noncontextual4, singleton,
)
from dbakit.representation import (
    ClopenCharacterization, RepresentationResult,
    _is_homomorphism, _is_order_embedding,
    clopen_family, closed_set_family, enumerate_primary,
    is_filter, is_ideal, is_primary, representation, standard_context,
    verify_clopen_characterization, verify_clopen_sets,
    verify_derivation_identities, verify_pair_embedding,
    verify_translated_continuity,
)
from dbakit.search import SearchSpec, enumerate_algebras
from oracles import (
    _make_filterset, _mask_of, _moved, enumerate_primary_naive, representation_by_moved_pairs,
)


def dba_fixtures():
    return [(name, alg) for name, alg in builtin_fixtures() if passes(alg, "DBA23")]


# --- filters and ideals --------------------------------------------------------

def test_chain3_filter_examples():
    alg = chain3()
    bot, mid, top = alg.index("bot"), alg.index("mid"), alg.index("top")
    assert is_filter(alg, {mid, top})
    assert is_primary(alg, {mid, top}, "filter")
    assert not is_filter(alg, {top})  # top & top = mid is missing
    assert is_ideal(alg, {bot, mid})
    assert is_primary(alg, {bot, mid}, "ideal")


def test_whole_universe_is_not_proper():
    alg = chain3()
    assert is_filter(alg, set(range(alg.n)))
    assert not is_primary(alg, set(range(alg.n)), "filter")


@pytest.mark.parametrize("members", [[], [0, 1, 2], [1, 2]])
def test_a_bad_kind_is_an_error_whatever_the_members(members):
    with pytest.raises(AlgebraError, match="'bogus'"):
        is_primary(chain3(), members, "bogus")


@pytest.mark.parametrize("member", [3, 6, -1, "mid", 1.0, True])
def test_members_must_be_element_indices(member):
    alg = chain3()
    checks = [lambda s: is_filter(alg, s), lambda s: is_ideal(alg, s),
              lambda s: is_primary(alg, s, "filter"), lambda s: is_primary(alg, s, "ideal")]
    for check in checks:
        with pytest.raises(AlgebraError, match=f"member.*{member!r}"):
            check([2, member])


def test_enumerate_primary_chain3():
    alg = chain3()
    filters = enumerate_primary(alg, "filter")
    ideals = enumerate_primary(alg, "ideal")
    assert [sorted(f.members) for f in filters] == [[1, 2]]
    assert [sorted(i.members) for i in ideals] == [[0, 1]]
    assert all(f.primary and f.proper for f in filters + ideals)


def test_singleton_has_no_primary_filters():
    assert enumerate_primary(singleton(), "filter") == []
    assert enumerate_primary(singleton(), "ideal") == []


def test_enumeration_requires_dba():
    with pytest.raises(AlgebraError):
        enumerate_primary(cex_5ab(), "filter")


def test_enumeration_budgets():
    # only the subset sweep has a size budget; the closed form takes any dBa
    big = glued_sum(powerset_boolean(4, max_atoms=5), powerset_boolean(3, max_atoms=5))
    assert big.n == 23
    for kind in ("filter", "ideal"):
        found = enumerate_primary(big, kind)
        assert [f.mask for f in found] == [f.mask for f in enumerate_primary_dfs(big, kind)]
        assert all(f.primary and f.proper for f in found)
    with pytest.raises(BudgetError):
        enumerate_primary_naive(chain3(), "filter", max_size=2)


def enumerate_primary_dfs(alg: FiniteAlgebra, kind: str) -> list:
    """Reference: the membership DFS that ``enumerate_primary`` ran before
    its closed form.

    Runs a membership DFS over the elements in index order; a subset failing
    meet-closure, order-closure, or primality on its decided prefix prunes
    the whole undecided subtree.  Requires a dBa.
    """
    if kind not in ("filter", "ideal"):
        raise AlgebraError(f"kind must be 'filter' or 'ideal', got {kind!r}")
    if not passes(alg, "DBA23"):
        raise AlgebraError("primary filter/ideal enumeration requires a dBa")
    rel = quasi_order(alg).rel
    n = alg.n
    if kind == "filter":
        op = alg._tuples()[0]
        comp = alg._tuples()[2]
        forced = [tuple(z for z in range(n) if rel[x, z]) for x in range(n)]
    else:
        op = alg._tuples()[1]
        comp = alg._tuples()[3]
        forced = [tuple(z for z in range(n) if rel[z, x]) for x in range(n)]

    found = []
    status = [None] * n  # True in, False out

    def dfs(i):
        if i == n:
            members = [x for x in range(n) if status[x]]
            if is_primary(alg, members, kind):
                found.append(_mask_of(members))
            return
        # out branch
        ok = True
        if comp[i] == i:
            ok = False
        if ok and comp[i] < i and status[comp[i]] is False:
            ok = False
        if ok:
            for x in range(i):
                if status[x] is False and comp[x] == i:
                    ok = False
                    break
                if status[x] and i in forced[x]:
                    ok = False
                    break
            else:
                for x in range(i):
                    if not status[x]:
                        continue
                    for y in range(i):
                        if status[y] and op[x][y] == i:
                            ok = False
                            break
                    if not ok:
                        break
        if ok:
            status[i] = False
            dfs(i + 1)
            status[i] = None
        # in branch
        ok = True
        for z in forced[i]:
            if z < i and status[z] is False:
                ok = False
                break
        if ok:
            for x in range(i):
                if not status[x]:
                    continue
                for prod in (op[x][i], op[i][x]):
                    if prod < i and status[prod] is False:
                        ok = False
                        break
                if not ok:
                    break
            if ok and op[i][i] < i and status[op[i][i]] is False:
                ok = False
        if ok:
            status[i] = True
            dfs(i + 1)
            status[i] = None

    dfs(0)
    return [_make_filterset(alg, kind, mask) for mask in sorted(found)]


def _permuted(alg: FiniteAlgebra, perm) -> FiniteAlgebra:
    """alg with element x moved to index perm[x] (names move along)."""
    inv = sorted(range(alg.n), key=perm.__getitem__)
    m, j = alg._tuples()[0], alg._tuples()[1]
    return FiniteAlgebra(
        [alg.names[x] for x in inv],
        [[perm[m[x][y]] for y in inv] for x in inv],
        [[perm[j[x][y]] for y in inv] for x in inv],
        [perm[alg._tuples()[2][x]] for x in inv], [perm[alg._tuples()[3][x]] for x in inv],
        perm[alg.top], perm[alg.bot])


def differential_pool() -> list:
    """Distinct dBas of at most 20 elements: the dBa fixtures, the proto- and
    semiconcept algebras of every context up to 3x3, the 45 size-3 DBA23
    models, glued sums of powersets (also under seeded relabellings), and
    the generalized glued sums of powersets on at most two atoms over every
    injective overlap of at most two pairs that are dBas."""
    pool = {}

    def add(alg):
        if alg.n <= 20:  # the DFS reference is exponential in the worst case
            pool.setdefault(alg.signature(), alg)

    for _, alg in dba_fixtures():
        add(alg)
    for g in (1, 2, 3):
        for m in (1, 2, 3):
            for ctx in all_contexts(g, m):
                add(protoconcept_algebra(ctx).algebra)
                add(protoconcept_algebra(ctx, "semiconcept").algebra)
    models = enumerate_algebras(SearchSpec(size=3, require="DBA23")).found
    assert len(models) == 45
    for alg in models:
        add(alg)
    rng = random.Random(6)
    views = [powerset_boolean(k) for k in range(4)]
    for p in views:
        for q in views:
            alg = glued_sum(p, q)
            add(alg)
            add(_permuted(alg, rng.sample(range(alg.n), alg.n)))
    for p in views[:3]:
        for q in views[:3]:
            for k in (1, 2):
                for ks in itertools.combinations(range(p.n), k):
                    for vs in itertools.permutations(range(q.n), k):
                        alg = generalized_glued_sum(p, q, dict(zip(ks, vs))).algebra
                        if passes(alg, "DBA23"):
                            add(alg)
    return list(pool.values())


def test_dfs_matches_naive_sweep():
    # the closed form against the DFS reference everywhere, and both against
    # the subset sweep within its reach: same masks in the same order
    algebras = differential_pool()
    assert len(algebras) > 500
    for alg in algebras:
        for kind in ("filter", "ideal"):
            fast = [f.mask for f in enumerate_primary(alg, kind)]
            dfs = [f.mask for f in enumerate_primary_dfs(alg, kind)]
            assert fast == dfs
            if alg.n <= 12:
                slow = [f.mask for f in enumerate_primary_naive(alg, kind)]
                assert fast == slow


def test_dfs_matches_closed_form_past_20_elements(context_reps):
    # the 30 corpus algebras of 24 and 32 elements; the 64-element one is
    # left to the representation verdicts, as the DFS takes over 100 s on it
    algebras = [rep.algebra for rep in context_reps if 20 < rep.algebra.n < 64]
    assert len(algebras) == 30
    for alg in algebras:
        for kind in ("filter", "ideal"):
            fast = [f.mask for f in enumerate_primary(alg, kind)]
            assert fast == [f.mask for f in enumerate_primary_dfs(alg, kind)]


def test_primary_counts_on_powerset_glued_sum():
    # 4-element Boolean glued under a 2-element one: the meet part has 2 atoms
    alg = glued_sum(powerset_boolean(2), powerset_boolean(1))
    filters = enumerate_primary(alg, "filter")
    ideals = enumerate_primary(alg, "ideal")
    assert len(filters) == 2  # one per atom of the meet part
    assert len(ideals) == 1   # the join part is a 2-element Boolean algebra


# --- standard context -----------------------------------------------------------

def test_chain3_standard_context_delta():
    sc = standard_context(chain3(), "delta")
    assert sc.context.n_objects == 1 and sc.context.n_attributes == 1
    assert sc.incidence.tolist() == [[True]]  # {mid,top} meets {bot,mid}


def test_nabla_is_complement():
    for name, alg in dba_fixtures():
        delta = standard_context(alg, "delta")
        nabla = standard_context(alg, "nabla")
        assert (delta.incidence == ~nabla.incidence).all(), name


def test_pairs_are_protoconcepts_of_standard_context():
    for name, alg in dba_fixtures():
        rep = representation(alg)
        assert verify_pair_embedding(rep)["protoconcepts"], name


# --- the representation ------------------------------------------------------------

def test_representation_verdicts_on_fixtures():
    for name, alg in dba_fixtures():
        rep = representation(alg)
        assert rep.homomorphism, name
        assert rep.order_preserving_reflecting, name
        assert rep.surjective, name
        assert rep.conditions_ok, name
        assert rep.image_is_dba, name
        assert rep.parts_boolean, name
        assert verify_derivation_identities(rep) == [], name
        emb = verify_pair_embedding(rep)
        assert emb["homomorphism"] and emb["order"], name
        if classify(alg).is_contextual:
            assert rep.injective and rep.isomorphism, name


def test_a_homomorphism_sends_the_constants_to_the_constants():
    # the identity commutes with all four operations of its own algebra, so
    # only the constants clause can reject it: when top or bottom moves
    for name, alg in builtin_fixtures():
        tables = (alg.meet, alg.join, alg.neg, alg.opp)
        for top, bot in itertools.product(range(alg.n), repeat=2):
            assert _is_homomorphism(alg, np.arange(alg.n), *tables, top, bot) == (
                (top, bot) == (alg.top, alg.bot)), (name, top, bot)


def test_noncontextual_embedding_is_not_injective():
    rep = representation(noncontextual4())
    assert rep.quasi_embedding
    assert not rep.injective
    # the cloned middle elements share every primary filter and ideal
    mid, mid2 = 1, 3
    assert rep.h[mid] == rep.h[mid2]


def test_search_supplied_noncontextual_instance():
    # the size-2 search yields degenerate all-constant dBas: no primary
    # filters or ideals at all, a single pair, and a non-injective map that
    # still preserves and reflects the (total) quasi-order
    from dbakit.search import SearchSpec, enumerate_algebras
    found = [alg for alg in enumerate_algebras(
                 SearchSpec(size=2, require="DBA23")).found
             if not classify(alg).is_contextual]
    assert found
    for alg in found:
        rep = representation(alg)
        assert rep.std.filters == () and rep.std.ideals == ()
        assert len(rep.pairs) == 1
        assert rep.quasi_embedding and not rep.injective


def test_representation_of_contextual_protoconcept_algebra_is_isomorphism():
    ctx = FormalContext(["g1", "g2"], ["m1", "m2"], [[True, False], [True, True]])
    rep = representation(protoconcept_algebra(ctx).algebra)
    assert rep.isomorphism


# --- closed and clopen families ------------------------------------------------------

def test_chain3_clopen_filter_side():
    alg = chain3()
    rep = representation(alg)
    full = rep.std.context.full_objects
    assert rep.f_masks[alg.bot] == 0          # no proper filter holds bottom
    assert rep.f_masks[alg.top] == full       # every primary filter holds top
    assert clopen_family(rep, "filter") == frozenset({0, full})
    assert closed_set_family(rep, "filter") >= {0, full}


def test_clopen_families_equal_element_masks():
    for name, alg in dba_fixtures():
        rep = representation(alg)
        assert verify_clopen_sets(rep), name


def test_clopen_family_budget():
    rep = representation(chain3())
    with pytest.raises(BudgetError):
        closed_set_family(rep, "filter", max_family=0)


def closed_set_family_fixpoint(rep, side: str, max_family: int = 1 << 16) -> frozenset:
    """Reference: the pairwise union/intersection fixpoint that
    ``closed_set_family`` ran before its closed form."""
    if side == "filter":
        base = set(rep.f_masks) | {0, rep.std.context.full_objects}
    elif side == "ideal":
        base = set(rep.i_masks) | {0, rep.std.context.full_attributes}
    else:
        raise AlgebraError(f"side must be 'filter' or 'ideal', got {side!r}")
    family = set(base)
    if len(family) > max_family:
        raise BudgetError("closed-set family exceeded its budget")
    frontier = list(base)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(family):
                for c in (a | b, a & b):
                    if c not in family:
                        family.add(c)
                        nxt.append(c)
                        if len(family) > max_family:
                            raise BudgetError("closed-set family exceeded its budget")
        frontier = nxt
    return frozenset(family)


def _closed_or_over_budget(closed, rep, side, max_family):
    try:
        return closed(rep, side, max_family)
    except BudgetError:
        return BudgetError


@pytest.fixture(scope="module")
def context_reps():
    """The representations of the distinct proto- and semiconcept algebras of
    every context up to 3x3; all are dBas."""
    pool = {}
    for g in (1, 2, 3):
        for m in (1, 2, 3):
            for ctx in all_contexts(g, m):
                for kind in ("protoconcept", "semiconcept"):
                    alg = protoconcept_algebra(ctx, kind).algebra
                    pool.setdefault(alg.signature(), alg)
    assert len(pool) == 513
    assert sum(alg.n > 20 for alg in pool.values()) == 31
    return [representation(alg) for alg in pool.values()]


@pytest.fixture(scope="module")
def seeded_reps():
    """The representations of the protoconcept algebras of seeded 4x4 and 4x5
    contexts, some past 20 elements."""
    rng = random.Random(44)
    reps = []
    for g, m in ((4, 4), (4, 4), (4, 5), (4, 5), (4, 5)):
        ctx = FormalContext([f"g{i}" for i in range(g)], [f"m{i}" for i in range(m)],
                            [[rng.random() < 0.5 for _ in range(m)] for _ in range(g)])
        alg = protoconcept_algebra(ctx).algebra
        reps.append(representation(alg))
    assert max(rep.algebra.n for rep in reps) > 20
    return reps


def test_closed_form_matches_fixpoint_on_context_algebras(context_reps, seeded_reps):
    # the finite space is discrete: on a valid representation both closed
    # families are full powersets, and they are the element masks
    for rep in context_reps + seeded_reps:
        ctx = rep.std.context
        for side, masks, full in (("filter", rep.f_masks, ctx.full_objects),
                                  ("ideal", rep.i_masks, ctx.full_attributes)):
            closed = closed_set_family(rep, side)
            assert closed == closed_set_family_fixpoint(rep, side)
            assert closed == frozenset(masks) == frozenset(range(full + 1))


def test_closed_form_matches_fixpoint_on_random_mask_families():
    # any mask family, not only a representation's: singletons missing,
    # width 0, masks past the space's width, and every budget around the size
    rng = random.Random(12)
    missing = 0
    for trial in range(3000):
        width = trial % 8
        full = (1 << width) - 1
        masks = [rng.getrandbits(width + (trial % 7 == 0)) for _ in range(rng.randrange(6))]
        if trial % 3 == 0 and width:
            gap = rng.randrange(width)
            masks += [1 << p for p in range(width) if p != gap]
            masks = [s for s in masks if s != 1 << gap]
        ctx = SimpleNamespace(full_objects=full, full_attributes=full)
        rep = SimpleNamespace(f_masks=tuple(masks), i_masks=tuple(masks),
                              std=SimpleNamespace(context=ctx))
        side = ("filter", "ideal")[trial % 2]
        want = closed_set_family_fixpoint(rep, side)
        assert closed_set_family(rep, side) == want
        missing += len(want) < 1 << width
        budget = len(want) + rng.choice((-2, -1, 0, 1))
        assert (_closed_or_over_budget(closed_set_family, rep, side, budget)
                == _closed_or_over_budget(closed_set_family_fixpoint, rep, side, budget))
    assert missing > 1000


def clopen_characterization_loop(rep) -> ClopenCharacterization:
    """Reference: the clopen filter x clopen ideal double loop with its own
    membership tests, which ``verify_clopen_characterization`` ran before it
    read the pairs from fca."""
    cl = classify(rep.algebra)
    if cl.is_fully_contextual:
        status = "protoconcept"
    elif cl.is_pure:
        status = "semiconcept"
    else:
        return ClopenCharacterization("not-applicable")
    ctx = rep.std.context
    cf = sorted(clopen_family(rep, "filter"))
    ci = sorted(clopen_family(rep, "ideal"))
    want = set(zip(rep.f_masks, rep.i_masks))
    found = set()
    for a in cf:
        ap = derive(ctx, "extent", a)
        app = derive(ctx, "intent", ap)
        for b in ci:
            if status == "protoconcept":
                if app == derive(ctx, "intent", b):
                    found.add((a, b))
            else:
                if ap == b or derive(ctx, "intent", b) == a:
                    found.add((a, b))
    set_equal = found == want
    emb = verify_pair_embedding(rep)
    iso = emb["homomorphism"] and emb["order"] and rep.injective and set_equal
    return ClopenCharacterization(status, set_equal, iso)


def test_characterization_matches_the_double_loop(context_reps, seeded_reps):
    reps = context_reps + seeded_reps + [representation(alg) for _, alg in dba_fixtures()]
    statuses = set()
    for rep in reps:
        res = verify_clopen_characterization(rep)
        assert res == clopen_characterization_loop(rep)
        statuses.add((res.status, res.ok))
    assert statuses == {("protoconcept", True), ("semiconcept", True), ("not-applicable", False)}


# --- every verifier fails on some broken input ----------------------------------------

VERDICTS = {
    "clopen_sets": verify_clopen_sets,
    "translated_continuity": verify_translated_continuity,
    "clopen_characterization": lambda rep: verify_clopen_characterization(rep).ok,
    "derivation_identities": lambda rep: not verify_derivation_identities(rep),
    **{f"pair_embedding.{key}": lambda rep, key=key: verify_pair_embedding(rep)[key]
       for key in ("protoconcepts", "homomorphism", "order")},
}


def _one_mask_replaced(rep):
    """rep with one F_x (or I_x) replaced by another subset, the mask with one
    point toggled: every element, side and point."""
    ctx = rep.std.context
    for field, full in (("f_masks", ctx.full_objects), ("i_masks", ctx.full_attributes)):
        masks = getattr(rep, field)
        for x in range(len(masks)):
            for p in range(full.bit_length()):
                broken = masks[:x] + (masks[x] ^ 1 << p,) + masks[x + 1:]
                yield dataclasses.replace(rep, **{field: broken})


def test_every_verifier_fails_on_a_replaced_mask():
    # on a valid finite representation the space is discrete, so the clopen
    # families and translated continuity hold by construction; a broken
    # input shows that they still check something
    algebras = [alg for _, alg in dba_fixtures()]
    algebras += [protoconcept_algebra(ctx).algebra for ctx in all_contexts(2, 2)][::3]
    flipped = dict.fromkeys(VERDICTS, 0)
    broken = 0
    for alg in algebras:
        rep = representation(alg)
        holds = {name: verdict(rep) for name, verdict in VERDICTS.items()}
        assert all(holds.values()) or holds == {
            **dict.fromkeys(VERDICTS, True), "clopen_characterization": False}
        for bad in _one_mask_replaced(rep):
            broken += 1
            assert verify_clopen_characterization(bad) == clopen_characterization_loop(bad)
            for name, verdict in VERDICTS.items():
                flipped[name] += holds[name] and not verdict(bad)
    assert broken == 202
    assert all(flipped.values()), flipped


# --- the array verdicts against the loops they replaced ---------------------------------

def is_homomorphism_loop(alg, f, meet, join, neg, opp, top, bot):
    """Reference: ``_is_homomorphism`` as it was, with the operations as
    callables on the values of f."""
    m, j, g, o = alg._tuples()
    rng = range(alg.n)
    return (
        all(f[m[x][y]] == meet(f[x], f[y]) and f[j[x][y]] == join(f[x], f[y])
            for x in rng for y in rng)
        and all(f[g[x]] == neg(f[x]) and f[o[x]] == opp(f[x]) for x in rng)
        and (f[alg.top], f[alg.bot]) == (top, bot)
    )


def is_order_embedding_loop(alg, leq):
    rel = quasi_order(alg).rel
    rng = range(alg.n)
    return all(bool(rel[x, y]) == leq(x, y) for x in rng for y in rng)


def pair_embedding_loop(rep):
    """Reference: ``verify_pair_embedding`` as it was, one element or pair
    of elements at a time."""
    ctx = rep.std.context
    E, D = _completions(ctx, False)
    full_f, full_i = ctx.full_objects, ctx.full_attributes
    F, I = rep.f_masks, rep.i_masks
    pairs = list(zip(F, I))
    proto = all(D[E[a]] == D[b] for a, b in pairs)
    at_extent = lambda a: (a, E[a])
    at_intent = lambda b: (D[b], b)
    hom = is_homomorphism_loop(
        rep.algebra, pairs,
        lambda p, q: at_extent(p[0] & q[0]), lambda p, q: at_intent(p[1] & q[1]),
        lambda p: at_extent(full_f & ~p[0]), lambda p: at_intent(full_i & ~p[1]),
        (full_f, 0), (0, full_i))
    order = is_order_embedding_loop(
        rep.algebra, lambda x, y: F[x] & ~F[y] == 0 and I[y] & ~I[x] == 0)
    return {"protoconcepts": proto, "homomorphism": hom, "order": order}


def image_verdicts(alg, h, image, top=None):
    """The image map's verdicts of ``representation``, for the map h onto
    the elements of image (with ``top`` as its top, if given), in the array
    form and in the loop form."""
    top = image.top if top is None else top
    f = np.array(h)
    fx, fy = f[:, None], f[None, :]
    arrays = (_is_homomorphism(alg, f, image.meet[fx, fy], image.join[fx, fy], image.neg[f],
                               image.opp[f], top, image.bot),
              _is_order_embedding(alg, quasi_order(image).rel[fx, fy]))
    m, j = image._tuples()[0], image._tuples()[1]
    rel = quasi_order(image).rel
    loops = (is_homomorphism_loop(alg, h, lambda u, v: m[u][v], lambda u, v: j[u][v],
                                  image._tuples()[2].__getitem__, image._tuples()[3].__getitem__,
                                  top, image.bot),
             is_order_embedding_loop(alg, lambda x, y: bool(rel[h[x], h[y]])))
    return arrays, loops


def test_array_verdicts_match_their_loops():
    # the pair embedding on every one-point toggle of a mask, and the image
    # map of the representation with one element sent elsewhere, with two
    # image elements swapped, or with the top moved
    algebras = [alg for _, alg in dba_fixtures()]
    algebras += [protoconcept_algebra(ctx).algebra for ctx in all_contexts(2, 2)][::3]
    embedding = collections.Counter()
    image = collections.Counter()
    for alg in algebras:
        rep = representation(alg)
        assert image_verdicts(alg, rep.h, rep.image) == ((True, True),) * 2
        for bad in [rep, *_one_mask_replaced(rep)]:
            got = verify_pair_embedding(bad)
            assert got == pair_embedding_loop(bad)
            assert all(type(v) is bool for v in got.values())
            embedding.update((key, v) for key, v in got.items())
        moved = [rep.h[:x] + (k,) + rep.h[x + 1:]
                 for x in range(alg.n) for k in range(rep.image.n)]
        swapped = [tuple({a: b, b: a}.get(k, k) for k in rep.h)
                   for a, b in itertools.combinations(range(rep.image.n), 2)]
        for h, top in [(h, None) for h in moved + swapped] + [
                (rep.h, top) for top in range(rep.image.n)]:
            arrays, loops = image_verdicts(alg, h, rep.image, top)
            assert arrays == loops
            image[arrays] += 1
    assert all(embedding[key, v] for key in ("protoconcepts", "homomorphism", "order")
               for v in (True, False))
    assert set(image) == {(True, True), (False, False), (False, True)}


# --- the verifiers against their derive-based references ------------------------------

def derivation_identities_by_derive(rep) -> list[str]:
    """Reference: ``verify_derivation_identities`` as it read the primes,
    one ``derive`` call per identity instance."""
    alg = rep.algebra
    ctx = rep.std.context
    n = alg.n
    m, j, g, o = alg._tuples()
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


def pair_embedding_by_derive(rep) -> dict:
    """Reference: ``verify_pair_embedding`` with its own protoconcept test,
    pair operations through ``derive`` and inline homomorphism and order
    checks."""
    alg = rep.algebra
    ctx = rep.std.context
    n = alg.n
    m, j, g, o = alg._tuples()
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


def translated_continuity_through_nabla(rep) -> bool:
    """Reference: the four modal images of every clopen set, taken in the
    complement context nabla, are clopen."""
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


REFERENCES = (
    (verify_derivation_identities, derivation_identities_by_derive),
    (verify_pair_embedding, pair_embedding_by_derive),
    (verify_translated_continuity, translated_continuity_through_nabla),
)


def _masks_replaced(rep, rng, trials):
    """rep with one to 2n of its F_x and I_x replaced by random subsets."""
    ctx = rep.std.context
    for _ in range(trials):
        fields = {"f_masks": list(rep.f_masks), "i_masks": list(rep.i_masks)}
        for _ in range(rng.randint(1, 2 * rep.algebra.n)):
            field, full = rng.choice((("f_masks", ctx.full_objects),
                                      ("i_masks", ctx.full_attributes)))
            fields[field][rng.randrange(rep.algebra.n)] = rng.randint(0, full)
        yield dataclasses.replace(rep, **{k: tuple(v) for k, v in fields.items()})


def test_verifiers_match_their_derive_based_references(context_reps, seeded_reps):
    # the corpus algebras, single-point toggles of some of them, and seeded
    # replacements of several masks at once; every verdict is seen both ways
    reps = context_reps + seeded_reps + [representation(alg) for _, alg in dba_fixtures()]
    rng = random.Random(19)
    inputs = list(reps)
    for rep in reps[::6]:
        inputs += _one_mask_replaced(rep)
        inputs += _masks_replaced(rep, rng, 20)
    seen = collections.Counter()
    for rep in inputs:
        for verify, reference in REFERENCES:
            got = verify(rep)
            assert got == reference(rep)
            items = got.items() if isinstance(got, dict) else [(None, repr(got))]
            seen.update((verify.__name__, key, value) for key, value in items)
    assert len(inputs) == 8872
    assert seen["verify_translated_continuity", None, "False"] > 200
    assert seen["verify_derivation_identities", None, "[]"] < len(inputs) / 10
    assert all(seen["verify_pair_embedding", key, value] > 100
               for key in ("protoconcepts", "homomorphism", "order") for value in (True, False))


def test_clopen_characterizations():
    rep = representation(chain3())
    res = verify_clopen_characterization(rep)
    assert res.status == "semiconcept" and res.ok  # pure, not fully contextual

    ctx = FormalContext(["g1", "g2"], ["m1", "m2"], [[True, False], [False, False]])
    rep2 = representation(protoconcept_algebra(ctx).algebra)
    res2 = verify_clopen_characterization(rep2)
    assert res2.status == "protoconcept" and res2.ok

    res3 = verify_clopen_characterization(representation(singleton()))
    assert res3.ok  # vacuously: fully contextual with a single pair

    res4 = verify_clopen_characterization(representation(noncontextual4()))
    assert res4.status == "not-applicable" and not res4.ok


@pytest.mark.parametrize("rows, kind, field, masks, replaced", [
    # a in cf: the 2x1 context (g0: ., g1: X)
    ([[False], [True]], "protoconcept", "f_masks", (0, 1, 2, 3), (0, 3, 0, 3)),
    # b in ci: the 2x2 context (g0: XX, g1: ..)
    ([[True, True], [False, False]], "semiconcept", "i_masks", (3, 1, 2, 3, 0, 0),
     (3, 3, 3, 3, 0, 0)),
])
def test_characterization_needs_both_clopen_tests(rows, kind, field, masks, replaced):
    # several masks replaced at once: the pairs whose sides are clopen are
    # the (F_x, I_x), but unfiltered the enumerated pairs are not
    ctx = FormalContext([f"g{i}" for i in range(len(rows))],
                        [f"m{i}" for i in range(len(rows[0]))], rows)
    rep = representation(protoconcept_algebra(ctx, kind).algebra)
    assert getattr(rep, field) == masks
    bad = dataclasses.replace(rep, **{field: replaced})
    res = verify_clopen_characterization(bad)
    assert res.status == kind and res.set_equal
    assert set(_generated_pairs(bad.std.context, kind)) != set(zip(bad.f_masks, bad.i_masks))


def test_translated_continuity_on_fixtures():
    for name, alg in dba_fixtures():
        assert verify_translated_continuity(representation(alg)), name


def test_representation_past_20_elements():
    # every check holds on a 23-element pure dBa
    big = glued_sum(powerset_boolean(4, max_atoms=5), powerset_boolean(3, max_atoms=5))
    rep = representation(big)
    assert rep.homomorphism and rep.order_preserving_reflecting and rep.surjective
    assert rep.conditions_ok and rep.image_is_dba and rep.parts_boolean
    assert verify_derivation_identities(rep) == []
    assert all(verify_pair_embedding(rep).values())
    assert verify_clopen_sets(rep)
    assert verify_clopen_characterization(rep).ok
    assert verify_translated_continuity(rep)


def test_boolean2_representation_shape():
    rep = representation(boolean2())
    assert len(rep.std.filters) == 1 and len(rep.std.ideals) == 1
    assert len(rep.pairs) == 2
    assert rep.isomorphism


# --- the image rebuilt from the algebra's own map pairs ------------------------------

def representation_by_representatives(alg: FiniteAlgebra):
    """Reference: the route ``representation`` ran before it moved the
    algebra's own map pairs onto the image.  Each Boolean part is rebuilt on
    the distinct pairs of the idempotents, from one representative per pair,
    with its own compatibility check and hand-written retraction maps."""
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

    m, j, g, o = alg._tuples()
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

    im, ij, ig, io = image._tuples()
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


RECORDED = ("homomorphism", "order_preserving_reflecting", "injective", "surjective",
            "conditions_ok", "image_is_dba", "parts_boolean")


def _maps_part_onto(part, e_map, r_map, ref_part, ref_e_map, ref_r_map):
    """The relabelling ref_e^-1 . e is an isomorphism from part onto
    ref_part, and carries r onto the reference's r."""
    phi = [ref_e_map.index(k) for k in e_map]
    assert sorted(phi) == list(range(ref_part.n))
    rng = range(part.n)
    assert all(phi[part._tuples()[0][x][y]] == ref_part._tuples()[0][phi[x]][phi[y]]
               and phi[part._tuples()[1][x][y]] == ref_part._tuples()[1][phi[x]][phi[y]]
               for x in rng for y in rng)
    assert all(phi[part._tuples()[2][x]] == ref_part._tuples()[2][phi[x]] for x in rng)
    assert (phi[part.top], phi[part.bot]) == (ref_part.top, ref_part.bot)
    assert [phi[v] for v in r_map] == list(ref_r_map)
    return phi != list(rng)


def test_representation_matches_the_representative_route(context_reps):
    # same pairs, map, image and verdicts; each part is the input's own
    # Boolean part, the reference's up to the relabelling through e
    models = [alg for size in (1, 2, 3, 4)
              for alg in enumerate_algebras(SearchSpec(size=size, require="DBA23")).found]
    assert len(models) == 406
    reps = context_reps + [representation(alg) for _, alg in dba_fixtures()]
    reps += [representation(alg) for alg in models]
    relabelled = non_injective = 0
    for rep in reps:
        ref = representation_by_representatives(rep.algebra)
        assert (rep.pairs, rep.h) == (ref.pairs, ref.h)
        assert rep.image.signature() == ref.image.signature()
        assert rep.image.names == ref.image.names
        assert [getattr(rep, v) for v in RECORDED] == [getattr(ref, v) for v in RECORDED]
        for part, idempotents in ((rep.meet_part, meet_idempotents),
                                  (rep.join_part, join_idempotents)):
            names = rep.algebra.names
            assert part.names == tuple(names[x] for x in sorted(idempotents(rep.algebra)))
        relabelled += _maps_part_onto(rep.meet_part, rep.e_map, rep.r_map,
                                      ref.meet_part, ref.e_map, ref.r_map)
        relabelled += _maps_part_onto(rep.join_part, rep.ep_map, rep.rp_map,
                                      ref.join_part, ref.ep_map, ref.rp_map)
        non_injective += not rep.injective
    assert relabelled and non_injective
    assert any(rep.algebra.signature() == noncontextual4().signature() for rep in reps)


# --- every recorded verdict fails on a broken construction ---------------------------

IMAGE_VERDICTS = ("homomorphism", "order_preserving_reflecting", "isomorphism",
                  "conditions_ok", "image_is_dba")


def _one_r_changed(alg):
    """The algebra's map pairs on its elements with one r entry changed, off
    the image of e so that r.e = id still holds: every side, element and
    value."""
    pairs = canonical_pairs(alg)
    for side, pair in enumerate(pairs):
        for x in sorted(set(range(alg.n)) - set(pair.e)):
            for v in range(pair.target.n):
                if v != pair.r[x]:
                    r = pair.r[:x] + (v,) + pair.r[x + 1:]
                    broken = list(pairs)
                    broken[side] = RetractionPair(alg.n, pair.target, r, pair.e)
                    yield tuple(broken)


def _one_meet_entry_changed(image):
    """image with one meet table entry replaced by the next element."""
    n = image.n
    for x in range(n):
        for y in range(n):
            meet = [list(row) for row in image._tuples()[0]]
            meet[x][y] = (meet[x][y] + 1) % n
            yield FiniteAlgebra(image.names, meet, image._tuples()[1], image._tuples()[2],
                                image._tuples()[3], image.top, image.bot)


def test_every_recorded_verdict_fails_on_a_broken_construction(monkeypatch):
    # the README's context: its 8 protoconcepts form a fully contextual dBa,
    # so every verdict holds until one entry inside the construction breaks
    ctx = FormalContext(["g1", "g2"], ["m1", "m2"], [[True, False], [True, True]])
    alg = protoconcept_algebra(ctx).algebra
    rep = representation(alg)
    assert all(getattr(rep, v) for v in IMAGE_VERDICTS)
    module = importlib.import_module("dbakit.representation")
    flipped = {route: dict.fromkeys(IMAGE_VERDICTS, 0) for route in ("r", "meet")}
    broken = {route: 0 for route in flipped}

    def record(route):
        bad = representation(alg)
        broken[route] += 1
        for v in IMAGE_VERDICTS:
            flipped[route][v] += not getattr(bad, v)

    for pairs in _one_r_changed(alg):
        monkeypatch.setattr(module, "_pairs_along", lambda _alg, h, size, pairs=pairs: tuple(
            _moved(pair, h, size) for pair in pairs))
        record("r")
    monkeypatch.undo()
    for image in _one_meet_entry_changed(rep.image):
        monkeypatch.setattr(module, "build_from_boolean_pair",
                            lambda *args, image=image, **kwargs: image)
        record("meet")
    assert broken == {"r": 24, "meet": 64}
    assert all(flipped["r"].values()), flipped
    # the conditions read the map pairs only, never the built image
    assert flipped["meet"]["conditions_ok"] == 0
    assert all(flipped["meet"][v] for v in IMAGE_VERDICTS if v != "conditions_ok"), flipped


def test_retraction_must_be_constant_on_a_fibre(monkeypatch):
    # mid and mid2 share one pair; an r that tells them apart has no image
    alg = noncontextual4()
    p_pair, q_pair = canonical_pairs(alg)
    mid2 = alg.index("mid2")
    r = list(p_pair.r)
    r[mid2] = next(v for v in range(p_pair.target.n) if v != r[mid2])
    broken = RetractionPair(alg.n, p_pair.target, r, p_pair.e)
    monkeypatch.setattr(importlib.import_module("dbakit.representation"), "_pairs_along",
                        lambda _alg, h, size: tuple(
                            _moved(pair, h, size) for pair in (broken, q_pair)))
    with pytest.raises(AlgebraError, match="retraction is not well defined"):
        representation(alg)
    # the transport itself: an h that merges two elements of different r
    x, y = next((x, y) for x, y in itertools.combinations(range(alg.n), 2)
                if p_pair.r[x] != p_pair.r[y])
    h = np.arange(alg.n)
    h[y] = x
    h[h > y] -= 1
    with pytest.raises(AlgebraError, match="representation retraction is not well defined"):
        _pairs_along(alg, h, alg.n - 1)


def _ci_context_algebras():
    """The protoconcept algebras of CI's three represented contexts: 26, 85
    and 178 elements."""
    contexts = ("X...\n.X..\n..X.\n...X",
                "X...X\n...XX\nXX...\n.X.X.\nX....\nX.XX.",
                "XX.X.X\n..XX.X\nX.X...\n..XXX.\n.XX.XX\nXX.XXX\nXXXX..")
    algebras = []
    for rows in contexts:
        inc = [[c == "X" for c in row] for row in rows.split()]
        ctx = FormalContext([f"g{i}" for i in range(len(inc))],
                            [f"m{i}" for i in range(len(inc[0]))], inc)
        algebras.append(protoconcept_algebra(ctx).algebra)
    assert [alg.n for alg in algebras] == [26, 85, 178]
    return algebras


def _corpus_algebras():
    """The proto- and semiconcept algebras of at most 20 elements of every
    fifth context up to 3x3, the ones the corpus benchmark represents."""
    every = [ctx for g in (1, 2, 3) for m in (1, 2, 3) for ctx in all_contexts(g, m)][::5]
    algebras = [protoconcept_algebra(ctx, kind).algebra
                for ctx in every for kind in ("protoconcept", "semiconcept")]
    return [alg for alg in algebras if alg.n <= 20]


def test_representation_matches_the_moved_pairs_reference():
    # every field, the standard context and every verifier's verdict agree
    # with the pipeline that builds the map pairs on the elements and moves them
    corpus = _corpus_algebras()
    assert len(corpus) == 266
    algebras = corpus + [alg for _, alg in dba_fixtures()] + _ci_context_algebras()
    for alg in algebras:
        rep, ref = representation(alg), representation_by_moved_pairs(alg)
        for name in (f.name for f in dataclasses.fields(RepresentationResult)):
            if name == "std":
                for side in ("variant", "filters", "ideals"):
                    assert getattr(rep.std, side) == getattr(ref.std, side)
                a, b = rep.std.context, ref.std.context
                assert (a.objects, a.attributes) == (b.objects, b.attributes)
                assert (a.incidence == b.incidence).all()
            elif isinstance(getattr(ref, name), FiniteAlgebra):
                a, b = getattr(rep, name), getattr(ref, name)
                assert (a.signature(), a.names) == (b.signature(), b.names), name
            elif name != "_embedding":
                assert getattr(rep, name) == getattr(ref, name), name
        for verify in (verify_derivation_identities, verify_pair_embedding, verify_clopen_sets,
                       verify_clopen_characterization, verify_translated_continuity):
            assert verify(rep) == verify(ref), verify.__name__


def test_one_representation_builds_two_map_pairs(monkeypatch):
    # the map pairs are built once, on the pairs, and each is validated there
    built, validate = [], RetractionPair.__post_init__

    def counted(pair):
        built.append(pair)
        validate(pair)
    monkeypatch.setattr(RetractionPair, "__post_init__", counted)
    for alg in [alg for _, alg in dba_fixtures()] + _ci_context_algebras()[:1]:
        built.clear()
        rep = representation(alg)
        assert [(pair.r, pair.e) for pair in built] == [(rep.r_map, rep.e_map),
                                                         (rep.rp_map, rep.ep_map)]


def test_the_pair_embedding_is_computed_once_per_result(monkeypatch):
    module = importlib.import_module("dbakit.representation")
    compute, calls = module._pair_embedding, []

    def counted(rep):
        calls.append(rep)
        return compute(rep)
    monkeypatch.setattr(module, "_pair_embedding", counted)
    ctx = FormalContext(["g1", "g2"], ["m1", "m2"], [[True, False], [True, True]])
    for alg in (chain3(), protoconcept_algebra(ctx).algebra):
        rep = representation(alg)
        calls.clear()
        assert verify_clopen_characterization(rep).ok  # reads the embedding
        emb = verify_pair_embedding(rep)
        verify_pair_embedding(rep)["order"] = None  # the caller's copy
        assert verify_pair_embedding(rep) == emb
        assert len(calls) == 1 and calls[0] is rep
        # a copy, as the broken inputs above are made, is checked afresh
        copy = dataclasses.replace(rep)
        assert verify_pair_embedding(copy) == emb
        assert len(calls) == 2 and calls[1] is copy
