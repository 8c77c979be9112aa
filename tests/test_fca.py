"""Formal contexts: derivation, modal operators, pair enumeration, algebras."""

import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbakit.algebra import FiniteAlgebra, classify, passes, quasi_order
from dbakit.errors import AlgebraError, BudgetError
from dbakit.fca import (
    MAX_COMPLETION_ENTRIES, FormalContext, all_contexts, complement_context, derive,
    enumerate_pairs, modal, oo_protoconcept_algebra, pair_flags, protoconcept_algebra,
    _completions, _generated_pairs,
)


def ctx_of(rows):
    g = len(rows)
    m = len(rows[0]) if rows else 0
    return FormalContext([f"g{i}" for i in range(g)], [f"m{i}" for i in range(m)], rows)


def bits(mask, n):
    return {i for i in range(n) if mask >> i & 1}


def set_prime_objects(ctx, objs):
    """Oracle for derivation, written against the plain set definition."""
    return {m for m in range(ctx.n_attributes)
            if all(ctx.incidence[g, m] for g in objs)}


def set_prime_attributes(ctx, attrs):
    return {g for g in range(ctx.n_objects)
            if all(ctx.incidence[g, m] for m in attrs)}


_random_ctx = st.integers(1, 3).flatmap(
    lambda g: st.integers(1, 3).flatmap(
        lambda m: st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                           min_size=g, max_size=g)))


def test_derive_empty_set_gives_full_universe():
    ctx = ctx_of([[True, False], [False, True]])
    assert derive(ctx, "extent", 0) == ctx.full_attributes
    assert derive(ctx, "intent", 0) == ctx.full_objects


def test_derive_on_empty_incidence():
    ctx = ctx_of([[False, False], [False, False]])
    assert derive(ctx, "extent", 0b01) == 0  # {g0}' is empty


@settings(max_examples=60, deadline=None)
@given(_random_ctx)
def test_derive_matches_set_oracle(rows):
    ctx = ctx_of(rows)
    for a in range(ctx.full_objects + 1):
        assert bits(derive(ctx, "extent", a), ctx.n_attributes) == \
            set_prime_objects(ctx, bits(a, ctx.n_objects))
    for b in range(ctx.full_attributes + 1):
        assert bits(derive(ctx, "intent", b), ctx.n_objects) == \
            set_prime_attributes(ctx, bits(b, ctx.n_attributes))


def test_galois_connection_all_subsets_3x3():
    ctx = ctx_of([[True, False, True], [False, True, True], [True, True, False]])
    for a in range(ctx.full_objects + 1):
        ap = derive(ctx, "extent", a)
        for b in range(ctx.full_attributes + 1):
            lhs = a & ~derive(ctx, "intent", b) == 0  # A <= B'
            rhs = b & ~ap == 0                        # B <= A'
            assert lhs == rhs
        assert a & ~derive(ctx, "intent", ap) == 0        # A <= A''
        assert derive(ctx, "extent", derive(ctx, "intent", ap)) == ap  # A' = A'''


@settings(max_examples=40, deadline=None)
@given(_random_ctx)
def test_double_prime_is_a_closure_operator(rows):
    ctx = ctx_of(rows)

    def close(a):
        return derive(ctx, "intent", derive(ctx, "extent", a))

    for a in range(ctx.full_objects + 1):
        ca = close(a)
        assert a & ~ca == 0          # extensive
        assert close(ca) == ca       # idempotent
        for b in range(ctx.full_objects + 1):
            if a & ~b == 0:
                assert ca & ~close(b) == 0  # monotone


def test_modal_trivial_cases():
    ctx = ctx_of([[True, True], [True, True]])
    assert modal(ctx, "diamond_p", 0) == 0
    assert modal(ctx, "box_p", ctx.full_attributes) == ctx.full_objects


def test_modal_unknown_operator():
    with pytest.raises(AlgebraError):
        modal(ctx_of([[True]]), "sideways", 0)


@pytest.mark.parametrize("objects, attributes, incidence, message", [
    (["g"], ["m"], [[True, False]], r"shape \(1, 1\), got \(1, 2\)"),
    (["g", "h"], ["m"], [[True], [False, True]], r"shape \(2, 1\), got ragged rows"),
    (["g"], [], [], r"shape \(1, 0\), got \(0,\)"),
    (["g"], ["m"], [["x"]], "booleans or 0/1, got 'x'"),
    (["g"], ["m"], [[2]], "booleans or 0/1, got 2"),
    (["g"], ["m", "n"], [[True, 1.0]], "booleans or 0/1, got 1.0"),
    (["g"], ["m", "n"], [[True, "x"]], "booleans or 0/1, got 'x'"),
])
def test_an_incidence_of_another_shape_or_with_other_entries_is_rejected(
        objects, attributes, incidence, message):
    # the rule of the algebra tables: no reshaping, and no entry read as True
    with pytest.raises(AlgebraError, match=message):
        FormalContext(objects, attributes, incidence)


def test_an_incidence_of_booleans_or_bits_is_accepted():
    want = [[True, False], [False, True]]
    for rows in (want, [[1, 0], [0, 1]], np.eye(2, dtype=np.int8), [[True, 0], [np.False_, 1]]):
        assert FormalContext(["g", "h"], ["m", "n"], rows).incidence.tolist() == want
    assert FormalContext([], ["m"], []).incidence.shape == (0, 1)  # no objects, no rows


@settings(max_examples=40, deadline=None)
@given(_random_ctx)
def test_translation_of_modal_operators(rows):
    # necessity in a context is complement-derivation in the complement context
    ctx = ctx_of(rows)
    comp = complement_context(ctx)
    fo, fa = ctx.full_objects, ctx.full_attributes
    for a in range(fo + 1):
        assert modal(ctx, "box_o", a) == derive(comp, "extent", fo & ~a)
        assert modal(ctx, "diamond_o", a) == fa & ~derive(comp, "extent", a)
    for b in range(fa + 1):
        assert modal(ctx, "box_p", b) == derive(comp, "intent", fa & ~b)
        assert modal(ctx, "diamond_p", b) == fo & ~derive(comp, "intent", b)


def test_complement_context_involution():
    ctx = ctx_of([[True, False], [False, False]])
    assert np.array_equal(complement_context(complement_context(ctx)).incidence,
                          ctx.incidence)
    empty = ctx_of([[False, False]])
    assert complement_context(empty).incidence.all()


# --- pair enumeration ---------------------------------------------------------

def test_top_and_bottom_pairs_are_protoconcepts():
    for rows in ([[True]], [[False]], [[True, False], [False, True]]):
        ctx = ctx_of(rows)
        protos = {(p.extent, p.intent) for p in enumerate_pairs(ctx, "protoconcept")}
        assert (ctx.full_objects, 0) in protos
        assert (0, ctx.full_attributes) in protos


def test_inclusion_chain_concepts_semis_protos():
    for g, m in ((1, 1), (2, 2), (2, 3)):
        for ctx in all_contexts(g, m):
            concepts = {(p.extent, p.intent) for p in enumerate_pairs(ctx, "concept")}
            semis = {(p.extent, p.intent) for p in enumerate_pairs(ctx, "semiconcept")}
            protos = {(p.extent, p.intent) for p in enumerate_pairs(ctx, "protoconcept")}
            assert concepts <= semis <= protos


def test_empty_2x2_protoconcept_count_against_pair_oracle():
    ctx = ctx_of([[False, False], [False, False]])
    # oracle: test the defining equation on all 16 pairs with plain sets
    count = 0
    for a_set in (set(s) for s in _powerset(range(2))):
        app = set_prime_attributes(ctx, set_prime_objects(ctx, a_set))
        for b_set in (set(s) for s in _powerset(range(2))):
            if app == set_prime_attributes(ctx, b_set):
                count += 1
    assert count == 6
    assert len(enumerate_pairs(ctx, "protoconcept")) == count


def _powerset(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield [items[i] for i in range(len(items)) if mask >> i & 1]


_KIND_NAMES = ("protoconcept", "semiconcept", "concept", "oo_protoconcept", "oo_semiconcept")


def _brute_force_pairs(ctx):
    """Reference: test every (a, b) against the definitions, grouped by kind,
    in ascending (a, b) order."""
    out = {kind: [] for kind in _KIND_NAMES}
    for a in range(ctx.full_objects + 1):
        for b in range(ctx.full_attributes + 1):
            p = pair_flags(ctx, a, b)
            for kind in _KIND_NAMES:
                if getattr(p, kind):
                    out[kind].append(p)
    return out


def test_generated_pairs_agree_with_brute_force():
    # every context up to 3x3, empty sides included, and seeded contexts
    # with |G|+|M| = 13
    ctxs = [ctx for g in range(4) for m in range(4) for ctx in all_contexts(g, m)]
    rng = random.Random(13)
    for g, m in ((2, 11), (11, 2), (7, 6)):
        ctxs.append(ctx_of([[rng.random() < 0.5 for _ in range(m)] for _ in range(g)]))
    assert ctxs[0].n_objects == ctxs[0].n_attributes == 0
    for ctx in ctxs:
        brute = _brute_force_pairs(ctx)
        for kind in _KIND_NAMES:
            assert enumerate_pairs(ctx, kind) == brute[kind], (ctx, kind)
            assert _generated_pairs(ctx, kind) == [(p.extent, p.intent) for p in brute[kind]]


def test_completion_tables_are_the_derivations():
    # every context up to 3x4 and seeded ones up to |G|+|M| = 13: each entry
    # is one derive or modal call on its mask
    ctxs = [ctx for g in range(4) for m in range(5) for ctx in all_contexts(g, m)]
    rng = random.Random(7)
    for g, m in ((1, 12), (12, 1), (7, 6), (6, 7)):
        ctxs.append(ctx_of([[rng.random() < 0.5 for _ in range(m)] for _ in range(g)]))
    for ctx in ctxs:
        objects, attributes = range(ctx.full_objects + 1), range(ctx.full_attributes + 1)
        assert _completions(ctx, False) == (
            [derive(ctx, "extent", a) for a in objects],
            [derive(ctx, "intent", b) for b in attributes]), ctx
        assert _completions(ctx, True) == (
            [modal(ctx, "box_o", a) for a in objects],
            [modal(ctx, "diamond_p", b) for b in attributes]), ctx


def test_pair_flags_recomputable():
    ctx = ctx_of([[True, True], [True, False]])
    for p in enumerate_pairs(ctx, "protoconcept"):
        again = pair_flags(ctx, p.extent, p.intent)
        assert again == p


# --- the pair algebras -----------------------------------------------------------

def test_1x1_full_protoconcept_algebra_is_dba():
    pa = protoconcept_algebra(ctx_of([[True]]))
    assert pa.algebra.n == 4
    assert passes(pa.algebra, "DBA23")


def test_algebra_order_is_componentwise():
    ctx = ctx_of([[True, False], [True, True]])
    pa = protoconcept_algebra(ctx)
    rel = quasi_order(pa.algebra).rel
    for i, (a, b) in enumerate(pa.pairs):
        for k, (c, d) in enumerate(pa.pairs):
            componentwise = (a & ~c == 0) and (d & ~b == 0)
            assert bool(rel[i, k]) == componentwise


def test_semiconcept_subalgebra_is_pure():
    for rows in ([[True, False], [False, False]], [[True, True], [True, False]]):
        sa = protoconcept_algebra(ctx_of(rows), "semiconcept")
        cl = classify(sa.algebra)
        assert cl.is_dba and cl.is_pure


def test_oo_protoconcept_algebra_1x1_full():
    pa = oo_protoconcept_algebra(ctx_of([[True]]))
    assert passes(pa.algebra, "DBA23")
    assert classify(pa.algebra).is_fully_contextual


def _per_cell_pair_algebra(ctx, kind, brute):
    """Reference: the pair algebra on the brute-force ``kind`` pairs, each
    table cell completed by its own derivation or modal image and looked up."""
    if kind.startswith("oo_"):
        prefix, meet_extents = "r", operator.or_
        extent_pair = lambda a: (a, modal(ctx, "box_o", a))
        intent_pair = lambda b: (modal(ctx, "diamond_p", b), b)
        top, bot = (0, 0), (ctx.full_objects, ctx.full_attributes)
    else:
        prefix, meet_extents = "p", operator.and_
        extent_pair = lambda a: (a, derive(ctx, "extent", a))
        intent_pair = lambda b: (derive(ctx, "intent", b), b)
        top, bot = (ctx.full_objects, 0), (0, ctx.full_attributes)
    members = [(p.extent, p.intent) for p in brute[kind]]
    loc = {ab: i for i, ab in enumerate(members)}.__getitem__
    alg = FiniteAlgebra(
        [f"{prefix}{a:x}_{b:x}" for a, b in members],
        [[loc(extent_pair(meet_extents(a, c))) for c, _ in members] for a, _ in members],
        [[loc(intent_pair(b & d)) for _, d in members] for _, b in members],
        [loc(extent_pair(ctx.full_objects & ~a)) for a, _ in members],
        [loc(intent_pair(ctx.full_attributes & ~b)) for _, b in members],
        loc(top), loc(bot))
    return alg, tuple(members)


def test_pair_algebras_agree_with_the_per_cell_reference():
    # every context up to 3x3, empty sides included, and seeded ones to 7x6
    ctxs = [ctx for g in range(4) for m in range(4) for ctx in all_contexts(g, m)]
    rng = random.Random(18)
    for g, m in ((4, 4), (5, 3), (3, 6), (7, 6)):
        ctxs.append(ctx_of([[rng.random() < 0.5 for _ in range(m)] for _ in range(g)]))
    for ctx in ctxs:
        brute = _brute_force_pairs(ctx)
        for build, kind in ((protoconcept_algebra, "protoconcept"),
                            (protoconcept_algebra, "semiconcept"),
                            (oo_protoconcept_algebra, "oo_protoconcept"),
                            (oo_protoconcept_algebra, "oo_semiconcept")):
            pa = build(ctx, kind)
            ref, pairs = _per_cell_pair_algebra(ctx, kind, brute)
            assert pa.pairs == pairs, (ctx, kind)
            assert pa.algebra.names == ref.names
            assert pa.algebra.signature() == ref.signature(), (ctx, kind)


def test_oo_bottom_always_present():
    for rows in ([[True]], [[False]], [[True, False], [False, True]]):
        ctx = ctx_of(rows)
        pa = oo_protoconcept_algebra(ctx)
        assert (ctx.full_objects, ctx.full_attributes) == pa.pairs[pa.algebra.bot]


def test_translation_protoconcepts_vs_oo_all_2x2():
    for ctx in all_contexts(2, 2):
        comp = complement_context(ctx)
        protos = {(p.extent, p.intent) for p in enumerate_pairs(ctx, "protoconcept")}
        oo = {(p.extent, p.intent) for p in enumerate_pairs(comp, "oo_protoconcept")}
        assert oo == {(ctx.full_objects & ~a, b) for a, b in protos}
        semis = {(p.extent, p.intent) for p in enumerate_pairs(ctx, "semiconcept")}
        oo_s = {(p.extent, p.intent) for p in enumerate_pairs(comp, "oo_semiconcept")}
        assert oo_s == {(ctx.full_objects & ~a, b) for a, b in semis}


def test_all_contexts_shape_and_count():
    cs = list(all_contexts(2, 2))
    assert len(cs) == 16
    assert len({c.signature() for c in cs}) == 16


def test_empty_object_side_degrades_gracefully():
    ctx = FormalContext([], ["m0", "m1"], [])
    assert derive(ctx, "extent", 0) == 0b11   # empty set of objects: all attributes
    assert derive(ctx, "intent", 0b11) == 0   # no objects exist
    pairs = enumerate_pairs(ctx, "protoconcept")
    assert [(p.extent, p.intent) for p in pairs] == [(0, 0), (0, 1), (0, 2), (0, 3)]
    pa = protoconcept_algebra(ctx)
    assert passes(pa.algebra, "DBA23")
    oo = oo_protoconcept_algebra(ctx)
    assert passes(oo.algebra, "DBA23")


def test_empty_attribute_side_degrades_gracefully():
    ctx = FormalContext(["g0"], [], [[]])
    assert derive(ctx, "intent", 0) == 0b1
    pa = protoconcept_algebra(ctx)
    assert passes(pa.algebra, "DBA23")
    assert classify(pa.algebra).is_trivial  # a single concept collapses the bounds


def test_generated_path_on_a_wide_context():
    # |G|+|M| = 13; cross-check every pair generated from closures against
    # the defining equation and the count against a direct sweep
    rows = [[(g * 3 + m) % 4 == 0 for m in range(11)] for g in range(2)]
    ctx = ctx_of(rows)
    pairs = enumerate_pairs(ctx, "protoconcept")
    for p in pairs:
        app = derive(ctx, "intent", derive(ctx, "extent", p.extent))
        assert app == derive(ctx, "intent", p.intent)
    direct = sum(
        1
        for a in range(ctx.full_objects + 1)
        for b in range(ctx.full_attributes + 1)
        if derive(ctx, "intent", derive(ctx, "extent", a)) == derive(ctx, "intent", b)
    )
    assert len(pairs) == direct


def test_completion_tables_past_the_budget_raise():
    # 2**|G| + 2**|M| entries: 16x16 fills the budget, 0x17 is one entry past
    # it, and every pair kind and both pair algebras read the tables
    assert MAX_COMPLETION_ENTRIES == 2 << 16
    E, I = _completions(ctx_of([[g == m for m in range(16)] for g in range(16)]), False)
    assert len(E) + len(I) == MAX_COMPLETION_ENTRIES
    wide = FormalContext([], [f"m{i}" for i in range(17)], [])
    calls = [lambda kind=kind: enumerate_pairs(wide, kind) for kind in _KIND_NAMES]
    for call in calls + [lambda: protoconcept_algebra(wide),
                         lambda: oo_protoconcept_algebra(wide)]:
        with pytest.raises(BudgetError, match="^completion tables of a 0x17 context need "
                           f"131073 entries, more than the limit of {MAX_COMPLETION_ENTRIES}$"):
            call()


def test_chunked_equation_check_on_a_large_pair_algebra():
    # under full incidence every pair is a protoconcept, so a 3x4 context
    # yields 128 elements, past the compiled threshold even for two-variable
    # axioms; the chunked vector path must agree with the definition
    from dbakit.algebra import FiniteAlgebra, eval_term, satisfies_equation
    from dbakit.suites import DBA23
    rows = [[True] * 4 for _ in range(3)]
    pa = protoconcept_algebra(ctx_of(rows))
    alg = pa.algebra
    assert alg.n == 128
    assert passes(alg, "DBA23")
    meet = [list(r) for r in alg._rows_m]
    meet[alg.n - 1][0] = (meet[alg.n - 1][0] + 1) % alg.n
    broken = FiniteAlgebra(alg.names, meet, alg._rows_j, alg._lneg, alg._lopp,
                           alg.top, alg.bot)
    verdict = satisfies_equation(broken, DBA23.equation("2a"))
    assert not verdict.holds
    env = verdict.witness
    eq2a = DBA23.equation("2a")
    assert eval_term(broken, eq2a.lhs, env) != eval_term(broken, eq2a.rhs, env)


def test_translation_laws_on_sampled_4x4_contexts():
    import random
    rng = random.Random(44)
    for _ in range(8):
        rows = [[rng.random() < 0.5 for _ in range(4)] for _ in range(4)]
        ctx = ctx_of(rows)
        comp = complement_context(ctx)
        fo, fa = ctx.full_objects, ctx.full_attributes
        for a in range(fo + 1):
            assert modal(ctx, "box_o", a) == derive(comp, "extent", fo & ~a)
            assert modal(ctx, "diamond_o", a) == fa & ~derive(comp, "extent", a)
        for b in range(fa + 1):
            assert modal(ctx, "box_p", b) == derive(comp, "intent", fa & ~b)
            assert modal(ctx, "diamond_p", b) == fo & ~derive(comp, "intent", b)
        protos = {(p.extent, p.intent) for p in enumerate_pairs(ctx, "protoconcept")}
        oo = {(p.extent, p.intent) for p in enumerate_pairs(comp, "oo_protoconcept")}
        assert oo == {(fo & ~a, b) for a, b in protos}
        semis = {(p.extent, p.intent) for p in enumerate_pairs(ctx, "semiconcept")}
        oo_s = {(p.extent, p.intent) for p in enumerate_pairs(comp, "oo_semiconcept")}
        assert oo_s == {(fo & ~a, b) for a, b in semis}
