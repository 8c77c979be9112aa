"""One table form: numpy tables, and row tuples only for compiled nests.

A FiniteAlgebra keeps its int64 numpy tables.  The tables as tuples of row
tuples (``FiniteAlgebra._tuples``) are read only by the compiled nests of
the checker, so past ``algebra._NEST_MAX_N`` elements check, classify,
parse, render, the representation and its verifiers, the Boolean views and
the glued sums build none.  Each reader moved to numpy is compared here
with the loop form it replaced.
"""

import random
import weakref
from itertools import product
from unittest import mock

import numpy as np
import pytest

from dbakit import algebra
from dbakit.algebra import (
    FiniteAlgebra, check_suite, classify, eval_term, join_idempotents, meet_idempotents,
    project_join, project_meet, quasi_order,
)
from dbakit.constructions import (
    canonical_pairs, generalized_glued_sum, glued_sum, powerset_boolean,
)
from dbakit.fca import FormalContext, all_contexts, oo_protoconcept_algebra, protoconcept_algebra
from dbakit.fileformats import parse_algebra, render_algebra
from dbakit.fixtures import builtin_fixtures, chain3, noncontextual4
from dbakit.representation import (
    representation, verify_clopen_characterization, verify_clopen_sets,
    verify_derivation_identities, verify_pair_embedding, verify_translated_continuity,
)
from dbakit.suites import DBA23, DCORE13
from dbakit.terms import fold, parse_term

# row bitmasks of a 6x5 and a 7x6 context, with 85 and 178 protoconcepts
CONTEXTS = {85: ((17, 24, 3, 10, 1, 13), 5), 178: ((43, 44, 5, 28, 54, 59, 15), 6)}


def context_algebra(n):
    rows, m = CONTEXTS[n]
    inc = [[bool(r >> j & 1) for j in range(m)] for r in rows]
    ctx = FormalContext([f"g{i}" for i in range(len(rows))], [f"m{j}" for j in range(m)], inc)
    alg = protoconcept_algebra(ctx).algebra
    assert alg.n == n
    return alg


def perturbed(alg, seed):
    """alg with a few cells of each table overwritten: not a dBa, as a rule."""
    rng = random.Random(seed)
    tabs = [alg.meet.copy(), alg.join.copy(), alg.neg.copy(), alg.opp.copy()]
    for t in tabs:
        for _ in range(3):
            t[tuple(rng.randrange(alg.n) for _ in t.shape)] = rng.randrange(alg.n)
    return FiniteAlgebra(alg.names, *tabs, rng.randrange(alg.n), rng.randrange(alg.n))


def corpus():
    """Fixtures, the pair algebras of every context up to 2x2, glued sums,
    the 85- and 178-element protoconcept algebras, and perturbed copies."""
    algs = [alg for _, alg in builtin_fixtures()]
    for g, m in product((1, 2), repeat=2):
        for ctx in all_contexts(g, m):
            algs += [protoconcept_algebra(ctx).algebra, oo_protoconcept_algebra(ctx).algebra]
    algs += [glued_sum(powerset_boolean(p), powerset_boolean(q)) for p, q in ((1, 2), (3, 2))]
    algs += [context_algebra(n) for n in CONTEXTS]
    return algs + [perturbed(alg, seed) for seed, alg in enumerate(algs[::7])]


CORPUS = corpus()


def loop_tables(alg):
    """The tables as nested lists, read one cell at a time below."""
    return alg.meet.tolist(), alg.join.tolist(), alg.neg.tolist(), alg.opp.tolist()


# --- no row tuples past the cut ------------------------------------------------

@pytest.mark.parametrize("n", sorted(CONTEXTS))
def test_large_algebras_build_no_row_tuples(n):
    assert n > algebra._NEST_MAX_N
    built = context_algebra(n)
    text = render_algebra(built)
    alg = parse_algebra(text)
    assert check_suite(alg, DBA23).ok and check_suite(alg, DCORE13).ok
    report = classify(alg)
    assert report.is_dba and report.is_dcore and report.is_contextual
    assert render_algebra(alg) == text
    rep = representation(alg)
    assert rep.isomorphism and rep.conditions_ok and rep.image_is_dba
    assert verify_derivation_identities(rep) == []
    assert all(verify_pair_embedding(rep).values())
    assert verify_clopen_sets(rep) and verify_clopen_characterization(rep).ok
    assert verify_translated_continuity(rep)
    p, q = powerset_boolean(6, max_atoms=6), powerset_boolean(6, max_atoms=6)
    glued = glued_sum(p, q)
    assert glued.n == 127
    assert all(a._rows is None for a in (built, alg, rep.image, p.alg, q.alg, glued))


def test_small_algebras_still_run_the_compiled_nests():
    small = [alg for alg in CORPUS if 1 < alg.n <= 16]
    assert max(alg.n for alg in small) == 16
    for alg in small:
        fresh = FiniteAlgebra(alg.names, alg.meet, alg.join, alg.neg, alg.opp, alg.top, alg.bot)
        assert algebra._scalar_arity(alg.n) >= 2 and fresh._rows is None
        with mock.patch.object(algebra, "_FACTS", weakref.WeakValueDictionary()):
            check_suite(fresh, DBA23)  # no report kept from an earlier check
        assert fresh._rows is not None


# --- each numpy reader against its loop form ------------------------------------

def test_diagonal_readers_match_their_loop_forms():
    for alg in CORPUS:
        m, j, _, _ = loop_tables(alg)
        rng = range(alg.n)
        assert [project_meet(alg, x) for x in rng] == [m[x][x] for x in rng]
        assert [project_join(alg, x) for x in rng] == [j[x][x] for x in rng]
        mi = frozenset(x for x in rng if m[x][x] == x)
        ji = frozenset(x for x in rng if j[x][x] == x)
        assert meet_idempotents(alg) == mi and join_idempotents(alg) == ji
        report = classify(alg)
        assert report.is_trivial == (m[alg.top][alg.top] == j[alg.bot][alg.bot])
        assert report.is_pure == all(x in mi or x in ji for x in rng)


def test_canonical_pairs_match_their_loop_form():
    dbas = [alg for alg in CORPUS if check_suite(alg, DBA23).ok]
    assert any(alg.n == 178 for alg in dbas)
    for alg in dbas:
        m, j, _, _ = loop_tables(alg)
        cap = {e: i for i, e in enumerate(sorted(meet_idempotents(alg)))}
        cup = {e: i for i, e in enumerate(sorted(join_idempotents(alg)))}
        p_pair, q_pair = canonical_pairs(alg)
        assert list(p_pair.r) == [cap[m[x][x]] for x in range(alg.n)]
        assert list(q_pair.r) == [cup[j[x][x]] for x in range(alg.n)]


TERMS = [parse_term(text) for text in (
    "x & y", "~(x | !y) & z", "vee(x, ~y) | (T & z)", "!(x & F) | ~~y", "(x | y) & (x | z)",
)]


def test_eval_term_matches_a_fold_over_lists():
    rng = random.Random(10)
    for alg in CORPUS:
        alg = alg.renamed(alg.names)  # without the row tuples of earlier reads
        m, j, g, o = loop_tables(alg)
        for t in TERMS:
            env = {v: rng.randrange(alg.n) for v in "xyz"}
            want = fold(t, env.__getitem__, alg.top, alg.bot, g.__getitem__, o.__getitem__,
                        lambda a, b: m[a][b], lambda a, b: j[a][b])
            assert eval_term(alg, t, env) == want
            assert type(eval_term(alg, t, env)) is int
        assert alg._rows is None


def test_noncontextual4_matches_its_loop_construction():
    base, alg = chain3(), noncontextual4()
    m, j, g, o = loop_tables(base)
    proxy = {0: 0, 1: 1, 2: 2, 3: 1}
    rng = range(4)
    assert alg.meet.tolist() == [[m[proxy[x]][proxy[y]] for y in rng] for x in rng]
    assert alg.join.tolist() == [[j[proxy[x]][proxy[y]] for y in rng] for x in rng]
    assert alg.neg.tolist() == [g[proxy[x]] for x in rng]
    assert alg.opp.tolist() == [o[proxy[x]] for x in rng]
    assert (alg.names, alg.top, alg.bot) == (("bot", "mid", "top", "mid2"), 2, 0)


def loop_sum_order(p, q, overlap, size):
    """The declared order of a generalized glued sum, one pair at a time:
    P's order, Q's order, all of P below all of Q, and (bot_Q, top_P)."""
    q_to_c = {v: k for k, v in overlap.items()}
    nxt = p.n
    for j in range(q.n):
        if j not in q_to_c:
            q_to_c[j] = nxt
            nxt += 1
    c_to_q = {c: j for j, c in q_to_c.items()}
    p_members, q_members = set(range(p.n)), set(q_to_c.values())
    rel = np.zeros((size, size), dtype=bool)
    for x in range(size):
        for y in range(size):
            if x in p_members and y in p_members and p.leq(x, y):
                rel[x, y] = True
            elif x in q_members and y in q_members and q.leq(c_to_q[x], c_to_q[y]):
                rel[x, y] = True
            elif x in p_members and y in q_members:
                rel[x, y] = True
            elif x == q_to_c[q.bot] and y == p.top:
                rel[x, y] = True
    return rel


def test_sum_order_matches_its_loop_form():
    # every identification of the golden-sums test
    from test_constructions import _injective_overlaps, _views
    views, walked = _views()[:7], 0
    for p in views:
        for q in views:
            for overlap in _injective_overlaps(p, q, 2):
                gs = generalized_glued_sum(p, q, overlap)
                assert np.array_equal(gs.order.rel, loop_sum_order(p, q, overlap, gs.algebra.n))
                walked += 1
    assert walked == 5282


def matmul_transitive(rel):
    """The reference: the composite of the relation, by int32 matmul, lies in it."""
    r = rel.astype(np.int32)
    return bool((((r @ r) > 0) <= rel).all())


def closure(rel):
    while True:
        wider = rel | (rel.astype(np.int32) @ rel.astype(np.int32) > 0)
        if (wider == rel).all():
            return rel
        rel = wider


@pytest.mark.parametrize("n", [2, 3, 5, algebra._PACKED_MIN_N - 1, algebra._PACKED_MIN_N, 90])
def test_transitivity_matches_the_matmul_on_random_relations(n):
    rng = np.random.default_rng(n)
    seen = set()
    for density in (0.0, 0.02, 0.1, 0.5, 1.0):
        for _ in range(8):
            rel = rng.random((n, n)) < density
            for r in (rel, closure(rel), rel | np.eye(n, dtype=bool)):
                got = algebra._transitive(r)
                assert got == matmul_transitive(r)
                seen.add(got)
    assert seen == {True, False}


def test_transitivity_matches_the_matmul_on_the_corpus():
    contexts = [protoconcept_algebra(ctx).algebra for g, m in product((1, 2, 3), repeat=2)
                for ctx in all_contexts(g, m)]
    algs = CORPUS + contexts
    assert {alg.n >= algebra._PACKED_MIN_N for alg in algs} == {True, False}
    for alg in algs:
        order = quasi_order(alg)
        assert order.transitive == matmul_transitive(order.rel)


def test_fibre_least_elements_match_np_unique():
    for alg in CORPUS:
        fibres = algebra._fibres(alg)
        for side, t in (("meet", alg.meet), ("join", alg.join)):
            least = np.sort(np.unique(t.diagonal(), return_index=True)[1])
            if side in fibres:
                assert fibres[side].tolist() == least.tolist()
