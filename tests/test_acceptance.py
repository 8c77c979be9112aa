"""Acceptance suite: one test per criterion, exact checks, stated runtime caps.

Each test prints a single PASS line (visible under pytest -s / -v) after all of
its assertions held; a failed assertion fails the criterion.  The context
corpus (every incidence on ground sets up to 3x3) is built once and shared.
"""

import random
import time
from itertools import product

import pytest

from dbakit.algebra import (
    check_identity_catalog, check_suite, classify, eval_term, passes,
)
from dbakit.constructions import (
    RetractionPair, build_from_boolean_pair, canonical_pairs,
    check_theorem_conditions, glued_sum, powerset_boolean,
)
from dbakit.fca import (
    FormalContext, all_contexts, complement_context, derive, enumerate_pairs, modal,
    protoconcept_algebra,
)
from dbakit.fixtures import builtin_fixtures, get_fixture
from dbakit.logic import (
    AXIOM_SCHEMAS, Sequent, check_proof, eval_sequent,
    falsifying_env, find_countermodel, fixture_proofs, is_true_in,
    parse_hypersequent, parse_sequent, search_proof,
)
from dbakit.representation import (
    representation, verify_clopen_characterization,
    verify_clopen_sets, verify_derivation_identities, verify_pair_embedding,
    verify_translated_continuity,
)
from dbakit.search import SearchSpec, enumerate_algebras
from dbakit.suites import DBA23, DCORE13, GDCORE11
from dbakit.terms import parse_term
from oracles import naive_sweep
from test_logic import _sq_premises, _substitute, seq


def report(n, elapsed, text):
    print(f"PASS criterion-{n} ({elapsed:.1f}s): {text}")


@pytest.fixture(scope="module")
def corpus():
    """(context, protoconcept algebra, semiconcept algebra) for every context
    with 1..3 objects and 1..3 attributes."""
    out = []
    for g in (1, 2, 3):
        for m in (1, 2, 3):
            for ctx in all_contexts(g, m):
                out.append((ctx,
                            protoconcept_algebra(ctx),
                            protoconcept_algebra(ctx, "semiconcept")))
    assert len(out) == sum(2 ** (g * m) for g in (1, 2, 3) for m in (1, 2, 3))
    return out


def test_criterion_1_axiom_equivalence_sweep():
    t0 = time.time()
    a = naive_sweep(SearchSpec(size=2, require="DBA23"))
    b = naive_sweep(SearchSpec(size=2, require="DCORE13"))
    assert a.candidates == b.candidates == 16384
    # identical model sets over the identical candidate order means the two
    # suites agree candidate-by-candidate in both directions
    assert [x.signature() for x in a.found] == [x.signature() for x in b.found]
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(1, elapsed,
           f"all 16384 two-element algebras: DBA23-pass <=> DCORE13-pass "
           f"({a.models} models)")


def test_criterion_2_independence():
    import io
    from contextlib import redirect_stdout

    from dbakit.cli import main as cli_main

    t0 = time.time()
    fixture = get_fixture("cex-5ab")
    rep = check_suite(fixture, DCORE13)
    assert rep.failing_ids() == ("5a", "5b")
    found = enumerate_algebras(
        SearchSpec(size=2, require="DCORE13", must_fail=("5a", "5b")))
    assert found.models >= 1
    for alg in found.found:
        assert check_suite(alg, DCORE13).failing_ids() == ("5a", "5b")
    # the same rediscovery through the command line
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["search", "--size", "2", "--require", "dcore",
                         "--fail", "5a,5b"])
    out = buf.getvalue()
    assert code == 0
    assert f"models: {found.models}" in out and "complete: true" in out
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(2, elapsed,
           f"cex-5ab separates 5a/5b; size-2 search rediscovers {found.models} such model(s)")


def test_criterion_3_generalized_dcore_gap():
    t0 = time.time()
    alg = get_fixture("gdcore-not-dcore")
    assert check_suite(alg, GDCORE11).ok
    rep = check_suite(alg, DCORE13)
    assert rep.failing_ids() == ("3a", "3b")
    # the documented separating witness evaluates exactly as stated
    a, c = alg.index("a"), alg.index("c")
    b = alg.index("b")
    assert eval_term(alg, parse_term("x & (x | y)"), {"x": a, "y": c}) == b
    assert eval_term(alg, parse_term("x & x"), {"x": a}) == a
    assert eval_term(alg, parse_term("x | (x & y)"), {"x": a, "y": c}) == b
    assert eval_term(alg, parse_term("x | x"), {"x": a}) == alg.index("c")
    report(3, time.time() - t0, "GDCORE11 passes, 3a/3b fail with the stated witness")


def test_criterion_4_fca_corpus(corpus):
    t0 = time.time()
    for ctx, pa, sa in corpus:
        assert passes(pa.algebra, DBA23)
        assert classify(pa.algebra).is_fully_contextual
        cl_semi = classify(sa.algebra)
        assert cl_semi.is_dba and cl_semi.is_pure
        # translation laws through the complemented context
        comp = complement_context(ctx)
        fo, fa = ctx.full_objects, ctx.full_attributes
        for a in range(fo + 1):
            assert modal(ctx, "box_o", a) == derive(comp, "extent", fo & ~a)
            assert modal(ctx, "diamond_o", a) == fa & ~derive(comp, "extent", a)
        for bmask in range(fa + 1):
            assert modal(ctx, "box_p", bmask) == derive(comp, "intent", fa & ~bmask)
            assert modal(ctx, "diamond_p", bmask) == fo & ~derive(comp, "intent", bmask)
        protos = set(pa.pairs)
        oo = {(p.extent, p.intent) for p in enumerate_pairs(comp, "oo_protoconcept")}
        assert oo == {(fo & ~a, bmask) for a, bmask in protos}
        semis = set(sa.pairs)
        oo_s = {(p.extent, p.intent) for p in enumerate_pairs(comp, "oo_semiconcept")}
        assert oo_s == {(fo & ~a, bmask) for a, bmask in semis}
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(4, elapsed,
           f"{len(corpus)} contexts up to 3x3: protoconcept algebras are fully "
           f"contextual dBas, semiconcept subalgebras pure, translation laws hold")


def test_criterion_5_constructions():
    t0 = time.time()
    # glued sums of powerset Boolean algebras with 1, 2, 4 atoms
    sums = []
    for ka in (1, 2, 4):
        for kb in (1, 2, 4):
            p, q = powerset_boolean(ka), powerset_boolean(kb)
            alg = glued_sum(p, q)
            sums.append(alg)
            cl = classify(alg)
            assert alg.n == p.n + q.n - 1
            assert cl.is_dba and cl.is_pure and cl.is_trivial
            # collapse laws of trivial algebras, on both idempotent sides
            bsq = alg._tuples()[1][alg.bot][alg.bot]
            tsq = alg._tuples()[0][alg.top][alg.top]
            for x in sorted(cl.meet_idempotents):
                assert alg._tuples()[3][x] == alg.top
                for y in sorted(cl.meet_idempotents):
                    assert alg._tuples()[1][x][y] == bsq
            for x in sorted(cl.join_idempotents):
                assert alg._tuples()[2][x] == alg.bot
                for y in sorted(cl.join_idempotents):
                    assert alg._tuples()[0][x][y] == tsq

    # embedding-retraction instances: the biconditional holds everywhere,
    # and the old third condition is implied wherever the new ones pass
    bases = []
    for name, alg in builtin_fixtures():
        if passes(alg, DBA23):
            p_pair, q_pair = canonical_pairs(alg)
            bases.append((alg.n, p_pair, q_pair))
    for alg in sums[:4]:
        p_pair, q_pair = canonical_pairs(alg)
        bases.append((alg.n, p_pair, q_pair))
    for size, p_pair, q_pair in bases:
        new = check_theorem_conditions(size, p_pair, q_pair, "new")
        old = check_theorem_conditions(size, p_pair, q_pair, "old")
        built = build_from_boolean_pair(size, p_pair, q_pair)
        assert new.ok == passes(built, DBA23)
        assert new.ok  # canonical pairs of a dBa satisfy the conditions
        assert old.constants_ok and old.ok

    # 100 fixed-seed perturbations, each breaking the conditions: the built
    # algebra must fail DBA23 every time (the biconditional, negative side)
    rng = random.Random(7)
    done = 0
    while done < 100:
        size, p_pair, q_pair = bases[rng.randrange(len(bases))]
        which = rng.randrange(2)
        pair = (p_pair, q_pair)[which]
        points = [x for x in range(size) if x not in set(pair.e)]
        if not points:
            continue
        x = points[rng.randrange(len(points))]
        new_r = list(pair.r)
        new_r[x] = (new_r[x] + 1 + rng.randrange(pair.target.n - 1)) % pair.target.n
        mutated = RetractionPair(size, pair.target, new_r, pair.e)
        pp = mutated if which == 0 else p_pair
        qq = mutated if which == 1 else q_pair
        cond = check_theorem_conditions(size, pp, qq, "new")
        if cond.ok:
            continue  # redraw: this mutation did not break the conditions
        built = build_from_boolean_pair(size, pp, qq)
        assert not passes(built, DBA23)
        done += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(5, elapsed,
           "glued sums pure+trivial with collapse laws; conditions <=> dBa on all "
           "instances and under 100 seeded perturbations; old condition 3 implied")


def check_representation(rep):
    """The verdicts of criterion 6 on one representation."""
    assert verify_derivation_identities(rep) == []
    emb = verify_pair_embedding(rep)
    assert emb["protoconcepts"] and emb["homomorphism"] and emb["order"]
    assert rep.homomorphism and rep.order_preserving_reflecting and rep.surjective
    assert rep.conditions_ok and rep.image_is_dba and rep.parts_boolean
    cl = classify(rep.algebra)
    if cl.is_contextual:
        assert rep.injective and rep.isomorphism
    assert verify_clopen_sets(rep)
    ch = verify_clopen_characterization(rep)
    if cl.is_fully_contextual:
        assert ch.status == "protoconcept" and ch.ok
    elif cl.is_pure:
        assert ch.status == "semiconcept" and ch.ok


def test_criterion_6_representation(corpus):
    t0 = time.time()
    pool = {}
    for ctx, pa, sa in corpus:
        for alg in (pa.algebra, sa.algebra):
            pool.setdefault(alg.signature(), alg)
    for ka in (1, 2, 4):
        for kb in (1, 2, 4):
            alg = glued_sum(powerset_boolean(ka), powerset_boolean(kb))
            pool.setdefault(alg.signature(), alg)
    assert len(pool) > 100 and max(alg.n for alg in pool.values()) == 64
    for alg in pool.values():
        check_representation(representation(alg))
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(6, elapsed,
           f"{len(pool)} distinct corpus dBas (|D|<=64): derivation identities, "
           f"quasi-embedding, isomorphism when contextual, clopen families and "
           f"characterizations all verified")


def test_criterion_6_representation_past_20_elements():
    # the algebras of seeded 4x4 and 4x5 contexts with more than 20 elements
    t0 = time.time()
    rng = random.Random(6)
    pool = {}
    for g, m in [(4, 4)] * 12 + [(4, 5)] * 12:
        inc = [[rng.random() < 0.5 for _ in range(m)] for _ in range(g)]
        ctx = FormalContext([f"g{i}" for i in range(g)], [f"m{i}" for i in range(m)], inc)
        for kind in ("protoconcept", "semiconcept"):
            alg = protoconcept_algebra(ctx, kind).algebra
            if alg.n > 20:
                pool.setdefault(alg.signature(), alg)
    assert len(pool) >= 30 and max(alg.n for alg in pool.values()) > 60
    for alg in pool.values():
        rep = representation(alg)
        check_representation(rep)
        assert verify_translated_continuity(rep)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    sizes = sorted(alg.n for alg in pool.values())
    report(6, elapsed,
           f"{len(pool)} distinct 4x4/4x5 context dBas of {sizes[0]}-{sizes[-1]} "
           f"elements: criterion-6 verdicts and translated continuity verified")


def test_criterion_7_logic(corpus):
    t0 = time.time()
    # transcribed proof scripts
    names = dict(fixture_proofs())
    for wanted in ("lemma-meet-idem-intro", "thm-comm-meet", "thm-neg-monotone",
                   "thm-meet-absorb"):
        assert wanted in names
        assert check_proof(names[wanted]).valid

    # local soundness of axioms and rules over contextual corpus fixtures
    sample_algs = []
    for ctx, pa, _ in corpus:
        if ctx.n_objects <= 2 and ctx.n_attributes <= 2 and pa.algebra.n <= 8:
            sample_algs.append(pa.algebra)
    assert len(sample_algs) >= 10
    phi = [parse_term(s) for s in ("x", "y", "x & y", "x | y", "~x", "!y", "T")]
    insts = list(product(phi, repeat=3))[::17]
    for alg in sample_algs[:12]:
        assert classify(alg).is_contextual
        envs = [dict(zip(("x", "y"), v)) for v in product(range(alg.n), repeat=2)]
        for schema in AXIOM_SCHEMAS:
            if schema.hl_only:
                continue
            for values in insts[:6]:
                binding = dict(zip(("A*", "B*", "C*"), values))
                s = Sequent(_substitute(schema.lhs, binding),
                            _substitute(schema.rhs, binding))
                assert all(eval_sequent(alg, s, env) for env in envs), schema.id
        x, y, z = parse_term("x"), parse_term("y"), parse_term("z")
        from dbakit.terms import Join, Meet, Neg, Opp
        rule_insts = [
            (Sequent(x, y), Sequent(Meet(x, z), Meet(y, z))),
            (Sequent(x, y), Sequent(Meet(z, x), Meet(z, y))),
            (Sequent(x, y), Sequent(Join(x, z), Join(y, z))),
            (Sequent(x, y), Sequent(Join(z, x), Join(z, y))),
            (Sequent(x, y), Sequent(Neg(y), Neg(x))),
            (Sequent(x, y), Sequent(Opp(y), Opp(x))),
        ]
        envs3 = [dict(zip(("x", "y", "z"), v)) for v in product(range(alg.n), repeat=3)]
        for prem, concl in rule_insts:
            for env in envs3:
                if eval_sequent(alg, prem, env):
                    assert eval_sequent(alg, concl, env)
        for env in envs3:
            if eval_sequent(alg, Sequent(x, y), env) and \
                    eval_sequent(alg, Sequent(y, z), env):
                assert eval_sequent(alg, Sequent(x, z), env)
        for env in envs:
            if all(eval_sequent(alg, p, env) for p in _sq_premises(x, y)):
                assert eval_sequent(alg, Sequent(x, y), env)

    # proof search targets
    found = search_proof(seq(parse_term("~(x & x)"), parse_term("~x")), "L", 1)
    assert found is not None and len(found.lines) == 1
    lemma = parse_sequent("p & q => (p & q) & (p & q)")
    comm = search_proof(seq(parse_term("x & y"), parse_term("y & x")), "L", 6,
                        lemmas=[lemma])
    assert comm is not None and check_proof(comm).valid

    # countermodel for top below its own square
    got = find_countermodel(seq(parse_term("T"), parse_term("T & T")), "L",
                            builtin_fixtures())
    assert got is not None and got[0] == "chain3"

    # the purity hypersequent: true in every pure fixture, refuted on a
    # non-pure contextual corpus algebra
    sp = parse_hypersequent("q => q & q ; q | q => q")
    for name, alg in builtin_fixtures():
        if passes(alg, DBA23) and classify(alg).is_pure:
            assert is_true_in(alg, sp, "HL"), name
    nonpure = None
    for ctx, pa, _ in corpus:
        cl = classify(pa.algebra)
        if cl.is_contextual and not cl.is_pure:
            nonpure = pa.algebra
            break
    assert nonpure is not None
    assert falsifying_env(nonpure, sp, "L") is not None
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(7, elapsed,
           "scripts valid; axioms/rules locally sound on corpus fixtures; search "
           "targets found; countermodels as stated; purity hypersequent separates")


def test_criterion_8_identity_catalog(corpus):
    t0 = time.time()
    checked = 0
    for ctx, pa, sa in corpus:
        for alg in (pa.algebra, sa.algebra):
            if check_suite(alg, DCORE13).ok:
                _, fails = check_identity_catalog(alg)
                assert not fails, [str(v) for v in fails]
                checked += 1
    assert checked == 2 * len(corpus)  # every corpus algebra is a dBa
    report(8, time.time() - t0,
           f"derived-identity catalog clean on all {checked} corpus algebras")
