"""Calculi: parsing, axiom matching, proof checking, search, semantics."""

import copy
import functools
import gc
import random
import pickle
import re
import time
import tracemalloc
import weakref
from itertools import islice, permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbakit import algebra, logic
from dbakit.algebra import classify, passes, quasi_order
from dbakit.errors import EvalError, LogicError, ParseError
from dbakit.fca import all_contexts, protoconcept_algebra
from dbakit.fixtures import (
    PROOF_SCRIPTS, boolean2, builtin_fixtures, chain3, gdcore_not_dcore, singleton,
)
from dbakit.logic import (
    AXIOM_SCHEMAS, Hypersequent, ProofLine, ProofScript, Sequent, axiom_match,
    check_proof, eval_sequent, falsifying_env, find_countermodel, fixture_proofs,
    is_true_in, parse_hypersequent, parse_script, parse_sequent, render_script,
    search_proof,
)
from dbakit.terms import (
    BOT, MAX_DEPTH, TOP, Join, Meet, Neg, Opp, Term, Var, fold, parse_term, render, subterms,
    variables,
)
from oracles import schema_matches
from test_algebra import _relabelled, _Watched


def _substitute(pattern: Term, binding: dict) -> Term:
    return fold(pattern, binding.__getitem__, TOP, BOT, Neg, Opp, Meet, Join)


def seq(ant: Term, suc: Term) -> Hypersequent:
    """The hypersequent of the one sequent ant => suc."""
    return Hypersequent((Sequent(ant, suc),))


def _sq_premises(phi: Term, psi: Term) -> tuple[Sequent, ...]:
    return tuple(Sequent(a, b) for a, b in logic._sq_pairs(phi, psi))


def contextual_fixtures():
    return [(n, a) for n, a in builtin_fixtures()
            if passes(a, "DBA23") and classify(a).is_contextual]


def pure_fixtures():
    return [(n, a) for n, a in builtin_fixtures()
            if passes(a, "DBA23") and classify(a).is_pure]


# --- parsing -----------------------------------------------------------------

def test_parse_sequent():
    s = parse_sequent("x & y => x")
    assert s == Sequent(Meet(Var("x"), Var("y")), Var("x"))


def test_parse_hypersequent_components():
    h = parse_hypersequent("x => x ; y => y")
    assert len(h) == 2
    assert h[0] == Sequent(Var("x"), Var("x"))


def test_parse_error_at_end():
    with pytest.raises(ParseError):
        parse_sequent("x &")
    with pytest.raises(ParseError):
        parse_sequent("x => ")


def test_hl_mode_sorts_variables():
    s = parse_sequent("p => P", "HL")
    assert s.ant == Var("p", "object")
    assert s.suc == Var("P", "property")


def test_empty_hypersequent_rejected():
    with pytest.raises(LogicError):
        Hypersequent(())


def test_sequents_are_the_tuples_the_search_builds():
    # a Sequent is a named (ant, suc) pair and a Hypersequent a tuple of
    # them: equal to the plain tuples and hashed alike
    x, y = Var("x", "object"), Var("y", "object")
    h = parse_hypersequent("x => y ; y => x", "HL")
    assert h == ((x, y), (y, x)) and hash(h) == hash(((x, y), (y, x)))
    assert h[0] == (x, y) and hash(h[0]) == hash((x, y))
    with pytest.raises(LogicError, match="a hypersequent needs at least one component"):
        Hypersequent(())
    built = Hypersequent([(x, y), Sequent(y, x)])
    assert built == h and all(type(c) is Sequent for c in built)
    assert type(built[1]) is Sequent and built[1].ant is y and built[1].suc is x
    # what the frozen dataclasses gave
    assert str(h) == "x => y ; y => x" and str(h[1]) == "y => x"
    assert len(h) == 2 and h[-1] == Sequent(y, x)
    assert h.components == (Sequent(x, y), Sequent(y, x)) and type(h.components) is tuple
    assert repr(h) == f"Hypersequent(components={h.components!r})"
    for again in (pickle.loads(pickle.dumps(h)), copy.copy(h), copy.deepcopy(h)):
        assert type(again) is Hypersequent and again == h and str(again) == str(h)
        assert all(type(c) is Sequent for c in again)
    s = parse_sequent("x & y => x")
    assert pickle.loads(pickle.dumps(s)) == s and type(copy.deepcopy(s)) is Sequent


# --- axiom matching -------------------------------------------------------------

def test_contradiction_axiom_matches_compound_instance():
    s = parse_sequent("(x | y) & ~(x | y) => F")
    assert "meet-contra" in axiom_match(s)


def test_identity_axiom():
    assert "id" in axiom_match(parse_sequent("x & ~y => x & ~y"))


def test_hl_only_axioms_respect_sorts_and_system():
    s_obj = parse_sequent("p & p => p", "HL")
    assert "ovar-idem" in axiom_match(s_obj, "HL")
    assert "ovar-idem" not in axiom_match(s_obj, "L")
    s_prop = parse_sequent("P & P => P", "HL")
    assert "ovar-idem" not in axiom_match(s_prop, "HL")  # wrong sort
    assert "pvar-idem" in axiom_match(parse_sequent("P | P => P", "HL"), "HL")
    # sorted schemas never match compound formulas
    s_cmp = parse_sequent("(p & q) & (p & q) => p & q", "HL")
    assert "ovar-idem" not in axiom_match(s_cmp, "HL")


def test_generic_l_parse_never_matches_sorted_schemas():
    s = parse_sequent("p & p => p", "L")
    assert all(a not in axiom_match(s, "L") for a in ("ovar-idem", "pvar-idem"))


# --- proof checking --------------------------------------------------------------

def test_fixture_proofs_all_valid():
    for name, script in fixture_proofs():
        report = check_proof(script)
        assert report.valid, (name, str(report))


def test_fixture_proofs_are_the_script_texts():
    # the transcribed derivations are kept as text: each parses to a script
    # that renders back to that text, in the fixtures' order
    proofs = fixture_proofs()
    assert [name for name, _ in proofs] == [
        "lemma-meet-idem-intro", "lemma-join-idem-elim", "thm-comm-meet",
        "thm-neg-monotone", "thm-meet-absorb"]
    assert all(type(script) is ProofScript for _, script in proofs)
    assert [render_script(script) for _, script in proofs] == list(PROOF_SCRIPTS.values())
    assert sum(text.count("\n") for text in PROOF_SCRIPTS.values()) == 42
    # commutativity inlines the idempotence lemma as its first six lines
    scripts = dict(proofs)
    assert scripts["thm-comm-meet"].lines[:6] == scripts["lemma-meet-idem-intro"].lines


def test_fixture_proofs_round_trip_through_text():
    for name, script in fixture_proofs():
        text = render_script(script)
        again = parse_script(text)
        assert check_proof(again).valid, name
        assert render_script(again) == text


def test_cut_with_mismatched_formula_is_invalid():
    x, y = Var("x"), Var("y")
    script = ProofScript("L", (
        ProofLine(1, seq(Meet(x, y), x), "axiom", (), "meet-elim-l"),
        ProofLine(2, seq(y, Join(y, x)), "axiom", (), "join-intro-l"),
        ProofLine(3, seq(Meet(x, y), Join(y, x)), "cut", (1, 2)),
    ))
    report = check_proof(script)
    assert not report.valid and report.line == 3


def test_premises_must_precede():
    x = Var("x")
    script = ProofScript("L", (
        ProofLine(1, seq(x, x), "cut", (1, 1)),
    ))
    assert not check_proof(script).valid


def test_wrong_schema_citation_rejected():
    x, y = Var("x"), Var("y")
    script = ProofScript("L", (
        ProofLine(1, seq(Meet(x, y), x), "axiom", (), "join-intro-l"),
    ))
    assert not check_proof(script).valid
    # each side fits the schema alone, under another value of A*
    for hyp, schema in [(seq(x, y), "id"), (seq(Meet(x, y), y), "meet-elim-l"),
                        (seq(Neg(Meet(x, x)), Neg(y)), "neg-collapse")]:
        line = ProofLine(1, hyp, "axiom", (), schema)
        assert check_proof(ProofScript("L", (line,))).reason == \
            "rule axiom does not derive the line from its premises"


def test_L_rejects_hypersequent_lines_and_external_rules():
    x = Var("x")
    two = Hypersequent((Sequent(x, x), Sequent(x, x)))
    report = check_proof(ProofScript("L", (ProofLine(1, two, "id-axiom", ()),)))
    assert not report.valid
    sp_line = Hypersequent((Sequent(x, Meet(x, x)), Sequent(Join(x, x), x)))
    report2 = check_proof(ProofScript("L", (ProofLine(1, sp_line, "sp", ()),)))
    assert not report2.valid


def test_hl_external_rules():
    x, y = Var("x"), Var("y")
    a = Sequent(x, x)
    b = Sequent(y, y)
    script = ProofScript("HL", (
        ProofLine(1, Hypersequent((a,)), "id-axiom", ()),
        ProofLine(2, Hypersequent((a, b)), "ew", (1,)),      # weaken on the right
        ProofLine(3, Hypersequent((b, a)), "ee", (2,)),      # exchange
        ProofLine(4, Hypersequent((b, a, a)), "ew", (3,)),
        ProofLine(5, Hypersequent((b, a)), "ec", (4,)),      # contract the duplicate
    ))
    report = check_proof(script)
    assert report.valid, str(report)


def test_hl_sp_rule():
    x = Var("x")
    line = Hypersequent((Sequent(x, Meet(x, x)), Sequent(Join(x, x), x)))
    assert check_proof(ProofScript("HL", (ProofLine(1, line, "sp", ()),))).valid


def test_hl_checker_rejects_axiom_lines_outside_a_single_instance():
    # an axiom line is one component, without premises, that is an instance
    # of the cited schema, sorts included
    x, y, big = Var("x", "object"), Var("y", "object"), Var("X", "property")
    two = Hypersequent((Sequent(Meet(x, y), x), Sequent(Meet(y, x), y)))
    assert all("meet-elim-l" in axiom_match(c, "HL") for c in two)
    bad = [
        (ProofLine(1, two, "axiom", (), "meet-elim-l"),),
        (ProofLine(1, seq(x, x), "id-axiom", ()),
         ProofLine(2, seq(Meet(x, y), x), "axiom", (1,), "meet-elim-l")),
        (ProofLine(1, seq(Meet(big, big), big), "axiom", (), "ovar-idem"),),
    ]
    for lines in bad:
        report = check_proof(ProofScript("HL", lines))
        assert (report.valid, report.line, report.reason) == (
            False, len(lines), "rule axiom does not derive the line from its premises")
    # the same lines, one component, no premise and an object variable, pass
    good = (ProofLine(1, seq(Meet(x, y), x), "axiom", (), "meet-elim-l"),
            ProofLine(2, seq(Meet(x, x), x), "axiom", (), "ovar-idem"))
    assert check_proof(ProofScript("HL", good)).valid


def test_hl_cut_with_contexts():
    x, y, z = Var("x"), Var("y"), Var("z")
    ctx = Sequent(z, z)
    p1 = Hypersequent((ctx, Sequent(Meet(x, y), x)))
    p2 = Hypersequent((Sequent(x, Join(x, y)),))
    concl = Hypersequent((ctx, Sequent(Meet(x, y), Join(x, y))))
    script = ProofScript("HL", (
        ProofLine(1, Hypersequent((ctx,)), "id-axiom", ()),
        ProofLine(2, p1, "ew", (1,)),
        ProofLine(3, p2, "axiom", (), "join-intro-l"),
        ProofLine(4, concl, "cut", (2, 3)),
    ))
    # line 2: B|D where D = meet-elim... ew appends an arbitrary component;
    # the checker only validates structure, so the appended component need not
    # be an axiom -- soundness is carried by the conclusion semantics tests
    report = check_proof(script)
    assert report.valid, str(report)


def test_sq_rule_checks_all_four_premises():
    # derive x => x from the four identity-shaped premises the rule expects
    x, y = Var("x"), Var("y")
    lines = [ProofLine(i + 1, seq(p.ant, p.suc), "id-axiom", ())
             for i, p in enumerate([
                 Sequent(Meet(x, x), Meet(x, x)),
                 Sequent(Meet(x, x), Meet(x, x)),
                 Sequent(Join(x, x), Join(x, x)),
                 Sequent(Join(x, x), Join(x, x)),
             ])]
    lines.append(ProofLine(5, seq(x, x), "sq", (1, 2, 3, 4)))
    assert check_proof(ProofScript("L", tuple(lines))).valid
    bad = ProofScript("L", tuple(lines[:4]) + (
        ProofLine(5, seq(x, y), "sq", (1, 2, 3, 4)),))
    assert not check_proof(bad).valid


def test_biconditional_axiom_round_trips_compose():
    pairs = [(s.id, s.id + "-conv") for s in AXIOM_SCHEMAS
             if s.id + "-conv" in {t.id for t in AXIOM_SCHEMAS}]
    assert pairs
    x, y, z = Var("x"), Var("y"), Var("z")
    binding = {"A*": x, "B*": y, "C*": z}
    by_id = {s.id: s for s in AXIOM_SCHEMAS}
    for fwd_id, conv_id in pairs:
        fwd = by_id[fwd_id]
        if fwd.var_sort is not None:
            continue  # sorted schemas need sorted variables; covered elsewhere
        lhs = _substitute(fwd.lhs, binding)
        rhs = _substitute(fwd.rhs, binding)
        script = ProofScript("L", (
            ProofLine(1, seq(lhs, rhs), "axiom", (), fwd_id),
            ProofLine(2, seq(rhs, lhs), "axiom", (), conv_id),
            ProofLine(3, seq(lhs, lhs), "cut", (1, 2)),
        ))
        assert check_proof(script).valid, fwd_id


def test_parse_script_errors():
    with pytest.raises(ParseError):
        parse_script("1: x => x  id-axiom\n")  # missing header
    with pytest.raises(ParseError):
        parse_script("system: L\n1: x => x id-axiom\n")  # single space separator
    with pytest.raises(ParseError):
        parse_script("system: L\n1: x => x  frobnicate\n")


# --- proof search ------------------------------------------------------------------

def test_search_axiom_goal_depth_one():
    script = search_proof(seq(parse_term("~(x & x)"), parse_term("~x")), "L", 1)
    assert script is not None and len(script.lines) == 1


def test_search_commutativity_with_lemma_pool():
    lemma = parse_sequent("p & q => (p & q) & (p & q)")
    script = search_proof(seq(parse_term("x & y"), parse_term("y & x")), "L", 6,
                          lemmas=[lemma])
    assert script is not None
    assert check_proof(script).valid
    assert script.conclusion() == seq(parse_term("x & y"), parse_term("y & x"))


GOLDEN_PROOFS = [
    ("~~(x & y) => (x & y) & (x & y)", 3,
     "system: L\n"
     "1: ~(x & y & (x & y)) => ~(x & y)  axiom(neg-collapse)\n"
     "2: ~~(x & y) => ~~(x & y & (x & y))  neg 1\n"
     "3: ~~(x & y & (x & y)) => x & y & (x & y)  axiom(dneg-meet)\n"
     "4: ~~(x & y) => x & y & (x & y)  cut 2 3\n"),
    ("x & y => (x & y) & (x & y)", 8,
     "system: L\n"
     "1: x & y => ~~(x & y)  axiom(dneg-meet-intro)\n"
     "2: ~(x & y & (x & y)) => ~(x & y)  axiom(neg-collapse)\n"
     "3: ~~(x & y) => ~~(x & y & (x & y))  neg 2\n"
     "4: x & y => ~~(x & y & (x & y))  cut 1 3\n"
     "5: ~~(x & y & (x & y)) => x & y & (x & y)  axiom(dneg-meet)\n"
     "6: x & y => x & y & (x & y)  cut 4 5\n"),
]


# with GOLDEN_PROOFS, the goals of the prove benchmark (None: no proof found)
BENCHMARK_PROOFS = [
    ("~(x & x) => ~x", 1, "system: L\n1: ~(x & x) => ~x  axiom(neg-collapse)\n"),
    *GOLDEN_PROOFS,
    ("x | y => y | x", 4, None),
]


@pytest.mark.parametrize("goal, depth, text", BENCHMARK_PROOFS)
def test_search_finds_the_golden_proof(goal, depth, text):
    # pins the search order: a different first proof changes the text
    script = search_proof(parse_hypersequent(goal, "L"), "L", depth)
    assert (script and render_script(script)) == text


def test_cut_pool_is_built_at_the_first_cut_only(monkeypatch):
    built = []
    key_pool = logic._key_pool

    def counting(goal, system, lemmas):
        built.append(goal)
        return key_pool(goal, system, lemmas)

    monkeypatch.setattr(logic, "_key_pool", counting)
    goal, depth, text = BENCHMARK_PROOFS[0]  # closed by an axiom
    assert render_script(search_proof(parse_hypersequent(goal, "L"), "L", depth)) == text
    assert built == []
    goal, depth, text = GOLDEN_PROOFS[0]  # takes a cut
    assert render_script(search_proof(parse_hypersequent(goal, "L"), "L", depth)) == text
    assert built == [parse_hypersequent(goal, "L")]


def test_search_unprovable_goal_returns_none():
    script = search_proof(seq(parse_term("T"), parse_term("T & T")), "L", 4)
    assert script is None


def test_search_rejects_multi_component_L_goals():
    # check_proof rejects every multi-component L line, so there is nothing to search
    goal = parse_hypersequent("x & y => x ; y => y", "L")
    with pytest.raises(LogicError, match="^system L lines must be single sequents$"):
        search_proof(goal, "L", 3)
    report = check_proof(ProofScript("L", (ProofLine(1, goal, "id-axiom"),)))
    assert report.reason == "system L lines must be single sequents"
    assert search_proof(parse_hypersequent("x & y => x ; y => y", "HL"), "HL", 3)


def test_search_leaves_no_cyclic_garbage():
    # the search state must be freed on return, not at the next full collection
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert search_proof(parse_hypersequent(GOLDEN_PROOFS[0][0], "L"), "L", 3)
        assert search_proof(seq(parse_term("T"), parse_term("T & T")), "L", 4) is None
        gc.collect()
        left = [o for o in gc.garbage
                if getattr(o, "__qualname__", "").startswith(
                    ("search_proof.<locals>", "_cut_candidates.<locals>", "_key_pool",
                     "_instances", "_convert", "_backward_steps", "_leaf"))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == []


def test_substitute_and_render_deep_terms():
    pattern = Meet(Var("A"), Var("B"))
    for _ in range(3000):
        pattern = Neg(pattern)
    t = _substitute(pattern, {"A": Var("x"), "B": Opp(Var("y"))})
    assert t.depth == 3002
    assert render(t) == "~" * 3000 + "(x & !y)"


def test_hl_search_finds_sp_leaf():
    goal = parse_hypersequent("q => q & q ; q | q => q", "HL")
    script = search_proof(goal, "HL", 2)
    assert script is not None and check_proof(script).valid
    for name, alg in pure_fixtures():
        assert is_true_in(alg, script.conclusion(), "HL"), name


def test_hl_subsumes_l_axioms_at_depth_one():
    x, y, z = Var("x"), Var("y"), Var("z")
    binding = {"A*": x, "B*": y, "C*": z}
    for schema in AXIOM_SCHEMAS:
        if schema.hl_only:
            continue
        goal = seq(_substitute(schema.lhs, binding), _substitute(schema.rhs, binding))
        script = search_proof(goal, "HL", 1)
        assert script is not None and len(script.lines) == 1, schema.id


# --- semantics ----------------------------------------------------------------------

def test_identity_true_in_every_contextual_fixture():
    g = seq(parse_term("x"), parse_term("x"))
    for name, alg in contextual_fixtures():
        assert is_true_in(alg, g, "L"), name


def test_top_below_its_square_fails_on_chain():
    alg = chain3()
    g = seq(parse_term("T"), parse_term("T & T"))
    assert not is_true_in(alg, g, "L")
    # oracle: evaluate the two defining equations of the order directly
    top = alg.top
    sq = alg._tuples()[0][top][top]
    first = alg._tuples()[0][top][sq] == alg._tuples()[0][top][top]
    second = alg._tuples()[1][top][sq] == alg._tuples()[1][sq][sq]
    assert first and not second


def test_eval_sequent_matches_order():
    alg = chain3()
    rel = quasi_order(alg).rel
    for x in range(alg.n):
        for y in range(alg.n):
            env = {"x": x, "y": y}
            assert eval_sequent(alg, parse_sequent("x => y"), env) == bool(rel[x, y])


def test_wrong_algebra_class_raises():
    with pytest.raises(LogicError):
        is_true_in(gdcore_not_dcore(), seq(parse_term("x"), parse_term("x")), "L")
    from dbakit.fixtures import noncontextual4
    with pytest.raises(LogicError):
        is_true_in(noncontextual4(), seq(parse_term("x"), parse_term("x")), "L")


def test_sp_true_in_pure_fixtures_and_refutable_beyond():
    sp = parse_hypersequent("q => q & q ; q | q => q")
    for name, alg in pure_fixtures():
        assert is_true_in(alg, sp, "HL"), name
    # a contextual fixture that is not pure falsifies the disjunction under
    # the L reading (no purity assumption)
    nonpure = protoconcept_algebra(
        _ctx([[True, True], [True, False]])).algebra
    cl = classify(nonpure)
    assert cl.is_contextual and not cl.is_pure
    assert falsifying_env(nonpure, sp, "L") is not None
    got = find_countermodel(sp, "L", [("nonpure", nonpure)])
    assert got is not None and got[0] == "nonpure"


def _ctx(rows):
    from dbakit.fca import FormalContext
    g = len(rows)
    m = len(rows[0])
    return FormalContext([f"g{i}" for i in range(g)], [f"m{i}" for i in range(m)], rows)


def test_hl_env_ranges_respect_sorts():
    alg = chain3()
    # object variables range over meet idempotents: p & p => p holds there
    assert is_true_in(alg, seq(*_sides("p & p => p")), "HL")
    assert is_true_in(alg, seq(*_sides("P | P => P")), "HL")


def _sides(text):
    s = parse_sequent(text, "HL")
    return s.ant, s.suc


def test_find_countermodel_examples():
    models = list(builtin_fixtures())
    got = find_countermodel(seq(parse_term("T"), parse_term("T & T")), "L", models)
    assert got is not None and got[0] == "chain3"
    assert find_countermodel(seq(parse_term("x"), parse_term("x")), "L", models) is None


def test_find_countermodel_checks_each_model_once(monkeypatch):
    checked = []
    admits = logic._algebra_admits

    def counting(alg, system):
        checked.append(alg)
        return admits(alg, system)

    monkeypatch.setattr(logic, "_algebra_admits", counting)
    models = list(builtin_fixtures())
    for system in ("L", "HL"):
        checked.clear()
        # valid in both systems, so every model is tried
        assert find_countermodel(seq(parse_term("x"), parse_term("x")), system, models) is None
        assert checked == [alg for _, alg in models]


# --- the compiled refuter against the interpreted loop -------------------------------

def falsifying_env_reference(alg, h, system="L"):
    """First assignment (deterministic order) under which no component is
    satisfied, or None.  Raises LogicError when the algebra is outside the
    system's class."""
    ok, why = logic._algebra_admits(alg, system)
    if not ok:
        raise LogicError(why)
    names, kinds = logic._var_sorts(h)
    for values in product(*(logic._var_range(alg, kind, system) for kind in kinds)):
        env = dict(zip(names, values))
        if not any(eval_sequent(alg, comp, env) for comp in h.components):
            return env
    return None


@functools.lru_cache(maxsize=None)
def _refutation_models():
    """system -> distinct admitted algebras: the fixtures, and the
    protoconcept (L) and semiconcept (HL) algebras of every context up to 3x3."""
    models = {"L": {}, "HL": {}}
    for g, m in product((1, 2, 3), repeat=2):
        for ctx in all_contexts(g, m):
            for system, kind in (("L", "protoconcept"), ("HL", "semiconcept")):
                alg = protoconcept_algebra(ctx, kind).algebra
                models[system].setdefault(alg.signature(), alg)
    for _, alg in builtin_fixtures():
        for system in models:
            if logic._algebra_admits(alg, system)[0]:
                models[system].setdefault(alg.signature(), alg)
    return {system: list(algs.values()) for system, algs in models.items()}


_OBJECT_VARS = [Var("x", "object"), Var("y", "object")]
_PROPERTY_VARS = [Var("X", "property")]


def _random_term(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    op = rng.choice([Neg, Opp, Meet, Join])
    if op in (Neg, Opp):
        return op(_random_term(rng, atoms, depth - 1))
    return op(_random_term(rng, atoms, depth - 1), _random_term(rng, atoms, depth - 1))


def _seeded_goals(system, count, seed):
    """Goals of 1-3 components over object and property variables; L goals
    take one object variable, so that the reference loop stays quick."""
    rng = random.Random(seed)
    atoms = ([TOP, BOT] + _PROPERTY_VARS
             + (_OBJECT_VARS if system == "HL" else _OBJECT_VARS[:1]))
    return [Hypersequent(tuple(
                Sequent(_random_term(rng, atoms, 2), _random_term(rng, atoms, 2))
                for _ in range(rng.randrange(1, 4))))
            for _ in range(count)]


@pytest.mark.parametrize("system", ["L", "HL"])
def test_falsifying_env_matches_the_interpreted_loop(system):
    models = _refutation_models()[system]
    refuted = later = 0
    for goal in _seeded_goals(system, 8, seed=1) + [
            parse_hypersequent("x => y ; y => x", system),
            parse_hypersequent("q => q & q ; q | q => q", system),
            parse_hypersequent("T => T & T", system)]:
        first = None
        for alg in models:
            expected = falsifying_env_reference(alg, goal, system)
            assert falsifying_env(alg, goal, system) == expected, (str(goal), alg)
            if expected is not None:
                refuted += 1
                later += any(expected.values())  # not the first assignment
                first = first or (alg, expected)
        named = [(str(i), alg) for i, alg in enumerate(models)]
        got = find_countermodel(goal, system, named)
        assert (got and (got[1], got[2])) == first
    assert refuted > 100 and later > 20


def test_falsifying_env_matches_the_interpreted_loop_on_every_fixture():
    goals = [parse_hypersequent(text, system) for text in (
        "x => y", "x & y => y & x ; y => x", "T => T & T", "x | ~x => T ; F => x & !x")
        for system in ("L", "HL")]
    for _, alg in builtin_fixtures():
        for goal in goals:
            for system in ("L", "HL"):
                try:
                    expected = falsifying_env_reference(alg, goal, system)
                except LogicError as exc:
                    with pytest.raises(LogicError, match=str(exc)):
                        falsifying_env(alg, goal, system)
                else:
                    assert falsifying_env(alg, goal, system) == expected


def test_two_sorts_of_one_variable_are_rejected():
    goal = Hypersequent((Sequent(Var("x", "object"), Var("x", "property")),))
    for system in ("L", "HL"):
        with pytest.raises(LogicError, match="'x' used with two sorts"):
            falsifying_env(chain3(), goal, system)
        # find_countermodel raises only once a model is admitted
        models = list(builtin_fixtures())
        skipped = [(name, alg) for name, alg in models
                   if not logic._algebra_admits(alg, system)[0]]
        assert skipped and find_countermodel(goal, system, skipped) is None
        with pytest.raises(LogicError, match="'x' used with two sorts"):
            find_countermodel(goal, system, models)


def test_find_countermodel_collects_the_goal_sorts_once(monkeypatch):
    calls = []
    var_sorts = logic._var_sorts

    def counting(h):
        calls.append(h)
        return var_sorts(h)

    monkeypatch.setattr(logic, "_var_sorts", counting)
    models = list(builtin_fixtures())
    for system in ("L", "HL"):
        calls.clear()
        goal = parse_hypersequent("x & y => y & x", system)  # valid: every model is tried
        assert find_countermodel(goal, system, models) is None
        assert calls == [goal]


def _neg_chain(t, depth):
    for _ in range(depth):
        t = Neg(t)
    return t


@pytest.mark.parametrize("system", ["L", "HL"])
def test_falsifying_env_depth_limit(system):
    x = Var("x", "object")
    algs = [alg for _, alg in builtin_fixtures() if logic._algebra_admits(alg, system)[0]]
    for alg in algs:
        for goal in (seq(_neg_chain(x, MAX_DEPTH), x), seq(x, _neg_chain(x, MAX_DEPTH)),
                     Hypersequent((Sequent(TOP, x), Sequent(x, _neg_chain(x, MAX_DEPTH))))):
            assert falsifying_env(alg, goal, system) == \
                falsifying_env_reference(alg, goal, system)
        deep = _neg_chain(x, MAX_DEPTH + 1)
        # the deep term raises even where an earlier component always holds
        for goal in (seq(deep, x), seq(x, deep), Hypersequent((Sequent(x, x), Sequent(x, deep)))):
            with pytest.raises(EvalError, match=f"deeper than {MAX_DEPTH}"):
                falsifying_env(alg, goal, system)


def test_falsifying_env_over_more_variables_than_nested_loops():
    # CPython compiles at most 20 nested loops; the rest run in one loop
    vs = [Var(f"v{i:02}") for i in range(25)]

    def join_all(ts):
        return functools.reduce(Join, ts)

    goals = [seq(vs[24], join_all(vs[:24])),      # first witness: v24 = 1
             seq(TOP, join_all(vs)),              # first witness: all 0
             seq(Meet(vs[21], vs[24]), join_all(vs[:21] + vs[22:24]))]
    fixtures = dict(builtin_fixtures())
    for name in ("singleton", "boolean2"):
        for goal in goals:
            assert falsifying_env(fixtures[name], goal, "L") == \
                falsifying_env_reference(fixtures[name], goal, "L")
    zeros = {v.name: 0 for v in vs}
    assert falsifying_env(fixtures["boolean2"], goals[0], "L") == {**zeros, "v24": 1}
    assert falsifying_env(fixtures["boolean2"], goals[2], "L") == \
        {**zeros, "v21": 1, "v24": 1}



def test_the_refuter_over_25_variables_stays_in_one_run_of_cells():
    # the runs fix a prefix of the variables: a run cut along the first
    # variable only would hold 2**24 cells here
    vs = [Var(f"v{i:02}") for i in range(25)]
    goals = [seq(vs[24], functools.reduce(Join, vs[:24])),
             seq(TOP, functools.reduce(Join, vs))]
    alg = boolean2()
    for goal in goals:
        falsifying_env(alg, goal, "L")
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert falsifying_env(alg, goal, "L") is not None
            took = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 3.6 MB: a few intp and bool arrays of one run
        assert peak < 4 * 8 * algebra._VECTOR_CHUNK_CELLS
        assert took < 1


# --- the stacked refuter ----------------------------------------------------------------

def _first_countermodel(goal, system, models):
    """find_countermodel by the reference loop, one model at a time."""
    for name, alg in models:
        if logic._algebra_admits(alg, system)[0]:
            env = falsifying_env_reference(alg, goal, system)
            if env is not None:
                return name, alg, env
    return None


def test_the_only_countermodel_in_a_later_block():
    goal = parse_hypersequent("T => T & T")  # chain3 is the only fixture refuting it
    later = 2 * logic._BLOCK + 5
    models = [(f"b{i}", boolean2()) for i in range(later)] + [("chain3", chain3())]
    got = find_countermodel(goal, "L", models)
    assert got == _first_countermodel(goal, "L", models)
    assert got[0] == "chain3" and got[2] == {}
    # a goal whose witness is not the first assignment, after models of other sizes
    goal = parse_hypersequent("x => x & y")
    models = [(f"s{i}", alg) for i, alg in enumerate(
        [builtin_fixtures()[0][1]] * (logic._BLOCK + 3))] + [("chain3", chain3())]
    got = find_countermodel(goal, "L", models)
    assert got == _first_countermodel(goal, "L", models) == (
        "chain3", models[-1][1], {"x": 1, "y": 0})


@pytest.mark.parametrize("chunk_cells", [1, 2, 7, 40, 4096])
def test_a_witness_past_the_first_run_of_cells(chunk_cells):
    # runs of 1 to 4096 cells: cut along a variable with a prefix fixed,
    # along the model axis, or the whole block in one
    late = 0
    with mock.patch.object(algebra, "_VECTOR_CHUNK_CELLS", chunk_cells):
        for system in ("L", "HL"):
            algs = [alg for alg in _refutation_models()[system] if alg.n <= 12][:30]
            models = [(str(i), alg) for i, alg in enumerate(algs)]
            for goal in _seeded_goals(system, 3, seed=5) + [
                    parse_hypersequent("x => x & y ; y => x", system),
                    parse_hypersequent("x => y ; y => x", system)]:
                assert find_countermodel(goal, system, models) == \
                    _first_countermodel(goal, system, models), str(goal)
                names, kinds = logic._var_sorts(goal)
                for alg in algs:
                    env = falsifying_env(alg, goal, system)
                    assert env == falsifying_env_reference(alg, goal, system), str(goal)
                    if env is not None:
                        cell = 0  # the witness's position in C order
                        for name, kind in zip(names, kinds):
                            values = logic._var_range(alg, kind, system)
                            cell = cell * len(values) + list(values).index(env[name])
                        late += cell >= chunk_cells
    assert late > 0 or chunk_cells > 2


def test_hl_ranges_of_other_lengths_in_one_block():
    models = [(str(i), alg) for i, alg in enumerate(_refutation_models()["HL"])]
    lengths = {tuple(len(logic._var_range(alg, kind, "HL")) for kind in ("object", "property"))
               for _, alg in models[:logic._BLOCK]}
    assert len({a for a, _ in lengths}) > 1 and len({b for _, b in lengths}) > 1
    for text in ("x & X => X & x", "x | X => X ; X => x", "x & y => y & x"):
        goal = parse_hypersequent(text, "HL")
        got = find_countermodel(goal, "HL", models)
        assert got == _first_countermodel(goal, "HL", models), text


def test_a_padded_cell_is_never_the_witness():
    # the stack pads each model's object and property ranges to the widest
    # of its block; in the first block element 0 of some model lies outside
    # its shorter range, and each goal fails at element 0 there: the first
    # two hold on every object or property, the third fails later
    models = [(str(i), alg) for i, alg in enumerate(_refutation_models()["HL"])]
    for kind in ("object", "property"):
        ranges = [logic._var_range(alg, kind, "HL") for _, alg in models[:logic._BLOCK]]
        assert any(0 not in r and len(r) < max(map(len, ranges)) for r in ranges)
    wants = []
    for text in ("x => x & x", "X | X => X", "x => y ; y => x"):
        goal = parse_hypersequent(text, "HL")
        wants.append(_first_countermodel(goal, "HL", models))
        assert find_countermodel(goal, "HL", models) == wants[-1], text
    assert wants[0] is None and wants[1] is None
    assert wants[2][0] == "11" and wants[2][2] == {"x": 1, "y": 2}


@pytest.mark.parametrize("system", ["L", "HL"])
def test_goals_without_variables(system):
    models = builtin_fixtures()
    for text in ("T => T & T", "T => F ; F => T", "F & F => T | T", "~T => !F"):
        goal = parse_hypersequent(text, system)
        got = find_countermodel(goal, system, models)
        assert got == _first_countermodel(goal, system, models), text
        for _, alg in models:
            if logic._algebra_admits(alg, system)[0]:
                assert falsifying_env(alg, goal, system) == \
                    falsifying_env_reference(alg, goal, system)
    assert find_countermodel(parse_hypersequent("T => T & T", system), system,
                             models)[1:] == (models[3][1], {})


def test_the_model_source_is_read_one_block_at_a_time():
    read = []

    def source(models):
        for i, entry in enumerate(models):
            read.append(i)
            yield entry

    goal = parse_hypersequent("T => T & T")
    models = [(f"b{i}", boolean2()) for i in range(3 * logic._BLOCK)]
    for at, blocks in ((3, 1), (logic._BLOCK, 2), (2 * logic._BLOCK - 1, 2)):
        read.clear()
        hit = models[:at] + [("chain3", chain3())] + models[at + 1:]
        assert find_countermodel(goal, "L", source(hit))[0] == "chain3"
        assert read == list(range(blocks * logic._BLOCK))
    read.clear()
    assert find_countermodel(goal, "L", source(models)) is None
    assert read == list(range(len(models)))


def test_a_mutated_model_list_gets_the_new_answer():
    goal = parse_hypersequent("x => x & y")
    models = [("b", boolean2()), ("one", builtin_fixtures()[0][1])]
    assert find_countermodel(goal, "L", models)[0] == "b"
    models[0] = ("c", chain3())
    assert find_countermodel(goal, "L", models)[:2] == ("c", models[0][1])
    del models[0]
    assert find_countermodel(goal, "L", models) is None
    models.append(("b2", boolean2()))
    assert find_countermodel(goal, "L", models)[0] == "b2"


def test_equal_tables_under_other_names_return_the_callers_names():
    goal = parse_hypersequent("x => x & y")
    alg = chain3()
    twin = alg.renamed(["p", "q", "r"])
    for name in ("first", ["a", "list"], 7):
        got = find_countermodel(goal, "L", [(name, alg)])
        assert got[0] == name and got[1] is alg and got[2] == {"x": 1, "y": 0}
    got = find_countermodel(goal, "L", [("twin", twin)])
    assert got[:2] == ("twin", twin) and got[2] == {"x": 1, "y": 0}


@pytest.mark.parametrize("entries, position", [
    ([("a", 3)], 0), ([("a",)], 0), ([("ok", boolean2()), 7], 1),
    ([("ok", boolean2()), ("a", "b", "c")], 1), ([("ok", boolean2()), "ab"], 1),
    ([("ok", boolean2())] * 70 + [None], 70)])
def test_a_malformed_model_entry_is_a_logic_error(entries, position):
    goal = parse_hypersequent("x => x")  # valid: every entry is read
    with pytest.raises(LogicError, match=f"model entry {position} is not a "
                                         r"\(name, FiniteAlgebra\) pair"):
        find_countermodel(goal, "L", entries)


@pytest.mark.alone
def test_the_refuter_compiles_nothing():
    # admission reads each model's DBA23 report, which the checker may
    # compile nests for: the reports are made first, so the test passes
    # alone, and a kernel compiled under the patch is the refuter's own
    models = [(str(i), alg) for i, alg in enumerate(_refutation_models()["L"][:40])]
    chain = chain3()
    for alg in [chain] + [alg for _, alg in models]:
        passes(alg, "DBA23")
    goals = _seeded_goals("L", 5, seed=3)
    with mock.patch.object(algebra, "_kernel", side_effect=AssertionError):
        for goal in goals:
            find_countermodel(goal, "L", models)
            falsifying_env(chain, goal, "L")


def _without_the_collector(test):
    """test run with the cyclic collector off: what it frees, reference
    counting alone freed."""
    @functools.wraps(test)
    def run(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            test(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return run


@pytest.mark.alone
@_without_the_collector
def test_a_refuted_algebra_is_freed_by_reference_counting(fresh_stacks):
    # the stack is kept by its block's table keys: no algebra, no record
    goal = parse_hypersequent("x => x & y")
    b = boolean2()
    for block in (1, 2):
        algs = [_Watched(b.names, b.meet, b.join, b.neg, b.opp, b.top, b.bot)
                for _ in range(block)]
        assert find_countermodel(goal, "L", [("b", a) for a in algs])[2] == {"x": 1, "y": 0}
        watched = [weakref.ref(a) for a in algs]
        del algs
        assert [r() for r in watched] == [None] * block
    key = algebra._facts_of(b).key
    assert list(fresh_stacks.entries) == [("L", key), ("L", key, key)]
    assert type(key) is bytes


def _stacks_built(monkeypatch):
    """The number of models of each stack built from here on."""
    built = []
    stack = logic._Stack

    def counted(**arrays):
        built.append(arrays["offset"].size)
        return stack(**arrays)

    monkeypatch.setattr(logic, "_Stack", counted)
    return built


def _contexts_2x2(prefix):
    """The 26 protoconcept algebras of the contexts up to 2x2, freshly built,
    each named and with its elements named after the prefix."""
    algs = [protoconcept_algebra(ctx).algebra
            for g, m in ((1, 1), (1, 2), (2, 1), (2, 2)) for ctx in all_contexts(g, m)]
    return [(f"{prefix}{i}", alg.renamed([f"{prefix}{x}" for x in range(alg.n)]))
            for i, alg in enumerate(algs)]


@pytest.mark.alone
def test_equal_tables_under_other_names_reuse_the_stacks(fresh_stacks, monkeypatch):
    # the 26 models hold 19 table sets; a second list, freshly built under
    # other names, builds no stack and is answered in its own names
    built = _stacks_built(monkeypatch)
    goals = [(parse_hypersequent(text, system), system) for text, system in (
        ("x & y => y & x", "L"), ("x => x & y", "L"), ("x & X => X & x", "HL"),
        ("x | X => X ; X => x", "HL"))]
    first = _contexts_2x2("a")
    want = [find_countermodel(goal, system, first) for goal, system in goals]
    assert built == [26, 14] and want[0] is want[2] is None
    second = _contexts_2x2("b")
    for (goal, system), found in zip(goals, want):
        if found is not None:
            name, alg = second[first.index(found[:2])]
            found = name, alg, found[2]
        assert find_countermodel(goal, system, second) == found
    assert built == [26, 14]
    assert len({algebra._facts_of(alg) for _, alg in first}) == 19


@pytest.mark.alone
def test_the_stacks_never_charge_more_than_their_bound(fresh_records, fresh_stacks, monkeypatch):
    # blocks of distinct table sets, each of one 64-element model and up to
    # 63 small ones: a stack is charged its cells, but at least the store's
    # floor; past the bound the least recently used go
    store = fresh_stacks
    store.bound, store.floor = 1 << 14, 64 * 64
    goal = parse_hypersequent("x & y => y & x")
    big = protoconcept_algebra(_ctx([[1] * 3] * 3)).algebra
    small = {}
    for _, base in _contexts_2x2("m"):
        for p in islice(permutations(range(base.n)), 60):
            alg = _relabelled(base, np.array(p))
            small.setdefault(alg.signature(), alg)
    small = iter(small.values())
    rng = np.random.default_rng(4)
    for k in (0, 39, 63, 1, 32, 20) * 2:
        block = [_relabelled(big, rng.permutation(big.n)), *islice(small, k)]
        assert len(block) == k + 1
        assert find_countermodel(goal, "L", [("m", alg) for alg in block]) is None
        assert sum(charge for _, charge in store.entries.values()) == store.cells <= store.bound
        for key, (stack, charge) in store.entries.items():
            sizes = np.diff(stack.offset, append=stack.row.size)
            assert len(key) == 1 + sizes.size and sizes[0] == big.n
            assert charge == max(sum(n * n for n in sizes), store.floor)
    assert {charge for _, charge in store.entries.values()} != {store.floor}
    assert 1 < len(store.entries) < 12  # some were evicted
    # a stack charged past the bound is answered but not kept
    built = _stacks_built(monkeypatch)
    monkeypatch.setattr(logic, "_STACKS", algebra._LRU(fresh_stacks.floor - 1, fresh_stacks.floor))
    for _ in range(2):
        assert find_countermodel(goal, "L", [("b", boolean2())]) is None
    assert built == [1, 1] and not logic._STACKS.entries


@_without_the_collector
def test_an_algebra_born_at_a_reused_address_gets_its_own_answer():
    # the second algebra of each block dies with the block; the next one is
    # mostly born at its address (ids are reused) and must not get its stack
    goal = parse_hypersequent("x => x & y")
    kept = singleton()  # the goal holds in it
    ids = set()
    for k in range(40):
        alg = boolean2() if k % 2 else singleton()
        ids.add(id(alg))
        found = find_countermodel(goal, "L", [("one", kept), ("other", alg)])
        if k % 2:
            assert found[0] == "other" and found[2] == {"x": 1, "y": 0}
        else:
            assert found is None
        del alg, found
    assert len(ids) < 40  # some address was reused


# --- local soundness ------------------------------------------------------------------

_SAMPLE_FORMULAS = [
    parse_term("x"), parse_term("y"), parse_term("x & y"), parse_term("x | y"),
    parse_term("~x"), parse_term("!y"), parse_term("T"), parse_term("F"),
]


def _envs(alg, names):
    return [dict(zip(names, values))
            for values in product(range(alg.n), repeat=len(names))]


def test_axioms_locally_sound_on_contextual_fixtures():
    binding_vars = ("A*", "B*", "C*")
    samples = list(product(_SAMPLE_FORMULAS, repeat=3))[::23]  # deterministic spread
    for name, alg in contextual_fixtures():
        for schema in AXIOM_SCHEMAS:
            if schema.hl_only:
                continue
            for values in samples:
                binding = dict(zip(binding_vars, values))
                s = Sequent(_substitute(schema.lhs, binding),
                            _substitute(schema.rhs, binding))
                for env in _envs(alg, ("x", "y")):
                    assert eval_sequent(alg, s, env), (name, schema.id, env)


def test_rules_locally_sound_instancewise():
    x, y, z = parse_term("x"), parse_term("y"), parse_term("z")
    unary = {
        "meetR": (Sequent(x, y), Sequent(Meet(x, z), Meet(y, z))),
        "meetL": (Sequent(x, y), Sequent(Meet(z, x), Meet(z, y))),
        "joinR": (Sequent(x, y), Sequent(Join(x, z), Join(y, z))),
        "joinL": (Sequent(x, y), Sequent(Join(z, x), Join(z, y))),
        "neg": (Sequent(x, y), Sequent(Neg(y), Neg(x))),
        "opp": (Sequent(x, y), Sequent(Opp(y), Opp(x))),
    }
    for name, alg in contextual_fixtures():
        for rule, (prem, concl) in unary.items():
            for env in _envs(alg, ("x", "y", "z")):
                if eval_sequent(alg, prem, env):
                    assert eval_sequent(alg, concl, env), (name, rule, env)
        # cut
        for env in _envs(alg, ("x", "y", "z")):
            if eval_sequent(alg, Sequent(x, y), env) and \
                    eval_sequent(alg, Sequent(y, z), env):
                assert eval_sequent(alg, Sequent(x, z), env), (name, "cut", env)
        # the order rule
        for env in _envs(alg, ("x", "y")):
            if all(eval_sequent(alg, p, env) for p in _sq_premises(x, y)):
                assert eval_sequent(alg, Sequent(x, y), env), (name, "sq", env)


def test_valid_script_conclusions_true_in_contextual_fixtures():
    for script_name, script in fixture_proofs():
        assert script.system == "L"
        concl = script.conclusion()
        for name, alg in contextual_fixtures():
            assert is_true_in(alg, concl, "L"), (script_name, name)


# --- the rule table: checker and search against reference checkers ---------------
#
# The reference checkers below test each rule forward on its own, with a
# separate system L branch; the checker in dbakit.logic reads the rule table
# that the search applies backward.  Both must give the same verdicts, and
# every backward step the search can take must pass the reference.

def _unary_core(rule: str, prem: Sequent, concl: Sequent) -> bool:
    if rule == "meetR":
        return (isinstance(concl.ant, Meet) and isinstance(concl.suc, Meet)
                and concl.ant.left == prem.ant and concl.suc.left == prem.suc
                and concl.ant.right == concl.suc.right)
    if rule == "meetL":
        return (isinstance(concl.ant, Meet) and isinstance(concl.suc, Meet)
                and concl.ant.right == prem.ant and concl.suc.right == prem.suc
                and concl.ant.left == concl.suc.left)
    if rule == "joinR":
        return (isinstance(concl.ant, Join) and isinstance(concl.suc, Join)
                and concl.ant.left == prem.ant and concl.suc.left == prem.suc
                and concl.ant.right == concl.suc.right)
    if rule == "joinL":
        return (isinstance(concl.ant, Join) and isinstance(concl.suc, Join)
                and concl.ant.right == prem.ant and concl.suc.right == prem.suc
                and concl.ant.left == concl.suc.left)
    if rule == "neg":
        return concl.ant == Neg(prem.suc) and concl.suc == Neg(prem.ant)
    if rule == "opp":
        return concl.ant == Opp(prem.suc) and concl.suc == Opp(prem.ant)
    raise LogicError(f"not a unary rule: {rule}")


def _check_unary(rule, prem: Hypersequent, concl: Hypersequent, system) -> bool:
    if system == "L":
        return len(prem) == 1 and len(concl) == 1 and _unary_core(rule, prem[0], concl[0])
    if len(prem) != len(concl):
        return False
    for k in range(len(concl)):
        if prem.components[:k] == concl.components[:k] \
                and prem.components[k + 1:] == concl.components[k + 1:] \
                and _unary_core(rule, prem[k], concl[k]):
            return True
    return False


def _check_cut(p1: Hypersequent, p2: Hypersequent, concl: Hypersequent, system) -> bool:
    if system == "L":
        if len(p1) != 1 or len(p2) != 1 or len(concl) != 1:
            return False
        a, b, c = p1[0], p2[0], concl[0]
        return a.suc == b.ant and c.ant == a.ant and c.suc == b.suc
    for k1 in range(len(p1)):
        s1 = p1[k1]
        for k2 in range(len(p2)):
            s2 = p2[k2]
            if s1.suc != s2.ant:
                continue
            expected = (p1.components[:k1] + p2.components[:k2]
                        + (Sequent(s1.ant, s2.suc),)
                        + p1.components[k1 + 1:] + p2.components[k2 + 1:])
            if expected == concl.components:
                return True
    return False


def _check_sq(prems: list[Hypersequent], concl: Hypersequent, system) -> bool:
    if len(prems) != 4:
        return False
    if system == "L":
        if len(concl) != 1 or any(len(p) != 1 for p in prems):
            return False
        phi, psi = concl[0].ant, concl[0].suc
        return tuple(p[0] for p in prems) == _sq_premises(phi, psi)
    for a in range(len(concl)):
        phi, psi = concl[a].ant, concl[a].suc
        expected = _sq_premises(phi, psi)
        positions = []
        for i in range(4):
            positions.append([k for k in range(len(prems[i]))
                              if prems[i][k] == expected[i]])
        for k1 in positions[0]:
            for k2 in positions[1]:
                for k3 in positions[2]:
                    for k4 in positions[3]:
                        pre = (prems[0].components[:k1] + prems[1].components[:k2]
                               + prems[2].components[:k3] + prems[3].components[:k4])
                        post = (prems[0].components[k1 + 1:] + prems[1].components[k2 + 1:]
                                + prems[2].components[k3 + 1:] + prems[3].components[k4 + 1:])
                        if pre + (concl[a],) + post == concl.components:
                            return True
    return False


def _check_structural(rule, prem: Hypersequent, concl: Hypersequent) -> bool:
    if rule == "ee":
        return any(
            concl.components == prem.components[:k]
            + (prem[k + 1], prem[k]) + prem.components[k + 2:]
            for k in range(len(prem) - 1))
    return (len(concl) == len(prem) + 1
            and concl.components[:-1] == prem.components)


_UNARY_RULES = ("meetR", "meetL", "joinR", "joinL", "neg", "opp")

# a small alphabet, so that random pairs often share subterms
_small_terms = st.recursive(
    st.sampled_from([Var("x"), Var("y"), parse_term("T"), parse_term("F")]),
    lambda sub: st.one_of(
        st.builds(Neg, sub), st.builds(Opp, sub),
        st.builds(Meet, sub, sub), st.builds(Join, sub, sub)),
    max_leaves=4)
_small_sequents = st.builds(Sequent, _small_terms, _small_terms)


def _hyp(comps):
    return Hypersequent(tuple(comps))


def _near_miss(data, h: Hypersequent, system: str) -> Hypersequent:
    """h with one component's sides swapped or replaced, or (HL) with a
    component dropped, added or moved."""
    comps = list(h.components)
    k = data.draw(st.integers(0, len(comps) - 1))
    kinds = ["swap", "replace"] + (["drop", "add", "move"] if system == "HL" else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "swap":
        comps[k] = Sequent(comps[k].suc, comps[k].ant)
    elif kind == "replace":
        comps[k] = data.draw(_small_sequents)
    elif kind == "drop" and len(comps) > 1:
        del comps[k]
    elif kind == "add":
        comps.insert(k, data.draw(_small_sequents))
    else:
        comps.insert(data.draw(st.integers(0, len(comps) - 1)), comps.pop(k))
    return _hyp(comps)


def _context(data, system):
    """Components around the active one: none in L, up to two each side in HL."""
    size = 0 if system == "L" else 2
    return (data.draw(st.lists(_small_sequents, max_size=size)),
            data.draw(st.lists(_small_sequents, max_size=size)))


def _unary_forward(rule, s: Sequent, side: Term) -> Sequent:
    a, b = s.ant, s.suc
    return {
        "meetR": Sequent(Meet(a, side), Meet(b, side)),
        "meetL": Sequent(Meet(side, a), Meet(side, b)),
        "joinR": Sequent(Join(a, side), Join(b, side)),
        "joinL": Sequent(Join(side, a), Join(side, b)),
        "neg": Sequent(Neg(b), Neg(a)),
        "opp": Sequent(Opp(b), Opp(a)),
    }[rule]


_systems = st.sampled_from(["L", "HL"])


def _checks(rule, prems, concl) -> bool:
    """The proof checker's verdict on a line of this rule and premises."""
    arity, local = logic._CONTEXT_RULES[rule]
    return len(prems) == arity and logic._derives(prems, concl, local)


@settings(max_examples=300, deadline=None)
@given(st.data(), _systems, st.sampled_from(_UNARY_RULES), _small_sequents, _small_terms)
def test_unary_checker_matches_reference(data, system, rule, prem_seq, side):
    pre, post = _context(data, system)
    prem = _hyp(pre + [prem_seq] + post)
    concl = _hyp(pre + [_unary_forward(rule, prem_seq, side)] + post)
    cases = [(rule, prem, concl),
             (data.draw(st.sampled_from(_UNARY_RULES)), prem, concl),
             (rule, _near_miss(data, prem, system), concl),
             (rule, prem, _near_miss(data, concl, system)),
             (rule, _hyp(pre + [data.draw(_small_sequents)] + post), concl)]
    assert _checks(rule, [prem], concl)
    for r, p, c in cases:
        if system == "L" and (len(p) != 1 or len(c) != 1):
            continue  # check_proof rejects these before any rule checker
        assert _checks(r, [p], c) == _check_unary(r, p, c, system), (r, p, c)


@settings(max_examples=300, deadline=None)
@given(st.data(), _systems, _small_terms, _small_terms, _small_terms)
def test_cut_checker_matches_reference(data, system, a, chi, b):
    pre1, post1 = _context(data, system)
    pre2, post2 = _context(data, system)
    p1 = _hyp(pre1 + [Sequent(a, chi)] + post1)
    p2 = _hyp(pre2 + [Sequent(chi, b)] + post2)
    concl = _hyp(pre1 + pre2 + [Sequent(a, b)] + post1 + post2)
    cases = [(p1, p2, concl), (p2, p1, concl),
             (_near_miss(data, p1, system), p2, concl),
             (p1, _near_miss(data, p2, system), concl),
             (p1, p2, _near_miss(data, concl, system)),
             (p1, _hyp([data.draw(_small_sequents)]), concl)]
    assert _checks("cut", [p1, p2], concl)
    for q1, q2, c in cases:
        assert _checks("cut", [q1, q2], c) == _check_cut(q1, q2, c, system), (q1, q2, c)


@settings(max_examples=300, deadline=None)
@given(st.data(), _systems, _small_terms, _small_terms)
def test_sq_checker_matches_reference(data, system, phi, psi):
    pres = [_context(data, system) for _ in range(4)]
    prems = [_hyp(pre + [p] + post) for (pre, post), p in zip(pres, _sq_premises(phi, psi))]
    concl = _hyp([c for pre, _ in pres for c in pre] + [Sequent(phi, psi)]
                 + [c for _, post in pres for c in post])
    i = data.draw(st.integers(0, 3))
    mutated = list(prems)
    mutated[i] = _near_miss(data, prems[i], system)
    cases = [(prems, concl), (prems[::-1], concl), (prems[:3], concl), (mutated, concl),
             (prems, _near_miss(data, concl, system)),
             (prems, _hyp([Sequent(psi, phi)]))]
    assert _checks("sq", prems, concl)
    for ps, c in cases:
        assert _checks("sq", ps, c) == _check_sq(ps, c, system), (ps, c)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.lists(_small_sequents, min_size=1, max_size=4))
def test_structural_checks_match_reference(data, comps):
    concl = _hyp(comps)
    prems = [_near_miss(data, concl, "HL"), _hyp(comps[:-1] or comps), _hyp(comps[::-1])]
    for rule in ("ee", "ew"):
        for prem in prems:
            assert ((rule, prem.components) in logic._structural_premises(concl.components)) \
                == _check_structural(rule, prem, concl), (rule, prem, concl)


@settings(max_examples=200, deadline=None)
@given(_systems, st.lists(_small_sequents, min_size=1, max_size=3),
       st.lists(_small_terms, max_size=4))
def test_every_backward_step_passes_the_reference_checkers(system, comps, pool):
    h = _hyp(comps[:1] if system == "L" else comps)
    steps = [(rule, [Hypersequent(p) for p in prems]) for rule, prems in
             logic._backward_steps(h, system == "HL", lambda ant, suc: pool)]
    assert sum(rule == "sq" for rule, _ in steps) == len(h)
    for rule, prems in steps:
        if system == "L":
            assert all(len(p) == 1 for p in prems)
        if rule in _UNARY_RULES:
            ok = _check_unary(rule, prems[0], h, system)
        elif rule == "cut":
            ok = _check_cut(prems[0], prems[1], h, system)
        elif rule == "sq":
            ok = _check_sq(prems, h, system)
        else:
            ok = system == "HL" and _check_structural(rule, prems[0], h)
        assert ok, (rule, prems, h)


_hl_goals = st.lists(st.builds(Sequent, _small_terms, _small_terms), min_size=2, max_size=3)


@settings(max_examples=25, deadline=None)
@given(_hl_goals)
def test_hl_search_output_rechecks(comps):
    # search_proof raises LogicError when its proof fails check_proof
    script = search_proof(_hyp(comps), "HL", 3)
    assert script is None or check_proof(script).valid


# --- proof search with caller lemmas and wider HL goals -------------------------------

_LEMMA_AND_WIDE_GOALS = [
    ("L", "x & y => y & x", ["p & q => (p & q) & (p & q)", "x => x"], 6),
    ("L", "x & y => y & x", ["p & q => (p & q) & (p & q)", "y & x => x", "x | y => y"], 6),
    ("L", "~~(x & y) => (x & y) & (x & y)", ["x => y"], 3),
    ("L", "~~(x & y) => (x & y) & (x & y)", ["x & y => y", "~x => ~y", "T => x"], 3),
    ("L", "x & y => (x & y) & (x & y)", ["x => x & x"], 8),
    ("HL", "p & P => p ; P => p ; q => F", ["p => P"], 3),
    ("HL", "P => q ; p & p => p ; T => P", ["q => P", "F => p"], 4),
    ("HL", "P => p ; q => q ; F => P", ["p & q => q & p"], 4),
    ("HL", "q => q & q ; q | q => q ; p => P ; T => F", ["p => q", "P => T", "q => F"], 3),
    ("HL", "p & p => p ; p => F ; F => p ; T => p", ["p => T"], 4),
    ("HL", "P => P | P ; P => F ; T => P ; P => T", ["P => F", "T => T"], 4),
    ("HL", "q => q ; p => P ; P => q ; F => T", ["q => P", "P => p", "T => F"], 4),
]


@pytest.mark.parametrize("system, goal, lemmas, depth", _LEMMA_AND_WIDE_GOALS)
def test_search_with_lemmas_and_wide_goals_rechecks(system, goal, lemmas, depth):
    goal = parse_hypersequent(goal, system)
    lemmas = [parse_sequent(text, system) for text in lemmas]
    script = search_proof(goal, system, depth, lemmas=lemmas)
    assert script is not None
    assert check_proof(script).valid
    assert script.conclusion() == goal


@settings(max_examples=20, deadline=None)
@given(_systems, st.lists(_small_sequents, min_size=1, max_size=4),
       st.lists(_small_sequents, min_size=1, max_size=3))
def test_search_output_with_lemma_pools_rechecks(system, comps, lemmas):
    goal = _hyp(comps[:1] if system == "L" else comps)
    # search_proof raises LogicError when its proof fails check_proof
    script = search_proof(goal, system, 3, lemmas=lemmas)
    assert script is None or (check_proof(script).valid and script.conclusion() == goal)


# --- the indexed cut candidates against the pool scan ---------------------------------

def cut_candidates_reference(pool, instance_pairs, s: Sequent):
    """Admissible pool cuts for s: at least one premise must be nearly
    closable, instance-closing cuts ordered first.  Cuts whose premises
    would both need long sub-proofs are not attempted (the search is
    best-effort, not complete)."""
    def nearly_closable(ant: Term, suc: Term) -> bool:
        """ant => suc is an instance of the pool templates, or one unary rule
        step away from one.  Cheap set lookups only."""
        if ant == suc or (ant, suc) in instance_pairs:
            return True
        return any(a == b or (a, b) in instance_pairs
                   for _, a, b in logic._unary_premises(ant, suc))

    scored = []
    for chi in pool:
        if chi == s.ant or chi == s.suc:
            continue
        ldone = (s.ant, chi) in instance_pairs
        rdone = (chi, s.suc) in instance_pairs
        if not (ldone or rdone or nearly_closable(s.ant, chi)
                or nearly_closable(chi, s.suc)):
            continue
        scored.append((2 - ldone - rdone, chi))
    scored.sort(key=lambda item: item[0])
    return scored


def _cut_pool(goal, system, lemmas):
    """The cut pool as terms, the reference for ``logic._key_pool``: every
    side of every axiom schema and caller lemma instantiated with
    subformulas of the goal (a tuple of (ant, suc) pairs), each mapped to
    its position in first-seen order, plus the instantiated sequents."""
    pool: dict[Term, int] = {}
    for pair in goal:
        for side in pair:
            for t in subterms(side):
                pool.setdefault(t, len(pool))
    subs = list(pool)
    instance_pairs: set[tuple[Term, Term]] = set()
    # schemas share sides (A*, A* & B*, ...), and a side's instance depends
    # only on the values of its own variables
    instances: dict = {}

    def instantiate(side: Term, binding: dict) -> Term:
        key = (side, *map(binding.__getitem__, variables(side)))
        t = instances.get(key)
        if t is None:
            t = instances[key] = _substitute(side, binding)
        pool.setdefault(t, len(pool))
        return t

    templates = [(s.lhs, s.rhs, s.var_sort) for s in AXIOM_SCHEMAS
                 if not (s.hl_only and system != "HL")]
    for s in lemmas or ():
        templates.append((s.ant, s.suc, None))
    for lhs, rhs, var_sort in templates:
        metavars = sorted(set(variables(lhs)) | set(variables(rhs)))
        k = len(metavars)
        if k > 2 and (len(subs) > 8 or len(subs) ** k > 8 ** 4):
            continue  # keep the pool small for wide templates on big goals
        for values in product(subs, repeat=k):
            if var_sort is not None and not all(
                    isinstance(v, Var) and v.sort == var_sort for v in values):
                continue
            binding = dict(zip(metavars, values))
            instance_pairs.add((instantiate(lhs, binding), instantiate(rhs, binding)))
    return pool, instance_pairs


def _scan_candidates(goal, system, lemmas):
    """The search's (candidates, term) pair, computed by the scan over the
    term pool: its candidates are terms already."""
    pool, instance_pairs = _cut_pool(goal, system, lemmas)
    scan = functools.partial(cut_candidates_reference, pool, instance_pairs)
    return functools.cache(lambda ant, suc: scan(Sequent(ant, suc))), lambda chi: chi


def _compare_candidates(monkeypatch):
    """Makes the search check, for every sequent it asks for cut candidates,
    that the structural pool's answer, read as terms, equals the term pool
    scan's, item for item and in order; returns the list of sequents asked."""
    asked = []
    indexed_candidates = logic._cut_candidates

    def checked(goal, system, lemmas):
        indexed, term = indexed_candidates(goal, system, lemmas)
        scan, _ = _scan_candidates(goal, system, lemmas)

        def candidates(ant, suc):
            got = indexed(ant, suc)
            assert [(score, term(chi)) for score, chi in got] == scan(ant, suc), (
                str(goal), render(ant), render(suc))
            asked.append((ant, suc))
            return got
        return candidates, term

    monkeypatch.setattr(logic, "_cut_candidates", checked)
    return asked


@pytest.fixture
def compared_candidates(monkeypatch):
    return _compare_candidates(monkeypatch)


@pytest.mark.parametrize("goal, depth", [(g, d) for g, d, _ in GOLDEN_PROOFS]
                         + [("x | y => y | x", 4), ("T => T & T", 4), ("x => y", 8)])
def test_indexed_candidates_match_the_scan_on_golden_goals(compared_candidates, goal, depth):
    search_proof(parse_hypersequent(goal, "L"), "L", depth)
    assert len(compared_candidates) > 20
    # sides deeper than any pool key, which are never converted to keys
    reach = 1 + max(t.depth for pair in parse_hypersequent(goal) for t in pair) + max(
        t.depth for s in AXIOM_SCHEMAS for t in (s.lhs, s.rhs))
    assert goal != "x => y" or any(min(a.depth, s.depth) > reach for a, s in compared_candidates)


@pytest.mark.parametrize("system, goal, lemmas, depth", _LEMMA_AND_WIDE_GOALS)
def test_indexed_candidates_match_the_scan_with_lemmas(compared_candidates, system, goal,
                                                       lemmas, depth):
    search_proof(parse_hypersequent(goal, system), system, depth,
                 lemmas=[parse_sequent(text, system) for text in lemmas])
    assert compared_candidates


@settings(max_examples=40, deadline=None)
@given(_systems, st.lists(_small_sequents, min_size=1, max_size=3),
       st.lists(_small_sequents, max_size=3))
def test_indexed_candidates_match_the_scan_on_drawn_goals(system, comps, lemmas):
    with pytest.MonkeyPatch.context() as mp:
        _compare_candidates(mp)
        search_proof(_hyp(comps[:1] if system == "L" else comps), system, 3, lemmas=lemmas)


def _search_goals(count, seed):
    """Seeded (system, goal, lemmas), alternately L and HL, with up to two
    lemmas of at most one connective a side.  Every third goal a => b | t
    chains an axiom instance a => b with join-intro-l, so that its proofs
    take a cut; the others are random, of one component in L and one or two
    in HL."""
    rng = random.Random(seed)
    atoms = {"L": [TOP, BOT, Var("x"), Var("y")],
             "HL": [TOP, BOT] + _OBJECT_VARS + _PROPERTY_VARS}
    schemas = [s for s in AXIOM_SCHEMAS if not s.hl_only]
    out = []
    for k in range(count):
        system = "L" if k % 2 else "HL"

        def term(depth):
            return _random_term(rng, atoms[system], depth)

        if k % 3 == 0:
            schema = rng.choice(schemas)
            binding = {v: term(1) for v in ("A*", "B*", "C*")}
            goal = seq(_substitute(schema.lhs, binding),
                       Join(_substitute(schema.rhs, binding), term(1)))
        else:
            goal = _hyp(Sequent(term(2), term(2))
                        for _ in range(1 if system == "L" else rng.randrange(1, 3)))
        out.append((system, goal, [Sequent(term(1), term(1)) for _ in range(rng.randrange(3))]))
    return out


def test_search_output_equals_the_scan_based_search(monkeypatch):
    goals = _search_goals(150, seed=9)
    indexed = [search_proof(goal, system, 3, lemmas=lemmas) for system, goal, lemmas in goals]
    monkeypatch.setattr(logic, "_cut_candidates", _scan_candidates)
    scanned = [search_proof(goal, system, 3, lemmas=lemmas) for system, goal, lemmas in goals]
    assert ([s and render_script(s) for s in indexed]
            == [s and render_script(s) for s in scanned])
    proved = [s for s in indexed if s is not None]
    assert len(proved) > 60 and sum(any(line.rule == "cut" for line in s.lines)
                                    for s in proved) > 50


def _drawn_goals_and_lemmas():
    return st.tuples(_systems, st.lists(_small_sequents, min_size=1, max_size=3),
                     st.lists(_small_sequents, max_size=3))


@settings(max_examples=60, deadline=None)
@given(_drawn_goals_and_lemmas())
def test_the_key_pool_equals_the_term_pool(drawn):
    # the structural pool, read as terms, is the term pool: the same positions
    # and the same instance pairs
    system, comps, lemmas = drawn
    goal = _hyp(comps)
    position, pairs, _, depth = logic._key_pool(goal, system, lemmas)
    memo = {t: t for t in position if not isinstance(t, tuple)}
    as_term = functools.partial(logic._convert, memo=memo)
    pool, instance_pairs = _cut_pool(goal, system, lemmas)
    assert {as_term(k): i for k, i in position.items()} == pool
    assert {(as_term(a), as_term(b)) for a, b in pairs} == instance_pairs
    assert all(t.depth <= depth for t in pool)


@settings(max_examples=40, deadline=None)
@given(_drawn_goals_and_lemmas(), st.data())
def test_candidates_of_pool_terms_and_of_terms_past_the_pool_equal_the_scan(drawn, data):
    # sequents the search may not reach: the deepest pool terms and drawn
    # ones, under up to two more connectives, so some sides are deeper than
    # any pool key and are never converted to one
    system, comps, lemmas = drawn
    goal = _hyp(comps)
    candidates, term = logic._cut_candidates(goal, system, lemmas)
    scan, _ = _scan_candidates(goal, system, lemmas)
    pool = list(_cut_pool(goal, system, lemmas)[0])
    picked = sorted(pool, key=lambda t: -t.depth)[:3] + data.draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    sides = [w for t in picked for u in (t, Neg(t), Meet(t, picked[0]))
             for w in (u, Opp(u), Join(picked[-1], u))]
    for _ in range(20):
        ant, suc = data.draw(st.sampled_from(sides)), data.draw(st.sampled_from(sides))
        assert [(score, term(chi)) for score, chi in candidates(ant, suc)] == scan(ant, suc)


def test_search_proof_depth_limit(monkeypatch):
    # goals and lemmas at MAX_DEPTH still search, and each candidate equals
    # the term pool scan's; one level deeper, a goal or lemma side raises
    # before the search builds its cut pool
    x, y, a = Var("x"), Var("y"), Var("a")
    at_limit = _neg_chain(a, MAX_DEPTH)
    for goal, lemmas, depth in [(seq(_neg_chain(x, MAX_DEPTH), y), [], 2),
                                (seq(x, y), [Sequent(a, at_limit), Sequent(at_limit, a)], 3),
                                (seq(x, Neg(Neg(x))), [Sequent(a, at_limit)], 3)]:
        with pytest.MonkeyPatch.context() as mp:
            asked = _compare_candidates(mp)
            assert search_proof(goal, "L", depth, lemmas=lemmas) is None
        assert asked
    built = []
    key_pool = logic._key_pool
    monkeypatch.setattr(logic, "_key_pool", lambda *args: built.append(args) or key_pool(*args))
    deep, p = _neg_chain(a, MAX_DEPTH + 1), Var("p", "object")
    for system, goal, lemmas in [
            ("L", seq(_neg_chain(x, MAX_DEPTH + 1), y), []),
            ("HL", Hypersequent((Sequent(p, p), Sequent(p, _neg_chain(p, MAX_DEPTH + 1)))), []),
            ("L", seq(x, y), [Sequent(deep, a)]),
            ("L", seq(x, y), [Sequent(a, deep)])]:
        with pytest.raises(EvalError, match=f"deeper than {MAX_DEPTH}"):
            search_proof(goal, system, 3, lemmas=lemmas)
    assert built == []


# a goal of 8 subformulas: the widest on which templates of 3 or more
# metavariables are kept
_EIGHT_SUBTERMS = "~(x & y) => !(x | y) & z"


@pytest.mark.parametrize("lemma, kept", [
    ("a & b & c => a", True),
    ("a & b => c | d", True),  # 8**4 bindings: kept
    ("a & b & c => d | e", False),  # 8**5
    ("a & b & c & d => e | f | g | h", False),  # 8**8
])
def test_a_lemma_of_many_variables_is_skipped_past_8_to_the_4_bindings(lemma, kept):
    goal = parse_hypersequent(_EIGHT_SUBTERMS)
    assert len(set(t for c in goal.components for t in (*subterms(c.ant), *subterms(c.suc)))) == 8
    lemma = parse_sequent(lemma)
    without = logic._key_pool(goal, "L", [])
    start = time.perf_counter()
    with_lemma = logic._key_pool(goal, "L", [lemma])
    assert (with_lemma[:2] != without[:2]) == kept
    assert time.perf_counter() - start < 1


def test_a_search_with_an_8_variable_lemma_returns_within_a_second():
    # 8**8 bindings: the lemma adds no instances
    goal = parse_hypersequent(_EIGHT_SUBTERMS)
    lemma = parse_sequent("a & b & c & d => e | f | g | h")
    start = time.perf_counter()
    assert search_proof(goal, "L", 3, lemmas=[lemma]) is None
    assert time.perf_counter() - start < 1


# sorted and generic variables and the constants, so that every schema,
# sorted ones included, has instances among the drawn sequents
_leaf_terms = st.recursive(
    st.sampled_from([Var("x"), Var("y"), Var("p", "object"), Var("q", "object"),
                     Var("P", "property"), TOP, BOT]),
    lambda sub: st.one_of(
        st.builds(Neg, sub), st.builds(Opp, sub),
        st.builds(Meet, sub, sub), st.builds(Join, sub, sub)),
    max_leaves=3)


@st.composite
def _near_instances(draw):
    """A sequent that is a schema instance, or one side of one, or an
    instance of the lhs under one binding and of the rhs under another (a
    repeated metavariable bound twice), or a drawn sequent."""
    schema = draw(st.sampled_from(AXIOM_SCHEMAS))
    binding, other = ({v: draw(_leaf_terms) for v in ("A*", "B*", "C*")} for _ in range(2))
    ant, suc = _substitute(schema.lhs, binding), _substitute(schema.rhs, binding)
    kind = draw(st.sampled_from(["instance", "ant", "suc", "two bindings", "drawn"]))
    if kind == "ant":
        ant = draw(_leaf_terms)
    elif kind == "suc":
        suc = draw(_leaf_terms)
    elif kind == "two bindings":
        suc = _substitute(schema.rhs, other)
    elif kind == "drawn":
        ant, suc = draw(_leaf_terms), draw(_leaf_terms)
    return Sequent(ant, suc)


@settings(max_examples=500, deadline=None)
@given(_near_instances(), st.booleans())
def test_compiled_leaves_equal_the_generic_matcher(s, hl):
    for schema in AXIOM_SCHEMAS:
        assert logic._axiom_test(schema)(s.ant, s.suc) == schema_matches(schema, s), schema.id
    ids = [schema.id for schema in AXIOM_SCHEMAS
           if (hl or not schema.hl_only) and schema_matches(schema, s)]
    assert axiom_match(s, "HL" if hl else "L") == ids
    first = ids[:1]
    tree = logic._leaf(((s.ant, s.suc),), hl)
    assert (tree and tree[1:]) == (None if not first else ("id-axiom", (), None)
                                   if first == ["id"] else ("axiom", (), first[0]))


def test_every_schema_compiles_even_one_without_a_condition():
    # two distinct metavariables constrain nothing: every sequent matches,
    # as under the recursive matcher
    schema = logic.AxiomSchema("any", Var("A*"), Var("B*"))
    for text in ("x => y", "T => ~(x & y)", "F | x => x"):
        s = parse_sequent(text)
        assert logic._axiom_test(schema)(*s) and schema_matches(schema, s)
    sorted_schema = logic.AxiomSchema("objects", Var("A*"), Var("B*"), var_sort="object")
    for text, want in (("x => y", True), ("x => X", False), ("x & x => y", False)):
        s = parse_sequent(text, "HL")
        assert logic._axiom_test(sorted_schema)(*s) == schema_matches(sorted_schema, s) == want


# --- the system argument and the search depth ---------------------------------

def _by_system(system):
    """One call per function that takes a system, each with valid other
    arguments: an algebra that is contextual and pure, and a model list
    that a check of the algebra's class would skip for L."""
    from dbakit.fixtures import noncontextual4
    goal = parse_hypersequent("x => y")
    return {
        "parse_sequent": lambda: parse_sequent("x => y", system),
        "parse_hypersequent": lambda: parse_hypersequent("x => y", system),
        "falsifying_env": lambda: falsifying_env(chain3(), goal, system),
        "is_true_in": lambda: is_true_in(chain3(), goal, system),
        "find_countermodel": lambda: find_countermodel(goal, system,
                                                       [("nc", noncontextual4())]),
        "search_proof": lambda: search_proof(goal, system),
    }


@pytest.mark.parametrize("function", list(_by_system("L")))
@pytest.mark.parametrize("system", ["foo", "hl", "l", ""])
def test_an_unknown_system_is_a_logic_error(function, system):
    # "hl" used to parse as L, without sorts, and "foo" to refute as L
    with pytest.raises(LogicError, match=f"unknown system {system!r}"):
        _by_system(system)[function]()


def test_the_known_systems_still_run():
    for system in ("L", "HL"):
        calls = _by_system(system)
        assert str(calls["parse_sequent"]()) == "x => y"
        assert falsifying_env(chain3(), calls["parse_hypersequent"](), system) is not None
        assert not calls["is_true_in"]()
    assert _by_system("L")["find_countermodel"]() is None  # not contextual: skipped


@pytest.mark.parametrize("depth", [2.5, 3.0, "3", True, False, None])
def test_a_non_integer_depth_is_a_logic_error(depth):
    # depth=True used to search at depth 1, and 2.5 or "3" to raise TypeError
    with pytest.raises(LogicError, match=re.escape(f"depth must be an integer, got {depth!r}")):
        search_proof(parse_hypersequent("x => x"), "L", depth)


def test_a_numpy_integer_depth_searches_as_an_int():
    goal = parse_hypersequent("x & y => x")
    assert render_script(search_proof(goal, "L", np.int64(3))) == render_script(
        search_proof(goal, "L", 3))


@pytest.mark.parametrize("system", ["hl", "foo"])
def test_axiom_match_rejects_an_unknown_system(system):
    # both used to return the L ids, without ovar-idem
    s = parse_sequent("x & x => x", "HL")
    assert axiom_match(s, "HL") == ["meet-elim-l", "meet-elim-r", "ovar-idem"]
    assert axiom_match(s, "L") == ["meet-elim-l", "meet-elim-r"]
    with pytest.raises(LogicError, match=f"unknown system {system!r}"):
        axiom_match(s, system)


def test_the_search_checks_the_system_once(monkeypatch):
    checked = []
    check = logic._system

    def counting(system):
        checked.append(system)
        return check(system)

    monkeypatch.setattr(logic, "_system", counting)
    for system in ("L", "HL"):
        goal = parse_hypersequent("~~(x & y) => (x & y) & (x & y)", system)
        checked.clear()
        assert search_proof(goal, system, 3) is not None
        assert checked == [system]
