"""Model enumeration: determinism, pruning soundness, fixture properties.

The propagating watched-instance search is checked against
``enumerate_algebras_rescan``, a reference engine that pads the tables with
one element ``n`` and, at every node, re-evaluates every instance not yet
confirmed.  It branches on every slot, so its count of depth-first calls
bounds the search's node count from above.
"""

import gc
import hashlib
import re
import tracemalloc
import types
from itertools import islice, product

import numpy as np
import pytest

from dbakit import search
from dbakit.algebra import FiniteAlgebra, check_suite, passes, satisfies_equation
from dbakit.errors import BudgetError, EvalError, SuiteError
from dbakit.fixtures import builtin_fixtures, get_fixture
from dbakit.search import (
    MAX_SEARCH_SIZE, SearchSpec, SearchSummary, _checker, _slots, candidate_count,
    enumerate_algebras, iter_algebras,
)
from dbakit.suites import DBA23, DCORE13, SUITES, get_suite
from dbakit.terms import MAX_DEPTH, AxiomSuite, Equation, Neg, Var, eq, source
from oracles import naive_sweep


# --- reference: the rescanning engine -----------------------------------------

def _compiled(t):
    """t as ``f(M, J, G, O, TP, BT, env)`` over the padded tables."""
    return eval("lambda M, J, G, O, TP, BT, env: " + source(t, lambda name: f"env[{name!r}]"))


class _PaddedPartial:
    """Mutable slot view of a candidate: constants, unary maps, binary tables.

    Every table is padded with an element ``n`` that every operation maps to
    ``n``, and a missing entry holds ``n``, so a compiled term evaluates to
    ``n`` exactly when an entry it reads is missing.
    """

    __slots__ = ("n", "top", "bot", "neg", "opp", "meet", "join")

    def __init__(self, n):
        self.n = n
        self.top = n
        self.bot = n
        self.neg = [n] * (n + 1)
        self.opp = [n] * (n + 1)
        self.meet = [[n] * (n + 1) for _ in range(n + 1)]
        self.join = [[n] * (n + 1) for _ in range(n + 1)]

    def to_algebra(self):
        n = self.n
        return FiniteAlgebra(
            [f"e{i}" for i in range(n)],
            [row[:n] for row in self.meet[:n]], [row[:n] for row in self.join[:n]],
            self.neg[:n], self.opp[:n], self.top, self.bot)


def enumerate_algebras_rescan(spec: SearchSpec, visitor=None) -> SearchSummary:
    """Depth-first enumeration with axiom pruning.

    The visitor (if any) is called with each model in order; models are also
    collected into the summary (capped by max_models).  When a budget runs
    out the summary is flagged incomplete.
    """
    n = spec.size
    if n < 1:
        raise SuiteError("universe size must be >= 1")
    require = get_suite(spec.require).equations if spec.require else ()
    must_fail = set(spec.must_fail)
    prunable = [e for e in require if e.id not in must_fail]
    fail_eqs = [e for e in require if e.id in must_fail]
    if must_fail and len(fail_eqs) != len(must_fail):
        missing = must_fail - {e.id for e in fail_eqs}
        raise SuiteError(f"must_fail axioms not in the required suite: {sorted(missing)}")

    # ground instances of the prunable axioms
    instances = []
    for eqn in prunable:
        vs = eqn.variables()
        lhs, rhs = _compiled(eqn.lhs), _compiled(eqn.rhs)
        for vals in product(range(n), repeat=len(vs)):
            instances.append((lhs, rhs, dict(zip(vs, vals))))
    verified = [-1] * len(instances)  # depth at which the instance was confirmed

    partial = _PaddedPartial(n)
    slots = _slots(n)
    summary = SearchSummary()

    def value_range(kind):
        if kind == "top" and spec.fixed_top is not None:
            return (spec.fixed_top,)
        if kind == "bot" and spec.fixed_bot is not None:
            return (spec.fixed_bot,)
        return range(n)

    def set_slot(kind, pos, v):
        if kind == "top":
            partial.top = v
        elif kind == "bot":
            partial.bot = v
        elif kind == "neg":
            partial.neg[pos] = v
        elif kind == "opp":
            partial.opp[pos] = v
        elif kind == "meet":
            partial.meet[pos[0]][pos[1]] = v
        else:
            partial.join[pos[0]][pos[1]] = v

    def clear_slot(kind, pos):
        set_slot(kind, pos, n)

    def check_new(depth):
        """Evaluate not-yet-verified instances; False when one is violated."""
        m, j, g, o = partial.meet, partial.join, partial.neg, partial.opp
        top, bot = partial.top, partial.bot
        for idx, (lhs, rhs, env) in enumerate(instances):
            if verified[idx] >= 0:
                continue
            lv = lhs(m, j, g, o, top, bot, env)
            if lv == n:
                continue
            rv = rhs(m, j, g, o, top, bot, env)
            if rv == n:
                continue
            if lv != rv:
                return False
            verified[idx] = depth
        return True

    def unverify(depth):
        for idx in range(len(verified)):
            if verified[idx] >= depth:
                verified[idx] = -1

    out_of_budget = False

    def leaf():
        nonlocal out_of_budget
        if spec.max_candidates is not None and summary.candidates >= spec.max_candidates:
            out_of_budget = True
            return False
        summary.candidates += 1
        alg = partial.to_algebra()
        for eqn in fail_eqs:
            if satisfies_equation(alg, eqn).holds:
                return True
        summary.models += 1
        if visitor is not None:
            visitor(alg)
        if spec.max_models is None or len(summary.found) < spec.max_models:
            summary.found.append(alg)
        if spec.max_models is not None and summary.models >= spec.max_models:
            out_of_budget = True
            return False
        return True

    def dfs(depth):
        summary.nodes += 1
        if out_of_budget:
            return
        if depth == len(slots):
            if not leaf():
                return
            return
        kind, pos = slots[depth]
        for v in value_range(kind):
            set_slot(kind, pos, v)
            if check_new(depth):
                dfs(depth + 1)
            unverify(depth)
            clear_slot(kind, pos)
            if out_of_budget:
                return

    try:
        dfs(0)
    finally:
        del dfs  # a recursive closure is a reference cycle holding the search state
    summary.complete = not out_of_budget
    return summary


def test_candidate_count_formula():
    assert candidate_count(1) == 1
    assert candidate_count(2) == 2 ** 8 * 2 ** 4 * 4  # 16384


def test_size1_dba_has_exactly_one_model():
    summary = enumerate_algebras(SearchSpec(size=1, require="DBA23"))
    assert summary.models == 1
    assert summary.candidates == 1
    assert summary.complete


def test_unconstrained_size2_visits_every_candidate():
    summary = enumerate_algebras(SearchSpec(size=2))
    assert summary.candidates == candidate_count(2)
    assert summary.models == candidate_count(2)


def test_independence_search_finds_separating_model():
    spec = SearchSpec(size=2, require="DCORE13", must_fail=("5a", "5b"), max_models=1)
    summary = enumerate_algebras(spec)
    assert summary.models >= 1
    model = summary.found[0]
    report = check_suite(model, DCORE13)
    assert report.failing_ids() == ("5a", "5b")


def test_pruned_models_match_naive_sweep():
    spec = SearchSpec(size=2, require="DCORE13")
    pruned = enumerate_algebras(spec)
    naive = naive_sweep(spec)
    sigs_p = [alg.signature() for alg in pruned.found]
    sigs_n = [alg.signature() for alg in naive.found]
    assert sigs_p == sigs_n
    assert pruned.models == naive.models
    # and the same set satisfies the full suite
    assert pruned.models == sum(
        1 for alg in naive.found if check_suite(alg, DCORE13).ok)


def test_dba_and_dcore_model_counts_agree_at_size2():
    a = enumerate_algebras(SearchSpec(size=2, require="DBA23"))
    b = enumerate_algebras(SearchSpec(size=2, require="DCORE13"))
    assert a.models == b.models
    assert [x.signature() for x in a.found] == [x.signature() for x in b.found]


def test_budget_flags_incomplete():
    summary = enumerate_algebras(SearchSpec(size=2, max_candidates=5))
    assert not summary.complete
    assert summary.candidates == 5


def test_fixed_constants_restrict_the_space():
    summary = enumerate_algebras(SearchSpec(size=2, fixed_top=1, fixed_bot=0))
    assert summary.candidates == candidate_count(2) // 4


def test_must_fail_must_belong_to_suite():
    with pytest.raises(SuiteError):
        enumerate_algebras(SearchSpec(size=1, require="DCORE13", must_fail=("99z",)))


def test_a_size_past_the_limit_is_a_budget_error(monkeypatch):
    def never(n):
        raise AssertionError("the partial tables were built")

    monkeypatch.setattr(search, "_Partial", never)
    with pytest.raises(BudgetError, match=f"over the search limit of {MAX_SEARCH_SIZE}"):
        enumerate_algebras(SearchSpec(size=MAX_SEARCH_SIZE + 1, require="DBA23"))


def test_a_size_far_past_the_limit_is_refused_before_any_slot_list_is_built():
    # the slot list of size 2000 alone, [range(n)] * (2n + 2n**2), is 64 MB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="universe size 2000 is over the search limit"):
            iter_algebras(SearchSpec(size=2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_search_at_the_size_limit_runs():
    # the partial tables of size 16 hold 562**2 cells each; a first model is quick
    assert MAX_SEARCH_SIZE >= 8
    summary = enumerate_algebras(SearchSpec(size=MAX_SEARCH_SIZE, require="DBA23", max_models=1))
    assert summary.models == 1
    model = summary.found[0]
    assert check_suite(model, DBA23).ok
    # the algebra whose operations all return 0
    assert model.top == model.bot == 0
    assert not any(table.any() for table in (model.meet, model.join, model.neg, model.opp))


@pytest.mark.parametrize("spec, error", [
    (SearchSpec(size=0), SuiteError), (SearchSpec(size=3, fixed_bot=3), SuiteError),
    (SearchSpec(size=2, max_candidates=-1), SuiteError),
    (SearchSpec(size=2, require="nope"), SuiteError),
    (SearchSpec(size=2, require="DCORE13", must_fail=("99z",)), SuiteError),
    (SearchSpec(size=MAX_SEARCH_SIZE + 1), BudgetError)], ids=repr)
def test_the_stream_raises_when_it_is_made(monkeypatch, spec, error):
    def never(n):
        raise AssertionError("the partial tables were built")

    monkeypatch.setattr(search, "_Partial", never)
    with pytest.raises(error):
        iter_algebras(spec)


def test_the_stream_keeps_the_budgets():
    assert len(list(iter_algebras(SearchSpec(size=3, require="DBA23", max_models=2)))) == 2
    assert list(iter_algebras(SearchSpec(size=2, require="DBA23", max_models=0))) == []
    # with nothing required, every candidate is a model
    assert len(list(iter_algebras(SearchSpec(size=2, max_candidates=7)))) == 7


def test_visitor_sees_models_in_order():
    seen = []
    enumerate_algebras(SearchSpec(size=1), visitor=lambda alg: seen.append(alg.signature()))
    assert len(seen) == 1


# --- builtin fixtures ---------------------------------------------------------

def test_fixture_names_present():
    names = [name for name, _ in builtin_fixtures()]
    for required in ("cex-5ab", "gdcore-not-dcore", "singleton", "chain3"):
        assert required in names


def test_cex_fixture_is_the_independence_witness():
    alg = get_fixture("cex-5ab")
    report = check_suite(alg, DCORE13)
    assert report.failing_ids() == ("5a", "5b")


def test_gdcore_fixture():
    alg = get_fixture("gdcore-not-dcore")
    assert passes(alg, "GDCORE11")
    assert check_suite(alg, DCORE13).failing_ids() == ("3a", "3b")


def test_singleton_fixture_passes_everything():
    alg = get_fixture("singleton")
    for suite in ("DBA23", "DCORE13", "GDCORE11", "BOOLEAN"):
        assert passes(alg, suite)


def test_search_rediscovers_cex_up_to_renaming():
    # the fixture itself must appear in the size-2 search results
    spec = SearchSpec(size=2, require="DCORE13", must_fail=("5a", "5b"))
    summary = enumerate_algebras(spec)
    assert any(alg.signature() == get_fixture("cex-5ab").renamed(["e0", "e1"]).signature()
               for alg in summary.found)


def test_size2_search_finds_noncontextual_dbas():
    # the two all-constant algebras (every operation lands on one element, the
    # other element inert) satisfy the full suite yet mutually relate both
    # elements, so the order is not antisymmetric
    from dbakit.algebra import classify
    summary = enumerate_algebras(SearchSpec(size=2, require="DBA23"))
    noncontextual = [alg for alg in summary.found
                     if not classify(alg).is_contextual]
    assert len(noncontextual) == 2
    for alg in noncontextual:
        assert len(set(map(tuple, alg._tuples()[0]))) == 1  # constant tables
        assert alg.top == alg.bot


def test_complete_size3_dba_and_dcore_searches_agree():
    a = enumerate_algebras(SearchSpec(size=3, require="DBA23"))
    b = enumerate_algebras(SearchSpec(size=3, require="DCORE13"))
    assert a.complete and b.complete
    assert a.models == 45
    assert [x.signature() for x in a.found] == [x.signature() for x in b.found]


def _of_search(o):
    """Whether o is a function or generator whose code is in dbakit.search."""
    if isinstance(o, types.FunctionType):
        return o.__code__.co_filename == search.__file__
    return isinstance(o, types.GeneratorType) and o.gi_code.co_filename == search.__file__


@pytest.mark.parametrize("run", [
    lambda spec: enumerate_algebras(spec).models,
    lambda spec: len(list(islice(iter_algebras(spec), 1))),  # abandoned after one model
], ids=["collected", "abandoned"])
def test_search_leaves_no_cyclic_garbage(run):
    # the search state must be freed on return, not at the next full collection
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(SearchSpec(size=2, require="DBA23")) > 0
        gc.collect()
        left = [o for o in gc.garbage if _of_search(o)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == []


# --- watched instances against the rescan ------------------------------------

def _outcome(summary):
    return (summary.candidates, summary.models, summary.complete,
            [alg.signature() for alg in summary.found])


_SUITE_IDS = sorted(SUITES)
_DIFF_SPECS = (
    [SearchSpec(size=n, require=r) for n in (1, 2) for r in [None] + _SUITE_IDS]
    + [SearchSpec(size=3, require=r, fixed_top=t, fixed_bot=b)
       for r in _SUITE_IDS for t in range(3) for b in range(3)]
    + [SearchSpec(size=2, require="DCORE13", must_fail=fail)
       for fail in (("5a",), ("5a", "5b"), ("3a", "3b"), ("1a",), ("7",))]
    + [SearchSpec(size=2, require=r, max_candidates=c)
       for r in (None, "DCORE13") for c in (0, 1, 7, 100, 1000)]
    + [SearchSpec(size=3, require="DBA23", max_candidates=c) for c in (0, 1, 7, 100, 1000)]
    + [SearchSpec(size=3, require=r, max_models=k)
       for r in ("DBA23", "GDCORE11") for k in (1, 2, 10)]
    + [SearchSpec(size=4, require="DBA23", fixed_top=t, fixed_bot=b, max_models=k)
       for t, b in ((0, 3), (1, 0), (2, 1), (3, 2)) for k in (1, 3)]
)


@pytest.mark.parametrize("spec", _DIFF_SPECS, ids=repr)
def test_watched_search_matches_the_rescan(spec):
    seen = []
    summary = enumerate_algebras(spec, visitor=lambda alg: seen.append(alg.signature()))
    want = enumerate_algebras_rescan(spec)
    assert _outcome(summary) == _outcome(want)
    assert seen == _outcome(want)[3]  # found is never capped below models here
    assert [alg.signature() for alg in iter_algebras(spec)] == seen
    # propagation only cuts dead subtrees earlier
    assert summary.nodes <= want.nodes


def test_node_counts_are_deterministic_and_propagation_fills_cells():
    spec = SearchSpec(size=3, require="DBA23", fixed_top=2, fixed_bot=0)
    first, again = enumerate_algebras(spec), enumerate_algebras(spec)
    assert (first.nodes, first.forced) == (again.nodes, again.forced)
    assert first.forced > 0
    assert 0 < first.nodes < enumerate_algebras_rescan(spec).nodes
    # with nothing required there is nothing to propagate: one node per slot
    # value tried, as in the rescan
    free = SearchSpec(size=1)
    assert enumerate_algebras(free).forced == 0
    assert enumerate_algebras(free).nodes == enumerate_algebras_rescan(free).nodes == 7


# DBA23 between two equations without variables, constants on both sides:
# each has one ground instance, blocked on the constants' slots
_CONSTANT_SUITE = AxiomSuite(
    "DBA23+K", (eq("k1", "~F", "!T"),) + DBA23.equations + (eq("k2", "T & T", "T"),))


# x = T forces top before the first choice, from its instance x = e0 (and
# fails at x = e1); T = F forces bot as soon as top is chosen.  A pin
# elsewhere is a conflict at the forcing.
_FORCING_SUITE = AxiomSuite("force-top", (eq("ft", "x", "T"),))
_FORCING_BOT_SUITE = AxiomSuite("force-bot", DBA23.equations + (eq("fb", "T", "F"),))


_PINS = [{}, {"fixed_top": 0}, {"fixed_top": 1}, {"fixed_bot": 0}, {"fixed_bot": 1},
         {"fixed_top": 1, "fixed_bot": 0}]


@pytest.mark.parametrize("suite", [_FORCING_SUITE, _FORCING_BOT_SUITE], ids=["top", "bot"])
@pytest.mark.parametrize("size, pin", [(size, pin) for size in (1, 2, 3) for pin in _PINS
                                       if max(pin.values(), default=0) < size])
def test_a_forced_constant_against_a_pin_matches_the_rescan(size, suite, pin):
    spec = SearchSpec(size=size, require=suite, **pin)
    summary = enumerate_algebras(spec)
    want = enumerate_algebras_rescan(spec)
    assert _outcome(summary) == _outcome(want)
    assert summary.nodes <= want.nodes
    if suite is _FORCING_SUITE:
        # only e0 can be top, and only the universe of one element has no x = e1
        assert summary.models == (size == 1)
        assert (summary.nodes > 0) == (size == 1)
        assert summary.forced == (pin.get("fixed_top", 0) == 0)
    else:
        assert all(alg.top == alg.bot for alg in summary.found)
        split = pin.get("fixed_top", 0) != pin.get("fixed_bot", 0) and len(pin) == 2
        assert (summary.models == 0) == split
        if split:  # the bot forced at the first choice is a conflict with the pin
            assert summary.nodes == 1
        else:
            assert summary.forced > 0


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("must_fail", [(), ("k1",), ("k2",)])
def test_equations_without_variables_match_the_rescan(size, must_fail):
    spec = SearchSpec(size=size, require=_CONSTANT_SUITE, must_fail=must_fail)
    summary = enumerate_algebras(spec)
    assert _outcome(summary) == _outcome(enumerate_algebras_rescan(spec))
    assert summary.complete
    assert (summary.models > 0) == (size > 1 or not must_fail)  # one algebra of size 1


def test_too_deep_an_axiom_is_an_eval_error():
    deep = Var("x")
    for _ in range(MAX_DEPTH + 1):
        deep = Neg(deep)
    suite = AxiomSuite("deep", DBA23.equations[:3] + (Equation("deep", deep, Var("x")),))
    for size in (1, 3):
        with pytest.raises(EvalError, match=f"deeper than {MAX_DEPTH}"):
            enumerate_algebras(SearchSpec(size=size, require=suite))
        with pytest.raises(EvalError, match=f"deeper than {MAX_DEPTH}"):
            iter_algebras(SearchSpec(size=size, require=suite))


def test_each_equation_is_compiled_once_for_every_size():
    _checker.cache_clear()
    for size in (2, 3, 4):
        summary = enumerate_algebras(SearchSpec(size=size, require="DBA23", fixed_top=0,
                                                fixed_bot=0, max_models=1))
        assert summary.models == 1
    info = _checker.cache_info()
    assert (info.misses, info.hits) == (len(DBA23), 2 * len(DBA23))


def test_complete_size4_dcore_models_equal_the_dba_models():
    # the paper's equivalence of DCORE13 and DBA23, on every size-4 candidate
    summary = enumerate_algebras(SearchSpec(size=4, require="DCORE13"))
    assert summary.complete
    assert summary.models == summary.candidates == 352
    assert _digest(summary) == SIZE4_DBA23_DIGEST
    assert (summary.nodes, summary.forced) == (83_350, 170_852)  # see test_labelled_census


@pytest.mark.slow
def test_size5_dcore_models_equal_the_dba_models_on_a_pin():
    # the same equivalence at size 5, on every candidate with top = e4 and
    # bot = e0 (any pin with top != bot has as many models; about 5 s)
    a = enumerate_algebras(SearchSpec(size=5, require="DBA23", fixed_top=4, fixed_bot=0))
    b = enumerate_algebras(SearchSpec(size=5, require="DCORE13", fixed_top=4, fixed_bot=0))
    assert a.complete and b.complete
    assert a.models == 192
    assert [x.signature() for x in a.found] == [x.signature() for x in b.found]


@pytest.mark.parametrize("pin", ["fixed_top", "fixed_bot"])
@pytest.mark.parametrize("value", [-1, 3, 8])
def test_pins_outside_the_universe_are_rejected(pin, value):
    spec = SearchSpec(size=3, require="DBA23", **{pin: value})
    with pytest.raises(SuiteError, match=pin):
        enumerate_algebras(spec)
    with pytest.raises(SuiteError, match=pin):
        naive_sweep(spec)


def test_non_integer_pin_is_rejected():
    with pytest.raises(SuiteError, match="fixed_top"):
        enumerate_algebras(SearchSpec(size=2, fixed_top=1.0))


@pytest.mark.parametrize("engine", [enumerate_algebras, naive_sweep])
@pytest.mark.parametrize("size, require", [(1, None), (2, "DBA23")])
def test_zero_model_budget_counts_no_model(engine, size, require):
    seen = []
    summary = engine(SearchSpec(size=size, require=require, max_models=0), seen.append)
    assert (summary.models, summary.found, seen, summary.complete) == (0, [], [], False)
    # the search stops at the first model, which a budget of one keeps
    first = engine(SearchSpec(size=size, require=require, max_models=1))
    assert summary.candidates == first.candidates
    assert first.models == 1


@pytest.mark.parametrize("engine", [enumerate_algebras, naive_sweep])
def test_zero_model_budget_is_complete_when_no_model_exists(engine):
    summary = engine(SearchSpec(size=1, require="DBA23", must_fail=("1a",), max_models=0))
    assert (summary.candidates, summary.models, summary.complete) == (1, 0, True)


@pytest.mark.parametrize("engine", [enumerate_algebras, naive_sweep])
@pytest.mark.parametrize("budget", ["max_models", "max_candidates"])
@pytest.mark.parametrize("value", [-1, -5])
def test_negative_budgets_are_rejected(engine, budget, value):
    seen = []
    with pytest.raises(SuiteError, match=f"{budget} must be >= 0, got {value}"):
        engine(SearchSpec(size=1, **{budget: value}), seen.append)
    assert seen == []


# --- census -------------------------------------------------------------------

@pytest.mark.parametrize("size, suite, models, nodes, forced", [
    (2, "DBA23", 8, 97, 65), (2, "GDCORE11", 14, 164, 74), (3, "DBA23", 45, 1_129, 1_308),
    (3, "GDCORE11", 315, 10_113, 6_389)])
def test_labelled_census(size, suite, models, nodes, forced):
    summary = enumerate_algebras(SearchSpec(size=size, require=suite))
    assert summary.complete
    assert summary.models == models == len(summary.found)
    assert all(passes(alg, suite) for alg in summary.found)
    # the rescan only bounds the node count; this pins the traversal
    assert (summary.nodes, summary.forced) == (nodes, forced)


# sha256 over repr(signature()) + "\n" of each model in order (the tables are
# little-endian int64 bytes), recorded from the rescanning engine
SIZE4_DBA23_DIGEST = "bc4f2bc35428d45600c38dd8f20ad44b20c196a5e06ce8a4902a414b7e788352"


def _digest(summary):
    digest = hashlib.sha256()
    for alg in summary.found:
        digest.update(repr(alg.signature()).encode() + b"\n")
    return digest.hexdigest()


def test_complete_size4_dba_census_matches_the_recorded_digest():
    summary = enumerate_algebras(SearchSpec(size=4, require="DBA23"))
    assert summary.complete
    assert summary.models == summary.candidates == 352
    assert _digest(summary) == SIZE4_DBA23_DIGEST
    assert (summary.nodes, summary.forced) == (22_884, 50_083)  # see test_labelled_census


@pytest.mark.parametrize("engine", [enumerate_algebras, naive_sweep])
@pytest.mark.parametrize("field, value", [
    ("size", True), ("size", 2.0), ("size", "2"), ("fixed_top", True), ("fixed_bot", False),
    ("max_models", True), ("max_models", 1.5), ("max_models", "1"),
    ("max_candidates", 2.5), ("max_candidates", np.float64(3))])
def test_non_integer_parameters_are_rejected(engine, field, value):
    # each used to be truncated (fixed_top=True pinned 1, max_models=1.5 stopped
    # after 2 models) or to end in a raw TypeError
    spec = SearchSpec(**{"size": 2, "require": "DBA23", field: value})
    with pytest.raises(SuiteError, match=re.escape(f"must be an integer, got {value!r}")):
        engine(spec)


@pytest.mark.parametrize("engine", [enumerate_algebras, naive_sweep])
def test_numpy_integer_parameters_search_as_ints(engine):
    plain = engine(SearchSpec(size=2, require="DBA23", fixed_top=1, max_models=3,
                              max_candidates=200))
    wide = engine(SearchSpec(size=np.int64(2), require="DBA23", fixed_top=np.uint8(1),
                             max_models=np.int32(3), max_candidates=np.int16(200)))
    assert (wide.candidates, wide.models, wide.complete) == (
        plain.candidates, plain.models, plain.complete)
    assert [a.signature() for a in wide.found] == [a.signature() for a in plain.found]
