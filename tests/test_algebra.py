"""Algebra kernel: evaluation, suite checking, classification, Boolean parts."""

import functools
import gc
import pickle
import random
import sys
import threading
import tracemalloc
import weakref
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbakit.algebra import (
    _VECTOR_THRESHOLD, FiniteAlgebra, _check_equations, _facts_of, _kernel,
    check_identity_catalog, check_suite, classify,
    eval_term, extract_boolean_part, is_boolean_algebra, join_idempotents, meet_idempotents,
    passes, project_join, project_meet, quasi_order, satisfies_equation, unique_mixed_lift,
)
from dbakit.errors import AlgebraError, EvalError, SuiteError
from dbakit.fca import (
    FormalContext, all_contexts, oo_protoconcept_algebra, protoconcept_algebra,
)
from dbakit.fixtures import (
    boolean2, builtin_fixtures, cex_5ab, chain3, gdcore_not_dcore, noncontextual4,
    singleton,
)
from dbakit.logic import eval_sequent, parse_sequent
from dbakit.search import SearchSpec, enumerate_algebras
from dbakit.suites import BOOLEAN, CATALOG, DBA23, DCORE13, GDCORE11, get_suite
from dbakit.terms import MAX_DEPTH, AxiomSuite, Equation, Meet, Neg, Var, eq, parse_term


def brute_force_witness(alg, equation):
    """Independent oracle: first failing assignment via the plain interpreter."""
    vs = equation.variables()
    for values in product(range(alg.n), repeat=len(vs)):
        env = dict(zip(vs, values))
        if eval_term(alg, equation.lhs, env) != eval_term(alg, equation.rhs, env):
            return env
    return None


# --- construction invariants -------------------------------------------------

def test_tables_validated():
    with pytest.raises(AlgebraError):
        FiniteAlgebra(["a"], [[1]], [[0]], [0], [0], 0, 0)  # entry out of range
    with pytest.raises(AlgebraError):
        FiniteAlgebra(["a", "a"], [[0, 0], [0, 0]], [[0, 0], [0, 0]],
                      [0, 0], [0, 0], 0, 0)  # duplicate names
    with pytest.raises(AlgebraError):
        FiniteAlgebra([], [], [], [], [], 0, 0)  # empty universe
    with pytest.raises(AlgebraError):
        FiniteAlgebra(["a", "b"], [[0, 0]], [[0, 0], [0, 0]], [0, 0], [0, 0], 0, 0)
    with pytest.raises(AlgebraError):
        FiniteAlgebra(["a", "b"], [[0, 1], [1]], [[0, 0], [0, 0]], [0, 0], [0, 0], 0, 0)


def two_element(meet=((0, 1), (1, 1)), neg=(1, 0), top=1, bot=0):
    return FiniteAlgebra(["a", "b"], meet, [[0, 1], [1, 1]], neg, [1, 0], top, bot)


@pytest.mark.parametrize("bad", [
    {"meet": [[0.7, 1], [1, 1.9]]},
    {"meet": [[0.0, 1.0], [1.0, 1.0]]},
    {"meet": [["0", "1"], ["1", "1"]]},
    {"meet": [[0, None], [1, 1]]},
    {"meet": np.array([[False, True], [True, True]])},
    {"neg": [1.0, 0.0]},
    {"top": "1"},
    {"top": 1.0},
    {"bot": 0.2},
    {"bot": False},
    {"top": np.float64(1)},
])
def test_non_integer_tables_are_rejected(bad):
    # nothing is truncated: 0.7 must not become element 0
    with pytest.raises(AlgebraError):
        two_element(**bad)


def test_integer_tables_of_any_integer_type_are_accepted():
    plain = two_element()
    for kind in (np.int64, np.int32, np.uint8):
        alg = two_element(meet=np.array([[0, 1], [1, 1]], dtype=kind),
                          neg=np.array([1, 0], dtype=kind), top=kind(1), bot=kind(0))
        assert alg.signature() == plain.signature()
        assert alg.meet.dtype == np.int64


def test_the_algebra_owns_its_tables():
    # tables given as int64 views of a caller's array: writing through the
    # base must change neither the numpy tables nor the scalar rows
    base = np.array([[[0, 1], [1, 1]], [[0, 1], [1, 1]]], dtype=np.int64)
    maps = np.array([[1, 0], [1, 0]], dtype=np.int64)
    alg = FiniteAlgebra(["a", "b"], base[0], base[1], maps[0], maps[1], 1, 0)
    before = alg.signature()
    assert base[0].flags.writeable and maps[0].flags.writeable
    base[0, 1, 1] = 0
    maps[0, 0] = 0
    assert alg.signature() == before
    assert alg.meet.tolist() == [list(row) for row in alg._tuples()[0]] == [[0, 1], [1, 1]]
    assert list(alg._tuples()[2]) == alg.neg.tolist() == [1, 0]
    assert not alg.meet.flags.writeable and not alg.neg.flags.writeable


# --- eval_term ----------------------------------------------------------------

def test_eval_double_negated_meet_on_counterexample():
    alg = cex_5ab()
    # both negations of the separating algebra collapse, so ~~(b & b) lands on a
    assert eval_term(alg, parse_term("~~(b & b)"), {"b": 1}) == 0


def test_eval_identity_term():
    alg = boolean2()
    for e in range(alg.n):
        assert eval_term(alg, parse_term("x"), {"x": e}) == e


def test_eval_top_meet_top_on_chain():
    alg = chain3()
    assert eval_term(alg, parse_term("T & T")) == alg.index("mid")


def test_eval_unbound_variable():
    with pytest.raises(EvalError, match="zz"):
        eval_term(singleton(), parse_term("zz"))


@pytest.mark.parametrize("value, message", [
    (-1, r"variable 'x' index -1 out of range \[0, 3\)"),
    (3, r"variable 'x' index 3 out of range \[0, 3\)"),
    (1.0, "variable 'x' must be an integer index, got 1.0"),
    (True, "variable 'x' must be an integer index, got True"),
])
def test_eval_rejects_a_value_that_is_no_element(value, message):
    # the rule of the tables and constants: no wrap-around, truncation or bool
    alg = chain3()
    for t in ("x", "~x"):
        with pytest.raises(AlgebraError, match=message):
            eval_term(alg, parse_term(t), {"x": value})
    for s in ("x => y", "y => ~x"):
        with pytest.raises(AlgebraError, match=message):
            eval_sequent(alg, parse_sequent(s), {"x": value, "y": 0})


@pytest.mark.parametrize("x, y, message", [
    (5, 0, r"x index 5 out of range \[0, 3\)"),
    (-1, 0, r"x index -1 out of range \[0, 3\)"),
    (0, 1.0, "y must be an integer index, got 1.0"),
    (0, True, "y must be an integer index, got True"),
])
def test_quasi_order_holds_rejects_a_value_that_is_no_element(x, y, message):
    # -1 would read the last row
    with pytest.raises(AlgebraError, match=message):
        quasi_order(chain3()).holds(x, y)


def test_quasi_order_holds_reads_the_relation():
    qo = quasi_order(chain3())
    assert [[qo.holds(np.int64(x), y) for y in range(3)] for x in range(3)] == qo.rel.tolist()


def test_eval_ignores_extra_env_keys():
    alg = chain3()
    assert eval_term(alg, parse_term("x"), {"x": 2, "unused": -1}) == 2
    assert eval_term(alg, parse_term("T"), {"unused": 1.5}) == alg.top


# --- satisfies_equation ---------------------------------------------------------

def test_counterexample_fails_5a_with_first_witness():
    alg = cex_5ab()
    v = satisfies_equation(alg, DCORE13.equation("5a"))
    assert not v.holds
    assert v.witness == {"x": 1, "y": 1}  # x=b y=b
    assert v.witness == brute_force_witness(alg, DCORE13.equation("5a"))


def test_singleton_satisfies_every_dba_axiom():
    alg = singleton()
    for equation in DBA23.equations:
        assert satisfies_equation(alg, equation).holds


def test_empty_incidence_3x3_protoconcept_algebra_satisfies_axiom_12():
    ctx = FormalContext([f"g{i}" for i in range(3)], [f"m{i}" for i in range(3)],
                        [[False] * 3 for _ in range(3)])
    alg = protoconcept_algebra(ctx).algebra
    equation = DBA23.equation("12")
    assert satisfies_equation(alg, equation).holds
    assert brute_force_witness(alg, equation) is None


def test_vector_and_compiled_paths_agree_on_witness():
    # 9-element algebra with one broken commutativity cell: n**2 stays on the
    # compiled path, a padded 3-variable equation forces the vector path
    from dbakit.constructions import glued_sum, powerset_boolean
    base = glued_sum(powerset_boolean(3), powerset_boolean(1))
    assert base.n ** 2 <= _VECTOR_THRESHOLD < base.n ** 3
    meet = [list(row) for row in base._tuples()[0]]
    meet[3][2] = (meet[3][2] + 1) % base.n
    broken = FiniteAlgebra(base.names, meet, base._tuples()[1], base._tuples()[2],
                           base._tuples()[3], base.top, base.bot)
    comm2 = eq("comm2", "x & y", "y & x")
    comm3 = eq("comm3", "(x & y) & (z & z)", "(y & x) & (z & z)")
    v2 = satisfies_equation(broken, comm2)   # compiled
    v3 = satisfies_equation(broken, comm3)   # vectorized
    assert not v2.holds and not v3.holds
    assert v2.witness == brute_force_witness(broken, comm2)
    assert v3.witness == brute_force_witness(broken, comm3)


def test_dba23_check_memory_is_bounded():
    # a 124-element protoconcept algebra: 1.9 M assignments of x, y, z
    ctx = FormalContext([f"g{i}" for i in range(6)], [f"m{j}" for j in range(6)],
                        [[(i + 2 * j) % 5 < 2 for j in range(6)] for i in range(6)])
    alg = protoconcept_algebra(ctx).algebra
    assert alg.n >= 100
    tracemalloc.start()
    try:
        report = check_suite(alg, "DBA23")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 16 * 2**20


def test_zero_variable_equation():
    assert satisfies_equation(boolean2(), eq("t", "~T", "F")).holds
    bad = satisfies_equation(cex_5ab(), eq("t", "~F", "T & T"))
    assert not bad.holds and bad.witness == {}


# --- check_suite -----------------------------------------------------------------

def test_counterexample_dcore_failures_exact():
    report = check_suite(cex_5ab(), DCORE13)
    assert report.failing_ids() == ("5a", "5b")


def test_gdcore_fixture_suite_verdicts():
    alg = gdcore_not_dcore()
    assert check_suite(alg, GDCORE11).ok
    report = check_suite(alg, DCORE13)
    assert report.failing_ids() == ("3a", "3b")
    # the documented separating instance: a & (a | c) = b while a & a = a
    a, c = 0, 2
    assert eval_term(alg, parse_term("x & (x | y)"), {"x": a, "y": c}) == 1
    assert eval_term(alg, parse_term("x & x"), {"x": a}) == a
    assert eval_term(alg, parse_term("x | (x & y)"), {"x": a, "y": c}) == 1
    assert eval_term(alg, parse_term("x | x"), {"x": a}) == 2


def test_glued_sum_of_two_booleans_passes_dba23():
    from dbakit.constructions import glued_sum, powerset_boolean
    alg = glued_sum(powerset_boolean(1), powerset_boolean(1))
    assert check_suite(alg, DBA23).ok


def test_unknown_suite():
    with pytest.raises(SuiteError):
        check_suite(singleton(), "nonsense")
    assert get_suite("dcore") is DCORE13


def test_suite_cache_is_keyed_by_the_equations():
    alg = cex_5ab()
    full = check_suite(alg, DBA23)
    assert not full.ok
    first_only = AxiomSuite("DBA23", (DBA23.equations[0],))
    report = check_suite(alg, first_only)
    assert len(report.verdicts) == 1 and report.ok
    assert check_suite(alg, DBA23) is full
    assert check_suite(alg, AxiomSuite("DBA23", DBA23.equations)) == check_suite(alg, DBA23)


def test_classify_checks_its_three_suites_in_one_batch(fresh_records, monkeypatch):
    from dbakit import algebra
    batches = []
    check = algebra._check_equations

    def counted(alg, equations):
        batches.append(len(equations))
        return check(alg, equations)

    alg, fresh = chain3(), chain3()
    monkeypatch.setattr(algebra, "_check_equations", counted)
    classify(alg)
    assert batches == [len(DBA23) + len(DCORE13) + len(GDCORE11)]
    for suite in (DBA23, DCORE13, GDCORE11):
        assert check_suite(fresh, suite).verdicts == check(fresh, suite.equations)
    assert batches == [len(DBA23) + len(DCORE13) + len(GDCORE11)]  # fresh shares alg's record


def test_classify_is_cached_per_algebra():
    alg = chain3()
    assert classify(alg) is classify(alg)
    assert classify(alg) == classify(chain3())


def test_a_reports_verdict_is_computed_once_and_kept_out_of_its_fields(monkeypatch):
    from dbakit import algebra
    algs = [alg for _, alg in builtin_fixtures()]
    algs += [protoconcept_algebra(c).algebra for c in all_contexts(2, 2)]
    reports = [(alg, check_suite(alg, suite)) for alg in algs
               for suite in (DBA23, DCORE13, GDCORE11, BOOLEAN)]
    monkeypatch.setattr(algebra, "_check_equations", None)  # passes reads the records
    for alg, report in reports:
        unread = type(report)(report.suite_id, report.verdicts)
        assert report.ok == all(v.holds for v in report.verdicts) == passes(alg, report.suite_id)
        assert vars(report)["ok"] is report.ok and "ok" not in vars(unread)
        assert report == unread and repr(report) == repr(unread)
        assert pickle.dumps(report) == pickle.dumps(unread)
        back = pickle.loads(pickle.dumps(report))
        assert back == report and "ok" not in vars(back) and back.ok == report.ok
    assert {report.ok for _, report in reports} == {True, False}


# --- one record of verdicts per table set ----------------------------------------

def copy_of(alg):
    """A fresh algebra with alg's tables and names, built from plain lists."""
    return FiniteAlgebra(alg.names, alg.meet.tolist(), alg.join.tolist(), alg.neg.tolist(),
                         alg.opp.tolist(), alg.top, alg.bot)


def order_oracle(alg):
    m, j = alg._tuples()[0], alg._tuples()[1]
    return [[m[x][y] == m[x][x] and j[x][y] == j[y][y] for y in range(alg.n)]
            for x in range(alg.n)]


def record_corpus():
    """The fixtures, the DBA23 models of at most 3 elements, and the proto
    and semi algebras of every context of at most 2x3."""
    algs = [alg for _, alg in builtin_fixtures()]
    for size in (1, 2, 3):
        algs += enumerate_algebras(SearchSpec(size=size, require="DBA23")).found
    for g in range(3):
        for m in range(4):
            for ctx in all_contexts(g, m):
                algs += [protoconcept_algebra(ctx, kind).algebra
                         for kind in ("protoconcept", "semiconcept")]
    return algs


def test_shared_verdicts_equal_direct_checks():
    # every view of every algebra stays alive, so equal tables share a record;
    # the oracle checks each table set directly, without any record
    algs = record_corpus()
    views = [(alg, alg.renamed([f"r{i}" for i in range(alg.n)]), copy_of(alg)) for alg in algs]
    oracle = {}
    for i, trio in enumerate(views):
        alg = trio[0]
        sig = alg.signature()
        if sig not in oracle:
            oracle[sig] = {s: _check_equations(alg, s.equations)
                           for s in (DBA23, DCORE13, GDCORE11, BOOLEAN)}
            oracle[sig]["catalog"] = _check_equations(alg, CATALOG)
            oracle[sig]["order"] = order_oracle(alg)
        want = oracle[sig]
        dba, dcore = want[DBA23], want[DCORE13]
        failures = tuple((f"{s.id}:{v.equation.id}", v.witness)
                         for s in (DBA23, DCORE13) for v in want[s] if not v.holds)
        for view in (trio if i % 2 else trio[::-1]):  # either end fills the record first
            for suite in (DBA23, DCORE13, GDCORE11, BOOLEAN):
                assert check_suite(view, suite).verdicts == want[suite]
            verdicts, fails = check_identity_catalog(view)
            assert verdicts == want["catalog"]
            assert fails == tuple(v for v in verdicts if not v.holds)
            qo = quasi_order(view)
            assert qo.rel.tolist() == want["order"]
            cl = classify(view)
            assert (cl.is_dba, cl.is_dcore, cl.is_generalized_dcore) == (
                all(v.holds for v in dba), all(v.holds for v in dcore),
                all(v.holds for v in want[GDCORE11]))
            assert cl.failures == failures
            assert cl.is_contextual == (cl.is_dba and qo.antisymmetric)
            assert cl.meet_idempotents == {x for x in range(alg.n) if alg._tuples()[0][x][x] == x}
            assert cl.join_idempotents == {x for x in range(alg.n) if alg._tuples()[1][x][x] == x}
        assert trio[0]._facts is trio[1]._facts is trio[2]._facts
    assert len({id(alg._facts) for alg in algs}) == len(oracle)


def test_tables_that_differ_anywhere_get_their_own_record():
    base = chain3()
    meet, opp = base.meet.tolist(), base.opp.tolist()
    meet[0][1] = (meet[0][1] + 1) % base.n
    opp[0] = (opp[0] + 1) % base.n
    top = (base.top + 1) % base.n
    variants = [
        FiniteAlgebra(base.names, meet, base.join, base.neg, base.opp, base.top, base.bot),
        FiniteAlgebra(base.names, base.meet, base.join, base.neg, opp, base.top, base.bot),
        FiniteAlgebra(base.names, base.meet, base.join, base.neg, base.opp, top, base.bot),
    ]
    records = [_facts_of(alg) for alg in [base] + variants]
    assert len({id(r) for r in records}) == len(records)
    for alg in [base] + variants:
        assert check_suite(alg, DBA23).verdicts == _check_equations(alg, DBA23.equations)
        assert check_identity_catalog(alg)[0] == _check_equations(alg, CATALOG)


def _tables(n, shift=0):
    """Tables of an n-element algebra that no other test builds, one table
    set per shift in range(n)."""
    return ([[(x * y + shift) % n for y in range(n)] for x in range(n)],
            [[(x + y) % n for y in range(n)] for x in range(n)],
            [(n - x) % n for x in range(n)], [(x + 2) % n for x in range(n)], 3 % n, 4 % n)


def _named(n, shift=0):
    return FiniteAlgebra([f"e{i}" for i in range(n)], *_tables(n, shift))


def test_a_record_outlives_the_algebras_that_filled_it(fresh_records, monkeypatch):
    from dbakit import algebra
    gc.disable()
    try:
        first = FiniteAlgebra("abcde", *_tables(5))
        want = classify(first), check_identity_catalog(first), quasi_order(first)
        record = first._facts
        second = first.renamed("vwxyz")
        assert second._facts is record
        dead = weakref.ref(first), weakref.ref(second)
        del first, second
        assert [r() for r in dead] == [None, None]
        assert [value for value, _ in fresh_records.entries.values()] == [record]
        # equal tables built later read the kept verdicts: nothing is checked
        monkeypatch.setattr(algebra, "_check_equations", None)
        again = FiniteAlgebra("pqrst", *_tables(5))
        assert (classify(again), check_identity_catalog(again), quasi_order(again)) == want
        assert again._facts is record
    finally:
        gc.enable()


def _kept(store):
    """The values the store keeps, least recently used first."""
    return [value for value, _ in store.entries.values()]


def _charges(store):
    return [charge for _, charge in store.entries.values()]


def test_the_verdict_store_keeps_at_most_256_records_and_none_over_361_elements():
    from dbakit import algebra
    assert (algebra._FACTS.bound, algebra._FACTS.floor) == (1 << 18, 1 << 10)
    assert algebra._FACTS.bound // algebra._FACTS.floor == 256
    assert 2 * 361 * 362 <= algebra._FACTS.bound < 2 * 362 * 363


def test_the_least_recently_used_records_go_one_cell_past_the_bound(fresh_records):
    store = fresh_records
    small, large = store.floor, 2 * 40 * 41  # charges of n = 3 and n = 40
    assert 2 * 3 * 4 < small < large
    store.bound = 3 * small + large
    a, b, c = (_named(3, shift) for shift in range(3))
    big = _named(40)
    for alg in (a, b, c, big):
        classify(alg)
    assert _charges(store) == [small, small, small, large]
    assert store.cells == store.bound  # exactly at the bound: all kept
    assert _facts_of(_named(3, 0)) is a._facts  # a is now the most recently used
    # one cell past the bound: the least recently used record goes, b's
    d = FiniteAlgebra(["e0", "e1", "e2"], *_tables(3, 0)[:-2], 0, 0)
    store.bound = 4 * small + large - 1
    record = _facts_of(d)
    assert _kept(store) == [c._facts, big._facts, a._facts, record]
    assert store.cells == 3 * small + large <= store.bound
    # the evicted record stays with its live algebra and answers for it;
    # equal tables built now get a new record
    kept = b._facts
    fresh = _facts_of(_named(3, 1))
    assert fresh is not kept and fresh.classification is None and b._facts is kept
    assert kept.classification is classify(b) == classify(_named(3, 1))


def test_a_record_charged_past_the_bound_is_never_kept(fresh_records):
    store = fresh_records
    store.bound = 2 * store.floor
    a, big = _named(3), _named(40)  # charged 2 * 40 * 41 cells, past the bound
    _facts_of(a)
    assert classify(big) == classify(copy_of(big))
    assert big._facts is not _facts_of(copy_of(big))
    assert _kept(store) == [a._facts]  # and nothing was evicted for it
    assert store.cells == store.floor


def test_the_store_never_holds_more_than_its_bound(fresh_records):
    store = fresh_records
    rng = random.Random(5)
    sets = [(n, i % n) for i, n in enumerate(
        rng.choice((2, 3, 8, 24, 64, 128, 200)) for _ in range(600))]
    for n, shift in sets:
        _facts_of(_named(n, shift))
        assert store.cells == sum(_charges(store)) <= store.bound
    assert len(store.entries) < len(set(sets))  # some were evicted


def _relabelled(alg, perm):
    """alg with element x renamed perm[x] in its tables: isomorphic, with
    other tables unless perm fixes them."""
    inv = np.argsort(perm)
    grid = np.ix_(inv, inv)
    return FiniteAlgebra(alg.names, perm[alg.meet[grid]], perm[alg.join[grid]],
                         perm[alg.neg[inv]], perm[alg.opp[inv]], perm[alg.top], perm[alg.bot])


def _one_cell_off(alg, rng):
    meet = alg.meet.tolist()
    x, y = rng.randrange(alg.n), rng.randrange(alg.n)
    meet[x][y] = (meet[x][y] + 1) % alg.n
    return FiniteAlgebra(alg.names, meet, alg.join, alg.neg, alg.opp, alg.top, alg.bot)


def store_corpus():
    """Every 17th context up to 3x3: its proto and semi algebras, their
    Boolean parts and representation images, and a relabelled and a
    one-cell-perturbed variant of each."""
    from dbakit.representation import representation
    rng = random.Random(3)
    contexts = [c for g in (1, 2, 3) for m in (1, 2, 3) for c in all_contexts(g, m)][::17]
    algs = []
    for ctx in contexts:
        for kind in ("protoconcept", "semiconcept"):
            alg = protoconcept_algebra(ctx, kind).algebra
            algs += [alg, extract_boolean_part(alg, "meet"), extract_boolean_part(alg, "join")]
            if alg.n <= 20:
                algs.append(representation(alg).image)
    variants = [_relabelled(alg, np.array(rng.sample(range(alg.n), alg.n))) for alg in algs]
    variants += [_one_cell_off(alg, rng) for alg in algs if alg.n > 1]
    return algs + variants


def decided(alg):
    """What alg's tables decide, as plain values."""
    qo = quasi_order(alg)
    return ([check_suite(alg, s) for s in (DBA23, DCORE13, GDCORE11, BOOLEAN)],
            check_identity_catalog(alg),
            (qo.rel.tolist(), qo.reflexive, qo.transitive, qo.antisymmetric),
            classify(alg))


@pytest.mark.parametrize("bound", [None, 1 << 22])  # the store's own; one that keeps all
def test_a_warm_store_answers_as_an_empty_one(fresh_records, monkeypatch, bound):
    from dbakit import algebra
    store = fresh_records
    if bound is not None:
        store.bound = bound
    algs = store_corpus()
    for alg in algs:
        decided(copy_of(alg))
    batches, check = [], algebra._check_equations
    monkeypatch.setattr(algebra, "_check_equations",
                        lambda alg, equations: batches.append(alg) or check(alg, equations))
    warm = [decided(copy_of(alg)) for alg in algs]  # each copy looks its record up
    monkeypatch.setattr(algebra, "_check_equations", check)
    assert store.cells == sum(_charges(store)) <= store.bound
    distinct = len({alg.signature() for alg in algs})
    if bound is None:  # more table sets than the store keeps: some are checked again
        assert len(store.entries) < distinct and 0 < len(batches)
    else:  # every copy read a kept record
        assert len(store.entries) == distinct and not batches
    for alg, want in zip(algs, warm):
        with mock.patch.object(algebra, "_FACTS", algebra._LRU(store.bound, store.floor)):
            assert decided(copy_of(alg)) == want
    assert {r.ok for answer in warm for r in answer[0]} == {True, False}


def test_threads_share_one_record_of_equal_reports(fresh_records):
    # more threads than cores, switching often, all racing for the first record
    from dbakit import algebra
    ctx = FormalContext(["g0", "g1"], ["m0", "m1", "m2"], [[1, 0, 1], [0, 1, 1]])
    empty = algebra._LRU(fresh_records.bound, fresh_records.floor)
    with mock.patch.object(algebra, "_FACTS", empty):
        model = protoconcept_algebra(ctx).algebra
        want = classify(model), check_identity_catalog(model)
    assert not fresh_records.entries  # the threads start without a record
    start = threading.Barrier(4, timeout=60)
    results = [None] * 4

    def work(i):
        alg = copy_of(protoconcept_algebra(ctx).algebra)
        start.wait()
        results[i] = classify(alg), check_identity_catalog(alg), alg

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r is not None for r in results)
    for report, catalog, _ in results:
        assert report == want[0] and catalog == want[1]
    assert len({id(alg._facts) for _, _, alg in results}) == 1


def test_threads_evicting_from_one_store_keep_its_count(fresh_records):
    # more threads than cores look up 12 table sets in a store of 5 records,
    # switching often: a lost update of the charges would break their sum
    store, small = fresh_records, fresh_records.floor
    store.bound = 5 * small
    rng = random.Random(2)
    work = [[FiniteAlgebra("abc", *_tables(3, k % 3)[:-2], k // 3 % 3, k // 9)
             for k in rng.choices(range(12), k=300)] for _ in range(8)]
    start = threading.Barrier(8, timeout=60)

    def run(algs):
        start.wait()
        for alg in algs:
            _facts_of(alg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(algs,)) for algs in work]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(alg._facts is not None for algs in work for alg in algs)
    assert len(store.entries) == 5 and store.cells == 5 * small
    assert sum(_charges(store)) == store.cells


def neg_chain(depth):
    t = Var("x")
    for _ in range(depth):
        t = Neg(t)
    return t


@pytest.mark.parametrize("alg", [boolean2(), chain3()])
def test_checker_nesting_limit(alg):
    at_limit = Equation("deep", neg_chain(MAX_DEPTH), Var("x"))
    assert satisfies_equation(alg, at_limit).witness == brute_force_witness(alg, at_limit)
    for depth in (MAX_DEPTH + 1, 250, 3000):
        with pytest.raises(EvalError):
            satisfies_equation(alg, Equation("deep", Var("x"), neg_chain(depth)))


def test_checker_over_more_variables_than_nested_loops():
    # CPython compiles at most 20 nested loops; the rest run in one loop
    vs = [Var(f"v{i:02}") for i in range(25)]
    wide = functools.reduce(Meet, vs)
    verdict = satisfies_equation(singleton(), Equation("wide", wide, Neg(vs[24])))
    assert verdict.holds and verdict.witness is None


def test_checked_equations_are_not_kept_alive():
    # the compiled kernels are cached for the last 1024 distinct equations only
    alg = boolean2()
    first = None
    for i in range(1100):
        x = Var(f"one_off_{i}")
        equation = Equation("e", Meet(x, x), x)
        assert satisfies_equation(alg, equation).holds
        first = first or weakref.ref(equation.lhs)
    del x, equation
    gc.collect()
    assert first() is None
    assert _kernel.cache_info().currsize <= 1024


def test_eval_term_nesting_limit():
    alg = chain3()
    x = alg.index("mid")
    expected = x
    for _ in range(MAX_DEPTH):
        expected = alg._tuples()[2][expected]
    assert eval_term(alg, neg_chain(MAX_DEPTH), {"x": x}) == expected
    with pytest.raises(EvalError):
        eval_term(alg, neg_chain(MAX_DEPTH + 1), {"x": x})


def test_full_and_reduced_suites_agree_on_every_fixture():
    for name, alg in builtin_fixtures():
        assert check_suite(alg, DBA23).ok == check_suite(alg, DCORE13).ok, name


def test_suite_sizes():
    assert len(DBA23) == 23
    assert len(DCORE13) == 13
    assert len(GDCORE11) == 11
    assert set(GDCORE11.axiom_ids()) == set(DCORE13.axiom_ids()) - {"3a", "3b"}


# --- quasi_order -----------------------------------------------------------------

def test_quasi_order_reflexive_transitive_on_dbas():
    for name, alg in builtin_fixtures():
        if passes(alg, DBA23):
            qo = quasi_order(alg)
            assert qo.reflexive, name
            assert qo.transitive, name


def test_chain3_order_is_the_chain():
    alg = chain3()
    qo = quasi_order(alg)
    bot, mid, top = alg.index("bot"), alg.index("mid"), alg.index("top")
    assert qo.antisymmetric
    expected = {(bot, bot), (bot, mid), (bot, top), (mid, mid), (mid, top), (top, top)}
    got = {(x, y) for x in range(3) for y in range(3) if qo.rel[x, y]}
    assert got == expected


def test_reflexivity_is_syntactic():
    # x <= x needs no axioms at all: both defining equations are identities
    alg = cex_5ab()
    qo = quasi_order(alg)
    assert all(qo.rel[x, x] for x in range(alg.n))


def test_flags_match_recomputation():
    for _, alg in builtin_fixtures():
        qo = quasi_order(alg)
        n = alg.n
        rel = qo.rel
        assert qo.reflexive == all(rel[x, x] for x in range(n))
        assert qo.transitive == all(
            (not (rel[x, y] and rel[y, z])) or rel[x, z]
            for x in range(n) for y in range(n) for z in range(n))
        assert qo.antisymmetric == all(
            not (rel[x, y] and rel[y, x]) or x == y
            for x in range(n) for y in range(n))


# --- classify --------------------------------------------------------------------

def test_glued_sum_classification():
    from dbakit.constructions import glued_sum, powerset_boolean
    cl = classify(glued_sum(powerset_boolean(1), powerset_boolean(1)))
    assert cl.is_pure and cl.is_trivial and cl.is_contextual


def test_protoconcept_algebra_fully_contextual():
    ctx = FormalContext(["g1", "g2"], ["m1"], [[True], [False]])
    cl = classify(protoconcept_algebra(ctx).algebra)
    assert cl.is_fully_contextual


def unique_mixed_lift_reference(alg):
    """Reference: the per-pair loop over the idempotent sets."""
    squares = {}
    for z in range(alg.n):
        squares.setdefault((alg._tuples()[0][z][z], alg._tuples()[1][z][z]), []).append(z)
    for a in sorted(meet_idempotents(alg)):
        a_up = alg._tuples()[1][a][a]
        for b in sorted(join_idempotents(alg)):
            if a_up == alg._tuples()[0][b][b]:
                if len(squares.get((a, b), [])) != 1:
                    return False
    return True


def test_unique_mixed_lift_matches_the_per_pair_loop():
    # the pair algebras of every context up to 3x3 and of one seeded context
    # of each benchmark CLI shape, the fixtures, the size-3 DBA23 models and
    # random tables, whose squares repeat or miss
    rng = random.Random(30)
    ctxs = [ctx for g in range(4) for m in range(4) for ctx in all_contexts(g, m)]
    ctxs += [FormalContext([f"g{i}" for i in range(g)], [f"m{j}" for j in range(m)],
                           [[rng.random() < 0.5 for _ in range(m)] for _ in range(g)])
             for g, m in ((3, 3), (4, 4), (5, 4), (5, 5), (6, 5), (7, 6))]
    algs = [build(ctx).algebra for ctx in ctxs
            for build in (protoconcept_algebra, oo_protoconcept_algebra)]
    algs += [alg for _, alg in builtin_fixtures()]
    algs += enumerate_algebras(SearchSpec(size=3, require="DBA23")).found
    for n in range(1, 6):
        for _ in range(200):
            diag = [rng.choice((z, rng.randrange(n))) for z in range(n)]
            m = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            j = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            for z in range(n):
                m[z][z], j[z][z] = diag[z], rng.choice((z, diag[z], rng.randrange(n)))
            algs.append(FiniteAlgebra(range(n), m, j, list(range(n)), list(range(n)), 0, 0))
    verdicts = [unique_mixed_lift(alg) for alg in algs]
    assert verdicts == [unique_mixed_lift_reference(alg) for alg in algs]
    assert True in verdicts and False in verdicts


def test_singleton_all_flags():
    cl = classify(singleton())
    assert all([cl.is_dba, cl.is_dcore, cl.is_generalized_dcore, cl.is_contextual,
                cl.is_pure, cl.is_trivial, cl.is_fully_contextual])


def test_noncontextual_fixture_flags():
    cl = classify(noncontextual4())
    assert cl.is_dba and not cl.is_contextual and not cl.is_fully_contextual


def test_failure_witnesses_reevaluate_to_violations():
    for alg in (cex_5ab(), gdcore_not_dcore()):
        cl = classify(alg)
        assert cl.failures
        for qualified, witness in cl.failures:
            suite_id, axiom_id = qualified.split(":")
            equation = get_suite(suite_id).equation(axiom_id)
            assert eval_term(alg, equation.lhs, witness) != \
                eval_term(alg, equation.rhs, witness)


def test_idempotent_sets():
    alg = chain3()
    assert meet_idempotents(alg) == {alg.index("bot"), alg.index("mid")}
    assert join_idempotents(alg) == {alg.index("mid"), alg.index("top")}


# --- projections -------------------------------------------------------------------

def test_projection_examples():
    alg = chain3()
    assert project_meet(alg, alg.index("top")) == alg.index("mid")
    assert project_meet(cex_5ab(), 1) == 1
    for _, a in builtin_fixtures():
        if passes(a, DBA23):
            for x in range(a.n):
                assert project_meet(a, project_meet(a, x)) == project_meet(a, x)
                assert project_join(a, project_join(a, x)) == project_join(a, x)
                assert project_meet(a, x) in meet_idempotents(a)
                assert project_join(a, x) in join_idempotents(a)


# --- extract_boolean_part ------------------------------------------------------------

def test_chain3_boolean_parts():
    alg = chain3()
    part = extract_boolean_part(alg, "meet")
    assert part.names == ("bot", "mid")
    assert is_boolean_algebra(part)
    part2 = extract_boolean_part(alg, "join")
    assert part2.names == ("mid", "top")
    assert is_boolean_algebra(part2)


def test_singleton_boolean_part():
    part = extract_boolean_part(singleton(), "meet")
    assert part.n == 1 and is_boolean_algebra(part)


def test_boolean_parts_always_boolean_for_dbas():
    for name, alg in builtin_fixtures():
        if passes(alg, DBA23):
            for side in ("meet", "join"):
                assert is_boolean_algebra(extract_boolean_part(alg, side)), (name, side)


def test_protoconcept_meet_part_is_extent_semiconcepts():
    ctx = FormalContext(["g1", "g2"], ["m1", "m2"],
                        [[True, False], [True, True]])
    pa = protoconcept_algebra(ctx)
    part_names = set(extract_boolean_part(pa.algebra, "meet").names)
    from dbakit.fca import derive
    expected = {pa.algebra.names[i] for i, (a, b) in enumerate(pa.pairs)
                if b == derive(ctx, "extent", a)}
    assert part_names == expected


def test_extract_requires_dba():
    with pytest.raises(AlgebraError):
        extract_boolean_part(cex_5ab(), "meet")


def test_trivial_dba_collapse_laws():
    # in a trivial dBa the meet-idempotents all join to the bottom square and
    # oppose to top; dually for the join-idempotents
    from dbakit.constructions import glued_sum, powerset_boolean
    alg = glued_sum(powerset_boolean(2), powerset_boolean(1))
    assert classify(alg).is_trivial
    bsq = alg._tuples()[1][alg.bot][alg.bot]
    tsq = alg._tuples()[0][alg.top][alg.top]
    for x in meet_idempotents(alg):
        assert alg._tuples()[3][x] == alg.top
        for y in meet_idempotents(alg):
            assert alg._tuples()[1][x][y] == bsq
    for x in join_idempotents(alg):
        assert alg._tuples()[2][x] == alg.bot
        for y in join_idempotents(alg):
            assert alg._tuples()[0][x][y] == tsq


# --- identity catalog -----------------------------------------------------------------

def test_catalog_clean_on_dcore_fixtures():
    for name, alg in builtin_fixtures():
        if check_suite(alg, DCORE13).ok:
            _, fails = check_identity_catalog(alg)
            assert not fails, (name, [str(v) for v in fails])


def test_catalog_flags_counterexample():
    verdicts, fails = check_identity_catalog(cex_5ab())
    failed = {v.equation.id for v in fails}
    assert "dneg-is-meet-square" in failed  # b&b=b but ~~b=a
    v = next(v for v in verdicts if v.equation.id == "dneg-is-meet-square")
    assert v.witness == {"x": 1}


def test_catalog_clean_on_singleton():
    _, fails = check_identity_catalog(singleton())
    assert not fails


# --- randomized cross-checks ---------------------------------------------------

@st.composite
def _random_algebras(draw):
    n = draw(st.integers(1, 3))
    el = st.integers(0, n - 1)
    table = st.lists(st.lists(el, min_size=n, max_size=n), min_size=n, max_size=n)
    row = st.lists(el, min_size=n, max_size=n)
    return FiniteAlgebra(
        [f"e{i}" for i in range(n)],
        draw(table), draw(table), draw(row), draw(row), draw(el), draw(el))


@settings(max_examples=80, deadline=None)
@given(_random_algebras())
def test_random_algebra_invariants(alg):
    cl = classify(alg)
    for qualified, witness in cl.failures:
        suite_id, axiom_id = qualified.split(":")
        equation = get_suite(suite_id).equation(axiom_id)
        assert eval_term(alg, equation.lhs, witness) != \
            eval_term(alg, equation.rhs, witness)
    # the reduced and full axiom systems always agree
    assert cl.is_dba == cl.is_dcore
    # idempotent sets recompute from the tables
    assert cl.meet_idempotents == {x for x in range(alg.n) if project_meet(alg, x) == x}
    assert cl.join_idempotents == {x for x in range(alg.n) if project_join(alg, x) == x}
    qo = quasi_order(alg)
    assert qo.reflexive == all(qo.rel[x, x] for x in range(alg.n))
