"""Algebra kernel: evaluation, suite checking, classification, Boolean parts."""

import functools
import gc
import tracemalloc
import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbakit.algebra import (
    _VECTOR_THRESHOLD, FiniteAlgebra, _kernel, check_identity_catalog, check_suite, classify,
    eval_term, extract_boolean_part, is_boolean_algebra, join_idempotents, meet_idempotents,
    passes, project_join, project_meet, quasi_order, satisfies_equation,
)
from dbakit.errors import AlgebraError, EvalError, SuiteError
from dbakit.fca import FormalContext, protoconcept_algebra
from dbakit.fixtures import (
    boolean2, builtin_fixtures, cex_5ab, chain3, gdcore_not_dcore, noncontextual4,
    singleton,
)
from dbakit.suites import DBA23, DCORE13, GDCORE11, get_suite
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
    meet = [list(row) for row in base._rows_m]
    meet[3][2] = (meet[3][2] + 1) % base.n
    broken = FiniteAlgebra(base.names, meet, base._rows_j, base._lneg,
                           base._lopp, base.top, base.bot)
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


def test_classify_checks_its_three_suites_in_one_batch(monkeypatch):
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
        assert check_suite(alg, suite).verdicts == check_suite(fresh, suite).verdicts
    assert batches[1:] == [len(DBA23), len(DCORE13), len(GDCORE11)]  # alg's were cached


def test_classify_is_cached_per_algebra():
    alg = chain3()
    assert classify(alg) is classify(alg)
    assert classify(alg) == classify(chain3())


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
        expected = alg._lneg[expected]
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


def test_order_rows_are_the_relation_computed_once():
    for name, alg in builtin_fixtures():
        qo = quasi_order(alg)
        assert qo.rows == tuple(tuple(bool(v) for v in row) for row in qo.rel), name
        assert quasi_order(alg).rows is qo.rows, name


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
    bsq = alg._rows_j[alg.bot][alg.bot]
    tsq = alg._rows_m[alg.top][alg.top]
    for x in meet_idempotents(alg):
        assert alg._lopp[x] == alg.top
        for y in meet_idempotents(alg):
            assert alg._rows_j[x][y] == bsq
    for x in join_idempotents(alg):
        assert alg._lneg[x] == alg.bot
        for y in join_idempotents(alg):
            assert alg._rows_m[x][y] == tsq


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
