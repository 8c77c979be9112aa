"""Duality: swapping meet and join, the two negations, and top and bottom.

``terms.dual`` derives the second member of every dual pair in DBA23,
DCORE13 and the identity catalog.  On an algebra the same swap is
``dual_algebra``, and evaluating t there is evaluating ``dual(t)`` in the
original.  So classification and suite checks must agree on an algebra and
its dual, up to the swap of the a/b ids.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from dbakit.algebra import FiniteAlgebra, check_suite, classify, eval_term
from dbakit.fixtures import builtin_fixtures
from dbakit.logic import AXIOM_SCHEMAS
from dbakit.search import SearchSpec, enumerate_algebras
from dbakit.suites import BOOLEAN, CATALOG, DBA23, DCORE13, GDCORE11
from dbakit.terms import OBJECT, PROPERTY, Join, Meet, Neg, Opp, Var, dual, parse_term

# SHA-256 over the "<suite> <equation>" lines, in suite order, of the tables
# as they were written out in full before the duals were derived.
SUITE_TABLES_DIGEST = "5d11e752bb35233653ff28603f609566e1c2922d903447bb79860b079ef219bb"

_FLAGS = ("is_dba", "is_dcore", "is_generalized_dcore", "is_contextual", "is_pure",
          "is_trivial", "is_fully_contextual")


def dual_algebra(alg: FiniteAlgebra) -> FiniteAlgebra:
    return FiniteAlgebra(alg.names, alg.join, alg.meet, alg.opp, alg.neg, alg.bot, alg.top)


def _random_size2(rng):
    def table():
        return [[rng.randrange(2) for _ in range(2)] for _ in range(2)]
    return FiniteAlgebra(["e0", "e1"], table(), table(), [rng.randrange(2) for _ in range(2)],
                         [rng.randrange(2) for _ in range(2)], rng.randrange(2), rng.randrange(2))


def _corpus():
    out = [(name, alg) for name, alg in builtin_fixtures()]
    for n in (1, 2, 3):
        found = enumerate_algebras(SearchSpec(size=n, require="DBA23")).found
        out += [(f"dba{n}-{i}", alg) for i, alg in enumerate(found)]
    rng = random.Random(16)
    out += [(f"random2-{i}", _random_size2(rng)) for i in range(200)]
    return out


CORPUS = _corpus()


def _swap_ab(axiom_id: str) -> str:
    return axiom_id[:-1] + {"a": "b", "b": "a"}.get(axiom_id[-1], axiom_id[-1])


def test_the_corpus_holds_dbas_and_non_dbas():
    verdicts = {classify(alg).is_dba for _, alg in CORPUS}
    assert verdicts == {True, False}
    assert sum(name.startswith("dba3-") for name, _ in CORPUS) == 45


def test_classify_is_invariant_under_duality():
    for name, alg in CORPUS:
        a, d = classify(alg), classify(dual_algebra(alg))
        assert [getattr(d, f) for f in _FLAGS] == [getattr(a, f) for f in _FLAGS], name
        assert d.meet_idempotents == a.join_idempotents, name
        assert d.join_idempotents == a.meet_idempotents, name


@pytest.mark.parametrize("suite", [DBA23, DCORE13], ids=lambda s: s.id)
def test_the_dual_algebra_fails_the_swapped_ids_with_the_same_witnesses(suite):
    for name, alg in CORPUS:
        a, d = check_suite(alg, suite), check_suite(dual_algebra(alg), suite)
        expected = {i: a.witness(i) for i in a.failing_ids()}
        assert {_swap_ab(i): d.witness(i) for i in d.failing_ids()} == expected, name


def test_every_suite_pair_is_the_dual_of_its_first_member():
    for suite in (DBA23, DCORE13):
        by_id = {e.id: e for e in suite.equations}
        for e in suite.equations:
            other = by_id[_swap_ab(e.id)]
            sides = (dual(e.lhs), dual(e.rhs))
            assert sides in ((other.lhs, other.rhs), (other.rhs, other.lhs)), e.id


_terms = st.recursive(
    st.sampled_from([Var("x"), Var("y"), parse_term("T"), parse_term("F")]),
    lambda sub: st.one_of(
        st.builds(Neg, sub), st.builds(Opp, sub),
        st.builds(Meet, sub, sub), st.builds(Join, sub, sub)),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(_terms, st.sampled_from(CORPUS), st.integers(0, 2), st.integers(0, 2))
def test_a_term_in_the_dual_algebra_is_its_dual_in_the_algebra(t, named, x, y):
    _, alg = named
    env = {"x": x % alg.n, "y": y % alg.n}
    assert dual(dual(t)) is t
    assert eval_term(dual_algebra(alg), t, env) == eval_term(alg, dual(t), env)


def test_dual_gives_generic_variables():
    assert dual(Meet(Var("p", OBJECT), Var("P", PROPERTY))) is Join(Var("p"), Var("P"))


def test_the_axiom_schemas_are_closed_under_duality():
    # an HL object schema dualizes to a property schema and back
    sort = {None: None, OBJECT: PROPERTY, PROPERTY: OBJECT}

    def key(s):
        return s.lhs, s.rhs, s.hl_only, s.var_sort

    schemas = {key(s) for s in AXIOM_SCHEMAS}
    assert {(dual(s.rhs), dual(s.lhs), s.hl_only, sort[s.var_sort])
            for s in AXIOM_SCHEMAS} == schemas
    assert len(schemas) == len(AXIOM_SCHEMAS)


def test_the_suite_tables_are_unchanged():
    lines = [f"{name} {e}"
             for name, eqs in (("DBA23", DBA23.equations), ("DCORE13", DCORE13.equations),
                               ("GDCORE11", GDCORE11.equations),
                               ("BOOLEAN", BOOLEAN.equations), ("CATALOG", CATALOG))
             for e in eqs]
    assert len(lines) == 147
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SUITE_TABLES_DIGEST
