"""Model enumeration: determinism, pruning soundness, fixture properties."""

import pytest

from dbakit.algebra import check_suite, passes
from dbakit.errors import SuiteError
from dbakit.fixtures import builtin_fixtures, get_fixture
from dbakit.search import (
    SearchSpec, candidate_count, enumerate_algebras, naive_sweep,
)
from dbakit.suites import DBA23, DCORE13


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
        assert len(set(map(tuple, alg._rows_m))) == 1  # constant tables
        assert alg.top == alg.bot


def test_complete_size3_dba_and_dcore_searches_agree():
    a = enumerate_algebras(SearchSpec(size=3, require="DBA23"))
    b = enumerate_algebras(SearchSpec(size=3, require="DCORE13"))
    assert a.complete and b.complete
    assert a.models == 45
    assert [x.signature() for x in a.found] == [x.signature() for x in b.found]
