"""Unpruned reference implementations that the engine's fast paths are
checked against.  No engine path calls them; the tests import them from
here (the name has no ``test_`` prefix, so pytest does not collect it).

* ``naive_sweep``: every complete candidate of a search spec, tested on the
  finished algebra, through the search's own spec checks, suites, budgets
  and summary.
* ``enumerate_primary_naive``: every subset of the universe tested directly
  for being a primary filter or ideal.
* ``schema_matches``: one-way matching of an axiom schema's sides by
  recursion over the pattern, the reference for the compiled
  ``logic._axiom_test``.
"""

from itertools import product, starmap

from dbakit.algebra import FiniteAlgebra
from dbakit.errors import BudgetError
from dbakit.logic import AxiomSchema, Sequent
from dbakit.representation import FilterSet, _make_filterset, is_primary
from dbakit.search import SearchSpec, SearchSummary, _checked, _collect, _models, _wants
from dbakit.terms import Const, Neg, Opp, Term, Var

NAIVE_SWEEP_LIMIT = 12


def naive_sweep(spec: SearchSpec, visitor=None) -> SearchSummary:
    """Unpruned oracle: visit every complete candidate and test the suites on
    the finished algebra.  Intended for size <= 2."""
    n, values = _checked(spec)
    names = [f"e{i}" for i in range(n)]

    def algebra(top, bot, *t):  # t: neg, opp, then the meet and join rows
        rows = [t[k:k + n] for k in range(2 * n, len(t), n)]
        return FiniteAlgebra(names, rows[:n], rows[n:], t[:n], t[n:2 * n], top, bot)

    summary = SearchSummary()
    candidates = starmap(algebra, product(*values))
    return _collect(_models(spec, candidates, _wants(spec), summary), summary, visitor)


def enumerate_primary_naive(alg: FiniteAlgebra, kind: str,
                            max_size: int = NAIVE_SWEEP_LIMIT) -> list[FilterSet]:
    """Oracle: test every subset directly."""
    if alg.n > max_size:
        raise BudgetError(
            f"naive sweep limited to {max_size} elements, got {alg.n}")
    out = []
    for mask in range(1 << alg.n):
        members = [x for x in range(alg.n) if mask >> x & 1]
        if is_primary(alg, members, kind):
            out.append(mask)
    return [_make_filterset(alg, kind, mask) for mask in sorted(out)]


def _match(pattern: Term, t: Term, binding: dict, var_sort: str | None) -> bool:
    """One-way matching; every Var in the pattern is a metavariable."""
    if isinstance(pattern, Var):
        bound = binding.get(pattern.name)
        if bound is not None:
            return bound == t
        if var_sort is not None and not (isinstance(t, Var) and t.sort == var_sort):
            return False
        binding[pattern.name] = t
        return True
    if type(pattern) is not type(t):
        return False
    if isinstance(pattern, Const):
        return pattern == t
    if isinstance(pattern, (Neg, Opp)):
        return _match(pattern.arg, t.arg, binding, var_sort)
    return (_match(pattern.left, t.left, binding, var_sort)
            and _match(pattern.right, t.right, binding, var_sort))


def schema_matches(schema: AxiomSchema, s: Sequent) -> bool:
    """Oracle: whether s is an instance of schema, by recursive matching."""
    binding: dict = {}
    return (_match(schema.lhs, s.ant, binding, schema.var_sort)
            and _match(schema.rhs, s.suc, binding, schema.var_sort))
