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
* ``representation_by_moved_pairs``: the representation built in separate
  steps, the reference for ``representation.representation``: each primary
  filter and ideal read back from its member bitmask, each element's masks
  from membership scans, and the algebra's own map pairs built and validated
  on its elements, then moved onto the pairs and validated again.
"""

from itertools import product, starmap

import numpy as np

from dbakit.algebra import FiniteAlgebra, _boolean_part, passes, quasi_order
from dbakit.constructions import (
    BooleanView, RetractionPair, build_from_boolean_pair, check_theorem_conditions,
)
from dbakit.errors import AlgebraError, BudgetError
from dbakit.fca import FormalContext
from dbakit.logic import AxiomSchema, Sequent
from dbakit.representation import (
    FilterSet, RepresentationResult, StandardContext, _is_homomorphism, _is_order_embedding,
    _is_primary, is_primary,
)
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


# --- the representation in separate steps --------------------------------------

def _mask_of(members) -> int:
    return sum(1 << x for x in set(members))


def _make_filterset(alg, kind, mask) -> FilterSet:
    members = frozenset(x for x in range(alg.n) if mask >> x & 1)
    return FilterSet(
        kind=kind,
        members=members,
        mask=mask,
        proper=len(members) != alg.n,
        primary=_is_primary(alg, members, kind),
    )


def enumerate_primary_by_masks(alg: FiniteAlgebra, kind: str) -> list[FilterSet]:
    """The closed form of ``enumerate_primary``, each set read back from its
    member bitmask.  Requires a dBa."""
    rel = quasi_order(alg).rel
    if kind == "filter":
        t, up = alg.meet, rel.tolist()
    else:
        t, up = alg.join, rel.T.tolist()
    part = np.flatnonzero(t.diagonal() == np.arange(alg.n)).tolist()
    atoms = [a for a in part if sum(up[b][a] for b in part if b != a) == 1]
    masks = sorted(_mask_of(z for z, above in enumerate(up[a]) if above) for a in atoms)
    return [_make_filterset(alg, kind, mask) for mask in masks]


def canonical_pairs_on_elements(alg: FiniteAlgebra):
    """The algebra's own map pairs on its elements: retract by squaring onto
    each Boolean part, embed by inclusion."""
    p, cap, cap_pos = _boolean_part(alg, "meet")
    q, cup, cup_pos = _boolean_part(alg, "join")
    r, rp = cap_pos[alg.meet.diagonal()].tolist(), cup_pos[alg.join.diagonal()].tolist()
    return (RetractionPair(alg.n, BooleanView(p), r, cap.tolist()),
            RetractionPair(alg.n, BooleanView(q), rp, cup.tolist()))


def _moved(pair: RetractionPair, h, size: int) -> RetractionPair:
    """``pair`` moved onto the image along the onto map h: r at a pair is r of
    any element mapped to it, and e is h after e."""
    r = {}
    for x, k in enumerate(h):
        if r.setdefault(k, pair.r[x]) != pair.r[x]:
            raise AlgebraError("representation retraction is not well defined")
    return RetractionPair(size, pair.target, [r[k] for k in range(size)],
                          [h[x] for x in pair.e])


def representation_by_moved_pairs(alg: FiniteAlgebra) -> RepresentationResult:
    """Oracle for ``representation``, on a dBa."""
    filters = tuple(enumerate_primary_by_masks(alg, "filter"))
    ideals = tuple(enumerate_primary_by_masks(alg, "ideal"))
    ctx = FormalContext([f"F{k}" for k in range(len(filters))],
                        [f"I{k}" for k in range(len(ideals))],
                        np.array([[bool(f.mask & i.mask) for i in ideals] for f in filters],
                                 dtype=bool).reshape(len(filters), len(ideals)))
    std = StandardContext("delta", filters, ideals, ctx)
    n = alg.n
    f_masks = tuple(sum(1 << k for k, f in enumerate(filters) if x in f.members)
                    for x in range(n))
    i_masks = tuple(sum(1 << k for k, i in enumerate(ideals) if x in i.members)
                    for x in range(n))
    pair_of = lambda x: (f_masks[x], i_masks[x])
    pairs = tuple(sorted(set(pair_of(x) for x in range(n))))
    pair_index = {p: k for k, p in enumerate(pairs)}
    h = tuple(pair_index[pair_of(x)] for x in range(n))

    p_pair, q_pair = (_moved(pair, h, len(pairs)) for pair in canonical_pairs_on_elements(alg))
    cond = check_theorem_conditions(len(pairs), p_pair, q_pair, "new")
    image = build_from_boolean_pair(
        len(pairs), p_pair, q_pair, names=[f"d{f:x}_{i:x}" for f, i in pairs])

    res = RepresentationResult(
        algebra=alg, std=std, f_masks=f_masks, i_masks=i_masks, pairs=pairs,
        h=h, image=image, meet_part=p_pair.target.alg, join_part=q_pair.target.alg,
        r_map=p_pair.r, e_map=p_pair.e, rp_map=q_pair.r, ep_map=q_pair.e,
    )
    res.conditions_ok = cond.ok
    res.image_is_dba = passes(image, "DBA23")
    res.parts_boolean = passes(res.meet_part, "BOOLEAN") and passes(res.join_part, "BOOLEAN")
    f = np.array(h)
    fx, fy = f[:, None], f[None, :]
    res.homomorphism = _is_homomorphism(
        alg, f, image.meet[fx, fy], image.join[fx, fy], image.neg[f], image.opp[f],
        image.top, image.bot)
    res.order_preserving_reflecting = _is_order_embedding(alg, quasi_order(image).rel[fx, fy])
    res.injective = len(set(h)) == n
    res.surjective = set(h) == set(range(len(pairs)))
    return res
