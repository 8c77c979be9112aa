"""Compiled term evaluation against a recursive reference evaluator.

Covers ``eval_term``, the scalar and numpy equation checkers on both sides of
the ``n**k`` switch, the batched numpy checker against the per-equation one
it replaced, and the search's partial tables, where a term that reads a
missing entry must give the marker of the first one it reads, and the
search's compiled check of an equation the marker of the first side that
reads one.
"""

import random
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dbakit import algebra
from dbakit.algebra import (
    _VECTOR_THRESHOLD, FiniteAlgebra, _check_equations, eval_term, satisfies_equation,
)
from dbakit.search import _checker, _Partial, _slots
from dbakit.terms import BOT, TOP, Const, Equation, Join, Meet, Neg, Opp, Var, evaluator, fold

_terms = st.recursive(
    st.sampled_from([Var("x"), Var("y"), Var("z"), Var("w"), TOP, BOT]),
    lambda sub: st.one_of(
        st.builds(Neg, sub), st.builds(Opp, sub),
        st.builds(Meet, sub, sub), st.builds(Join, sub, sub)),
    max_leaves=8,
)
_seeds = st.integers(0, 2**32 - 1)


def reference_eval(t, meet, join, neg, opp, top, bot, env, n=None):
    """Value of t by plain recursion.  Given n, an entry >= n marks a missing
    entry, and t takes the marker of the first missing entry that it reads,
    left operand first."""
    def rec(u):
        return reference_eval(u, meet, join, neg, opp, top, bot, env, n)

    def missing(v):
        return n is not None and v >= n

    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return top if t.which == "top" else bot
    if isinstance(t, (Neg, Opp)):
        a = rec(t.arg)
        return a if missing(a) else (neg if isinstance(t, Neg) else opp)[a]
    a, b = rec(t.left), rec(t.right)
    if missing(a):
        return a
    if missing(b):
        return b
    return (meet if isinstance(t, Meet) else join)[a][b]


def tables(alg):
    return alg._rows_m, alg._rows_j, alg._lneg, alg._lopp, alg.top, alg.bot


def perturbed_chain(n, seed):
    """The n-chain (min, max, reversal) with a few cells overwritten at
    random, so that equations hold on most assignments but not all."""
    rng = random.Random(seed)
    meet = [[min(a, b) for b in range(n)] for a in range(n)]
    join = [[max(a, b) for b in range(n)] for a in range(n)]
    neg = [n - 1 - a for a in range(n)]
    opp = list(neg)
    for _ in range(rng.randrange(4)):
        table = rng.choice([meet, join, [neg], [opp]])
        row = rng.choice(table)
        row[rng.randrange(len(row))] = rng.randrange(n)
    return FiniteAlgebra([f"e{i}" for i in range(n)], meet, join, neg, opp, n - 1, 0)


def reference_witness(alg, equation):
    vs = equation.variables()
    for values in product(range(alg.n), repeat=len(vs)):
        env = dict(zip(vs, values))
        if (reference_eval(equation.lhs, *tables(alg), env)
                != reference_eval(equation.rhs, *tables(alg), env)):
            return env
    return None


# --- the per-equation numpy checker that the batched one replaced ----------
# Each equation on its own, in int64 arrays, chunked along its first variable.

def _np_eval(alg: FiniteAlgebra, t, axes: dict, k: int, first_vals):
    def var(name):
        ax = axes[name]
        vals = first_vals if ax == 0 else np.arange(alg.n, dtype=np.int64)
        shape = [1] * k
        shape[ax] = len(vals)
        return vals.reshape(shape)

    return fold(t, var, np.int64(alg.top), np.int64(alg.bot),
                alg.neg.__getitem__, alg.opp.__getitem__,
                lambda a, b: alg.meet[a, b], lambda a, b: alg.join[a, b])


def np_checker_reference(alg, equation, chunk_cells=1 << 22):
    """The first failing assignment of an equation with at least one
    variable, or None."""
    vs = equation.variables()
    k = len(vs)
    n = alg.n
    axes = {name: i for i, name in enumerate(vs)}
    inner = n ** (k - 1)
    block = max(1, chunk_cells // inner)
    for lo in range(0, n, block):
        first_vals = np.arange(lo, min(lo + block, n), dtype=np.int64)
        lv = _np_eval(alg, equation.lhs, axes, k, first_vals)
        rv = _np_eval(alg, equation.rhs, axes, k, first_vals)
        eqmask = np.broadcast_to(lv == rv, (len(first_vals),) + (n,) * (k - 1))
        if eqmask.all():
            continue
        flat = int(np.argmin(eqmask.reshape(-1)))  # first False, C order
        bad = np.unravel_index(flat, eqmask.shape)
        witness = {name: int(v) for name, v in zip(vs, bad)}
        witness[vs[0]] += lo
        return witness
    return None


@given(_terms, st.integers(1, 5), _seeds)
def test_eval_term_matches_reference(t, n, seed):
    alg = perturbed_chain(n, seed)
    rng = random.Random(seed)
    env = {name: rng.randrange(n) for name in ("x", "y", "z", "w")}
    assert eval_term(alg, t, env) == reference_eval(t, *tables(alg), env)


@settings(max_examples=30, deadline=None)
@given(_terms, _terms, st.booleans(), _seeds)
def test_checkers_match_reference_around_the_vector_threshold(lhs, rhs, above, seed):
    equation = Equation("e", lhs, rhs)
    k = len(equation.variables())
    assume(k >= 2)
    # the largest universe on the scalar path, or the smallest on the numpy one
    n = max(m for m in range(1, 65) if m ** k <= _VECTOR_THRESHOLD) + above
    assert (n ** k > _VECTOR_THRESHOLD) == above
    alg = perturbed_chain(n, seed)
    assert satisfies_equation(alg, equation).witness == reference_witness(alg, equation)


def _random_partial(n, missing, rng):
    """Search tables with slot k of the search order missing with
    probability ``missing``, and reference tables holding its marker n + k
    where it is missing."""
    partial = _Partial(n)
    top_bot = [None, None]
    neg, opp = [None] * n, [None] * n
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    for k, (kind, pos) in enumerate(_slots(n)):
        v = n + k if rng.random() < missing else rng.randrange(n)
        if v < n:
            cell, i = partial.cells[k]
            cell[i] = v
        if kind in ("top", "bot"):
            top_bot[k] = v
        elif kind in ("neg", "opp"):
            (neg if kind == "neg" else opp)[pos] = v
        else:
            (meet if kind == "meet" else join)[pos[0]][pos[1]] = v
    return partial, (meet, join, neg, opp, *top_bot)


@given(_terms, st.integers(1, 4), st.floats(0, 1), _seeds)
@example(Meet(Meet(Var("x"), Var("y")), Meet(Var("y"), Var("x"))), 2, 1.0, 0)
def test_partial_tables_match_a_marker_propagating_reference(t, n, missing, seed):
    rng = random.Random(seed)
    partial, ref_tables = _random_partial(n, missing, rng)
    env = {name: rng.randrange(n) for name in ("x", "y", "z", "w")}

    ref = reference_eval(t, *ref_tables, env, n)
    got = evaluator(t)(partial.meet, partial.join, partial.neg, partial.opp,
                       *partial.const, env)
    assert got == ref


@given(_terms, _terms, st.integers(1, 4), st.floats(0, 1), _seeds)
@example(Var("x"), Neg(Var("x")), 1, 0.0, 0)  # N = 1: a verdict, never marker 1
@example(TOP, BOT, 2, 0.5, 3)
def test_search_checker_matches_a_marker_propagating_reference(lhs, rhs, n, missing, seed):
    rng = random.Random(seed)
    partial, ref_tables = _random_partial(n, missing, rng)
    names = Equation("e", lhs, rhs).variables()
    values = tuple(rng.randrange(n) for _ in names)
    env = dict(zip(names, values))

    lv = reference_eval(lhs, *ref_tables, env, n)
    rv = reference_eval(rhs, *ref_tables, env, n)
    want = lv if lv >= n else rv if rv >= n else lv == rv
    got = _checker(lhs, rhs, names)(partial.meet, partial.join, partial.neg, partial.opp,
                                    *partial.const, values, n)
    assert got == want and type(got) is type(want)


def _over(*leaves):
    return st.recursive(
        st.sampled_from(leaves * 3 + (TOP, BOT)),
        lambda sub: st.one_of(
            st.builds(Neg, sub), st.builds(Opp, sub),
            st.builds(Meet, sub, sub), st.builds(Join, sub, sub)),
        max_leaves=5,
    )


_with_x = _over(Var("x"), Var("y"), Var("z"))
_without_x = _over(Var("y"), Var("z"), Var("w"))


def _chain_variant(t, how):
    """A term equal to t on every chain (min, max, reversal)."""
    if how == "commute" and isinstance(t, (Meet, Join)):
        return type(t)(t.right, t.left)
    if how == "square":
        return Meet(t, t)
    return Neg(Neg(t)) if how == "neg" else Opp(Opp(t))


@st.composite
def equation_batches(draw):
    """2-6 equations whose sides are built on a few shared subterms; some
    equations have no x, the batch's first variable.  Most are identities of
    the chain, so on a perturbed chain they fail late or not at all."""
    shared = {
        True: draw(st.lists(_with_x, min_size=1, max_size=3)),
        False: draw(st.lists(_without_x, min_size=1, max_size=3)),
    }
    batch = []
    for i in range(draw(st.integers(2, 6))):
        has_x = draw(st.booleans())
        common = st.sampled_from(shared[has_x])
        fresh = _with_x if has_x else _without_x
        mixed = st.one_of(st.builds(Meet, common, fresh), st.builds(Join, fresh, common))
        side = st.one_of(common, mixed, st.builds(Neg, mixed))
        lhs = draw(side)
        how = draw(st.sampled_from(["commute", "square", "neg", "opp", "any"]))
        rhs = draw(side) if how == "any" else _chain_variant(lhs, how)
        batch.append(Equation(f"e{i}", lhs, rhs))
    return batch


def _around_threshold():
    """The largest universes on the scalar path and the smallest on the
    numpy one, for equations of two and of three variables."""
    out = []
    for k in (2, 3):
        n = max(m for m in range(1, 65) if m ** k <= _VECTOR_THRESHOLD)
        out += [n, n + 1]
    return out


@settings(max_examples=60, deadline=None)
@given(equation_batches(), st.sampled_from(_around_threshold()),
       st.sampled_from([1, 40, algebra._VECTOR_CHUNK_CELLS]), _seeds)
def test_batched_checker_matches_the_per_equation_one(batch, n, chunk_cells, seed):
    # chunks of one or a few values of x put most witnesses in a later chunk
    alg = perturbed_chain(n, seed)
    with mock.patch.object(algebra, "_VECTOR_CHUNK_CELLS", chunk_cells):
        verdicts = _check_equations(alg, batch)
    assert [v.equation for v in verdicts] == batch
    for equation, verdict in zip(batch, verdicts):
        assert verdict.holds == (verdict.witness is None)
        assert verdict.witness == reference_witness(alg, equation)
        if equation.variables():
            assert verdict.witness == np_checker_reference(alg, equation, chunk_cells)


def planted_chain(n):
    """The n-chain with x & x wrong at its last element only."""
    meet = [[min(a, b) for b in range(n)] for a in range(n)]
    meet[n - 1][n - 1] = n - 2
    join = [[max(a, b) for b in range(n)] for a in range(n)]
    neg = [n - 1 - a for a in range(n)]
    return FiniteAlgebra([f"e{i}" for i in range(n)], meet, join, neg, neg, n - 1, 0)


@pytest.mark.parametrize("n", [256, 257])
@pytest.mark.parametrize("chunk_cells", [1, algebra._VECTOR_CHUNK_CELLS])
def test_element_values_survive_the_dtype_switch(n, chunk_cells):
    # 256 elements fit in uint8 and 257 do not; the failure is at x = n - 1
    alg = planted_chain(n)
    failing = Equation("idem", Join(Meet(Var("x"), Var("x")), Meet(Var("y"), BOT)),
                       Join(Var("x"), Meet(Var("y"), BOT)))
    holding = Equation("comm", Meet(Var("x"), Var("y")), Meet(Var("y"), Var("x")))
    assert n ** 2 > _VECTOR_THRESHOLD
    with mock.patch.object(algebra, "_VECTOR_CHUNK_CELLS", chunk_cells):
        bad, good = _check_equations(alg, [failing, holding])
    assert bad.witness == {"x": n - 1, "y": 0} == np_checker_reference(alg, failing)
    assert good.holds and np_checker_reference(alg, holding) is None
