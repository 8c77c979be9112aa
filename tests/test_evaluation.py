"""Term evaluation against a recursive reference evaluator.

Covers ``eval_term``, the scalar and numpy equation checkers on both sides of
the ``n**k`` switch, the batched numpy checker and the batch kernel against
the per-equation checker and kernel they replaced, and the search's partial
tables, where a term that reads a missing entry must give the marker of the
first one it reads, and the search's compiled check of an equation the
marker of the first side that reads one, or the forcing of a cell: one side
an element, the other a lookup whose arguments are elements but whose cell
is missing.
"""

import functools
import random
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dbakit import algebra
from dbakit.algebra import (
    _VECTOR_THRESHOLD, FiniteAlgebra, _check_equations, _kernel, eval_term,
    satisfies_equation,
)
from dbakit.constructions import glued_sum, powerset_boolean
from dbakit.errors import EvalError
from dbakit.fixtures import boolean2, singleton
from dbakit.search import _checker, _Partial, _slots
from dbakit.suites import CATALOG, DBA23, DCORE13
from dbakit.terms import (
    BOT, MAX_DEPTH, TOP, Const, Equation, Join, Meet, Neg, Opp, Var, fold, parse_term, source,
)

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
    return (*alg._tuples(), alg.top, alg.bot)


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
    fn = eval("lambda M, J, G, O, TP, BT, env: " + source(t, lambda name: f"env[{name!r}]"))
    got = fn(partial.meet, partial.join, partial.neg, partial.opp, *partial.const, env)
    assert got == ref


@given(_terms, _terms, st.integers(1, 4), st.floats(0, 1), _seeds)
@example(Var("x"), Neg(Var("x")), 1, 0.0, 0)  # N = 1: a verdict, never marker 1
@example(TOP, BOT, 2, 0.5, 3)
@example(Var("x"), TOP, 2, 1.0, 0)  # forces top
@example(Meet(Var("x"), Var("y")), Neg(Var("x")), 2, 0.4, 0)  # forces meet, unless ~x is missing
@example(Neg(Meet(Var("x"), Var("y"))), Var("y"), 2, 1.0, 0)  # no forcing through an unfilled argument
def test_search_checker_matches_a_marker_propagating_reference(lhs, rhs, n, missing, seed):
    rng = random.Random(seed)
    partial, ref_tables = _random_partial(n, missing, rng)
    names = Equation("e", lhs, rhs).variables()
    values = tuple(rng.randrange(n) for _ in names)
    env = dict(zip(names, values))

    def value(t):
        return reference_eval(t, *ref_tables, env, n)

    def own_cell(t):
        """Whether t's value is the marker of its outermost lookup's own
        cell: t is a lookup whose arguments are elements."""
        if isinstance(t, Var):
            return False
        args = () if isinstance(t, Const) else (
            (t.arg,) if isinstance(t, (Neg, Opp)) else (t.left, t.right))
        return all(value(a) < n for a in args)

    lv, rv = value(lhs), value(rhs)
    if lv >= n:
        want = (lv, rv) if rv < n and own_cell(lhs) else lv
    elif rv >= n:
        want = (rv, lv) if own_cell(rhs) else rv
    else:
        want = lv == rv
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


def swapped_chain(n):
    """The n-chain with ~ swapping the images of n - 2 and n - 1, so that
    !~x is x except at those two, which it swaps, and with F & (n - 1) =
    n - 1."""
    meet = [[min(a, b) for b in range(n)] for a in range(n)]
    meet[0][n - 1] = n - 1
    join = [[max(a, b) for b in range(n)] for a in range(n)]
    opp = [n - 1 - a for a in range(n)]
    neg = opp[:n - 2] + [0, 1]
    return FiniteAlgebra([f"e{i}" for i in range(n)], meet, join, neg, opp, n - 1, 0)


def planted(texts):
    """t = t[x := !~x] for each t: it fails only where x is n - 2 or n - 1."""
    return [Equation(f"e{i}", parse_term(t), parse_term(t.replace("x", "(!~x)")))
            for i, t in enumerate(texts)]


# one side per lookup kind: an outer lookup of a variable and a pair, a
# transposed one, a constant operand, a folded chain, and a flat gather
_ONE_PER_LOOKUP = ["x & (y & z)", "(z & x) & y", "F & (x & y)", "~!(x | y)",
                   "vee(x & y, x & z)"]


def test_failures_in_the_second_chunk_match_the_scalar_kernel():
    # 65 is the least n at which a 3-variable batch takes two chunks of x
    n = 65
    assert algebra._VECTOR_CHUNK_CELLS // n ** 2 == 62
    alg = swapped_chain(n)
    batch = planted(_ONE_PER_LOOKUP)
    for verdict in _check_equations(alg, batch) + tuple(
            satisfies_equation(alg, e) for e in batch):
        e = verdict.equation
        names = e.variables()
        want = _kernel(names, ((e.lhs, e.rhs),))(*tables(alg), range(n))[0]
        assert verdict.witness == dict(zip(names, want))
        assert verdict.witness["x"] == n - 2


def test_a_folded_chain_past_the_dtype_switch_matches_the_scalar_kernel():
    n = 257  # elements no longer fit in uint8
    alg = swapped_chain(n)
    # ~! swaps 0 and 1 where !~ swaps n - 2 and n - 1, so a fold of the
    # chain in the wrong order moves the second witness
    batch = planted(["~!(x | y)"]) + [
        Equation("order", parse_term("~!(x | y)"), parse_term("x | y"))]
    verdicts = _check_equations(alg, batch)
    for e, verdict in zip(batch, verdicts):
        want = _kernel(("x", "y"), ((e.lhs, e.rhs),))(*tables(alg), range(n))[0]
        assert verdict.witness == dict(zip("xy", want))
    assert [v.witness for v in verdicts] == [{"x": n - 2, "y": 0}, {"x": 0, "y": 0}]


# --- the per-equation kernel that the batch kernel replaced ------------------
# One compiled function per equation: nested loops over its variables, the
# whole equation inline in the test, returning its first failing tuple.

@functools.lru_cache(maxsize=1024)
def per_equation_kernel(lhs, rhs, names):
    var = {name: f"v{i}" for i, name in enumerate(names)}.__getitem__
    k = len(names)
    loops = [f"for v{i} in R:" for i in range(k)]
    loops.append(f"if not ({source(lhs, var)} == {source(rhs, var)}): "
                 f"return ({''.join(f'v{i}, ' for i in range(k))})")
    lines = ["def first(M, J, G, O, TP, BT, R):"]
    lines += ["    " * (d + 1) + line for d, line in enumerate(loops)]
    lines.append("    return None")
    ns = {}
    exec("\n".join(lines), ns)
    return ns["first"]


def per_equation_witness(alg, equation):
    names = equation.variables()
    bad = per_equation_kernel(equation.lhs, equation.rhs, names)(*tables(alg), range(alg.n))
    return None if bad is None else dict(zip(names, bad))


def renamed(equation, names, ident):
    """The equation with each variable v renamed to names[v]."""
    def side(t):
        return fold(t, lambda v: Var(names[v]), TOP, BOT, Neg, Opp, Meet, Join)
    return Equation(ident, side(equation.lhs), side(equation.rhs))


def kernel_batch(k):
    """Equations over at most k variables: the suites' and the catalog's, the
    same over other variable sets, duplicate pairs under other ids, and
    equations without variables."""
    base = [e for e in DBA23.equations + DCORE13.equations + CATALOG
            if len(e.variables()) <= k]
    batch = list(base)
    batch += [renamed(e, {"x": "y", "y": "z", "z": "w"}, f"yzw-{e.id}") for e in base[::3]]
    batch += [renamed(e, {"x": "z", "y": "x", "z": "y"}, f"zxy-{e.id}") for e in base[1::4]]
    batch += [Equation(f"again-{e.id}", e.lhs, e.rhs) for e in base[::5]]
    batch += [Equation("neg-top", Neg(TOP), BOT), Equation("top-meet", Meet(TOP, BOT), TOP),
              Equation("opp-bot", Opp(BOT), TOP)]
    return batch


@pytest.mark.parametrize("n, k", [(6, 3), (7, 3), (16, 2), (17, 2),
                                  (algebra._NEST_MAX_N, 1), (algebra._NEST_MAX_N + 1, 1)])
def test_the_batch_kernel_matches_the_per_equation_kernel(n, k):
    # n on both sides of the cut: the equations over k variables run on
    # the kernel at the smaller n and in numpy at the larger, where past
    # _NEST_MAX_N only the constant ones stay on a nest
    nest_arity = algebra._scalar_arity(n) if n <= algebra._NEST_MAX_N else 0
    assert (nest_arity == k) == (n in (6, 16, algebra._NEST_MAX_N))
    batch = kernel_batch(k)
    assert {len(e.variables()) for e in batch} == set(range(k + 1))
    seen = set()
    for seed in range(6):
        alg = perturbed_chain(n, seed)
        verdicts = _check_equations(alg, batch)
        assert [v.equation for v in verdicts] == batch
        for equation, verdict in zip(batch, verdicts):
            assert verdict.witness == per_equation_witness(alg, equation), equation.id
            assert verdict.holds == (verdict.witness is None)
            seen.add(verdict.holds)
    assert seen == {True, False}


class CountingRange:
    """range(n) that counts the values it hands out."""

    def __init__(self, n, counter):
        self.n, self.counter = n, counter

    def __iter__(self):
        for v in range(self.n):
            self.counter.append(v)
            yield v


def test_a_batch_that_fails_at_once_stops_at_once():
    # on the reversed chain x = ~x fails at x = 0, and so does every
    # equation below, so each loop hands out one value only
    n = 6
    alg = perturbed_chain(n, 0)
    x, y, z = Var("x"), Var("y"), Var("z")
    batch = (Equation("a", x, Neg(x)), Equation("b", Meet(x, y), Neg(Meet(x, y))),
             Equation("c", Join(x, y), Opp(Join(x, y))),
             Equation("d", Meet(Join(x, y), z), Neg(Meet(Join(x, y), z))),
             Equation("e", Neg(Meet(y, z)), Meet(y, z)), Equation("f", TOP, BOT))
    verdicts = _check_equations(alg, batch)
    assert [v.witness for v in verdicts] == [per_equation_witness(alg, e) for e in batch]
    assert all(set(v.witness.values()) <= {0} for v in verdicts)
    plan = algebra._plan(batch, algebra._scalar_arity(n), None)
    assert not plan.vector
    handed = []
    bad = [w for nest in plan.kernel for w in nest(*tables(alg), CountingRange(n, handed))]
    assert [bad[i] for i in plan.slots] == [tuple(v.witness.values()) for v in verdicts]
    # one value per loop: x; x, y; x, y, z; y, z
    assert len(handed) == 1 + 2 + 3 + 2


def test_one_element_holds_every_equation_without_a_check():
    # on one element every term takes that element's value: batches of 25
    # and 40 variables hold from the plan alone, and a term deeper than
    # MAX_DEPTH still raises before any check
    alg = singleton()
    for k in (25, 40):
        vs = [Var(f"v{i:02}") for i in range(k)]
        batch = [Equation("holds", functools.reduce(Meet, vs), functools.reduce(Meet, vs[::-1])),
                 Equation("neg", functools.reduce(Meet, vs), Neg(vs[k - 1])),
                 Equation("const", functools.reduce(Join, vs), Meet(TOP, vs[20])),
                 Equation("narrow", functools.reduce(Join, vs[:22]), Opp(vs[21]))]
        verdicts = _check_equations(alg, batch)
        assert [v.equation for v in verdicts] == batch
        assert all(v.holds and v.witness is None for v in verdicts)
    deep = functools.reduce(lambda t, _: Neg(t), range(MAX_DEPTH + 1), Var("x"))
    with pytest.raises(EvalError, match="deeper than"):
        _check_equations(alg, [Equation("x", Var("x"), Var("x")), Equation("deep", deep, TOP)])


def test_a_nest_shared_by_size_classes_is_compiled_once():
    # 3, 6 and 16 elements put the catalog's equations over at most 5, 3 and
    # 2 variables on compiled nests: three plans, whose nests over (), (x,)
    # and (x, y) are the same functions, each compiled once
    sizes = (3, 6, 16)
    assert [algebra._scalar_arity(n) for n in sizes] == [5, 3, 2]
    algebra._plan.cache_clear()
    algebra._kernel.cache_clear()
    for n in sizes:
        alg = perturbed_chain(n, 1)
        verdicts = _check_equations(alg, CATALOG)
        assert [v.witness for v in verdicts] == [per_equation_witness(alg, e) for e in CATALOG]
    plans = [algebra._plan(CATALOG, algebra._scalar_arity(n), None) for n in sizes]
    assert [len(plan.kernel) for plan in plans] == [4, 4, 3]
    assert len({nest for plan in plans for nest in plan.kernel}) == 4
    assert algebra._kernel.cache_info().misses == 4


def test_the_plan_is_the_only_cache_of_the_numpy_steps():
    # at n = 20 every DBA23 equation over two or more variables runs in
    # numpy, in one chunk; the plan makes each batch's steps once, and a
    # second check in the same size class makes none
    n = 20
    alg = perturbed_chain(n, 3)
    algebra._plan.cache_clear()
    with mock.patch.object(algebra, "_vector_plan", wraps=algebra._vector_plan) as planner:
        first = _check_equations(alg, DBA23.equations)
        batches = len(algebra._plan(DBA23.equations, algebra._scalar_arity(n), None).vector)
        assert planner.call_count == batches > 0
        second = _check_equations(alg, DBA23.equations)
        assert planner.call_count == batches
    assert first == second
    assert [v.witness for v in first] == [per_equation_witness(alg, e) for e in DBA23.equations]


def test_a_split_plan_is_the_only_cache_of_its_numpy_steps():
    # at n = 65 DBA23's 3-variable batch passes the fibre cut and is
    # split by the sides its variables are bound to; the glued sum is a
    # dBa, so no pair fails and no chunk plans again
    alg = glued_sum(powerset_boolean(6, max_atoms=6), powerset_boolean(1))
    n = alg.n
    assert n == 65 and n ** 3 > algebra._FIBRE_CELLS
    split = (algebra._scalar_arity(n, algebra._FIBRE_CELLS), ("meet", "join"))
    algebra._plan.cache_clear()
    with mock.patch.object(algebra, "_vector_plan", wraps=algebra._vector_plan) as planner:
        first = _check_equations(alg, DBA23.equations)
        plan = algebra._plan(DBA23.equations, 0, split)  # past _NEST_MAX_N
        assert planner.call_count == len(plan.vector) > 0
        assert {tuple(sorted(set(bound.values()))) for _, bound, _, _ in plan.vector} >= {
            ("meet",), ("join",)}
        second = _check_equations(alg, DBA23.equations)
        assert planner.call_count == len(plan.vector)
    assert first == second and all(v.holds for v in first)
