"""Compiled term evaluation against a recursive reference evaluator.

Covers ``eval_term``, the scalar and numpy equation checkers on both sides of
the ``n**k`` switch, and the search's partial tables, where a term that reads
a missing entry must give the marker of the first one it reads.
"""

import random
from itertools import product

from hypothesis import assume, example, given, settings, strategies as st

from dbakit.algebra import _VECTOR_THRESHOLD, FiniteAlgebra, eval_term, satisfies_equation
from dbakit.search import _Partial, _slots
from dbakit.terms import BOT, TOP, Const, Equation, Join, Meet, Neg, Opp, Var, evaluator

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


@given(_terms, st.integers(1, 4), st.floats(0, 1), _seeds)
@example(Meet(Meet(Var("x"), Var("y")), Meet(Var("y"), Var("x"))), 2, 1.0, 0)
def test_partial_tables_match_a_marker_propagating_reference(t, n, missing, seed):
    # slot k of the search order is missing with probability `missing`; the
    # reference tables then hold its marker n + k
    rng = random.Random(seed)
    partial = _Partial(n)
    top_bot = [None, None]
    neg, opp = [None] * n, [None] * n
    meet = [[None] * n for _ in range(n)]
    join = [[None] * n for _ in range(n)]
    for k, (kind, pos) in enumerate(_slots(n)):
        v = n + k if rng.random() < missing else rng.randrange(n)
        if v < n:
            partial.set(k, v)
        if kind in ("top", "bot"):
            top_bot[k] = v
        elif kind in ("neg", "opp"):
            (neg if kind == "neg" else opp)[pos] = v
        else:
            (meet if kind == "meet" else join)[pos[0]][pos[1]] = v
    env = {name: rng.randrange(n) for name in ("x", "y", "z", "w")}

    ref = reference_eval(t, meet, join, neg, opp, *top_bot, env, n)
    got = evaluator(t)(partial.meet, partial.join, partial.neg, partial.opp,
                       partial.top, partial.bot, env)
    assert got == ref
