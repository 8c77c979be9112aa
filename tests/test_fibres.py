"""Square-fibre ranges in the numpy equation checker, against full ranges.

A numpy batch past ``algebra._FIBRE_CELLS`` ranges each variable whose
every occurrence is an operand of & or ~ (of | or !) over the least element
of each fibre of x -> x&x (of x -> x|x), when the tables cannot tell an
element from its square (``algebra._fibres``).  The reference is the same
check with ``_fibres`` patched to find no side, so that every variable
ranges over every element.  3-variable batches pass the cut at n = 33 and
stop fitting one chunk at n = 65, so the algebras here sit on both sides of
each.
"""

import random
from unittest import mock

import numpy as np
import pytest

from dbakit import algebra
from dbakit.algebra import FiniteAlgebra, _check_equations
from dbakit.constructions import glued_sum, powerset_boolean
from dbakit.fca import FormalContext, protoconcept_algebra
from dbakit.suites import BOOLEAN, CATALOG, DBA23, DCORE13, GDCORE11
from dbakit.terms import Equation, parse_term

SUITES = {"DBA23": DBA23.equations, "DCORE13": DCORE13.equations,
          "GDCORE11": GDCORE11.equations, "BOOLEAN": BOOLEAN.equations,
          "CATALOG": tuple(CATALOG)}
# row bitmasks of a 6x5 and a 7x6 context, with 85 and 178 protoconcepts
CONTEXTS = {85: ((17, 24, 3, 10, 1, 13), 5), 178: ((43, 44, 5, 28, 54, 59, 15), 6)}


def reference(alg, equations):
    """The verdicts with every variable over every element."""
    with mock.patch.object(algebra, "_fibres", lambda alg: {}):
        return _check_equations(alg, equations)


def reduced(alg, equations):
    """The verdicts, and the (variable, fibre count) pairs of the variables
    that ranged over fibres."""
    seen, check = set(), algebra._vector_witnesses

    def spy(alg, batch, steps, keys, axes):
        seen.update((v, len(r)) for v, r in axes.items())
        return check(alg, batch, steps, keys, axes)

    with mock.patch.object(algebra, "_vector_witnesses", spy):
        return _check_equations(alg, equations), seen


def assert_same_verdicts(alg, suites=SUITES):
    """The reduced and the full verdicts agree on every suite; returns the
    variables that ranged over fibres and the number of failing verdicts."""
    fired, failing = set(), 0
    for name, equations in suites.items():
        got, seen = reduced(alg, equations)
        assert got == reference(alg, equations), name
        fired |= seen
        failing += sum(not v.holds for v in got)
    return fired, failing


def context_algebra(n):
    rows, m = CONTEXTS[n]
    inc = [[bool(r >> j & 1) for j in range(m)] for r in rows]
    ctx = FormalContext([f"g{i}" for i in range(len(rows))], [f"m{j}" for j in range(m)], inc)
    alg = protoconcept_algebra(ctx).algebra
    assert alg.n == n
    return alg


def glued(p, q):
    """The glued sum of the powerset algebras on p and q atoms, with
    2**p + 2**q - 1 elements."""
    return glued_sum(powerset_boolean(p, max_atoms=p), powerset_boolean(q, max_atoms=q))


def block_perturbed(alg, seed, blocks=3):
    """alg with a few blocks fibre x fibre of its meet and join tables, and
    the images of a fibre under its negations, overwritten at random: the
    tables still cannot tell an element from its square, but axioms fail."""
    rng = random.Random(seed)
    tabs = [alg.meet.copy(), alg.join.copy(), alg.neg.copy(), alg.opp.copy()]
    for t, u in ((tabs[0], tabs[2]), (tabs[1], tabs[3])):
        sq = t.diagonal().copy()
        least = sorted(set(sq.tolist()))
        if len(least) < 2:
            continue
        for _ in range(blocks):
            a, b = rng.sample(least, 2)  # a != b: the diagonal stays
            t[np.ix_(sq == a, sq == b)] = rng.randrange(alg.n)
        u[sq == rng.choice(least)] = rng.randrange(alg.n)
    return FiniteAlgebra(alg.names, *tabs, alg.top, alg.bot)


def with_cell(alg, which, index, value):
    """alg with one cell of one table overwritten."""
    tabs = {k: getattr(alg, k).copy() for k in ("meet", "join", "neg", "opp")}
    tabs[which][index] = value
    return FiniteAlgebra(alg.names, tabs["meet"], tabs["join"], tabs["neg"], tabs["opp"],
                         alg.top, alg.bot)


@pytest.mark.parametrize("p, q, counts", [
    (5, 0, set()),  # 32 elements: every batch is within the cut, nothing is reduced
    (5, 1, {32, 2}),  # 33: the 3-variable batches range over 32 meet and 2 join fibres
    (6, 0, {1}),  # 64: within one chunk, over the one join fibre
    (6, 1, {64, 2}),  # 65: past one chunk
])
@pytest.mark.parametrize("seed", range(3))
def test_perturbed_glued_sums_on_both_sides_of_the_cut(p, q, counts, seed):
    assert 32 ** 3 <= algebra._FIBRE_CELLS < 33 ** 3
    assert 64 ** 3 <= algebra._VECTOR_CHUNK_CELLS < 65 ** 3
    alg = block_perturbed(glued(p, q), seed)
    assert alg.n == 2 ** p + 2 ** q - 1
    assert set(algebra._fibres(alg)) == ({"join"} if q == 0 else {"meet", "join"})
    fired, failing = assert_same_verdicts(alg)
    assert failing > 0
    assert {count for _, count in fired} == counts


@pytest.mark.parametrize("n", sorted(CONTEXTS))
def test_protoconcept_algebras_of_the_cli_shapes(n):
    alg = context_algebra(n)
    fired, failing = assert_same_verdicts(alg)
    assert failing == 4  # BOOLEAN's; the protoconcept algebra is a dBa
    assert {count for _, count in fired} == {len(f) for f in algebra._fibres(alg).values()}
    fired, failing = assert_same_verdicts(block_perturbed(alg, n))
    assert fired and failing > 4


def test_the_255_element_glued_sum():
    alg = glued(7, 7)
    assert alg.n == 255
    fired, failing = assert_same_verdicts(alg, {"DBA23": DBA23.equations,
                                                "CATALOG": tuple(CATALOG)})
    assert failing == 0 and {count for _, count in fired} == {128}


# --- what keeps a variable or a side on every element -------------------------

@pytest.mark.parametrize("text, bound", [
    ("x & (y & z) = x & y & z", {"x": "meet", "y": "meet", "z": "meet"}),
    ("x | !(!y | !z) = !(!(x | y) | !(x | z))", {"x": "join", "y": "join", "z": "join"}),
    ("vee(x, y) & z = ~z", {"x": "meet", "y": "meet", "z": "meet"}),
    ("x = x & (y & z)", {"y": "meet", "z": "meet"}),  # x bare on one side
    ("x & (x | y) = x & (z & z)", {"y": "join", "z": "meet"}),  # x under & and |
    ("x & ~(~y & ~(x | z)) = x & ~(F & ~y)", {"y": "meet", "z": "join"}),
])
def test_bare_and_mixed_variables_keep_every_element(text, bound):
    pair = tuple(parse_term(side) for side in text.split(" = "))
    assert dict(algebra._bound(pair, ("meet", "join"))) == bound
    assert dict(algebra._bound(pair, ("meet",))) == {
        v: s for v, s in bound.items() if s == "meet"}
    alg = block_perturbed(glued(6, 1), 0)
    equations = [Equation("e", *pair)]
    got, seen = reduced(alg, equations)
    assert got == reference(alg, equations)
    assert {v for v, _ in seen} == set(bound)


def test_only_left_absorption_disables_the_meet_side():
    # row 0 and column top: 0 & top = 1 while 0 & (top & top) = 0 & top_P = 0
    base = glued(6, 1)
    alg = with_cell(base, "meet", (0, base.top), 1)
    assert (alg.meet[alg.meet.diagonal()] == alg.meet).all()  # (x&x) & y = x & y
    assert set(algebra._fibres(alg)) == {"join"}
    fired, failing = assert_same_verdicts(alg)
    assert failing > 0 and {count for _, count in fired} == {2}


def test_a_negation_that_tells_a_square_disables_its_side():
    # ~top != ~(top & top): the meet side goes; !bot != !(bot | bot): the join side
    base = glued(6, 1)
    alg = with_cell(base, "neg", base.top, 5)
    assert set(algebra._fibres(alg)) == {"join"}
    fired, _ = assert_same_verdicts(alg)
    assert {count for _, count in fired} == {2}
    alg = with_cell(base, "opp", base.bot, 5)
    assert set(algebra._fibres(alg)) == {"meet"}
    fired, _ = assert_same_verdicts(alg)
    assert {count for _, count in fired} == {64}


def test_no_side_leaves_the_batches_whole():
    base = glued(6, 1)
    alg = with_cell(with_cell(base, "neg", base.top, 5), "opp", base.bot, 5)
    assert algebra._fibres(alg) == {}
    fired, failing = assert_same_verdicts(alg)
    assert not fired and failing > 0
