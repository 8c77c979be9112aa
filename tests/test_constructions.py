"""Boolean-pair constructions, glued sums, generalized glued sums."""

import hashlib
import itertools
import random
import re

import numpy as np
import pytest

from dbakit.algebra import FiniteAlgebra, classify, passes, quasi_order
from dbakit.constructions import (
    BooleanView, ConditionReport, RetractionPair, build_from_boolean_pair, canonical_pairs,
    check_theorem_conditions, generalized_glued_sum, glued_sum, powerset_boolean,
)
from dbakit.errors import ConstructionError
from dbakit.fca import FormalContext, protoconcept_algebra
from dbakit.fixtures import builtin_fixtures, chain3


def test_powerset_sizes_and_booleanness():
    assert powerset_boolean(0).n == 1
    assert powerset_boolean(1).n == 2
    view = powerset_boolean(2)
    assert view.n == 4
    assert passes(view.alg, "BOOLEAN")


def test_powerset_bound():
    with pytest.raises(ConstructionError):
        powerset_boolean(5)
    assert powerset_boolean(5, max_atoms=5).n == 32


def test_boolean_view_rejects_non_boolean():
    from dbakit.fixtures import cex_5ab
    with pytest.raises(ConstructionError):
        BooleanView(cex_5ab())


def test_retraction_law_enforced():
    p = powerset_boolean(1)
    with pytest.raises(ConstructionError, match="retraction"):
        RetractionPair(3, p, r=(0, 0, 0), e=(0, 1))  # r(e(1)) = 0 != 1


@pytest.mark.parametrize("r, e, message", [
    ((0, 1, 1), (0, 1.5), r"e\[1\] must be an integer index, got 1.5"),
    ((0, 1, 1), (0, True), r"e\[1\] must be an integer index, got True"),
    ((0, 1.0, 1), (0, 1), r"r\[1\] must be an integer index, got 1.0"),
    ((0, 1, "1"), (0, 1), r"r\[2\] must be an integer index, got '1'"),
])
def test_map_entries_that_are_no_index_are_rejected(r, e, message):
    # FiniteAlgebra's rule for indices: no truncation, bool or str
    with pytest.raises(ConstructionError, match=message):
        RetractionPair(3, powerset_boolean(1), r, e)


def test_map_entries_may_be_numpy_integers():
    pair = RetractionPair(3, powerset_boolean(1), np.array([0, 1, 1]), np.array([0, 1], np.int8))
    assert (pair.r, pair.e) == ((0, 1, 1), (0, 1))
    assert all(type(v) is int for v in pair.r + pair.e)


@pytest.mark.parametrize("overlap, message", [
    ({0: 1.7}, r"overlap\[0\] must be an integer index, got 1.7"),
    ({"0": 1}, "overlap key must be an integer index, got '0'"),
    ({True: 0}, "overlap key must be an integer index, got True"),
    ({1: False}, r"overlap\[1\] must be an integer index, got False"),
])
def test_overlap_entries_that_are_no_index_are_rejected(overlap, message):
    p = powerset_boolean(1)
    with pytest.raises(ConstructionError, match=message):
        generalized_glued_sum(p, p, overlap)


def test_overlap_entries_may_be_numpy_integers():
    p = powerset_boolean(1)
    glued = generalized_glued_sum(p, p, {np.int64(1): np.int32(0)}).algebra
    assert glued.signature() == generalized_glued_sum(p, p, {1: 0}).algebra.signature()


def test_canonical_pairs_rebuild_fixture_tables():
    for name, alg in builtin_fixtures():
        if not passes(alg, "DBA23"):
            continue
        p_pair, q_pair = canonical_pairs(alg)
        rebuilt = build_from_boolean_pair(alg.n, p_pair, q_pair, names=alg.names)
        assert rebuilt.signature() == alg.signature(), name
        cond = check_theorem_conditions(alg.n, p_pair, q_pair, "new")
        assert cond.ok, name


def test_trivial_boolean_inputs_give_singleton():
    one = powerset_boolean(0)
    pair = RetractionPair(1, one, r=(0,), e=(0,))
    alg = build_from_boolean_pair(1, pair, pair)
    assert alg.n == 1 and passes(alg, "DBA23")


def test_section4_chain_maps_build_the_glued_chain():
    # two 2-element Boolean algebras on a 3-element carrier {0=bot,1=mid,2=top}:
    # meet side lives on {0,1}, join side on {1,2}
    p = powerset_boolean(1)
    q = powerset_boolean(1)
    p_pair = RetractionPair(3, p, r=(0, 1, 1), e=(0, 1))
    q_pair = RetractionPair(3, q, r=(0, 0, 1), e=(1, 2))
    cond = check_theorem_conditions(3, p_pair, q_pair, "new")
    assert cond.ok
    alg = build_from_boolean_pair(3, p_pair, q_pair)
    assert passes(alg, "DBA23")
    assert alg.signature() == chain3().renamed(alg.names).signature()


def test_broken_embedding_breaks_conditions_and_dba():
    p = powerset_boolean(1)
    q = powerset_boolean(1)
    p_pair = RetractionPair(3, p, r=(0, 1, 1), e=(0, 1))
    q_bad = RetractionPair(3, q, r=(1, 0, 1), e=(1, 2))  # r' scrambled off-image
    cond = check_theorem_conditions(3, p_pair, q_bad, "new")
    assert not cond.commuting_ok
    alg = build_from_boolean_pair(3, p_pair, q_bad)
    assert not passes(alg, "DBA23")


def test_old_version_condition_implied_when_new_holds():
    instances = []
    for name, alg in builtin_fixtures():
        if passes(alg, "DBA23"):
            instances.append((alg.n, *canonical_pairs(alg)))
    for size, p_pair, q_pair in instances:
        new = check_theorem_conditions(size, p_pair, q_pair, "new")
        old = check_theorem_conditions(size, p_pair, q_pair, "old")
        assert new.ok
        assert old.constants_ok and old.ok


@pytest.mark.parametrize("count", [2, 4])
def test_names_of_another_length_are_a_construction_error(count):
    p_pair, q_pair = canonical_pairs(chain3())
    with pytest.raises(ConstructionError, match=f"length 3, the carrier size, got {count}"):
        build_from_boolean_pair(3, p_pair, q_pair, names=[f"a{i}" for i in range(count)])


def test_mismatched_carriers_rejected():
    p = powerset_boolean(1)
    a = RetractionPair(2, p, r=(0, 1), e=(0, 1))
    b = RetractionPair(3, p, r=(0, 1, 1), e=(0, 1))
    with pytest.raises(ConstructionError):
        build_from_boolean_pair(2, a, b)
    with pytest.raises(ConstructionError):
        check_theorem_conditions(2, a, b)


# --- glued sums ---------------------------------------------------------------

def test_glued_sum_two_two_element():
    alg = glued_sum(powerset_boolean(1), powerset_boolean(1))
    cl = classify(alg)
    assert alg.n == 3
    assert cl.is_dba and cl.is_pure and cl.is_trivial


def test_glued_sum_singletons():
    alg = glued_sum(powerset_boolean(0), powerset_boolean(0))
    assert alg.n == 1 and passes(alg, "DBA23")


def test_glued_sum_4_plus_2():
    p4, p1 = powerset_boolean(2), powerset_boolean(1)
    alg = glued_sum(p4, p1)
    cl = classify(alg)
    assert alg.n == p4.n + p1.n - 1 == 5
    assert cl.is_dba and cl.is_pure and cl.is_trivial
    # collapse laws of trivial algebras
    bsq = alg._tuples()[1][alg.bot][alg.bot]
    for x in sorted(cl.meet_idempotents):
        assert alg._tuples()[3][x] == alg.top
        for y in sorted(cl.meet_idempotents):
            assert alg._tuples()[1][x][y] == bsq


def test_glued_sum_size_formula():
    for ka in (0, 1, 2):
        for kb in (0, 1, 2):
            p, q = powerset_boolean(ka), powerset_boolean(kb)
            assert glued_sum(p, q).n == p.n + q.n - 1


# --- generalized glued sums ------------------------------------------------------

def _relabelled(view, perm, names):
    """The Boolean algebra of ``view`` with element i moved to index perm[i]."""
    a, n = view.alg, view.n
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    rng = range(n)
    return BooleanView(FiniteAlgebra(
        names,
        [[perm[a._tuples()[0][inv[x]][inv[y]]] for y in rng] for x in rng],
        [[perm[a._tuples()[1][inv[x]][inv[y]]] for y in rng] for x in rng],
        [perm[a._tuples()[2][inv[x]]] for x in rng],
        [perm[a._tuples()[3][inv[x]]] for x in rng],
        perm[a.top], perm[a.bot]))


def _reference_glued_sum(p, q):
    """Q stacked on P by the case tables, written independently of the
    embedding-retraction construction: meets inside P use P's meet, joins
    inside Q use Q's join, a meet of two elements of Q is the glue, a join
    of two elements of P is the glue, a mixed meet gives the P element and a
    mixed join the Q element; neg sends elements outside P to bot_P, opp
    elements outside Q to top_Q."""
    np_, nq = p.n, q.n
    size = np_ + nq - 1
    glue = p.top
    carrier_q = [j for j in range(nq) if j != q.bot]
    q_to_c = {q.bot: glue}
    for off, j in enumerate(carrier_q):
        q_to_c[j] = np_ + off
    c_to_q = {c: j for j, c in q_to_c.items()}

    def in_p(c):
        return c < np_

    def in_q(c):
        return c in c_to_q

    def meet(x, y):
        if in_p(x) and in_p(y):
            return p.meet(x, y)
        if in_q(x) and in_q(y):
            return glue
        return x if in_p(x) else y

    def join(x, y):
        if in_q(x) and in_q(y):
            return q_to_c[q.join(c_to_q[x], c_to_q[y])]
        if in_p(x) and in_p(y):
            return glue
        return y if in_q(y) else x

    def neg(x):
        return p.comp(x) if in_p(x) else p.bot

    def opp(x):
        return q_to_c[q.comp(c_to_q[x])] if in_q(x) else q_to_c[q.top]

    names = list(p.names)
    used = set(names)
    for j in carrier_q:
        nm = q.names[j]
        while nm in used:
            nm += "'"
        used.add(nm)
        names.append(nm)
    rng = range(size)
    return FiniteAlgebra(
        names,
        [[meet(x, y) for y in rng] for x in rng],
        [[join(x, y) for y in rng] for x in rng],
        [neg(x) for x in rng],
        [opp(x) for x in rng],
        q_to_c[q.top],
        p.bot,
    )


def _views():
    """Powersets on 0-3 atoms, plus relabellings whose bottom is not element
    0 and whose names clash across the two summands (so Q's names need
    primes, some of them twice)."""
    out = [powerset_boolean(k) for k in range(4)]
    out.append(_relabelled(powerset_boolean(1), [1, 0], ["s1", "s0"]))
    out.append(_relabelled(powerset_boolean(2), [2, 0, 3, 1], ["s0", "s3", "s1'", "s1"]))
    out.append(_relabelled(powerset_boolean(2), [3, 1, 0, 2], ["a", "b", "c", "d"]))
    out.append(_relabelled(powerset_boolean(3), [5, 2, 7, 0, 4, 1, 6, 3],
                           ["s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"]))
    return out


def test_singleton_overlap_reduces_to_glued_sum():
    views = _views()
    assert any(v.bot != 0 for v in views)
    for p in views:
        for q in views:
            want = _reference_glued_sum(p, q)
            got = glued_sum(p, q)
            assert got.names == want.names
            assert got.signature() == want.signature()
            gs = generalized_glued_sum(p, q, {p.top: q.bot})
            assert gs.algebra.names == want.names
            assert gs.algebra.signature() == want.signature()
            assert passes(got, "DBA23")


def _injective_overlaps(p, q, most):
    """Every injective partial map P -> Q with at most ``most`` pairs."""
    out = [{}]
    for k in range(1, most + 1):
        for ks in itertools.combinations(range(p.n), k):
            for vs in itertools.permutations(range(q.n), k):
                out.append(dict(zip(ks, vs)))
    return out


# sha256 of the glued and generalized glued sums over the grid below (tables,
# names, declared order and its flags, member sets), recorded before both
# constructions were routed through build_from_boolean_pair
GOLDEN_SUMS_DIGEST = "2c6b516fab3f2c0ad3e3eda9c5c589fe94ac5aabbde13e8414c872c7766938ac"


def test_glued_sums_match_golden_digest():
    h = hashlib.sha256()

    def feed(alg):
        h.update(repr((alg.names, alg.meet.tolist(), alg.join.tolist(), alg.neg.tolist(),
                       alg.opp.tolist(), alg.top, alg.bot)).encode())

    views = _views()[:7]  # up to 2 atoms
    for p in views:
        for q in views:
            feed(glued_sum(p, q))
            for overlap in _injective_overlaps(p, q, 2):
                gs = generalized_glued_sum(p, q, overlap)
                feed(gs.algebra)
                o = gs.order
                h.update(repr((o.rel.tolist(), o.reflexive, o.transitive, o.antisymmetric,
                               sorted(gs.p_members), sorted(gs.q_members))).encode())
    assert h.hexdigest() == GOLDEN_SUMS_DIGEST


def test_empty_overlap_is_linear_sum_plus_wraparound_pair():
    p, q = powerset_boolean(1), powerset_boolean(1)
    gs = generalized_glued_sum(p, q, {})
    assert gs.algebra.n == 4
    rel = gs.order.rel
    bot_q = 2  # q's bottom lands right after p's two elements
    top_p = p.top
    for x in range(4):
        for y in range(4):
            in_p = x < 2 and y < 2
            in_q = x >= 2 and y >= 2
            expected = (
                (in_p and p.leq(x, y))
                or (in_q and q.leq(x - 2, y - 2))
                or (x < 2 and y >= 2)
                or (x == bot_q and y == top_p)  # the extra pair beyond a linear sum
            )
            assert bool(rel[x, y]) == expected, (x, y)
    assert not gs.order.antisymmetric  # bot_q <= top_p <= bot_q


def test_generalized_order_matches_algebra_order():
    # the order equivalence holds whenever the carriers share at most the
    # glue point (empty overlap or top_P identified with bot_Q)
    cases = [
        (powerset_boolean(1), powerset_boolean(1), {}),
        (powerset_boolean(2), powerset_boolean(2), {}),
        (powerset_boolean(1), powerset_boolean(1), {1: 0}),
        (powerset_boolean(2), powerset_boolean(1), {3: 0}),
        (powerset_boolean(1), powerset_boolean(2), {1: 0}),
    ]
    for p, q, overlap in cases:
        gs = generalized_glued_sum(p, q, overlap)
        assert np.array_equal(gs.order.rel, quasi_order(gs.algebra).rel), overlap


def test_multi_share_overlap_separates_the_two_orders():
    # With a shared element besides the glue the declared order is strictly
    # coarser than the algebra's quasi-order: the shared element p1=q1 sits
    # below top_P=bot_Q in the declared order (everything in P is below
    # everything in Q) but joining it with the glue yields itself, not the
    # glue's join square, so the algebra does not relate them.
    p, q = powerset_boolean(2), powerset_boolean(2)
    gs = generalized_glued_sum(p, q, {3: 0, 1: 1})
    declared = gs.order.rel
    algebraic = quasi_order(gs.algebra).rel
    assert declared[1, 3] and not algebraic[1, 3]
    # the declared order stays coarser everywhere
    assert bool(np.all(algebraic <= declared))


def test_shared_pair_breaks_antisymmetry():
    p, q = powerset_boolean(2), powerset_boolean(2)
    gs = generalized_glued_sum(p, q, {3: 0, 1: 1})  # two shared elements
    assert not gs.order.antisymmetric
    rel = gs.order.rel
    assert rel[3, 1] and rel[1, 3]  # mutually below each other yet distinct


def test_overlap_with_both_bounds_gives_generalized_dcore():
    p, q = powerset_boolean(2), powerset_boolean(2)
    gs = generalized_glued_sum(p, q, {3: 0, 1: 1})  # top_p and bot_q shared
    assert passes(gs.algebra, "GDCORE11")


def test_non_injective_overlap_rejected():
    p, q = powerset_boolean(1), powerset_boolean(1)
    with pytest.raises(ConstructionError):
        generalized_glued_sum(p, q, {0: 0, 1: 0})


# --- biconditional under random perturbation --------------------------------------

def _perturbable_points(pair):
    image = set(pair.e)
    return [x for x in range(pair.carrier_size) if x not in image]


def test_conditions_iff_dba_under_fixed_seed_perturbations():
    rng = random.Random(20240824)
    bases = []
    for name, alg in builtin_fixtures():
        if passes(alg, "DBA23"):
            bases.append(canonical_pairs(alg) + (alg.n,))
    pa = protoconcept_algebra(
        FormalContext(["g1", "g2"], ["m1", "m2"], [[True, False], [True, True]]))
    bases.append(canonical_pairs(pa.algebra) + (pa.algebra.n,))
    done = 0
    while done < 40:
        p_pair, q_pair, size = bases[rng.randrange(len(bases))]
        which = rng.randrange(2)
        pair = (p_pair, q_pair)[which]
        points = _perturbable_points(pair)
        if not points:
            done += 1  # nothing to perturb on this base; count as exercised
            continue
        x = points[rng.randrange(len(points))]
        new_r = list(pair.r)
        new_r[x] = (new_r[x] + 1 + rng.randrange(pair.target.n - 1)) % pair.target.n
        mutated = RetractionPair(pair.carrier_size, pair.target, new_r, pair.e)
        pp = mutated if which == 0 else p_pair
        qq = mutated if which == 1 else q_pair
        cond = check_theorem_conditions(size, pp, qq, "new")
        built = build_from_boolean_pair(size, pp, qq)
        assert cond.ok == passes(built, "DBA23")
        done += 1


# --- the table forms against the loops they replaced --------------------------------

def build_loop(carrier_size, p_pair, q_pair):
    """Reference: ``build_from_boolean_pair`` as it was, one cell at a time."""
    p, q = p_pair.target, q_pair.target
    r, e, rp, ep = p_pair.r, p_pair.e, q_pair.r, q_pair.e
    rng = range(carrier_size)
    return FiniteAlgebra(
        [f"u{i}" for i in rng],
        [[e[p.meet(r[x], r[y])] for y in rng] for x in rng],
        [[ep[q.join(rp[x], rp[y])] for y in rng] for x in rng],
        [e[p.comp(r[x])] for x in rng], [ep[q.comp(rp[x])] for x in rng],
        ep[q.top], e[p.bot])


def conditions_loop(carrier_size, p_pair, q_pair, version):
    """Reference: ``check_theorem_conditions`` as it was, with the loops
    that stop at the first failing x, or (x, y) with meet before join."""
    p, q = p_pair.target, q_pair.target
    r, e, rp, ep = p_pair.r, p_pair.e, q_pair.r, q_pair.e
    failures = []
    commuting = True
    for x in range(carrier_size):
        if e[r[ep[rp[x]]]] != ep[rp[e[r[x]]]]:
            commuting = False
            failures.append(f"commuting: x={x}")
            break
    absorption = True
    for x in range(carrier_size):
        for y in range(carrier_size):
            if e[p.meet(r[x], r[ep[q.join(rp[x], rp[y])]])] != e[r[x]]:
                absorption = False
                failures.append(f"absorption-meet: x={x} y={y}")
                break
            if ep[q.join(rp[x], rp[e[p.meet(r[x], r[y])]])] != ep[rp[x]]:
                absorption = False
                failures.append(f"absorption-join: x={x} y={y}")
                break
        if not absorption:
            break
    constants = None
    if version == "old":
        constants = r[ep[q.top]] == p.top and rp[e[p.bot]] == q.bot
        if not constants:
            failures.append("constants")
    return ConditionReport(version, commuting, absorption, constants, tuple(failures))


def mutated_pairs(pair, rng, trials):
    """pair with r moved at a point outside e's image, or e moved to another
    point with the same image under r: the retraction law still holds."""
    for _ in range(trials):
        r, e = list(pair.r), list(pair.e)
        outside = [x for x in range(pair.carrier_size) if x not in set(e)]
        if outside and rng.random() < 0.7:
            r[rng.choice(outside)] = rng.randrange(pair.target.n)
        else:
            p = rng.randrange(pair.target.n)
            e[p] = rng.choice([x for x in range(pair.carrier_size) if r[x] == p])
        yield RetractionPair(pair.carrier_size, pair.target, r, e)


def test_tables_and_conditions_match_their_loops_on_mutated_pairs():
    rng = random.Random(22)
    algebras = [alg for _, alg in builtin_fixtures() if passes(alg, "DBA23")]
    algebras += [protoconcept_algebra(FormalContext(["g1", "g2"], ["m1", "m2"], rows)).algebra
                 for rows in ([[True, False], [True, True]], [[False, True], [True, False]])]
    algebras += [glued_sum(powerset_boolean(2), powerset_boolean(1))]
    seen = set()
    for alg in algebras:
        p_pair, q_pair = canonical_pairs(alg)
        inputs = [(p_pair, q_pair)]
        inputs += [(pp, q_pair) for pp in mutated_pairs(p_pair, rng, 15)]
        inputs += [(p_pair, qq) for qq in mutated_pairs(q_pair, rng, 15)]
        inputs += [(pp, qq) for pp, qq in zip(mutated_pairs(p_pair, rng, 15),
                                              mutated_pairs(q_pair, rng, 15))]
        for pp, qq in inputs:
            built = build_from_boolean_pair(alg.n, pp, qq)
            assert built.signature() == build_loop(alg.n, pp, qq).signature()
            assert built.names == tuple(f"u{i}" for i in range(alg.n))
            for version in ("old", "new"):
                got = check_theorem_conditions(alg.n, pp, qq, version)
                assert got == conditions_loop(alg.n, pp, qq, version)
                assert all(type(v) is bool for v in (got.commuting_ok, got.absorption_ok))
                seen.update(f.split(":")[0] for f in got.failures)
    assert seen == {"commuting", "absorption-meet", "absorption-join", "constants"}


@pytest.mark.parametrize("k, max_atoms, what", [
    (True, 4, "atom count"), (1.5, 4, "atom count"), (1.0, 4, "atom count"),
    ("1", 4, "atom count"), (1, 4.5, "max_atoms"), (1, True, "max_atoms")])
def test_powerset_parameters_must_be_integers(k, max_atoms, what):
    # powerset_boolean(True) used to build one atom, and 1.5 to raise TypeError
    bad = k if what == "atom count" else max_atoms
    with pytest.raises(ConstructionError, match=re.escape(f"{what} must be an integer index, "
                                                          f"got {bad!r}")):
        powerset_boolean(k, max_atoms)
    assert powerset_boolean(np.int64(2), np.uint8(4)).alg.signature() == \
        powerset_boolean(2).alg.signature()
