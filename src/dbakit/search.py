"""Exhaustive enumeration of finite algebras with constraint pruning.

Candidates on a universe of size n are generated in a fixed order: the two
constants first (top, then bot), then the unary maps (neg, then opp), then
the binary tables (meet, then join) in row-major order, each slot running
through element values ascending.  An axiom of the required suite is
evaluated on a ground instance as soon as the last table entry it needs is
filled; a violation prunes the whole subtree.  This keeps the search
reproducible across runs and platforms, and sound with respect to the naive
sweep of every candidate (which the tests keep as an oracle).  The search is
one generator over an explicit stack of open slots: ``iter_algebras`` yields
its models lazily, in this order, and ``enumerate_algebras`` collects them.

Ground instances are watched, as in SEM (Zhang & Zhang, IJCAI 1995) and
Mace4 (McCune, 2003): an unfilled slot holds a marker (see ``_Partial``), so
evaluating an instance on the partial tables gives either its value or the
marker of an unfilled slot that it reads.  Each blocked instance is parked on
that slot's watch list, and filling a slot re-evaluates only the instances
parked on it; one that is still blocked moves to the list of a later slot.

The search also propagates, as SEM and Mace4 do.  When one side of an
instance is an element w and the other side's outermost lookup has element
arguments but an unfilled cell, that cell must hold w: every other value
would violate the instance as soon as the cell was filled.  The cell is
filled with w at once and recorded on the node's trail, which is undone on
backtrack like the watch-list moves, and the instances parked on it are
evaluated in turn.  A forced value outside the values of its slot (a pinned
constant) is a conflict, as is an instance that evaluates to False.  The
depth-first step passes through a slot that is already filled without
branching.  So the surviving assignments and their order are those of the
search without propagation, and of a rescan of every instance at every node;
only dead subtrees are cut earlier, and the number of nodes never rises.

When the required suite is DBA23 or DCORE13 and no axiom must fail, the
search also watches four implied identities of ``CATALOG`` (``_IMPLIED``).
Holding on every model, they cut only dead subtrees.  Of the size-5 (4, 0)
pin's 48,823 nodes, ``neg-meet-top`` (~x & T = ~x) and its dual
``opp-join-bot`` leave 18,076, and ``bot-absorbs-meet`` (F & x = F) and its
dual ``top-absorbs-join`` then 16,726; the (0, 0) pin reads 63, not 24,033.
Exactness rests on their following from DCORE13, so far checked on finite
models only.

Each equation is compiled once, whatever the universe size, into one check
of both sides (see ``_checker``), and an instance is that check with the
tuple of its variables' values: evaluating an instance is one call, which
gives the verdict, the marker to park it on, or the forcing ``(marker of
the cell, w)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import product

from .algebra import FiniteAlgebra, _integer, satisfies_equation
from .errors import BudgetError, EvalError, SuiteError
from .suites import CATALOG, DBA23, DCORE13, get_suite
from .terms import MAX_DEPTH, TABLE_NAMES, Const, Neg, Opp, Var, source

# Size n has 2 + 2n + 2n**2 slots, and the partial tables give each slot
# marker a row and a column: (n + 2 + 2n + 2n**2)**2 cells per binary table,
# growing as n**4.  On a 2-core Intel Xeon (Python 3.11) the first DBA23
# model takes 0.05 s and 37 MB peak RSS at size 16, 0.5 s and 127 MB at 32,
# 1.0 s and 251 MB at 40.
MAX_SEARCH_SIZE = 16


@dataclass(frozen=True)
class SearchSpec:
    """What to enumerate: universe size, a suite that must hold (minus the
    must_fail axioms, which must each be violated), optional pinned constants,
    and budgets on the models and on the candidates read."""

    size: int
    require: str | None = None
    must_fail: tuple[str, ...] = ()
    fixed_top: int | None = None
    fixed_bot: int | None = None
    max_models: int | None = None
    max_candidates: int | None = None


@dataclass
class SearchSummary:
    candidates: int = 0
    models: int = 0
    complete: bool = True
    found: list = field(default_factory=list)
    nodes: int = 0  # slots reached by the depth-first search, leaves and forced slots included
    forced: int = 0  # cells filled by propagation


def candidate_count(n: int) -> int:
    """Size of the unconstrained candidate space on n elements."""
    return n ** (2 * n * n) * n ** (2 * n) * n * n


def _slots(n):
    """(kind, position) in assignment order."""
    out = [("top", None), ("bot", None)]
    out += [("neg", i) for i in range(n)]
    out += [("opp", i) for i in range(n)]
    out += [("meet", (i, j)) for i in range(n) for j in range(n)]
    out += [("join", (i, j)) for i in range(n) for j in range(n)]
    return out


class _Partial:
    """Mutable slot view of a candidate: constants, unary maps, binary tables.

    Slot k (in the order of ``_slots``) holds its marker ``n + k`` while it
    is unfilled; ``cells[k]`` is the (list, index) pair that holds it, the
    constants top and bot being ``const[0]`` and ``const[1]``.  The tables
    have ``n + S`` rows and columns, S being the number of slots: every
    operation maps a marker argument to itself, and the left operand wins
    when both are markers.  So a compiled term evaluates to an element
    exactly when it reads no unfilled slot, and otherwise to the marker of
    the first unfilled slot that its evaluation reaches, left operand first.
    """

    __slots__ = ("n", "const", "neg", "opp", "meet", "join", "cells")

    def __init__(self, n):
        slots = _slots(n)
        size = n + len(slots)
        marker = {slot: n + k for k, slot in enumerate(slots)}
        self.n = n
        self.const = [marker["top", None], marker["bot", None]]
        self.neg = [marker["neg", i] for i in range(n)] + list(range(n, size))
        self.opp = [marker["opp", i] for i in range(n)] + list(range(n, size))
        self.meet = [[marker["meet", (i, j)] for j in range(n)] + list(range(n, size))
                     for i in range(n)] + [[x] * size for x in range(n, size)]
        self.join = [[marker["join", (i, j)] for j in range(n)] + list(range(n, size))
                     for i in range(n)] + [[x] * size for x in range(n, size)]
        self.cells = [(self.const, 0), (self.const, 1)]
        self.cells += [(self.neg, i) for i in range(n)]
        self.cells += [(self.opp, i) for i in range(n)]
        self.cells += [(self.meet[i], j) for i in range(n) for j in range(n)]
        self.cells += [(self.join[i], j) for i in range(n) for j in range(n)]

    def to_algebra(self):
        n = self.n
        return FiniteAlgebra(
            [f"e{i}" for i in range(n)],
            [row[:n] for row in self.meet[:n]], [row[:n] for row in self.join[:n]],
            self.neg[:n], self.opp[:n], *self.const)


def _side(t, var, x):
    """Source lines that set ``x`` to the value of side t, computing the
    arguments of its outermost lookup first, and the condition under which a
    marker in ``x`` is that lookup's own unfilled cell: its arguments are
    elements.  The condition is None for a variable, which is never a
    marker."""
    cls = type(t)
    if cls is Var:
        return [f"{x} = {source(t, var)}"], None
    if cls is Const:
        return [f"{x} = {source(t, var)}"], "True"
    if cls in (Neg, Opp):
        return [f"{x}a = {source(t.arg, var)}", f"{x} = {TABLE_NAMES[cls]}[{x}a]"], f"{x}a < N"
    return ([f"{x}a = {source(t.left, var)}", f"{x}b = {source(t.right, var)}",
             f"{x} = {TABLE_NAMES[cls]}[{x}a][{x}b]"], f"{x}a < N and {x}b < N")


@functools.lru_cache(maxsize=1024)
def _checker(lhs, rhs, names):
    """lhs = rhs compiled to ``f(M, J, G, O, TP, BT, E, N)`` on the partial
    tables of a universe of N elements, E holding the values of ``names`` in
    order.  When one side is an element w and the other side's outermost
    lookup has element arguments but an unfilled cell, that cell must hold w,
    and the result is the forcing ``(marker of the cell, w)``.  Otherwise it
    is the marker of the lhs if it reads an unfilled slot, else that of the
    rhs if it does, else whether the two sides are equal.  Keyed by the
    interned terms and independent of N, so one compiled function serves
    every universe size.  Raises EvalError when a side is deeper than
    ``MAX_DEPTH``."""
    if max(lhs.depth, rhs.depth) > MAX_DEPTH:
        raise EvalError(f"term is deeper than {MAX_DEPTH} operators")
    var = {name: f"E[{i}]" for i, name in enumerate(names)}.__getitem__
    left, lcell = _side(lhs, var, "lv")
    right, rcell = _side(rhs, var, "rv")
    lines = ["def check(M, J, G, O, TP, BT, E, N):"]
    lines += ["    " + line for line in left + right]
    if lcell is not None:
        lines += [f"    if lv >= N: return (lv, rv) if rv < N and {lcell} else lv"]
    if rcell is not None:
        lines += [f"    if rv >= N: return (rv, lv) if {rcell} else rv"]
    lines += ["    return lv == rv"]
    ns = {}
    exec("\n".join(lines), ns)  # closed vocabulary: generated from Term nodes only
    return ns["check"]


def _pin(value, n, what):
    """The values of a constant's slot: the pinned element, or all of them."""
    if value is None:
        return range(n)
    v = _integer(value, what, SuiteError)
    if not 0 <= v < n:
        raise SuiteError(f"{what} must be in [0, {n}), got {v}")
    return (v,)


def _checked(spec: SearchSpec):
    """The universe size and each slot's values in slot order: range(n), or
    the pinned constant.  Raises SuiteError for a size below 1, a pin outside
    the universe, a negative budget, or any of these that is not an
    integer, and BudgetError for a size over ``MAX_SEARCH_SIZE``, before any
    slot list is built."""
    n = _integer(spec.size, "universe size", SuiteError)
    if n < 1:
        raise SuiteError("universe size must be >= 1")
    if n > MAX_SEARCH_SIZE:
        raise BudgetError(f"universe size {n} is over the search limit of {MAX_SEARCH_SIZE}")
    for what in ("max_models", "max_candidates"):
        budget = getattr(spec, what)
        if budget is not None and _integer(budget, what, SuiteError) < 0:
            raise SuiteError(f"{what} must be >= 0, got {budget}")
    return n, ([_pin(spec.fixed_top, n, "fixed_top"), _pin(spec.fixed_bot, n, "fixed_bot")]
               + [range(n)] * (2 * n + 2 * n * n))


def _wants(spec: SearchSpec):
    """Each equation of the required suite with the verdict that a model
    gives it: False for a must_fail axiom.  Raises SuiteError for a
    must_fail axiom outside the suite."""
    require = get_suite(spec.require).equations if spec.require else ()
    must_fail = set(spec.must_fail)
    missing = must_fail - {e.id for e in require}
    if missing:
        raise SuiteError(f"must_fail axioms not in the required suite: {sorted(missing)}")
    return [(e, e.id not in must_fail) for e in require]


def _models(spec: SearchSpec, candidates, checks, summary: SearchSummary):
    """The candidates on which each (equation, verdict) check holds, in
    order.  Every candidate read is counted in summary; when a budget runs
    out the stream ends and summary is flagged incomplete."""
    for alg in candidates:
        if spec.max_candidates is not None and summary.candidates >= spec.max_candidates:
            break
        summary.candidates += 1
        if any(satisfies_equation(alg, eqn).holds != want for eqn, want in checks):
            continue
        if spec.max_models == 0:  # a positive budget stops the stream below, once spent
            break
        summary.models += 1
        yield alg
        if spec.max_models is not None and summary.models >= spec.max_models:
            break
    else:
        return
    summary.complete = False


def _collect(models, summary: SearchSummary, visitor) -> SearchSummary:
    for alg in models:
        if visitor is not None:
            visitor(alg)
        summary.found.append(alg)
    return summary


def _leaves(n, values, instances, summary: SearchSummary):
    """Every assignment of the slots, in search order, that no instance
    violates, as an algebra; the node and forced-cell counts are stored in
    summary at each one and at the end."""
    partial = _Partial(n)
    cells = partial.cells
    nslots = len(cells)
    m, j, g, o, const = partial.meet, partial.join, partial.neg, partial.opp, partial.const
    watch = [[] for _ in range(n + nslots)]  # watch[n + k]: instances parked on slot k
    nodes = forced = 0

    def park(instances, moved, trail):
        """Evaluate the instances on the partial tables and append each one
        that reads an unfilled slot to that slot's watch list, recording the
        list in moved.  A forced cell is filled at once and its slot recorded
        in trail, and the instances parked on it are evaluated in turn.
        False as soon as one is violated or a forced value is not among its
        slot's values."""
        nonlocal forced
        top, bot = const
        work = [instances]
        for batch in work:  # grows while it is walked
            for inst in batch:
                check, env = inst
                v = check(m, j, g, o, top, bot, env, n)
                if v is True:
                    continue
                if v is False:
                    return False
                if v.__class__ is tuple:
                    c, w = v
                    k = c - n
                    if w not in values[k]:
                        return False
                    cell, i = cells[k]
                    cell[i] = w
                    trail.append(k)
                    forced += 1
                    if k < 2:
                        top, bot = const
                    work.append(watch[c])
                    continue
                watch[v].append(inst)
                moved.append(v)
        return True

    def undo(moved, trail):
        for k in moved:
            watch[k].pop()
        for k in trail:
            cell, i = cells[k]
            cell[i] = n + k

    stack = []  # per open slot: [cell, index, parked, slot, values untried, moved, trail]
    depth = 0
    searching = park(instances, [], [])
    while searching:
        nodes += 1  # slot depth is reached, every slot before it filled
        if depth == nslots:
            summary.nodes, summary.forced = nodes, forced
            yield partial.to_algebra()
        else:
            cell, i = cells[depth]
            if cell[i] < n:  # forced: passed through without branching
                depth += 1
                continue
            stack.append([cell, i, watch[n + depth], depth, iter(values[depth]), (), ()])
        # the next value of the innermost open slot that its parked instances
        # admit; a slot whose values are spent is unfilled and closed
        searching = False
        while stack and not searching:
            cell, i, parked, k, untried, moved, trail = frame = stack[-1]
            undo(moved, trail)
            for v in untried:
                cell[i] = v
                moved, trail = [], []  # undone before the next value
                if park(parked, moved, trail):
                    frame[5] = moved
                    frame[6] = trail
                    depth, searching = k + 1, True
                    break
                undo(moved, trail)
            else:
                cell[i] = n + k
                stack.pop()
    summary.nodes, summary.forced = nodes, forced


# consequences of DCORE13, watched next to DBA23 or DCORE13 (see above)
_IMPLIED = tuple(e for e in CATALOG if e.id in (
    "neg-meet-top", "opp-join-bot", "bot-absorbs-meet", "top-absorbs-join"))


def _search(spec: SearchSpec, summary: SearchSummary):
    n, values = _checked(spec)
    wants = _wants(spec)
    watched = [eqn for eqn, want in wants if want]
    if not spec.must_fail and spec.require and get_suite(spec.require) in (DBA23, DCORE13):
        watched += _IMPLIED
    # ground instances of the watched equations: (checker, values in the
    # checker's variable order)
    instances = []
    for eqn in watched:
        vs = eqn.variables()
        check = _checker(eqn.lhs, eqn.rhs, vs)
        instances += [(check, vals) for vals in product(range(n), repeat=len(vs))]
    fails = [(eqn, want) for eqn, want in wants if not want]
    return _models(spec, _leaves(n, values, instances, summary), fails, summary)


def iter_algebras(spec: SearchSpec):
    """The models of spec, lazily, in search order, up to its budgets.

    A size over ``MAX_SEARCH_SIZE`` is a BudgetError, and every error in
    spec is raised here, before any model is read."""
    return _search(spec, SearchSummary())


def enumerate_algebras(spec: SearchSpec, visitor=None) -> SearchSummary:
    """Depth-first enumeration with axiom pruning: the models of
    ``iter_algebras``, each passed to the visitor (if any) and collected
    into the summary, which is flagged incomplete when a budget runs out."""
    summary = SearchSummary()
    return _collect(_search(spec, summary), summary, visitor)

