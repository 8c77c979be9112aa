"""Exhaustive enumeration of finite algebras with constraint pruning.

Candidates on a universe of size n are generated in a fixed order: the two
constants first (top, then bot), then the unary maps (neg, then opp), then
the binary tables (meet, then join) in row-major order, each slot running
through element values ascending.  An axiom of the required suite is
evaluated on a ground instance as soon as the last table entry it needs is
filled; a violation prunes the whole subtree.  This keeps the search
reproducible across runs and platforms, and sound with respect to the naive
sweep (which is also provided, as an oracle).

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

Each equation is compiled once, whatever the universe size, into one check
of both sides (see ``_checker``), and an instance is that check with the
tuple of its variables' values: evaluating an instance is one call, which
gives the verdict, the marker to park it on, or the forcing ``(marker of
the cell, w)``.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from itertools import product

from .algebra import FiniteAlgebra, satisfies_equation
from .errors import BudgetError, EvalError, SuiteError
from .suites import get_suite
from .terms import MAX_DEPTH, Const, Join, Meet, Neg, Opp, Var, source

# The depth-first step recurses once per slot, and size n has 2 + 2n + 2n**2
# slots.  Size 16 (546 slots) leaves about 400 of CPython's default 1,000
# frames to the caller; size 22 (1,014 slots) overflows even from the CLI.
MAX_SEARCH_SIZE = 16


@dataclass(frozen=True)
class SearchSpec:
    """What to enumerate: universe size, a suite that must hold (minus the
    must_fail axioms, which must each be violated), optional pinned constants,
    and visitor budgets."""

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
    nodes: int = 0  # calls of the depth-first step, leaves and forced slots included
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


_TABLE = {Meet: "M", Join: "J", Neg: "G", Opp: "O"}


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
        return [f"{x}a = {source(t.arg, var)}", f"{x} = {_TABLE[cls]}[{x}a]"], f"{x}a < N"
    return ([f"{x}a = {source(t.left, var)}", f"{x}b = {source(t.right, var)}",
             f"{x} = {_TABLE[cls]}[{x}a][{x}b]"], f"{x}a < N and {x}b < N")


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
    """A pinned constant as an element index, or None when unpinned."""
    if value is None:
        return None
    try:
        v = operator.index(value)
    except TypeError:
        raise SuiteError(f"{what} must be an element index, got {value!r}") from None
    if not 0 <= v < n:
        raise SuiteError(f"{what} must be in [0, {n}), got {v}")
    return v


def _checked_pins(spec: SearchSpec, n: int):
    """The pinned (top, bot), each None when unpinned.  Raises SuiteError for
    a pin outside the universe or a negative budget."""
    for what in ("max_models", "max_candidates"):
        budget = getattr(spec, what)
        if budget is not None and budget < 0:
            raise SuiteError(f"{what} must be >= 0, got {budget}")
    return _pin(spec.fixed_top, n, "fixed_top"), _pin(spec.fixed_bot, n, "fixed_bot")


def enumerate_algebras(spec: SearchSpec, visitor=None) -> SearchSummary:
    """Depth-first enumeration with axiom pruning.

    The visitor (if any) is called with each model in order; models are also
    collected into the summary (capped by max_models).  When a budget runs
    out the summary is flagged incomplete.  A size over ``MAX_SEARCH_SIZE``
    is a BudgetError.
    """
    n = spec.size
    if n < 1:
        raise SuiteError("universe size must be >= 1")
    if n > MAX_SEARCH_SIZE:
        raise BudgetError(f"universe size {n} is over the search limit of {MAX_SEARCH_SIZE}")
    top_pin, bot_pin = _checked_pins(spec, n)
    require = get_suite(spec.require).equations if spec.require else ()
    must_fail = set(spec.must_fail)
    prunable = [e for e in require if e.id not in must_fail]
    fail_eqs = [e for e in require if e.id in must_fail]
    if must_fail and len(fail_eqs) != len(must_fail):
        missing = must_fail - {e.id for e in fail_eqs}
        raise SuiteError(f"must_fail axioms not in the required suite: {sorted(missing)}")

    partial = _Partial(n)
    cells = partial.cells
    nslots = len(cells)
    m, j, g, o, const = partial.meet, partial.join, partial.neg, partial.opp, partial.const
    watch = [[] for _ in range(n + nslots)]  # watch[n + k]: instances parked on slot k
    values = [range(n)] * nslots
    if top_pin is not None:
        values[0] = (top_pin,)
    if bot_pin is not None:
        values[1] = (bot_pin,)
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

    # ground instances of the prunable axioms: (checker, values in the
    # checker's variable order)
    instances = []
    for eqn in prunable:
        vs = eqn.variables()
        check = _checker(eqn.lhs, eqn.rhs, vs)
        instances += [(check, vals) for vals in product(range(n), repeat=len(vs))]
    consistent = park(instances, [], [])
    summary = SearchSummary()
    out_of_budget = False

    def leaf():
        nonlocal out_of_budget
        if spec.max_candidates is not None and summary.candidates >= spec.max_candidates:
            out_of_budget = True
            return
        summary.candidates += 1
        alg = partial.to_algebra()
        for eqn in fail_eqs:
            if satisfies_equation(alg, eqn).holds:
                return
        if spec.max_models == 0:  # a positive budget stops the search below, once spent
            out_of_budget = True
            return
        summary.models += 1
        if visitor is not None:
            visitor(alg)
        summary.found.append(alg)
        if spec.max_models is not None and summary.models >= spec.max_models:
            out_of_budget = True

    def dfs(depth):
        """Try every value of slot ``depth``, or pass through it when it was
        forced; the slots before it are filled."""
        nonlocal nodes
        nodes += 1
        if depth == nslots:
            leaf()
            return
        cell, i = cells[depth]
        if cell[i] < n:
            dfs(depth + 1)
            return
        parked = watch[n + depth]
        for v in values[depth]:
            cell[i] = v
            moved, trail = [], []  # undone before the next value
            if park(parked, moved, trail):
                dfs(depth + 1)
            undo(moved, trail)
            if out_of_budget:
                break
        cell[i] = n + depth

    try:
        if consistent:
            dfs(0)
    finally:
        del dfs  # a recursive closure is a reference cycle holding the search state
    summary.complete = not out_of_budget
    summary.nodes, summary.forced = nodes, forced
    return summary


def naive_sweep(spec: SearchSpec, visitor=None) -> SearchSummary:
    """Unpruned oracle: visit every complete candidate and test the suites on
    the finished algebra.  Intended for size <= 2."""
    n = spec.size
    top_pin, bot_pin = _checked_pins(spec, n)
    require = get_suite(spec.require).equations if spec.require else ()
    must_fail = set(spec.must_fail)
    summary = SearchSummary()
    tops = range(n) if top_pin is None else (top_pin,)
    bots = range(n) if bot_pin is None else (bot_pin,)
    cells = n * n
    names = [f"e{i}" for i in range(n)]
    for top in tops:
        for bot in bots:
            for neg in product(range(n), repeat=n):
                for opp in product(range(n), repeat=n):
                    for meet_flat in product(range(n), repeat=cells):
                        meet = [list(meet_flat[i * n:(i + 1) * n]) for i in range(n)]
                        for join_flat in product(range(n), repeat=cells):
                            if spec.max_candidates is not None and \
                                    summary.candidates >= spec.max_candidates:
                                summary.complete = False
                                return summary
                            summary.candidates += 1
                            join = [list(join_flat[i * n:(i + 1) * n]) for i in range(n)]
                            alg = FiniteAlgebra(names, meet, join, neg, opp, top, bot)
                            ok = True
                            for eqn in require:
                                holds = satisfies_equation(alg, eqn).holds
                                if eqn.id in must_fail:
                                    ok = not holds
                                else:
                                    ok = holds
                                if not ok:
                                    break
                            if ok:
                                if spec.max_models == 0:
                                    summary.complete = False
                                    return summary
                                summary.models += 1
                                if visitor is not None:
                                    visitor(alg)
                                summary.found.append(alg)
                                if spec.max_models is not None and \
                                        summary.models >= spec.max_models:
                                    summary.complete = False
                                    return summary
    return summary
