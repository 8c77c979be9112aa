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
An instance is thus evaluated in full exactly at the first depth at which it
reads no unfilled slot, and the search prunes where a rescan of every
instance at every node would.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import product

from .algebra import FiniteAlgebra, satisfies_equation
from .errors import SuiteError
from .suites import get_suite
from .terms import evaluator


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
    is unfilled.  The tables have ``n + S`` rows and columns, S being the
    number of slots: every operation maps a marker argument to itself, and
    the left operand wins when both are markers.  So a compiled term
    evaluates to an element exactly when it reads no unfilled slot, and
    otherwise to the marker of the first unfilled slot that its evaluation
    reaches, left operand first.
    """

    __slots__ = ("n", "top", "bot", "neg", "opp", "meet", "join", "_cells")

    def __init__(self, n):
        slots = _slots(n)
        size = n + len(slots)
        marker = {slot: n + k for k, slot in enumerate(slots)}
        self.n = n
        self.top = marker["top", None]
        self.bot = marker["bot", None]
        self.neg = [marker["neg", i] for i in range(n)] + list(range(n, size))
        self.opp = [marker["opp", i] for i in range(n)] + list(range(n, size))
        self.meet = [[marker["meet", (i, j)] for j in range(n)] + list(range(n, size))
                     for i in range(n)] + [[x] * size for x in range(n, size)]
        self.join = [[marker["join", (i, j)] for j in range(n)] + list(range(n, size))
                     for i in range(n)] + [[x] * size for x in range(n, size)]
        # slot k -> (list, index) holding it; the constants are attributes
        self._cells = [None, None]
        self._cells += [(self.neg, i) for i in range(n)]
        self._cells += [(self.opp, i) for i in range(n)]
        self._cells += [(self.meet[i], j) for i in range(n) for j in range(n)]
        self._cells += [(self.join[i], j) for i in range(n) for j in range(n)]

    def set(self, k, v):
        """Fill slot k with v; ``set(k, n + k)`` clears it."""
        if k == 0:
            self.top = v
        elif k == 1:
            self.bot = v
        else:
            cell, i = self._cells[k]
            cell[i] = v

    def to_algebra(self):
        n = self.n
        return FiniteAlgebra(
            [f"e{i}" for i in range(n)],
            [row[:n] for row in self.meet[:n]], [row[:n] for row in self.join[:n]],
            self.neg[:n], self.opp[:n], self.top, self.bot)


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
    out the summary is flagged incomplete.
    """
    n = spec.size
    if n < 1:
        raise SuiteError("universe size must be >= 1")
    top_pin, bot_pin = _checked_pins(spec, n)
    require = get_suite(spec.require).equations if spec.require else ()
    must_fail = set(spec.must_fail)
    prunable = [e for e in require if e.id not in must_fail]
    fail_eqs = [e for e in require if e.id in must_fail]
    if must_fail and len(fail_eqs) != len(must_fail):
        missing = must_fail - {e.id for e in fail_eqs}
        raise SuiteError(f"must_fail axioms not in the required suite: {sorted(missing)}")

    partial = _Partial(n)
    nslots = len(partial._cells)
    m, j, g, o = partial.meet, partial.join, partial.neg, partial.opp
    watch = [[] for _ in range(n + nslots)]  # watch[n + k]: instances parked on slot k

    def park(instances, moved):
        """Evaluate the instances on the partial tables and append each one
        that reads an unfilled slot to that slot's watch list, recording the
        list in moved; False as soon as one is violated."""
        top, bot = partial.top, partial.bot
        for inst in instances:
            lhs, rhs, env = inst
            lv = lhs(m, j, g, o, top, bot, env)
            if lv < n:
                rv = rhs(m, j, g, o, top, bot, env)
                if rv < n:
                    if lv != rv:
                        return False
                    continue
                lv = rv
            watch[lv].append(inst)
            moved.append(lv)
        return True

    # ground instances of the prunable axioms
    instances = []
    for eqn in prunable:
        vs = eqn.variables()
        lhs, rhs = evaluator(eqn.lhs), evaluator(eqn.rhs)
        for vals in product(range(n), repeat=len(vs)):
            instances.append((lhs, rhs, dict(zip(vs, vals))))
    consistent = park(instances, [])
    values = [range(n)] * nslots
    if top_pin is not None:
        values[0] = (top_pin,)
    if bot_pin is not None:
        values[1] = (bot_pin,)
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
        """Try every value of slot ``depth``; the slots before it are filled."""
        if depth == nslots:
            leaf()
            return
        for v in values[depth]:
            partial.set(depth, v)
            moved = []  # undone before the next value
            if park(watch[n + depth], moved):
                dfs(depth + 1)
            for k in moved:
                watch[k].pop()
            if out_of_budget:
                break
        partial.set(depth, n + depth)

    try:
        if consistent:
            dfs(0)
    finally:
        del dfs  # a recursive closure is a reference cycle holding the search state
    summary.complete = not out_of_budget
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
