"""Exhaustive enumeration of finite algebras with constraint pruning.

Candidates on a universe of size n are generated in a fixed order: the two
constants first (top, then bot), then the unary maps (neg, then opp), then
the binary tables (meet, then join) in row-major order, each slot running
through element values ascending.  An axiom of the required suite is
evaluated on a ground instance as soon as the last table entry it needs is
filled; a violation prunes the whole subtree.  This keeps the search
reproducible across runs and platforms, and sound with respect to the naive
sweep (which is also provided, as an oracle).
"""

from __future__ import annotations

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


class _Partial:
    """Mutable slot view of a candidate: constants, unary maps, binary tables.

    Every table is padded with an element ``n`` that every operation maps to
    ``n``, and a missing entry holds ``n``, so a compiled term evaluates to
    ``n`` exactly when an entry it reads is missing.
    """

    __slots__ = ("n", "top", "bot", "neg", "opp", "meet", "join")

    def __init__(self, n):
        self.n = n
        self.top = n
        self.bot = n
        self.neg = [n] * (n + 1)
        self.opp = [n] * (n + 1)
        self.meet = [[n] * (n + 1) for _ in range(n + 1)]
        self.join = [[n] * (n + 1) for _ in range(n + 1)]

    def to_algebra(self):
        n = self.n
        return FiniteAlgebra(
            [f"e{i}" for i in range(n)],
            [row[:n] for row in self.meet[:n]], [row[:n] for row in self.join[:n]],
            self.neg[:n], self.opp[:n], self.top, self.bot)


def _slots(n):
    """(kind, position) in assignment order."""
    out = [("top", None), ("bot", None)]
    out += [("neg", i) for i in range(n)]
    out += [("opp", i) for i in range(n)]
    out += [("meet", (i, j)) for i in range(n) for j in range(n)]
    out += [("join", (i, j)) for i in range(n) for j in range(n)]
    return out


def enumerate_algebras(spec: SearchSpec, visitor=None) -> SearchSummary:
    """Depth-first enumeration with axiom pruning.

    The visitor (if any) is called with each model in order; models are also
    collected into the summary (capped by max_models).  When a budget runs
    out the summary is flagged incomplete.
    """
    n = spec.size
    if n < 1:
        raise SuiteError("universe size must be >= 1")
    require = get_suite(spec.require).equations if spec.require else ()
    must_fail = set(spec.must_fail)
    prunable = [e for e in require if e.id not in must_fail]
    fail_eqs = [e for e in require if e.id in must_fail]
    if must_fail and len(fail_eqs) != len(must_fail):
        missing = must_fail - {e.id for e in fail_eqs}
        raise SuiteError(f"must_fail axioms not in the required suite: {sorted(missing)}")

    # ground instances of the prunable axioms
    instances = []
    for eqn in prunable:
        vs = eqn.variables()
        lhs, rhs = evaluator(eqn.lhs), evaluator(eqn.rhs)
        for vals in product(range(n), repeat=len(vs)):
            instances.append((lhs, rhs, dict(zip(vs, vals))))
    verified = [-1] * len(instances)  # depth at which the instance was confirmed

    partial = _Partial(n)
    slots = _slots(n)
    summary = SearchSummary()

    def value_range(kind):
        if kind == "top" and spec.fixed_top is not None:
            return (spec.fixed_top,)
        if kind == "bot" and spec.fixed_bot is not None:
            return (spec.fixed_bot,)
        return range(n)

    def set_slot(kind, pos, v):
        if kind == "top":
            partial.top = v
        elif kind == "bot":
            partial.bot = v
        elif kind == "neg":
            partial.neg[pos] = v
        elif kind == "opp":
            partial.opp[pos] = v
        elif kind == "meet":
            partial.meet[pos[0]][pos[1]] = v
        else:
            partial.join[pos[0]][pos[1]] = v

    def clear_slot(kind, pos):
        set_slot(kind, pos, n)

    def check_new(depth):
        """Evaluate not-yet-verified instances; False when one is violated."""
        m, j, g, o = partial.meet, partial.join, partial.neg, partial.opp
        top, bot = partial.top, partial.bot
        for idx, (lhs, rhs, env) in enumerate(instances):
            if verified[idx] >= 0:
                continue
            lv = lhs(m, j, g, o, top, bot, env)
            if lv == n:
                continue
            rv = rhs(m, j, g, o, top, bot, env)
            if rv == n:
                continue
            if lv != rv:
                return False
            verified[idx] = depth
        return True

    def unverify(depth):
        for idx in range(len(verified)):
            if verified[idx] >= depth:
                verified[idx] = -1

    out_of_budget = False

    def leaf():
        nonlocal out_of_budget
        if spec.max_candidates is not None and summary.candidates >= spec.max_candidates:
            out_of_budget = True
            return False
        summary.candidates += 1
        alg = partial.to_algebra()
        for eqn in fail_eqs:
            if satisfies_equation(alg, eqn).holds:
                return True
        summary.models += 1
        if visitor is not None:
            visitor(alg)
        if spec.max_models is None or len(summary.found) < spec.max_models:
            summary.found.append(alg)
        if spec.max_models is not None and summary.models >= spec.max_models:
            out_of_budget = True
            return False
        return True

    def dfs(depth):
        if out_of_budget:
            return
        if depth == len(slots):
            if not leaf():
                return
            return
        kind, pos = slots[depth]
        for v in value_range(kind):
            set_slot(kind, pos, v)
            if check_new(depth):
                dfs(depth + 1)
            unverify(depth)
            clear_slot(kind, pos)
            if out_of_budget:
                return

    try:
        dfs(0)
    finally:
        del dfs  # a recursive closure is a reference cycle holding the search state
    summary.complete = not out_of_budget
    return summary


def naive_sweep(spec: SearchSpec, visitor=None) -> SearchSummary:
    """Unpruned oracle: visit every complete candidate and test the suites on
    the finished algebra.  Intended for size <= 2."""
    n = spec.size
    require = get_suite(spec.require).equations if spec.require else ()
    must_fail = set(spec.must_fail)
    summary = SearchSummary()
    tops = (spec.fixed_top,) if spec.fixed_top is not None else range(n)
    bots = (spec.fixed_bot,) if spec.fixed_bot is not None else range(n)
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
                                summary.models += 1
                                if visitor is not None:
                                    visitor(alg)
                                if spec.max_models is None or len(summary.found) < spec.max_models:
                                    summary.found.append(alg)
                                if spec.max_models is not None and \
                                        summary.models >= spec.max_models:
                                    summary.complete = False
                                    return summary
    return summary
