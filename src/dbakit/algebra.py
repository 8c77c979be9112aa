"""Finite algebras of type (2,2,1,1,0,0) and the axiom/classification machinery.

A FiniteAlgebra is immutable after construction; every function here is
read-only on its inputs and safe to call concurrently on shared values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import AlgebraError, EvalError
from .suites import BOOLEAN, CATALOG, DBA23, DCORE13, get_suite
from .terms import MAX_DEPTH, Equation, Term, evaluator, fold, source


class FiniteAlgebra:
    """Total operation tables for meet (&), join (|), two negations (~, !)
    and the constants T, F over elements 0..n-1.

    Element identity is the index; ``names`` are display metadata only.
    """

    __slots__ = (
        "names", "n", "meet", "join", "neg", "opp", "top", "bot",
        "_rows_m", "_rows_j", "_lneg", "_lopp", "_suite_cache", "_qo_cache",
        "_cls_cache",
    )

    def __init__(self, names, meet, join, neg, opp, top, bot):
        names = tuple(str(s) for s in names)
        n = len(names)
        if n < 1:
            raise AlgebraError("universe must have at least one element")
        if len(set(names)) != n:
            raise AlgebraError("element names must be pairwise distinct")
        self.names = names
        self.n = n
        self.meet = self._table2(meet, n, "meet")
        self.join = self._table2(join, n, "join")
        self.neg = self._table1(neg, n, "neg")
        self.opp = self._table1(opp, n, "opp")
        self.top = self._index(top, n, "top")
        self.bot = self._index(bot, n, "bot")
        # plain nested tuples: much faster than numpy for scalar lookups
        self._rows_m = tuple(tuple(int(v) for v in row) for row in self.meet)
        self._rows_j = tuple(tuple(int(v) for v in row) for row in self.join)
        self._lneg = tuple(int(v) for v in self.neg)
        self._lopp = tuple(int(v) for v in self.opp)
        self._suite_cache = {}
        self._qo_cache = None
        self._cls_cache = None

    @staticmethod
    def _table2(rows, n, what):
        arr = np.asarray(rows, dtype=np.int64)
        if arr.shape != (n, n):
            raise AlgebraError(f"{what} table must be {n}x{n}, got {arr.shape}")
        if arr.min() < 0 or arr.max() >= n:
            raise AlgebraError(f"{what} table entry out of range [0, {n})")
        arr.flags.writeable = False
        return arr

    @staticmethod
    def _table1(row, n, what):
        arr = np.asarray(row, dtype=np.int64)
        if arr.shape != (n,):
            raise AlgebraError(f"{what} map must have length {n}, got {arr.shape}")
        if arr.min() < 0 or arr.max() >= n:
            raise AlgebraError(f"{what} map entry out of range [0, {n})")
        arr.flags.writeable = False
        return arr

    @staticmethod
    def _index(v, n, what):
        v = int(v)
        if not 0 <= v < n:
            raise AlgebraError(f"{what} index {v} out of range [0, {n})")
        return v

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise AlgebraError(f"unknown element name {name!r}") from None

    def signature(self) -> tuple:
        """Name-independent identity of the tables (for dedup and equality)."""
        return (
            self.n,
            self.meet.tobytes(), self.join.tobytes(),
            self.neg.tobytes(), self.opp.tobytes(),
            self.top, self.bot,
        )

    def renamed(self, names) -> "FiniteAlgebra":
        return FiniteAlgebra(names, self.meet, self.join, self.neg, self.opp,
                             self.top, self.bot)

    def __repr__(self):
        return f"FiniteAlgebra(n={self.n}, names={self.names!r})"


def eval_term(alg: FiniteAlgebra, t: Term, env=None) -> int:
    """Value of t under the tables; env maps variable names to element indices.

    Terms deeper than ``MAX_DEPTH`` raise EvalError, as in the checkers.
    """
    try:
        return evaluator(t)(alg._rows_m, alg._rows_j, alg._lneg, alg._lopp,
                            alg.top, alg.bot, env or {})
    except KeyError as exc:
        raise EvalError(f"unbound variable {exc.args[0]!r}") from None


@dataclass(frozen=True)
class EquationVerdict:
    equation: Equation
    holds: bool
    witness: dict | None = None  # lexicographically first failing assignment

    def __str__(self):
        if self.holds:
            return f"{self.equation.id}: ok"
        w = " ".join(f"{k}={v}" for k, v in sorted(self.witness.items()))
        return f"{self.equation.id}: FAIL {w}"


# --- one compiled first-witness kernel --------------------------------------
# Equation checks and hypersequent refutation ask the same question: the
# first assignment, in lexicographic order, under which no pair of terms
# holds.  One generator compiles it to nested loops over per-variable ranges.

_MAX_BLOCKS = 20  # CPython compiles at most 20 statically nested blocks


@functools.lru_cache(maxsize=1024)
def _kernel(pairs, names, ordered):
    """Compile to ``f(M, J, G, O, TP, BT, R, Q)``: the first tuple, v_i from
    R[i] with v0 most significant, under which no pair (a, b) holds, or None.
    A pair holds when a = b, or when ``Q[a][b]`` is true if ``ordered``.
    Keyed by the interned terms, so the key never recurses; the kernels of
    the last 1024 distinct inputs are kept."""
    if any(t.depth > MAX_DEPTH for pair in pairs for t in pair):
        raise EvalError(f"term is deeper than {MAX_DEPTH} operators")
    var = {name: f"v{i}" for i, name in enumerate(names)}.__getitem__
    holds = "Q[{}][{}]" if ordered else "{} == {}"
    test = " or ".join(holds.format(source(a, var), source(b, var)) for a, b in pairs)
    k = len(names)
    nested = k if k <= _MAX_BLOCKS else _MAX_BLOCKS - 1
    loops = [f"for v{i} in R[{i}]:" for i in range(nested)]
    if nested < k:  # the remaining variables in one loop
        loops.append(f"for {''.join(f'v{i}, ' for i in range(nested, k))}"
                     f"in product(*R[{nested}:]):")
    loops.append(f"if not ({test}): return ({''.join(f'v{i}, ' for i in range(k))})")
    lines = ["def first(M, J, G, O, TP, BT, R, Q):"]
    lines += ["    " * (d + 1) + line for d, line in enumerate(loops)]
    lines.append("    return None")
    ns = {"product": product}
    exec("\n".join(lines), ns)  # closed vocabulary: generated from Term nodes only
    return ns["first"]


def _first_witness(alg: FiniteAlgebra, pairs, names, ranges, order=None):
    """The first failing tuple of ``_kernel(pairs, names, ...)`` on the
    tables of alg; ``order`` (nested lists) is the relation Q, if any.
    Raises EvalError when a term is deeper than ``MAX_DEPTH``."""
    return _kernel(pairs, names, order is not None)(
        alg._rows_m, alg._rows_j, alg._lneg, alg._lopp, alg.top, alg.bot, ranges, order)


# --- vectorized checker (fast for large assignment spaces) -----------------

def _np_eval(alg: FiniteAlgebra, t: Term, axes: dict, k: int, first_vals):
    def var(name):
        ax = axes[name]
        vals = first_vals if ax == 0 else np.arange(alg.n, dtype=np.int64)
        shape = [1] * k
        shape[ax] = len(vals)
        return vals.reshape(shape)

    return fold(t, var, np.int64(alg.top), np.int64(alg.bot),
                alg.neg.__getitem__, alg.opp.__getitem__,
                lambda a, b: alg.meet[a, b], lambda a, b: alg.join[a, b])


_VECTOR_THRESHOLD = 4096
_VECTOR_CHUNK_CELLS = 1 << 22  # bounds temporary arrays to a few dozen MB


def satisfies_equation(alg: FiniteAlgebra, equation: Equation) -> EquationVerdict:
    """Check lhs = rhs under every assignment.

    A failing verdict carries the lexicographically first counterexample
    (variables in sorted name order, element indices as values).  Large
    assignment spaces are processed in chunks along the first variable, so
    memory stays bounded for any universe size.  Terms deeper than
    ``MAX_DEPTH`` raise EvalError.
    """
    if max(equation.lhs.depth, equation.rhs.depth) > MAX_DEPTH:
        raise EvalError(f"equation {equation.id!r} is deeper than {MAX_DEPTH} operators")
    vs = equation.variables()
    k = len(vs)
    n = alg.n
    if n ** k <= _VECTOR_THRESHOLD:
        bad = _first_witness(alg, ((equation.lhs, equation.rhs),), vs, (range(n),) * k)
        if bad is None:
            return EquationVerdict(equation, True)
        return EquationVerdict(equation, False, dict(zip(vs, bad)))
    axes = {name: i for i, name in enumerate(vs)}
    inner = n ** (k - 1)
    block = max(1, _VECTOR_CHUNK_CELLS // inner)
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
        return EquationVerdict(equation, False, witness)
    return EquationVerdict(equation, True)


@dataclass(frozen=True)
class SuiteReport:
    suite_id: str
    verdicts: tuple[EquationVerdict, ...]

    @property
    def ok(self) -> bool:
        return all(v.holds for v in self.verdicts)

    def failing_ids(self) -> tuple[str, ...]:
        return tuple(v.equation.id for v in self.verdicts if not v.holds)

    def witness(self, axiom_id: str):
        for v in self.verdicts:
            if v.equation.id == axiom_id:
                return v.witness
        raise KeyError(axiom_id)


def check_suite(alg: FiniteAlgebra, suite) -> SuiteReport:
    """One verdict per axiom of the suite (DBA23/DCORE13/GDCORE11/BOOLEAN)."""
    suite = get_suite(suite)
    cached = alg._suite_cache.get(suite)  # keyed by id and equations
    if cached is not None:
        return cached
    report = SuiteReport(suite.id, tuple(satisfies_equation(alg, e) for e in suite.equations))
    alg._suite_cache[suite] = report
    return report


def passes(alg: FiniteAlgebra, suite) -> bool:
    return check_suite(alg, suite).ok


@dataclass(frozen=True)
class QuasiOrder:
    """The relation x <= y iff x&y = x&x and x|y = y|y, with its flags."""

    rel: np.ndarray  # n x n bool, read-only
    reflexive: bool
    transitive: bool
    antisymmetric: bool

    def holds(self, x: int, y: int) -> bool:
        return bool(self.rel[x, y])


def _flagged_order(rel: np.ndarray) -> QuasiOrder:
    """The relation (an n x n bool matrix, made read-only) with its flags."""
    rel.flags.writeable = False
    r = rel.astype(np.int32)
    return QuasiOrder(
        rel,
        reflexive=bool(rel.diagonal().all()),
        transitive=bool((((r @ r) > 0) <= rel).all()),
        antisymmetric=bool((rel & rel.T & ~np.eye(len(rel), dtype=bool)).sum() == 0),
    )


def quasi_order(alg: FiniteAlgebra) -> QuasiOrder:
    if alg._qo_cache is None:
        m, j = alg.meet, alg.join
        alg._qo_cache = _flagged_order(
            (m == m.diagonal()[:, None]) & (j == j.diagonal()[None, :]))
    return alg._qo_cache


def project_meet(alg: FiniteAlgebra, x: int) -> int:
    """x & x."""
    return alg._rows_m[x][x]


def project_join(alg: FiniteAlgebra, x: int) -> int:
    """x | x."""
    return alg._rows_j[x][x]


def meet_idempotents(alg: FiniteAlgebra) -> frozenset:
    return frozenset(x for x in range(alg.n) if alg._rows_m[x][x] == x)


def join_idempotents(alg: FiniteAlgebra) -> frozenset:
    return frozenset(x for x in range(alg.n) if alg._rows_j[x][x] == x)


@dataclass(frozen=True)
class ClassificationReport:
    is_dba: bool
    is_dcore: bool
    is_generalized_dcore: bool
    is_contextual: bool
    is_pure: bool
    is_trivial: bool
    is_fully_contextual: bool
    meet_idempotents: frozenset
    join_idempotents: frozenset
    failures: tuple  # (suite-qualified axiom id, witness assignment) pairs

    def as_lines(self, names=None) -> list[str]:
        out = [
            f"dba: {str(self.is_dba).lower()}",
            f"dcore: {str(self.is_dcore).lower()}",
            f"generalized_dcore: {str(self.is_generalized_dcore).lower()}",
            f"contextual: {str(self.is_contextual).lower()}",
            f"pure: {str(self.is_pure).lower()}",
            f"trivial: {str(self.is_trivial).lower()}",
            f"fully_contextual: {str(self.is_fully_contextual).lower()}",
        ]
        def show(idx):
            return names[idx] if names else str(idx)
        out.append("meet_idempotents: " + " ".join(show(i) for i in sorted(self.meet_idempotents)))
        out.append("join_idempotents: " + " ".join(show(i) for i in sorted(self.join_idempotents)))
        for axiom, witness in self.failures:
            w = " ".join(f"{k}={show(v)}" for k, v in sorted(witness.items())) if witness else "-"
            out.append(f"failure: {axiom} [{w}]")
        return out


def unique_mixed_lift(alg: FiniteAlgebra) -> bool:
    """For every meet-idempotent a and join-idempotent b with a|a = b&b there
    must be exactly one z with z&z = a and z|z = b."""
    squares = {}
    for z in range(alg.n):
        squares.setdefault((alg._rows_m[z][z], alg._rows_j[z][z]), []).append(z)
    for a in sorted(meet_idempotents(alg)):
        a_up = alg._rows_j[a][a]
        for b in sorted(join_idempotents(alg)):
            if a_up == alg._rows_m[b][b]:
                if len(squares.get((a, b), [])) != 1:
                    return False
    return True


def classify(alg: FiniteAlgebra) -> ClassificationReport:
    """Compute every class predicate from first principles.

    dba and dcore are both checked directly (their equivalence is a theorem
    that the test suite verifies, never an assumption made here).
    """
    if alg._cls_cache is not None:
        return alg._cls_cache
    r_dba = check_suite(alg, DBA23)
    r_dcore = check_suite(alg, DCORE13)
    r_gd = check_suite(alg, "GDCORE11")
    qo = quasi_order(alg)
    mi = meet_idempotents(alg)
    ji = join_idempotents(alg)
    pure = all(x in mi or x in ji for x in range(alg.n))
    trivial = alg._rows_m[alg.top][alg.top] == alg._rows_j[alg.bot][alg.bot]
    contextual = r_dba.ok and qo.antisymmetric
    fully = contextual and unique_mixed_lift(alg)
    failures = tuple(
        (f"{rep.suite_id}:{v.equation.id}", v.witness)
        for rep in (r_dba, r_dcore)
        for v in rep.verdicts
        if not v.holds
    )
    alg._cls_cache = ClassificationReport(
        is_dba=r_dba.ok,
        is_dcore=r_dcore.ok,
        is_generalized_dcore=r_gd.ok,
        is_contextual=contextual,
        is_pure=pure,
        is_trivial=trivial,
        is_fully_contextual=fully,
        meet_idempotents=mi,
        join_idempotents=ji,
        failures=failures,
    )
    return alg._cls_cache


def extract_boolean_part(alg: FiniteAlgebra, side: str) -> FiniteAlgebra:
    """The Boolean algebra carried by the meet-idempotents (side="meet",
    operations &, derived v, ~, bottom F, top T&T) or the join-idempotents
    (side="join", operations derived ^, |, !, bottom F|F, top T).

    The result duplicates its complement into both negation slots, so it
    passes the BOOLEAN suite as well as DBA23.
    """
    if side not in ("meet", "join"):
        raise AlgebraError(f"side must be 'meet' or 'join', got {side!r}")
    if not passes(alg, DBA23):
        raise AlgebraError("extract_boolean_part requires a double Boolean algebra")
    m, j, g, o = alg._rows_m, alg._rows_j, alg._lneg, alg._lopp
    if side == "meet":
        carrier = sorted(meet_idempotents(alg))
        meet2 = lambda x, y: m[x][y]
        join2 = lambda x, y: g[m[g[x]][g[y]]]  # derived v
        comp = lambda x: g[x]
        top, bot = m[alg.top][alg.top], alg.bot
    else:
        carrier = sorted(join_idempotents(alg))
        meet2 = lambda x, y: o[j[o[x]][o[y]]]  # derived ^
        join2 = lambda x, y: j[x][y]
        comp = lambda x: o[x]
        top, bot = alg.top, j[alg.bot][alg.bot]
    pos = {e: i for i, e in enumerate(carrier)}

    def loc(e):
        if e not in pos:
            raise AlgebraError(f"operation left the {side}-idempotent carrier at element {e}")
        return pos[e]

    k = len(carrier)
    mt = [[loc(meet2(a, b)) for b in carrier] for a in carrier]
    jt = [[loc(join2(a, b)) for b in carrier] for a in carrier]
    ct = [loc(comp(a)) for a in carrier]
    return FiniteAlgebra(
        [alg.names[e] for e in carrier], mt, jt, ct, ct, loc(top), loc(bot)
    )


def is_boolean_algebra(alg: FiniteAlgebra) -> bool:
    """True when (&, |, ~, F, T) satisfy the BOOLEAN suite (``!`` is ignored)."""
    return passes(alg, BOOLEAN)


def check_identity_catalog(alg: FiniteAlgebra):
    """Check every derived identity; returns (all verdicts, failing verdicts)."""
    verdicts = tuple(satisfies_equation(alg, e) for e in CATALOG)
    return verdicts, tuple(v for v in verdicts if not v.holds)
