"""Finite algebras of type (2,2,1,1,0,0) and the axiom/classification machinery.

A FiniteAlgebra is immutable after construction; every function here is
read-only on its inputs and safe to call concurrently on shared values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice, product

import numpy as np

from .errors import AlgebraError, EvalError
from .suites import BOOLEAN, CATALOG, DBA23, DCORE13, GDCORE11, get_suite
from .terms import (
    MAX_DEPTH, Const, Equation, Join, Meet, Neg, Opp, Term, Var, fold, postorder, source,
    variables,
)


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
        self.meet = self._table(meet, (n, n), "meet table")
        self.join = self._table(join, (n, n), "join table")
        self.neg = self._table(neg, (n,), "neg map")
        self.opp = self._table(opp, (n,), "opp map")
        self.top = self._index(top, n, "top")
        self.bot = self._index(bot, n, "bot")
        # plain nested tuples: much faster than numpy for scalar lookups
        self._rows_m = tuple(map(tuple, self.meet.tolist()))
        self._rows_j = tuple(map(tuple, self.join.tolist()))
        self._lneg = tuple(self.neg.tolist())
        self._lopp = tuple(self.opp.tolist())
        self._suite_cache = {}
        self._qo_cache = None
        self._cls_cache = None

    @staticmethod
    def _table(values, shape, what):
        """values as a read-only int64 array of the given shape with entries
        in [0, n); non-integer entries are an error, never truncated."""
        try:
            arr = np.asarray(values)
        except ValueError:  # ragged rows
            arr = None
        if arr is None or arr.shape != shape:
            got = "ragged rows" if arr is None else arr.shape
            raise AlgebraError(f"{what} must have shape {shape}, got {got}")
        if arr.dtype.kind not in "iu":
            raise AlgebraError(f"{what} entries must be integers, got dtype {arr.dtype}")
        n = shape[0]
        if arr.min() < 0 or arr.max() >= n:
            raise AlgebraError(f"{what} entry out of range [0, {n})")
        arr = np.asarray(arr, dtype=np.int64)
        arr.flags.writeable = False
        return arr

    @staticmethod
    def _index(v, n, what):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise AlgebraError(f"{what} must be an integer index, got {v!r}")
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
    """Value of t under the tables, one ``fold`` over them; env maps variable
    names to element indices.

    An unbound variable and a term deeper than ``MAX_DEPTH`` (the checkers'
    limit) raise EvalError.  The value of each variable of t must be an
    element index, as table entries must (AlgebraError); other keys are
    ignored.
    """
    if t.depth > MAX_DEPTH:
        raise EvalError(f"term is deeper than {MAX_DEPTH} operators")
    env = env or {}

    def var(name):
        if name not in env:
            raise EvalError(f"unbound variable {name!r}")
        return FiniteAlgebra._index(env[name], alg.n, f"variable {name!r}")

    m, j = alg._rows_m, alg._rows_j
    return fold(t, var, alg.top, alg.bot, alg._lneg.__getitem__, alg._lopp.__getitem__,
                lambda a, b: m[a][b], lambda a, b: j[a][b])


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


# --- one entry point for equation checks -----------------------------------
# Every equation check goes through ``_check_equations``.  An equation over k
# variables with n**k <= _VECTOR_THRESHOLD runs on the compiled kernel; the
# others of the call are evaluated together in numpy, every distinct subterm
# of the batch once per chunk of the first variable.

_VECTOR_THRESHOLD = 256
_VECTOR_CHUNK_CELLS = 1 << 18  # bounds each temporary array to a few MB


def _check_equations(alg: FiniteAlgebra, equations) -> tuple[EquationVerdict, ...]:
    """The verdict of each equation on alg, in order.

    A failing verdict carries the lexicographically first counterexample
    (variables in sorted name order, element indices as values).  Equations
    with the same two sides are checked once.  Raises EvalError, before any
    check, when a term is deeper than ``MAX_DEPTH``.
    """
    for e in equations:
        if max(e.lhs.depth, e.rhs.depth) > MAX_DEPTH:
            raise EvalError(f"equation {e.id!r} is deeper than {MAX_DEPTH} operators")
    n = alg.n
    first_bad = {}  # (lhs, rhs) -> the first failing tuple, or None
    vector = {}  # first variable -> {(lhs, rhs): variables} for numpy
    for e in equations:
        pair = e.lhs, e.rhs
        if pair in first_bad:
            continue
        vs = e.variables()
        if n ** len(vs) <= _VECTOR_THRESHOLD:
            first_bad[pair] = _first_witness(alg, (pair,), vs, (range(n),) * len(vs))
        else:
            first_bad[pair] = None
            vector.setdefault(vs[0], {})[pair] = vs
    for batch in vector.values():
        first_bad.update(_vector_witnesses(alg, batch))
    verdicts = []
    for e in equations:
        bad = first_bad[e.lhs, e.rhs]
        verdicts.append(EquationVerdict(e, True) if bad is None else
                        EquationVerdict(e, False, dict(zip(e.variables(), bad))))
    return tuple(verdicts)


def satisfies_equation(alg: FiniteAlgebra, equation: Equation) -> EquationVerdict:
    """Check lhs = rhs under every assignment.

    A failing verdict carries the lexicographically first counterexample
    (variables in sorted name order, element indices as values).  Memory
    stays bounded for any universe size.  Terms deeper than ``MAX_DEPTH``
    raise EvalError.
    """
    return _check_equations(alg, (equation,))[0]


@functools.lru_cache(maxsize=64)
def _vector_plan(pairs, first):
    """Steps that evaluate the pairs (lhs, rhs), all of which contain the
    variable ``first``: ``(static, chunked)``.

    Each distinct subterm is one step ``(kind, node, a, b, drops)``, after
    its children ``a`` and ``b``.  Subterms without ``first`` are static:
    computed once per call, and those a chunked step reads are kept for the
    call.  The chunked steps run once per chunk, with a step of kind
    ``None`` for each pair (the pair as node, its sides as ``a``, ``b``)
    right after its sides.  ``drops`` are the values whose last use is the
    step.  The plans of the last 64 distinct batches are kept.
    """
    static, chunked = [], []
    seen = set()
    for pair in pairs:
        for t in pair:
            for u in postorder(t):
                if u not in seen:
                    seen.add(u)
                    kind = type(u)
                    if kind is Meet or kind is Join:
                        a, b = u.left, u.right
                    elif kind is Neg or kind is Opp:
                        a, b = u.arg, None
                    else:
                        a = b = None
                    (chunked if first in variables(u) else static).append((kind, u, a, b))
        chunked.append((None, pair, *pair))

    def with_drops(steps, kept):
        last = {}  # value -> index of the last step that reads it
        for i, (_, _, a, b) in enumerate(steps):
            for x in (a, b):
                if x is not None and x not in kept:
                    last[x] = i
        drops = [[] for _ in steps]
        for x, i in last.items():
            drops[i].append(x)
        return tuple((*step, tuple(d)) for step, d in zip(steps, drops))

    return (with_drops(static, {x for step in chunked for x in step[2:]}),
            with_drops(chunked, {step[1] for step in static}))


def _vector_witnesses(alg: FiniteAlgebra, batch: dict) -> dict:
    """{pair: its first failing tuple, or None} for ``batch``, a dict from
    pairs (lhs, rhs) to their sorted variables, all with the same first
    variable.

    Values are arrays of the narrowest unsigned dtype that holds the
    elements, one axis per variable of the batch in sorted-name order, of
    length 1 where the subterm lacks the variable.  Only the first variable
    is chunked, so no array has more than ``_VECTOR_CHUNK_CELLS`` cells
    per value of it; a binary operation is one gather from the flattened
    table.  The first failing tuple of a pair is the first False of its mask
    over its own axes in C order, which is the lexicographic order.
    """
    names = sorted({v for vs in batch.values() for v in vs})
    axis = {name: i for i, name in enumerate(names)}
    n, k = alg.n, len(names)
    dt = np.min_scalar_type(n - 1)
    meet, join = alg.meet.astype(dt).ravel(), alg.join.astype(dt).ravel()
    neg, opp = alg.neg.astype(dt), alg.opp.astype(dt)
    const = {"top": np.full((1,) * k, alg.top, dt), "bot": np.full((1,) * k, alg.bot, dt)}

    def along(name, values):
        shape = [1] * k
        shape[axis[name]] = len(values)
        return values.reshape(shape)

    def cell(a, b):  # flat table index, in intp whatever numpy's promotion rules
        return np.multiply(a, n, dtype=np.intp) + b

    def run(steps, val, firsts=None, lo=0, failed=None):
        for kind, u, a, b, drops in steps:
            if kind is Meet:
                val[u] = meet.take(cell(val[a], val[b]))
            elif kind is Join:
                val[u] = join.take(cell(val[a], val[b]))
            elif kind is Neg:
                val[u] = neg.take(val[a])
            elif kind is Opp:
                val[u] = opp.take(val[a])
            elif kind is Var:
                val[u] = firsts if u.name == names[0] else along(u.name, np.arange(n, dtype=dt))
            elif kind is Const:
                val[u] = const[u.which]
            else:  # the check of pair u on this chunk
                eqmask = val[a] == val[b]
                if not eqmask.all():
                    own = [eqmask.shape[axis[v]] for v in batch[u]]
                    bad = np.unravel_index(int(np.argmin(eqmask.reshape(-1))), own)
                    failed[u] = (int(bad[0]) + lo,) + tuple(int(v) for v in bad[1:])
            for x in drops:
                del val[x]

    pairs = tuple(batch)
    static_steps, chunked = _vector_plan(pairs, names[0])
    static = {}
    run(static_steps, static)
    result = dict.fromkeys(pairs)
    block = max(1, _VECTOR_CHUNK_CELLS // n ** (max(map(len, batch.values())) - 1))
    for lo in range(0, n, block):
        failed = {}
        firsts = along(names[0], np.arange(lo, min(lo + block, n), dtype=dt))
        run(chunked, dict(static), firsts, lo, failed)
        if failed:
            result.update(failed)
            pairs = tuple(p for p in pairs if p not in failed)
            if not pairs:
                break
            chunked = _vector_plan(pairs, names[0])[1]
    return result


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
    return _check_suites(alg, (suite,))[0]


def _check_suites(alg: FiniteAlgebra, suites) -> tuple[SuiteReport, ...]:
    """The reports of the suites; those not cached on alg (keyed by id and
    equations) are checked in one ``_check_equations`` call."""
    suites = tuple(get_suite(s) for s in suites)
    reports = [alg._suite_cache.get(s) for s in suites]  # one hash per cached suite
    todo = {s: None for s, r in zip(suites, reports) if r is None}
    if todo:
        verdicts = iter(_check_equations(alg, [e for s in todo for e in s.equations]))
        for s in todo:
            todo[s] = alg._suite_cache[s] = SuiteReport(s.id, tuple(islice(verdicts, len(s))))
        reports = [todo[s] if r is None else r for s, r in zip(suites, reports)]
    return tuple(reports)


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

    @functools.cached_property
    def rows(self) -> tuple:
        """rel as rows of bools, indexed ``rows[x][y]``, for the compiled
        kernels; computed once per order."""
        return tuple(map(tuple, self.rel.tolist()))


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
    r_dba, r_dcore, r_gd = _check_suites(alg, (DBA23, DCORE13, GDCORE11))
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
    # no lookup misses: catalog meet-square-idem, neg-meet-idem, bot-meet-idem and duals
    pos = {e: i for i, e in enumerate(carrier)}
    mt = [[pos[meet2(a, b)] for b in carrier] for a in carrier]
    jt = [[pos[join2(a, b)] for b in carrier] for a in carrier]
    ct = [pos[comp(a)] for a in carrier]
    return FiniteAlgebra(
        [alg.names[e] for e in carrier], mt, jt, ct, ct, pos[top], pos[bot]
    )


def is_boolean_algebra(alg: FiniteAlgebra) -> bool:
    """True when (&, |, ~, F, T) satisfy the BOOLEAN suite (``!`` is ignored)."""
    return passes(alg, BOOLEAN)


def check_identity_catalog(alg: FiniteAlgebra):
    """Check every derived identity; returns (all verdicts, failing verdicts)."""
    verdicts = _check_equations(alg, CATALOG)
    return verdicts, tuple(v for v in verdicts if not v.holds)
