"""Finite algebras of type (2,2,1,1,0,0) and the axiom/classification machinery.

A FiniteAlgebra is immutable after construction: it copies its tables.
Every function here is read-only on its inputs and safe to call
concurrently on shared values.

What the tables decide (suite reports, catalog verdicts, the quasi-order
and the classification) is kept in one record per table set, shared by
every live algebra with equal tables, that is, equal ``signature()``
(``_facts_of``).  Sharing is exact: the key is the whole of the tables,
every kept value is index-based, and names enter only when a report is
rendered.
"""

from __future__ import annotations

import functools
import math
import threading
import weakref
from dataclasses import dataclass
from itertools import islice, product
from typing import NamedTuple

import numpy as np

from .errors import AlgebraError, EvalError
from .suites import BOOLEAN, CATALOG, DBA23, DCORE13, GDCORE11, get_suite
from .terms import (
    MAX_DEPTH, Const, Equation, Join, Meet, Neg, Opp, Term, Var, fold, postorder, variables,
)


class FiniteAlgebra:
    """Total operation tables for meet (&), join (|), two negations (~, !)
    and the constants T, F over elements 0..n-1.

    Element identity is the index; ``names`` are display metadata only.
    """

    __slots__ = (
        "names", "n", "meet", "join", "neg", "opp", "top", "bot",
        "_rows_m", "_rows_j", "_lneg", "_lopp", "_facts",
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
        self._facts = None  # the shared record of verdicts, on the first check

    @staticmethod
    def _table(values, shape, what):
        """values as a read-only int64 copy of the given shape with entries
        in [0, n); non-integer entries are an error, never truncated."""
        try:
            arr = np.array(values)  # a new array: the caller may write to values
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
        arr = arr.astype(np.int64, copy=False)
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
        alg = FiniteAlgebra(names, self.meet, self.join, self.neg, self.opp,
                            self.top, self.bot)
        alg._facts = self._facts
        return alg

    def __repr__(self):
        return f"FiniteAlgebra(n={self.n}, names={self.names!r})"


class _Facts:
    """What one table set decides: suite reports by suite, the catalog
    verdicts, the quasi-order and the classification, each filled on its
    first check.  Holds no algebra, so it lives exactly as long as the
    algebras that hold it."""

    __slots__ = ("suites", "catalog", "order", "classification", "__weakref__")

    def __init__(self):
        self.suites = {}
        self.catalog = self.order = self.classification = None


_FACTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()  # tables -> _Facts
_FACTS_LOCK = threading.Lock()  # one record per table set, even when threads race


def _facts_of(alg: FiniteAlgebra) -> _Facts:
    """The record of alg's tables, shared with every live algebra that has
    the same tables; looked up on the first check and kept on alg.  Two
    threads may fill one field at once: both write equal values."""
    facts = alg._facts
    if facts is None:
        # signature() with the tables in the narrowest dtype that holds the
        # elements: as exact, and a key up to 8 times smaller
        dt = np.min_scalar_type(alg.n - 1)
        key = (alg.n, alg.top, alg.bot,
               *(t.astype(dt).tobytes() for t in (alg.meet, alg.join, alg.neg, alg.opp)))
        with _FACTS_LOCK:
            facts = alg._facts = _FACTS.setdefault(key, _Facts())
    return facts


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
# first assignment, in lexicographic order, under which a test fails, where a
# test is one or more pairs of terms and fails when none of its pairs holds
# (an equation is a test of one pair, a hypersequent one of a pair per
# component).  One generator compiles the tests over one variable tuple into
# one loop nest, a function that returns once all of its tests have failed;
# each nest is compiled once, whatever batch it comes from.

_MAX_BLOCKS = 20  # CPython compiles at most 20 statically nested blocks
_TABLES = {Neg: "G", Opp: "O", Meet: "M", Join: "J"}  # as in ``terms.source``


def _children(t: Term) -> tuple:
    if type(t) is Meet or type(t) is Join:
        return t.left, t.right
    if type(t) is Neg or type(t) is Opp:
        return (t.arg,)
    return ()


def _nest_source(names, tests, ordered) -> list[str]:
    """Source lines of ``nest(M, J, G, O, TP, BT, R, Q)``, which returns the
    list W with the first failing tuple of test i, or None, in ``W[i]``:
    early, once every test has failed, or after the loops.

    Loop d binds variable d from R[d]; past ``_MAX_BLOCKS`` loops the last
    loop binds the remaining variables from their product.  A subterm's
    level is the loop of its last variable (-1 before the loops), and its
    value is computed at that level: into a local when a deeper loop reads
    it, or when it has two readers, except in the innermost loop of a nest
    with a test of several pairs, whose lazy ``or`` may never read them;
    otherwise inline in its one reader.  A lookup ``M[a][b]`` whose a is
    computed in an outer loop takes the row ``M[a]`` there, once.
    """
    k = len(names)
    loops = min(k, _MAX_BLOCKS)
    inner = loops - 1
    var = {name: i for i, name in enumerate(names)}
    level, reads, deep, order = {}, {}, set(), []
    for side in (side for test in tests for pair in test for side in pair):
        for u in postorder(side):
            if u not in level:
                vs = variables(u)
                level[u] = min(var[vs[-1]], inner) if vs else -1
                order.append(u)
                for c in _children(u):
                    reads[c] = reads.get(c, 0) + 1
                    if level[c] < level[u]:
                        deep.add(c)
        reads[side] = reads.get(side, 0) + 1
        if level[side] < inner:
            deep.add(side)
    lazy = any(len(test) > 1 for test in tests)
    body = {d: [] for d in range(-1, loops)}  # the lines at each level
    code, rows = {}, {}  # subterm -> its expression; (table, a) -> the row's local

    def lookup(table, a, b, at):
        """``table[a][b]`` at level ``at``."""
        if level[a] == at:
            return f"{table}[{code[a]}][{code[b]}]"
        row = rows.get((table, a))
        if row is None:
            row = rows[table, a] = f"r{len(rows)}"
            body[level[a]].append(f"{row} = {table}[{code[a]}]")
        return f"{row}[{code[b]}]"

    for u in order:
        cls = type(u)
        if cls is Var:
            code[u] = f"v{var[u.name]}"
        elif cls is Const:
            code[u] = "TP" if u.which == "top" else "BT"
        else:
            if cls is Neg or cls is Opp:
                expr = f"{_TABLES[cls]}[{code[u.arg]}]"
            else:
                expr = lookup(_TABLES[cls], u.left, u.right, level[u])
            if u in deep or reads[u] > 1 and not (lazy and level[u] == inner):
                code[u] = f"t{len(code)}"
                body[level[u]].append(f"{code[u]} = {expr}")
            else:
                code[u] = expr
    witness = f"({''.join(f'v{i}, ' for i in range(k))})"
    for i, test in enumerate(tests):
        fails = "not ({})".format(" or ".join(
            lookup("Q", a, b, inner) if ordered else f"{code[a]} == {code[b]}" for a, b in test))
        body[inner] += [f"if {fails} and W[{i}] is None:", f"    W[{i}] = {witness}",
                        "    left -= 1", "    if not left: return W"]
    lines = ["def nest(M, J, G, O, TP, BT, R, Q):",
             f"    W = [None] * {len(tests)}", f"    left = {len(tests)}"]
    lines += ["    " + line for line in body[-1]]
    for d in range(loops):
        if d < inner or k == loops:
            header = f"for v{d} in R[{d}]:"
        else:  # the remaining variables in one loop
            header = f"for {''.join(f'v{i}, ' for i in range(d, k))}in product(*R[{d}:{k}]):"
        lines.append("    " * (d + 1) + header)
        lines += ["    " * (d + 2) + line for line in body[d]]
    return lines + ["    return W"]


@functools.lru_cache(maxsize=1024)
def _kernel(names, tests, ordered):
    """Compile to ``nest(M, J, G, O, TP, BT, R, Q)``: for each of ``tests``,
    each a tuple of pairs of terms over the variables ``names``, the first
    tuple, v_i from R[i] with v0 most significant, under which none of its
    pairs (a, b) holds, or None.  A pair holds when a = b, or when
    ``Q[a][b]`` is true if ``ordered``.  Raises EvalError when a term is
    deeper than ``MAX_DEPTH``.  Keyed by the interned terms, so the key
    never recurses; the nests of the last 1024 distinct inputs are kept."""
    if any(t.depth > MAX_DEPTH for test in tests for pair in test for t in pair):
        raise EvalError(f"term is deeper than {MAX_DEPTH} operators")
    ns = {"product": product}
    exec("\n".join(_nest_source(names, tests, ordered)), ns)  # generated from Term nodes only
    return ns["nest"]


def _first_witness(alg: FiniteAlgebra, pairs, names, ranges, order=None):
    """The first tuple, v_i from ranges[i], under which no pair of ``pairs``
    holds on the tables of alg, or None; ``order`` (nested lists) is the
    relation Q of ``_kernel``, if any.  Raises EvalError when a term is
    deeper than ``MAX_DEPTH``."""
    return _kernel(names, (pairs,), order is not None)(
        alg._rows_m, alg._rows_j, alg._lneg, alg._lopp, alg.top, alg.bot, ranges, order)[0]


# --- one entry point for equation checks -----------------------------------
# Every equation check goes through ``_check_equations``.  The equations over
# k variables with n**k <= _VECTOR_THRESHOLD run on the compiled nests of
# their variable tuples; the others are evaluated together in numpy, every distinct
# subterm of the batch once per chunk of the first variable.

_VECTOR_THRESHOLD = 256
_VECTOR_CHUNK_CELLS = 1 << 18  # cells per array, or n**(k-1): one value of the first


def _scalar_arity(n: int):
    """The largest k with n**k <= _VECTOR_THRESHOLD (every k when n = 1)."""
    if n == 1:
        return math.inf
    k = 0
    while n ** (k + 1) <= _VECTOR_THRESHOLD:
        k += 1
    return k


class _Plan(NamedTuple):
    """How ``_check_equations`` checks a batch of equations.  Each distinct
    pair (lhs, rhs) has a position: first those of the nests, in the order
    of their tests, then those of each numpy batch in turn."""

    holding: tuple  # one holding verdict per equation
    slots: tuple  # the position of each equation's pair
    kernel: tuple  # the compiled nests of the scalar pairs, one per variable tuple
    width: int  # the number of ranges the widest nest reads
    vector: tuple  # the numpy batches, for ``_vector_witnesses``


@functools.lru_cache(maxsize=1024)
def _plan(equations, kmax) -> _Plan:
    """The plan of ``equations`` (a tuple) when the pairs over at most kmax
    variables run on compiled nests; the plans of the last 1024 distinct
    inputs are kept.  Raises EvalError when a term is deeper than ``MAX_DEPTH``."""
    for e in equations:
        if max(e.lhs.depth, e.rhs.depth) > MAX_DEPTH:
            raise EvalError(f"equation {e.id!r} is deeper than {MAX_DEPTH} operators")
    nests, vector = {}, {}  # variables -> pairs; first variable -> {pair: variables}
    for e in equations:
        pair, vs = (e.lhs, e.rhs), e.variables()
        if len(vs) <= kmax:
            nests.setdefault(vs, {})[pair] = None
        else:
            vector.setdefault(vs[0], {})[pair] = vs
    at = {pair: i for i, pair in enumerate(
        [p for ps in nests.values() for p in ps] + [p for b in vector.values() for p in b])}
    return _Plan(
        holding=tuple(EquationVerdict(e, True) for e in equations),
        slots=tuple(at[e.lhs, e.rhs] for e in equations),
        kernel=tuple(_kernel(vs, tuple((p,) for p in ps), False) for vs, ps in nests.items()),
        width=max(map(len, nests), default=0),
        vector=tuple(vector.values()),
    )


def _check_equations(alg: FiniteAlgebra, equations) -> tuple[EquationVerdict, ...]:
    """The verdict of each equation on alg, in order.

    A failing verdict carries the lexicographically first counterexample
    (variables in sorted name order, element indices as values).  Equations
    with the same two sides are checked once.  Raises EvalError, before any
    check, when a term is deeper than ``MAX_DEPTH``.
    """
    plan = _plan(tuple(equations), _scalar_arity(alg.n))
    bad, ranges = [], (range(alg.n),) * plan.width
    for nest in plan.kernel:
        bad += nest(alg._rows_m, alg._rows_j, alg._lneg, alg._lopp, alg.top, alg.bot,
                    ranges, None)
    for batch in plan.vector:
        bad += _vector_witnesses(alg, batch).values()
    if bad.count(None) == len(bad):
        return plan.holding
    return tuple(
        v if bad[i] is None else
        EquationVerdict(v.equation, False, dict(zip(v.equation.variables(), bad[i])))
        for v, i in zip(plan.holding, plan.slots))


def satisfies_equation(alg: FiniteAlgebra, equation: Equation) -> EquationVerdict:
    """Check lhs = rhs under every assignment.

    A failing verdict carries the lexicographically first counterexample
    (variables in sorted name order, element indices as values).  Each
    array of values holds at most max(2**18, n**(k-1)) cells for k
    variables.  Terms deeper than ``MAX_DEPTH`` raise EvalError.
    """
    return _check_equations(alg, (equation,))[0]


@functools.lru_cache(maxsize=64)
def _vector_plan(pairs, first):
    """Steps that evaluate the pairs (lhs, rhs), all of which contain the
    variable ``first``: ``(static, chunked, keys)``.

    A step ``(key, node, a, b, how, drops)`` computes a distinct subterm
    after its operands: a leaf (key Var or Const) or one lookup in the
    table ``key`` of ``keys``, a chain of ``~``/``!`` folded into the Meet
    or Join below it (at its children a, b) or the leaf a below it (b
    None).  ``how`` is None for a gather from the flattened table, or for
    operands without a common variable an outer lookup ``(takes,
    transpose)``: take by each ``(operand, axis)`` in turn, the one with
    fewer cells first, skipping a bare variable but ``first`` (its values
    are the whole axis), and transpose unless a's variables sort first.
    Subterms without ``first`` are static: computed once per call, and
    those a chunked step reads are kept for the call.  The chunked steps
    run once per chunk, with a step of key ``None`` for each pair (the
    pair as node, its sides as ``a``, ``b``) right after its sides.
    ``drops`` are the values whose last use is the step.  The plans of the
    last 64 distinct batches are kept.
    """
    order, seen = [], set()
    for pair in pairs:
        for t in pair:
            for u in postorder(t):
                if u not in seen:
                    seen.add(u)
                    order.append(u)
        order.append(pair)
    steps, needed = [], set()  # needed: the values a later step reads
    for u in reversed(order):
        if type(u) is tuple:  # the check of pair u
            steps.append((None, u, *u, None))
            needed.update(u)
        elif u in needed:
            key, v, a, b, how = (), u, None, None, None
            while type(v) is Neg or type(v) is Opp:
                key, v = key + (type(v),), v.arg
            if type(v) is Meet or type(v) is Join:
                key, a, b = key + (type(v),), v.left, v.right
                va, vb = variables(a), variables(b)
                if not set(va) & set(vb):
                    takes = sorted(((a, 0), (b, 1)), key=lambda t: (
                        len(variables(t[0])), first not in variables(t[0])))
                    how = (tuple(t for t in takes if type(t[0]) is not Var or t[0].name == first),
                           bool(va and vb) and va[-1] > vb[0])
            elif key:
                a = v
            else:
                key = type(v)
            needed.update(x for x in (a, b) if x is not None)
            steps.append((key, u, a, b, how))
    steps.reverse()
    static = [s for s in steps if s[0] is not None and first not in variables(s[1])]
    chunked = [s for s in steps if s[0] is None or first in variables(s[1])]

    def with_drops(steps, kept):
        last = {}  # value -> index of the last step that reads it
        for i, (_, _, a, b, _) in enumerate(steps):
            for x in (a, b):
                if x is not None and x not in kept:
                    last[x] = i
        drops = [[] for _ in steps]
        for x, i in last.items():
            drops[i].append(x)
        return tuple((*step, tuple(d)) for step, d in zip(steps, drops))

    return (with_drops(static, {x for step in chunked for x in step[2:4]}),
            with_drops(chunked, {step[1] for step in static}),
            frozenset(s[0] for s in steps if type(s[0]) is tuple))


def _vector_witnesses(alg: FiniteAlgebra, batch: dict) -> dict:
    """{pair: its first failing tuple, or None} for ``batch``, a dict from
    pairs (lhs, rhs) to their sorted variables, all with the same first
    variable.

    Values are arrays of the narrowest unsigned dtype that holds the
    elements, one axis per variable of the batch in sorted-name order, of
    length 1 where the subterm lacks the variable.  Only the first variable
    is chunked, so no array has more than max(``_VECTOR_CHUNK_CELLS``,
    n**(k-1)) cells for k variables.  The first failing tuple of a pair is
    the first False of its mask over its own axes in C order, which is the
    lexicographic order.
    """
    names = sorted({v for vs in batch.values() for v in vs})
    axis = {name: i for i, name in enumerate(names)}
    n, k = alg.n, len(names)
    dt = np.min_scalar_type(n - 1)
    const = {"top": np.full((1,) * k, alg.top, dt), "bot": np.full((1,) * k, alg.bot, dt)}
    interleave = tuple(i for d in range(k) for i in (d, k + d))
    pairs = tuple(batch)
    static_steps, chunked, keys = _vector_plan(pairs, names[0])
    ops = {Meet: alg.meet, Join: alg.join, Neg: alg.neg, Opp: alg.opp}
    tables = {key: functools.reduce(lambda t, op: ops[op].take(t), key[-2::-1],
                                    ops[key[-1]]).astype(dt)
              for key in keys}  # ~!(x & y) reads G[O[M]]

    def along(name, values):
        shape = [1] * k
        shape[axis[name]] = len(values)
        return values.reshape(shape)

    def run(steps, val, firsts=None, lo=0, failed=None):
        for key, u, a, b, how, drops in steps:
            if key is Var:
                val[u] = firsts if u.name == names[0] else along(u.name, np.arange(n, dtype=dt))
            elif key is Const:
                val[u] = const[u.which]
            elif key is None:  # the check of pair u on this chunk
                eqmask = val[a] == val[b]
                if not eqmask.all():
                    own = [eqmask.shape[axis[v]] for v in batch[u]]
                    bad = np.unravel_index(int(np.argmin(eqmask.reshape(-1))), own)
                    failed[u] = (int(bad[0]) + lo,) + tuple(int(v) for v in bad[1:])
            elif b is None:
                val[u] = tables[key].take(val[a])
            elif how is None:  # flat cell index, in intp whatever numpy's promotion rules
                val[u] = tables[key].take(np.multiply(val[a], n, dtype=np.intp) + val[b])
            else:  # an outer lookup: one operand per table axis
                takes, transpose = how
                r = tables[key]
                for x, ax in takes:
                    r = r.take(val[x].ravel(), axis=ax)
                sa, sb = val[a].shape, val[b].shape
                if transpose:
                    r = r.reshape(sa + sb).transpose(interleave)
                val[u] = r.reshape(tuple(map(max, sa, sb)))
            for x in drops:
                del val[x]

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
    """The reports of the suites; those not in the record of alg's tables
    (keyed by id and equations) are checked in one ``_check_equations`` call."""
    suites = tuple(get_suite(s) for s in suites)
    known = _facts_of(alg).suites
    reports = [known.get(s) for s in suites]  # one hash per known suite
    todo = {s: None for s, r in zip(suites, reports) if r is None}
    if todo:
        verdicts = iter(_check_equations(alg, [e for s in todo for e in s.equations]))
        for s in todo:
            todo[s] = known[s] = SuiteReport(s.id, tuple(islice(verdicts, len(s))))
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
        n = len(self.rel)
        return bool(self.rel[FiniteAlgebra._index(x, n, "x"), FiniteAlgebra._index(y, n, "y")])

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
    facts = _facts_of(alg)
    if facts.order is None:
        m, j = alg.meet, alg.join
        facts.order = _flagged_order(
            (m == m.diagonal()[:, None]) & (j == j.diagonal()[None, :]))
    return facts.order


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
    facts = _facts_of(alg)
    if facts.classification is not None:
        return facts.classification
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
    facts.classification = ClassificationReport(
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
    return facts.classification


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
    facts = _facts_of(alg)
    if facts.catalog is None:
        verdicts = _check_equations(alg, CATALOG)
        facts.catalog = verdicts, tuple(v for v in verdicts if not v.holds)
    return facts.catalog
