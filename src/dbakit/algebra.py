"""Finite algebras of type (2,2,1,1,0,0) and the axiom/classification machinery.

A FiniteAlgebra is immutable after construction: it copies its tables to int64
arrays.  Only the checker's compiled nests read them as row tuples
(``_tuples``).  Every function here is read-only on its inputs and safe to
call concurrently on shared values.

What the tables decide (suite reports, the catalog's among them, the
quasi-order, the class flags, the classification and the square fibres) is
kept in one record per table set, shared by every algebra with equal
tables, that is, equal ``signature()`` (``_facts_of``).  Sharing is exact:
the key is the whole of the tables, every kept value is index-based, and
names enter only when a report is rendered.  One bounded store, an ``_LRU``
of 2**18 table cells, keeps the records of the table sets looked up last,
after the algebras that asked for them are gone; each algebra holds its own
record, so an evicted record still answers for it.  ``models`` keeps the
refute model families in a second ``_LRU``.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import AlgebraError, EvalError
from .suites import BOOLEAN, CATALOG, DBA23, DCORE13, GDCORE11, get_suite
from .terms import (
    MAX_DEPTH, TABLE_NAMES, AxiomSuite, Const, Equation, Join, Meet, Neg, Opp, Term, Var, fold,
    postorder, variables,
)


def _integer(value, what, error, kind="an integer") -> int:
    """value as an int: Python or numpy integers only.  A bool, float or str
    is never truncated but raises ``error("<what> must be <kind>, got
    <value!r>")``, each caller giving its own error type and noun."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be {kind}, got {value!r}")
    return int(value)


class FiniteAlgebra:
    """Total operation tables for meet (&), join (|), two negations (~, !)
    and the constants T, F over elements 0..n-1.

    Element identity is the index; ``names`` are display metadata only.
    """

    __slots__ = (
        "names", "n", "meet", "join", "neg", "opp", "top", "bot",
        "_rows", "_facts",
        "__weakref__",  # the refuter keeps its stacks of models by weak references
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
        self._rows = None  # the tables as tuples, on the first compiled-nest read
        self._facts = None  # the shared record of verdicts, on the first check

    def _tuples(self):
        """(meet, join, neg, opp) as tuples, meet and join of row tuples: fast
        scalar reads, at one Python int a cell, for the compiled nests."""
        if self._rows is None:
            self._rows = (*(tuple(map(tuple, t.tolist())) for t in (self.meet, self.join)),
                          tuple(self.neg.tolist()), tuple(self.opp.tolist()))
        return self._rows

    @staticmethod
    def _table(values, shape, what):
        """values as a read-only int64 copy of the given shape with entries
        in [0, n); non-integer entries are an error, never truncated."""
        try:
            arr = np.array(values, order="C")  # a new array: the caller may write to values
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
        v = _integer(v, what, AlgebraError, "an integer index")
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
    """What one table set decides: suite reports by suite (the catalog's
    too), the quasi-order, the class flags, the classification and the
    square fibres (``_fibres``), each filled on its first use.  Holds no
    algebra, so keeping it keeps no algebra alive."""

    __slots__ = ("suites", "order", "flags", "classification", "fibres")

    def __init__(self):
        self.suites = {}
        self.order = self.flags = self.classification = self.fibres = None


class _LRU:
    """Values by exact key, least recently used first (``entries``, each a
    (value, charge) pair), with the sum of their charges (``cells``).  A
    value is charged its table cells, but at least ``floor``; the least
    recently used go while the charges pass ``bound``, and a value charged
    more is returned but never kept.  One lock: of two puts that race on a
    key, the first value is kept, and both callers get it."""

    def __init__(self, bound, floor):
        self.bound, self.floor = bound, floor
        self.entries = OrderedDict()
        self.cells = 0
        self.lock = threading.Lock()

    def get(self, key):
        """The kept value of key, now the most recently used, else None."""
        with self.lock:
            entry = self.entries.get(key)
            if entry is None:
                return None
            self.entries.move_to_end(key)
            return entry[0]

    def put(self, key, value, cells):
        """The kept value of key, else value, kept if its charge fits."""
        charge = max(cells, self.floor)
        with self.lock:
            entry = self.entries.get(key)
            if entry is not None:
                self.entries.move_to_end(key)
                return entry[0]
            if charge <= self.bound:
                self.entries[key] = value, charge
                self.cells += charge
                while self.cells > self.bound:
                    self.cells -= self.entries.popitem(last=False)[1][1]
            return value

    def drop(self, key, value):
        """Forget key if it still holds value."""
        with self.lock:
            entry = self.entries.get(key)
            if entry is not None and entry[0] is value:
                del self.entries[key]
                self.cells -= entry[1]


# A record is charged its four tables' cells, 2n(n+1), but at least 1,024,
# since its reports take memory whatever n: the store keeps at most 256
# records, and a record over 361 elements never.  See README for what that
# costs.
_FACTS = _LRU(1 << 18, 1 << 10)


def _facts_of(alg: FiniteAlgebra) -> _Facts:
    """The record of alg's tables, shared with every algebra that has the
    same tables while ``_FACTS`` keeps it; looked up on the first check and
    kept on alg.  Two threads may fill one field at once: both write equal
    values."""
    facts = alg._facts
    if facts is None:
        # signature() with the tables in the narrowest dtype that holds the
        # elements: as exact, and a key up to 8 times smaller
        dt = np.min_scalar_type(alg.n - 1)
        key = (alg.n, alg.top, alg.bot,
               *(t.astype(dt).tobytes() for t in (alg.meet, alg.join, alg.neg, alg.opp)))
        cells = 2 * alg.n * (alg.n + 1)
        facts = alg._facts = _FACTS.get(key) or _FACTS.put(key, _Facts(), cells)
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

    return fold(t, var, alg.top, alg.bot, alg.neg.item, alg.opp.item,
                alg.meet.item, alg.join.item)


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
# The scalar equation checker asks for the first assignment, in lexicographic
# order, under which an equation's sides differ.  One generator compiles the
# equations over one variable tuple into one loop nest, a function that
# returns once all of them have failed; each nest is compiled once, whatever
# batch it comes from.  (The hypersequent refuter in ``logic`` is a numpy
# fold over stacked models, and compiles nothing.)


def _children(t: Term) -> tuple:
    if type(t) is Meet or type(t) is Join:
        return t.left, t.right
    if type(t) is Neg or type(t) is Opp:
        return (t.arg,)
    return ()


def _nest_source(names, pairs) -> list[str]:
    """Source lines of ``nest(M, J, G, O, TP, BT, R)``, which returns the
    list W with the first tuple under which pair i (lhs, rhs) differs, or
    None, in ``W[i]``: early, once every pair has failed, or after the loops.

    Loop d binds variable d from R, the elements; ``_check_equations``
    nests at most 8 loops (n >= 2 and n**k <= ``_VECTOR_THRESHOLD`` = 2**8),
    well within CPython's 20 statically nested blocks.  A subterm's level
    is the loop of its last variable (-1 before the loops), and its value
    is computed at that level: into a local when a deeper loop reads it or
    when it has two readers, otherwise inline in its one reader.  A lookup
    ``M[a][b]`` whose a is computed in an outer loop takes the row ``M[a]``
    there, once.
    """
    k = len(names)
    inner = k - 1
    var = {name: i for i, name in enumerate(names)}
    level, reads, deep, order = {}, {}, set(), []
    for side in (side for pair in pairs for side in pair):
        for u in postorder(side):
            if u not in level:
                vs = variables(u)
                level[u] = var[vs[-1]] if vs else -1
                order.append(u)
                for c in _children(u):
                    reads[c] = reads.get(c, 0) + 1
                    if level[c] < level[u]:
                        deep.add(c)
        reads[side] = reads.get(side, 0) + 1
        if level[side] < inner:
            deep.add(side)
    body = {d: [] for d in range(-1, k)}  # the lines at each level
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
                expr = f"{TABLE_NAMES[cls]}[{code[u.arg]}]"
            else:
                expr = lookup(TABLE_NAMES[cls], u.left, u.right, level[u])
            if u in deep or reads[u] > 1:
                code[u] = f"t{len(code)}"
                body[level[u]].append(f"{code[u]} = {expr}")
            else:
                code[u] = expr
    witness = f"({''.join(f'v{i}, ' for i in range(k))})"
    for i, (a, b) in enumerate(pairs):
        body[inner] += [f"if {code[a]} != {code[b]} and W[{i}] is None:",
                        f"    W[{i}] = {witness}", "    left -= 1", "    if not left: return W"]
    lines = ["def nest(M, J, G, O, TP, BT, R):",
             f"    W = [None] * {len(pairs)}", f"    left = {len(pairs)}"]
    lines += ["    " + line for line in body[-1]]
    for d in range(k):
        lines.append("    " * (d + 1) + f"for v{d} in R:")
        lines += ["    " * (d + 2) + line for line in body[d]]
    return lines + ["    return W"]


@functools.lru_cache(maxsize=1024)
def _kernel(names, pairs):
    """Compile to ``nest(M, J, G, O, TP, BT, R)``: for each of ``pairs``,
    each a pair (lhs, rhs) of terms over the variables ``names``, the first
    tuple, each v_i from R with v0 most significant, under which lhs != rhs,
    or None.  Its only caller, ``_plan``, rejects a term deeper than
    ``MAX_DEPTH`` first.  Keyed by the interned terms, so the key never
    recurses; the nests of the last 1024 distinct inputs are kept."""
    ns = {}
    exec("\n".join(_nest_source(names, pairs)), ns)  # generated from Term nodes only
    return ns["nest"]


# --- one entry point for equation checks -----------------------------------
# Every equation check goes through ``_check_equations``.  The equations over
# k variables with n**k <= _VECTOR_THRESHOLD run on the compiled nests of
# their variable tuples, up to _NEST_MAX_N elements; the others are evaluated
# together in numpy, every distinct subterm of the batch once per chunk of the
# first variable.  A batch past ``_FIBRE_CELLS`` ranges what variables it can
# over square fibres.  Both cuts are measured break-evens (README).

_VECTOR_THRESHOLD = 256
_NEST_MAX_N = 48  # past this many elements only constant equations run on nests
_VECTOR_CHUNK_CELLS = 1 << 18  # cells per array, or n**(k-1): one value of the first
_FIBRE_CELLS = 1 << 15  # batches of more cells range over fibres: n >= 33 at k = 3
_PACKED_MIN_N = 40  # from here transitivity is checked on rows packed to bits
_SIDE = {Meet: "meet", Neg: "meet", Join: "join", Opp: "join"}  # the side of an operand


def _scalar_arity(n: int, cells=_VECTOR_THRESHOLD):
    """The largest k with n**k <= cells, for n > 1."""
    k = 0
    while n ** (k + 1) <= cells:
        k += 1
    return k


def _fibres(alg: FiniteAlgebra) -> dict:
    """{side: the least element of each fibre of x -> x&x (side "meet") or
    x -> x|x ("join"), ascending}, kept in the record of alg's tables, for
    each side with fewer fibres than elements whose operations do not tell
    an element from its square: M[x&x, y] = M[x, y] = M[x, y&y] and ~(x&x)
    = ~x, or dually, on the whole tables.  A dBa passes both (1a, 2a, 3a)."""
    facts = _facts_of(alg)
    if facts.fibres is None:
        fibres, elements = {}, np.arange(alg.n)
        for side, t, u in (("meet", alg.meet, alg.neg), ("join", alg.join, alg.opp)):
            sq = t.diagonal()
            first = np.full(alg.n, alg.n)  # at a square: the least element it squares
            np.minimum.at(first, sq, elements)
            least = np.flatnonzero(first[sq] == elements)
            if len(least) < alg.n and all((a[sq] == a).all() for a in (t, t.T, u)):
                fibres[side] = least
        facts.fibres = fibres
    return facts.fibres


def _bound(pair, sides) -> tuple:
    """(variable, side), sorted, for each variable of pair whose every
    occurrence is an operand of & or ~ (side "meet", as in ``vee(y, z)``)
    or of | or ! ("join"), when that side is one of ``sides``."""
    side = {t.name: None for t in pair if type(t) is Var}  # a bare side binds to neither
    for u in (u for t in pair for u in postorder(t)):
        for c in _children(u):
            if type(c) is Var:
                s = _SIDE[type(u)]
                side[c.name] = s if side.get(c.name, s) == s else None
    return tuple(sorted((v, s) for v, s in side.items() if s in sides))


class _Plan(NamedTuple):
    """How ``_check_equations`` checks a batch of equations.  Each distinct
    pair (lhs, rhs) has a position: first those of the nests, in the order
    of their pairs, then those of each numpy batch in turn."""

    holding: tuple  # one holding verdict per equation
    slots: tuple  # the position of each equation's pair
    kernel: tuple  # the compiled nests of the scalar pairs, one per variable tuple
    vector: tuple  # (batch, bound, steps, keys) per numpy batch, for ``_vector_witnesses``


@functools.lru_cache(maxsize=1024)
def _arity(equations) -> int:
    """The most variables that one of ``equations`` has."""
    return max((len(e.variables()) for e in equations), default=0)


@functools.lru_cache(maxsize=1024)
def _plan(equations, kmax, split) -> _Plan:
    """The plan of ``equations`` (a tuple) when the pairs over at most kmax
    variables run on compiled nests and the others on the steps of their
    numpy batch, one per first variable.  With ``split`` = (fit, sides), a
    batch with a pair over more than fit variables is split by each pair's
    variables and their ``_bound`` sides among ``sides``, held as ``bound``.
    The plans of the last 1024 distinct inputs are kept.  Raises EvalError
    when a term is deeper than ``MAX_DEPTH``."""
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
    fit, sides = split or (math.inf, ())
    batches = {}  # (first variable, variables, bound) -> {pair: variables}
    for first, batch in vector.items():
        wide = max(map(len, batch.values())) > fit
        for pair, vs in batch.items():
            key = (first, vs, _bound(pair, sides)) if wide else (first, None, ())
            batches.setdefault(key, {})[pair] = vs
    at = {pair: i for i, pair in enumerate(
        [p for ps in nests.values() for p in ps] + [p for b in batches.values() for p in b])}
    return _Plan(
        holding=tuple(EquationVerdict(e, True) for e in equations),
        slots=tuple(at[e.lhs, e.rhs] for e in equations),
        kernel=tuple(_kernel(vs, tuple(ps)) for vs, ps in nests.items()),
        vector=tuple((b, dict(bound), *_vector_plan(tuple(b), first, frozenset(dict(bound))))
                     for (first, _, bound), b in batches.items()),
    )


def _check_equations(alg: FiniteAlgebra, equations) -> tuple[EquationVerdict, ...]:
    """The verdict of each equation on alg, in order.

    A failing verdict carries the lexicographically first counterexample
    (variables in sorted name order, element indices as values).  Equations
    with the same two sides are checked once.  Raises EvalError, before any
    check, when a term is deeper than ``MAX_DEPTH``.  On one element every
    term takes its value, so every equation holds.

    A numpy batch past ``_FIBRE_CELLS`` ranges each variable it can over
    one element per square fibre.  Let every occurrence of v be an
    operand of & or ~, and M[x&x, y] = M[x, y] = M[x, y&y] and ~(x&x) = ~x
    (``_fibres``).  Then v&v for v changes no value, so the failing set is
    a union of products of fibres of x -> x&x at v; the first failing tuple
    has at v the least element of its fibre (which fails too, and comes
    first), so it is the first failing tuple of the grid that ranges v over
    these least elements, ascending.  Dually for | and ! with x -> x|x.
    """
    equations = tuple(equations)
    if alg.n == 1:  # the plan still rejects a term deeper than MAX_DEPTH
        return _plan(equations, 0, None).holding
    # fibres only when a batch may pass the cut: below it, full ranges are cheaper
    fibres = _fibres(alg) if alg.n ** _arity(equations) > _FIBRE_CELLS else {}
    split = (_scalar_arity(alg.n, _FIBRE_CELLS), tuple(fibres)) if fibres else None
    kmax = _scalar_arity(alg.n) if alg.n <= _NEST_MAX_N else 0
    plan = _plan(equations, kmax, split)
    bad, elements = [], range(alg.n)
    # nests without a loop read one cell each, from the numpy tables
    tables = alg._tuples() if kmax else (alg.meet, alg.join, alg.neg, alg.opp)
    for nest in plan.kernel:
        bad += nest(*tables, alg.top, alg.bot, elements)
    for batch, bound, steps, keys in plan.vector:
        axes = {v: fibres[s] for v, s in bound.items()}
        bad += _vector_witnesses(alg, batch, steps, keys, axes).values()
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


def _vector_plan(pairs, first, reduced):
    """Steps that evaluate the pairs (lhs, rhs), all of which contain the
    variable ``first``, on one chunk of its values, when the variables in
    ``reduced`` range over fibres: ``(steps, keys)``.

    A step ``(key, node, a, b, how, drops)`` computes a distinct subterm
    after its operands: a leaf (key Var or Const) or one lookup in the
    table ``key`` of ``keys``, a chain of ``~``/``!`` folded into the Meet
    or Join below it (at its children a, b) or the leaf a below it (b
    None).  ``how`` is None for a gather from the flattened table, or for
    operands without a common variable an outer lookup ``(takes,
    transpose)``: take by each ``(operand, axis)`` in turn, the one with
    fewer cells first, skipping a bare variable whose values are the whole
    axis (not ``first`` nor one of ``reduced``), and transpose unless a's
    variables sort first.  A step of key ``None`` checks a pair (the pair
    as node, its sides as ``a``, ``b``), right after its sides.  ``drops`` are the values whose
    last use is the step.
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
                    how = (tuple(t for t in takes if type(t[0]) is not Var
                                 or t[0].name == first or t[0].name in reduced),
                           bool(va and vb) and va[-1] > vb[0])
            elif key:
                a = v
            else:
                key = type(v)
            needed.update(x for x in (a, b) if x is not None)
            steps.append((key, u, a, b, how))
    steps.reverse()
    last = {}  # value -> index of the last step that reads it
    for i, (_, _, a, b, _) in enumerate(steps):
        for x in (a, b):
            if x is not None:
                last[x] = i
    drops = [[] for _ in steps]
    for x, i in last.items():
        drops[i].append(x)
    return (tuple((*step, tuple(d)) for step, d in zip(steps, drops)),
            frozenset(s[0] for s in steps if type(s[0]) is tuple))


def _vector_witnesses(alg: FiniteAlgebra, batch: dict, steps, keys, axes) -> dict:
    """{pair: its first failing tuple, or None} for ``batch``, a dict from
    pairs (lhs, rhs) to their sorted variables, all with the same first
    variable, by its ``_vector_plan`` ``(steps, keys)``; ``axes`` maps a
    variable to the ascending elements it ranges over, if not all.

    Values are arrays of the narrowest unsigned dtype that holds the
    elements, one axis per variable of the batch in sorted-name order, of
    length 1 where the subterm lacks the variable.  Only the first variable
    is chunked, so no array has more than max(``_VECTOR_CHUNK_CELLS``,
    n**(k-1)) cells for k variables; each chunk runs every step.  The first
    failing tuple of a pair is the first False of its mask over its own
    axes in C order, which is the lexicographic order.  Once pairs fail,
    the later chunks run the steps of the others.
    """
    names = sorted({v for vs in batch.values() for v in vs})
    axis = {name: i for i, name in enumerate(names)}
    n, k = alg.n, len(names)
    dt = np.min_scalar_type(n - 1)
    const = {"top": np.full((1,) * k, alg.top, dt), "bot": np.full((1,) * k, alg.bot, dt)}
    interleave = tuple(i for d in range(k) for i in (d, k + d))
    ops = {Meet: alg.meet, Join: alg.join, Neg: alg.neg, Opp: alg.opp}
    tables = {key: functools.reduce(lambda t, op: ops[op].take(t), key[-2::-1],
                                    ops[key[-1]]).astype(dt)
              for key in keys}  # ~!(x & y) reads G[O[M]]

    def along(name, values):
        shape = [1] * k
        shape[axis[name]] = len(values)
        return values.reshape(shape)

    ranges = {v: axes[v].astype(dt) if v in axes else np.arange(n, dtype=dt) for v in names}
    pairs = tuple(batch)
    result = dict.fromkeys(pairs)
    block = max(1, _VECTOR_CHUNK_CELLS // n ** (max(map(len, batch.values())) - 1))
    firsts = ranges[names[0]]
    for lo in range(0, len(firsts), block):
        chunk = along(names[0], firsts[lo:lo + block])
        val, failed = {}, {}
        for key, u, a, b, how, drops in steps:
            if key is Var:
                val[u] = chunk if u.name == names[0] else along(u.name, ranges[u.name])
            elif key is Const:
                val[u] = const[u.which]
            elif key is None:  # the check of pair u on this chunk
                eqmask = val[a] == val[b]
                if not eqmask.all():
                    own = [eqmask.shape[axis[v]] for v in batch[u]]
                    bad = np.unravel_index(int(np.argmin(eqmask.reshape(-1))), own)
                    failed[u] = tuple(int(ranges[v][i]) for v, i in
                                      zip(batch[u], (bad[0] + lo, *bad[1:])))
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
        if failed:
            result.update(failed)
            pairs = tuple(p for p in pairs if p not in failed)
            if not pairs or lo + block >= len(firsts):
                break
            steps = _vector_plan(pairs, names[0], frozenset(axes))[0]
    return result


@dataclass(frozen=True)
class SuiteReport:
    suite_id: str
    verdicts: tuple[EquationVerdict, ...]

    # computed once and kept outside the fields, so repr, == and pickle see
    # the verdicts only
    @functools.cached_property
    def ok(self) -> bool:
        return all(v.holds for v in self.verdicts)

    def __reduce__(self):  # rebuilt through __init__, without the cached ``ok``
        return SuiteReport, (self.suite_id, self.verdicts)

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
    """Whether alg satisfies the suite: a lookup in the record of alg's
    tables once the suite's report is kept there."""
    suite = get_suite(suite)
    report = _facts_of(alg).suites.get(suite)
    return (check_suite(alg, suite) if report is None else report).ok


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


def _transitive(rel: np.ndarray) -> bool:
    """Whether x <= y <= z implies x <= z: one boolean matmul (no BLAS, no
    fixed cost) below ``_PACKED_MIN_N`` elements; from there the rows of
    x's successors, packed to bits and OR-ed in one reduceat, in x's row."""
    if len(rel) < _PACKED_MIN_N:
        return not (rel @ rel > rel).any()
    bits, (x, y) = np.packbits(rel, axis=1), np.nonzero(rel)
    starts = np.flatnonzero(np.diff(x, prepend=-1))  # x's first pair
    return not (np.bitwise_or.reduceat(bits[y], starts, axis=0) & ~bits[x[starts]]).any()


def _flagged_order(rel: np.ndarray) -> QuasiOrder:
    """The relation (an n x n bool matrix, made read-only) with its flags."""
    rel.flags.writeable = False
    return QuasiOrder(
        rel,
        reflexive=bool(rel.diagonal().all()),
        transitive=_transitive(rel),
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
    return alg.meet.item(x, x)


def project_join(alg: FiniteAlgebra, x: int) -> int:
    """x | x."""
    return alg.join.item(x, x)


def meet_idempotents(alg: FiniteAlgebra) -> frozenset:
    return frozenset(x for x, sq in enumerate(alg.meet.diagonal().tolist()) if sq == x)


def join_idempotents(alg: FiniteAlgebra) -> frozenset:
    return frozenset(x for x, sq in enumerate(alg.join.diagonal().tolist()) if sq == x)


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
    n, zm, zj = alg.n, alg.meet.diagonal(), alg.join.diagonal()  # z&z, z|z
    lifts = np.bincount(zm * n + zj, minlength=n * n)  # at a*n + b: the z with square (a, b)
    a, b = np.flatnonzero(zm == np.arange(n)), np.flatnonzero(zj == np.arange(n))
    return bool(np.all(lifts[a[:, None] * n + b][zj[a][:, None] == zm[b]] == 1))


class _ClassFlags(NamedTuple):
    is_dba: bool
    is_contextual: bool
    is_fully_contextual: bool
    is_pure: bool
    is_trivial: bool


def _class_flags(alg: FiniteAlgebra) -> _ClassFlags:
    """The class flags that need no suite but DBA23, defined here once and
    kept in alg's record: contextual is DBA23 with an antisymmetric
    quasi-order, fully contextual adds ``unique_mixed_lift``, pure means
    every element is a meet or a join idempotent, and trivial means
    T & T = F | F, read from the tables alone.  DBA23's report comes from
    the record too, so ``classify``, which checks it in one batch with
    DCORE13 and GDCORE11 first, checks no suite twice."""
    facts = _facts_of(alg)
    if facts.flags is None:
        is_dba = passes(alg, DBA23)
        contextual = is_dba and quasi_order(alg).antisymmetric
        facts.flags = _ClassFlags(
            is_dba, contextual, contextual and unique_mixed_lift(alg),
            len(meet_idempotents(alg) | join_idempotents(alg)) == alg.n,
            project_meet(alg, alg.top) == project_join(alg, alg.bot))
    return facts.flags


def classify(alg: FiniteAlgebra) -> ClassificationReport:
    """Compute every class predicate from first principles.

    dba and dcore are both checked directly (their equivalence is a theorem
    that the test suite verifies, never an assumption made here).
    """
    facts = _facts_of(alg)
    if facts.classification is not None:
        return facts.classification
    r_dba, r_dcore, r_gd = _check_suites(alg, (DBA23, DCORE13, GDCORE11))
    flags = _class_flags(alg)
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
        is_contextual=flags.is_contextual,
        is_pure=flags.is_pure,
        is_trivial=flags.is_trivial,
        is_fully_contextual=flags.is_fully_contextual,
        meet_idempotents=meet_idempotents(alg),
        join_idempotents=join_idempotents(alg),
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
    return _boolean_part(alg, side)[0]


def _boolean_part(alg: FiniteAlgebra, side: str):
    """``extract_boolean_part`` with the idempotents it is carried by: the
    part, the carrier (the idempotents ascending, as an array) and pos, the
    array from each element to its index in the part (-1 off the carrier)."""
    if side not in ("meet", "join"):
        raise AlgebraError(f"side must be 'meet' or 'join', got {side!r}")
    if not passes(alg, DBA23):
        raise AlgebraError("extract_boolean_part requires a double Boolean algebra")
    meet_side = side == "meet"
    t, c = (alg.meet, alg.neg) if meet_side else (alg.join, alg.opp)
    carrier = np.array(sorted(meet_idempotents(alg) if meet_side else join_idempotents(alg)))
    # no lookup misses: catalog meet-square-idem, neg-meet-idem, bot-meet-idem and duals
    pos = np.full(alg.n, -1)
    pos[carrier] = np.arange(len(carrier))
    own = pos[t[np.ix_(carrier, carrier)]]
    derived = pos[c[t[np.ix_(c[carrier], c[carrier])]]]  # v from & and ~, ^ from | and !
    comp = pos[c[carrier]]
    top, bot = (alg.meet[alg.top, alg.top], alg.bot) if meet_side else (
        alg.top, alg.join[alg.bot, alg.bot])
    part = FiniteAlgebra([alg.names[e] for e in carrier.tolist()],
                         *((own, derived) if meet_side else (derived, own)),
                         comp, comp, pos[top], pos[bot])
    return part, carrier, pos


def is_boolean_algebra(alg: FiniteAlgebra) -> bool:
    """True when (&, |, ~, F, T) satisfy the BOOLEAN suite (``!`` is ignored)."""
    return passes(alg, BOOLEAN)


def check_identity_catalog(alg: FiniteAlgebra):
    """Check every derived identity; returns (all verdicts, failing verdicts)."""
    verdicts = _check_suites(alg, (AxiomSuite("CATALOG", CATALOG),))[0].verdicts
    return verdicts, tuple(v for v in verdicts if not v.holds)
