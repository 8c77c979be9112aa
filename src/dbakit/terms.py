"""Term syntax over the signature (meet, join, two negations, top, bottom).

Terms are hash-consed (Filliatre & Conchon, "Type-safe modular hash-consing",
ML Workshop 2006): a constructor returns the one live node for its term.  The
table is a plain dict from ``(class, *fields)`` to a weak reference to the
node, so finding a live node is one dict lookup and one call of the
reference, and an unreferenced term is freed: its reference's callback drops
the dead entry.  Two terms are equal exactly when they are the same node, so
equality and hashing are by identity and never recurse.  Every node caches
its depth and its sorted variables, derived from its children's with at most
one merge (and its walk, on first request), so none of these re-walks the
term.  No node refers to itself, so a term is freed as soon as its last
reference goes, not at the next run of the cyclic collector.  Nodes are
immutable; pickle and copy return the interned node.

Every traversal of a term is one bottom-up ``fold``: an iterative run that
visits each distinct subterm once, in a post-order cached on the node as a
program of steps that name their children by position, so no cached entry
refers to the node itself.
``render``, ``source`` (the term as a Python expression over the operation
tables), ``dual``, substitution, ``algebra.eval_term`` (a fold over the
operation tables) and the hypersequent refuter in ``logic`` (a fold with numpy
callbacks over a block of stacked models) are folds; the numpy equation
checker walks the distinct subterms of a whole batch of equations in
``postorder``, so a subterm shared by several equations is evaluated once.
No term carries compiled code.  Two compiled checks read terms as Python
code over the tables.  The model search compiles ``source`` of both sides of
an equation into one check.  The first-witness kernel in ``algebra``
compiles the scalar equation checker's equations over one variable tuple
into one loop nest over the assignments, one subterm at a time: each in the
loop of its last variable, so a subterm is not recomputed in loops that do
not change it.  Each nest is compiled once.

ASCII surface grammar (precedence: unary > ``&`` > ``|``, both binary ops
left-associative)::

    formula := disjunct ('|' disjunct)*
    disjunct := factor ('&' factor)*
    factor := '~' factor | '!' factor | atom
    atom := 'T' | 'F' | identifier | '(' formula ')'
          | 'vee' '(' formula ',' formula ')'
          | 'wedge' '(' formula ',' formula ')'

``vee``/``wedge`` are macros for the derived connectives and are expanded at
parse time, so parsed terms never contain them as nodes.  Identifiers are
ASCII (a letter or ``_``, then letters, digits and ``_``).  The tokenizer
scans each line with one regular expression: whitespace separates tokens,
``#`` comments out the rest of the line, and any other character that starts
no token, a non-ASCII letter among them, is a ParseError at its column.  The
parser reads a token list that ends in a sentinel no rule accepts.

Nesting is limited to ``MAX_DEPTH`` levels.  The parser opens a level at each
``~``, ``!``, opening parenthesis and macro call, and a parsed term may be at
most ``MAX_DEPTH`` operators deep; deeper input is a ParseError.
The equation checkers and the model search reject deeper terms built in
code with an EvalError, since compiled expressions nest one bracket per
level; ``eval_term`` and the refuter keep the same limit, so every
evaluation path accepts the same terms.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import FrozenInstanceError, dataclass
from typing import NamedTuple

from _weakref import _remove_dead_weakref

from .errors import ParseError

GENERIC = "generic"
OBJECT = "object"
PROPERTY = "property"

# Compiled expressions nest one bracket per level and CPython's tokenizer
# stops at 200.
MAX_DEPTH = 100

# (class, *fields) -> a weak reference to the live node; children are
# interned, so the key's hash and equality never recurse.  Lookups take no
# lock; publishing a node does, so two threads cannot intern two copies of one
# term.
_TABLE: dict = {}
_CREATE = threading.Lock()


class _Ref(weakref.ref):
    """A weak reference that carries its table key, created at C speed."""

    __slots__ = ("key",)


def _drop(ref, table=_TABLE, remove=_remove_dead_weakref):
    # Removes the entry only while it is still dead, so a node interned again
    # under the key stays.  No lock: this can run during a collection in the
    # thread that holds _CREATE.
    remove(table, ref.key)


_DERIVED = ("depth", "_vars", "_names", "_subs", "_post")


class Term:
    """Base class; concrete nodes are Var/Const/Neg/Opp/Meet/Join.

    ``==`` and ``hash`` are object identity's, which is term equality for
    interned nodes.
    """

    __slots__ = _DERIVED + ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


def _intern(key, derive, get=_TABLE.get, put=object.__setattr__):
    """The live node for key = (class, *fields); on a miss, derive(*fields)
    gives its depth, (name, sort) pairs and names."""
    ref = get(key)
    if ref is not None and (node := ref()) is not None:
        return node
    cls, values = key[0], key[1:]
    node = object.__new__(cls)
    derived = derive(*values) + (None, None)  # walks filled on request
    for field, value in zip(cls.__match_args__ + _DERIVED, values + derived):
        put(node, field, value)
    with _CREATE:
        ref = get(key)
        if ref is not None and (old := ref()) is not None:
            return old  # another thread published it first
        ref = _Ref(node, _drop)
        ref.key = key
        _TABLE[key] = ref
    return node


def _union(a: tuple, b: tuple) -> tuple:
    """Sorted union of two sorted tuples, reusing an operand that covers both."""
    if a == b or not b:
        return a
    if not a:
        return b
    return tuple(sorted(set(a).union(b)))


def _var(name, sort):
    return 0, ((name, sort),), (name,)


def _const(which):
    return 0, (), ()


def _unary(arg):
    return arg.depth + 1, arg._vars, arg._names


def _binary(left, right):
    depth = max(left.depth, right.depth) + 1
    a, b = left._vars, right._vars
    if a == b or not b:
        return depth, a, left._names
    if not a:
        return depth, b, right._names
    pairs = tuple(sorted({*a, *b}))
    # the pairs are sorted by name, so the first of each, deduplicated
    return depth, pairs, tuple(dict.fromkeys(next(zip(*pairs))))


class Var(Term):
    __slots__ = __match_args__ = ("name", "sort")

    def __new__(cls, name: str, sort: str = GENERIC):
        return _intern((cls, name, sort), _var)


class Const(Term):
    __slots__ = __match_args__ = ("which",)  # "top" | "bot"

    def __new__(cls, which: str):
        return _intern((cls, which), _const)


class Neg(Term):
    __slots__ = __match_args__ = ("arg",)

    def __new__(cls, arg: Term):
        return _intern((cls, arg), _unary)


class Opp(Term):
    __slots__ = __match_args__ = ("arg",)

    def __new__(cls, arg: Term):
        return _intern((cls, arg), _unary)


class Meet(Term):
    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        return _intern((cls, left, right), _binary)


class Join(Term):
    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        return _intern((cls, left, right), _binary)


TOP = Const("top")
BOT = Const("bot")

# The name of each operation's table in generated code: ``source``, the
# first-witness kernel and the model search's check read ``M[a][b]``,
# ``J[a][b]``, ``G[a]`` and ``O[a]``.
TABLE_NAMES = {Meet: "M", Join: "J", Neg: "G", Opp: "O"}


def vee(a: Term, b: Term) -> Term:
    """Derived join a v b, expanded to ~(~a & ~b)."""
    return Neg(Meet(Neg(a), Neg(b)))


def wedge(a: Term, b: Term) -> Term:
    """Derived meet a ^ b, expanded to !(!a | !b)."""
    return Opp(Join(Opp(a), Opp(b)))


def dual(t: Term) -> Term:
    """The dual of t: meet and join, the two negations, and top and bottom
    swapped.  Variables come back as plain ``Var(name)``, of the generic
    sort."""
    return fold(t, Var, BOT, TOP, Opp, Neg, Join, Meet)


def variables(t: Term) -> tuple[str, ...]:
    """Variable names occurring in t, sorted."""
    return t._names


def var_sorts(t: Term) -> tuple[tuple[str, str], ...]:
    """Distinct (name, sort) pairs of the variables occurring in t, sorted."""
    return t._vars


def _walk(t: Term) -> None:
    """Cache on t its distinct subterms in first-visit pre-order (``_subs``,
    without t itself) and its fold program (``_post``), from one iterative
    walk.  The program has one step ``(class, a, b, drops)`` per distinct
    subterm in post-order, t last: ``a`` and ``b`` are the positions of the
    children's steps, or a variable's name and sort, or a constant's
    ``which``; ``drops`` are the positions of the children whose last parent
    it is, so a fold can drop their values once that parent is folded.  No
    cached entry refers to t: a node that refers to itself is freed only by
    the cyclic collector."""
    pre, steps = [], []
    at = {}  # subterm -> position of its step
    last = {}  # position of a child's step -> that of its last parent
    seen = set()
    stack = [(t, None)]
    while stack:
        u, kids = stack.pop()
        if kids is not None:
            i = at[u] = len(steps)
            for c in kids:
                last[at[c]] = i
            if len(kids) == 2:
                a, b = at[kids[0]], at[kids[1]]
            elif kids:
                a, b = at[kids[0]], None
            elif type(u) is Var:
                a, b = u.name, u.sort
            else:
                a, b = u.which, None
            steps.append((type(u), a, b))
        elif u not in seen:
            seen.add(u)
            pre.append(u)
            if isinstance(u, (Neg, Opp)):
                kids = (u.arg,)
            elif isinstance(u, (Meet, Join)):
                kids = (u.left, u.right)
            else:
                kids = ()
            stack.append((u, kids))
            # right pushed first, so the left subterm is visited first
            stack += ((c, None) for c in reversed(kids))
    drops = [[] for _ in steps]
    for c, i in last.items():
        drops[i].append(c)
    object.__setattr__(t, "_subs", tuple(pre[1:]))
    object.__setattr__(t, "_post", tuple(step + (tuple(d),) for step, d in zip(steps, drops)))


def subterms(t: Term) -> tuple[Term, ...]:
    """All subterms of t (including t itself), deduplicated, in first-visit order."""
    if t._subs is None:
        _walk(t)
    return (t,) + t._subs


def postorder(t: Term) -> tuple[Term, ...]:
    """All subterms of t, deduplicated, each after its children (t is last),
    rebuilt from the fold program: the children are live, so each lookup
    returns the interned node."""
    if t._post is None:
        _walk(t)
    out = []
    for cls, a, b, _ in t._post:
        if cls is Var:
            out.append(Var(a, b))
        elif cls is Const:
            out.append(Const(a))
        elif b is None:
            out.append(cls(out[a]))
        else:
            out.append(cls(out[a], out[b]))
    return tuple(out)


def fold(t: Term, var, top, bot, neg, opp, meet, join):
    """Bottom-up value of t.

    A variable takes ``var(name)``, the constants take the values ``top`` and
    ``bot``, and an operation node applies ``neg``/``opp`` to its argument's
    value or ``meet``/``join`` to its children's values.  Each distinct
    subterm is visited once, running the program cached on t; the walk is
    iterative, so any depth folds.  A value is dropped once its last parent
    is folded, so live values stay proportional to the frontier, not to the
    whole term.
    """
    steps = t._post
    if steps is None:
        _walk(t)
        steps = t._post
    val = []
    push = val.append
    for cls, a, b, done in steps:
        if cls is Meet:
            push(meet(val[a], val[b]))
        elif cls is Join:
            push(join(val[a], val[b]))
        elif cls is Neg:
            push(neg(val[a]))
        elif cls is Opp:
            push(opp(val[a]))
        elif cls is Var:
            push(var(a))
        else:
            push(top if a == "top" else bot)
        for c in done:
            val[c] = None
    return val[-1]


def source(t: Term, var) -> str:
    """t as a Python expression over the tables of ``TABLE_NAMES`` (rows
    indexed ``M[a][b]``) and the constants ``TP``, ``BT``; ``var(name)``
    gives the expression for a variable."""
    g, o, m, j = (TABLE_NAMES[cls] for cls in (Neg, Opp, Meet, Join))
    return fold(t, var, "TP", "BT", f"{g}[{{}}]".format, f"{o}[{{}}]".format,
                f"{m}[{{}}][{{}}]".format, f"{j}[{{}}][{{}}]".format)


def render(t: Term) -> str:
    """Render a term in the surface grammar with minimal parentheses."""
    # (text, precedence) pairs: join=1, meet=2, unary/atom=3
    def wrap(part, ctx):
        text, prec = part
        return f"({text})" if prec < ctx else text

    return fold(
        t, lambda name: (name, 3), ("T", 3), ("F", 3),
        lambda a: ("~" + wrap(a, 3), 3),
        lambda a: ("!" + wrap(a, 3), 3),
        lambda a, b: (f"{wrap(a, 2)} & {wrap(b, 3)}", 2),
        lambda a, b: (f"{wrap(a, 1)} | {wrap(b, 2)}", 1),
    )[0]


@dataclass(frozen=True)
class Equation:
    """Named identity lhs = rhs over the term signature."""

    id: str
    lhs: Term
    rhs: Term

    # The dataclass hash, computed once: suite caches look equations up by it.
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.id, self.lhs, self.rhs)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # rebuilt through __init__, which recomputes the hash
        return Equation, (self.id, self.lhs, self.rhs)

    def variables(self) -> tuple[str, ...]:
        return _union(variables(self.lhs), variables(self.rhs))

    def __str__(self):
        return f"{self.id}: {render(self.lhs)} = {render(self.rhs)}"


@dataclass(frozen=True)
class AxiomSuite:
    """Ordered, named list of equations."""

    id: str
    equations: tuple[Equation, ...]

    # The dataclass hash, computed once: algebras cache reports by suite.
    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.id, self.equations)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # rebuilt through __init__, which recomputes the hash
        return AxiomSuite, (self.id, self.equations)

    def __len__(self):
        return len(self.equations)

    def axiom_ids(self) -> tuple[str, ...]:
        return tuple(eq.id for eq in self.equations)

    def equation(self, axiom_id: str) -> Equation:
        for eq in self.equations:
            if eq.id == axiom_id:
                return eq
        raise KeyError(axiom_id)


# Optional blanks, then a word, a symbol, a comment to the end of the line or
# any other character, which starts no token.
_SCAN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(=>|[&|~!(),;])|(#)|(\S))")


class Token(NamedTuple):
    kind: str  # "ident", "T", "F", "vee", "wedge", or the literal symbol
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    toks = []
    push = toks.append
    new = tuple.__new__  # builds a Token without a Python-level call
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _SCAN.finditer(line):
            word, symbol, comment, other = m.groups()
            if symbol:
                push(new(Token, (symbol, symbol, lineno, m.start(2) + 1)))
            elif word:
                kind = word if word in ("T", "F", "vee", "wedge") else "ident"
                push(new(Token, (kind, word, lineno, m.start(1) + 1)))
            elif comment:
                break
            else:
                raise ParseError(f"unknown token {other!r}", lineno, m.start(4) + 1)
    return toks


# Ends every token list; its kind is no token's, so no rule accepts it.
_END = Token("", "", 0, 0)


class TermParser:
    """Recursive-descent parser over a token list.

    ``sorted_vars=True`` gives variables a sort from their first character
    (lowercase: object, uppercase: property); otherwise all variables are
    generic.  The logic module reuses this parser for sequent syntax via
    peek/expect.  Input nesting deeper than ``MAX_DEPTH`` is a ParseError.
    """

    def __init__(self, text: str, sorted_vars: bool = False):
        self.tokens = tokenize(text)
        self.tokens.append(_END)
        self.pos = 0
        self.sorted_vars = sorted_vars
        self.level = 0  # open ~, !, parentheses and macro calls

    def peek(self) -> Token | None:
        tok = self.tokens[self.pos]
        return None if tok is _END else tok

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            if tok is _END:
                raise ParseError(f"expected {kind!r} but input ended")
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.column)
        self.pos += 1
        return tok

    def at_end(self) -> bool:
        return self.tokens[self.pos] is _END

    def _open(self, tok: Token) -> None:
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels",
                             tok.line, tok.column)

    def parse_formula(self) -> Term:
        start = self.tokens[self.pos]
        t = self._parse_meet()
        while self.tokens[self.pos].kind == "|":
            self.pos += 1
            t = Join(t, self._parse_meet())
        if t.depth > MAX_DEPTH:
            raise ParseError(f"formula is deeper than {MAX_DEPTH} operators",
                             start.line, start.column)
        return t

    def _parse_meet(self) -> Term:
        t = self._parse_unary()
        while self.tokens[self.pos].kind == "&":
            self.pos += 1
            t = Meet(t, self._parse_unary())
        return t

    def _parse_unary(self) -> Term:
        tok = self.tokens[self.pos]
        if tok.kind in ("~", "!"):
            self.pos += 1
            self._open(tok)
            arg = self._parse_unary()
            self.level -= 1
            return Neg(arg) if tok.kind == "~" else Opp(arg)
        return self._parse_atom()

    def _parse_atom(self) -> Term:
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok.kind == "T":
            return TOP
        if tok.kind == "F":
            return BOT
        if tok.kind in ("vee", "wedge"):
            self._open(tok)
            self.expect("(")
            a = self.parse_formula()
            self.expect(",")
            b = self.parse_formula()
            self.expect(")")
            self.level -= 1
            return vee(a, b) if tok.kind == "vee" else wedge(a, b)
        if tok.kind == "(":
            self._open(tok)
            t = self.parse_formula()
            self.expect(")")
            self.level -= 1
            return t
        if tok.kind == "ident":
            if self.sorted_vars:
                sort = OBJECT if tok.text[0].islower() or tok.text[0] == "_" else PROPERTY
            else:
                sort = GENERIC
            return Var(tok.text, sort)
        if tok is _END:
            raise ParseError("unexpected end of input")
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.column)


def parse_term(text: str, sorted_vars: bool = False) -> Term:
    """Parse a single formula; raises ParseError on trailing input."""
    p = TermParser(text, sorted_vars=sorted_vars)
    t = p.parse_formula()
    if not p.at_end():
        tok = p.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return t


def eq(ident: str, lhs: str, rhs: str) -> Equation:
    """Build an Equation from surface syntax (used for the axiom tables)."""
    return Equation(ident, parse_term(lhs), parse_term(rhs))
