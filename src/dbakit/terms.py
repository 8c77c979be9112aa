"""Term syntax over the signature (meet, join, two negations, top, bottom).

Terms are hash-consed (Filliatre & Conchon, "Type-safe modular hash-consing",
ML Workshop 2006): a constructor returns the one live node for its term, held
in a weak table, so unreferenced terms are freed.  Two terms are equal
exactly when they are the same node, so equality and hashing are by identity
and never recurse.  Every node caches its depth and its sorted variables (and
its walk, on first request), so none of these re-walks the term.  No node
refers to itself, so a term is freed as soon as its last reference goes, not
at the next run of the cyclic collector.  Nodes are immutable; pickle and
copy return the interned node.

Every traversal of a term is one bottom-up ``fold``: an iterative run that
visits each distinct subterm once, in a post-order cached on the node as a
program of steps that name their children by position, so no cached entry
refers to the node itself.
``render``, ``source`` (the term as a Python expression over the operation
tables), ``dual``, substitution and ``algebra.eval_term`` (a fold over the
tuple tables) are folds; the numpy equation checker walks the distinct
subterms of a whole batch of equations in ``postorder``, so a subterm shared
by several equations is evaluated once.  No term carries compiled code.
Two compiled checks read terms as Python code over the tables.  The model
search compiles ``source`` of both sides of an equation into one check.  The
first-witness kernel in ``algebra`` compiles the checks over one variable
tuple (the scalar equation checker's equations, or the hypersequent
refuter's components) into one loop nest over the assignments, one subterm
at a time: each in the loop of its last variable, so a subterm is not
recomputed in loops that do not change it.  Each nest is compiled once.

ASCII surface grammar (precedence: unary > ``&`` > ``|``, both binary ops
left-associative)::

    formula := disjunct ('|' disjunct)*
    disjunct := factor ('&' factor)*
    factor := '~' factor | '!' factor | atom
    atom := 'T' | 'F' | identifier | '(' formula ')'
          | 'vee' '(' formula ',' formula ')'
          | 'wedge' '(' formula ',' formula ')'

``vee``/``wedge`` are macros for the derived connectives and are expanded at
parse time, so parsed terms never contain them as nodes.

Nesting is limited to ``MAX_DEPTH`` levels.  The parser opens a level at each
``~``, ``!``, opening parenthesis and macro call, and a parsed term may be at
most ``MAX_DEPTH`` operators deep; deeper input is a ParseError.
The equation checkers, the refuter and the model search reject deeper terms
built in code with an EvalError, since compiled expressions nest one bracket
per level; ``eval_term`` keeps the same limit, so every evaluation path
accepts the same terms.
"""

from __future__ import annotations

import re
import threading
import weakref
from dataclasses import FrozenInstanceError, dataclass

from .errors import ParseError

GENERIC = "generic"
OBJECT = "object"
PROPERTY = "property"

# Compiled expressions nest one bracket per level and CPython's tokenizer
# stops at 200.
MAX_DEPTH = 100

# (class, *fields) -> the live node; children are interned, so the key's
# hash and equality never recurse.  Lookups take no lock; creating a node
# does, so two threads cannot intern two copies of one term.
_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_CREATE = threading.Lock()

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


def _intern(cls, values, derive):
    """The live node cls(*values); on a miss, derive(*values) gives its
    depth, (name, sort) pairs and names."""
    key = (cls, *values)
    node = _TABLE.get(key)
    if node is None:
        with _CREATE:
            node = _TABLE.get(key)
            if node is None:
                node = object.__new__(cls)
                derived = derive(*values) + (None, None)  # filled on request
                for field, value in zip(cls.__match_args__ + _DERIVED, values + derived):
                    object.__setattr__(node, field, value)
                _TABLE[key] = node
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
    return (max(left.depth, right.depth) + 1,
            _union(left._vars, right._vars), _union(left._names, right._names))


class Var(Term):
    __slots__ = __match_args__ = ("name", "sort")

    def __new__(cls, name: str, sort: str = GENERIC):
        return _intern(cls, (name, sort), _var)


class Const(Term):
    __slots__ = __match_args__ = ("which",)  # "top" | "bot"

    def __new__(cls, which: str):
        return _intern(cls, (which,), _const)


class Neg(Term):
    __slots__ = __match_args__ = ("arg",)

    def __new__(cls, arg: Term):
        return _intern(cls, (arg,), _unary)


class Opp(Term):
    __slots__ = __match_args__ = ("arg",)

    def __new__(cls, arg: Term):
        return _intern(cls, (arg,), _unary)


class Meet(Term):
    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        return _intern(cls, (left, right), _binary)


class Join(Term):
    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        return _intern(cls, (left, right), _binary)


TOP = Const("top")
BOT = Const("bot")


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
    """t as a Python expression over the tables ``M``, ``J`` (rows indexed
    ``M[a][b]``), ``G``, ``O`` and the constants ``TP``, ``BT``; ``var(name)``
    gives the expression for a variable."""
    return fold(t, var, "TP", "BT", "G[{}]".format, "O[{}]".format,
                "M[{}][{}]".format, "J[{}][{}]".format)


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


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|=>|[&|~!(),;]|\S")

_KEYWORDS = {"vee", "wedge"}


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "T", "F", "vee", "wedge", or the literal symbol
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    toks = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            if line[pos] == "#":
                break
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise ParseError(f"unknown token {line[pos]!r}", lineno, pos + 1)
            text_tok = m.group(0)
            if text_tok in ("T", "F") or text_tok in _KEYWORDS:
                kind = text_tok
            elif text_tok[0].isalpha() or text_tok[0] == "_":
                kind = "ident"
            elif text_tok in ("&", "|", "~", "!", "(", ")", ",", ";", "=>"):
                kind = text_tok
            else:
                raise ParseError(f"unknown token {text_tok!r}", lineno, pos + 1)
            toks.append(Token(kind, text_tok, lineno, pos + 1))
            pos = m.end()
    return toks


class TermParser:
    """Recursive-descent parser over a token list.

    ``sorted_vars=True`` gives variables a sort from their first character
    (lowercase: object, uppercase: property); otherwise all variables are
    generic.  The logic module reuses this parser for sequent syntax via
    peek/expect.  Input nesting deeper than ``MAX_DEPTH`` is a ParseError.
    """

    def __init__(self, text: str, sorted_vars: bool = False):
        self.tokens = tokenize(text)
        self.pos = 0
        self.sorted_vars = sorted_vars
        self.level = 0  # open ~, !, parentheses and macro calls

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {kind!r} but input ended")
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.column)
        return self.next()

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def _open(self, tok: Token) -> None:
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels",
                             tok.line, tok.column)

    def parse_formula(self) -> Term:
        start = self.peek()
        t = self._parse_meet()
        while (tok := self.peek()) is not None and tok.kind == "|":
            self.next()
            t = Join(t, self._parse_meet())
        if t.depth > MAX_DEPTH:
            raise ParseError(f"formula is deeper than {MAX_DEPTH} operators",
                             start.line, start.column)
        return t

    def _parse_meet(self) -> Term:
        t = self._parse_unary()
        while (tok := self.peek()) is not None and tok.kind == "&":
            self.next()
            t = Meet(t, self._parse_unary())
        return t

    def _parse_unary(self) -> Term:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok.kind in ("~", "!"):
            self.next()
            self._open(tok)
            arg = self._parse_unary()
            self.level -= 1
            return Neg(arg) if tok.kind == "~" else Opp(arg)
        return self._parse_atom()

    def _parse_atom(self) -> Term:
        tok = self.next()
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
