"""Sequent calculus (system L) and hypersequent calculus (system HL).

L derives sequents ``formula => formula`` and is sound for the contextual
algebras; HL derives hypersequents (``;``-separated sequents, at least one)
and is sound for the pure algebras, reading a hypersequent disjunctively:
true under an assignment when at least one component is.

A Sequent is a named (ant, suc) pair and a Hypersequent a tuple of them, so
the checker, the refuter and the search read the public objects as they
are, and compare and hash them with the plain tuples the search builds.
Every axiom instance is recognised by one compiled test per schema.  Proof
scripts are line-checked: every line must be an axiom instance or
follow from earlier lines by a named rule, with hypersequent contexts
matched as literal prefixes/suffixes (structural steps must be cited
explicitly, there is no silent normalization).  Proof search runs backward
with iterative deepening and admits cut only through a pool of candidate
cut formulas (axiom instances over the goal's subformulas plus caller
lemmas, enumerated as structural keys), so it always terminates; like every
evaluator, it rejects a term deeper than ``MAX_DEPTH``.
"""

from __future__ import annotations

import functools
import math
import re
import weakref
from dataclasses import dataclass
from itertools import accumulate, chain, count, islice, product, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import algebra
from .algebra import (
    FiniteAlgebra, _class_flags, _integer, eval_term, join_idempotents, meet_idempotents,
    quasi_order,
)
from .errors import EvalError, LogicError, ParseError
from .fixtures import PROOF_SCRIPTS
from .terms import (
    BOT, GENERIC, MAX_DEPTH, OBJECT, PROPERTY, TOP,
    Const, Join, Meet, Neg, Opp, Term, TermParser, Var, fold, postorder, render, subterms,
    var_sorts, variables, vee, wedge,
)

# --- syntax -----------------------------------------------------------------


class Sequent(NamedTuple):
    """``ant => suc``, equal to the pair (ant, suc) and hashed alike."""

    ant: Term
    suc: Term

    def __str__(self):
        return f"{render(self.ant)} => {render(self.suc)}"


class Hypersequent(tuple):
    """A tuple of at least one Sequent, built from Sequents or (ant, suc)
    pairs; equal to the tuple of its pairs and hashed alike."""

    __slots__ = ()

    def __new__(cls, components):
        h = super().__new__(cls, map(Sequent._make, components))
        if not h:
            raise LogicError("a hypersequent needs at least one component")
        return h

    @property
    def components(self) -> tuple[Sequent, ...]:
        return tuple(self)

    def __repr__(self):
        return f"Hypersequent(components={tuple(self)!r})"

    def __str__(self):
        return " ; ".join(map(str, self))


def seq(ant: Term, suc: Term) -> Hypersequent:
    return Hypersequent((Sequent(ant, suc),))


def _system(system: str) -> str:
    """system, when it is "L" or "HL"; LogicError otherwise."""
    if system not in ("L", "HL"):
        raise LogicError(f"unknown system {system!r}")
    return system


def _components(text: str, system: str, most: int | None = None) -> tuple[Sequent, ...]:
    """The ``;``-separated sequents of text; past ``most``, a ParseError."""
    p = TermParser(text, sorted_vars=(_system(system) == "HL"))
    comps = []
    while True:
        ant = p.parse_formula()
        p.expect("=>")
        suc = p.parse_formula()
        comps.append(Sequent(ant, suc))
        if p.at_end():
            return tuple(comps)
        if len(comps) == most:
            tok = p.peek()
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
        p.expect(";")


def parse_sequent(text: str, system: str = "L") -> Sequent:
    return _components(text, system, 1)[0]


def parse_hypersequent(text: str, system: str = "L") -> Hypersequent:
    return Hypersequent(_components(text, system))


# --- axiom schemas ----------------------------------------------------------

_A, _B, _C = Var("A*"), Var("B*"), Var("C*")


@dataclass(frozen=True)
class AxiomSchema:
    id: str
    lhs: Term
    rhs: Term
    hl_only: bool = False
    var_sort: str | None = None  # metavariables may only bind variables of this sort


AXIOM_SCHEMAS: tuple[AxiomSchema, ...] = (
    AxiomSchema("id", _A, _A),
    AxiomSchema("meet-elim-l", Meet(_A, _B), _A),
    AxiomSchema("meet-elim-r", Meet(_A, _B), _B),
    AxiomSchema("join-intro-l", _A, Join(_A, _B)),
    AxiomSchema("join-intro-r", _B, Join(_A, _B)),
    AxiomSchema("neg-collapse", Neg(Meet(_A, _A)), Neg(_A)),
    AxiomSchema("opp-expand", Opp(_A), Opp(Join(_A, _A))),
    AxiomSchema("meet-contra", Meet(_A, Neg(_A)), BOT),
    AxiomSchema("meet-contra-conv", BOT, Meet(_A, Neg(_A))),
    AxiomSchema("join-excl", TOP, Join(_A, Opp(_A))),
    AxiomSchema("join-excl-conv", Join(_A, Opp(_A)), TOP),
    AxiomSchema("dneg-meet", Neg(Neg(Meet(_A, _B))), Meet(_A, _B)),
    AxiomSchema("dneg-meet-intro", Meet(_A, _B), Neg(Neg(Meet(_A, _B)))),
    AxiomSchema("dopp-join", Opp(Opp(Join(_A, _B))), Join(_A, _B)),
    AxiomSchema("dopp-join-intro", Join(_A, _B), Opp(Opp(Join(_A, _B)))),
    AxiomSchema("meet-absorb", Meet(_A, _A), Meet(_A, Join(_A, _B))),
    AxiomSchema("join-absorb", Join(_A, Meet(_A, _B)), Join(_A, _A)),
    AxiomSchema("meet-dist", Meet(_A, vee(_B, _C)), vee(Meet(_A, _B), Meet(_A, _C))),
    AxiomSchema("meet-dist-conv", vee(Meet(_A, _B), Meet(_A, _C)), Meet(_A, vee(_B, _C))),
    AxiomSchema("join-dist", Join(_A, wedge(_B, _C)), wedge(Join(_A, _B), Join(_A, _C))),
    AxiomSchema("join-dist-conv", wedge(Join(_A, _B), Join(_A, _C)), Join(_A, wedge(_B, _C))),
    AxiomSchema("square-swap", Meet(Join(_A, _A), Join(_A, _A)), Join(Meet(_A, _A), Meet(_A, _A))),
    AxiomSchema("square-swap-conv", Join(Meet(_A, _A), Meet(_A, _A)), Meet(Join(_A, _A), Join(_A, _A))),
    # HL-only: idempotence for sorted variables
    AxiomSchema("ovar-idem", Meet(_A, _A), _A, hl_only=True, var_sort=OBJECT),
    AxiomSchema("ovar-idem-conv", _A, Meet(_A, _A), hl_only=True, var_sort=OBJECT),
    AxiomSchema("pvar-idem", Join(_A, _A), _A, hl_only=True, var_sort=PROPERTY),
    AxiomSchema("pvar-idem-conv", _A, Join(_A, _A), hl_only=True, var_sort=PROPERTY),
)

SCHEMAS_BY_ID = {s.id: s for s in AXIOM_SCHEMAS}


@functools.cache
def _axiom_test(schema: AxiomSchema):
    """Whether a => s is an instance of schema (every Var of its sides is a
    metavariable), compiled to one test f(a, s): left to right, ``type(..)
    is`` for a connective, ``is`` for a constant or a repeated metavariable
    (terms are interned), and the sort test, if any, at a metavariable's
    first occurrence."""
    conds, first = [], {}
    stack = [(schema.rhs, "s"), (schema.lhs, "a")]
    while stack:
        p, at = stack.pop()
        if type(p) is Var and p.name in first:
            conds.append(f"{at} is {first[p.name]}")
        elif type(p) is Var:
            first[p.name] = at
            if schema.var_sort is not None:
                conds.append(f"type({at}) is Var and {at}.sort == {schema.var_sort!r}")
        elif type(p) is Const:
            conds.append(f"{at} is {p.which.upper()}")
        else:
            conds.append(f"type({at}) is {type(p).__name__}")
            stack += [(getattr(p, f), f"{at}.{f}") for f in reversed(p.__match_args__)]
    test = " and ".join(conds) or "True"  # True for two distinct metavariables
    return eval(f"lambda a, s: {test}", globals())  # closed vocabulary


def schema_matches(schema: AxiomSchema, s: Sequent) -> bool:
    return _axiom_test(schema)(*s)


@functools.cache
def _leaf_tests(ant_kind: type, suc_kind: type, hl: bool) -> tuple:
    """(id, test) for the schemas of L (or HL), in order, whose sides can
    match terms of these connectives: a side's connective must be the
    term's, unless the side is a metavariable."""
    return tuple((s.id, _axiom_test(s)) for s in AXIOM_SCHEMAS
                 if (hl or not s.hl_only)
                 and type(s.lhs) in (Var, ant_kind) and type(s.rhs) in (Var, suc_kind))


def axiom_match(s: Sequent, system: str = "L") -> list[str]:
    """Ids of every axiom schema of the system with an instantiation equal
    to s.  Raises LogicError for an unknown system."""
    hl = _system(system) == "HL"
    ant, suc = s
    return [sid for sid, test in _leaf_tests(type(ant), type(suc), hl) if test(ant, suc)]


# --- proof scripts and checking ---------------------------------------------

RULE_NAMES = ("id-axiom", "axiom", "cut", "meetR", "meetL", "joinR", "joinL",
              "neg", "opp", "sq", "sp", "ec", "ee", "ew")

_L_ONLY_FORBIDDEN = ("sp", "ec", "ee", "ew")
_L_SINGLE = "system L lines must be single sequents"


@dataclass(frozen=True)
class ProofLine:
    index: int
    hyp: Hypersequent
    rule: str
    premises: tuple[int, ...] = ()
    schema: str | None = None


@dataclass(frozen=True)
class ProofScript:
    system: str  # "L" | "HL"
    lines: tuple[ProofLine, ...]

    def conclusion(self) -> Hypersequent:
        return self.lines[-1].hyp


@dataclass(frozen=True)
class CheckReport:
    valid: bool
    line: int | None = None
    reason: str | None = None

    def __str__(self):
        if self.valid:
            return "valid"
        return f"invalid at line {self.line}: {self.reason}"


# The unary rules, by connective, in the order the search tries them:
# (rule, varied argument, shared argument, reversed).  A rule concludes
# K(.. x ..) => K(.. y ..) from x => y, or from y => x when reversed, with x
# and y at the varied argument and the shared argument (if any) equal on both
# sides.
_UNARY_RULES = {
    Meet: (("meetR", "left", "right", False), ("meetL", "right", "left", False)),
    Join: (("joinR", "left", "right", False), ("joinL", "right", "left", False)),
    Neg: (("neg", "arg", None, True),),
    Opp: (("opp", "arg", None, True),),
}


def _unary_premises(ant: Term, suc: Term):
    """(rule, premise ant, premise suc) for every unary rule with conclusion
    ant => suc, in the order the search tries them."""
    kind = type(ant)
    if type(suc) is not kind:
        return ()
    out = []
    for rule, varied, shared, reverse in _UNARY_RULES.get(kind, ()):
        if shared is None or getattr(ant, shared) == getattr(suc, shared):
            x, y = getattr(ant, varied), getattr(suc, varied)
            out.append((rule, y, x) if reverse else (rule, x, y))
    return out


def _splice(h: tuple, k: int, s) -> tuple:
    """The components h with component k replaced by s."""
    return h[:k] + (s,) + h[k + 1:]


def _structural_premises(h: tuple):
    """(rule, premise) for the HL structural rules with conclusion h, both
    tuples of components: drop the last component (ew), or swap two adjacent
    ones (ee)."""
    if len(h) < 2:
        return
    yield "ew", h[:-1]
    for k in range(len(h) - 1):
        yield "ee", h[:k] + (h[k + 1], h[k]) + h[k + 2:]


def _sq_pairs(phi: Term, psi: Term):
    """The premises of sq with conclusion phi => psi, as (ant, suc) pairs,
    built one at a time."""
    m, mm = Meet(phi, psi), Meet(phi, phi)
    yield from ((m, mm), (mm, m))
    j, jj = Join(phi, psi), Join(psi, psi)
    yield from ((j, jj), (jj, j))


def _derives(prems, concl: tuple, local) -> bool:
    """Whether concl is every premise's prefix, then one component c, then
    every premise's suffix, for some choice of one active component per
    premise with ``local(actives, c)``: the hypersequent context rule shared
    by every rule but sp, ec, ee and ew.  With no premise, concl is c alone."""
    if len(concl) != 1 + sum(len(p) - 1 for p in prems):
        return False
    for ks in product(*(range(len(p)) for p in prems)):
        c = concl[sum(ks)]
        if (local(tuple(p[k] for p, k in zip(prems, ks)), c)
                and concl == sum((p[:k] for p, k in zip(prems, ks)), ())
                + (c,) + sum((p[k + 1:] for p, k in zip(prems, ks)), ())):
            return True
    return False


# Rule -> (number of premises, condition on the active premise components and
# the active conclusion component c, all pairs); the context is _derives's.
_CONTEXT_RULES = {
    "id-axiom": (0, lambda ps, c: c[0] == c[1]),
    "cut": (2, lambda ps, c: ps[0][1] == ps[1][0] and c == (ps[0][0], ps[1][1])),
    "sq": (4, lambda ps, c: ps == tuple(_sq_pairs(*c))),
    **{rule: (1, lambda ps, c, rule=rule: (rule, *ps[0]) in _unary_premises(*c))
       for rules in _UNARY_RULES.values() for rule, *_ in rules},
}


def _check_sp(h: tuple) -> bool:
    """Whether the (ant, suc) pairs h are phi => phi & phi ; phi | phi => phi."""
    if len(h) != 2:
        return False
    (phi, m), (j, psi) = h
    return (psi is phi and type(m) is Meet and m.left is phi and m.right is phi
            and type(j) is Join and j.left is phi and j.right is phi)


def check_proof(script: ProofScript) -> CheckReport:
    """Validate every line; reports the first failure."""
    if script.system not in ("L", "HL"):
        return CheckReport(False, None, f"unknown system {script.system!r}")
    by_index: dict[int, tuple] = {}
    for line in script.lines:
        idx = line.index
        if idx in by_index:
            return CheckReport(False, idx, "duplicate line index")
        if any(p >= idx for p in line.premises):
            return CheckReport(False, idx, "premise indices must precede the line")
        try:
            prems = [by_index[p] for p in line.premises]
        except KeyError as exc:
            return CheckReport(False, idx, f"unknown premise index {exc.args[0]}")
        h = line.hyp
        if script.system == "L":
            if len(h) != 1 or any(len(p) != 1 for p in prems):
                return CheckReport(False, idx, _L_SINGLE)
            if line.rule in _L_ONLY_FORBIDDEN:
                return CheckReport(False, idx, f"rule {line.rule} is not part of system L")
        ok = False
        reason = f"rule {line.rule} does not derive the line from its premises"
        if line.rule in _CONTEXT_RULES:
            arity, local = _CONTEXT_RULES[line.rule]
            ok = len(prems) == arity and _derives(prems, h, local)
        elif line.rule == "axiom":
            if line.schema is None:
                reason = "axiom rule needs a schema id"
            elif line.schema not in SCHEMAS_BY_ID:
                reason = f"unknown axiom schema {line.schema!r}"
            else:
                schema = SCHEMAS_BY_ID[line.schema]
                if schema.hl_only and script.system != "HL":
                    reason = f"schema {line.schema} is only available in HL"
                else:
                    ok = not prems and len(h) == 1 and _axiom_test(schema)(*h[0])
        elif line.rule == "sp":
            ok = len(prems) == 0 and _check_sp(h)
        elif line.rule == "ec":
            ok = len(prems) == 1 and any(
                prems[0][k] == prems[0][k + 1] and h == prems[0][:k] + prems[0][k + 1:]
                for k in range(len(prems[0]) - 1))
        elif line.rule in ("ee", "ew"):
            ok = len(prems) == 1 and (line.rule, prems[0]) in _structural_premises(h)
        else:
            reason = f"unknown rule {line.rule!r}"
        if not ok:
            return CheckReport(False, idx, reason)
        by_index[idx] = h
    return CheckReport(True)


# --- script text format ------------------------------------------------------

def render_script(script: ProofScript) -> str:
    out = [f"system: {script.system}"]
    for line in script.lines:
        rule = line.rule if line.schema is None else f"axiom({line.schema})"
        just = " ".join([rule] + [str(p) for p in line.premises])
        out.append(f"{line.index}: {line.hyp}  {just}")
    return "\n".join(out) + "\n"


def parse_script(text: str) -> ProofScript:
    system = None
    proof_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        if system is None:
            m = re.match(r"\s*system\s*:\s*(L|HL)\s*$", stripped)
            if not m:
                raise ParseError("first line must be 'system: L' or 'system: HL'", lineno, 1)
            system = m.group(1)
            continue
        m = re.match(r"\s*(\d+)\s*:\s*(.*)$", stripped)
        if not m:
            raise ParseError("expected '<index>: <hypersequent>  <justification>'", lineno, 1)
        try:
            idx = int(m.group(1))
        except ValueError:  # past the interpreter's limit on integer digits
            raise ParseError(f"line index has {len(m.group(1))} digits", lineno, 1) from None
        rest = m.group(2)
        parts = re.split(r"\s{2,}", rest.strip(), maxsplit=1)
        if len(parts) != 2:
            raise ParseError(
                "justification must be separated from the hypersequent by two or more spaces",
                lineno, 1)
        hyp_text, just = parts
        hyp = parse_hypersequent(hyp_text, system)
        toks = just.split()
        rule_tok = toks[0]
        schema = None
        am = re.match(r"axiom\(([^)]+)\)$", rule_tok)
        if am:
            rule = "axiom"
            schema = am.group(1)
        else:
            rule = rule_tok
        if rule not in RULE_NAMES:
            raise ParseError(f"unknown rule {rule_tok!r}", lineno, 1)
        try:
            premises = tuple(int(t) for t in toks[1:])
        except ValueError:
            raise ParseError(f"premise indices must be integers: {just!r}", lineno, 1) from None
        proof_lines.append(ProofLine(idx, hyp, rule, premises, schema))
    if system is None or not proof_lines:
        raise ParseError("empty proof script")
    return ProofScript(system, tuple(proof_lines))


# --- semantics ---------------------------------------------------------------

def eval_sequent(alg: FiniteAlgebra, s: Sequent, env) -> bool:
    """Satisfaction: value of the antecedent lies below the succedent; env
    as in ``eval_term``."""
    rel = quasi_order(alg).rel
    return bool(rel[eval_term(alg, s.ant, env), eval_term(alg, s.suc, env)])


def _algebra_admits(alg: FiniteAlgebra, system: str) -> tuple[bool, str]:
    flags = _class_flags(alg)
    if not flags.is_dba:
        return False, "algebra does not satisfy DBA23"
    if system == "L" and not flags.is_contextual:
        return False, "system L needs a contextual algebra"
    if system == "HL" and not flags.is_pure:
        return False, "system HL needs a pure algebra"
    return True, ""


def _var_sorts(h: Hypersequent) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The variables of h in sorted name order, and the sort of each.
    Raises LogicError when a variable is used with two sorts."""
    sorts: dict[str, str] = {}
    for side in chain.from_iterable(h):
        for name, sort in var_sorts(side):
            if sorts.setdefault(name, sort) != sort:
                raise LogicError(f"variable {name!r} used with two sorts")
    names = tuple(sorted(sorts))
    return names, tuple(sorts[name] for name in names)


def _var_range(alg: FiniteAlgebra, kind: str, system: str):
    """The value range of a variable of sort ``kind``.

    HL object variables range over the meet idempotents and property variables
    over the join idempotents; everything else over the whole universe.
    """
    if system == "HL" and kind == OBJECT:
        return sorted(meet_idempotents(alg))
    if system == "HL" and kind == PROPERTY:
        return sorted(join_idempotents(alg))
    return range(alg.n)


# --- the refuter ---------------------------------------------------------------
# A goal is refuted over a block of models at once: the block's tables are
# stacked (``_stack``), every value is an array with a leading model axis and
# one axis per variable, and each side of each component is one ``fold``
# with numpy callbacks.  The first failing cell in C order is the first
# model and, within it, the lexicographically first assignment.

_BLOCK = 64  # models read, admitted and stacked at a time
_STACKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # see _stack


class _Stack(NamedTuple):
    """The tables of a block of m models, stacked.

    Element x of model t has the block-wide id ``offset[t] + x``.  The maps
    ``G`` and ``O`` take ids to ids.  The n x n tables of all models lie in
    one flat array each, ``M`` and ``J`` of ids and ``Q`` (the quasi-order)
    of bools; ``row[id]`` is where the id's row starts, less the id of its
    model's element 0, so ``x & y`` is ``M[row[x] + y]`` for ids x and y.
    ``top`` and ``bot`` hold each model's ids.  ``ranges`` maps each sort
    of the system to a (m, L) array of the ids that a variable of the sort
    takes in each model, padded to the widest model with the first id of
    the model's own range (none is empty: in a dBa F is a meet and T a join
    idempotent).  A padded cell repeats the cell at 0 on each padded axis,
    which comes earlier in C order, so the first failing cell is never one.
    """

    M: np.ndarray
    J: np.ndarray
    G: np.ndarray
    O: np.ndarray
    Q: np.ndarray
    row: np.ndarray
    top: np.ndarray
    bot: np.ndarray
    offset: np.ndarray
    ranges: dict


def _stack(algs: list, system: str) -> _Stack:
    """The stack of algs, all admitted by the system, built once while they
    live: kept under the first, keyed by weak references to the others (a
    dead one equals only itself) and the system, so no algebra is kept
    alive.  An entry goes with the first, or once another died, at the next
    entry kept under the first.  Each dict operation is atomic: no lock."""
    key = (tuple(map(weakref.ref, algs[1:])), system)
    stack = _STACKS.get(algs[0], {}).get(key)
    if stack is not None:
        return stack
    sizes = [a.n for a in algs]
    offset = np.array([0, *accumulate(sizes[:-1])], np.intp)
    starts = accumulate([0] + [n * n for n in sizes])  # of each model's n x n tables
    dt = np.min_scalar_type(sum(sizes) - 1)

    def ids(tables):
        return np.concatenate([t.reshape(-1) + u for t, u in zip(tables, offset)],
                              dtype=dt, casting="unsafe")

    ranges = {}  # sort -> ids; in L every variable is GENERIC
    for kind in (GENERIC, OBJECT, PROPERTY) if system == "HL" else (GENERIC,):
        rows = [_var_range(a, kind, system) for a in algs]
        width = max(map(len, rows))
        ranges[kind] = (np.array([[*r, *[r[0]] * (width - len(r))] for r in rows])
                        + offset[:, None]).astype(dt)
    top, bot = (np.array([[a.top, a.bot] for a in algs]) + offset[:, None]).T.astype(dt)
    stack = _Stack(
        M=ids([a.meet for a in algs]), J=ids([a.join for a in algs]),
        G=ids([a.neg for a in algs]), O=ids([a.opp for a in algs]),
        Q=np.concatenate([quasi_order(a).rel.reshape(-1) for a in algs]),
        row=np.concatenate([np.arange(n, dtype=np.intp) * n + (start - u)
                            for n, u, start in zip(sizes, offset, starts)]),
        top=top, bot=bot, offset=offset, ranges=ranges)
    kept = _STACKS.setdefault(algs[0], {})
    for dead in [k for k in list(kept) if any(r() is None for r in k[0])]:
        kept.pop(dead, None)
    return kept.setdefault(key, stack)


def _runs(shape):
    """The cells of an array of ``shape`` (models, then one axis per
    variable) in runs of consecutive ones, each as one slice per axis, in C
    order.  A run fixes a prefix of the axes, cuts the next one, and takes
    the rest whole, so that it has at most ``algebra._VECTOR_CHUNK_CELLS``
    cells, whatever the number of axes."""
    cells = algebra._VECTOR_CHUNK_CELLS
    d = 0
    while math.prod(shape[d + 1:]) > cells:
        d += 1
    step = max(1, cells // math.prod(shape[d + 1:]))
    rest = (slice(None),) * (len(shape) - d - 1)
    for prefix in product(*map(range, shape[:d])):
        fixed = tuple(slice(p, p + 1) for p in prefix)
        for lo in range(0, shape[d], step):
            yield fixed + (slice(lo, lo + step),) + rest


def _first_failure(stack: _Stack, pairs, names, kinds):
    """(t, env) for the first model t of the stack and, within it, the first
    assignment env of the variables ``names``, of the sorts ``kinds``, under
    which no pair (ant, suc) of ``pairs`` holds in the quasi-order, or None."""
    k = len(names)
    values = [stack.ranges[kind] for kind in kinds]
    shape = (len(stack.offset), *(v.shape[1] for v in values))
    row = stack.row

    def lookup(table):  # ids x, y -> table[row[x] + y], an index in intp as row is
        return lambda x, y: table.take(row.take(x) + y)

    meet, join, order = lookup(stack.M), lookup(stack.J), lookup(stack.Q)
    for run in _runs(shape):
        models = run[0]

        def along(i, table):  # a (m, L) array, cut to the run, on axis i + 1
            cut = table[models, run[i + 1]]
            return cut.reshape(cut.shape[:1] + (1,) * i + cut.shape[1:] + (1,) * (k - 1 - i))

        env = {name: along(i, v) for i, (name, v) in enumerate(zip(names, values))}
        top, bot = (a[models].reshape((-1,) + (1,) * k) for a in (stack.top, stack.bot))
        holds = False
        for ant, suc in pairs:
            holds = holds | order(*(fold(t, env.__getitem__, top, bot, stack.G.take,
                                         stack.O.take, meet, join) for t in (ant, suc)))
        fails = ~holds
        # an axis that fails lacks is constant: its first failing cell is at 0
        flat = fails.reshape(-1)
        first = int(flat.argmax())
        if flat[first]:
            at = [int(p) + (cut.start or 0)
                  for p, cut in zip(np.unravel_index(first, fails.shape), run)]
            t = at[0]
            return t, {name: int(v[t, p]) - int(stack.offset[t])
                       for name, v, p in zip(names, values, at[1:])}
    return None


def _refuter(h: Hypersequent, system: str):
    """The search of h over a list of algebras known to be in the system's
    class, as a function that returns ``_first_failure``'s (t, env) or None;
    what depends only on h is collected once, here.  Raises LogicError when
    a variable is used with two sorts, and EvalError when a term is deeper
    than ``MAX_DEPTH``, whether or not an earlier component always holds."""
    names, kinds = _var_sorts(h)
    if system == "L":  # every variable ranges over the universe
        kinds = (GENERIC,) * len(names)
    if max(t.depth for t in chain.from_iterable(h)) > MAX_DEPTH:
        raise EvalError(f"term is deeper than {MAX_DEPTH} operators")

    def refute(algs):
        return _first_failure(_stack(algs, system), h, names, kinds)
    return refute


def falsifying_env(alg: FiniteAlgebra, h: Hypersequent, system: str = "L"):
    """First assignment (deterministic order) under which no component is
    satisfied, or None: the refuter's search on a block of one model.
    Raises LogicError for an unknown system and when the algebra is outside
    the system's class."""
    ok, why = _algebra_admits(alg, _system(system))
    if not ok:
        raise LogicError(why)
    found = _refuter(h, system)([alg])
    return None if found is None else found[1]


def is_true_in(alg: FiniteAlgebra, h: Hypersequent, system: str = "L") -> bool:
    """True when every assignment satisfies at least one component.  Raises
    LogicError as ``falsifying_env`` does."""
    return falsifying_env(alg, h, system) is None


def _admitted_blocks(models, system: str):
    """The admitted (name, algebra) pairs of each ``_BLOCK`` entries of the
    model source, read lazily, one block at a time; blocks that admit no
    model are skipped.  An entry that is not a (name, FiniteAlgebra) pair
    is a LogicError naming its position."""
    entries = iter(models)
    for start in count(0, _BLOCK):
        block = list(islice(entries, _BLOCK))
        admitted = []
        for position, entry in enumerate(block, start):
            try:
                name, alg = entry
            except (TypeError, ValueError):
                alg = None
            if not isinstance(alg, FiniteAlgebra):
                raise LogicError(f"model entry {position} is not a (name, FiniteAlgebra) pair")
            if _algebra_admits(alg, system)[0]:
                admitted.append((name, alg))
        if admitted:
            yield admitted
        if len(block) < _BLOCK:
            return


def find_countermodel(goal: Hypersequent, system: str, models) -> tuple | None:
    """First (name, algebra, env) from the model source falsifying the goal.

    The source is any iterable of (name, FiniteAlgebra) pairs; it is read
    ``_BLOCK`` models at a time, and never past the block that holds the
    countermodel.  Models outside the system's algebra class are skipped,
    and each block's admitted models are searched together.  Raises
    LogicError for an unknown system and for a malformed entry.
    """
    _system(system)
    refute = None  # built at the first admitted model, where falsifying_env would raise
    for block in _admitted_blocks(models, system):
        if refute is None:
            refute = _refuter(goal, system)
        found = refute([alg for _, alg in block])
        if found is not None:
            t, env = found
            return (*block[t], env)
    return None


# --- proof search ------------------------------------------------------------
# The search runs on tuples: a premise is a tuple of (ant, suc) pairs, equal to
# the Hypersequent of those pairs, and a proof tree is (hypersequent, rule,
# subtrees, schema), so its memo tables hash and compare in C.  Only the
# returned lines become ProofLine objects.

def _leaf(h: tuple, hl: bool):
    """h's proof tree when h is an axiom instance (of the first schema that
    ``axiom_match`` names) or, in HL, an sp instance; else None."""
    if len(h) == 1:
        (ant, suc), = h
        for sid, test in _leaf_tests(type(ant), type(suc), hl):
            if test(ant, suc):
                return (h, "id-axiom", (), None) if sid == "id" else (h, "axiom", (), sid)
    elif hl and _check_sp(h):
        return h, "sp", (), None
    return None


def _backward_steps(h: tuple, hl: bool, cuts):
    """(rule, premises) for the rule applications with conclusion h, in the
    order the search tries them; cuts(ant, suc) gives the cut formulas to try
    on a component.  The second cut premise and the last three order-rule
    premises are single sequents, so the first premise carries the context
    and check_proof accepts every step.  The order rule's premises come one
    at a time: its joins are built only when its meets close."""
    # invertible-looking unary rules first
    for k, (ant, suc) in enumerate(h):
        for rule, a, b in _unary_premises(ant, suc):
            yield rule, (_splice(h, k, (a, b)),)
    for k, (ant, suc) in enumerate(h):
        for chi in cuts(ant, suc):
            yield "cut", (_splice(h, k, (ant, chi)), ((chi, suc),))
    # the order rule, last among the logical rules: premises grow
    for k, (ant, suc) in enumerate(h):
        prems = _sq_pairs(ant, suc)
        yield "sq", chain((_splice(h, k, next(prems)),), zip(prems))
    # memoized failures keep the swaps from looping
    if hl:
        for rule, prem in _structural_premises(h):
            yield rule, (prem,)


# The cut pool holds keys, not terms: a goal subterm, a constant, or a tuple
# (class, *child keys) for a term built over them.  A tuple equal to a goal
# subterm is replaced by it, so keys are one to one with terms and hash over a
# few levels only.  Only the cut formulas the search tries become terms.

def _instances(side: Term, values: list, g) -> list:
    """The keys of side's instances at each tuple of ``values`` (of side's
    variables, in sorted name order), built one node of side at a time for
    all of them; ``g(k, k)`` canonicalizes a new node k."""
    names = variables(side)
    col = {}
    for t in postorder(side):
        if type(t) is Var:
            col[t] = list(map(itemgetter(names.index(t.name)), values))
        elif type(t) is Const:
            col[t] = [t] * len(values)
        else:
            ks = list(zip(repeat(type(t)), *(col[getattr(t, f)] for f in t.__match_args__)))
            col[t] = list(map(g, ks, ks))
    return col[side]


def _key_pool(goal: tuple, system: str, lemmas):
    """(position, pairs, g, depth) for the search on goal: every side of every
    axiom schema and caller lemma instantiated with subformulas of the goal,
    as keys mapped to their first-seen positions; the instances as key
    pairs; g, where ``g(k, k)`` is the key of a node k over keys; and a
    depth that no key's term exceeds.  A template of more than 2
    metavariables is skipped on a goal of more than 8 subformulas, or past
    8**4 bindings."""
    subs = list(dict.fromkeys(t for pair in goal for side in pair for t in subterms(side)))
    g = {(type(t), *map(t.__getattribute__, t.__match_args__)): t
         for t in subs if type(t) in _UNARY_RULES}.get
    order = list(subs)  # every key, as met
    pairs: set = set()
    # schemas share sides (A*, A* & B*, ...), and a side's instance depends
    # only on the values of its own variables: side -> {values: key}, filled
    # once for every tuple of goal subterms
    instances: dict = {}
    templates = [(s.lhs, s.rhs, s.var_sort) for s in AXIOM_SCHEMAS
                 if not (s.hl_only and system != "HL")]
    templates += [(ant, suc, None) for ant, suc in lemmas or ()]
    for lhs, rhs, var_sort in templates:
        metavars = sorted(set(variables(lhs)) | set(variables(rhs)))
        k = len(metavars)
        if k > 2 and (len(subs) > 8 or len(subs) ** k > 8 ** 4):
            continue  # keep the pool small for wide templates on big goals
        bindings = list(product([v for v in subs if var_sort is None or (
            type(v) is Var and v.sort == var_sort)], repeat=k))
        sides = []
        for side in (lhs, rhs):
            names = variables(side)
            if side not in instances:
                values = list(product(subs, repeat=len(names)))
                instances[side] = dict(zip(values, _instances(side, values, g)))
            at = [metavars.index(name) for name in names]
            own = bindings if len(at) == k else [tuple(map(v.__getitem__, at)) for v in bindings]
            sides.append(list(map(instances[side].__getitem__, own)))
        pairs.update(zip(*sides))
        order += chain.from_iterable(zip(*sides))
    depth = max(t.depth for t in subs) + max(t.depth for lhs, rhs, _ in templates for t in (lhs, rhs))
    return dict(zip(dict.fromkeys(order), count())), pairs, g, depth


def _convert(x, memo: dict):
    """A term's pool key, or a tuple key's term: one to one, so ``memo``
    holds each conversion both ways (and each goal subterm as its own key).
    search_proof's depth limit bounds a key, and so this recursion, by 2 * ``MAX_DEPTH``."""
    y = memo.get(x)
    if y is None:
        if type(x) is tuple:
            y = x[0](*(_convert(c, memo) for c in x[1:]))
        elif type(x) in _UNARY_RULES:
            y = (type(x), *(_convert(getattr(x, f), memo) for f in x.__match_args__))
        else:
            y = x
        memo[x], memo[y] = y, x
    return y


def _cut_candidates(goal: tuple, system: str, lemmas):
    """(candidates, term) for the search on goal.  candidates(ant, suc),
    memoized, gives (score, key) for the pool formulas chi other than ant
    and suc such that ant => chi or chi => suc is a pool instance, an
    identity, or one unary rule step from one; score counts the premises
    that are not instances.  Ordered by score, then by pool position.
    term(key) gives the cut formula.  Cuts whose premises would both need
    long sub-proofs are not attempted (the search is best-effort, not
    complete).  Found by lookups, not by a scan of the pool."""
    position, pairs, g, depth = _key_pool(goal, system, lemmas)
    reach = depth + 1  # a deeper term has no key, nor any one-step candidate
    rights: dict = {}  # left side -> right sides of its instances
    lefts: dict = {}  # right side -> left sides of its instances
    for a, b in pairs:
        rights.setdefault(a, set()).add(b)
        lefts.setdefault(b, set()).add(a)
    memo = {t: t for t in position if type(t) is not tuple}
    found_for: dict = {}
    reached: tuple = ({}, {})  # by side: term -> (its key, its reach)

    def reach_of(t: Term, side: int):
        """t's key (None past ``reach``) and the pool keys chi for which
        t => chi (side 0) or chi => t (side 1) is an instance or one unary
        rule step from one: a neighbour of t's key, or t with its varied
        argument x replaced by a neighbour of x (for neg and opp, from the
        other side).  A step from an identity gives t itself."""
        got = reached[side].get(t)
        if got is None:
            ends, reversed_ends = (rights, lefts) if side == 0 else (lefts, rights)
            k = _convert(t, memo) if t.depth <= reach else None
            found = set(ends.get(k, ()))
            if type(t) in _UNARY_RULES and k is not None:
                view = k if type(k) is tuple else (type(t), *map(t.__getattribute__, t.__match_args__))
                for _, varied, _, reverse in _UNARY_RULES[type(t)]:
                    i = t.__match_args__.index(varied) + 1
                    cs = (reversed_ends if reverse else ends).get(view[i])
                    if cs:
                        cols = [*map(repeat, view)]
                        cols[i] = cs
                        ks = list(zip(*cols))
                        found.update(filter(position.__contains__, map(g, ks, ks)))
            got = reached[side][t] = k, found
        return got

    def candidates(ant: Term, suc: Term):
        got = found_for.get((ant, suc))
        if got is None:
            (ka, above), (ks, below) = reach_of(ant, 0), reach_of(suc, 1)
            right, left = rights.get(ka, ()), lefts.get(ks, ())
            # by score, then (the sort is stable) by pool position
            got = found_for[ant, suc] = sorted(
                [(2 - (chi in right) - (chi in left), chi)
                 for chi in sorted((above | below) - {ka, ks}, key=position.__getitem__)],
                key=itemgetter(0))
        return got

    return candidates, functools.partial(_convert, memo=memo)


def search_proof(goal: Hypersequent, system: str = "L", depth: int = 8,
                 lemmas=None) -> ProofScript | None:
    """Iterative-deepening backward search; cut only through the candidate
    pool.  Any returned script re-validates under check_proof.  ``depth``
    is a Python or numpy integer, never a bool, float or str (LogicError).
    A goal or lemma side deeper than ``MAX_DEPTH`` is an EvalError."""
    _integer(depth, "depth", LogicError)
    if _system(system) == "L" and len(goal) != 1:
        raise LogicError(_L_SINGLE)
    if max(t.depth for t in chain(*goal, *(lemmas or ()))) > MAX_DEPTH:
        raise EvalError(f"term is deeper than {MAX_DEPTH} operators")
    hl = system == "HL"
    pool = None  # the cut candidates, built at the first cut: most goals close without one
    proved: dict = {}
    failed_at: dict = {}

    def cuts(ant, suc, budget):  # a cut with a premise outside the pool instances waits for budget 3
        nonlocal pool
        if pool is None:
            pool = _cut_candidates(goal, system, lemmas)
        candidates, term = pool
        return (term(chi) for score, chi in candidates(ant, suc) if score < 1 or budget >= 3)

    def prove(h: tuple, budget: int):
        t = proved.get(h)
        if t is not None or budget < 1 or failed_at.get(h, 0) >= budget:
            return t
        t = _leaf(h, hl)
        if t is None and budget >= 2:
            for rule, prems in _backward_steps(h, hl, lambda a, s: cuts(a, s, budget)):
                subs = []
                for prem in prems:
                    sub = prove(prem, budget - 1)
                    if sub is None:
                        break
                    subs.append(sub)
                else:
                    t = h, rule, tuple(subs), None
                    break
        if t is None:
            failed_at[h] = budget
        else:
            proved[h] = t
        return t

    tree = None
    try:
        for bound in range(1, depth + 1):
            failed_at.clear()
            tree = prove(goal, bound)
            if tree is not None:
                break
    finally:
        del prove  # a recursive closure is a reference cycle that would hold the memo tables
    if tree is None:
        return None
    lines: list[ProofLine] = []
    _emit(tree, lines, {})
    script = ProofScript(system, tuple(lines))
    report = check_proof(script)
    if not report.valid:
        raise LogicError(f"internal error: found proof failed re-validation ({report})")
    return script


def _emit(node: tuple, lines: list, index_of: dict) -> int:
    """Appends node's subtrees, then node, to lines, once per tree node;
    returns node's line index."""
    h, rule, children, schema = node
    kids = tuple(_emit(c, lines, index_of) for c in children)
    if id(node) not in index_of:
        lines.append(ProofLine(len(lines) + 1, Hypersequent(h), rule, kids, schema))
        index_of[id(node)] = len(lines)
    return index_of[id(node)]


# --- transcribed derivations --------------------------------------------------

def fixture_proofs() -> list[tuple[str, ProofScript]]:
    """The hand-transcribed derivations of ``fixtures.PROOF_SCRIPTS``,
    parsed, in order; all pass check_proof."""
    return [(name, parse_script(text)) for name, text in PROOF_SCRIPTS.items()]
