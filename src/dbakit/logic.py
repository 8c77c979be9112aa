"""Sequent calculus (system L) and hypersequent calculus (system HL).

L derives sequents ``formula => formula`` and is sound for the contextual
algebras; HL derives hypersequents (``;``-separated sequents, at least one)
and is sound for the pure algebras, reading a hypersequent disjunctively:
true under an assignment when at least one component is.

Proof scripts are line-checked: every line must be an axiom instance or
follow from earlier lines by a named rule, with hypersequent contexts
matched as literal prefixes/suffixes (structural steps must be cited
explicitly, there is no silent normalization).  Proof search runs backward
with iterative deepening and admits cut only through a pool of candidate
cut formulas (axiom instances over the goal's subformulas plus caller
lemmas), so it always terminates.
"""

from __future__ import annotations

import functools
import math
import re
import weakref
from dataclasses import dataclass
from itertools import accumulate, count, islice, product
from typing import NamedTuple

import numpy as np

from . import algebra
from .algebra import FiniteAlgebra, classify, eval_term, quasi_order
from .errors import EvalError, LogicError, ParseError
from .terms import (
    BOT, GENERIC, MAX_DEPTH, OBJECT, PROPERTY, TOP,
    Const, Join, Meet, Neg, Opp, Term, TermParser, Var, fold, render, subterms,
    var_sorts, variables, vee, wedge,
)

# --- syntax -----------------------------------------------------------------


@dataclass(frozen=True)
class Sequent:
    ant: Term
    suc: Term

    def __str__(self):
        return f"{render(self.ant)} => {render(self.suc)}"


@dataclass(frozen=True)
class Hypersequent:
    components: tuple[Sequent, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise LogicError("a hypersequent needs at least one component")

    def __str__(self):
        return " ; ".join(str(c) for c in self.components)

    def __len__(self):
        return len(self.components)

    def __getitem__(self, k):
        return self.components[k]


def seq(ant: Term, suc: Term) -> Hypersequent:
    return Hypersequent((Sequent(ant, suc),))


def _system(system: str) -> str:
    """system, when it is "L" or "HL"; LogicError otherwise."""
    if system not in ("L", "HL"):
        raise LogicError(f"unknown system {system!r}")
    return system


def parse_sequent(text: str, system: str = "L") -> Sequent:
    p = TermParser(text, sorted_vars=(_system(system) == "HL"))
    ant = p.parse_formula()
    p.expect("=>")
    suc = p.parse_formula()
    if not p.at_end():
        tok = p.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return Sequent(ant, suc)


def parse_hypersequent(text: str, system: str = "L") -> Hypersequent:
    p = TermParser(text, sorted_vars=(_system(system) == "HL"))
    comps = []
    while True:
        ant = p.parse_formula()
        p.expect("=>")
        suc = p.parse_formula()
        comps.append(Sequent(ant, suc))
        if p.at_end():
            break
        p.expect(";")
    return Hypersequent(tuple(comps))


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


def _match(pattern: Term, t: Term, binding: dict, var_sort: str | None) -> bool:
    """One-way matching; every Var in the pattern is a metavariable."""
    if isinstance(pattern, Var):
        bound = binding.get(pattern.name)
        if bound is not None:
            return bound == t
        if var_sort is not None and not (isinstance(t, Var) and t.sort == var_sort):
            return False
        binding[pattern.name] = t
        return True
    if type(pattern) is not type(t):
        return False
    if isinstance(pattern, Const):
        return pattern == t
    if isinstance(pattern, (Neg, Opp)):
        return _match(pattern.arg, t.arg, binding, var_sort)
    return (_match(pattern.left, t.left, binding, var_sort)
            and _match(pattern.right, t.right, binding, var_sort))


def schema_matches(schema: AxiomSchema, s: Sequent) -> bool:
    binding: dict = {}
    return (_match(schema.lhs, s.ant, binding, schema.var_sort)
            and _match(schema.rhs, s.suc, binding, schema.var_sort))


@functools.cache
def _schemas_for(ant_kind: type, suc_kind: type, hl: bool) -> tuple[AxiomSchema, ...]:
    """The schemas of L (or HL) whose sides can match terms of these
    connectives: a side's connective must be the term's, unless the side is
    a metavariable."""
    return tuple(s for s in AXIOM_SCHEMAS
                 if (hl or not s.hl_only)
                 and type(s.lhs) in (Var, ant_kind) and type(s.rhs) in (Var, suc_kind))


def axiom_match(s: Sequent, system: str = "L") -> list[str]:
    """Ids of every axiom schema of the system with an instantiation equal
    to s.  Raises LogicError for an unknown system."""
    return _axiom_ids(s, _system(system) == "HL")


def _axiom_ids(s: Sequent, hl: bool) -> list[str]:
    """``axiom_match`` for a system already checked: HL when ``hl``."""
    return [schema.id for schema in _schemas_for(type(s.ant), type(s.suc), hl)
            if schema_matches(schema, s)]


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


def _splice(h: Hypersequent, k: int, s: Sequent) -> Hypersequent:
    """h with component k replaced by s."""
    return Hypersequent(h.components[:k] + (s,) + h.components[k + 1:])


def _structural_premises(h: Hypersequent):
    """(rule, premise) for the HL structural rules with conclusion h: drop the
    last component (ew), or swap two adjacent ones (ee)."""
    if len(h) < 2:
        return
    yield "ew", Hypersequent(h.components[:-1])
    for k in range(len(h) - 1):
        yield "ee", Hypersequent(h.components[:k] + (h[k + 1], h[k]) + h.components[k + 2:])


def _sq_premises(phi: Term, psi: Term) -> tuple[Sequent, ...]:
    return (
        Sequent(Meet(phi, psi), Meet(phi, phi)),
        Sequent(Meet(phi, phi), Meet(phi, psi)),
        Sequent(Join(phi, psi), Join(psi, psi)),
        Sequent(Join(psi, psi), Join(phi, psi)),
    )


def _derives(prems, concl: Hypersequent, local) -> bool:
    """Whether concl is every premise's prefix, then one component c, then
    every premise's suffix, for some choice of one active component per
    premise with ``local(actives, c)``: the hypersequent context rule shared
    by every rule but sp, ec, ee and ew.  With no premise, concl is c alone."""
    if len(concl) != 1 + sum(len(p) - 1 for p in prems):
        return False
    for ks in product(*(range(len(p)) for p in prems)):
        c = concl[sum(ks)]
        if (local(tuple(p[k] for p, k in zip(prems, ks)), c)
                and concl.components == sum((p.components[:k] for p, k in zip(prems, ks)), ())
                + (c,) + sum((p.components[k + 1:] for p, k in zip(prems, ks)), ())):
            return True
    return False


# Rule -> (number of premises, condition on the active premise components and
# the active conclusion component c); the context around them is _derives's.
_CONTEXT_RULES = {
    "id-axiom": (0, lambda ps, c: c.ant == c.suc),
    "cut": (2, lambda ps, c: ps[0].suc == ps[1].ant and c == Sequent(ps[0].ant, ps[1].suc)),
    "sq": (4, lambda ps, c: ps == _sq_premises(c.ant, c.suc)),
    **{rule: (1, lambda ps, c, rule=rule:
              (rule, ps[0].ant, ps[0].suc) in _unary_premises(c.ant, c.suc))
       for rules in _UNARY_RULES.values() for rule, *_ in rules},
}


def _check_sp(concl: Hypersequent) -> bool:
    if len(concl) != 2:
        return False
    c0, c1 = concl[0], concl[1]
    phi = c0.ant
    return (c0.suc == Meet(phi, phi)
            and c1.ant == Join(phi, phi) and c1.suc == phi)


def check_proof(script: ProofScript) -> CheckReport:
    """Validate every line; reports the first failure."""
    if script.system not in ("L", "HL"):
        return CheckReport(False, None, f"unknown system {script.system!r}")
    by_index: dict[int, Hypersequent] = {}
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
        if script.system == "L":
            if len(line.hyp) != 1 or any(len(p) != 1 for p in prems):
                return CheckReport(False, idx, _L_SINGLE)
            if line.rule in _L_ONLY_FORBIDDEN:
                return CheckReport(False, idx, f"rule {line.rule} is not part of system L")
        ok = False
        reason = f"rule {line.rule} does not derive the line from its premises"
        if line.rule in _CONTEXT_RULES:
            arity, local = _CONTEXT_RULES[line.rule]
            ok = len(prems) == arity and _derives(prems, line.hyp, local)
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
                    ok = not prems and _derives(
                        prems, line.hyp, lambda ps, c: schema_matches(schema, c))
        elif line.rule == "sp":
            ok = len(prems) == 0 and _check_sp(line.hyp)
        elif line.rule == "ec":
            ok = len(prems) == 1 and any(
                prems[0][k] == prems[0][k + 1]
                and line.hyp.components == prems[0].components[:k] + prems[0].components[k + 1:]
                for k in range(len(prems[0]) - 1))
        elif line.rule in ("ee", "ew"):
            ok = len(prems) == 1 and (line.rule, prems[0]) in _structural_premises(line.hyp)
        else:
            reason = f"unknown rule {line.rule!r}"
        if not ok:
            return CheckReport(False, idx, reason)
        by_index[idx] = line.hyp
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
    cl = classify(alg)
    if not cl.is_dba:
        return False, "algebra does not satisfy DBA23"
    if system == "L" and not cl.is_contextual:
        return False, "system L needs a contextual algebra"
    if system == "HL" and not cl.is_pure:
        return False, "system HL needs a pure algebra"
    return True, ""


def _var_sorts(h: Hypersequent) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The variables of h in sorted name order, and the sort of each.
    Raises LogicError when a variable is used with two sorts."""
    sorts: dict[str, str] = {}
    for comp in h.components:
        for side in (comp.ant, comp.suc):
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
        return sorted(classify(alg).meet_idempotents)
    if system == "HL" and kind == PROPERTY:
        return sorted(classify(alg).join_idempotents)
    return range(alg.n)


# --- the refuter ---------------------------------------------------------------
# A goal is refuted over a block of models at once: the block's tables are
# stacked (``_stack``), every value is an array with a leading model axis and
# one axis per variable, and each side of each component is one ``fold``
# with numpy callbacks.  The first failing cell in C order is the first
# model and, within it, the lexicographically first assignment.

_BLOCK = 64  # models read, admitted and stacked at a time


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


@functools.lru_cache(maxsize=16)
def _stack(refs: tuple, system: str) -> _Stack:
    """The stack of the algebras that ``refs`` (weak references) point to,
    all admitted by the system.  A weak reference compares by its live
    algebra's identity, and a dead one equals only itself, so the key
    matches only the same algebra objects, and the cache keeps neither them
    nor their verdict records alive.  The stacks of the last 16 distinct
    blocks are kept: the 11 blocks of the 682 models of ``contexts:3x3``
    fit, so refuting many goals against them builds each stack once."""
    algs = [r() for r in refs]
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
    return _Stack(
        M=ids([a.meet for a in algs]), J=ids([a.join for a in algs]),
        G=ids([a.neg for a in algs]), O=ids([a.opp for a in algs]),
        Q=np.concatenate([quasi_order(a).rel.reshape(-1) for a in algs]),
        row=np.concatenate([np.arange(n, dtype=np.intp) * n + (start - u)
                            for n, u, start in zip(sizes, offset, starts)]),
        top=top, bot=bot, offset=offset, ranges=ranges)


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
    """The search of h over a tuple of algebras known to be in the system's
    class, as a function that returns ``_first_failure``'s (t, env) or None;
    what depends only on h is collected once, here.  Raises LogicError when
    a variable is used with two sorts, and EvalError when a term is deeper
    than ``MAX_DEPTH``, whether or not an earlier component always holds."""
    names, kinds = _var_sorts(h)
    if system == "L":  # every variable ranges over the universe
        kinds = (GENERIC,) * len(names)
    pairs = tuple((c.ant, c.suc) for c in h.components)
    if max(t.depth for pair in pairs for t in pair) > MAX_DEPTH:
        raise EvalError(f"term is deeper than {MAX_DEPTH} operators")

    def refute(algs):
        return _first_failure(_stack(tuple(map(weakref.ref, algs)), system), pairs, names, kinds)
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

@dataclass
class _Tree:
    hyp: Hypersequent
    rule: str
    children: tuple
    schema: str | None = None


def _substitute(pattern: Term, binding: dict) -> Term:
    return fold(pattern, binding.__getitem__, TOP, BOT, Neg, Opp, Meet, Join)


def _cut_pool(goal: Hypersequent, system: str, lemmas):
    """Candidate cut formulas (every side of every axiom schema and caller
    lemma instantiated with subformulas of the goal), each mapped to its
    position in first-seen order, plus the instantiated sequents themselves
    for scoring cut premises."""
    pool: dict[Term, int] = {}
    for comp in goal.components:
        for side in (comp.ant, comp.suc):
            for t in subterms(side):
                pool.setdefault(t, len(pool))
    subs = list(pool)
    instance_pairs: set[tuple[Term, Term]] = set()
    # schemas share sides (A*, A* & B*, ...), and a side's instance depends
    # only on the values of its own variables
    instances: dict = {}

    def instantiate(side: Term, binding: dict) -> Term:
        key = (side, *map(binding.__getitem__, variables(side)))
        t = instances.get(key)
        if t is None:
            t = instances[key] = _substitute(side, binding)
        pool.setdefault(t, len(pool))
        return t

    templates = [(s.lhs, s.rhs, s.var_sort) for s in AXIOM_SCHEMAS
                 if not (s.hl_only and system != "HL")]
    for s in lemmas or ():
        templates.append((s.ant, s.suc, None))
    for lhs, rhs, var_sort in templates:
        metavars = sorted(set(variables(lhs)) | set(variables(rhs)))
        if len(metavars) > 2 and len(subs) > 8:
            continue  # keep the pool small for wide schemas on big goals
        for values in product(subs, repeat=len(metavars)):
            if var_sort is not None and not all(
                    isinstance(v, Var) and v.sort == var_sort for v in values):
                continue
            binding = dict(zip(metavars, values))
            instance_pairs.add((instantiate(lhs, binding), instantiate(rhs, binding)))
    return pool, instance_pairs


def _backward_steps(h: Hypersequent, system: str, cuts):
    """(rule, premises) for the rule applications with conclusion h, in the
    order the search tries them; cuts(s) gives the cut formulas to try on
    component s.  The second cut premise and the last three order-rule
    premises are single sequents, so the first premise carries the context
    and check_proof accepts every step."""
    # invertible-looking unary rules first
    for k, s in enumerate(h.components):
        for rule, a, b in _unary_premises(s.ant, s.suc):
            yield rule, (_splice(h, k, Sequent(a, b)),)
    for k, s in enumerate(h.components):
        for chi in cuts(s):
            yield "cut", (_splice(h, k, Sequent(s.ant, chi)), seq(chi, s.suc))
    # the order rule, last among the logical rules: premises grow
    for k, s in enumerate(h.components):
        first, *rest = _sq_premises(s.ant, s.suc)
        yield "sq", (_splice(h, k, first),) + tuple(Hypersequent((p,)) for p in rest)
    # memoized failures keep the swaps from looping
    if system == "HL":
        for rule, prem in _structural_premises(h):
            yield rule, (prem,)


def _cut_candidates(goal: Hypersequent, system: str, lemmas):
    """Cut candidates for the search on goal, as a memoized function of a
    sequent s = ant => suc: (score, chi) for the pool formulas chi other than
    ant and suc such that ant => chi or chi => suc is a pool instance, an
    identity, or one unary rule step from one; score counts the premises
    that are not instances.  Ordered by score, then by pool position.  Cuts
    whose premises would both need long sub-proofs are not attempted (the
    search is best-effort, not complete).  Found by lookups in indexes built
    once here, not by a scan of the pool."""
    position, instance_pairs = _cut_pool(goal, system, lemmas)
    rights: dict = {}  # left side -> right sides of its instances
    lefts: dict = {}  # right side -> left sides of its instances
    for a, b in instance_pairs:
        rights.setdefault(a, []).append(b)
        lefts.setdefault(b, []).append(a)
    # (rule, varied argument, shared argument or None) -> the pool term of
    # that shape
    by_shape = {}
    for chi in position:
        for rule, varied, shared, _ in _UNARY_RULES.get(type(chi), ()):
            by_shape[rule, getattr(chi, varied), shared and getattr(chi, shared)] = chi
    memo: dict = {}

    def one_step(t: Term, ends: dict, reversed_ends: dict):
        """Pool terms chi with t's connective and shared argument whose varied
        argument is x, t's own, or in ends[x] (reversed_ends[x] for neg and
        opp).  With (rights, lefts) these are the chi for which t => chi is one
        rule step from an identity or an instance; with (lefts, rights), the
        chi for which chi => t is."""
        for rule, varied, shared, reverse in _UNARY_RULES.get(type(t), ()):
            x = getattr(t, varied)
            key = shared and getattr(t, shared)
            for c in (x, *(reversed_ends if reverse else ends).get(x, ())):
                chi = by_shape.get((rule, c, key))
                if chi is not None:
                    yield chi

    def candidates(s: Sequent):
        got = memo.get(s)
        if got is None:
            ant, suc = s.ant, s.suc
            found = {*rights.get(ant, ()), *lefts.get(suc, ()),
                     *one_step(ant, rights, lefts), *one_step(suc, lefts, rights)}
            found.discard(ant)
            found.discard(suc)
            got = memo[s] = sorted(
                ((2 - ((ant, chi) in instance_pairs) - ((chi, suc) in instance_pairs), chi)
                 for chi in found),
                key=lambda item: (item[0], position[item[1]]))
        return got

    return candidates


def search_proof(goal: Hypersequent, system: str = "L", depth: int = 8,
                 lemmas=None) -> ProofScript | None:
    """Iterative-deepening backward search; cut only through the candidate
    pool.  Any returned script re-validates under check_proof.  ``depth``
    is a Python or numpy integer, never a bool, float or str (LogicError)."""
    if isinstance(depth, bool) or not isinstance(depth, (int, np.integer)):
        raise LogicError(f"depth must be an integer, got {depth!r}")
    if _system(system) == "L" and len(goal) != 1:
        raise LogicError(_L_SINGLE)
    pool = None  # the cut candidates, built at the first cut: most goals close without one
    proved: dict = {}
    failed_at: dict = {}

    hl = system == "HL"

    def leaf(h: Hypersequent):
        if len(h) == 1:
            ids = _axiom_ids(h[0], hl)
            if ids:
                rule = "id-axiom" if ids[0] == "id" else "axiom"
                schema = None if ids[0] == "id" else ids[0]
                return _Tree(h, rule, (), schema)
        if hl and _check_sp(h):
            return _Tree(h, "sp", ())
        return None

    def prove(h: Hypersequent, budget: int):
        if h in proved:
            return proved[h]
        if budget < 1 or failed_at.get(h, 0) >= budget:
            return None
        t = leaf(h)
        if t is not None:
            proved[h] = t
            return t
        if budget >= 2:
            t = _expand(h, budget)
            if t is not None:
                proved[h] = t
                return t
        failed_at[h] = max(failed_at.get(h, 0), budget)
        return None

    def _expand(h: Hypersequent, budget: int):
        def cuts(s):  # a cut with a premise outside the pool instances waits for budget 3
            nonlocal pool
            if pool is None:
                pool = _cut_candidates(goal, system, lemmas)
            return (chi for score, chi in pool(s) if score < 1 or budget >= 3)

        for rule, prems in _backward_steps(h, system, cuts):
            subs = []
            for prem in prems:
                sub = prove(prem, budget - 1)
                if sub is None:
                    break
                subs.append(sub)
            else:
                return _Tree(h, rule, tuple(subs))
        return None

    tree = None
    try:
        for bound in range(1, depth + 1):
            failed_at.clear()
            tree = prove(goal, bound)
            if tree is not None:
                break
    finally:
        # prove and _expand call each other, a reference cycle that would
        # keep the memo tables alive until a full collection
        del prove, _expand
    if tree is None:
        return None
    lines: list[ProofLine] = []
    index_of: dict[int, int] = {}

    def emit(node: _Tree) -> int:
        kids = [emit(c) for c in node.children]
        key = id(node)
        if key in index_of:
            return index_of[key]
        idx = len(lines) + 1
        lines.append(ProofLine(idx, node.hyp, node.rule, tuple(kids), node.schema))
        index_of[key] = idx
        return idx

    emit(tree)
    del emit  # a recursive closure is a reference cycle
    script = ProofScript(system, tuple(lines))
    report = check_proof(script)
    if not report.valid:
        raise LogicError(f"internal error: found proof failed re-validation ({report})")
    return script


# --- transcribed derivations --------------------------------------------------

def _x(name):
    return Var(name)


def _meet_idem_intro_lines(phi: Term, psi: Term, start: int) -> list[ProofLine]:
    """Derivation of phi&psi => (phi&psi)&(phi&psi) (6 lines)."""
    m = Meet(phi, psi)
    mm = Meet(m, m)
    i = start
    return [
        ProofLine(i, seq(m, Neg(Neg(m))), "axiom", (), "dneg-meet-intro"),
        ProofLine(i + 1, seq(Neg(mm), Neg(m)), "axiom", (), "neg-collapse"),
        ProofLine(i + 2, seq(Neg(Neg(m)), Neg(Neg(mm))), "neg", (i + 1,)),
        ProofLine(i + 3, seq(Neg(Neg(mm)), mm), "axiom", (), "dneg-meet"),
        ProofLine(i + 4, seq(Neg(Neg(m)), mm), "cut", (i + 2, i + 3)),
        ProofLine(i + 5, seq(m, mm), "cut", (i, i + 4)),
    ]


def fixture_proofs() -> list[tuple[str, ProofScript]]:
    """Hand-transcribed derivations; all pass check_proof.

    The two commutativity/absorption proofs inline the idempotence lemma
    because the checker accepts only axioms and single rule applications,
    so they run longer than their compressed presentations.
    """
    x, y = _x("x"), _x("y")
    out = []

    out.append(("lemma-meet-idem-intro",
                ProofScript("L", tuple(_meet_idem_intro_lines(x, y, 1)))))

    j = Join(x, y)
    jj = Join(j, j)
    out.append(("lemma-join-idem-elim", ProofScript("L", (
        ProofLine(1, seq(Opp(Opp(j)), j), "axiom", (), "dopp-join"),
        ProofLine(2, seq(Opp(j), Opp(jj)), "axiom", (), "opp-expand"),
        ProofLine(3, seq(Opp(Opp(jj)), Opp(Opp(j))), "opp", (2,)),
        ProofLine(4, seq(jj, Opp(Opp(jj))), "axiom", (), "dopp-join-intro"),
        ProofLine(5, seq(jj, Opp(Opp(j))), "cut", (4, 3)),
        ProofLine(6, seq(jj, j), "cut", (5, 1)),
    ))))

    m = Meet(x, y)
    mm = Meet(m, m)
    comm = _meet_idem_intro_lines(x, y, 1) + [
        ProofLine(7, seq(m, y), "axiom", (), "meet-elim-r"),
        ProofLine(8, seq(mm, Meet(y, m)), "meetR", (7,)),
        ProofLine(9, seq(m, x), "axiom", (), "meet-elim-l"),
        ProofLine(10, seq(Meet(y, m), Meet(y, x)), "meetL", (9,)),
        ProofLine(11, seq(mm, Meet(y, x)), "cut", (8, 10)),
        ProofLine(12, seq(m, Meet(y, x)), "cut", (6, 11)),
    ]
    out.append(("thm-comm-meet", ProofScript("L", tuple(comm))))

    out.append(("thm-neg-monotone", ProofScript("L", (
        ProofLine(1, seq(Meet(x, x), x), "axiom", (), "meet-elim-l"),
        ProofLine(2, seq(Neg(x), Neg(Meet(x, x))), "neg", (1,)),
    ))))

    a = Meet(x, Join(x, y))  # the absorption antecedent
    aa = Meet(a, a)
    absorb = _meet_idem_intro_lines(x, Join(x, y), 1) + [
        ProofLine(7, seq(a, x), "axiom", (), "meet-elim-l"),
        ProofLine(8, seq(aa, Meet(x, a)), "meetR", (7,)),
        ProofLine(9, seq(Meet(x, a), Meet(x, x)), "meetL", (7,)),
        ProofLine(10, seq(aa, Meet(x, x)), "cut", (8, 9)),
        ProofLine(11, seq(a, Meet(x, x)), "cut", (6, 10)),
    ]
    out.append(("thm-meet-absorb", ProofScript("L", tuple(absorb))))

    return out
