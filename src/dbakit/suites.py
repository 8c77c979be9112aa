"""Axiom suites and the catalog of derived identities.

Suites:

* ``DBA23``   -- the classical 23-identity axiomatization of double Boolean
  algebras (axiom ids 1a..11b plus 12).
* ``DCORE13`` -- the reduced 13-identity system (ids 1a..6b plus 7),
  equivalent to DBA23.
* ``GDCORE11`` -- DCORE13 without the absorption pair 3a/3b.
* ``BOOLEAN`` -- ordinary Boolean-algebra identities over (&, |, ~, F, T);
  the second negation ``!`` is ignored by this suite.

``CATALOG`` lists identities that are consequences of DCORE13; every algebra
passing DCORE13 must satisfy all of them.

DBA23, DCORE13 and the catalog write the first member of each dual pair and
derive the second with ``terms.dual``.  BOOLEAN is written out: its complement
is ``~`` on both sides, so duality does not map it onto itself.
"""

from __future__ import annotations

from .errors import SuiteError
from .terms import AxiomSuite, Equation, dual, eq


def _dual_pair(id_a: str, id_b: str, lhs: str, rhs: str) -> tuple[Equation, Equation]:
    """The identity ``id_a: lhs = rhs`` and its dual, named id_b."""
    e = eq(id_a, lhs, rhs)
    return e, Equation(id_b, dual(e.lhs), dual(e.rhs))


DBA23 = AxiomSuite(
    "DBA23",
    (
        *_dual_pair("1a", "1b", "(x & x) & y", "x & y"),
        *_dual_pair("2a", "2b", "x & y", "y & x"),
        *_dual_pair("3a", "3b", "~(x & x)", "~x"),
        *_dual_pair("4a", "4b", "x & (x | y)", "x & x"),
        *_dual_pair("5a", "5b", "x & vee(y, z)", "vee(x & y, x & z)"),
        *_dual_pair("6a", "6b", "x & vee(x, y)", "x & x"),
        *_dual_pair("7a", "7b", "~~(x & y)", "x & y"),
        *_dual_pair("8a", "8b", "x & ~x", "F"),
        *_dual_pair("9a", "9b", "~T", "F"),
        *_dual_pair("10a", "10b", "x & (y & z)", "(x & y) & z"),
        *_dual_pair("11a", "11b", "~F", "T & T"),
        eq("12", "(x & x) | (x & x)", "(x | x) & (x | x)"),
    ),
)

DCORE13 = AxiomSuite(
    "DCORE13",
    (
        *_dual_pair("1a", "1b", "x & y", "y & x"),
        *_dual_pair("2a", "2b", "~(x & x)", "~x"),
        *_dual_pair("3a", "3b", "x & (x | y)", "x & x"),
        *_dual_pair("4a", "4b", "x & vee(y, z)", "vee(x & y, x & z)"),
        *_dual_pair("5a", "5b", "~~(x & y)", "x & y"),
        *_dual_pair("6a", "6b", "x & ~x", "F"),
        eq("7", "(x & x) | (x & x)", "(x | x) & (x | x)"),
    ),
)

GDCORE11 = AxiomSuite(
    "GDCORE11",
    tuple(e for e in DCORE13.equations if e.id not in ("3a", "3b")),
)

BOOLEAN = AxiomSuite(
    "BOOLEAN",
    (
        eq("comm-meet", "x & y", "y & x"),
        eq("comm-join", "x | y", "y | x"),
        eq("assoc-meet", "x & (y & z)", "(x & y) & z"),
        eq("assoc-join", "x | (y | z)", "(x | y) | z"),
        eq("dist-meet", "x & (y | z)", "(x & y) | (x & z)"),
        eq("dist-join", "x | (y & z)", "(x | y) & (x | z)"),
        eq("unit-meet", "x & T", "x"),
        eq("unit-join", "x | F", "x"),
        eq("bound-meet", "x & F", "F"),
        eq("bound-join", "x | T", "T"),
        eq("compl-meet", "x & ~x", "F"),
        eq("compl-join", "x | ~x", "T"),
    ),
)

SUITES = {s.id: s for s in (DBA23, DCORE13, GDCORE11, BOOLEAN)}

_ALIASES = {
    "dba": "DBA23",
    "dcore": "DCORE13",
    "gdcore": "GDCORE11",
    "boolean": "BOOLEAN",
}


def get_suite(name) -> AxiomSuite:
    """Look up a suite by id or alias; AxiomSuite values pass through."""
    if isinstance(name, AxiomSuite):
        return name
    key = _ALIASES.get(str(name).lower(), str(name).upper())
    if key not in SUITES:
        raise SuiteError(f"unknown axiom suite {name!r} (known: {sorted(SUITES)})")
    return SUITES[key]


# Identities derivable from DCORE13.  Two duals printed in the source material
# were wrong (join-pair-bot, opp-absorb-join); both are now derived.
CATALOG: tuple = (
    # double negations and idempotence
    *_dual_pair("dneg-is-meet-square", "dopp-is-join-square", "x & x", "~~x"),
    *_dual_pair("meet-square-idem", "join-square-idem", "(x & y) & (x & y)", "x & y"),
    *_dual_pair("neg-meet-vee-split", "opp-join-wedge-split",
                "~(x & vee(y, z))", "~(x & y) & ~(x & z)"),
    *_dual_pair("vee-self", "wedge-self", "vee(x, x)", "x & x"),
    *_dual_pair("triple-neg", "triple-opp", "~~~x", "~x"),
    *_dual_pair("neg-meet-idem", "opp-join-idem", "~x & ~x", "~x"),
    # squares absorb on the left; constants under the negations
    *_dual_pair("meet-square-left", "join-square-left", "(x & x) & y", "x & y"),
    *_dual_pair("neg-top", "opp-bot", "~T", "F"),
    *_dual_pair("neg-bot", "opp-top", "~F", "T & T"),
    # De Morgan laws
    *_dual_pair("demorgan-neg-meet", "demorgan-opp-join", "~(x & y)", "vee(~x, ~y)"),
    *_dual_pair("demorgan-neg-vee", "demorgan-opp-wedge", "~vee(x, y)", "~x & ~y"),
    # meets and joins with the constants
    *_dual_pair("meet-top", "join-bot", "x & T", "x & x"),
    *_dual_pair("neg-meet-top", "opp-join-bot", "~x & T", "~x"),
    *_dual_pair("meet-pair-top", "join-pair-bot", "(x & y) & T", "x & y"),
    *_dual_pair("neg-meet-neg-bot", "opp-join-opp-top", "~x & ~F", "~x"),
    *_dual_pair("vee-bot", "wedge-top", "vee(x, F)", "x & x"),
    *_dual_pair("neg-vee-bot", "opp-wedge-top", "vee(~x, F)", "~x"),
    *_dual_pair("meet-pair-vee-bot", "join-pair-wedge-top", "vee(x & y, F)", "x & y"),
    *_dual_pair("meet-vee-top", "join-wedge-bot", "x & vee(y, T)", "x & vee(x, y)"),
    *_dual_pair("bot-meet-idem", "top-join-idem", "F & F", "F"),
    *_dual_pair("bot-meet-neg-pair", "top-join-opp-pair", "(F & ~x) & x", "F"),
    *_dual_pair("bot-meet-pair-neg", "top-join-pair-opp", "(F & x) & ~x", "F"),
    *_dual_pair("bot-meet-opp", "top-join-neg", "F & !x", "F"),
    *_dual_pair("bot-meet-neg-opp", "top-join-opp-neg", "F & ~!x", "F"),
    # bottom/top propagate through mixed contexts
    *_dual_pair("join-skip-bot", "meet-skip-top", "x | (F | y)", "x | y"),
    *_dual_pair("bot-meet-then-join", "top-join-then-meet", "(F & x) | y", "F | y"),
    *_dual_pair("bot-meet-abs", "top-join-abs", "(F & x) & (F | y)", "F & x"),
    *_dual_pair("bot-meet-neg-cancel", "top-join-opp-cancel", "(F & x) & ~(x & ~y)", "(F & x) & y"),
    *_dual_pair("bot-meet-mixed-neg", "top-join-mixed-opp", "F & ~(~x & !y)", "F & x"),
    *_dual_pair("meet-vee-join-arg", "join-wedge-meet-arg", "x & vee(y, x | z)", "x & ~(F & ~y)"),
    *_dual_pair("bot-absorbs-meet", "top-absorbs-join", "F & x", "F"),
    # the absorption pair in derived form
    *_dual_pair("meet-absorb-vee", "join-absorb-wedge", "x & vee(x, y)", "x & x"),
    # negation against meets of the same element
    *_dual_pair("meet-neg-collapse", "join-opp-collapse", "x & ~(x & y)", "x & ~y"),
    # written out: join-opp-restore is the dual only up to commuting |
    eq("meet-neg-restore", "x & ~(x & ~y)", "x & y"),
    eq("join-opp-restore", "x | !(!y | x)", "x | y"),
    *_dual_pair("meet-neg-self", "opp-absorb-join", "x & ~(~x & y)", "x & x"),
    *_dual_pair("neg-swallows-meet", "opp-swallows-join", "~x & ~(x & y)", "~x"),
    *_dual_pair("neg-swallows-meet3", "opp-swallows-join3", "~x & ~((x & y) & z)", "~x"),
    *_dual_pair("meet-inner-neg-bot", "join-inner-opp-top", "x & (y & ~x)", "F"),
    # three-element interactions
    *_dual_pair("meet3-neg-bot", "join3-opp-top", "((x & y) & z) & ~x", "F"),
    # written out: opp-split-cases is the dual only up to commuting |
    eq("neg-split-cases", "~(x & y) & ~(x & ~y)", "~x"),
    eq("opp-split-cases", "!(x | y) | !(!y | x)", "!x"),
    *_dual_pair("meet3-unfold", "join3-unfold", "~(~(x & (y & z)) & z) & z", "x & (y & z)"),
    *_dual_pair("neg-factor-meet", "opp-factor-join", "~(x & ~(y & z))", "~(x & ~y) & ~(x & ~z)"),
    *_dual_pair("meet3-via-neg", "join3-via-opp", "x & (~(x & ~y) & ~(x & ~z))", "(y & x) & z"),
    # associativity
    *_dual_pair("assoc-meet", "assoc-join", "x & (y & z)", "(x & y) & z"),
)

_CATALOG_IDS = [e.id for e in CATALOG]
assert len(_CATALOG_IDS) == len(set(_CATALOG_IDS)), "duplicate catalog identity id"

