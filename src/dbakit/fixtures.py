"""Named built-in algebras used across the test corpus and the CLI.

* ``singleton``        -- the one-element algebra; satisfies every suite.
* ``boolean2``         -- the two-element Boolean algebra with the complement
                          duplicated into both negation slots.
* ``cex-5ab``          -- two-element algebra separating the double-negation
                          axioms: it satisfies DCORE13 minus {5a, 5b} and
                          fails exactly 5a and 5b.
* ``chain3``           -- glued sum of two two-element Boolean algebras; the
                          smallest pure trivial dBa with bot < mid < top.
* ``gdcore-not-dcore`` -- three-element algebra passing GDCORE11 but failing
                          the absorption axioms 3a/3b.
* ``noncontextual4``   -- chain3 with the middle element doubled; a dBa whose
                          quasi-order is not antisymmetric (mid and mid2 sit
                          below/above each other), so the filter/ideal
                          representation map is not injective on it.
"""

from __future__ import annotations

from .algebra import FiniteAlgebra
from .constructions import glued_sum, powerset_boolean


def singleton() -> FiniteAlgebra:
    return FiniteAlgebra(["e"], [[0]], [[0]], [0], [0], 0, 0)


def boolean2() -> FiniteAlgebra:
    return FiniteAlgebra(
        ["0", "1"],
        [[0, 0], [0, 1]],
        [[0, 1], [1, 1]],
        [1, 0],
        [1, 0],
        1, 0,
    )


def cex_5ab() -> FiniteAlgebra:
    # a = bottom, b = top; both negations are constant maps.
    a, b = 0, 1
    return FiniteAlgebra(
        ["a", "b"],
        [[a, a], [a, b]],
        [[a, b], [b, b]],
        [a, a],
        [b, b],
        b, a,
    )


def chain3() -> FiniteAlgebra:
    return glued_sum(powerset_boolean(1), powerset_boolean(1)).renamed(
        ["bot", "mid", "top"])


def gdcore_not_dcore() -> FiniteAlgebra:
    a, b, c = 0, 1, 2
    return FiniteAlgebra(
        ["a", "b", "c"],
        [[a, c, b], [c, b, a], [b, a, c]],
        [[c, b, c], [b, b, b], [c, b, c]],
        [a, c, b],
        [b, c, b],
        b, a,
    )


def noncontextual4() -> FiniteAlgebra:
    """chain3 plus a clone of mid: every table treats mid2 exactly like mid and
    no operation ever outputs mid2, so all dBa identities survive while
    mid <= mid2 <= mid makes the order fail antisymmetry."""
    base = chain3()
    bot, mid, top = 0, 1, 2
    proxy = [bot, mid, top, mid]  # each element, mid2 last, as the one of chain3 it acts as
    meet, join = (t[proxy][:, proxy] for t in (base.meet, base.join))
    return FiniteAlgebra(["bot", "mid", "top", "mid2"], meet, join,
                         base.neg[proxy], base.opp[proxy], top, bot)


def builtin_fixtures() -> list[tuple[str, FiniteAlgebra]]:
    """Name/algebra pairs, in a fixed order."""
    return [
        ("singleton", singleton()),
        ("boolean2", boolean2()),
        ("cex-5ab", cex_5ab()),
        ("chain3", chain3()),
        ("gdcore-not-dcore", gdcore_not_dcore()),
        ("noncontextual4", noncontextual4()),
    ]


def get_fixture(name: str) -> FiniteAlgebra:
    for nm, alg in builtin_fixtures():
        if nm == name:
            return alg
    raise KeyError(name)
