"""Building double Boolean algebras out of Boolean algebras.

The central device is a pair of embedding-retraction map pairs
(r: A -> P, e: P -> A with r.e = id, and primed versions into Q): the four
dBa operations are defined by routing through the Boolean operations of P
(meet side) and Q (join side).  ``check_theorem_conditions`` evaluates the
conditions under which that construction yields a dBa, in both the original
three-condition form and the reduced two-condition form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    FiniteAlgebra, QuasiOrder, _boolean_part, _flagged_order, _integer, is_boolean_algebra,
)
from .errors import AlgebraError, ConstructionError


class BooleanView:
    """A FiniteAlgebra used as a Boolean algebra: designated operations are
    meet, join, neg (as complement), bot, top; the second negation is ignored.
    Validated against the BOOLEAN suite on construction."""

    __slots__ = ("alg",)

    def __init__(self, alg: FiniteAlgebra):
        if not is_boolean_algebra(alg):
            raise ConstructionError("designated operations do not satisfy the BOOLEAN suite")
        self.alg = alg

    @property
    def n(self):
        return self.alg.n

    @property
    def names(self):
        return self.alg.names

    def meet(self, x, y):
        return self.alg.meet.item(x, y)

    def join(self, x, y):
        return self.alg.join.item(x, y)

    def comp(self, x):
        return self.alg.neg.item(x)

    @property
    def top(self):
        return self.alg.top

    @property
    def bot(self):
        return self.alg.bot

    def leq(self, x, y):
        return self.alg.meet.item(x, y) == x


def powerset_boolean(k: int, max_atoms: int = 4) -> BooleanView:
    """The 2**k-element powerset Boolean algebra on k atoms; k and max_atoms
    follow ``_index``'s rule."""
    k, max_atoms = _index(k, "atom count"), _index(max_atoms, "max_atoms")
    if k < 0 or k > max_atoms:
        raise ConstructionError(f"atom count {k} outside [0, {max_atoms}]")
    n = 1 << k
    names = [f"s{mask}" for mask in range(n)]
    full = n - 1
    meet = [[a & b for b in range(n)] for a in range(n)]
    join = [[a | b for b in range(n)] for a in range(n)]
    comp = [full & ~a for a in range(n)]
    return BooleanView(FiniteAlgebra(names, meet, join, comp, comp, full, 0))


def _index(v, what) -> int:
    """v as an element index by ``algebra._integer``'s rule."""
    return _integer(v, what, ConstructionError, "an integer index")


@dataclass(frozen=True)
class RetractionPair:
    """Maps r: carrier -> target and e: target -> carrier with r.e = id."""

    carrier_size: int
    target: BooleanView
    r: tuple[int, ...]
    e: tuple[int, ...]

    def __post_init__(self):
        for name in ("r", "e"):  # a label is formatted for a non-int entry only
            object.__setattr__(self, name, tuple(
                v if type(v) is int else _index(v, f"{name}[{i}]")
                for i, v in enumerate(getattr(self, name))))
        if len(self.r) != self.carrier_size:
            raise ConstructionError(
                f"r must have length {self.carrier_size}, got {len(self.r)}")
        if len(self.e) != self.target.n:
            raise ConstructionError(
                f"e must have length {self.target.n}, got {len(self.e)}")
        if any(not 0 <= v < self.target.n for v in self.r):
            raise ConstructionError("r maps outside the target")
        if any(not 0 <= v < self.carrier_size for v in self.e):
            raise ConstructionError("e maps outside the carrier")
        for p in range(self.target.n):
            if self.r[self.e[p]] != p:
                raise ConstructionError(
                    f"retraction law violated: r(e({p})) = {self.r[self.e[p]]} != {p}")


def build_from_boolean_pair(
    carrier_size: int,
    p_pair: RetractionPair,
    q_pair: RetractionPair,
    names=None,
) -> FiniteAlgebra:
    """Assemble the (2,2,1,1,0,0)-algebra whose meet/neg route through P and
    whose join/opp route through Q; top is e'(top_Q), bottom e(bot_P)."""
    if p_pair.carrier_size != carrier_size or q_pair.carrier_size != carrier_size:
        raise ConstructionError("both map pairs must share the same carrier size")
    if names is None:
        names = [f"u{i}" for i in range(carrier_size)]
    elif len(names) != carrier_size:
        raise ConstructionError(
            f"names must have length {carrier_size}, the carrier size, got {len(names)}")
    p, q = p_pair.target.alg, q_pair.target.alg
    r, e, rp, ep = _maps(p_pair, q_pair)
    return FiniteAlgebra(names, e[p.meet[r[:, None], r[None, :]]],
                         ep[q.join[rp[:, None], rp[None, :]]], e[p.neg[r]], ep[q.neg[rp]],
                         ep[q.top], e[p.bot])


def _maps(p_pair: RetractionPair, q_pair: RetractionPair):
    """r, e, r', e' as index arrays."""
    return (np.array(p_pair.r, dtype=np.intp), np.array(p_pair.e, dtype=np.intp),
            np.array(q_pair.r, dtype=np.intp), np.array(q_pair.e, dtype=np.intp))


@dataclass(frozen=True)
class ConditionReport:
    version: str  # "old" (three conditions) or "new" (two)
    commuting_ok: bool      # e.r.e'.r' = e'.r'.e.r
    absorption_ok: bool     # the two mixed absorption equations
    constants_ok: bool | None  # old-version condition on the designated constants
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        base = self.commuting_ok and self.absorption_ok
        if self.version == "old":
            return base and bool(self.constants_ok)
        return base


def check_theorem_conditions(
    carrier_size: int,
    p_pair: RetractionPair,
    q_pair: RetractionPair,
    version: str = "new",
) -> ConditionReport:
    """Evaluate the representation-theorem conditions for the map pairs.

    version="new" checks the two-condition form (round-trip commuting and the
    mixed absorptions); version="old" additionally checks that the constants
    retract onto the Boolean constants.
    """
    if version not in ("old", "new"):
        raise ConstructionError(f"version must be 'old' or 'new', got {version!r}")
    if p_pair.carrier_size != carrier_size or q_pair.carrier_size != carrier_size:
        raise ConstructionError("both map pairs must share the same carrier size")
    p, q = p_pair.target.alg, q_pair.target.alg
    r, e, rp, ep = _maps(p_pair, q_pair)
    failures = []
    # first failures, as the loops over x (then y) would meet them
    bad = np.flatnonzero(e[r[ep[rp]]] != ep[rp[e[r]]])
    commuting = not bad.size
    if not commuting:
        failures.append(f"commuting: x={int(bad[0])}")
    meet_fails = (e[p.meet[r[:, None], r[ep[q.join[rp[:, None], rp[None, :]]]]]]
                  != e[r][:, None])
    join_fails = (ep[q.join[rp[:, None], rp[e[p.meet[r[:, None], r[None, :]]]]]]
                  != ep[rp][:, None])
    fails = meet_fails | join_fails
    absorption = not fails.any()
    if not absorption:
        x, y = divmod(int(fails.argmax()), carrier_size)
        side = "meet" if meet_fails[x, y] else "join"
        failures.append(f"absorption-{side}: x={x} y={y}")
    constants = None
    if version == "old":
        constants = bool(r[ep[q.top]] == p.top and rp[e[p.bot]] == q.bot)
        if not constants:
            failures.append("constants")
    return ConditionReport(version, commuting, absorption, constants, tuple(failures))


def canonical_pairs(alg: FiniteAlgebra):
    """The embedding-retraction pairs carried by a dBa itself: retract onto the
    meet/join idempotents by squaring, embed by inclusion.  Rebuilding from
    these pairs reproduces the original tables."""
    return _pairs_along(alg, np.arange(alg.n), alg.n)


def _pairs_along(alg: FiniteAlgebra, h: np.ndarray, size: int):
    """``canonical_pairs`` moved along the onto map h (an index array) from
    alg's elements to ``size`` points: r at k is r of any x with h[x] = k,
    and e is h after e.  AlgebraError if r is not constant on a fibre of h."""
    pairs = []
    for side, t in (("meet", alg.meet), ("join", alg.join)):
        part, carrier, pos = _boolean_part(alg, side)
        r, moved = pos[t.diagonal()], np.full(size, -1)
        moved[h] = r
        if (moved[h] != r).any():
            raise AlgebraError("representation retraction is not well defined")
        pairs.append(RetractionPair(size, BooleanView(part), moved.tolist(), h[carrier].tolist()))
    return tuple(pairs)


def glued_sum(p: BooleanView, q: BooleanView) -> FiniteAlgebra:
    """Stack Q on top of P, identifying top_P with bot_Q.

    By cases: meets inside P use P's meet, joins inside Q use Q's join;
    a meet with both arguments above the glue collapses to the glue, dually
    for joins below it; negation retracts everything outside P to bot_P,
    opposition everything outside Q to top_Q.  This is the generalized glued
    sum whose only shared element is top_P = bot_Q.
    """
    return generalized_glued_sum(p, q, {p.top: q.bot}).algebra


@dataclass(frozen=True)
class GeneralizedSum:
    algebra: FiniteAlgebra
    order: QuasiOrder          # the generalized linear-sum order
    p_members: frozenset       # carrier indices belonging to P
    q_members: frozenset       # carrier indices belonging to Q


def generalized_glued_sum(p: BooleanView, q: BooleanView, overlap: dict) -> GeneralizedSum:
    """Union P with Q, identifying p-element i with q-element overlap[i].

    The identification must be injective in both directions.  Operations are
    the embedding-retraction ones induced by retracting Q-only elements to
    top_P and P-only elements to bot_Q.  The returned order is the declared
    generalized linear sum: inside-P order, inside-Q order, everything in P
    below everything in Q, plus the pair (bot_Q, top_P).  It coincides with
    the algebra's own quasi-order when the carriers share at most an
    identified top_P = bot_Q glue point; with further shared elements it is
    strictly coarser (any two shared elements sit below each other), so it
    is not antisymmetric in general.
    """
    overlap = {_index(k, "overlap key"): _index(v, f"overlap[{k!r}]")
               for k, v in overlap.items()}
    if len(set(overlap.values())) != len(overlap):
        raise ConstructionError("overlap identification must be injective")
    for k, v in overlap.items():
        if not 0 <= k < p.n or not 0 <= v < q.n:
            raise ConstructionError(f"overlap pair ({k}, {v}) out of range")

    size = p.n + q.n - len(overlap)
    shared, fresh = {v: k for k, v in overlap.items()}, iter(range(p.n, size))
    ep = [shared[j] if j in shared else next(fresh) for j in range(q.n)]  # Q -> carrier
    c_to_q = {c: j for j, c in enumerate(ep)}
    r = [*range(p.n), *[p.top] * (size - p.n)]        # carrier -> P
    rp = [c_to_q.get(x, q.bot) for x in range(size)]  # carrier -> Q
    names = list(p.names)
    used = set(names)
    for j, c in enumerate(ep):
        if c >= p.n:
            nm = q.names[j]
            while nm in used:
                nm += "'"
            used.add(nm)
            names.append(nm)
    alg = build_from_boolean_pair(
        size, RetractionPair(size, p, r, range(p.n)), RetractionPair(size, q, rp, ep), names)

    rel = np.zeros((size, size), dtype=bool)
    rel[:p.n, :p.n] = p.alg.meet == np.arange(p.n)[:, None]
    rel[np.ix_(ep, ep)] |= q.alg.meet == np.arange(q.n)[:, None]
    rel[:p.n, ep] = True
    rel[ep[q.bot], p.top] = True
    return GeneralizedSum(alg, _flagged_order(rel), frozenset(range(p.n)), frozenset(ep))
