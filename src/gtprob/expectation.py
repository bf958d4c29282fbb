"""Exact conditional upper and lower expectations for finite-horizon payoffs.

A payoff settled after ``N`` rounds is a function of the first ``N``
outcomes.  Its conditional upper expectation at a situation ``s`` is the
least initial capital from which a bounded-below capital table can be
driven to cover the payoff on every continuation.  For such payoffs the
infimum is computed exactly by backward induction:

* at depth ``N`` the cover requirement pins the table to the payoff
  itself (any cheaper start at a leaf admits a continuation along which
  capital never recovers, by coherence of the pricing functionals);
* restricting attention to tables that stay constant after ``N`` loses
  nothing, because later play cannot help on every continuation at once;
* one round earlier the cheapest admissible value is the round's price of
  the children's values, and so on up the tree.

The resulting table prices its own children exactly at every node, i.e.
the conditional upper expectation is a martingale in the situation
argument; tests assert this identity rather than assuming it.

One kernel runs every dense sweep, and each round's functional prices
its level through ``OuterContent.price_level``.  Measure, envelope and
supremum rounds work on integer numerators over a common denominator,
with a ``Fraction`` built only at read-out and no finite value ever in a
float; any other functional is priced node by node through its own
``eval_seq``.

Lower expectation is the negation dual, swept on negated numerators.
Upper/lower probability route an event's indicator through the same
machinery; the complement identity ``lower(E) = 1 - upper(complement of
E)`` is asserted on every call.

A separate functional prices coverage in the running-maximum sense (the
capital must merely have touched the payoff's level at some time).  It is
a two-argument dynamic program over (situation, best level touched so
far), swept bottom-up through the same round step with one numerator
array per touched level and an O(T) combine per node over the T levels.
It never exceeds the terminal-coverage price.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, Mapping, Sequence

from gtprob import config
from gtprob.extreal import ExtReal, ONE, ZERO, _PInf, _numerators, _over, _read_out, ext
from gtprob.functionals import OutcomeSet
from gtprob.gametree import EMPTY, GameSpec, Situation, Supermartingale

__all__ = [
    "Payoff",
    "EventWindow",
    "indicator",
    "upper_expectation",
    "lower_expectation",
    "upper_table",
    "upper_probability",
    "lower_probability",
    "sup_variant_upper_expectation",
    "DeterminacyReport",
    "determinacy_check",
]


class Payoff:
    """A global payoff depending on the first ``depth`` outcomes.

    Backed by either an explicit leaf table or a rule; rule-backed payoffs
    can live beyond the dense cap, table materialization is guarded.
    ``event`` is the window an :func:`indicator` payoff indicates, None
    for every other payoff.
    """

    __slots__ = ("depth", "_fn", "event")

    def __init__(self, depth: int, fn: Callable[[Situation], ExtReal], event: EventWindow | None = None):
        if depth < 0:
            raise ValueError("payoff depth must be nonnegative")
        self.depth = depth
        self._fn = fn
        self.event = event

    @classmethod
    def from_table(cls, values: Mapping[Situation, object], depth: int) -> "Payoff":
        table = {tuple(s): ext(v) for s, v in values.items()}
        for s in table:
            if len(s) != depth:
                raise ValueError(f"table key {s!r} does not have depth {depth}")

        def fn(s: Situation) -> ExtReal:
            try:
                return table[s]
            except KeyError:
                raise KeyError(f"payoff table has no entry for {s!r}")

        return cls(depth, fn)

    @classmethod
    def from_rule(cls, fn: Callable[[Situation], ExtReal], depth: int) -> "Payoff":
        return cls(depth, fn)

    @classmethod
    def constant(cls, value, depth: int) -> "Payoff":
        v = ext(value)
        return cls(depth, lambda s: v)

    @classmethod
    def leading_ones_capped(cls, cap, depth: int) -> "Payoff":
        """Doubling run payoff: ``2**n`` for ``n`` leading ``"1"``
        outcomes, truncated at ``cap``.

        Needs ``2**depth >= cap`` so the all-ones leaf already tops the
        cap and the payoff genuinely depends on the first ``depth``
        coordinates only.
        """
        cap = Fraction(cap)
        if cap < 1:
            raise ValueError("cap must be at least 1")
        if Fraction(2) ** depth < cap:
            raise ValueError(f"depth {depth} too shallow for cap {cap}")
        values = [ext(min(Fraction(2**n), cap)) for n in range(depth + 1)]

        def fn(s: Situation) -> ExtReal:
            n = 0
            for x in s:
                if x != "1":
                    break
                n += 1
            return values[n]

        return cls(depth, fn)

    def value(self, leaf: Situation) -> ExtReal:
        leaf = tuple(leaf)
        if len(leaf) != self.depth:
            raise ValueError(f"payoff is settled at depth {self.depth}, got {len(leaf)}")
        return self._fn(leaf)

    def negate(self) -> "Payoff":
        return Payoff(self.depth, lambda s: -self._fn(s))

    def shifted(self, c) -> "Payoff":
        d = ext(c)
        return Payoff(self.depth, lambda s: self._fn(s) + d)

    def leaf_values(self, game: GameSpec, s: Situation = EMPTY) -> list[ExtReal]:
        """The payoff at every leaf below ``s``, in rank order, once the horizon and cap hold."""
        if self.depth > game.horizon:
            raise ValueError("payoff settles beyond the game horizon")
        span = self.depth - len(s)
        config.require_dense(span, what="payoff tabulation")
        fn = self._fn
        return [fn(s + rest) for rest in game.outcomes.tuples(span)]

    def __repr__(self) -> str:
        return f"Payoff(depth={self.depth}, event={self.event!r})"


class EventWindow:
    """An event depending only on coordinates ``start..end`` (1-indexed).

    Membership is decided by an explicit accept set of coordinate tuples or
    by a predicate; predicate-backed windows can be arbitrarily long,
    materialization is guarded.
    """

    __slots__ = ("start", "end", "_accepts", "_pred", "label")

    def __init__(
        self,
        start: int,
        end: int,
        accepts: Iterable[tuple[str, ...]] | None = None,
        predicate: Callable[[tuple[str, ...]], bool] | None = None,
        label: str = "",
    ):
        if start < 1 or end < start:
            raise ValueError(f"need 1 <= start <= end, got [{start}, {end}]")
        if (accepts is None) == (predicate is None):
            raise ValueError("give exactly one of accepts or predicate")
        self.start = start
        self.end = end
        self._accepts = None if accepts is None else frozenset(tuple(t) for t in accepts)
        self._pred = predicate
        self.label = label

    @property
    def width(self) -> int:
        return self.end - self.start + 1

    def member_window(self, window: tuple[str, ...]) -> bool:
        if len(window) != self.width:
            raise ValueError(f"window tuple must have length {self.width}")
        if self._accepts is not None:
            return window in self._accepts
        return bool(self._pred(window))

    def member(self, outcomes_prefix: Situation) -> bool:
        """Membership from a prefix of play covering the window."""
        if len(outcomes_prefix) < self.end:
            raise ValueError("prefix does not cover the event window")
        return self.member_window(tuple(outcomes_prefix[self.start - 1 : self.end]))

    def accepts(self, outcomes: OutcomeSet) -> frozenset:
        if self._accepts is not None:
            return self._accepts
        config.require_dense(self.width, what="event materialization")
        return frozenset(t for t in outcomes.tuples(self.width) if self._pred(t))

    def complement(self) -> "EventWindow":
        # Always a predicate window, so an accept set's complement stays
        # outcome-set agnostic and is materialized lazily.
        member = self._pred if self._accepts is None else self._accepts.__contains__
        return EventWindow(
            self.start, self.end, predicate=lambda w: not member(w),
            label=f"not({self.label})" if self.label else "",
        )

    @staticmethod
    def union(events: Sequence["EventWindow"]) -> "EventWindow":
        """Union on the combined window (smallest covering both ends)."""
        if not events:
            raise ValueError("union of no events")
        start = min(e.start for e in events)
        end = max(e.end for e in events)

        def pred(window: tuple[str, ...]) -> bool:
            return any(
                e.member_window(window[e.start - start : e.end - start + 1]) for e in events
            )

        return EventWindow(start, end, predicate=pred, label="union")

    @classmethod
    def whole_space(cls) -> "EventWindow":
        return cls(1, 1, predicate=lambda w: True, label="omega")

    @classmethod
    def empty(cls) -> "EventWindow":
        return cls(1, 1, predicate=lambda w: False, label="empty")

    @classmethod
    def coordinate_is(cls, index: int, label: str) -> "EventWindow":
        return cls(index, index, accepts=[(label,)], label=f"w{index}={label}")

    def __repr__(self) -> str:
        name = f" {self.label!r}" if self.label else ""
        return f"EventWindow([{self.start}, {self.end}]{name})"


def indicator(event: EventWindow) -> Payoff:
    """The 0/1 payoff of an event, settled at the window's end."""

    def fn(s: Situation) -> ExtReal:
        return ONE if event.member(s) else ZERO

    return Payoff(event.end, fn, event)


# -- backward induction -------------------------------------------------
#
# A level is a list in base-K rank order: the children of node ``i`` are
# entries ``i*K .. i*K+K-1`` of the level below.


def _sweep(
    game: GameSpec, leaves: list[ExtReal], top: int, bottom: int, keep: int, negate: bool = False
) -> list[list[ExtReal]]:
    """Back ``leaves`` (negated if asked), the values at depth ``bottom``
    below one situation of depth ``top``, up to depth ``top``.  Returns
    the levels of depths ``top..keep`` as ExtReal lists, index 0 being
    depth ``top``."""
    k = len(game.outcomes)
    nums, den = _numerators(leaves)
    if negate:
        nums = [-n for n in nums]
    kept = []
    for d in range(bottom, top - 1, -1):
        if d < bottom:
            nums, den = game.content_at(d + 1).price_level(k, nums, den)
        if d <= keep:
            kept.append(leaves if d == bottom and not negate else _read_out(nums, den))
    kept.reverse()
    return kept


def _level_values(game: GameSpec, xi: Payoff, s: Situation, negate: bool = False) -> ExtReal:
    """Backward induction over the subtree below ``s``, of ``-xi`` if
    ``negate``."""
    leaves = xi.leaf_values(game, s)
    return _sweep(game, leaves, len(s), xi.depth, len(s), negate)[0][0]


def upper_expectation(game: GameSpec, xi: Payoff, s: Situation = EMPTY) -> ExtReal:
    """Conditional upper expectation of ``xi`` given situation ``s``.

    At depth ``xi.depth`` this is the payoff itself; above it, the round
    price of the children's values.
    """
    s = game.validate_situation(s)
    if len(s) >= xi.depth:
        return xi.value(s[: xi.depth])
    return _level_values(game, xi, s)


def lower_expectation(game: GameSpec, xi: Payoff, s: Situation = EMPTY) -> ExtReal:
    """Negation dual ``-upper(-xi)``; the sweep negates the numerators."""
    s = game.validate_situation(s)
    if len(s) >= xi.depth:
        return xi.value(s[: xi.depth])
    return -_level_values(game, xi, s, negate=True)


def upper_table(game: GameSpec, xi: Payoff) -> Supermartingale:
    """The full table of conditional upper expectations, depths 0..xi.depth.

    This is the exact cover of ``xi`` with the least start, and it prices
    its own children exactly at every node.
    """
    leaves = xi.leaf_values(game)
    levels = _sweep(game, leaves, 0, xi.depth, xi.depth)
    table: dict[Situation, ExtReal] = {}
    for d in range(xi.depth, -1, -1):
        table.update(zip(game.outcomes.tuples(d), levels[d]))
    return Supermartingale(table, xi.depth)


def upper_probability(game: GameSpec, event: EventWindow, s: Situation = EMPTY) -> ExtReal:
    return upper_expectation(game, indicator(event), s)


def lower_probability(game: GameSpec, event: EventWindow, s: Situation = EMPTY) -> ExtReal:
    """Lower probability via the negation dual, with the complement
    identity ``lower(E) = 1 - upper(E^c)`` asserted on every call."""
    low = lower_expectation(game, indicator(event), s)
    dual = ONE - upper_probability(game, event.complement(), s)
    if low != dual:
        raise AssertionError(
            f"complement identity violated at {s!r}: lower={low}, 1-upper(complement)={dual}"
        )
    return low


# -- running-maximum coverage ---------------------------------------------


def sup_variant_upper_expectation(game: GameSpec, xi: Payoff) -> ExtReal:
    """Least start of a nonnegative capital table whose running maximum
    reaches the payoff's level on every path.

    The state is (situation, best level already touched), and only the
    touched levels ``t`` (0, then the payoff's positive values, in
    increasing order) matter.  At touched level ``theta`` a node is worth
    the least ``c`` with ``c >= G(max(theta, level of c))``, ``G(j)`` being
    the round's price of the children at touched level ``j``.  The sweep
    runs bottom-up with one numerator array per touched level, each
    priced by the round's ``price_level``, and resolves every node for all T
    levels in O(T): ``max(0, G(theta))`` if ``G(theta) < t[theta]``, else
    ``W(theta)``, where ``W(j) = max(t[j], G(j))`` if ``G(j) < t[j+1]``
    or ``j`` is the top level, and ``W(j+1)`` otherwise.  This assumes no
    monotonicity of the round prices.

    Terminal-coverage price always dominates this one.  Payoffs must be
    finite-valued; nonpositive levels are covered for free because capital
    is nonnegative.
    """
    span = xi.depth
    leaves = xi.leaf_values(game)
    for s, v in zip(game.outcomes.tuples(span), leaves):
        if not v.is_finite:
            raise ValueError(f"payoff must be finite-valued, got {v} at {s!r}")
    nums, den = _numerators(leaves)
    t = sorted({0} | {n for n in nums if n > 0})
    levels = [[n if n > tj else 0 for n in nums] for tj in t]
    k = len(game.outcomes)
    for d in range(span - 1, -1, -1):
        priced = [game.content_at(d + 1).price_level(k, level, den) for level in levels]
        g, den = _over(priced + [(t, den)])
        t = g.pop()
        above, w = _PInf, repeat(_PInf)
        for j in range(len(t) - 1, -1, -1):
            tj = t[j]
            w = [(x if x > tj else tj) if x < above else y for x, y in zip(g[j], w)]
            levels[j] = [(x if x > 0 else 0) if x < tj else y for x, y in zip(g[j], w)]
            above = tj
    return _read_out(levels[0], den)[0]


# -- determinacy -----------------------------------------------------------


@dataclass
class DeterminacyReport:
    depth: int
    gaps: list[tuple[Situation, ExtReal, ExtReal]] = field(default_factory=list)
    note: str = "finite-horizon surrogate: determinacy certified up to the stated depth only"

    @property
    def determinate(self) -> bool:
        return not self.gaps

    def __str__(self) -> str:
        if self.determinate:
            return f"determinate at every situation up to depth {self.depth}; {self.note}"
        lines = [f"{len(self.gaps)} gap(s) up to depth {self.depth}:"]
        for s, up, low in self.gaps:
            lines.append(f"  {s!r}: upper={up}, lower={low}, gap={up - low}")
        return "\n".join(lines)


def determinacy_check(game: GameSpec, xi: Payoff, depth: int) -> DeterminacyReport:
    """List every situation up to ``depth`` where upper and lower
    expectations disagree; an empty list certifies determinacy at this
    truncation."""
    if depth > xi.depth:
        depth = xi.depth
    leaves = xi.leaf_values(game)
    up = _sweep(game, leaves, 0, xi.depth, depth)
    down = _sweep(game, leaves, 0, xi.depth, depth, negate=True)
    report = DeterminacyReport(depth=depth)
    for d in range(depth + 1):
        for s, u, neg_l in zip(game.outcomes.tuples(d), up[d], down[d]):
            l = -neg_l
            if u != l:
                report.gaps.append((s, u, l))
    return report
