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

One kernel runs every sweep, and each round's functional prices its level
through ``OuterContent.price_level``.  Measure, envelope and supremum
rounds work on integer numerators over a common denominator, with a
``Fraction`` built only at read-out and no finite value ever in a float;
an embedded forecaster round prices each menu symbol's sections by that
symbol's rule, and any other functional node by node through ``eval_seq``.
An indicator, a constant, a capped run and a forecaster's on-rule event
are defined by an automaton alone, and the situations of one depth in one
of its states share their conditional values, so their expectations,
values along paths and running-maximum price are swept on its state
lattice; other payoffs, and every payoff's tables, on the tree, whose
leaves an automaton reaches one step per node and a table payoff reads
from its kept leaf level.  ``path_values`` sweeps once and returns a
reader that walks any path down the sweep, one node per level.

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
from itertools import chain, repeat
from typing import Callable, ClassVar, Iterable, Mapping

from gtprob import config
from gtprob.extreal import ExtReal, ONE, ZERO, _PInf, _numerators, _over, _read_out, ext
from gtprob.functionals import OutcomeSet
from gtprob.gametree import EMPTY, GameSpec, Situation, Supermartingale, format_situation

__all__ = [
    "Payoff",
    "EventWindow",
    "indicator",
    "upper_expectation",
    "lower_expectation",
    "upper_table",
    "path_values",
    "upper_probability",
    "lower_probability",
    "sup_variant_upper_expectation",
    "DeterminacyReport",
    "determinacy_check",
]


class _Leaves(dict):
    """A table payoff's leaves; a lookup runs in C, a missing leaf is named."""

    __slots__ = ()

    def __missing__(self, s: Situation):
        raise KeyError(f"payoff table has no entry for {s!r}")


class Payoff:
    """A global payoff depending on the first ``depth`` outcomes.

    Defined by a rule, by a leaf table, whose root leaf level it keeps per
    outcome order in ``_kept`` once tabulated, or by an automaton ``(start,
    step, value)``: ``step(w, n, x)`` is the state after outcome ``x`` of round
    ``n``, ``value`` the payoff of a state at ``depth``.  :func:`indicator`,
    :meth:`constant` and :meth:`leading_ones_capped` payoffs are automata.
    A payoff may settle beyond the dense cap; table materialization is guarded.
    ``event`` is the window an indicator payoff indicates, else None.
    """

    __slots__ = ("depth", "_fn", "event", "_automaton", "_kept")

    def __init__(self, depth: int, fn: Callable[[Situation], ExtReal]):
        if depth < 0:
            raise ValueError("payoff depth must be nonnegative")
        self.depth = depth
        self._fn = fn
        self.event: EventWindow | None = None
        self._automaton: tuple | None = None
        self._kept: dict | None = None

    @classmethod
    def _from_automaton(cls, depth: int, start, step, value) -> "Payoff":
        """The payoff worth ``value`` of the state the automaton ``(start, step, value)`` reaches at a leaf."""
        xi = cls(depth, None)
        xi._automaton = (start, step, value)
        return xi

    @classmethod
    def from_table(cls, values: Mapping[Situation, object], depth: int) -> "Payoff":
        """The payoff of a leaf table; its leaves never change, so its leaf level is kept once tabulated."""
        table = _Leaves((tuple(s), ext(v)) for s, v in values.items())
        for s in table:
            if len(s) != depth:
                raise ValueError(f"table key {s!r} does not have depth {depth}")
        xi = cls(depth, table.__getitem__)
        xi._kept = {}
        return xi

    @classmethod
    def constant(cls, value, depth: int) -> "Payoff":
        v = ext(value)
        return cls._from_automaton(depth, None, lambda w, n, x: w, lambda w: v)

    @classmethod
    def leading_ones_capped(cls, cap, depth: int) -> "Payoff":
        """Doubling run payoff: ``2**n`` for ``n`` leading ``"1"``
        outcomes, truncated at ``cap``.

        Needs ``2**depth >= cap`` so the all-ones leaf already tops the
        cap and the payoff genuinely depends on the first ``depth``
        coordinates only.  The check and the values cost O(log cap).
        """
        cap = Fraction(cap)
        if cap < 1:
            raise ValueError("cap must be at least 1")
        top = (cap.__ceil__() - 1).bit_length()  # the least n with 2**n >= cap
        if depth < top:
            raise ValueError(f"depth {depth} too shallow for cap {cap}")
        values = [ext(min(Fraction(2**n), cap)) for n in range(top + 1)]
        # The state is (leading ones so far, whether the run may still grow).
        step = lambda w, n, x: (w[0] + 1, True) if w[1] and x == "1" and w[0] < top else (w[0], False)
        return cls._from_automaton(depth, (0, True), step, lambda w: values[w[0]])

    def value(self, leaf: Situation) -> ExtReal:
        leaf = tuple(leaf)
        if len(leaf) != self.depth:
            raise ValueError(f"payoff is settled at depth {self.depth}, got {len(leaf)}")
        return self._fn(leaf) if self._automaton is None else self._automaton[2](self._state(leaf))

    def require_within(self, horizon: int) -> None:
        if self.depth > horizon:
            raise ValueError("payoff settles beyond the game horizon")

    def _span(self, game: GameSpec, s: Situation) -> int:
        """The depth of the leaves below ``s``, once the horizon and the cap hold."""
        self.require_within(game.horizon)
        span = self.depth - len(s)
        config.require_dense(span, what="payoff tabulation")
        return span

    def _state(self, s: Situation):
        """The automaton's state after the outcomes of ``s``."""
        state, step, _ = self._automaton
        for n, x in enumerate(s, 1):
            state = step(state, n, x)
        return state

    def _leaf_level(self, game: GameSpec, s: Situation = EMPTY) -> tuple[list[ExtReal], list, int]:
        """``(leaves, nums, den)`` below ``s`` in rank order, once the horizon and cap hold.  A table
        payoff keeps its root level per label order and slices a read below ``s`` at rank(s)*K**span;
        an automaton steps once per node of the tree below ``s``, so ``value`` meets every leaf."""
        span, outcomes = self._span(game, s), game.outcomes
        kept = None if self._kept is None else self._kept.get(outcomes.labels)
        if kept is not None:
            k = len(outcomes)
            i = sum(outcomes.index(x) * k ** (self.depth - 1 - n) for n, x in enumerate(s))  # rank(s)*K**span
            return kept[0][i : i + k**span], kept[1][i : i + k**span], kept[2]
        if self._automaton is None:
            rests = outcomes.tuples(span)
            leaves = list(map(self._fn, map(s.__add__, rests) if s else rests))
        else:
            _, step, value = self._automaton
            states, labels = [self._state(s)], outcomes.labels
            for n in range(len(s) + 1, self.depth + 1):
                states = [step(w, n, x) for w in states for x in labels]
            leaves = list(map(value, states))
        level = (leaves, *_numerators(leaves))
        if self._kept is not None and not s:
            self._kept[outcomes.labels] = level
        return level

    def _lattice(self, game: GameSpec, s: Situation) -> tuple[tuple, list[list[int]] | None]:
        """The leaf level below ``s`` (see :meth:`_leaf_level`) and, per depth from ``s`` down, each
        node's children's indices in the level below (None on the tree), once the horizon and cap hold.
        A lattice level lists its depth's states in order of first appearance in rank order."""
        if self._automaton is None:
            return self._leaf_level(game, s), None
        self._span(game, s)
        _, step, value = self._automaton
        states, kids, labels = [self._state(s)], [], game.outcomes.labels
        for n in range(len(s) + 1, self.depth + 1):
            index: dict = {}
            kids.append([index.setdefault(step(w, n, x), len(index)) for w in states for x in labels])
            states = list(index)
        leaves = [value(w) for w in states]
        return (leaves, *_numerators(leaves)), kids

    def __repr__(self) -> str:
        return f"Payoff(depth={self.depth}, event={self.event!r})"


class EventWindow:
    """An event depending only on coordinates ``start..end`` (1-indexed).

    Membership is decided by one test: an explicit accept set's
    ``__contains__`` or a predicate; predicate-backed windows can be
    arbitrarily long, since membership never lists the window's tuples.
    """

    __slots__ = ("start", "end", "_member", "label")

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
        self._member = frozenset(tuple(t) for t in accepts).__contains__ if predicate is None else predicate
        self.label = label

    @property
    def width(self) -> int:
        return self.end - self.start + 1

    def require_within(self, horizon: int) -> None:
        if self.end > horizon:
            raise ValueError("event window ends beyond the game horizon")

    def member_window(self, window: tuple[str, ...]) -> bool:
        if len(window) != self.width:
            raise ValueError(f"window tuple must have length {self.width}")
        return bool(self._member(window))

    def member(self, outcomes_prefix: Situation) -> bool:
        """Membership from a prefix of play covering the window."""
        if len(outcomes_prefix) < self.end:
            raise ValueError("prefix does not cover the event window")
        return self.member_window(tuple(outcomes_prefix[self.start - 1 : self.end]))

    def complement(self) -> "EventWindow":
        # Always a predicate window, so an accept set's complement stays
        # outcome-set agnostic and never lists the tuples it accepts.
        return EventWindow(
            self.start, self.end, predicate=lambda w: not self._member(w),
            label=f"not({self.label})" if self.label else "",
        )

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
    """The 0/1 payoff of an event, settled at its window's end; it carries the event."""
    step = lambda w, n, x: w + (x,) if n >= event.start else w  # the part of the window seen so far
    xi = Payoff._from_automaton(event.end, (), step, lambda w: ONE if event.member_window(w) else ZERO)
    xi.event = event
    return xi


# -- backward induction -------------------------------------------------
#
# A level is a list in base-K rank order: the children of node ``i`` are
# entries ``i*K .. i*K+K-1`` of the level below; on a state lattice
# (``Payoff._lattice``), the entries ``kids[d][i*K .. i*K+K-1]``.


def _sweep(
    game: GameSpec, level: tuple[list[ExtReal], list, int], top: int, bottom: int, keep: int,
    negate: bool = False, kids: list[list[int]] | None = None,
) -> list[list[ExtReal]]:
    """Back ``level = (leaves, nums, den)`` (negated if asked), the values at depth ``bottom``
    below one situation of depth ``top`` with their numerators over ``den``, up to depth ``top``:
    on the tree, or on a lattice whose child indices per depth are ``kids``.  Returns the levels
    of depths ``top..keep`` as ExtReal lists, index 0 being depth ``top``; ``level`` is only read."""
    leaves, nums, den = level
    if negate:
        nums = [-n for n in nums]
    kept = []
    for d in range(bottom, top - 1, -1):
        if d < bottom:
            level = nums if kids is None else [nums[i] for i in kids[d - top]]
            nums, den = game.content_at(d + 1).price_level(level, den)
        if d <= keep:
            kept.append(leaves if d == bottom and not negate else _read_out(nums, den))
    kept.reverse()
    return kept


def _level_values(game: GameSpec, xi: Payoff, s: Situation, negate: bool = False) -> ExtReal:
    """Upper expectation of ``xi`` at ``s``, or lower if ``negate`` (swept
    on negated numerators): the payoff itself at its depth, else the sweep
    of its tree or state lattice below ``s``."""
    s = game.validate_situation(s)
    if len(s) >= xi.depth:
        return xi.value(s[: xi.depth])
    level, kids = xi._lattice(game, s)
    v = _sweep(game, level, len(s), xi.depth, len(s), negate, kids)[0][0]
    return -v if negate else v


def upper_expectation(game: GameSpec, xi: Payoff, s: Situation = EMPTY) -> ExtReal:
    """Conditional upper expectation of ``xi`` given situation ``s``: the
    payoff itself at depth ``xi.depth``, above it the round price of the children's values."""
    return _level_values(game, xi, s)


def lower_expectation(game: GameSpec, xi: Payoff, s: Situation = EMPTY) -> ExtReal:
    """Negation dual ``-upper(-xi)``; the sweep negates the numerators."""
    return _level_values(game, xi, s, negate=True)


def upper_table(game: GameSpec, xi: Payoff) -> Supermartingale:
    """The full table of conditional upper expectations, depths 0..xi.depth.

    This is the exact cover of ``xi`` with the least start, and it prices
    its own children exactly at every node.
    """
    levels = _sweep(game, xi._leaf_level(game), 0, xi.depth, xi.depth)
    return Supermartingale(zip(game.all_situations(xi.depth), chain.from_iterable(levels)), xi.depth)


def path_values(game: GameSpec, xi: Payoff) -> Callable[[Situation], list[ExtReal]]:
    """One sweep of the state lattice if ``xi`` has one, else of the tree,
    and a reader of the values ``upper_table(game, xi)`` holds at every
    prefix of a path, which checks the path and walks it one node per level."""
    level, kids = xi._lattice(game, EMPTY)
    levels = _sweep(game, level, 0, xi.depth, xi.depth, kids=kids)
    k, index = len(game.outcomes), game.outcomes.index

    def read(path: Situation) -> list[ExtReal]:
        path, i, row = game.validate_situation(path), 0, [levels[0][0]]
        for d, x in enumerate(path[: xi.depth]):
            i = i * k + index(x) if kids is None else kids[d][i * k + index(x)]
            row.append(levels[d + 1][i])
        return row + row[-1:] * (len(path) - xi.depth)  # past the payoff's depth, the leaf's value

    return read


def upper_probability(game: GameSpec, event: EventWindow, s: Situation = EMPTY) -> ExtReal:
    return upper_expectation(game, indicator(event), s)


def lower_probability(game: GameSpec, event: EventWindow, s: Situation = EMPTY) -> ExtReal:
    """Lower probability via the negation dual, with the complement
    identity ``lower(E) = 1 - upper(E^c)`` asserted on every call."""
    low = lower_expectation(game, indicator(event), s)
    dual = ONE - upper_probability(game, event.complement(), s)
    if low != dual:
        raise AssertionError(
            f"complement identity violated at {format_situation(s, game.outcomes) or '□'}: "
            f"lower={low}, 1-upper(complement)={dual}"
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
    (_, nums, den), kids = xi._lattice(game, EMPTY)
    if float in map(type, nums):
        s = next(s for s in game.outcomes.tuples(xi.depth) if not xi.value(s).is_finite)
        at = format_situation(s, game.outcomes) or "□"
        raise ValueError(f"payoff must be finite-valued, got {xi.value(s)} at {at}")
    t = sorted({0} | {n for n in nums if n > 0})
    levels = [[n if n > tj else 0 for n in nums] for tj in t]
    for d in range(xi.depth - 1, -1, -1):
        if kids is not None:
            levels = [[level[i] for i in kids[d]] for level in levels]
        priced = [game.content_at(d + 1).price_level(level, den) for level in levels]
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
    outcomes: OutcomeSet
    depth: int
    gaps: list[tuple[Situation, ExtReal, ExtReal]] = field(default_factory=list)
    note: ClassVar[str] = "finite-horizon surrogate: determinacy certified up to the stated depth only"

    @property
    def determinate(self) -> bool:
        return not self.gaps

    def __str__(self) -> str:
        if self.determinate:
            return f"determinate at every situation up to depth {self.depth}; {self.note}"
        lines = [f"{len(self.gaps)} gap(s) up to depth {self.depth}:"]
        for s, up, low in self.gaps:
            at = format_situation(s, self.outcomes) or "□"
            lines.append(f"  {at}: upper={up}, lower={low}, gap={up - low}")
        return "\n".join(lines)


def determinacy_check(game: GameSpec, xi: Payoff, depth: int) -> DeterminacyReport:
    """List every situation up to ``depth`` where upper and lower
    expectations disagree; an empty list certifies determinacy at this
    truncation."""
    if depth < 0:
        raise ValueError("determinacy depth must be nonnegative")
    depth = min(depth, xi.depth)
    level = xi._leaf_level(game)
    up = _sweep(game, level, 0, xi.depth, depth)
    down = _sweep(game, level, 0, xi.depth, depth, negate=True)
    lows = map(ExtReal.__neg__, chain.from_iterable(down))
    gaps = [(s, u, l) for s, u, l in zip(game.all_situations(depth), chain.from_iterable(up), lows) if u != l]
    return DeterminacyReport(game.outcomes, depth, gaps)
