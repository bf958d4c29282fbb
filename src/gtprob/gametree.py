"""Situation trees for the basic prediction game.

The game: a bettor announces initial capital, then each round offers a
gamble priced by that round's functional (the price may not exceed current
capital), the world picks an outcome, and the gamble's payoff at that
outcome becomes the new capital.  A situation is the finite sequence of
outcomes played so far; the empty situation is the root.

A supermartingale is a capital table ``S`` on situations with
``E_n(S(s .)) <= S(s)`` at every node, where ``E_n`` prices round
``n = |s| + 1`` and ``S(s .)`` is the gamble of children values.  Tables
here are truncated at a finite depth with constant continuation beyond it
(the do-nothing move keeps capital by normalization), and a check covers
the truncated depths only, which its result records as its depth.

Tables are dense: all ``K**N`` nodes are materialized, guarded by the caps
in :mod:`gtprob.config`.  ``+inf`` entries are legal and propagate by the
extended-real conventions; the subtree relocations below rely on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from gtprob import config
from gtprob.extreal import ExtReal, INF, ZERO, _numerators, _over, _read_out, ext, scale
from gtprob.functionals import Gamble, OutcomeSet, OuterContent

__all__ = [
    "Situation",
    "EMPTY",
    "is_prefix",
    "format_situation",
    "parse_situation",
    "Cut",
    "GameSpec",
    "Supermartingale",
    "Strategy",
    "BudgetViolation",
    "capital_process",
    "VerifyResult",
    "verify_supermartingale",
    "translate_strategy",
    "shift_strategy",
    "stop_when_covered",
]

Situation = tuple[str, ...]
EMPTY: Situation = ()


def is_prefix(s: Situation, t: Situation) -> bool:
    """True when ``s`` is a (not necessarily strict) prefix of ``t``."""
    return len(s) <= len(t) and t[: len(s)] == s


def format_situation(s: Situation, outcomes: OutcomeSet) -> str:
    """Serialize a situation; "" is the root.

    Single-character outcome labels concatenate ("101"); otherwise labels
    are comma-joined.
    """
    return outcomes.sep.join(s)


def parse_situation(text: str, outcomes: OutcomeSet) -> Situation:
    if text == "":
        return EMPTY
    parts = tuple(text.split(outcomes.sep)) if outcomes.sep else tuple(text)
    for lab in parts:
        if lab not in outcomes:
            raise ValueError(f"situation {text!r} uses unknown outcome {lab!r}")
    return parts


class Cut:
    """A finite set of pairwise incomparable situations."""

    __slots__ = ("members",)

    def __init__(self, members: Iterable[Situation]):
        members = frozenset(tuple(m) for m in members)
        for t in members:
            for k in range(len(t)):
                if t[:k] in members:
                    raise ValueError(f"cut members must be pairwise incomparable: {t[:k]} < {t}")
        self.members = members

    def __iter__(self) -> Iterator[Situation]:
        return iter(sorted(self.members, key=lambda s: (len(s), s)))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, s: Situation) -> bool:
        return tuple(s) in self.members

    def __eq__(self, other) -> bool:
        return isinstance(other, Cut) and self.members == other.members

    def __repr__(self) -> str:
        return f"Cut({sorted(self.members, key=lambda s: (len(s), s))!r})"


class GameSpec:
    """A finite-horizon prediction game: outcome set, per-round pricing
    functionals, and a horizon.

    ``contents`` is kept as given: a 1-tuple of the functional shared by every
    round, or one functional per round ``1..horizon``.  The horizon may exceed
    the dense cap; only operations that enumerate whole levels enforce it.
    """

    def __init__(
        self,
        outcomes: OutcomeSet,
        contents: OuterContent | Sequence[OuterContent],
        horizon: int,
        *,
        outcome_cap: int | None = None,
    ):
        if horizon < 1:
            raise ValueError("horizon must be a positive integer")
        config.require_outcomes(len(outcomes), outcome_cap)
        if isinstance(contents, OuterContent):
            per_round = (contents,)
            self.depth_independent = True
        else:
            per_round = tuple(contents)
            if len(per_round) != horizon:
                raise ValueError("need one pricing functional per round 1..horizon")
            self.depth_independent = all(c == per_round[0] for c in per_round)
        for c in per_round:
            if c.outcomes != outcomes:
                raise ValueError("every pricing functional must live on the game's outcome set")
        self.outcomes = outcomes
        self.contents = per_round
        self.horizon = horizon

    def content_at(self, n: int) -> OuterContent:
        """The functional pricing round ``n`` (1-indexed)."""
        if not 1 <= n <= self.horizon:
            raise ValueError(f"round {n} outside 1..{self.horizon}")
        return self.contents[min(n, len(self.contents)) - 1]

    def all_situations(self, max_depth: int | None = None) -> Iterator[Situation]:
        """All situations of depth 0..max_depth (default horizon), by level."""
        top = self.horizon if max_depth is None else max_depth
        config.require_dense(top, what="tree sweep")
        return chain.from_iterable(map(self.outcomes.tuples, range(top + 1)))

    def require_depth_independent(self, what: str) -> None:
        if not self.depth_independent:
            raise ValueError(f"{what} needs the same pricing functional at every round")

    def validate_situation(self, s: Situation) -> Situation:
        s = tuple(s)
        if len(s) > self.horizon:
            raise ValueError(f"situation of depth {len(s)} outside horizon {self.horizon}")
        for lab in s:
            if lab not in self.outcomes:
                raise ValueError(f"situation uses unknown outcome {lab!r}")
        return s

    def __repr__(self) -> str:
        kind = type(self.contents[0]).__name__
        return (
            f"GameSpec(|X|={len(self.outcomes)}, horizon={self.horizon}, "
            f"content={kind}{'' if self.depth_independent else ' per-round'})"
        )


class Supermartingale:
    """A capital table on situations up to a depth, constant beyond it.

    The defining inequality is checked by :func:`verify_supermartingale`,
    never assumed.
    """

    __slots__ = ("table", "depth")

    def __init__(self, table: Mapping[Situation, ExtReal], depth: int):
        self.table = dict(table)
        self.depth = depth

    @classmethod
    def from_fn(
        cls, game: GameSpec, fn: Callable[[Situation], ExtReal], depth: int | None = None
    ) -> "Supermartingale":
        d = game.horizon if depth is None else depth
        return cls({s: fn(s) for s in game.all_situations(d)}, d)

    @classmethod
    def constant(cls, game: GameSpec, value, depth: int | None = None) -> "Supermartingale":
        d = game.horizon if depth is None else depth
        return cls(dict.fromkeys(game.all_situations(d), ext(value)), d)

    def require_within(self, horizon: int) -> None:
        if self.depth > horizon:
            raise ValueError("table is deeper than the game horizon")

    def value(self, s: Situation) -> ExtReal:
        s = tuple(s)
        if len(s) > self.depth:
            s = s[: self.depth]
        try:
            return self.table[s]
        except KeyError:
            raise KeyError(f"table has no entry for situation {s!r}")

    def min_value(self) -> ExtReal:
        return min(self.table.values())

    def __repr__(self) -> str:
        return f"Supermartingale(depth={self.depth}, {len(self.table)} nodes)"


@dataclass
class Strategy:
    """Initial capital plus a move rule.

    The rule receives the current situation and capital and returns the
    gamble for the next round; the gamble's price must not exceed capital,
    which :func:`capital_process` enforces as it plays.
    """

    initial: ExtReal
    rule: Callable[[Situation, ExtReal], Gamble]

    @classmethod
    def do_nothing(cls, game: GameSpec, initial=1) -> "Strategy":
        return cls(ext(initial), lambda s, k: Gamble.constant(game.outcomes, k))

    @classmethod
    def double_on(cls, game: GameSpec, label: str, initial=1) -> "Strategy":
        """Stake everything on ``label`` at double-or-nothing odds."""

        def rule(s: Situation, k: ExtReal) -> Gamble:
            values = {
                lab: scale(2, k) if lab == label else ZERO for lab in game.outcomes.labels
            }
            return Gamble.of(game.outcomes, values)

        return cls(ext(initial), rule)


class BudgetViolation(ValueError):
    """A strategy offered a gamble priced above its current capital."""

    def __init__(self, situation: Situation, price: ExtReal, capital: ExtReal):
        self.situation = situation
        self.price = price
        self.capital = capital
        super().__init__(
            f"at situation {situation!r}: gamble priced {price} exceeds capital {capital}"
        )


def capital_process(game: GameSpec, strat: Strategy, path: Sequence[str]) -> list[ExtReal]:
    """Play a strategy along a path and return capitals ``K_0..K_n``.

    Raises :class:`BudgetViolation` at the first round whose gamble is
    priced above the current capital.
    """
    path = game.validate_situation(tuple(path))
    capitals = [strat.initial]
    s: Situation = EMPTY
    for n, x in enumerate(path, start=1):
        f = strat.rule(s, capitals[-1])
        price = game.content_at(n).eval(f)
        if price > capitals[-1]:
            raise BudgetViolation(s, price, capitals[-1])
        capitals.append(f[x])
        s = s + (x,)
    return capitals


@dataclass
class VerifyResult:
    ok: bool
    martingale: bool
    witness: tuple[Situation, ExtReal, ExtReal] | None
    checked_depth: int

    def witness_str(self, outcomes: OutcomeSet) -> str:
        if self.witness is None:
            return ""
        s, lhs, rhs = self.witness
        name = format_situation(s, outcomes) or "□"
        return f"{name}: {lhs} > {rhs}"


def verify_supermartingale(game: GameSpec, sm: Supermartingale) -> VerifyResult:
    """Check ``E_n(S(s .)) <= S(s)`` at every interior node of the table.

    Runs top-down one level at a time: the round's ``price_level`` prices
    the children's numerators, and the prices are compared with the parent
    numerators over one denominator per pair of levels.  Returns the
    first violation in (depth, rank) order as a witness rather than
    raising, with the price that sweep computed.
    A second flag reports whether equality holds everywhere (a martingale).
    The depth cap holds on the interior levels, checked before the first.
    """
    sm.require_within(game.horizon)
    top = sm.depth
    config.require_dense(top - 1, what="level sweep")
    equality = True
    children = [sm.value(EMPTY)]
    below = _numerators(children)
    for d in range(top):
        content = game.content_at(d + 1)
        parents, above = children, below
        try:
            children = list(map(sm.table.__getitem__, game.outcomes.tuples(d + 1)))
        except KeyError:
            children = [sm.value(s) for s in game.outcomes.tuples(d + 1)]
        below = _numerators(children)
        (lhs, rhs), den = _over([content.price_level(*below), above])
        for i, (a, b) in enumerate(zip(lhs, rhs)):
            if a > b:
                s = next(islice(game.outcomes.tuples(d), i, None))
                return VerifyResult(False, False, (s, _read_out([a], den)[0], parents[i]), top)
            if a != b:
                equality = False
    return VerifyResult(True, equality, None, top)


def translate_strategy(sm: Supermartingale, s: Situation, t: Situation) -> Supermartingale:
    """Relocate the capital table below ``s`` to sit below ``t``.

    The result is ``S'(t v) = S(s v)`` with ``+inf`` everywhere off the
    ``t`` subtree (infinite capital prices any round, so the inequality
    holds trivially there).  Requires ``|s| = |t|`` so per-round pricing
    stays aligned; the result then verifies whenever the input does.
    """
    s, t = tuple(s), tuple(t)
    if len(s) != len(t):
        raise ValueError(f"translate needs equal depths, got {len(s)} and {len(t)}")
    table = dict.fromkeys(sm.table, INF)
    table.update((t + u[len(s) :], v) for u, v in sm.table.items() if is_prefix(s, u))
    return Supermartingale(table, sm.depth)


def shift_strategy(game: GameSpec, sm: Supermartingale, s: Situation) -> Supermartingale:
    """Replay a root-based table below ``s``: ``S'(s t) = S(t)``, ``+inf``
    off the ``s`` subtree.

    Sound only when every round is priced by the same functional, which is
    checked; with per-round functionals the replayed inequalities would be
    checked against the wrong round.
    """
    game.require_depth_independent("shift")
    s = game.validate_situation(s)
    depth = min(game.horizon, len(s) + sm.depth)
    table = dict.fromkeys(game.all_situations(depth), INF)
    table.update((s + t, sm.value(t)) for t in game.all_situations(depth - len(s)))
    return Supermartingale(table, depth)


def stop_when_covered(sm: Supermartingale, level: ExtReal) -> Supermartingale:
    """Freeze the table on the subtree below the first situation whose
    value exceeds ``level``; elsewhere follow the table.

    Stopping keeps the supermartingale property (frozen subtrees are
    constants, kept by normalization) and converts coverage of a level at
    some time into coverage at the truncation depth.
    """
    level = ext(level)
    frozen: set[Situation] = set()
    table: dict[Situation, ExtReal] = {}
    # Parents first, each level in table order; a node below a frozen one is frozen too.
    for u in sorted(sm.table, key=len):
        if u[:-1] in frozen:
            table[u] = table[u[:-1]]
            frozen.add(u)
            continue
        v = table[u] = sm.table[u]
        if v > level:
            frozen.add(u)
    return Supermartingale(table, sm.depth)
