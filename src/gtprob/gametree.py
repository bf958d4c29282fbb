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
(the do-nothing move keeps capital by normalization), and every report
states the check only covers the truncated depths.

Tables are dense: all ``K**N`` nodes are materialized, guarded by the caps
in :mod:`gtprob.config`.  ``+inf`` entries are legal and propagate by the
extended-real conventions; the subtree relocations below rely on them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from gtprob import config
from gtprob.extreal import ExtReal, INF, ZERO, _numerators, _over, ext, scale
from gtprob.functionals import Gamble, OutcomeSet, OuterContent

__all__ = [
    "Situation",
    "EMPTY",
    "Relation",
    "relation",
    "is_prefix",
    "format_situation",
    "parse_situation",
    "Cut",
    "cut_le",
    "in_cut_interval",
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

TRUNCATION_NOTE = (
    "finite-horizon surrogate: the table is truncated and continues as a "
    "constant beyond its depth; checks cover the truncated depths only"
)


class Relation(enum.Enum):
    EQUAL = "equal"
    STRICT_PREFIX = "strict-prefix"
    STRICT_EXTENSION = "strict-extension"
    INCOMPARABLE = "incomparable"


def relation(s: Situation, t: Situation) -> Relation:
    """Classify the prefix relation between two situations."""
    if s == t:
        return Relation.EQUAL
    if len(s) < len(t) and t[: len(s)] == s:
        return Relation.STRICT_PREFIX
    if len(t) < len(s) and s[: len(t)] == t:
        return Relation.STRICT_EXTENSION
    return Relation.INCOMPARABLE


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

    def member_above(self, s: Situation) -> Situation | None:
        """The unique cut member that is a prefix of ``s``, if any."""
        for k in range(len(s) + 1):
            if s[:k] in self.members:
                return s[:k]
        return None

    def __iter__(self) -> Iterator[Situation]:
        return iter(sorted(self.members, key=lambda s: (len(s), s)))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, s: Situation) -> bool:
        return tuple(s) in self.members

    def __eq__(self, other) -> bool:
        return isinstance(other, Cut) and self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"Cut({sorted(self.members, key=lambda s: (len(s), s))!r})"


def cut_le(sigma: Cut, tau: Cut) -> bool:
    """Cut order: every comparable pair has the sigma member first."""
    for s in sigma.members:
        for t in tau.members:
            if is_prefix(t, s) and s != t:
                return False
    return True


def in_cut_interval(u: Situation, lo: Cut, hi: Cut, *, hi_closed: bool = True) -> bool:
    """Membership of ``u`` in a cut time-interval.

    With both ends closed this is: some prefix of ``u`` (including ``u``)
    lies in ``lo``, and no strict prefix of ``u`` lies in ``hi``.  Opening
    the upper end moves the ``hi`` test from strict prefixes to all
    prefixes.
    """
    if not any(u[:k] in lo.members for k in range(len(u) + 1)):
        return False
    hi_prefixes = range(len(u)) if hi_closed else range(len(u) + 1)
    if any(u[:k] in hi.members for k in hi_prefixes):
        return False
    return True


class GameSpec:
    """A finite-horizon prediction game: outcome set, per-round pricing
    functionals, and a horizon.

    ``contents`` may be a single functional (shared by every round) or one
    functional per round ``1..horizon``.  The horizon may exceed the dense
    cap; only operations that enumerate whole levels enforce it.
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
        cap = config.OUTCOME_CAP if outcome_cap is None else outcome_cap
        if len(outcomes) > cap:
            raise ValueError(
                f"outcome set of size {len(outcomes)} exceeds the cap {cap}"
            )
        if isinstance(contents, OuterContent):
            per_round = (contents,) * horizon
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
        return self.contents[n - 1]

    def all_situations(self, max_depth: int | None = None):
        """All situations of depth 0..max_depth (default horizon), by level."""
        top = self.horizon if max_depth is None else max_depth
        config.require_dense(top, what="tree sweep")
        for d in range(top + 1):
            yield from self.outcomes.tuples(d)

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
        table = {s: fn(s) for s in game.all_situations(d)}
        return cls(table, d)

    @classmethod
    def constant(cls, game: GameSpec, value, depth: int | None = None) -> "Supermartingale":
        v = ext(value)
        return cls.from_fn(game, lambda s: v, depth)

    def value(self, s: Situation) -> ExtReal:
        s = tuple(s)
        if len(s) > self.depth:
            s = s[: self.depth]
        try:
            return self.table[s]
        except KeyError:
            raise KeyError(f"table has no entry for situation {s!r}")

    def __add__(self, other: "Supermartingale") -> "Supermartingale":
        if self.depth != other.depth or self.table.keys() != other.table.keys():
            raise ValueError("tables must share the same node set to add")
        return Supermartingale(
            {s: v + other.table[s] for s, v in self.table.items()}, self.depth
        )

    def scaled(self, c: Fraction) -> "Supermartingale":
        c = Fraction(c)
        return Supermartingale({s: scale(c, v) for s, v in self.table.items()}, self.depth)

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
    note: str = TRUNCATION_NOTE

    def witness_str(self, outcomes: OutcomeSet) -> str:
        if self.witness is None:
            return ""
        s, lhs, rhs = self.witness
        name = format_situation(s, outcomes) or "□"
        return f"{name}: {lhs} > {rhs}"

    def __str__(self) -> str:
        if self.ok:
            kind = "martingale" if self.martingale else "supermartingale"
            return f"ok ({kind} up to depth {self.checked_depth}); {self.note}"
        s, lhs, rhs = self.witness
        return f"violated at {s!r}: price of children {lhs} > value {rhs}"


def verify_supermartingale(game: GameSpec, sm: Supermartingale) -> VerifyResult:
    """Check ``E_n(S(s .)) <= S(s)`` at every interior node of the table.

    Runs top-down one level at a time: the round's ``price_level`` prices
    the children's numerators, and the prices are compared with the parent
    numerators over one denominator per pair of levels.  Returns the
    first violation in (depth, rank) order as a witness rather than
    raising, its price recomputed by ``eval_seq`` on that node's children.
    A second flag reports whether equality holds everywhere (a martingale).
    """
    if sm.depth > game.horizon:
        raise ValueError("table is deeper than the game horizon")
    top, k, labels = sm.depth, len(game.outcomes), game.outcomes.labels
    equality = True
    children = [sm.value(EMPTY)]
    below = _numerators(children)
    for d in range(top):
        content = game.content_at(d + 1)
        config.require_dense(d, what="level sweep")
        parents, above = children, below
        try:
            children = list(map(sm.table.__getitem__, game.outcomes.tuples(d + 1)))
        except KeyError:
            children = [sm.value(s) for s in game.outcomes.tuples(d + 1)]
        below = _numerators(children)
        (lhs, rhs), _ = _over([content.price_level(k, *below), above])
        for i, (a, b) in enumerate(zip(lhs, rhs)):
            if a > b:
                s = tuple(labels[i // k ** (d - 1 - j) % k] for j in range(d))
                price = content.eval_seq(children[i * k : (i + 1) * k])
                return VerifyResult(False, False, (s, price, parents[i]), top)
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
    table = {u: INF for u in sm.table}
    for u, v in sm.table.items():
        if is_prefix(s, u):
            table[t + u[len(s) :]] = v
    return Supermartingale(table, sm.depth)


def shift_strategy(game: GameSpec, sm: Supermartingale, s: Situation) -> Supermartingale:
    """Replay a root-based table below ``s``: ``S'(s t) = S(t)``, ``+inf``
    off the ``s`` subtree.

    Sound only when every round is priced by the same functional, which is
    checked; with per-round functionals the replayed inequalities would be
    checked against the wrong round.
    """
    if not game.depth_independent:
        raise ValueError("shift needs the same pricing functional at every round")
    s = game.validate_situation(s)
    depth = min(game.horizon, len(s) + sm.depth)
    table: dict[Situation, ExtReal] = {}
    for u in game.all_situations(depth):
        if is_prefix(s, u):
            table[u] = sm.value(u[len(s) :])
        else:
            table[u] = INF
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
    # Parents come first, and a node below a frozen one is frozen too.
    for u in sorted(sm.table, key=lambda s: (len(s), s)):
        if u[:-1] in frozen:
            table[u] = table[u[:-1]]
            frozen.add(u)
            continue
        v = table[u] = sm.table[u]
        if v > level:
            frozen.add(u)
    return Supermartingale(table, sm.depth)
