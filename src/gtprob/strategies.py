"""Executable strategy constructions on verified capital tables.

Two engines turn oscillation of a process into capital growth:

* :func:`doob_upcrossing` (additive): mirror a base table's increments
  until it first exceeds ``b``, freeze until it first drops below ``a``,
  repeat.  While frozen after the k-th upcross the capital is at least
  ``b + (k-1)(b-a)``; while moving again it is at least ``k(b-a)``.

* :func:`levy_strategy` (multiplicative): wait until the conditional
  upper expectation of a payoff drops below ``a``, then ride the exact
  conditional-expectation table multiplicatively until it exceeds ``b``,
  repeat.  Capital at the k-th exit is at least ``(b/a)**k``; in
  dyadic-slack mode the ride starts from a witness padded by
  ``2**-(depth+1)`` and the growth floor becomes the product of
  ``b / (a + 2**-depth_j)`` over entries.

Both engines emit the alternating entry/exit cuts they generated so the
phase bounds can be checked from the outside, and both output tables that
pass :func:`gtprob.gametree.verify_supermartingale`.

:func:`mixture` combines finitely many upcross constructions over one
base with weights ``2**-i``.  Its certificate recomputes every increment
in the pooled weight form (a single nonnegative multiple of the base
increment), which establishes the supermartingale property without any
appeal to countable subadditivity of the pricing functionals.

All three run top-down in level order (base-K rank within a level) on
integer numerators over one denominator, as the kernel in
:mod:`gtprob.expectation` does, and build a ``Fraction`` once per value
at read-out.  A Lévy ride telescopes: its capital is a factor fixed at
entry times the ridden witness, one step rule for table and path trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Callable, Iterator, Sequence

from gtprob.extreal import ExtReal, INF, ONE, ZERO, _NInf, _PInf, _numerators, _read_out, ext, scale
from gtprob.functionals import OutcomeSet, _int_round
from gtprob.gametree import (
    EMPTY,
    Cut,
    GameSpec,
    Situation,
    Supermartingale,
    format_situation,
    verify_supermartingale,
)
from gtprob.expectation import Payoff, _sweep

__all__ = [
    "enumerate_rationals",
    "enumerate_intervals",
    "CutTrace",
    "require_band",
    "DoobResult",
    "doob_upcrossing",
    "LevyResult",
    "levy_strategy",
    "LevyTraceStep",
    "levy_capital_trace",
    "MixtureResult",
    "mixture",
]


def enumerate_rationals() -> Iterator[Fraction]:
    """All nonnegative rationals, canonical form, ordered by numerator plus
    denominator and then numerator: 0, 1, 1/2, 2, 1/3, 3, 1/4, 2/3, ..."""
    total = 1
    while True:
        for p in range(total):
            q = total - p
            if gcd(p, q) == 1:
                yield Fraction(p, q)
        total += 1


def enumerate_intervals(count: int) -> list[tuple[Fraction, Fraction]]:
    """First ``count`` intervals ``(a, b)`` with ``0 <= a < b``, both
    rational, in a fixed order.

    Rationals are enumerated as above; interval index pairs ``(i, j)`` run
    along diagonals ``i + j = d`` with ``i`` ascending, emitting the pair
    whenever ``r_i < r_j``.  Deterministic and injective, and every such
    interval appears at some finite index.
    """
    gen = enumerate_rationals()
    rats, out = [next(gen)], []
    while len(out) < count:
        rats.append(next(gen))
        d = len(rats) - 1
        out += [(rats[i], rats[d - i]) for i in range(d + 1) if rats[i] < rats[d - i]]
    return out[:count]


@dataclass
class CutTrace:
    """Alternating entry/exit cuts produced by a construction.

    For the additive engine ``tau[0]`` is the start cut, ``sigma[k]`` the
    k-th upcross cut and ``tau[k]`` the k-th drop cut.  For the
    multiplicative engine ``tau[k]`` is the k-th entry cut and
    ``sigma[k]`` the k-th exit cut (index 0 unused there).
    """

    sigma: list[Cut] = field(default_factory=list)
    tau: list[Cut] = field(default_factory=list)

    def to_json(self, fmt: Callable[[Situation], str]) -> dict:
        return {
            "sigma": [[fmt(s) for s in cut] for cut in self.sigma],
            "tau": [[fmt(s) for s in cut] for cut in self.tau],
        }


def require_band(a: Fraction, b: Fraction, slack: str = "none") -> None:
    """The constructions' band ``0 <= a < b`` and the Lévy ride's slack mode."""
    if not (0 <= a < b):
        raise ValueError(f"need 0 <= a < b, got ({a}, {b})")
    if slack not in ("none", "dyadic"):
        raise ValueError(f"slack must be 'none' or 'dyadic', got {slack!r}")


def _cut_trace(sigma: dict[int, set[Situation]], tau: dict[int, set[Situation]]) -> CutTrace:
    cycles = max(list(sigma) + list(tau) + [0])
    return CutTrace(
        sigma=[Cut(sigma.get(k, set())) for k in range(cycles + 1)],
        tau=[Cut(tau.get(k, set())) for k in range(cycles + 1)],
    )


@dataclass
class DoobResult:
    table: Supermartingale
    trace: CutTrace
    active: frozenset[Situation]
    base: Supermartingale
    game: GameSpec


def doob_upcrossing(
    game: GameSpec,
    base: Supermartingale,
    a: Fraction,
    b: Fraction,
    origin: Situation = EMPTY,
    *,
    check_base: bool = True,
) -> DoobResult:
    """Additive upcross capture of the ``(a, b)`` band for a positive base
    table normalized to 1 at ``origin``.

    Off the origin's subtree the table is ``+inf``.  Within it, the result
    mirrors the base's increments while hunting an upcross and freezes
    while hunting the next drop; each completed upcross banks at least
    ``b - a``.  One pass runs down the origin's subtree with the base,
    ``a`` and ``b`` over one denominator.
    """
    a, b = Fraction(a), Fraction(b)
    require_band(a, b)
    origin = game.validate_situation(origin)
    if base.value(origin) != ONE:
        raise ValueError(f"base must be 1 at the origin, got {base.value(origin)}")
    if check_base:
        if base.min_value() < ZERO:
            raise ValueError("base table must be nonnegative")
        res = verify_supermartingale(game, base)
        if not res.ok:
            raise ValueError(f"base table fails verification at {res.witness_str(game.outcomes)}")

    k, span = len(game.outcomes), base.depth - len(origin)
    sits = [origin + t for t in chain.from_iterable(map(game.outcomes._level, range(span + 1)))]
    nums, den = _numerators(list(map(base.value, sits)) + [ExtReal(a), ExtReal(b)])
    an, bn = nums[-2:]
    # The phase p is odd while hunting upcross (p + 1) // 2 and even while
    # hunting drop p // 2; the base is 1 at the origin.  In level order the
    # children of node g are nodes g*K+1 .. g*K+K.
    sigma: dict[int, set[Situation]] = {1: {origin}} if b < 1 else {}
    tau: dict[int, set[Situation]] = {0: {origin}}
    phases, active = ([2], set()) if b < 1 else ([1], {origin})
    caps = [den]
    for g in range((len(sits) - 1) // k):
        v, p, bs = caps[g], phases[g], nums[g]
        moving = p & 1 and v.__class__ is int
        for c in range(g * k + 1, g * k + k + 1):
            bx, q = nums[c], p
            if not moving:
                x = v
            elif bx.__class__ is int and bs.__class__ is int:
                x = v + bx - bs
            else:
                x = _PInf if _PInf in (bx, -bs) else _NInf
            if q & 1:
                if bx > bn:
                    sigma.setdefault((q + 1) // 2, set()).add(sits[c])
                    q += 1
            elif bx < an:
                tau.setdefault(q // 2, set()).add(sits[c])
                q += 1
            if q & 1 and x.__class__ is int:
                active.add(sits[c])
            caps.append(x)
            phases.append(q)

    table = dict.fromkeys(base.table, INF)
    table.update(zip(sits, _read_out(caps, den)))
    return DoobResult(Supermartingale(table, base.depth), _cut_trace(sigma, tau), frozenset(active), base, game)


# -- multiplicative engine -------------------------------------------------


@dataclass
class LevyResult:
    table: Supermartingale
    trace: CutTrace
    shift: Fraction
    halted: frozenset[Situation]
    # The conditional upper expectations of the shifted payoff it rode.
    cond_table: Supermartingale


def _levy_shift(nums: list, den: int) -> Fraction:
    """Shift constant making a payoff with leaf numerators ``nums`` over ``den`` nonnegative.

    Payoffs that are already nonnegative are not shifted, so entry and exit
    react to the payoff's own conditional values; otherwise the least leaf
    value minus one is subtracted, making the shifted payoff strictly
    positive.
    """
    m = min(nums)
    if m == _NInf:
        raise ValueError("payoff must be bounded below")
    return Fraction(0) if m >= 0 else Fraction(m, den) - 1


class _LevyMachine:
    """Shared entry/ride/exit state machine.

    Conditional upper expectations of the shifted payoff arrive as
    numerators over one denominator ``den`` that also carries ``a``, ``b``
    and every dyadic pad.  In dyadic mode the ridden witness is the
    conditional plus ``2**-(entry depth + 1)``, which keeps it strictly
    positive and within the padded start bound; in plain mode the witness
    is the conditional itself and a ride that reaches a worthless witness
    halts on the spot (capital stays put on that subtree).

    A ride telescopes: its capital is ``F * w`` for the witness ``w`` and
    the factor ``F`` = capital / witness at entry.  Past the entry a
    riding capital is held as the int numerator of ``w`` and becomes a
    ``Fraction`` only in :meth:`value`; every other capital is an ExtReal.
    A state is ``(mode, cycle, pad numerator, F)``.
    """

    def __init__(self, a: Fraction, b: Fraction, slack: str):
        require_band(a, b, slack)
        self.a, self.b = a, b
        self.dyadic = slack == "dyadic"
        self.sigma: dict[int, set[Situation]] = {}
        self.tau: dict[int, set[Situation]] = {}
        self.halted: set[Situation] = set()

    def numerators(self, conds: list[ExtReal], depth: int) -> list:
        """``conds`` over one denominator with ``a``, ``b`` and the pads of
        entries down to ``depth``."""
        pads = [ExtReal(Fraction(1, 2 ** (depth + 1)))] if self.dyadic else []
        nums, self.den = _numerators(conds + [ExtReal(self.a), ExtReal(self.b)] + pads)
        self.an, self.bn = nums[len(conds) : len(conds) + 2]
        return nums[: len(conds)]

    def step(self, state, cap, c, cx, sx: Situation):
        """State, capital and event at the child ``sx`` of a node holding
        ``state``, ``cap`` and conditional numerator ``c``; ``cx`` is the
        child's.  From the start state (``c`` unused) it settles the root."""
        mode, k, dn, f = state
        if mode == "halted":
            return state, cap, None
        if mode == "riding" and (cap.__class__ is int or cap.is_finite):
            if c + dn == 0:
                self.halted.add(sx)
                return ("halted", k, 0, None), self.value(state, cap), None
            cap = cx + dn if cx.__class__ is int else scale(f, INF)
        event = None
        if mode == "waiting" and cx < self.an:
            k += 1
            self.tau.setdefault(k, set()).add(sx)
            dn = self.den >> (len(sx) + 1) if self.dyadic else 0
            f = cap.finite * self.den / (cx + dn) if cap.is_finite and cx + dn else None
            mode, state, event = "riding", ("riding", k, dn, f), ("enter", k)
        if mode == "riding" and cx > self.bn - dn:
            # An entry whose padded witness already tops the bar exits on
            # the spot; re-entry resumes below.
            self.sigma.setdefault(k, set()).add(sx)
            event = ("exit", k) if event is None else ("enter+exit", k)
            return ("waiting", k, 0, None), self.value(state, cap), event
        return state, cap, event

    def value(self, state, cap) -> ExtReal:
        if cap.__class__ is not int:
            return cap
        f = state[3]
        return ExtReal(Fraction(f._numerator * cap, f._denominator * self.den))


def _require_nonnegative(nums, conds: list[ExtReal], sits: list[Situation], outcomes: OutcomeSet) -> None:
    """A ride follows nonnegative conditionals only; name the first
    negative one, in ``sits`` order, with its value."""
    for i, c in enumerate(nums):
        if c < 0:
            where = format_situation(sits[i], outcomes) or "□"
            raise AssertionError(f"{where}: conditional upper expectation {conds[i]} is negative")


def levy_strategy(
    game: GameSpec,
    xi: Payoff,
    a: Fraction,
    b: Fraction,
    slack: str = "none",
) -> LevyResult:
    """Full-tree multiplicative ride on the conditional expectations of a
    bounded-below payoff.

    Starts at 1; enters whenever the conditional upper expectation of the
    shifted payoff drops below ``a``; rides the exact conditional table
    (padded in dyadic mode) until it exceeds ``b``; repeats.  The output is
    positive, passes verification, and its value at the k-th exit cut
    carries the stated product floor.  The first negative conditional, in
    level order, raises ``AssertionError``.
    """
    a, b = Fraction(a), Fraction(b)
    leaves, nums, den = xi._leaf_level(game)
    shift = _levy_shift(nums, den)
    if shift:
        lift = int(-shift * den)
        nums = [n if n.__class__ is float else n + lift for n in nums]
        leaves = _read_out(nums, den)
    depth, k = xi.depth, len(game.outcomes)
    conds = _sweep(game, (leaves, nums, den), 0, depth, depth)
    machine = _LevyMachine(a, b, slack)
    sits, flat = list(game.all_situations()), list(chain.from_iterable(conds))
    nums = machine.numerators(flat, depth)
    _require_nonnegative(nums, flat, sits, game.outcomes)
    # In level order the children of node g are nodes g*K+1 .. g*K+K.
    state, cap, _ = machine.step(("waiting", 0, 0, None), ONE, None, nums[0], EMPTY)
    states, caps = [state], [cap]
    for g in range((len(nums) - 1) // k):
        st, cp, c = states[g], caps[g], nums[g]
        for x in range(g * k + 1, g * k + k + 1):
            st_x, cp_x, _ = machine.step(st, cp, c, nums[x], sits[x])
            states.append(st_x)
            caps.append(cp_x)
    values = list(map(machine.value, states, caps))
    # Beyond the payoff depth the ride has nothing to follow; keep constant.
    for g in range(len(values), len(sits)):
        values.append(values[(g - 1) // k])
    # The result keeps both tables; keyed by the same situation tuples,
    # the conditional one costs its dict and values only.
    return LevyResult(
        Supermartingale(zip(sits, values), game.horizon),
        _cut_trace(machine.sigma, machine.tau),
        shift,
        frozenset(machine.halted),
        Supermartingale(zip(sits, flat), depth),
    )


@dataclass
class LevyTraceStep:
    n: int
    situation: Situation
    capital: ExtReal
    conditional: ExtReal
    event: tuple[str, int] | None


def levy_capital_trace(
    game: GameSpec,
    path: Sequence[str],
    a: Fraction,
    b: Fraction,
    slack: str = "none",
    *,
    cond: Callable[[Situation], ExtReal],
) -> list[LevyTraceStep]:
    """Capital of the multiplicative ride along a single path.

    Path-local: never materializes the tree, so it works beyond the dense
    cap.  ``cond`` returns the conditional upper expectations the ride
    follows, already shifted to be nonnegative (for a dense game,
    ``levy_strategy(...).cond_table.value``).  Steps through the same rule
    as :func:`levy_strategy`, refusing the first negative conditional on the path.
    """
    path = game.validate_situation(tuple(path))
    machine = _LevyMachine(Fraction(a), Fraction(b), slack)
    sits = [path[:n] for n in range(len(path) + 1)]
    conds = [cond(s) for s in sits]
    nums = machine.numerators(conds, len(path))
    _require_nonnegative(nums, conds, sits, game.outcomes)
    state, cap, steps = ("waiting", 0, 0, None), ONE, []
    for n, s in enumerate(sits):
        state, cap, event = machine.step(state, cap, nums[n - 1], nums[n], s)
        steps.append(LevyTraceStep(n, s, machine.value(state, cap), conds[n], event))
    return steps


# -- weighted mixtures -------------------------------------------------------


@dataclass
class MixtureResult:
    table: Supermartingale
    truncation_bound: ExtReal
    note: str


def mixture(parts: Sequence[DoobResult]) -> MixtureResult:
    """Weighted sum ``sum_i 2**-i * part_i`` over finitely many parts.

    Each part is an upcross construction (:func:`doob_upcrossing`), all
    of them share one base, and the sum walks the game the parts were
    built on, in its level order, under the tree-sweep depth cap.  The
    supermartingale property of the sum is certified directly: wherever
    the sum is finite, each increment is recomputed as (pooled weight) *
    (base increment) with a pooled weight in [0, 1], so the certificate
    needs nothing beyond the base being a supermartingale.  The report
    carries the bound ``2**-I`` on what truncating the series at index I
    discards at the start, for omitted parts that start at 1.

    The parts and the base share one denominator ``D``; the sum is held
    over ``D * 2**I`` and each increment is compared with the pooled
    weight's numerator times the base increment, as integers.
    """
    if not parts:
        raise ValueError("mixture needs at least one part")
    for p in parts:
        if not isinstance(p, DoobResult):
            raise TypeError(f"cannot mix in {type(p).__name__}")
        if p.base is not parts[0].base and p.base.table != parts[0].base.table:
            raise ValueError("upcross parts must share one base table")
    tables = [p.table for p in parts]
    depth, keys = tables[0].depth, tables[0].table.keys()
    for t in tables[1:]:
        if t.depth != depth or t.table.keys() != keys:
            raise ValueError("mixture parts must share the same game tree")

    # Level order over the parts' game: node g's children are nodes
    # g*K+1 .. g*K+K.  Each node holds its parts' numerators, then the
    # base's; one weighted round sums them under the extended-real
    # conventions, the base at weight 0.
    game, n = parts[0].game, len(tables)
    sits = list(game.all_situations(depth))
    cols = [t.table for t in tables] + [parts[0].base.table]
    flat, den = _numerators([t[s] for s in sits for t in cols])
    weights = [1 << (n - 1 - i) for i in range(n)]
    sums = _int_round([weights + [0]], flat, n + 1)
    den <<= n
    combined = dict.fromkeys(keys)
    combined.update(zip(sits, _read_out(sums, den)))

    # Increment certificate in the pooled-weight form.
    k, moves = len(game.outcomes), flat[n :: n + 1]
    inner = sits[: len(sits) - k**depth]
    pooled = _int_round([weights], [int(s in p.active) for s in inner for p in parts], n)
    for g, p in enumerate(pooled):
        cs, bs = sums[g], moves[g]
        if cs.__class__ is float or bs.__class__ is float:
            continue
        for c in range(g * k + 1, g * k + k + 1):
            cx, bx = sums[c], moves[c]
            if cx.__class__ is float or bx.__class__ is float or cx - cs == p * (bx - bs):
                continue
            got, expected = Fraction(cx - cs, den), Fraction(p * (bx - bs), den)
            at, to = (format_situation(sits[i], game.outcomes) for i in (g, c))
            raise AssertionError(f"increment certificate failed at {at or '□'}->{to}: {got} != {expected}")

    bound = ext(Fraction(1, 2 ** len(tables)))
    note = (
        f"series truncated at {len(tables)} parts; omitted tail starts below "
        f"{bound} (weight 2**-{len(tables)} times the omitted parts' start bound)"
    )
    return MixtureResult(Supermartingale(combined, depth), bound, note)
