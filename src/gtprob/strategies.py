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

:func:`mixture` combines finitely many constructed tables with weights
``2**-i``.  Its certificate recomputes every increment in the pooled
weight form (a single nonnegative multiple of the base increment), which
establishes the supermartingale property without any appeal to countable
subadditivity of the pricing functionals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, Sequence

from gtprob.extreal import ExtReal, INF, ONE, ZERO, ext, scale
from gtprob.gametree import (
    EMPTY,
    Cut,
    GameSpec,
    Situation,
    Supermartingale,
    is_prefix,
    verify_supermartingale,
)
from gtprob.expectation import Payoff, upper_table

__all__ = [
    "enumerate_rationals",
    "enumerate_intervals",
    "CutTrace",
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
    rats: list[Fraction] = []
    gen = enumerate_rationals()

    def rat(n: int) -> Fraction:
        while len(rats) <= n:
            rats.append(next(gen))
        return rats[n]

    out: list[tuple[Fraction, Fraction]] = []
    d = 1
    while len(out) < count:
        for i in range(d + 1):
            j = d - i
            if i == j:
                continue
            a, b = rat(i), rat(j)
            if a < b:
                out.append((a, b))
                if len(out) == count:
                    break
        d += 1
    return out


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


@dataclass
class DoobResult:
    table: Supermartingale
    trace: CutTrace
    active: frozenset[Situation]
    base: Supermartingale
    interval: tuple[Fraction, Fraction]
    origin: Situation


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
    ``b - a``.
    """
    a, b = Fraction(a), Fraction(b)
    if not (0 <= a < b):
        raise ValueError(f"need 0 <= a < b, got ({a}, {b})")
    origin = game.validate_situation(origin)
    if base.value(origin) != ONE:
        raise ValueError(f"base must be 1 at the origin, got {base.value(origin)}")
    if check_base:
        if base.min_value() < ZERO:
            raise ValueError("base table must be nonnegative")
        res = verify_supermartingale(game, base)
        if not res.ok:
            raise ValueError(f"base table fails verification: {res}")

    ea, eb = ext(a), ext(b)
    values: dict[Situation, ExtReal] = {}
    # phase: ("active", k) hunting the k-th upcross, or ("frozen", k)
    # hunting the k-th drop.
    phases: dict[Situation, tuple[str, int]] = {}
    sigma: dict[int, set[Situation]] = {}
    tau: dict[int, set[Situation]] = {0: {origin}}
    active: set[Situation] = set()

    def settle(s: Situation, phase: tuple[str, int]) -> tuple[str, int]:
        kind, k = phase
        v = base.value(s)
        if kind == "active" and v > eb:
            sigma.setdefault(k, set()).add(s)
            return ("frozen", k)
        if kind == "frozen" and v < ea:
            tau.setdefault(k, set()).add(s)
            return ("active", k + 1)
        return phase

    values[origin] = ONE
    phases[origin] = settle(origin, ("active", 1))
    if phases[origin][0] == "active" and values[origin].is_finite:
        active.add(origin)

    for s in sorted(base.table, key=lambda u: (len(u), u)):
        if len(s) >= base.depth:
            continue
        if not is_prefix(origin, s):
            continue
        for x in game.outcomes.labels:
            sx = s + (x,)
            kind, _k = phases[s]
            if kind == "active" and values[s].is_finite:
                values[sx] = values[s] + base.value(sx) - base.value(s)
            else:
                values[sx] = values[s]
            phases[sx] = settle(sx, phases[s])
            if phases[sx][0] == "active" and values[sx].is_finite:
                active.add(sx)

    table = {u: values.get(u, INF) for u in base.table}
    cycles = max(
        [k for k in sigma] + [k for k in tau if k > 0] + [0]
    )
    trace = CutTrace(
        sigma=[Cut(sigma.get(k, set())) for k in range(cycles + 1)],
        tau=[Cut(tau.get(k, set())) for k in range(cycles + 1)],
    )
    return DoobResult(
        Supermartingale(table, base.depth), trace, frozenset(active), base, (a, b), origin
    )


# -- multiplicative engine -------------------------------------------------


@dataclass
class LevyResult:
    table: Supermartingale
    trace: CutTrace
    shift: Fraction
    slack: str
    halted: frozenset[Situation]
    # The conditional upper expectations of the shifted payoff it rode.
    cond_table: Supermartingale


def _levy_shift(game: GameSpec, xi: Payoff, depth_cap: int | None) -> Fraction:
    """Shift constant making the payoff nonnegative.

    Payoffs that are already nonnegative are not shifted, so entry and exit
    react to the payoff's own conditional values; otherwise the least leaf
    value minus one is subtracted, making the shifted payoff strictly
    positive.
    """
    values = xi.leaf_values(game, depth_cap)
    if any(v.is_neg_inf for v in values):
        raise ValueError("payoff must be bounded below")
    finite = [v.finite for v in values if v.is_finite]
    if not finite:
        return Fraction(0)
    m = min(finite)
    return Fraction(0) if m >= 0 else m - 1


class _LevyMachine:
    """Shared entry/ride/exit state machine.

    ``cond`` returns the conditional upper expectation of the shifted
    payoff.  In dyadic mode the ridden witness is the conditional plus
    ``2**-(entry depth + 1)``, which keeps it strictly positive and within
    the padded start bound; in plain mode the witness is the conditional
    itself and a ride that reaches a worthless witness halts on the spot
    (capital stays put on that subtree).
    """

    def __init__(self, cond: Callable[[Situation], ExtReal], a: Fraction, b: Fraction, slack: str):
        if not (0 <= a < b):
            raise ValueError(f"need 0 <= a < b, got ({a}, {b})")
        if slack not in ("none", "dyadic"):
            raise ValueError(f"slack must be 'none' or 'dyadic', got {slack!r}")
        self.cond = cond
        self.ea, self.eb = ext(Fraction(a)), ext(Fraction(b))
        self.slack = slack
        self.sigma: dict[int, set[Situation]] = {}
        self.tau: dict[int, set[Situation]] = {}
        self.halted: set[Situation] = set()

    def start(self, s: Situation):
        """State at the root: (mode, cycle, entry, delta, event)."""
        return self._settle(s, ("waiting", 0, None, None))

    def _settle(self, s: Situation, state):
        mode, k, entry, delta = state
        event = None
        if mode == "waiting":
            if self.cond(s) < self.ea:
                k += 1
                self.tau.setdefault(k, set()).add(s)
                entry = s
                delta = (
                    ext(Fraction(1, 2 ** (len(s) + 1))) if self.slack == "dyadic" else ZERO
                )
                mode = "riding"
                event = ("enter", k)
                # Degenerate immediate exit: the padded witness already
                # tops the bar.  Exit on the spot; re-entry resumes below.
                if self.cond(s) + delta > self.eb:
                    self.sigma.setdefault(k, set()).add(s)
                    mode, entry, delta = "waiting", None, None
                    event = ("enter+exit", k)
        elif mode == "riding":
            if self.cond(s) + delta > self.eb:
                self.sigma.setdefault(k, set()).add(s)
                mode, entry, delta = "waiting", None, None
                event = ("exit", k)
        return (mode, k, entry, delta), event

    def step(self, s: Situation, state, capital: ExtReal, sx: Situation):
        """Capital and state for the child ``sx`` of ``s``."""
        mode, k, entry, delta = state
        new_cap = capital
        if mode == "riding" and capital.is_finite:
            w_here = self.cond(s) + delta
            if w_here == ZERO:
                self.halted.add(sx)
            else:
                ratio = capital.finite / w_here.finite
                new_cap = scale(ratio, self.cond(sx) + delta)
        if mode == "halted" or sx in self.halted:
            return new_cap, ("halted", k, None, None), None
        new_state, event = self._settle(sx, state)
        return new_cap, new_state, event

    def trace(self) -> CutTrace:
        cycles = max(list(self.sigma) + list(self.tau) + [0])
        return CutTrace(
            sigma=[Cut(self.sigma.get(i, set())) for i in range(cycles + 1)],
            tau=[Cut(self.tau.get(i, set())) for i in range(cycles + 1)],
        )


def levy_strategy(
    game: GameSpec,
    xi: Payoff,
    a: Fraction,
    b: Fraction,
    slack: str = "none",
    depth_cap: int | None = None,
) -> LevyResult:
    """Full-tree multiplicative ride on the conditional expectations of a
    bounded-below payoff.

    Starts at 1; enters whenever the conditional upper expectation of the
    shifted payoff drops below ``a``; rides the exact conditional table
    (padded in dyadic mode) until it exceeds ``b``; repeats.  The output is
    positive, passes verification, and its value at the k-th exit cut
    carries the stated product floor.
    """
    a, b = Fraction(a), Fraction(b)
    shift = _levy_shift(game, xi, depth_cap)
    shifted = xi if shift == 0 else xi.shifted(-shift)
    cond_table = upper_table(game, shifted, depth_cap)
    machine = _LevyMachine(cond_table.value, a, b, slack)

    values: dict[Situation, ExtReal] = {EMPTY: ONE}
    states: dict[Situation, tuple] = {}
    states[EMPTY], _ = machine.start(EMPTY)
    for s in game.all_situations(game.horizon - 1, depth_cap):
        cap = values[s]
        st = states[s]
        for x in game.outcomes.labels:
            sx = s + (x,)
            if len(sx) > cond_table.depth:
                values[sx] = cap
                states[sx] = st
                continue
            new_cap, new_state, _event = machine.step(s, st, cap, sx)
            values[sx] = new_cap
            states[sx] = new_state
    # Beyond the payoff depth the ride has nothing to follow; keep constant.
    for s in game.all_situations(game.horizon, depth_cap):
        if s not in values:
            values[s] = values[s[:-1]]
    # The result keeps both tables; keyed by the same situation tuples,
    # the conditional one costs its dict and values only.
    cond = cond_table.table
    cond_table = Supermartingale({s: cond[s] for s in values if s in cond}, cond_table.depth)
    return LevyResult(
        Supermartingale(values, game.horizon),
        machine.trace(),
        shift,
        slack,
        frozenset(machine.halted),
        cond_table,
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
    xi: Payoff | None = None,
    cond: Callable[[Situation], ExtReal] | None = None,
    shift: Fraction | None = None,
    depth_cap: int | None = None,
) -> list[LevyTraceStep]:
    """Capital of the multiplicative ride along a single path.

    Path-local: never materializes the tree, so it works beyond the dense
    cap.  Provide either the payoff (conditionals are then computed, dense
    caps apply) or a ``cond`` callable returning conditional upper
    expectations of the unshifted payoff together with its ``shift``
    (defaults to 0 for nonnegative payoffs).
    """
    path = game.validate_situation(tuple(path))
    if cond is None:
        if xi is None:
            raise ValueError("need a payoff or a cond callable")
        c = _levy_shift(game, xi, depth_cap) if shift is None else Fraction(shift)
        shifted = xi if c == 0 else xi.shifted(-c)
        table = upper_table(game, shifted, depth_cap)
        cond_fn = table.value
    else:
        c = Fraction(0) if shift is None else Fraction(shift)
        if c == 0:
            cond_fn = cond
        else:
            cond_fn = lambda s: cond(s) - ext(c)

    machine = _LevyMachine(cond_fn, Fraction(a), Fraction(b), slack)
    state, event = machine.start(EMPTY)
    steps = [LevyTraceStep(0, EMPTY, ONE, cond_fn(EMPTY), event)]
    s: Situation = EMPTY
    cap = ONE
    for n, x in enumerate(path, start=1):
        sx = s + (x,)
        cap, state, event = machine.step(s, state, cap, sx)
        steps.append(LevyTraceStep(n, sx, cap, cond_fn(sx), event))
        s = sx
    return steps


# -- weighted mixtures -------------------------------------------------------


@dataclass
class MixtureResult:
    table: Supermartingale
    truncation_bound: ExtReal
    parts: int
    note: str

    def __str__(self) -> str:
        return f"mixture of {self.parts} parts; {self.note}"


def mixture(
    parts: Sequence[DoobResult | Supermartingale],
    omitted_start_sup: Fraction | int = 1,
) -> MixtureResult:
    """Weighted sum ``sum_i 2**-i * part_i`` over finitely many parts.

    Parts are upcross constructions over one shared base, or constant
    tables (which contribute nothing to increments).  The supermartingale
    property of the sum is certified directly: wherever the sum is finite,
    each increment is recomputed as (pooled weight) * (base increment)
    with a pooled weight in [0, 1], so the certificate needs nothing
    beyond the base being a supermartingale.  The report carries the bound
    ``2**-I * omitted_start_sup`` on what truncating the series at index
    I discards at the start.
    """
    if not parts:
        raise ValueError("mixture needs at least one part")
    tables: list[Supermartingale] = []
    activities: list[frozenset[Situation]] = []
    base: Supermartingale | None = None
    for p in parts:
        if isinstance(p, DoobResult):
            tables.append(p.table)
            activities.append(p.active)
            if base is None:
                base = p.base
            elif base is not p.base and base.table != p.base.table:
                raise ValueError("upcross parts must share one base table")
        elif isinstance(p, Supermartingale):
            first = next(iter(p.table.values()))
            if any(v != first for v in p.table.values()):
                raise ValueError(
                    "plain tables in a mixture must be constant; build others via doob_upcrossing"
                )
            tables.append(p)
            activities.append(frozenset())
        else:
            raise TypeError(f"cannot mix in {type(p).__name__}")
    depth = tables[0].depth
    keys = tables[0].table.keys()
    for t in tables[1:]:
        if t.depth != depth or t.table.keys() != keys:
            raise ValueError("mixture parts must share the same game tree")

    weights = [Fraction(1, 2**i) for i in range(1, len(tables) + 1)]
    combined: dict[Situation, ExtReal] = {}
    for s in keys:
        acc = ZERO
        for w, t in zip(weights, tables):
            acc = acc + scale(w, t.table[s])
        combined[s] = acc

    # Increment certificate in the pooled-weight form.
    if base is not None:
        labels = sorted({u[-1] for u in keys if len(u) == 1})
        for s in sorted(keys, key=lambda u: (len(u), u)):
            if len(s) >= depth:
                continue
            if not combined[s].is_finite or not base.value(s).is_finite:
                continue
            pooled = sum(
                (w for w, act in zip(weights, activities) if s in act), Fraction(0)
            )
            for sx in (s + (x,) for x in labels):
                if not combined[sx].is_finite or not base.value(sx).is_finite:
                    continue
                expected = ext(pooled * (base.value(sx).finite - base.value(s).finite))
                got = combined[sx] - combined[s]
                if got != expected:
                    raise AssertionError(
                        f"increment certificate failed at {s!r}->{sx!r}: {got} != {expected}"
                    )

    bound = scale(Fraction(1, 2 ** len(tables)), ext(Fraction(omitted_start_sup)))
    note = (
        f"series truncated at {len(tables)} parts; omitted tail starts below "
        f"{bound} (weight 2**-{len(tables)} times the omitted parts' start bound)"
    )
    return MixtureResult(Supermartingale(combined, depth), bound, len(tables), note)
