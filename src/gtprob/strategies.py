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

All three run top-down in level order (base-K rank within a level) on
integer numerators over one denominator, as the kernel in
:mod:`gtprob.expectation` does, and build a ``Fraction`` once per value
at read-out.  A Lévy ride telescopes: its capital is a factor fixed at
entry times the ridden witness, one step rule for table and path trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product, repeat
from math import gcd
from operator import add, lshift, mul
from typing import Callable, Iterator, Sequence

from gtprob.extreal import ExtReal, INF, NEG_INF, ONE, ZERO, _NInf, _PInf, _numerators, _read_out, ext, scale
from gtprob.gametree import (
    EMPTY,
    Cut,
    GameSpec,
    Situation,
    Supermartingale,
    verify_supermartingale,
)
from gtprob.expectation import Payoff, _sweep

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
    ``b - a``.  One pass runs down the origin's subtree with the base,
    ``a`` and ``b`` over one denominator.
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

    k, span = len(game.outcomes), base.depth - len(origin)
    sits = [origin + t for d in range(span + 1) for t in game.outcomes.tuples(d)]
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
    return DoobResult(
        Supermartingale(table, base.depth), _cut_trace(sigma, tau), frozenset(active), base, (a, b), origin
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


def _levy_shift(values: list[ExtReal]) -> Fraction:
    """Shift constant making a payoff with these leaf values nonnegative.

    Payoffs that are already nonnegative are not shifted, so entry and exit
    react to the payoff's own conditional values; otherwise the least leaf
    value minus one is subtracted, making the shifted payoff strictly
    positive.
    """
    if any(v.is_neg_inf for v in values):
        raise ValueError("payoff must be bounded below")
    m = min((v.finite for v in values if v.is_finite), default=Fraction(0))
    return Fraction(0) if m >= 0 else m - 1


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
        if not (0 <= a < b):
            raise ValueError(f"need 0 <= a < b, got ({a}, {b})")
        if slack not in ("none", "dyadic"):
            raise ValueError(f"slack must be 'none' or 'dyadic', got {slack!r}")
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
            cap = cx + dn if cx.__class__ is int else scale(f, INF if cx > 0 else NEG_INF)
        event = None
        if mode == "waiting" and cx < self.an:
            k += 1
            self.tau.setdefault(k, set()).add(sx)
            dn = self.den >> (len(sx) + 1) if self.dyadic else 0
            f = cap.finite * self.den / (cx + dn) if cap.is_finite and cx + dn else None
            if f is not None and f < 0:
                raise ValueError("scale only accepts nonnegative finite multipliers")
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
        return ExtReal(Fraction(f.numerator * cap, f.denominator * self.den))


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
    carries the stated product floor.
    """
    a, b = Fraction(a), Fraction(b)
    leaves = xi.leaf_values(game)
    shift = _levy_shift(leaves)
    if shift:
        pad = ext(-shift)
        leaves = [v + pad for v in leaves]
    depth, k = xi.depth, len(game.outcomes)
    conds = _sweep(game, leaves, 0, depth, depth)
    machine = _LevyMachine(a, b, slack)
    sits = list(game.all_situations())
    nums = machine.numerators(list(chain.from_iterable(conds)), depth)
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
    cond_table = dict(zip(sits, chain.from_iterable(conds)))
    return LevyResult(
        Supermartingale(dict(zip(sits, values)), game.horizon),
        _cut_trace(machine.sigma, machine.tau),
        shift,
        slack,
        frozenset(machine.halted),
        Supermartingale(cond_table, depth),
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
    as :func:`levy_strategy`.
    """
    path = game.validate_situation(tuple(path))
    machine = _LevyMachine(Fraction(a), Fraction(b), slack)
    sits = [path[:n] for n in range(len(path) + 1)]
    conds = [cond(s) for s in sits]
    nums = machine.numerators(conds, len(path))
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
    parts: int
    note: str


def mixture(parts: Sequence[DoobResult | Supermartingale]) -> MixtureResult:
    """Weighted sum ``sum_i 2**-i * part_i`` over finitely many parts.

    Parts are upcross constructions over one shared base, or constant
    tables (which contribute nothing to increments).  The supermartingale
    property of the sum is certified directly: wherever the sum is finite,
    each increment is recomputed as (pooled weight) * (base increment)
    with a pooled weight in [0, 1], so the certificate needs nothing
    beyond the base being a supermartingale.  The report carries the bound
    ``2**-I`` on what truncating the series at index I discards at the
    start, for omitted parts that start at 1.

    The parts and the base share one denominator ``D``; the sum is held
    over ``D * 2**I`` and each increment is compared with the pooled
    weight's numerator times the base increment, as integers.
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

    # Level order over the sorted labels is the old (depth, situation)
    # order; the children of node g are nodes g*K+1 .. g*K+K.
    n, labels = len(tables), sorted({u[-1] for u in keys if len(u) == 1})
    sits = [u for d in range(depth + 1) for u in product(labels, repeat=d)]
    cols = [t.table for t in tables] + ([] if base is None else [base.table])
    flat, den = _numerators([v for t in cols for v in map(t.__getitem__, sits)])
    size = len(sits)
    sums, hit = [0] * size, set()
    for i in range(n):
        col = flat[i * size : (i + 1) * size]
        if float in map(type, col):
            hit.update(j for j, v in enumerate(col) if v.__class__ is float)
            col = [0 if v.__class__ is float else v for v in col]
        sums = list(map(add, sums, map(lshift, col, repeat(n - 1 - i))))
    for j in hit:
        sums[j] = _PInf if _PInf in flat[j::size][:n] else _NInf
    den <<= n
    combined = dict.fromkeys(keys)
    combined.update(zip(sits, _read_out(sums, den)))

    # Increment certificate in the pooled-weight form.
    if base is not None:
        k, moves = len(labels), flat[n * size :]
        pooled = [0] * (size - k**depth)
        for i, act in enumerate(activities):
            if act:
                weight = repeat(1 << (n - 1 - i))
                pooled = list(map(add, pooled, map(mul, map(act.__contains__, sits[: len(pooled)]), weight)))
        for g, p in enumerate(pooled):
            cs, bs = sums[g], moves[g]
            if cs.__class__ is float or bs.__class__ is float:
                continue
            for c in range(g * k + 1, g * k + k + 1):
                cx, bx = sums[c], moves[c]
                if cx.__class__ is float or bx.__class__ is float or cx - cs == p * (bx - bs):
                    continue
                got, expected = Fraction(cx - cs, den), Fraction(p * (bx - bs), den)
                raise AssertionError(
                    f"increment certificate failed at {sits[g]!r}->{sits[c]!r}: {got} != {expected}"
                )

    bound = ext(Fraction(1, 2 ** len(tables)))
    note = (
        f"series truncated at {len(tables)} parts; omitted tail starts below "
        f"{bound} (weight 2**-{len(tables)} times the omitted parts' start bound)"
    )
    return MixtureResult(Supermartingale(combined, depth), bound, len(tables), note)
