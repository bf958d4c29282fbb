"""Pricing functionals on gambles over a finite outcome set.

A gamble assigns an extended-real payoff to each outcome.  A pricing
functional ``E`` maps gambles to extended reals and is audited against
four axioms:

1. monotone: ``f <= g`` implies ``E(f) <= E(g)``;
2. positively homogeneous: ``E(c f) = c E(f)`` for finite ``c > 0``;
3. subadditive: ``E(f + g) <= E(f) + E(g)``;
4. normalized: ``E(c) = c`` for every finite constant ``c``.

A functional satisfying 1..4 is handled at level "outer-content".  The
stronger level "superexpectation" additionally claims countable
subadditivity on nonnegative gambles; that claim is not finitely checkable,
so :func:`check_axioms` exercises a finite surrogate (subadditivity over
finite families of nonnegative gambles and truncated increasing sums) and
says so in the report.

Built-in functionals:

* :class:`Measure`: exact probability weights, priced by the weighted sum.
  A gamble worth ``inf`` on an outcome of positive weight prices at
  ``inf`` even if another coordinate is ``-inf`` (positive infinity
  dominates mixed sums); zero-weight outcomes never contribute, including
  infinite ones.
* :class:`SupContent`: the worst-case price ``max_x f(x)``.
* :class:`Envelope`: upper envelope of finitely many measures.
* :class:`TableContent`: an explicit, finite price list supplied by the
  user, carried as an unverified claim for the audit harness.

Each functional prices a whole tree level (:meth:`OuterContent.price_level`):
the built-ins run an integer form on numerators over one denominator, and
any other functional prices node by node through its own ``eval_seq``.  A
built-in prices a single gamble as one node of that level, and the audit
adds, scales and orders gambles on numerators and prices them the same way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, le, mul
from typing import Callable, Iterable, Mapping, Sequence

from gtprob.extreal import ExtReal, INF, NEG_INF, ONE, ZERO, _NInf, _PInf, _numerators, _read_out, ext, scale

__all__ = [
    "OutcomeSet",
    "Gamble",
    "OuterContent",
    "Measure",
    "SupContent",
    "Envelope",
    "TableContent",
    "ExtendedContent",
    "AxiomReport",
    "check_axioms",
    "extend_bounded_below",
    "GambleSpaceError",
    "UnknownGambleError",
    "OUTER_CONTENT",
    "SUPEREXPECTATION",
]

OUTER_CONTENT = "outer-content"
SUPEREXPECTATION = "superexpectation"


class GambleSpaceError(ValueError):
    """A gamble was evaluated against a functional on a different outcome set."""


class UnknownGambleError(KeyError):
    """A table-backed functional has no entry for the requested gamble."""


class OutcomeSet:
    """Ordered finite set of distinct outcome labels; ``sep`` joins them in
    a situation's text ("" if every label is one character, else ",")."""

    __slots__ = ("labels", "_index", "sep")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise ValueError("outcome set must be non-empty")
        for lab in labels:
            if not isinstance(lab, str) or not lab:
                raise ValueError(f"outcome labels must be non-empty strings: {lab!r}")
            if "," in lab:
                raise ValueError(f"outcome labels must not contain commas: {lab!r}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"outcome labels must be distinct: {labels}")
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}
        self.sep = "" if all(len(lab) == 1 for lab in labels) else ","

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise GambleSpaceError(f"unknown outcome {label!r}; labels are {self.labels}")

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, OutcomeSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"OutcomeSet({list(self.labels)!r})"

    def tuples(self, length: int):
        """All label tuples of the given length, in lexicographic order."""
        return itertools.product(self.labels, repeat=length)


class Gamble:
    """Total map from an outcome set to extended reals."""

    __slots__ = ("outcomes", "values")

    def __init__(self, outcomes: OutcomeSet, values: Sequence[ExtReal]):
        values = tuple(values)
        if len(values) != len(outcomes):
            raise ValueError("gamble must assign a value to every outcome")
        self.outcomes = outcomes
        self.values = values

    @classmethod
    def of(cls, outcomes: OutcomeSet, spec) -> "Gamble":
        """Build from a mapping label->value or a sequence."""
        if isinstance(spec, Mapping):
            missing = [lab for lab in outcomes if lab not in spec]
            if missing:
                raise ValueError(f"gamble is missing outcomes {missing}")
            return cls(outcomes, [ext(spec[lab]) for lab in outcomes])
        return cls(outcomes, [ext(v) for v in spec])

    @classmethod
    def constant(cls, outcomes: OutcomeSet, value) -> "Gamble":
        v = ext(value)
        return cls(outcomes, [v] * len(outcomes))

    def __getitem__(self, label: str) -> ExtReal:
        return self.values[self.outcomes.index(label)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gamble)
            and self.outcomes == other.outcomes
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.outcomes, self.values))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{lab}: {v}" for lab, v in zip(self.outcomes, self.values))
        return f"Gamble({pairs})"


class OuterContent:
    """Base class for pricing functionals on gambles over one outcome set.

    A subclass gives an integer form or implements :meth:`eval_seq` on a
    value sequence aligned with the outcome order; :meth:`eval` is the
    public, space-checked entry.  ``declared_level`` records what the
    functional claims to be; the claim is audited, not trusted (see
    :func:`check_axioms`).

    ``form`` is the integer form ``(q, rows)`` that prices children ``c``
    at ``max(sum(a*c) for a in rows) / q`` (``rows`` None: the plain
    maximum), or None to price through ``eval_seq``.  An envelope prices
    by its members' forms, one row per member, so each member must keep
    its :class:`Measure` form.  A subclass of a built-in inherits its form;
    one that prices otherwise sets ``self.form = None`` after the
    built-in's ``__init__`` and defines ``eval_seq``, and cannot be an
    envelope member.
    """

    declared_level: str = OUTER_CONTENT
    form: tuple[int, list[list[int]] | None] | None = None

    def __init__(self, outcomes: OutcomeSet):
        self.outcomes = outcomes

    def price_level(self, nums: list, den: int) -> tuple[list, int]:
        """One round of backward induction on a level of numerators over
        ``den``, K = ``len(self.outcomes)`` children per node; returns the
        parent level as ``(nums, den)``.  An integer form runs on the
        numerators; otherwise the level is read out, each node priced
        through ``eval_seq`` and the prices turned back into numerators."""
        form, k = self.form, len(self.outcomes.labels)
        if form is None:
            vals = _read_out(nums, den)
            return _numerators([self.eval_seq(vals[i * k : (i + 1) * k]) for i in range(len(vals) // k)])
        return _int_round(form[1], nums, k), den * form[0]

    def eval(self, f: Gamble) -> ExtReal:
        if f.outcomes != self.outcomes:
            raise GambleSpaceError(
                f"gamble on {f.outcomes.labels} evaluated against a functional on {self.outcomes.labels}"
            )
        return self.eval_seq(f.values)

    def eval_seq(self, values: Sequence[ExtReal]) -> ExtReal:
        """One gamble, priced as one node of :meth:`price_level`."""
        if self.form is None:
            raise NotImplementedError
        return _read_out(*self.price_level(*_numerators(list(values))))[0]

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return self.outcomes


class Measure(OuterContent):
    """Linear expectation under exact probability weights."""

    declared_level = SUPEREXPECTATION

    def __init__(self, outcomes: OutcomeSet, probs, *, validate: bool = True):
        super().__init__(outcomes)
        if isinstance(probs, Mapping):
            weights = tuple(Fraction(probs.get(lab, 0)) for lab in outcomes)
        else:
            weights = tuple(Fraction(p) for p in probs)
            if len(weights) != len(outcomes):
                raise ValueError("need one weight per outcome")
        if validate:
            if any(p < 0 for p in weights):
                raise ValueError(f"probabilities must be nonnegative: {weights}")
            if sum(weights) != 1:
                raise ValueError(f"probabilities must sum to exactly 1: {weights}")
        self.probs = weights
        q = lcm(*(p.denominator for p in weights))
        self.form = q, [[p.numerator * (q // p.denominator) for p in weights]]

    @classmethod
    def uniform(cls, outcomes: OutcomeSet) -> "Measure":
        n = len(outcomes)
        return cls(outcomes, [Fraction(1, n)] * n)

    @classmethod
    def unchecked(cls, outcomes: OutcomeSet, probs) -> "Measure":
        """Skip validation; for auditing deliberately defective weightings."""
        return cls(outcomes, probs, validate=False)

    def _key(self):
        return (self.outcomes, self.probs)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{lab}: {p}" for lab, p in zip(self.outcomes, self.probs))
        return f"Measure({pairs})"


def _price_with_infinities(rows: list[list[int]], children: list) -> int | float:
    """The price of one node with an infinite child, per row, then the
    maximum: ``+inf`` if a child of nonzero weight is ``+inf``, else
    ``-inf`` if one is ``-inf``, else the weighted sum."""
    prices = []
    for row in rows:
        pairs = [(a, v) for a, v in zip(row, children) if a]
        live = [v for _, v in pairs]
        prices.append(_PInf if _PInf in live else _NInf if _NInf in live else sum(a * v for a, v in pairs))
    return max(prices)


def _int_round(rows: list[list[int]] | None, nums: list, k: int) -> list:
    """One round of an integer form on a level of numerators."""
    cols = [nums[i::k] for i in range(k)]
    if rows is None:
        return cols[0] if k == 1 else list(map(max, *cols))
    # Nodes with an infinite child are priced one by one.  The rest of the
    # level sees those children as 0, so no numerator is added to a float.
    hit = {i // k for i, v in enumerate(nums) if v.__class__ is float} if float in map(type, nums) else ()
    if hit:
        cols = [[0 if v.__class__ is float else v for v in col] for col in cols]
    sums = []
    for row in rows:
        acc = repeat(0, len(cols[0]))
        for a, col in zip(row, cols):
            if a:
                acc = map(add, acc, col if a == 1 else map(mul, col, repeat(a)))
        sums.append(list(acc))
    new = sums[0] if len(sums) == 1 else list(map(max, *sums))
    for i in hit:
        new[i] = _price_with_infinities(rows, nums[i * k : (i + 1) * k])
    return new


class SupContent(OuterContent):
    """Worst-case price: the maximum payoff over outcomes."""

    declared_level = SUPEREXPECTATION
    form = (1, None)

    def __repr__(self) -> str:
        return f"SupContent({list(self.outcomes.labels)!r})"


class Envelope(OuterContent):
    """Upper envelope of a non-empty finite family of measures."""

    declared_level = SUPEREXPECTATION

    def __init__(self, outcomes: OutcomeSet, measures: Sequence[Measure | Mapping | Sequence]):
        super().__init__(outcomes)
        built = []
        for m in measures:
            if isinstance(m, Measure):
                if m.outcomes != outcomes:
                    raise GambleSpaceError("envelope member on a different outcome set")
                built.append(m)
            else:
                built.append(Measure(outcomes, m))
        if not built:
            raise ValueError("envelope needs at least one measure")
        self.measures = tuple(built)
        q = lcm(*(m.form[0] for m in built))
        self.form = q, [[a * (q // m.form[0]) for a in row] for m in built for row in m.form[1]]

    def _key(self):
        return (self.outcomes, tuple(m.probs for m in self.measures))

    def __repr__(self) -> str:
        return f"Envelope({len(self.measures)} measures on {list(self.outcomes.labels)!r})"


class TableContent(OuterContent):
    """Explicit finite price list; gambles outside the table raise.

    The declared level is the supplier's claim.  The audit harness skips
    checks whose operands fall outside the table and counts the skips.
    """

    def __init__(
        self,
        outcomes: OutcomeSet,
        entries: Iterable[tuple[Gamble, ExtReal]],
        declared_level: str = OUTER_CONTENT,
    ):
        super().__init__(outcomes)
        table: dict[tuple, ExtReal] = {}
        for g, v in entries:
            if g.outcomes != outcomes:
                raise GambleSpaceError("table entry on a different outcome set")
            table[g.values] = ext(v)
        self._table = table
        if declared_level not in (OUTER_CONTENT, SUPEREXPECTATION):
            raise ValueError(f"unknown level {declared_level!r}")
        self.declared_level = declared_level

    def eval_seq(self, values: Sequence[ExtReal]) -> ExtReal:
        try:
            return self._table[tuple(values)]
        except KeyError:
            raise UnknownGambleError(f"no table entry for gamble values {tuple(map(str, values))}")

    def _key(self):
        return (self.outcomes, tuple(sorted(self._table.items(), key=lambda kv: repr(kv[0]))))


class ExtendedContent(OuterContent):
    """Extension of a bounded-below functional to all gambles.

    Evaluates ``F(max(f, a))`` for a clamp level ``a`` marching down by
    doubling steps below the least finite coordinate.  The doubling rule is
    a heuristic for a callable: two consecutive equal values are taken as
    the limit (exact for a monotone convex function of the clamp level),
    and sixty-four strictly decreasing doublings as divergence to ``-inf``.
    :func:`extend_bounded_below` returns a built-in with nonnegative
    weights itself, whose rule is the limit.
    """

    _MAX_DOUBLINGS = 64

    def __init__(self, outcomes: OutcomeSet, partial: Callable[[Gamble], ExtReal]):
        super().__init__(outcomes)
        self._partial = partial

    def eval_seq(self, values: Sequence[ExtReal]) -> ExtReal:
        if NEG_INF not in values:
            return self._partial(Gamble(self.outcomes, values))
        finite = [v.finite for v in values if v.is_finite]
        start = min(finite) if finite else Fraction(0)
        # Integer floor keeps clamp levels simple.
        base = Fraction(start.__floor__())
        prev: ExtReal | None = None
        for k in range(self._MAX_DOUBLINGS + 1):
            level = ExtReal(base - Fraction(2) ** k)
            cur = self._partial(Gamble(self.outcomes, [v if v >= level else level for v in values]))
            if prev is not None:
                if cur == prev:
                    return cur
                if cur > prev:
                    raise ValueError(
                        "partial functional is not monotone in the clamp level; "
                        "it cannot satisfy the monotonicity axiom"
                    )
            prev = cur
        return NEG_INF

    def _key(self):
        return (self.outcomes, id(self._partial))


def extend_bounded_below(
    outcomes: OutcomeSet, partial: Callable[[Gamble], ExtReal] | OuterContent
) -> OuterContent:
    """Extend a functional defined on bounded-below gambles to all gambles.

    ``partial`` must satisfy axioms 1..4 on its domain.  The extension
    prices ``f`` as the limit of ``partial(max(f, a))`` as the clamp level
    ``a`` decreases; on a finite outcome set the clamp is inactive except
    on ``-inf`` coordinates once ``a`` is below the least finite value.
    A functional on ``outcomes`` with an integer form and no negative
    weight already prices ``-inf`` coordinates by that limit, and is
    returned itself; any other is wrapped in an :class:`ExtendedContent`.
    """
    if isinstance(partial, OuterContent):
        form = partial.form
        if form is not None and partial.outcomes == outcomes and all(a >= 0 for row in form[1] or () for a in row):
            return partial
        partial = partial.eval
    return ExtendedContent(outcomes, partial)


# -- axiom audit -------------------------------------------------------

GRID_VALUES = (NEG_INF, ext(-1), ZERO, ext("1/2"), ONE, ext(2), INF)
SMALL_GRID_VALUES = (NEG_INF, ZERO, ONE, INF)
AUDIT_SCALARS = (Fraction(1, 2), Fraction(2), Fraction(3))
AUDIT_CONSTANTS = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
SURROGATE = "countable-subadditive (finite surrogate)"


def default_grid(outcomes: OutcomeSet) -> list[Gamble]:
    """Deterministic exhaustive gamble grid used when no suite is supplied."""
    values = GRID_VALUES if len(outcomes) <= 3 else SMALL_GRID_VALUES
    return [
        Gamble(outcomes, combo)
        for combo in itertools.product(values, repeat=len(outcomes))
    ]


@dataclass
class AxiomResult:
    name: str
    passed: bool
    checked: int
    skipped: int = 0
    witness: str | None = None

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f" [{self.witness}]" if self.witness else ""
        skip = f", {self.skipped} skipped" if self.skipped else ""
        return f"{self.name}: {status} ({self.checked} checks{skip}){extra}"


@dataclass
class AxiomReport:
    results: dict[str, AxiomResult] = field(default_factory=dict)
    level_claimed: str = OUTER_CONTENT
    level_audited: str = OUTER_CONTENT

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    def __str__(self) -> str:
        lines = [str(r) for r in self.results.values()]
        lines.append(f"claimed level: {self.level_claimed}; audited level: {self.level_audited}")
        return "\n".join(lines)


def _tally(name: str, checks: Iterable[tuple[bool, Callable[[], str]] | None]) -> AxiomResult:
    """Count checked and skipped cases; the first failure's witness is kept."""
    checked = skipped = 0
    witness = None
    for case in checks:
        if case is None:
            skipped += 1
            continue
        checked += 1
        if not case[0] and witness is None:
            witness = case[1]()
    return AxiomResult(name, witness is None, checked, skipped, witness)


def check_axioms(content: OuterContent, gambles: Sequence[Gamble] | None = None) -> AxiomReport:
    """Audit a functional against the four axioms plus the finite surrogate
    of countable subadditivity.

    When ``gambles`` is omitted a deterministic exhaustive grid over small
    values (including both infinities) is used.  Table-backed functionals
    skip checks whose operands fall outside the table; skips are counted in
    the report.  The report never trusts ``declared_level``: the audited
    level is downgraded if the surrogate of the stronger axiom fails.

    The suite and the audit constants are put over one denominator, times
    the audit scalars' denominators so that ``c * f`` stays integral; sums,
    scalings, order tests and cache keys run on tuples of integer numerators
    (infinities stay floats), each priced as one node of ``price_level`` and
    read out only to be printed.
    """
    suite = list(gambles) if gambles is not None else default_grid(content.outcomes)
    if not suite:
        raise ValueError("audit suite must be non-empty")
    for g in suite:
        if g.outcomes != content.outcomes:
            content.eval(g)  # raises GambleSpaceError before anything is priced
    width = len(content.outcomes)
    nums, den = _numerators([v for g in suite for v in g.values] + list(map(ext, AUDIT_CONSTANTS)))
    lift = lcm(*(c.denominator for c in AUDIT_SCALARS))
    nums, den = [n if n.__class__ is float else n * lift for n in nums], den * lift
    vectors = [tuple(nums[i : i + width]) for i in range(0, len(suite) * width, width)]

    def plus(f: tuple, g: tuple) -> tuple:
        return tuple(_PInf if _PInf in (a, b) else a + b for a, b in zip(f, g))

    def show(f: tuple) -> str:
        return "(" + ", ".join(map(str, _read_out(list(f), den))) + ")"

    cache: dict[tuple, ExtReal | None] = {}

    def price(f: tuple) -> ExtReal | None:
        if f not in cache:
            try:
                cache[f] = _read_out(*content.price_level(list(f), den))[0]
            except UnknownGambleError:
                cache[f] = None
        return cache[f]

    # Each axiom yields None for a skipped case, else (holds, witness thunk).
    def monotone():
        for f, g in itertools.combinations_with_replacement(vectors, 2):
            for lo, hi in ((f, g), (g, f)):
                if all(map(le, lo, hi)):
                    a, b = price(lo), price(hi)
                    yield None if a is None or b is None else (
                        a <= b,
                        lambda: f"f={show(lo)} <= g={show(hi)} but E(f)={a} > E(g)={b}",
                    )

    def homogeneous():
        for f in vectors:
            ef = price(f)
            for c in AUDIT_SCALARS:
                cf = None if ef is None else price(
                    tuple(v if v.__class__ is float else c.numerator * v // c.denominator for v in f)
                )
                yield None if cf is None else (
                    cf == scale(c, ef),
                    lambda: f"E({c}*{show(f)})={cf} but {c}*E(f)={scale(c, ef)}",
                )

    def subadditive():
        for f, g in itertools.product(vectors, repeat=2):
            ef, eg, s = price(f), price(g), price(plus(f, g))
            yield None if ef is None or eg is None or s is None else (
                s <= ef + eg,
                lambda: f"f={show(f)}, g={show(g)}: E(f+g)={s} > E(f)+E(g)={ef + eg}",
            )

    def normalized():
        for c, n in zip(AUDIT_CONSTANTS, nums[len(suite) * width :]):
            v = price((n,) * width)
            yield None if v is None else (v == ext(c), lambda: f"E({c})={v} != {c}")

    # Finite surrogate of countable subadditivity on nonnegative gambles:
    # finite families and truncated increasing partial sums.  The countable
    # form itself is not finitely checkable.
    def surrogate():
        nonneg = [f for f in vectors if min(f) >= 0]
        for family in itertools.islice(itertools.combinations(nonneg, 3), 400):
            parts = [price(f) for f in family]
            whole = price(plus(plus(family[0], family[1]), family[2]))
            if whole is None or any(p is None for p in parts):
                yield None
                continue
            rhs = parts[0] + parts[1] + parts[2]
            yield whole <= rhs, lambda: (
                "family " + ", ".join(map(show, family)) + f": E(sum)={whole} > sum E={rhs}"
            )
        for f in nonneg[:50]:
            run, run_price = f, price(f)
            for k in (2, 3):
                run = plus(run, f)
                cur, ef = price(run), price(f)
                if cur is None or ef is None or run_price is None:
                    yield None
                    continue
                run_price = run_price + ef
                yield cur <= run_price, lambda: (
                    f"partial sum of {k} copies of {show(f)}: E={cur} > {run_price}"
                )

    report = AxiomReport(level_claimed=content.declared_level)
    for name, checks in (
        ("monotone", monotone()),
        ("homogeneous", homogeneous()),
        ("subadditive", subadditive()),
        ("normalized", normalized()),
        (SURROGATE, surrogate()),
    ):
        report.results[name] = _tally(name, checks)
    if not all(r.passed for name, r in report.results.items() if name != SURROGATE):
        report.level_audited = "not-an-outer-content"
    elif report.results[SURROGATE].passed and content.declared_level == SUPEREXPECTATION:
        report.level_audited = SUPEREXPECTATION
    else:
        report.level_audited = OUTER_CONTENT
    return report
