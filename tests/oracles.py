"""Test-local oracles shared by several test modules.

The paper's constructions run between cuts; these helpers state the cut
order, cut time-intervals and window-event unions directly from their
definitions, so the tests can check the library's traces against them.
``reference_price`` prices one gamble by each built-in functional's rule
on ``Fraction`` values, the slow oracle for the library's integer forms.
``reference_phi_levels`` sweeps a forecasting system's outcome tree with a
level loop of its own, the oracle for the embedded game's sweep.  The
``reference_indicator``, ``reference_constant`` and ``reference_leading_ones``
rules give a leaf's value from its definition, the oracles for the payoffs
that the library defines by an automaton.  ``reference_table_to_csv`` and
``reference_table_from_csv`` are the capital-table CSV codec written plainly:
a sort key per row, every row read into a list before any is checked, and
one new situation tuple per row.
"""

import csv
import io
from collections import Counter
from fractions import Fraction

from gtprob import config
from gtprob.expectation import EventWindow
from gtprob.extreal import INF, NEG_INF, ONE, ZERO, ExtReal, _over, _read_out, ext
from gtprob.forecaster import EmbeddedContent, pair_label
from gtprob.functionals import Envelope, Measure, OutcomeSet, OuterContent, SupContent
from gtprob.gametree import Cut, Situation, Supermartingale, is_prefix, parse_situation
from gtprob.serialize import SchemaError, _extreal


def reference_price(content: OuterContent, values) -> ExtReal:
    """One gamble priced on Fractions: a measure's weighted sum over its
    nonzero weights, where ``+inf`` dominates and then ``-inf``; the
    maximum for ``SupContent``; the maximum over an envelope's members;
    for an embedded round, the maximum over its menu of each symbol's
    price of its outcome section; ``content.eval_seq`` for any other
    functional."""
    values = list(values)
    if type(content) is Measure:
        live = [(p, v) for p, v in zip(content.probs, values) if p]
        if any(v == INF for _, v in live):
            return INF
        if any(v == NEG_INF for _, v in live):
            return NEG_INF
        return ExtReal(sum((p * v.finite for p, v in live), Fraction(0)))
    if type(content) is SupContent:
        return max(values)
    if type(content) is Envelope:
        return max(reference_price(m, values) for m in content.measures)
    if type(content) is EmbeddedContent:
        spec, index = content.spec, content.outcomes.index
        return max(
            reference_price(spec.contents[p], [values[index(pair_label(p, x))] for x in spec.outcomes.labels])
            for p in content.menu
        )
    return content.eval_seq(values)


def reference_indicator(event: EventWindow):
    """The rule of an event's indicator: 1 on a leaf in ``event``, else 0."""
    return lambda leaf: ONE if event.member(leaf) else ZERO


def reference_constant(value):
    """The rule of a constant payoff."""
    v = ext(value)
    return lambda leaf: v


def reference_leading_ones(cap):
    """The rule of the capped doubling run: ``2**n`` for the ``n`` leading
    ``"1"`` outcomes of a leaf, or ``cap`` if that is less."""
    cap = Fraction(cap)

    def rule(leaf: Situation) -> ExtReal:
        n = 0
        while n < len(leaf) and leaf[n] == "1":
            n += 1
        return ext(min(Fraction(2**n), cap))

    return rule


def reference_phi_levels(phi, event: EventWindow, prefix: Situation) -> list[list[ExtReal]]:
    """Upper probabilities of ``event`` under ``phi`` at the outcome
    histories from ``prefix`` to the window's end, one level per depth in
    base-K rank order, swept on the outcome tree.  A node takes the largest
    over its menu symbols ``q`` of the price under ``q`` of its children, a
    child off the rule being worth the off-rule constant ``Z(d+1)``:
    ``Z(end) = 0``, ``Z(d) = max over q of c_q(Z(d+1)·1)``.  ``Z`` is
    carried as one extra parent wherever the embedded game holds nodes off
    the rule, so each functional is asked for the embedded sweep's gambles.
    A system refused at several histories is named at the first in (depth,
    rank) order, the shallowest."""
    spec, top, end = phi.spec, len(prefix), event.end
    event.require_within(spec.horizon)
    config.require_dense(end - top, what="conditional expectation sweep")
    k, span = len(spec.outcomes), max(end - top, 0)
    # The rule is asked depth by depth, in rank order, before any leaf is read.
    rules = {prefix + h: phi.predict(prefix + h) for d in range(span) for h in spec.outcomes.tuples(d)}
    nums = [int(event.member(prefix + rest)) for rest in spec.outcomes.tuples(span)]
    den, z = 1, 0
    kept = [_read_out(nums, den)]
    for d in range(end - 1, top - 1, -1):
        extra = [z] * k if d > top and len(spec.all_predictions) > 1 else []
        preds = [rules[prefix + h] for h in spec.outcomes.tuples(d - top)]
        priced = []
        for q in dict.fromkeys(spec.menu_at(d + 1)):
            children = [x if preds[j // k] == q else z for j, x in enumerate(nums)]
            priced.append(spec.contents[q].price_level(children + extra, den))
        levels, den = _over(priced)
        nums = levels[0] if len(levels) == 1 else list(map(max, *levels))
        if extra:
            z = nums.pop()
        kept.append(_read_out(nums, den))
    return kept[::-1]


def member_above(cut: Cut, s: Situation) -> Situation | None:
    """The unique cut member that is a prefix of ``s``, if any."""
    for k in range(len(s) + 1):
        if s[:k] in cut.members:
            return s[:k]
    return None


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


def union_of(events):
    """The union of window events, on the smallest window covering them all."""
    start, end = min(e.start for e in events), max(e.end for e in events)
    member = lambda w: any(e.member_window(w[e.start - start : e.end - start + 1]) for e in events)
    return EventWindow(start, end, predicate=member, label="union")


def reference_table_to_csv(sm: Supermartingale, outcomes: OutcomeSet) -> str:
    """A capital table as CSV: a ``situation,value`` header, then one row per
    situation in ``(length, label tuple)`` order, each line ending in ``\\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["situation", "value"])
    for s in sorted(sm.table, key=lambda u: (len(u), u)):
        writer.writerow([outcomes.sep.join(s), str(sm.table[s])])
    return buf.getvalue()


def reference_table_from_csv(text: str, outcomes: OutcomeSet) -> Supermartingale:
    """A capital table read back from CSV, refused with the codec's texts:
    the header, then each row in order (two columns, known labels, no
    duplicate, a value), then totality at each depth up to the deepest row."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["situation", "value"]:
        raise SchemaError("/csv", "expected header 'situation,value'")
    table: dict[Situation, ExtReal] = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise SchemaError(f"/csv/{i}", f"expected two columns, got {row!r}")
        key, raw = row
        try:
            s = parse_situation(key, outcomes)
        except ValueError as exc:
            raise SchemaError(f"/csv/{i}", str(exc)) from exc
        if s in table:
            raise SchemaError(f"/csv/{i}", f"duplicate situation {key!r}")
        table[s] = _extreal(raw, f"/csv/{i}")
    if not table:
        raise SchemaError("/csv", "table is empty")
    counts = Counter(map(len, table))
    depth = max(counts)
    for d in range(depth + 1):
        if counts[d] != len(outcomes) ** d:
            raise SchemaError("/csv", f"table is not total at depth {d}")
    return Supermartingale(table, depth)
