"""Test-local oracles shared by several test modules.

The paper's constructions run between cuts; these helpers state the cut
order, cut time-intervals and window-event unions directly from their
definitions, so the tests can check the library's traces against them.
``reference_price`` prices one gamble by each built-in functional's rule
on ``Fraction`` values, the slow oracle for the library's integer forms.
"""

from fractions import Fraction

from gtprob.expectation import EventWindow
from gtprob.extreal import INF, NEG_INF, ExtReal
from gtprob.functionals import Envelope, Measure, OuterContent, SupContent
from gtprob.gametree import Cut, Situation, is_prefix


def reference_price(content: OuterContent, values) -> ExtReal:
    """One gamble priced on Fractions: a measure's weighted sum over its
    nonzero weights, where ``+inf`` dominates and then ``-inf``; the
    maximum for ``SupContent``; the maximum over an envelope's members;
    ``content.eval_seq`` for any other functional."""
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
    return content.eval_seq(values)


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
