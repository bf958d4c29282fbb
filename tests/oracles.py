"""Test-local oracles shared by several test modules.

The paper's constructions run between cuts; these helpers state the cut
order, cut time-intervals and window-event unions directly from their
definitions, so the tests can check the library's traces against them.
"""

from gtprob.expectation import EventWindow
from gtprob.gametree import Cut, Situation, is_prefix


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
