"""Reference arithmetic and oracles, written apart from gtprob.

Values here are plain ``Fraction`` objects or the floats ``inf`` and
``-inf``.  The conventions follow gtprob's extended reals: a positive
infinity on an outcome of positive weight dominates any sum, ``-inf``
prices at ``-inf`` otherwise, and zero weights never contribute.

Functionals are tuples: ``("measure", probs)``, ``("envelope", (probs,
...))`` and ``("sup",)``.  A game is a list of them, one per round.  Tree
levels are lists in lexicographic order of the outcome labels, so the
children of the node at rank ``i`` sit at ranks ``i*K .. i*K + K-1``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

INF = float("inf")
NINF = float("-inf")


def from_program(v):
    """An extended real of gtprob, read through its public properties."""
    if v.is_pos_inf:
        return INF
    if v.is_neg_inf:
        return NINF
    return v.finite


def parse_text(text: str):
    """A printed number: ``inf``, ``-inf`` or ``p/q``."""
    text = text.strip()
    if text == "inf":
        return INF
    if text == "-inf":
        return NINF
    return Fraction(text)


def measure_price(probs, vals):
    acc = Fraction(0)
    pos = negative = False
    for p, v in zip(probs, vals):
        if p == 0:
            continue
        if v == INF:
            pos = True
        elif v == NINF:
            negative = True
        else:
            acc += p * v
    if pos:
        return INF
    if negative:
        return NINF
    return acc


def price(functional, vals):
    kind = functional[0]
    if kind == "measure":
        return measure_price(functional[1], vals)
    if kind == "envelope":
        return max(measure_price(m, vals) for m in functional[1])
    if kind == "sup":
        return max(vals)
    raise ValueError(f"unknown functional {kind!r}")


def rank(s, labels) -> int:
    k = len(labels)
    r = 0
    for x in s:
        r = r * k + labels.index(x)
    return r


def levels(rounds, k: int, leaves: list, top: int = 0) -> list[list]:
    """Backward recursion: ``out[d]`` holds the values at depth ``top + d``."""
    out = [leaves]
    cur = leaves
    depth = top + _depth_of(len(leaves), k)
    for d in range(depth - 1, top - 1, -1):
        f = rounds[d]
        cur = [price(f, cur[i * k : (i + 1) * k]) for i in range(len(cur) // k)]
        out.append(cur)
    out.reverse()
    return out


def _depth_of(n: int, k: int) -> int:
    d = 0
    while n > 1:
        n //= k
        d += 1
    return d


def subtree_leaves(leaves: list, k: int, n: int, s_rank: int, s_depth: int) -> list:
    width = k ** (n - s_depth)
    return leaves[s_rank * width : (s_rank + 1) * width]


def path_sum(rounds_probs, k: int, leaves: list, start_depth: int):
    """Sum of path-product weights times the payoff over a subtree.

    ``rounds_probs[d]`` are the weights of round ``start_depth + d + 1``;
    ``leaves`` are the subtree's leaves in lexicographic order.
    """
    weights = [Fraction(1)]
    for probs in rounds_probs[start_depth:]:
        weights = [w * p for w in weights for p in probs]
    acc = Fraction(0)
    pos = negative = False
    for w, v in zip(weights, leaves):
        if w == 0:
            continue
        if v == INF:
            pos = True
        elif v == NINF:
            negative = True
        else:
            acc += w * v
    if pos:
        return INF
    if negative:
        return NINF
    return acc


def compare_table(table: dict, ref_levels: list[list], labels) -> str | None:
    """First node where a program table differs from reference levels."""
    for d, ref in enumerate(ref_levels):
        for i, s in enumerate(itertools.product(labels, repeat=d)):
            got = table.get(s)
            if got is None:
                return f"table lacks situation {''.join(s)!r}"
            if from_program(got) != ref[i]:
                return f"at {''.join(s)!r}: table {got} != reference {ref[i]}"
    if len(table) != sum(len(r) for r in ref_levels):
        return f"table has {len(table)} nodes, reference {sum(len(r) for r in ref_levels)}"
    return None


def check_supermartingale(rounds, labels, table: dict, depth: int):
    """``(violation or None, martingale)`` for a capital table, node by node."""
    values = {s: from_program(v) for s, v in table.items()}
    martingale = True
    for d in range(depth):
        f = rounds[d]
        for s in itertools.product(labels, repeat=d):
            here = values[s]
            p = price(f, [values[s + (x,)] for x in labels])
            if p > here:
                return f"at {''.join(s)!r}: children price {p} > value {here}", False
            if p != here:
                martingale = False
    return None, martingale


def touch_price_bruteforce(rounds, labels, n: int, leaf_values: list) -> Fraction:
    """Least start whose running maximum reaches every leaf's level.

    Each leaf with a positive level is assigned to one of its prefixes,
    where capital has to reach that level.  For an assignment the least
    capital process is the Snell envelope ``K(u) = max(r(u), E(K(u.)))``
    of the requirement ``r``; the price is the minimum over assignments.
    """
    k = len(labels)
    leaves = list(itertools.product(labels, repeat=n))
    positive = [(s, v) for s, v in zip(leaves, leaf_values) if v > 0]
    choices = [[s[:j] for j in range(n + 1)] for s, _ in positive]
    best = None
    for assign in itertools.product(*choices):
        req: dict = {}
        for (_, v), u in zip(positive, assign):
            if v > req.get(u, 0):
                req[u] = v
        cur = [req.get(s, Fraction(0)) for s in leaves]
        for d in range(n - 1, -1, -1):
            nodes = list(itertools.product(labels, repeat=d))
            cur = [
                max(req.get(u, Fraction(0)), price(rounds[d], cur[i * k : (i + 1) * k]))
                for i, u in enumerate(nodes)
            ]
        if best is None or cur[0] < best:
            best = cur[0]
    return best if best is not None else Fraction(0)
