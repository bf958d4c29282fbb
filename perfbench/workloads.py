"""The four workloads: inputs from a seed, timed operations, their checks.

Each workload draws plain inputs (integers, label tuples) from its seed
when it is created, turns them into gtprob objects in ``build`` (timed as
set-up), computes reference values apart from gtprob in ``prepare`` and
lists its operations in ``ops``.  An operation is one library call, or
one ``gtprob`` process in ``cli``; it names the tree situations it prices
or builds, and a check that compares its result with the references.
Checks run outside the timed region.  Every check has a perturbation that
it must reject, so a check that can never fail is caught.

Operations call gtprob through module attributes at call time, so that a
traced run, which rebinds those attributes, sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Any, Callable

import oracle as O

BIN = ("0", "1")
TRI = ("0", "1", "2")
QUAD = ("0", "1", "2", "3")


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    perturb: Callable[[Any], Any]
    nodes: int = 0
    probe: bool = False
    # Untimed step after the call, such as reading the files a command wrote.
    collect: Callable[[Any], Any] | None = None


def tree_nodes(k: int, span: int) -> int:
    """Situations of a full tree of the given span: K^0 + ... + K^span."""
    return sum(k**d for d in range(span + 1))


def _inf_or_int(rng: random.Random, share: float, lo: int, hi: int):
    r = rng.random()
    if r < share:
        return "inf"
    if r < 2 * share:
        return "-inf"
    return rng.randint(lo, hi)


def _ref(v):
    """Reference value of a plain input."""
    if v == "inf":
        return O.INF
    if v == "-inf":
        return O.NINF
    return Q(v)


def _expect_value(got, ref, what: str) -> str | None:
    g = O.from_program(got)
    if g != ref:
        return f"{what}: got {got}, reference {ref}"
    return None


class Workload:
    name = ""
    # The pace probe of run.py that does this workload's kind of work.
    pace = "compute"
    # Set while checks are fed perturbed results.
    self_test = False

    def __init__(self, root: str, seed: int):
        self.gt = None  # the gtprob package, set before ``build``
        self.root = root
        self.rng = random.Random(f"{self.name}-{seed}")

    def build(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def pass_checks(self) -> list[tuple[str, Callable[[dict], str | None], Callable[[dict], dict]]]:
        return []

    def cleanup(self) -> None:
        pass

    # -- perturbations ----------------------------------------------------

    def bump(self, v):
        """A different extended real: finite values move by 1/7, infinities go to 0."""
        ext = self.gt.ext
        if v.is_finite:
            return ext(v.finite + Q(1, 7))
        return ext(0)

    def break_table(self, sm, rounds, labels):
        """A copy of a capital table with one node set below its children's price."""
        table = dict(sm.table)
        for d in range(sm.depth):
            for s in itertools.product(labels, repeat=d):
                p = O.price(rounds[d], [O.from_program(table[s + (x,)]) for x in labels])
                if p not in (O.INF, O.NINF):
                    table[s] = self.gt.ext(p - 1)
                    return self.gt.Supermartingale(table, sm.depth)
        raise ValueError("no finite node to perturb")


# -- sweep ----------------------------------------------------------------------


class Sweep(Workload):
    """Dense backward induction at the dense cap: K=2 N=14, K=3 N=10, K=4 N=8."""

    name = "sweep"
    N2, N3, N4 = 14, 10, 8
    FAIR = (Q(1, 2), Q(1, 2))
    THIRD = (Q(1, 3), Q(2, 3))
    ENV = ((Q(1, 2), Q(1, 2)), (Q(1, 3), Q(2, 3)), (Q(3, 5), Q(2, 5)))
    K3_MEASURE = (Q(1, 6), Q(1, 3), Q(1, 2))
    K3_ENV = ((Q(1, 3), Q(1, 3), Q(1, 3)), (Q(1, 2), Q(1, 4), Q(1, 4)))
    K4_MEASURE = (Q(1, 8), Q(1, 4), Q(1, 8), Q(1, 2))
    INF_SHARE = 1 / 128

    def __init__(self, root, seed):
        super().__init__(root, seed)
        rng = self.rng
        self.keys2 = list(itertools.product(BIN, repeat=self.N2))
        self.keys3 = list(itertools.product(TRI, repeat=self.N3))
        self.keys4 = list(itertools.product(QUAD, repeat=self.N4))
        self.raw_a = [rng.randint(-30, 30) for _ in self.keys2]
        self.raw_inf = [_inf_or_int(rng, self.INF_SHARE, -30, 30) for _ in self.keys2]
        self.raw_c = [_inf_or_int(rng, self.INF_SHARE / 2, -30, 30) for _ in self.keys3]
        self.raw_d = [rng.randint(-30, 30) for _ in self.keys4]
        windows = list(itertools.product(BIN, repeat=6))
        self.accepts = sorted(rng.sample(windows, 32))
        self.s5 = tuple(rng.choice(BIN) for _ in range(5))
        self.s4 = tuple(rng.choice(BIN) for _ in range(4))
        self.s3 = tuple(rng.choice(BIN) for _ in range(3))
        self.k3_rounds = [
            ("measure", self.K3_MEASURE),
            ("envelope", self.K3_ENV),
            ("sup",),
        ]

    def build(self):
        gt = self.gt
        b, t, q = gt.OutcomeSet(BIN), gt.OutcomeSet(TRI), gt.OutcomeSet(QUAD)
        self.fair = gt.GameSpec(b, gt.Measure(b, self.FAIR), self.N2)
        self.third = gt.GameSpec(b, gt.Measure(b, self.THIRD), self.N2)
        self.env = gt.GameSpec(b, gt.Envelope(b, self.ENV), self.N2)
        self.sup = gt.GameSpec(b, gt.SupContent(b), self.N2)
        per_round = [gt.Measure(t, self.K3_MEASURE), gt.Envelope(t, self.K3_ENV), gt.SupContent(t)]
        self.g3 = gt.GameSpec(t, [per_round[i % 3] for i in range(self.N3)], self.N3)
        self.g4 = gt.GameSpec(q, gt.Measure(q, self.K4_MEASURE), self.N4)
        self.xa = gt.Payoff.from_table(dict(zip(self.keys2, self.raw_a)), self.N2)
        self.xinf = gt.Payoff.from_table(dict(zip(self.keys2, self.raw_inf)), self.N2)
        self.xc = gt.Payoff.from_table(dict(zip(self.keys3, self.raw_c)), self.N3)
        self.xd = gt.Payoff.from_table(dict(zip(self.keys4, self.raw_d)), self.N4)
        self.event = gt.EventWindow(self.N2 - 5, self.N2, accepts=self.accepts)

    def prepare(self):
        n2 = self.N2
        la = [_ref(v) for v in self.raw_a]
        linf = [_ref(v) for v in self.raw_inf]
        lc = [_ref(v) for v in self.raw_c]
        ld = [_ref(v) for v in self.raw_d]
        fair, third = [self.FAIR] * n2, [self.THIRD] * n2
        env_rounds = [("envelope", self.ENV)] * n2
        r = self.ref = {}
        r["upper.third.root"] = O.path_sum(third, 2, la, 0)
        r["upper.envelope.root"] = O.levels(env_rounds, 2, la)[0][0]
        r["upper.sup.root.inf"] = max(linf)
        sub = O.subtree_leaves(linf, 2, n2, O.rank(self.s5, BIN), 5)
        r["upper.third.deep.inf"] = O.path_sum(third, 2, sub, 5)
        sub = O.subtree_leaves(linf, 2, n2, O.rank(self.s3, BIN), 3)
        r["lower.fair.deep.inf"] = -O.path_sum(fair, 2, [-v for v in sub], 3)
        sub = O.subtree_leaves(la, 2, n2, O.rank(self.s4, BIN), 4)
        r["upper.envelope.deep"] = O.levels(env_rounds, 2, sub, top=4)[0][0]
        r["lower.envelope.deep"] = -O.levels(env_rounds, 2, [-v for v in sub], top=4)[0][0]
        r["table.third"] = O.levels([("measure", self.THIRD)] * n2, 2, la)
        r["table.k3.per_round"] = O.levels(self.k3_rounds * 4, 3, lc)
        r["upper.k4.root"] = O.path_sum([self.K4_MEASURE] * self.N4, 4, ld, 0)
        accepted = set(self.accepts)
        ind = [Q(1) if s[n2 - 6 :] in accepted else Q(0) for s in self.keys2]
        low = -O.path_sum(fair, 2, [-v for v in ind], 0)
        if low != 1 - O.path_sum(fair, 2, [1 - v for v in ind], 0):
            raise AssertionError("reference complement identity failed")
        r["lower_probability.fair"] = low
        gaps = []
        for d in range(4):
            for i, s in enumerate(itertools.product(BIN, repeat=d)):
                below = O.subtree_leaves(linf, 2, n2, i, d)
                if max(below) != min(below):
                    gaps.append((s, max(below), min(below)))
        r["determinacy.sup.inf"] = gaps

    def ops(self):
        gt = self.gt
        n2 = self.N2
        full2, full3, full4 = tree_nodes(2, n2), tree_nodes(3, self.N3), tree_nodes(4, self.N4)

        def value(name, call, nodes):
            return Op(name, call, lambda v: _expect_value(v, self.ref[name], name), self.bump, nodes)

        def table(name, call, nodes, rounds, labels):
            # The reference levels come from the backward recursion, so a
            # table equal to them prices its own children at every node.
            def check(sm):
                return O.compare_table(sm.table, self.ref[name], labels)

            return Op(name, call, check, lambda sm: self.break_table(sm, rounds, labels), nodes)

        def determinacy(name, call, nodes):
            def check(rep):
                got = [(s, O.from_program(u), O.from_program(lo)) for s, u, lo in rep.gaps]
                if got != self.ref[name]:
                    return f"{name}: {len(got)} gaps, reference {len(self.ref[name])}"
                return None

            def perturb(rep):
                gaps = rep.gaps[:-1] if rep.gaps else [((), gt.ext(1), gt.ext(0))]
                return dataclasses.replace(rep, gaps=gaps)

            return Op(name, call, check, perturb, nodes)

        k3_rounds = self.k3_rounds * 4
        return [
            value("upper.third.root", lambda: gt.upper_expectation(self.third, self.xa), full2),
            value("upper.envelope.root", lambda: gt.upper_expectation(self.env, self.xa), full2),
            value("upper.sup.root.inf", lambda: gt.upper_expectation(self.sup, self.xinf), full2),
            value(
                "upper.third.deep.inf",
                lambda: gt.upper_expectation(self.third, self.xinf, self.s5),
                tree_nodes(2, n2 - 5),
            ),
            value(
                "lower.fair.deep.inf",
                lambda: gt.lower_expectation(self.fair, self.xinf, self.s3),
                tree_nodes(2, n2 - 3),
            ),
            value(
                "upper.envelope.deep",
                lambda: gt.upper_expectation(self.env, self.xa, self.s4),
                tree_nodes(2, n2 - 4),
            ),
            value(
                "lower.envelope.deep",
                lambda: gt.lower_expectation(self.env, self.xa, self.s4),
                tree_nodes(2, n2 - 4),
            ),
            table(
                "table.third",
                lambda: gt.upper_table(self.third, self.xa),
                full2,
                [("measure", self.THIRD)] * n2,
                BIN,
            ),
            table("table.k3.per_round", lambda: gt.upper_table(self.g3, self.xc), full3, k3_rounds, TRI),
            value("upper.k4.root", lambda: gt.upper_expectation(self.g4, self.xd), full4),
            value(
                "lower_probability.fair",
                lambda: gt.lower_probability(self.fair, self.event),
                2 * full2,
            ),
            determinacy(
                "determinacy.sup.inf", lambda: gt.determinacy_check(self.sup, self.xinf, 3), 2 * full2
            ),
        ]

    def pass_checks(self):
        def lower_le_upper(res):
            lo, up = res["lower.envelope.deep"], res["upper.envelope.deep"]
            if not O.from_program(lo) <= O.from_program(up):
                return f"lower {lo} > upper {up} at {''.join(self.s4)!r}"
            return None

        def perturb(res):
            out = dict(res)
            out["lower.envelope.deep"] = self.gt.ext(O.from_program(res["upper.envelope.deep"]) + 1)
            return out

        return [("lower<=upper", lower_le_upper, perturb)]


# -- touch --------------------------------------------------------------------


class Touch(Workload):
    """The running-maximum price on leading-ones and many-level table payoffs."""

    name = "touch"
    FAIR = (Q(1, 2), Q(1, 2))
    SKEW = (Q(2, 5), Q(3, 5))
    THIRD = (Q(1, 3), Q(2, 3))
    ENV2 = ((Q(1, 2), Q(1, 2)), (Q(2, 5), Q(3, 5)))
    K3_MEASURE = (Q(1, 6), Q(1, 3), Q(1, 2))
    # (name, labels, depth, level count, functional)
    TABLES = (
        ("table.k2n8.t24", BIN, 8, 24, ("measure", THIRD)),
        ("table.k2n10.t10", BIN, 10, 10, ("measure", THIRD)),
        ("table.k3n6.t12", TRI, 6, 12, ("measure", K3_MEASURE)),
    )
    # Brute-force sized: (name, labels, depth, positive leaves, functional)
    SMALL = (
        ("small.k2n3.fair", BIN, 3, 5, ("measure", FAIR)),
        ("small.k2n3.sup", BIN, 3, 5, ("sup",)),
        ("small.k2n3.envelope", BIN, 3, 5, ("envelope", ENV2)),
        ("small.k3n2.measure", TRI, 2, 6, ("measure", K3_MEASURE)),
        ("small.k2n2.third", BIN, 2, 4, ("measure", THIRD)),
    )
    LEADING = (
        ("leading_ones.fair.n12", 12, ("measure", FAIR)),
        ("leading_ones.skew.n12", 12, ("measure", SKEW)),
        ("leading_ones.envelope.n12", 12, ("envelope", ENV2)),
    )

    def __init__(self, root, seed):
        super().__init__(root, seed)
        rng = self.rng
        # The running-maximum program's work depends on the payoff's levels
        # and where they sit, but not on a common positive scale of all of
        # them (every price is positively homogeneous).  So the levels and
        # their places are drawn once from a fixed stream, and the seed
        # draws the scale: the inputs differ from seed to seed while the
        # work stays the same.
        fixed = random.Random("touch-tables")
        self.raw_tables = {}
        for name, labels, n, t, _f in self.TABLES:
            count = len(labels) ** n
            ranks = list(range(t)) + [fixed.randrange(t) for _ in range(count - t)]
            fixed.shuffle(ranks)
            levels = sorted(fixed.sample(range(1, 100), t))
            scale = rng.randint(1, 12)
            self.raw_tables[name] = (
                list(itertools.product(labels, repeat=n)),
                [scale * levels[r] for r in ranks],
            )
        self.raw_small = {}
        for name, labels, n, positive, _f in self.SMALL:
            count = len(labels) ** n
            vals = [0] * count
            for i in rng.sample(range(count), positive):
                vals[i] = rng.randint(1, 9)
            self.raw_small[name] = (list(itertools.product(labels, repeat=n)), vals)

    def _content(self, outcomes, f):
        gt = self.gt
        if f[0] == "measure":
            return gt.Measure(outcomes, f[1])
        if f[0] == "envelope":
            return gt.Envelope(outcomes, f[1])
        return gt.SupContent(outcomes)

    def build(self):
        gt = self.gt
        self.cases = {}
        for name, n, f in self.LEADING:
            b = gt.OutcomeSet(BIN)
            self.cases[name] = (
                gt.GameSpec(b, self._content(b, f), n),
                gt.Payoff.leading_ones_capped(2**n, n),
            )
        for name, labels, n, _t, f in self.TABLES + self.SMALL:
            o = gt.OutcomeSet(labels)
            keys, vals = (self.raw_tables if name in self.raw_tables else self.raw_small)[name]
            self.cases[name] = (gt.GameSpec(o, self._content(o, f), n), gt.Payoff.from_table(dict(zip(keys, vals)), n))

    def prepare(self):
        self.terminal = {}
        for name, n, f in self.LEADING:
            leaves = [Q(min(2 ** _leading(s), 2**n)) for s in itertools.product(BIN, repeat=n)]
            self.terminal[name] = O.levels([f] * n, 2, leaves)[0][0]
        for name, labels, n, _t, f in self.TABLES:
            leaves = [Q(v) for v in self.raw_tables[name][1]]
            self.terminal[name] = O.levels([f] * n, len(labels), leaves)[0][0]
        self.brute = {}
        for name, labels, n, _p, f in self.SMALL:
            leaves = [Q(v) for v in self.raw_small[name][1]]
            self.brute[name] = O.touch_price_bruteforce([f] * n, labels, n, leaves)

    def ops(self):
        gt = self.gt
        out = []

        def run(name):
            game, xi = self.cases[name]
            return lambda: gt.sup_variant_upper_expectation(game, xi)

        def bounded(name):
            def check(v):
                term = self.terminal[name]
                got = O.from_program(v)
                if name.startswith("leading_ones.fair") and got != 1:
                    return f"{name}: fair leading-ones touch price {v}, not 1"
                if not 0 <= got <= term:
                    return f"{name}: touch price {v} outside [0, terminal price {term}]"
                return None

            return check, lambda v: gt.ext(self.terminal[name] + 1)

        for name, n, _f in self.LEADING:
            check, perturb = bounded(name)
            out.append(Op(name, run(name), check, perturb, tree_nodes(2, n)))
        for name, labels, n, _t, _f in self.TABLES:
            check, perturb = bounded(name)
            out.append(Op(name, run(name), check, perturb, tree_nodes(len(labels), n)))
        for name, labels, n, _p, _f in self.SMALL:
            out.append(
                Op(
                    name,
                    run(name),
                    lambda v, name=name: _expect_value(v, self.brute[name], name),
                    self.bump,
                    tree_nodes(len(labels), n),
                )
            )
        return out


def _leading(s) -> int:
    n = 0
    for x in s:
        if x != "1":
            break
        n += 1
    return n


# -- construct ---------------------------------------------------------------------


class Construct(Workload):
    """Capital tables, the constructions and their checks at K=2 N=12."""

    name = "construct"
    N = 12
    FAIR = (Q(1, 2), Q(1, 2))
    UP = Q(3, 2)
    INTERVALS = 4
    LEVY = (Q(3, 5), Q(9, 10))
    LEVY_TABLE = (Q(6), Q(8))

    def __init__(self, root, seed):
        super().__init__(root, seed)
        rng = self.rng
        self.keys = list(itertools.product(BIN, repeat=self.N))
        self.raw_table = [rng.randint(-3, 9) for _ in self.keys]
        self.reloc = tuple(rng.sample(list(itertools.product(BIN, repeat=3)), 2))
        self.replay_at = tuple(rng.choice(BIN) for _ in range(4))
        self.stop_level = rng.choice((2, 3, 5))
        self.rounds = [("measure", self.FAIR)] * self.N

    def build(self):
        gt = self.gt
        b = gt.OutcomeSet(BIN)
        self.game = gt.GameSpec(b, gt.Measure(b, self.FAIR), self.N)
        self.ew = gt.indicator(gt.EventWindow.coordinate_is(self.N, "1"))
        self.xt = gt.Payoff.from_table(dict(zip(self.keys, self.raw_table)), self.N)
        self.short = gt.Supermartingale.from_fn(self.game, self._factor_fn(), depth=self.N - 4)
        self.intervals = gt.enumerate_intervals(self.INTERVALS)

    def _factor_fn(self):
        ext, up = self.gt.ext, self.UP
        down = (1 - up * self.FAIR[1]) / self.FAIR[0]

        def fn(s):
            v = Q(1)
            for x in s:
                v *= up if x == "1" else down
            return ext(v)

        return fn

    def ops(self):
        gt, game, n = self.gt, self.game, self.N
        st: dict[str, Any] = {}
        full = tree_nodes(2, n)
        rounds = self.rounds
        out: list[Op] = []
        broken = lambda sm: self.break_table(sm, rounds, BIN)

        def keep(key, fn):
            def call():
                st[key] = fn()
                return st[key]

            return call

        def verdict(table):
            """Reference verdict on a table: a violation or None, and whether it is a martingale."""
            return O.check_supermartingale(rounds, BIN, table, n)

        def sm_check(sm):
            return verdict(sm.table)[0]

        factor = {"1": self.UP, "0": (1 - self.UP * self.FAIR[1]) / self.FAIR[0]}

        def base_check(sm):
            want = {(): Q(1)}
            for s in itertools.product(BIN, repeat=n):
                for d in range(1, n + 1):
                    if s[:d] not in want:
                        want[s[:d]] = want[s[: d - 1]] * factor[s[d - 1]]
            if sm.table.keys() != want.keys():
                return f"base has {len(sm.table)} nodes, not {full}"
            for s, v in sm.table.items():
                if O.from_program(v) != want[s]:
                    return f"base at {''.join(s)!r}: {v} != {want[s]}"
            violation, martingale = verdict(sm.table)
            return violation or (None if martingale else "base is not a martingale")

        out.append(Op("base.from_fn", keep("base", lambda: gt.Supermartingale.from_fn(game, self._factor_fn())), base_check, broken, full))

        tables = ["base"]
        for i, (a, b) in enumerate(self.intervals):
            key = f"doob.{i + 1}"

            def call(i=i, a=a, b=b, key=key):
                st[key] = gt.doob_upcrossing(game, st["base"], a, b, check_base=(i == 0))
                return st[key]

            def check(res, a=a, b=b):
                return sm_check(res.table) or doob_floor_problem(_values(res.table), *_cuts(res.trace), a, b)

            def perturb(res):
                return dataclasses.replace(res, table=self.break_table(res.table, rounds, BIN))

            out.append(Op(key, call, check, perturb, full))
            tables.append(key)

        def mixture_check(res):
            parts = [st[f"doob.{i + 1}"].table.table for i in range(len(self.intervals))]
            weights = [Q(1, 2**i) for i in range(1, len(parts) + 1)]
            for s, v in res.table.table.items():
                vals = [O.from_program(p[s]) for p in parts]
                want = O.INF if O.INF in vals else sum(w * x for w, x in zip(weights, vals))
                if O.from_program(v) != want:
                    return f"mixture at {''.join(s)!r}: {v} != {want}"
            root = sum(w * O.from_program(p[()]) for w, p in zip(weights, parts))
            if O.from_program(res.table.table[()]) != root:
                return f"mixture root {res.table.table[()]} != {root}"
            return sm_check(res.table)

        out.append(
            Op(
                "mixture",
                keep("mixture", lambda: gt.mixture([st[f"doob.{i + 1}"] for i in range(len(self.intervals))])),
                mixture_check,
                lambda res: dataclasses.replace(res, table=broken(res.table)),
                full,
            )
        )
        tables.append("mixture")

        levy_cases = (
            ("levy.e_w12", self.ew, self.LEVY, "none"),
            ("levy.e_w12.dyadic", self.ew, self.LEVY, "dyadic"),
            ("levy.table", self.xt, self.LEVY_TABLE, "none"),
        )
        for key, xi, (a, b), slack in levy_cases:
            def call(key=key, xi=xi, a=a, b=b, slack=slack):
                st[key] = gt.levy_strategy(game, xi, a, b, slack=slack)
                return st[key]

            def check(res, a=a, b=b, slack=slack):
                return sm_check(res.table) or levy_floor_problem(
                    _values(res.table), *_cuts(res.trace), a, b, slack
                )

            out.append(
                Op(key, call, check, lambda res: dataclasses.replace(res, table=broken(res.table)), full)
            )
            tables.append(key)

        s, t = self.reloc

        def reloc_check(moved):
            src = st["levy.e_w12"].table.table
            for u, v in moved.table.items():
                want = src[s + u[len(t) :]] if u[: len(t)] == t else None
                got = O.from_program(v)
                if want is None and got != O.INF:
                    return f"relocated table at {''.join(u)!r} off the target subtree: {v}"
                if want is not None and got != O.from_program(want):
                    return f"relocated table at {''.join(u)!r}: {v} != {want}"
            return sm_check(moved)

        out.append(
            Op(
                "relocate",
                keep("relocated", lambda: gt.translate_strategy(st["levy.e_w12"].table, s, t)),
                reloc_check,
                broken,
                full,
            )
        )
        at = self.replay_at

        def replay_check(moved):
            src = self.short.table
            for u, v in moved.table.items():
                got = O.from_program(v)
                if u[: len(at)] == at:
                    want = O.from_program(src[u[len(at) :]])
                else:
                    want = O.INF
                if got != want:
                    return f"replayed table at {''.join(u)!r}: {v} != {want}"
            if len(moved.table) != full:
                return f"replayed table has {len(moved.table)} nodes, not {full}"
            return sm_check(moved)

        out.append(
            Op("replay", keep("replayed", lambda: gt.shift_strategy(game, self.short, at)), replay_check, broken, full)
        )
        level = self.stop_level

        def stop_check(stopped):
            base = {u: O.from_program(v) for u, v in st["base"].table.items()}
            for u, v in stopped.table.items():
                want = base[u]
                for k in range(len(u)):
                    if base[u[:k]] > level:
                        want = base[u[:k]]
                        break
                if O.from_program(v) != want:
                    return f"stopped table at {''.join(u)!r}: {v} != {want}"
            return sm_check(stopped)

        out.append(
            Op(
                "stop",
                keep("stopped", lambda: gt.stop_when_covered(st["base"], gt.ext(level))),
                stop_check,
                broken,
                full,
            )
        )
        tables += ["relocated", "replayed", "stopped"]

        def table_of(key):
            v = st[key]
            return v if isinstance(v, gt.Supermartingale) else v.table

        for key in tables:
            def verify(key=key):
                return gt.verify_supermartingale(game, table_of(key))

            def verify_check(res, key=key):
                violation, martingale = verdict(table_of(key).table)
                if res.ok != (violation is None):
                    return f"verify {key}: ok={res.ok}, reference says {violation or 'ok'}"
                if res.ok and res.martingale != martingale:
                    return f"verify {key}: martingale={res.martingale}, reference {martingale}"
                return None

            out.append(
                Op(
                    f"verify.{key}",
                    verify,
                    verify_check,
                    lambda res: dataclasses.replace(res, ok=not res.ok),
                    tree_nodes(2, n - 1),
                )
            )
        ser = sys.modules["gtprob.serialize"]
        outcomes = game.outcomes
        for key in tables:
            def roundtrip(key=key):
                text = ser.supermartingale_to_csv(table_of(key), outcomes)
                return text, ser.supermartingale_from_csv(text, outcomes)

            def rt_check(res, key=key):
                _text, back = res
                orig = table_of(key)
                if back.depth != orig.depth or back.table.keys() != orig.table.keys():
                    return f"csv {key}: node set or depth changed"
                for u, v in orig.table.items():
                    if O.from_program(back.table[u]) != O.from_program(v):
                        return f"csv {key} at {''.join(u)!r}: {back.table[u]} != {v}"
                return None

            def rt_perturb(res):
                text, back = res
                changed = dict(back.table)
                changed[()] = self.bump(changed[()])
                return text, gt.Supermartingale(changed, back.depth)

            out.append(Op(f"csv.{key}", roundtrip, rt_check, rt_perturb, full))
        return out


def _values(sm) -> dict:
    return {s: O.from_program(v) for s, v in sm.table.items()}


def _cuts(trace):
    return [c.members for c in trace.sigma], [c.members for c in trace.tau]


def doob_floor_problem(values: dict, sigma, tau, a, b) -> str | None:
    """Phase floors on the emitted cuts: ``b+(k-1)(b-a)`` at the k-th
    upcross, ``k(b-a)`` at the k-th drop; capital never negative."""
    for s, v in values.items():
        if v < 0:
            return f"doob capital {v} < 0 at {''.join(s)!r}"
    for k in range(1, len(sigma)):
        floor = b + (k - 1) * (b - a)
        for u in sigma[k]:
            if values[u] < floor:
                return f"doob upcross {k} at {''.join(u)!r}: {values[u]} < {floor}"
        for u in tau[k] if k < len(tau) else ():
            if values[u] < k * (b - a):
                return f"doob drop {k} at {''.join(u)!r}: {values[u]} < {k * (b - a)}"
    return None


def levy_floor_problem(values: dict, sigma, tau, a, b, slack) -> str | None:
    """Exit floors: ``(b/a)^k`` at the k-th exit, and in dyadic mode the
    product of ``b / (a + 2^-depth)`` over the entries above the exit."""
    for s, v in values.items():
        if v < 0:
            return f"levy capital {v} < 0 at {''.join(s)!r}"
    for k in range(1, len(sigma)):
        for u in sigma[k]:
            if slack == "none":
                floor = (b / a) ** k
            else:
                floor = Q(1)
                for j in range(1, k + 1):
                    entry = [e for e in tau[j] if u[: len(e)] == e]
                    if len(entry) != 1:
                        return f"levy exit {k} at {''.join(u)!r} has {len(entry)} entries in cut {j}"
                    floor *= b / (a + Q(1, 2 ** len(entry[0])))
            if values[u] < floor:
                return f"levy exit {k} at {''.join(u)!r}: {values[u]} < {floor}"
    return None


# -- cli ------------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    out: str
    err: str
    files: dict

    def signature(self):
        return self.code, self.out, tuple(sorted(self.files.items()))


class Cli(Workload):
    pace = "import"
    """One ``gtprob`` process per command, on fixture specs written at set-up.

    A traced run calls ``gtprob.cli.main`` in-process instead, so that the
    same wrappers see the work.
    """

    name = "cli"
    P10 = (Q(1, 3), Q(2, 3))
    FAIR = (Q(1, 2), Q(1, 2))
    DOOB = (Q(4, 5), Q(6, 5))
    LEVY = (Q(3, 5), Q(9, 10))
    PROBES = ("probe.kolmogorov_no_event", "probe.table_missing_entry", "probe.mixing_map_gap")

    def __init__(self, root, seed):
        super().__init__(root, seed)
        rng = self.rng
        self.in_process = False
        self.work = os.path.join(root, ".perfbench_work", f"cli-{os.getpid()}")
        self.src = os.path.join(root, "src")
        self.keys10 = list(itertools.product(BIN, repeat=10))
        self.raw_p10 = [rng.randint(-9, 9) for _ in self.keys10]
        self.cond_at = tuple(rng.choice(BIN) for _ in range(4))
        self.path12 = tuple(rng.choice(BIN) for _ in range(12))
        self.path10 = tuple(rng.choice(BIN) for _ in range(10))
        self.paths = [tuple(rng.choice(BIN) for _ in range(10)) for _ in range(2)]
        self.table_price = rng.choice((Q(1, 3), Q(1, 2), Q(2, 3)))
        self.system = rng.choice(("a", "b"))
        self.first: dict[str, tuple] = {}

    def path(self, name):
        return os.path.join(self.work, name)

    def build(self):
        os.makedirs(self.work, exist_ok=True)

        def dump(name, obj):
            with open(self.path(name), "w") as fh:
                json.dump(obj, fh)

        measure = lambda p: {"type": "measure", "probs": {"0": str(p[0]), "1": str(p[1])}}
        dump("g10.json", {"outcomes": list(BIN), "horizon": 10, "content": measure(self.P10)})
        dump("g12.json", {"outcomes": list(BIN), "horizon": 12, "content": measure(self.FAIR)})
        dump("f10.json", {"outcomes": list(BIN), "horizon": 10, "content": measure(self.FAIR)})
        dump(
            "p10.json",
            {"kind": "table", "depth": 10, "values": {"".join(k): str(v) for k, v in zip(self.keys10, self.raw_p10)}},
        )
        q = str(self.table_price)
        entries = [
            {"gamble": {"0": "0", "1": "1"}, "value": q},
            {"gamble": {"0": q, "1": q}, "value": q},
        ]
        dump("table.json", {"outcomes": list(BIN), "horizon": 2, "content": {"type": "table", "entries": entries}})
        dump(
            "table_gap.json",
            {"outcomes": list(BIN), "horizon": 2, "content": {"type": "table", "entries": entries[:1]}},
        )
        dump(
            "p2.json",
            {
                "outcomes": list(BIN),
                "predictions": [["a", "b"]] * 4,
                "contents": {"a": measure(self.FAIR), "b": measure(self.P10)},
            },
        )
        dump("system.json", {"kind": "constant", "value": self.system})
        dump("system_gap.json", {"kind": "last-outcome", "map": {"0": "a"}, "initial": "b"})
        dump("e1.json", {"start": 3, "end": 3, "accepts": [["1"]]})
        dump("e2.json", {"start": 4, "end": 4, "accepts": [["0"]]})

    def prepare(self):
        leaves = [Q(v) for v in self.raw_p10]
        rounds = [("measure", self.P10)] * 10
        self.p10_levels = O.levels(rounds, 2, leaves)
        self.p10_low = [[-v for v in lev] for lev in O.levels(rounds, 2, [-v for v in leaves])]
        shift = min(leaves) - 1 if min(leaves) < 0 else Q(0)
        self.p10_shifted = O.levels(rounds, 2, [v - shift for v in leaves])
        root = self.p10_levels[0][0]
        rows = ["situation,value"]
        for d, lev in enumerate(self.p10_levels):
            for s, v in zip(itertools.product(BIN, repeat=d), lev):
                rows.append(f"{''.join(s)},{v - 1 if d == 0 else v}")
        with open(self.path("broken.csv"), "w") as fh:
            fh.write("\n".join(rows) + "\n")
        self.broken_witness = f"□: {root} > {root - 1}"

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.work))

    # -- running one command ---------------------------------------------------

    def invoke(self, argv, outputs=()):
        for name in outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.path(name))
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            cli = sys.modules["gtprob.cli"]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
            return CliResult(code, out.getvalue(), err.getvalue(), {})
        env = dict(os.environ, PYTHONPATH=self.src)
        proc = subprocess.run(
            [sys.executable, "-c", "from gtprob.cli import entry; entry()", *argv],
            cwd=self.work,
            env=env,
            capture_output=True,
            text=True,
            timeout=150,
        )
        return CliResult(proc.returncode, proc.stdout, proc.stderr, {})

    def read_outputs(self, res: CliResult, outputs) -> CliResult:
        files = {}
        try:
            for name in outputs:
                with open(self.path(name)) as fh:
                    files[name] = fh.read()
        except FileNotFoundError:
            files = None
        return dataclasses.replace(res, files=files)

    def ops(self):
        P = self.path
        out: list[Op] = []

        def add(name, argv, check, perturb, nodes=0, outputs=(), probe=False):
            def call():
                return self.invoke(argv, outputs)

            def full_check(res):
                if probe:
                    return _probe_problem(res)
                if res.files is None:
                    return f"{name}: output files missing"
                problem = check(res)
                if problem:
                    return f"{name}: {problem}"
                # Identical inputs must give byte-identical outputs.
                sig = res.signature()
                if not self.self_test and self.first.setdefault(name, sig) != sig:
                    return f"{name}: output differs from the first invocation"
                return None

            collect = None if probe else (lambda res: self.read_outputs(res, outputs))
            out.append(Op(name, call, full_check, perturb, nodes, probe, collect))

        def printed(ref, code=0):
            def check(res):
                if res.code != code:
                    return f"exit {res.code}, expected {code}: {res.err.strip()[-200:]}"
                try:
                    got = O.parse_text(res.out)
                except (ValueError, ZeroDivisionError):
                    return f"unparsable output {res.out!r}"
                return None if got == ref else f"printed {res.out.strip()}, reference {ref}"

            return check

        def bump_out(res):
            return dataclasses.replace(res, out=f"{O.parse_text(res.out) + 1}\n")

        cond_rank = O.rank(self.cond_at, BIN)
        add("axioms", ["axioms", P("g10.json")], _axioms_check, _bump_code)
        add(
            "expect.root",
            ["expect", P("g10.json"), "--payoff", P("p10.json")],
            printed(self.p10_levels[0][0]),
            bump_out,
            tree_nodes(2, 10),
        )
        add(
            "expect.conditional",
            ["expect", P("g10.json"), "--payoff", P("p10.json"), "--situation", "".join(self.cond_at)],
            printed(self.p10_levels[4][cond_rank]),
            bump_out,
            tree_nodes(2, 6),
        )
        add(
            "expect.lower",
            ["expect", P("g10.json"), "--payoff", P("p10.json"), "--lower"],
            printed(self.p10_low[0][0]),
            bump_out,
            tree_nodes(2, 10),
        )
        add(
            "expect.sup_variant",
            ["expect", P("f10.json"), "--payoff", "leading_ones:1024", "--variant", "sup"],
            printed(Q(1)),
            bump_out,
            tree_nodes(2, 10),
        )
        add(
            "expect.table_functional",
            ["expect", P("table.json"), "--payoff", "e_w2"],
            printed(self.table_price),
            bump_out,
            tree_nodes(2, 2),
        )
        sim_out = ("doob_trace.csv", "doob_table.csv", "doob_cuts.json")
        a, b = self.DOOB
        add(
            "simulate.doob",
            [
                "simulate", P("g12.json"), "--strategy", f"doob:{a},{b}", "--path", ",".join(self.path12),
                "--trace", P(sim_out[0]), "--table", P(sim_out[1]), "--cuts", P(sim_out[2]),
            ],
            lambda res: self._simulate_check(res, sim_out, 12, self.path12, "doob", None),
            lambda res: _break_csv_file(res, sim_out[1]),
            2 * tree_nodes(2, 12),
            sim_out,
        )
        levy_out = ("levy_trace.csv", "levy_table.csv", "levy_cuts.json")
        a, b = self.LEVY
        add(
            "simulate.levy",
            [
                "simulate", P("g12.json"), "--strategy", f"levy:{a},{b}", "--payoff", "e_w12",
                "--path", ",".join(self.path12),
                "--trace", P(levy_out[0]), "--table", P(levy_out[1]), "--cuts", P(levy_out[2]),
            ],
            lambda res: self._simulate_check(res, levy_out, 12, self.path12, "none", "e_w12"),
            lambda res: _break_csv_file(res, levy_out[1]),
            3 * tree_nodes(2, 12),
            levy_out,
        )
        dy_out = ("dyadic_trace.csv", "dyadic_table.csv", "dyadic_cuts.json")
        add(
            "simulate.levy_dyadic",
            [
                "simulate", P("g10.json"), "--strategy", f"levy:{a},{b},dyadic", "--payoff", P("p10.json"),
                "--path", ",".join(self.path10),
                "--trace", P(dy_out[0]), "--table", P(dy_out[1]), "--cuts", P(dy_out[2]),
            ],
            lambda res: self._simulate_check(res, dy_out, 10, self.path10, "dyadic", "p10"),
            lambda res: _break_csv_file(res, dy_out[1]),
            3 * tree_nodes(2, 10),
            dy_out,
        )
        for key, spec, table, depth, probs in (
            ("verify.doob", "g12.json", sim_out[1], 12, self.FAIR),
            ("verify.levy", "g12.json", levy_out[1], 12, self.FAIR),
        ):
            add(
                key,
                ["verify", P(spec), "--supermartingale", P(table)],
                lambda res, table=table, depth=depth, probs=probs: self._verify_check(res, table, depth, probs),
                _bump_code,
                tree_nodes(2, depth - 1),
            )
        add(
            "verify.broken",
            ["verify", P("g10.json"), "--supermartingale", P("broken.csv")],
            self._broken_check,
            lambda res: dataclasses.replace(res, out="□: 0 > 0\n"),
            tree_nodes(2, 9),
        )
        add(
            "law.levy",
            ["law", P("g10.json"), "levy", "--payoff", P("p10.json"), "--paths", ";".join(",".join(p) for p in self.paths)],
            self._law_levy_check,
            _bump_first_levy_value,
            tree_nodes(2, 10),
        )
        add("law.kolmogorov", ["law", P("g10.json"), "kolmogorov", "--event", "w5=1"], self._kolmogorov_check,
            lambda res: dataclasses.replace(res, out=res.out.replace(": 2/3", ": 1/3", 1)), 16 * tree_nodes(2, 1) + tree_nodes(2, 5))
        add("law.ergodic", ["law", P("g10.json"), "ergodic", "--event", "w1=1", "--situation", "0"], self._ergodic_check,
            lambda res: dataclasses.replace(res, out=res.out.replace("unconditional 2/3", "unconditional 1/3")), 2 * tree_nodes(2, 1))
        add("law.classify", ["law", P("g10.json"), "classify", "--event", "w4=1"], self._classify_check,
            lambda res: dataclasses.replace(res, out=res.out.replace('"upper": "2/3"', '"upper": "1"')), 3 * tree_nodes(2, 4))
        add(
            "law.mixing",
            ["law", P("p2.json"), "mixing", "--system", P("system.json"), "--events", f"{P('e1.json')};{P('e2.json')}",
             "--delta", "0", "--gap", "1"],
            self._mixing_check,
            lambda res: dataclasses.replace(res, out=res.out.replace("upper=", "upper=1", 1)),
            # Embedded game over 4 pairs: two unconditional sweeps, then
            # both events after each prefix of length 1 and 2.
            tree_nodes(4, 3) + tree_nodes(4, 4)
            + 2 * (tree_nodes(4, 2) + tree_nodes(4, 3))
            + 4 * (tree_nodes(4, 1) + tree_nodes(4, 2)),
        )
        probe_argv = {
            "probe.kolmogorov_no_event": ["law", P("g10.json"), "kolmogorov"],
            "probe.table_missing_entry": ["expect", P("table_gap.json"), "--payoff", "e_w2"],
            "probe.mixing_map_gap": [
                "law", P("p2.json"), "mixing", "--system", P("system_gap.json"),
                "--events", f"{P('e1.json')};{P('e2.json')}", "--delta", "0", "--gap", "1",
            ],
        }
        for name in self.PROBES:
            add(name, probe_argv[name], None, _bump_code, 0, probe=True)
        return out

    # -- checks -----------------------------------------------------------------

    def _read_table(self, text: str) -> dict:
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["situation", "value"]:
            raise ValueError("bad table header")
        return {tuple(r[0]): r[1] for r in rows[1:]}

    def _simulate_check(self, res, names, depth, path, mode, payoff):
        if res.code != 0:
            return f"exit {res.code}: {res.err.strip()[-200:]}"
        table = {s: O.parse_text(v) for s, v in self._read_table(res.files[names[1]]).items()}
        probs = self.FAIR if depth == 12 else self.P10
        violation = _plain_supermartingale(table, depth, probs)
        if violation:
            return violation
        trace = list(csv.reader(io.StringIO(res.files[names[0]])))
        if trace[0] != ["n", "situation", "capital", "conditional_upper", "note"]:
            return "bad trace header"
        for n, row in enumerate(trace[1:]):
            s = path[:n]
            if row[1] != "".join(s) or O.parse_text(row[2]) != table[s]:
                return f"trace row {n} {row} disagrees with the table"
            if payoff == "p10" and O.parse_text(row[3]) != self.p10_shifted[n][O.rank(s, BIN)]:
                return f"trace row {n}: conditional {row[3]} != {self.p10_shifted[n][O.rank(s, BIN)]}"
        cuts = json.loads(res.files[names[2]])
        sigma = [[tuple(u) for u in cut] for cut in cuts["sigma"]]
        tau = [[tuple(u) for u in cut] for cut in cuts["tau"]]
        if mode == "doob":
            return doob_floor_problem(table, sigma, tau, *self.DOOB)
        return levy_floor_problem(table, sigma, tau, *self.LEVY, mode)

    def _verify_check(self, res, table_name, depth, probs):
        with open(self.path(table_name)) as fh:
            table = {s: O.parse_text(v) for s, v in self._read_table(fh.read()).items()}
        violation = _plain_supermartingale(table, depth, probs)
        martingale = _plain_martingale(table, depth, probs)
        if violation is None:
            want = f"ok: {'martingale' if martingale else 'supermartingale'} up to depth {depth}\n"
            if res.code != 0 or res.out != want:
                return f"exit {res.code}, printed {res.out!r}, expected {want!r}"
        elif res.code != 1:
            return f"exit {res.code} on a violated table"
        return None

    def _broken_check(self, res):
        if res.code != 1 or res.out.strip() != self.broken_witness:
            return f"exit {res.code}, printed {res.out.strip()!r}, expected 1 and {self.broken_witness!r}"
        return None

    def _law_levy_check(self, res):
        if res.code != 0:
            return f"exit {res.code}"
        report = json.loads(res.out)
        for row, path in zip(report["paths"], self.paths):
            want = [self.p10_levels[d][O.rank(path[:d], BIN)] for d in range(11)]
            got = [O.parse_text(v) for v in row["values"]]
            if got != want or row["terminal_ok"] is not True:
                return f"path {''.join(path)}: {row['values']} != {[str(v) for v in want]}"
        return None

    def _kolmogorov_check(self, res):
        if res.code != 0 or not res.out.startswith("invariant"):
            return f"exit {res.code}, {res.out[:80]!r}"
        values = re.findall(r"(\d{4}): ([^,\]]+)", res.out)
        if len(values) != 16 or any(O.parse_text(v) != self.P10[1] for _s, v in values):
            return f"prefix values {values[:3]}..., reference {self.P10[1]}"
        if "relocation witness ok: True" not in res.out:
            return "relocation witness not ok"
        return None

    def _ergodic_check(self, res):
        want = f"conditional 0 <= unconditional {self.P10[1]}: True; replay witness ok: True"
        if res.code != 0 or not res.out.startswith(want):
            return f"exit {res.code}, {res.out[:90]!r}, expected {want!r}"
        return None

    def _classify_check(self, res):
        if res.code != 0:
            return f"exit {res.code}"
        rows = json.loads(res.out)["rows"]
        p = self.P10[1]
        if [(O.parse_text(r["lower"]), O.parse_text(r["upper"])) for r in rows] != [(p, p)]:
            return f"rows {rows}, reference [{p}, {p}]"
        return None

    def _mixing_check(self, res):
        if res.code != 0 or "0 violation(s)" not in res.out:
            return f"exit {res.code}, {res.out[:80]!r}"
        probs = self.FAIR if self.system == "a" else self.P10
        want = [probs[1], probs[0]]  # w3 = 1 and w4 = 0 under the chosen forecast
        got = [O.parse_text(v) for v in re.findall(r"upper=([^ ,\n]+)", res.out)]
        if got != want:
            return f"dichotomy uppers {got}, reference {want}"
        return None


def _plain_supermartingale(table: dict, depth: int, probs) -> str | None:
    for s, v in table.items():
        if len(s) < depth:
            p = O.measure_price(probs, [table[s + (x,)] for x in BIN])
            if p > v:
                return f"table violates the supermartingale inequality at {''.join(s)!r}: {p} > {v}"
    return None


def _plain_martingale(table: dict, depth: int, probs) -> bool:
    return all(
        O.measure_price(probs, [table[s + (x,)] for x in BIN]) == v for s, v in table.items() if len(s) < depth
    )


def _break_csv_file(res: CliResult, name: str) -> CliResult:
    lines = res.files[name].splitlines()
    root = lines[1].split(",")
    lines[1] = f",{O.parse_text(root[1]) - 5}"
    return dataclasses.replace(res, files=dict(res.files, **{name: "\n".join(lines) + "\n"}))


def _bump_first_levy_value(res: CliResult) -> CliResult:
    report = json.loads(res.out)
    values = report["paths"][0]["values"]
    values[0] = str(O.parse_text(values[0]) + 1)
    return dataclasses.replace(res, out=json.dumps(report))


def _bump_code(res: CliResult) -> CliResult:
    return dataclasses.replace(res, code=res.code + 3)


def _axioms_check(res) -> str | None:
    if res.code != 0 or "FAIL" in res.out:
        return f"exit {res.code}"
    if "audited level: superexpectation" not in res.out:
        return "a measure did not audit as a superexpectation"
    return None


def _probe_problem(res: CliResult) -> str | None:
    """The contract for bad input: exit 2 and no traceback."""
    if res.code == 2 and "Traceback" not in res.err:
        return None
    return f"exit {res.code}" + (" with a traceback" if "Traceback" in res.err else "")


WORKLOADS = {w.name: w for w in (Sweep, Touch, Construct, Cli)}
