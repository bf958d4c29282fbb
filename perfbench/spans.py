"""Spans around every gtprob function and method, installed from outside.

A traced run replaces each function defined in a gtprob module, and each
method of a class defined there, with a wrapper that records a span: its
name, start, end and the span that was open when it began.  The wrapper
is installed in every module namespace that holds the original, because
modules such as ``strategies`` and ``laws`` import ``upper_table`` by
name.  Counts and self times accumulate for every call; the spans
themselves are kept in memory up to a cap and written out when the run
ends.  Untraced runs install nothing.
"""

from __future__ import annotations

import contextlib
import enum
import itertools
import json
import os
import sys
import time
import types
from collections import defaultdict

LAYERS = (
    "extreal",
    "functionals",
    "gametree",
    "expectation",
    "strategies",
    "laws",
    "forecaster",
    "serialize",
    "cli",
    "config",
)

EVAL_KINDS = {
    "Measure.eval_seq": "measure",
    "Envelope.eval_seq": "envelope",
    "SupContent.eval_seq": "sup",
    "EmbeddedContent.eval_seq": "embedded",
    "TableContent.eval_seq": "table",
}

# Sweep entry points; calls into these from ``laws`` are counted.
SWEEPS = {
    "upper_expectation",
    "lower_expectation",
    "upper_table",
    "upper_probability",
    "lower_probability",
    "sup_variant_upper_expectation",
    "determinacy_check",
}

LEAF = {"expectation.Payoff.value", "expectation.Payoff.leaf_values"}
# Leaf time spent under these spans is taken out of their sweep time.
LEAF_OWNERS = {"expectation._level_values", "expectation.upper_table"}

SKIP_METHODS = {"__new__", "__init_subclass__", "__getattribute__", "__setattr__", "__repr__"}
PACKAGE = "gtprob"
# Spans kept per function: every function shows up in the record, however
# many calls the hottest ones make.
SPAN_CAP = 500


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer: list[str] = []
        self.count: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.recorded: list[int] = []
        self.span_ids = itertools.count()
        self.extra: dict[str, float] = defaultdict(float)
        self.laws_sweep_calls = 0
        self.off = [False]

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        sid = len(self.names)
        self.names.append(name)
        self.layer.append(layer)
        self.count.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        self.recorded.append(0)
        stack, spans, cap, ids = self.stack, self.spans, SPAN_CAP, self.span_ids
        recorded = self.recorded
        count, total, self_time = self.count, self.total, self.self_time
        clock = time.perf_counter
        hook = self._hook_for(name)
        short = name.rsplit(".", 1)[-1]
        counts_as_laws_sweep = layer == "expectation" and short in SWEEPS
        leaf = name in LEAF
        tracer = self
        off = self.off

        def wrapper(*args, **kwargs):
            if off[0]:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1] if stack else None
            frame = [0.0, sid, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                count[sid] += 1
                total[sid] += d
                self_time[sid] += d - frame[0]
                if parent is not None:
                    parent[0] += d
                if recorded[sid] < cap:
                    recorded[sid] += 1
                    spans.append((span_id, sid, t0, t1, -1 if parent is None else parent[2]))
                if leaf:
                    tracer._charge_leaf(d)
                if counts_as_laws_sweep and parent is not None and tracer.layer[parent[1]] == "laws":
                    tracer.laws_sweep_calls += 1
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not recorded."""
        self.off[0] = True
        try:
            yield
        finally:
            self.off[0] = False

    def _charge_leaf(self, d: float) -> None:
        for frame in reversed(self.stack):
            owner = self.names[frame[1]]
            if owner in LEAF_OWNERS:
                self.extra["leaf_under:" + owner] += d
                return

    def _hook_for(self, name: str):
        extra = self.extra
        if name == "expectation.Payoff.leaf_values":
            def hook(args, result):
                extra["leaf_values_items"] += len(result)
            return hook
        if name == "expectation.upper_table":
            def hook(args, result):
                extra["expectation.table_nodes"] += len(result.table)
            return hook
        if name == "gametree.Supermartingale.__init__":
            def hook(args, result):
                extra["gametree.table_nodes"] += len(args[0].table)
            return hook
        if name == "gametree.Cut.__init__":
            def hook(args, result):
                extra["gametree.cut_members"] += len(args[0].members)
            return hook
        if name == "gametree.verify_supermartingale":
            def hook(args, result):
                extra["gametree.verify_nodes"] += _verified_nodes(args[0], args[1], result)
            return hook
        if name == "serialize.supermartingale_to_csv":
            def hook(args, result):
                extra["serialize.bytes"] += len(result)
            return hook
        if name == "serialize.supermartingale_from_csv":
            def hook(args, result):
                extra["serialize.bytes"] += len(args[0])
            return hook
        if name == "serialize.load_spec":
            def hook(args, result):
                extra["serialize.bytes"] += os.path.getsize(args[0])
            return hook
        return None

    def install(self) -> None:
        """Wrap every gtprob function and method and rebind the names."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
                elif (
                    isinstance(obj, type)
                    and obj.__module__ == mod.__name__
                    and not issubclass(obj, (enum.Enum, BaseException))
                ):
                    self._wrap_class(obj, layer)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                new = replaced.get(id(obj))
                if new is not None and new.__wrapped__ is obj:
                    setattr(mod, attr, new)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr in SKIP_METHODS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, types.FunctionType):
                setattr(cls, attr, self._wrap(obj, name, layer))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(obj.__func__, name, layer)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(obj.__func__, name, layer)))
            elif isinstance(obj, property) and obj.fget is not None and obj.fset is None:
                setattr(cls, attr, property(self._wrap(obj.fget, name, layer)))

    # -- read-out -------------------------------------------------------

    def reset(self) -> None:
        for i in range(len(self.names)):
            self.count[i] = 0
            self.total[i] = 0.0
            self.self_time[i] = 0.0
            self.recorded[i] = 0
        self.spans.clear()
        self.extra.clear()
        self.laws_sweep_calls = 0

    def metrics(self) -> dict[str, float]:
        by_name = {n: i for i, n in enumerate(self.names)}

        def cnt(name):
            return self.count[by_name[name]] if name in by_name else 0

        def tot(name):
            return self.total[by_name[name]] if name in by_name else 0.0

        def layer_self(layer):
            return sum(s for s, lay in zip(self.self_time, self.layer) if lay == layer)

        m: dict[str, float] = {}
        m["extreal.ops"] = sum(c for c, lay in zip(self.count, self.layer) if lay == "extreal")
        m["extreal.self_s"] = layer_self("extreal")
        for qual, kind in EVAL_KINDS.items():
            m[f"functionals.eval_calls.{kind}"] = sum(
                c for n, c in zip(self.names, self.count) if n.endswith("." + qual)
            )
        m["functionals.self_s"] = layer_self("functionals")
        m["expectation.leaf_evals"] = cnt("expectation.Payoff.value") + self.extra["leaf_values_items"]
        m["expectation.leaf_s"] = tot("expectation.Payoff.value") + tot("expectation.Payoff.leaf_values")
        m["expectation.sweep_calls"] = cnt("expectation._level_values")
        m["expectation.sweep_s"] = tot("expectation._level_values") - self.extra[
            "leaf_under:expectation._level_values"
        ]
        m["expectation.table_nodes"] = self.extra["expectation.table_nodes"]
        m["expectation.table_s"] = tot("expectation.upper_table") - self.extra[
            "leaf_under:expectation.upper_table"
        ]
        m["expectation.touch_s"] = tot("expectation.sup_variant_upper_expectation")
        m["gametree.table_nodes"] = self.extra["gametree.table_nodes"]
        m["gametree.verify_nodes"] = self.extra["gametree.verify_nodes"]
        m["gametree.verify_s"] = tot("gametree.verify_supermartingale")
        m["gametree.cut_members"] = self.extra["gametree.cut_members"]
        m["gametree.cut_s"] = tot("gametree.Cut.__init__")
        m["gametree.self_s"] = layer_self("gametree")
        m["strategies.doob_s"] = tot("strategies.doob_upcrossing")
        m["strategies.levy_s"] = tot("strategies.levy_strategy") + tot("strategies.levy_capital_trace")
        m["strategies.mixture_s"] = tot("strategies.mixture")
        m["laws.sweep_calls"] = self.laws_sweep_calls
        m["laws.self_s"] = layer_self("laws")
        m["forecaster.embed_calls"] = cnt("forecaster.embed")
        m["forecaster.self_s"] = layer_self("forecaster")
        m["serialize.bytes"] = self.extra["serialize.bytes"]
        m["serialize.self_s"] = layer_self("serialize")
        m["cli.self_s"] = layer_self("cli")
        return {k: (v if k.endswith("_s") else int(v)) for k, v in m.items()}

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        recorded = len(self.spans)
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["span", "name", "start", "end", "parent"],
                    "spans": self.spans,
                    "dropped": sum(self.count) - recorded,
                },
                fh,
            )


def _verified_nodes(game, sm, result) -> int:
    """Interior nodes the verifier visited: all of them when it passed."""
    # Plain attributes only: a hook must not call wrapped methods.
    labels = game.outcomes.labels
    k = len(labels)
    if result.ok:
        return sum(k**d for d in range(sm.depth))
    s = result.witness[0]
    before = sum(k**d for d in range(len(s)))
    r = 0
    for x in s:
        r = r * k + labels.index(x)
    return before + r + 1
