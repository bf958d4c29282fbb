"""JSON and CSV codecs for the package's on-disk formats.

Numbers travel as exact strings: ``"p/q"`` in lowest terms (plain integers
as ``"p"``), ``"inf"``, ``"-inf"``.  Every format below is read here; the
capital table is the one also written, by :func:`supermartingale_to_csv`,
which sorts its rows so identical tables produce byte-identical files.

Formats:

* pricing functional: ``{"type": "measure", "probs": {label: "p/q"}}``,
  ``{"type": "sup"}``, ``{"type": "envelope", "measures": [probs, ...]}``,
  ``{"type": "table", "declared_level": ..., "entries": [{"gamble":
  {label: value}, "value": value}]}``;
* game: ``{"outcomes": [...], "horizon": N, "content": {...}}`` or with a
  per-round ``"contents"`` list;
* payoff: ``{"kind": "table", "depth": N, "values": {situation: value}}``,
  ``{"kind": "leading_ones_capped", "cap": "4"}``, ``{"kind":
  "indicator", "window": {...}}``, ``{"kind": "constant", "value": ...}``;
* event window: ``{"start": N, "end": M, "accepts": [[labels...], ...]}``;
* capital table: CSV with header ``situation,value``, the empty string for
  the root situation;
* forecaster protocol: ``{"outcomes": [...], "predictions": [[symbols],
  ...], "contents": {symbol: functional}}``, one menu per round; an
  optional ``"horizon"`` must equal the number of menus;
* forecasting system: ``{"kind": "constant", "value": p}``, ``{"kind":
  "table", "rule": {situation: p}}``, ``{"kind": "last-outcome", "map":
  {outcome: p}, "initial": p}``; ``"value"`` and ``"initial"`` are
  required and not null; every prediction ``p`` is a string.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from fractions import Fraction
from math import isfinite
from typing import Any, Callable, Iterable, Mapping

from gtprob.extreal import ExtReal, ext
from gtprob.functionals import (
    Envelope,
    Gamble,
    Measure,
    OutcomeSet,
    OuterContent,
    SupContent,
    TableContent,
)
from gtprob.gametree import GameSpec, Situation, Supermartingale, parse_situation
from gtprob.expectation import EventWindow, Payoff, indicator
from gtprob.forecaster import ForecastingSystem, Protocol2Spec

__all__ = [
    "SchemaError",
    "content_from_json",
    "game_from_json",
    "window_from_json",
    "payoff_from_json",
    "csv_text",
    "supermartingale_to_csv",
    "supermartingale_from_csv",
    "protocol2_from_json",
    "forecasting_system_from_json",
    "read_file",
    "load_spec",
]


class SchemaError(ValueError):
    """Input violates a documented format; carries a JSON-pointer-ish path."""

    def __init__(self, where: str, message: str):
        self.where = where
        super().__init__(f"{where}: {message}")


def _rational(read: Callable[[str], Any], raw: Any, where: str, what: str) -> Any:
    """``read(str(raw))``, refused at ``where`` when it fails, when ``raw`` is a non-finite JSON
    float, or when an exponent form has more digits than Python's limit on integer text."""
    mantissa, e, exponent = str(raw).upper().partition("E")
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    try:
        if isinstance(raw, float) and not isfinite(raw) or e and len(mantissa) + abs(int(exponent)) > limit:
            raise ValueError(raw)
        return read(str(raw))
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SchemaError(where, f"not {what}: {raw!r}") from exc


def _fraction(raw: Any, where: str) -> Fraction:
    return _rational(Fraction, raw, where, "an exact rational")


def _integer(raw: Any, where: str, message: str = "", least: int | None = None) -> int:
    """An integer written as a JSON number or a decimal string, at least
    ``least`` if given; a boolean is not an integer here."""
    with suppress(ValueError):
        n = int(str(raw))
        if least is None or n >= least:
            return n
    raise SchemaError(where, message or f"not an integer: {raw!r}")


def _extreal(raw: Any, where: str) -> ExtReal:
    return _rational(ext, raw, where, "an extended rational")


@contextmanager
def _at(where: str):
    """Report a constructor's ``ValueError`` as a :class:`SchemaError` at
    ``where``; schema errors raised inside pass through unchanged."""
    try:
        yield
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(where, str(exc)) from exc


def _outcomes(obj: Mapping, where: str) -> OutcomeSet:
    labels = obj.get("outcomes")
    if not isinstance(labels, list) or not labels:
        raise SchemaError(f"{where}/outcomes", "need a non-empty outcome list")
    with _at(f"{where}/outcomes"):
        return OutcomeSet(labels)


# -- pricing functionals ------------------------------------------------


def _probs_map(obj: Any, outcomes: OutcomeSet, where: str) -> dict[str, Fraction]:
    if not isinstance(obj, Mapping):
        raise SchemaError(where, "probabilities must be an object of label -> rational")
    out = {}
    for lab in obj:
        if lab not in outcomes:
            raise SchemaError(where, f"unknown outcome {lab!r}")
        out[lab] = _fraction(obj[lab], f"{where}/{lab}")
    return out


def content_from_json(obj: Any, outcomes: OutcomeSet, where: str = "/content") -> OuterContent:
    if not isinstance(obj, Mapping) or "type" not in obj:
        raise SchemaError(where, "functional must be an object with a 'type' field")
    kind = obj["type"]
    with _at(where):
        if kind == "measure":
            return Measure(outcomes, _probs_map(obj.get("probs"), outcomes, f"{where}/probs"))
        if kind == "sup":
            return SupContent(outcomes)
        if kind == "envelope":
            measures = obj.get("measures")
            if not isinstance(measures, list) or not measures:
                raise SchemaError(f"{where}/measures", "envelope needs a non-empty list")
            return Envelope(
                outcomes,
                [
                    Measure(outcomes, _probs_map(m, outcomes, f"{where}/measures/{i}"))
                    for i, m in enumerate(measures)
                ],
            )
        if kind == "table":
            entries = obj.get("entries")
            if not isinstance(entries, list):
                raise SchemaError(f"{where}/entries", "table needs an entry list")
            pairs = []
            for i, e in enumerate(entries):
                gam = e.get("gamble") if isinstance(e, Mapping) else None
                if not isinstance(gam, Mapping):
                    raise SchemaError(f"{where}/entries/{i}", "entry needs a gamble object")
                for lab in gam:
                    if lab not in outcomes:
                        raise SchemaError(f"{where}/entries/{i}/gamble", f"unknown outcome {lab!r}")
                g = Gamble.of(
                    outcomes,
                    {lab: _extreal(gam[lab], f"{where}/entries/{i}/{lab}") for lab in gam},
                )
                pairs.append((g, _extreal(e.get("value"), f"{where}/entries/{i}/value")))
            return TableContent(outcomes, pairs, obj.get("declared_level", "outer-content"))
    raise SchemaError(f"{where}/type", f"unknown functional type {kind!r}")


# -- games ------------------------------------------------------------------


def game_from_json(obj: Any, where: str = "") -> GameSpec:
    if not isinstance(obj, Mapping):
        raise SchemaError(where or "/", "game must be an object")
    outcomes = _outcomes(obj, where)
    horizon = _integer(obj.get("horizon"), f"{where}/horizon", "horizon must be a positive integer", least=1)
    with _at(where or "/"):
        if "content" in obj:
            return GameSpec(outcomes, content_from_json(obj["content"], outcomes, f"{where}/content"), horizon)
        if "contents" in obj:
            rounds = obj["contents"]
            if not isinstance(rounds, list) or len(rounds) != horizon:
                raise SchemaError(f"{where}/contents", "need one functional per round")
            return GameSpec(
                outcomes,
                [
                    content_from_json(c, outcomes, f"{where}/contents/{i}")
                    for i, c in enumerate(rounds)
                ],
                horizon,
            )
    raise SchemaError(where or "/", "game needs a 'content' or 'contents' field")


# -- events and payoffs --------------------------------------------------------


def window_from_json(obj: Any, outcomes: OutcomeSet, where: str = "/window") -> EventWindow:
    if not isinstance(obj, Mapping):
        raise SchemaError(where, "window must be an object")
    start, end = (_integer(obj.get(k), where, "window needs integer start and end") for k in ("start", "end"))
    accepts = obj.get("accepts")
    if not isinstance(accepts, list):
        raise SchemaError(f"{where}/accepts", "window needs an accept list")
    width = end - start + 1
    tuples = []
    for i, t in enumerate(accepts):
        if not isinstance(t, list) or len(t) != width:
            raise SchemaError(f"{where}/accepts/{i}", f"accept tuples must have length {width}")
        for lab in t:
            if not isinstance(lab, str) or lab not in outcomes:
                raise SchemaError(f"{where}/accepts/{i}", f"unknown outcome {lab!r}")
        tuples.append(tuple(t))
    with _at(where):
        return EventWindow(start, end, accepts=tuples)


def payoff_from_json(obj: Any, game: GameSpec, where: str = "/payoff") -> Payoff:
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise SchemaError(where, "payoff must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind in ("table", "leading_ones_capped", "constant"):
        given = obj.get("depth", None if kind == "table" else game.horizon)
        depth = _integer(given, f"{where}/depth", f"{kind} payoff needs a non-negative integer depth", least=0)
    with _at(where):
        if kind == "table":
            with _at(f"{where}/depth"):  # the horizon, then the cap, before K ** depth
                Payoff.constant(0, depth)._span(game, ())
            raw = obj.get("values")
            if not isinstance(raw, Mapping):
                raise SchemaError(f"{where}/values", "table payoff needs a values object")
            values = {
                parse_situation(k, game.outcomes): _extreal(v, f"{where}/values/{k}")
                for k, v in raw.items()
            }
            expected = len(game.outcomes) ** depth
            if len(values) != expected:
                raise SchemaError(
                    f"{where}/values", f"need all {expected} leaves at depth {depth}"
                )
            return Payoff.from_table(values, depth)
        if kind == "leading_ones_capped":
            cap = _fraction(obj.get("cap"), f"{where}/cap")
            if "1" not in game.outcomes:
                raise SchemaError(f"{where}/kind", "leading_ones_capped payoff needs an outcome labeled '1'")
            return Payoff.leading_ones_capped(cap, depth)
        if kind == "indicator":
            return indicator(window_from_json(obj.get("window"), game.outcomes, f"{where}/window"))
        if kind == "constant":
            return Payoff.constant(_extreal(obj.get("value"), f"{where}/value"), depth)
    raise SchemaError(f"{where}/kind", f"unknown payoff kind {kind!r}")


# -- capital tables ---------------------------------------------------------------


def csv_text(header: list[str], rows: Iterable[list[str]]) -> str:
    """``header`` and ``rows`` as CSV text, each line ending in ``\\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def supermartingale_to_csv(sm: Supermartingale, outcomes: OutcomeSet) -> str:
    join, table = outcomes.sep.join, sm.table
    text = {i: str(v) for i, v in {id(v): v for v in table.values()}.items()}  # once per shared value object
    rows = ([join(s), text[id(table[s])]] for s in sorted(table, key=lambda u: (len(u), u)))
    return csv_text(["situation", "value"], rows)


def supermartingale_from_csv(text: str, outcomes: OutcomeSet) -> Supermartingale:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or rows[0] != ["situation", "value"]:
        raise SchemaError("/csv", "expected header 'situation,value'")
    sep, known = outcomes.sep, set(outcomes.labels)
    values: dict[str, ExtReal] = {}
    table: dict[Situation, ExtReal] = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise SchemaError(f"/csv/{i}", f"expected two columns, got {row!r}")
        key, raw = row
        s = tuple(key.split(sep)) if sep else tuple(key)
        if not known.issuperset(s):
            # The root under multi-character labels, or an unknown label.
            try:
                s = parse_situation(key, outcomes)
            except ValueError as exc:
                raise SchemaError(f"/csv/{i}", str(exc)) from exc
        if s in table:
            raise SchemaError(f"/csv/{i}", f"duplicate situation {key!r}")
        if raw not in values:
            values[raw] = _extreal(raw, f"/csv/{i}")
        table[s] = values[raw]
    if not table:
        raise SchemaError("/csv", "table is empty")
    counts = Counter(map(len, table))
    depth = max(counts)
    for d in range(depth + 1):
        if counts[d] != len(outcomes) ** d:
            raise SchemaError("/csv", f"table is not total at depth {d}")
    return Supermartingale(table, depth)


# -- forecaster specs ----------------------------------------------------------------


def protocol2_from_json(obj: Any, where: str = "") -> Protocol2Spec:
    if not isinstance(obj, Mapping):
        raise SchemaError(where or "/", "forecaster spec must be an object")
    outcomes = _outcomes(obj, where)
    menus = obj.get("predictions")
    if not isinstance(menus, list) or not menus:
        raise SchemaError(f"{where}/predictions", "need one prediction menu per round")
    for i, menu in enumerate(menus):
        if not isinstance(menu, list) or not all(isinstance(p, str) for p in menu):
            raise SchemaError(f"{where}/predictions/{i}", "a prediction menu is a list of symbols")
    raw_contents = obj.get("contents")
    if not isinstance(raw_contents, Mapping):
        raise SchemaError(f"{where}/contents", "need a symbol -> functional object")
    contents = {
        p: content_from_json(c, outcomes, f"{where}/contents/{p}")
        for p, c in raw_contents.items()
    }
    with _at(where or "/"):
        spec = Protocol2Spec(outcomes, menus, contents)
    if obj.get("horizon") not in (None, spec.horizon):
        raise SchemaError(where or "/", "need one prediction menu per round 1..horizon")
    return spec


def _symbol(raw: Any, where: str, message: str) -> str:
    """A prediction string; null (with ``message``) or any other value is refused at ``where``."""
    if raw is None:
        raise SchemaError(where, message)
    if not isinstance(raw, str):
        raise SchemaError(where, f"not a prediction string: {raw!r}")
    return raw


def forecasting_system_from_json(
    obj: Any, spec: Protocol2Spec, where: str = "/system"
) -> ForecastingSystem:
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise SchemaError(where, "forecasting system must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "constant":
        value = _symbol(obj.get("value"), f"{where}/value", "constant system needs a value")
        return ForecastingSystem.constant(spec, value)
    if kind == "table":
        rule = obj.get("rule")
        if not isinstance(rule, Mapping):
            raise SchemaError(f"{where}/rule", "table system needs a rule object")
        parsed = {}
        for k, v in rule.items():
            at = f"{where}/rule/{k}"
            with _at(at):
                parsed[parse_situation(k, spec.outcomes)] = _symbol(v, at, "table system needs a prediction")
        return ForecastingSystem.from_table(spec, parsed)
    if kind == "last-outcome":
        mapping = obj.get("map")
        if not isinstance(mapping, Mapping):
            raise SchemaError(f"{where}/map", "last-outcome system needs an outcome map")
        missing = [x for x in spec.outcomes.labels if x not in mapping]
        if missing:
            raise SchemaError(f"{where}/map", f"last-outcome map misses outcomes {missing}")
        initial = _symbol(obj.get("initial"), f"{where}/initial", "last-outcome system needs an initial value")
        symbols = {
            x: _symbol(p, f"{where}/map/{x}", "last-outcome system needs a prediction")
            for x, p in mapping.items()
        }
        return ForecastingSystem.last_outcome(spec, symbols, initial)
    raise SchemaError(f"{where}/kind", f"unknown system kind {kind!r}")


def read_file(path: str, where: str, parse: Callable[[str], Any] = json.loads) -> Any:
    """The text of the file at ``path``, parsed by ``parse`` (JSON by
    default); a file that cannot be read or is not JSON is a
    :class:`SchemaError` at ``where``."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(where, f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(where, f"invalid JSON in {path}: {exc}") from exc


def load_spec(path: str) -> GameSpec | Protocol2Spec:
    """Parse a spec file: a forecaster spec when a 'predictions' field is
    present, otherwise a basic game."""
    obj = read_file(path, "/spec")
    if isinstance(obj, Mapping) and "predictions" in obj:
        return protocol2_from_json(obj)
    return game_from_json(obj)
