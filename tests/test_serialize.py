import json

import pytest

from gtprob.extreal import INF, ext
from gtprob.functionals import Envelope, Gamble, Measure, OutcomeSet, SupContent, TableContent, extend_bounded_below
from gtprob.gametree import GameSpec, Supermartingale
from gtprob.expectation import EventWindow
from gtprob.serialize import (
    SchemaError,
    content_from_json,
    content_to_json,
    forecasting_system_from_json,
    game_from_json,
    game_to_json,
    payoff_from_json,
    protocol2_from_json,
    supermartingale_from_csv,
    supermartingale_to_csv,
    window_from_json,
    window_to_json,
)

BIN = OutcomeSet(["0", "1"])


def test_content_round_trips():
    contents = [
        Measure(BIN, {"0": "1/2", "1": "1/2"}),
        Measure(BIN, {"0": "1/3", "1": "2/3"}),
        SupContent(BIN),
        Envelope(BIN, [{"0": "3/4", "1": "1/4"}, {"0": "0", "1": "1"}]),
        TableContent(BIN, [(Gamble.of(BIN, [0, 1]), ext("1/2")), (Gamble.of(BIN, [1, INF]), INF)]),
    ]
    for c in contents:
        blob = json.dumps(content_to_json(c), sort_keys=True)
        back = content_from_json(json.loads(blob), BIN)
        for g in [Gamble.of(BIN, [0, 1]), Gamble.of(BIN, [1, INF])]:
            try:
                expected = c.eval(g)
            except KeyError:
                continue
            assert back.eval(g) == expected


def test_game_round_trip_shared_and_per_round():
    shared = GameSpec(BIN, Measure.uniform(BIN), 3)
    back = game_from_json(game_to_json(shared))
    assert back.horizon == 3 and back.depth_independent
    per_round = GameSpec(
        BIN, [Measure.uniform(BIN), SupContent(BIN), Measure.uniform(BIN)], 3
    )
    back = game_from_json(game_to_json(per_round))
    assert not back.depth_independent
    assert isinstance(back.content_at(2), SupContent)


def test_window_round_trip():
    w = EventWindow(2, 3, predicate=lambda t: t[0] == t[1])
    blob = window_to_json(w, BIN)
    back = window_from_json(blob, BIN)
    assert back.accepts(BIN) == w.accepts(BIN)
    assert back.start == 2 and back.end == 3


def test_payoff_parsing_kinds():
    game = GameSpec(BIN, Measure.uniform(BIN), 2)
    table = payoff_from_json(
        {"kind": "table", "depth": 1, "values": {"0": "0", "1": "1/2"}}, game
    )
    assert table.value(("1",)) == ext("1/2")
    capped = payoff_from_json({"kind": "leading_ones_capped", "cap": "4"}, game)
    assert capped.value(("1", "1")) == ext(4)
    ind = payoff_from_json(
        {"kind": "indicator", "window": {"start": 1, "end": 1, "accepts": [["1"]]}}, game
    )
    assert ind.value(("1",)) == ext(1)
    const = payoff_from_json({"kind": "constant", "value": "-inf"}, game)
    assert const.value(("0", "0")).is_neg_inf


def test_payoff_table_must_be_total():
    game = GameSpec(BIN, Measure.uniform(BIN), 2)
    with pytest.raises(SchemaError):
        payoff_from_json({"kind": "table", "depth": 1, "values": {"0": "0"}}, game)


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "constant", "value": "1", "depth": "x"},
        {"kind": "leading_ones_capped", "cap": "4", "depth": "x"},
        {"kind": "table", "depth": "x", "values": {}},
        {"kind": "constant", "value": "1", "depth": -1},
    ],
)
def test_payoff_depth_must_be_a_non_negative_integer(obj):
    game = GameSpec(BIN, Measure.uniform(BIN), 2)
    with pytest.raises(SchemaError) as info:
        payoff_from_json(obj, game)
    assert info.value.where == "/payoff/depth"
    assert str(info.value) == f"/payoff/depth: {obj['kind']} payoff needs a non-negative integer depth"


@pytest.mark.parametrize(
    "read, where, message",
    [
        (lambda: game_from_json({"outcomes": ["0", "1"], "horizon": True, "content": {"type": "sup"}}),
         "/horizon", "horizon must be a positive integer"),
        (lambda: window_from_json({"start": True, "end": 1, "accepts": []}, BIN),
         "/window", "window needs integer start and end"),
        (lambda: payoff_from_json({"kind": "constant", "value": "1", "depth": False}, GameSpec(BIN, SupContent(BIN), 2)),
         "/payoff/depth", "constant payoff needs a non-negative integer depth"),
    ],
)
def test_json_integers_are_not_booleans(read, where, message):
    with pytest.raises(SchemaError) as info:
        read()
    assert str(info.value) == f"{where}: {message}"


def test_supermartingale_csv_round_trip():
    game = GameSpec(BIN, Measure.uniform(BIN), 2)
    sm = Supermartingale.from_fn(game, lambda s: ext(len(s)) + ext("1/3"))
    text = supermartingale_to_csv(sm, BIN)
    back = supermartingale_from_csv(text, BIN)
    assert back.table == sm.table
    assert supermartingale_to_csv(back, BIN) == text


def test_supermartingale_csv_rejects_partial_tables():
    with pytest.raises(SchemaError):
        supermartingale_from_csv("situation,value\n,1\n0,1\n", BIN)


WORDS = OutcomeSet(["up", "down", "flat"])


def test_supermartingale_csv_round_trip_with_multi_character_labels():
    game = GameSpec(WORDS, Measure.uniform(WORDS), 2)
    sm = Supermartingale.from_fn(game, lambda s: ext(s.count("up")) + ext("2/7"))
    text = supermartingale_to_csv(sm, WORDS)
    assert '\n"up,down",9/7\n' in text and "\n,2/7\n" in text
    back = supermartingale_from_csv(text, WORDS)
    assert back.depth == 2 and back.table == sm.table
    assert supermartingale_to_csv(back, WORDS) == text


@pytest.mark.parametrize(
    "labels, text, where, message",
    [
        (BIN, "situation,value\n,1\n0,1\n2,1\n", "/csv/4", "situation '2' uses unknown outcome '2'"),
        (WORDS, 'situation,value\n,1\nup,1\n"up,side",1\n', "/csv/4", "situation 'up,side' uses unknown outcome 'side'"),
        (BIN, "situation,value\n,1\n0,1/0x\n1,1/0x\n", "/csv/3", "not an extended rational: '1/0x'"),
        (BIN, "situation,value\n,1\n0,1,2\n", "/csv/3", "expected two columns, got ['0', '1', '2']"),
        (BIN, "situation,price\n,1\n", "/csv", "expected header 'situation,value'"),
        (BIN, "", "/csv", "expected header 'situation,value'"),
        (BIN, "situation,value\n", "/csv", "table is empty"),
        (BIN, "situation,value\n,1\n0,1\n1,1\n00,1\n01,1\n11,1\n", "/csv", "table is not total at depth 2"),
        (BIN, "situation,value\n0,1\n1,1\n", "/csv", "table is not total at depth 0"),
        (BIN, "situation,value\n,1\n0,0\n1,2\n0,5\n", "/csv/5", "duplicate situation '0'"),
        (WORDS, 'situation,value\n,1\nup,1\n"",2\n', "/csv/4", "duplicate situation ''"),
    ],
)
def test_supermartingale_csv_errors_name_their_row(labels, text, where, message):
    with pytest.raises(SchemaError) as info:
        supermartingale_from_csv(text, labels)
    assert info.value.where == where
    assert str(info.value) == f"{where}: {message}"


def test_protocol2_parsing_and_errors():
    spec = protocol2_from_json(
        {
            "outcomes": ["0", "1"],
            "predictions": [["a", "b"], ["a"]],
            "contents": {
                "a": {"type": "measure", "probs": {"0": "1/2", "1": "1/2"}},
                "b": {"type": "sup"},
            },
        }
    )
    assert spec.horizon == 2
    assert spec.menu_at(1) == ("a", "b")
    with pytest.raises(SchemaError):
        protocol2_from_json({"outcomes": ["0"], "predictions": [["a"]], "contents": {}})


def test_envelope_with_empty_measures_is_a_schema_error():
    with pytest.raises(SchemaError):
        content_from_json({"type": "envelope", "measures": []}, BIN)


SUP = {"type": "sup"}
SUP_GAME = GameSpec(BIN, SupContent(BIN), 2)
P2 = {"outcomes": ["0", "1"], "predictions": [["a"]], "contents": {"a": SUP}}


def _system(obj):
    return forecasting_system_from_json(obj, protocol2_from_json(P2))


@pytest.mark.parametrize(
    "read, message",
    [
        (lambda: game_from_json({"outcomes": [], "horizon": 1, "content": SUP}), "/outcomes: need a non-empty outcome list"),
        (lambda: content_to_json(extend_bounded_below(BIN, Measure.uniform(BIN))),
         "/: cannot serialize functional of type ExtendedContent"),
        (lambda: content_from_json({"type": "measure", "probs": ["1"]}, BIN),
         "/content/probs: probabilities must be an object of label -> rational"),
        (lambda: content_from_json({"type": "measure", "probs": {"2": "1"}}, BIN), "/content/probs: unknown outcome '2'"),
        (lambda: content_from_json({"type": "table", "entries": {}}, BIN), "/content/entries: table needs an entry list"),
        (lambda: content_from_json({"type": "nope"}, BIN), "/content/type: unknown functional type 'nope'"),
        (lambda: content_from_json({"probs": {}}, BIN), "/content: functional must be an object with a 'type' field"),
        (lambda: game_from_json(["0", "1"]), "/: game must be an object"),
        (lambda: game_from_json({"outcomes": ["0", "1"], "horizon": 2, "contents": [SUP]}),
         "/contents: need one functional per round"),
        (lambda: game_from_json({"outcomes": ["0", "1"], "horizon": 2}), "/: game needs a 'content' or 'contents' field"),
        (lambda: window_from_json([1, 1], BIN), "/window: window must be an object"),
        (lambda: window_from_json({"start": 1, "end": 1}, BIN), "/window/accepts: window needs an accept list"),
        (lambda: window_from_json({"start": 1, "end": 2, "accepts": [["1"]]}, BIN),
         "/window/accepts/0: accept tuples must have length 2"),
        (lambda: payoff_from_json("e_w1", SUP_GAME), "/payoff: payoff must be an object with a 'kind' field"),
        (lambda: payoff_from_json({"kind": "table", "depth": 1, "values": []}, SUP_GAME),
         "/payoff/values: table payoff needs a values object"),
        (lambda: payoff_from_json({"kind": "nope"}, SUP_GAME), "/payoff/kind: unknown payoff kind 'nope'"),
        (lambda: protocol2_from_json([P2]), "/: forecaster spec must be an object"),
        (lambda: _system("a"), "/system: forecasting system must be an object with a 'kind'"),
        (lambda: _system({"kind": "table", "rule": ["a"]}), "/system/rule: table system needs a rule object"),
        (lambda: _system({"kind": "last-outcome", "map": ["a"]}), "/system/map: last-outcome system needs an outcome map"),
        (lambda: _system({"kind": "nope"}), "/system/kind: unknown system kind 'nope'"),
        (lambda: window_from_json({"start": 0, "end": 1, "accepts": []}, BIN), "/window: need 1 <= start <= end, got [0, 1]"),
        (lambda: protocol2_from_json(dict(P2, predictions=[])), "/predictions: need one prediction menu per round"),
        (lambda: protocol2_from_json(dict(P2, contents=[SUP])), "/contents: need a symbol -> functional object"),
        (lambda: protocol2_from_json(dict(P2, predictions=[[]])), "/: every round needs a non-empty prediction menu"),
        (lambda: protocol2_from_json(dict(P2, horizon=2)), "/: need one prediction menu per round 1..horizon"),
        (lambda: protocol2_from_json(dict(P2, contents={"b": SUP})), "/: no pricing functional for prediction 'a'"),
        (lambda: protocol2_from_json(dict(P2, predictions=[["a:b"]], contents={"a:b": SUP})),
         "/: prediction symbols must not contain ':': 'a:b'"),
        (lambda: game_from_json({"outcomes": ["0,1", "2"], "horizon": 1, "content": SUP}),
         "/outcomes: outcome labels must not contain commas: '0,1'"),
        (lambda: game_from_json({"outcomes": ["0", "0"], "horizon": 1, "content": SUP}),
         "/outcomes: outcome labels must be distinct: ('0', '0')"),
        (lambda: content_from_json({"type": "table", "entries": [{"gamble": {"0": "1"}, "value": "1"}]}, BIN),
         "/content: gamble is missing outcomes ['1']"),
        (lambda: content_from_json({"type": "table", "declared_level": "x", "entries": []}, BIN), "/content: unknown level 'x'"),
    ],
)
def test_schema_errors_name_where_and_what(read, message):
    with pytest.raises(SchemaError) as info:
        read()
    assert str(info.value) == message
