import csv
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtprob.extreal import INF, ext
from gtprob.functionals import Envelope, Gamble, Measure, OutcomeSet, SupContent, TableContent
from gtprob.gametree import GameSpec, Supermartingale
from gtprob.expectation import EventWindow
from gtprob.serialize import (
    SchemaError,
    _extreal,
    _fraction,
    content_from_json,
    csv_text,
    forecasting_system_from_json,
    game_from_json,
    payoff_from_json,
    protocol2_from_json,
    supermartingale_from_csv,
    supermartingale_to_csv,
    window_from_json,
)
from oracles import reference_table_from_csv, reference_table_to_csv

BIN = OutcomeSet(["0", "1"])


def test_content_decodes_literal_json():
    cases = [
        ('{"type": "measure", "probs": {"0": "1/3", "1": "2/3"}}', Measure(BIN, {"0": "1/3", "1": "2/3"})),
        ('{"type": "sup"}', SupContent(BIN)),
        (
            '{"type": "envelope", "measures": [{"0": "3/4", "1": "1/4"}, {"0": "0", "1": "1"}]}',
            Envelope(BIN, [{"0": "3/4", "1": "1/4"}, {"0": "0", "1": "1"}]),
        ),
        (
            '{"type": "table", "declared_level": "superexpectation", "entries": ['
            '{"gamble": {"0": "0", "1": "1"}, "value": "1/2"}, {"gamble": {"1": "inf", "0": "1"}, "value": "inf"}]}',
            TableContent(BIN, [(Gamble.of(BIN, [0, 1]), ext("1/2")), (Gamble.of(BIN, [1, INF]), INF)], "superexpectation"),
        ),
    ]
    for text, built in cases:
        decoded = content_from_json(json.loads(text), BIN)
        assert decoded == built
        assert decoded.declared_level == built.declared_level


def test_game_decodes_a_shared_and_a_per_round_content():
    shared = game_from_json(json.loads('{"outcomes": ["0", "1"], "horizon": 3, "content": {"type": "sup"}}'))
    assert shared.horizon == 3 and shared.depth_independent
    assert shared.contents == (SupContent(BIN),)
    assert [shared.content_at(n) for n in (1, 2, 3)] == [SupContent(BIN)] * 3
    per_round = game_from_json(json.loads(
        '{"outcomes": ["0", "1"], "horizon": 3, "contents": ['
        '{"type": "measure", "probs": {"0": "1/2", "1": "1/2"}}, {"type": "sup"}, {"type": "sup"}]}'
    ))
    assert per_round.horizon == 3 and not per_round.depth_independent
    assert [type(per_round.content_at(n)) for n in (1, 2, 3)] == [Measure, SupContent, SupContent]


def test_window_decodes_its_bounds_and_accept_list():
    w = window_from_json(json.loads('{"start": 2, "end": 3, "accepts": [["0", "0"], ["1", "1"]]}'), BIN)
    built = EventWindow(2, 3, predicate=lambda t: t[0] == t[1])
    assert (w.start, w.end) == (built.start, built.end) == (2, 3)
    space = list(BIN.tuples(2))
    assert list(map(w.member_window, space)) == list(map(built.member_window, space))


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


def test_table_payoff_depth_is_checked_before_its_leaves(monkeypatch):
    # The horizon, then the cap, before the K ** depth leaves are counted.
    monkeypatch.delenv("GTP_MAX_DEPTH", raising=False)
    cases = [
        (3, "/payoff/depth: payoff settles beyond the game horizon"),
        (20, "/payoff/depth: dense payoff tabulation to depth 15 exceeds the cap 14; raise GTP_MAX_DEPTH to allow it"),
    ]
    for horizon, message in cases:
        with pytest.raises(SchemaError) as err:
            payoff_from_json({"kind": "table", "depth": 15, "values": {}}, GameSpec(BIN, Measure.uniform(BIN), horizon))
        assert str(err.value) == message


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
        *(
            pytest.param(
                BIN, text.replace("X", "x" * 140_000), where, "field larger than field limit (131072)",
                id=f"oversized-field-{where}",
            )
            for text, where in [
                ('situation,value\n,"X"\n', "/csv/2"),
                ('"X",value\n,1\n', "/csv/1"),
                ('situation,value\n,1\n0,1\n1,"X"\n', "/csv/4"),
            ]
        ),
    ],
)
def test_supermartingale_csv_errors_name_their_row(labels, text, where, message):
    with pytest.raises(SchemaError) as info:
        supermartingale_from_csv(text, labels)
    assert info.value.where == where
    assert str(info.value) == f"{where}: {message}"


def test_decoded_tables_share_their_situation_keys():
    for outcomes in (OutcomeSet(["lo", "1", "hi"]), OutcomeSet(["1", "0"])):
        game = GameSpec(outcomes, Measure.uniform(outcomes), 3)
        text = supermartingale_to_csv(Supermartingale.from_fn(game, lambda s: ext(len(s))), outcomes)
        back = supermartingale_from_csv(text, outcomes)
        kept = [s for d in range(4) for s in outcomes._level(d)]
        assert len(back.table) == len(kept)
        assert all(u is s for u, s in zip(back.table, kept))


# Outcome sets for the codec property: single-character labels sorted and
# not, multi-character labels whose text order is not their level order,
# and labels with a quote character, which the CSV writer quotes.
CSV_LABELS = (["0", "1"], ["1", "0"], ["c", "a", "b"], ["up", "down", "flat"], ['"', "q"], ['say"', "no"])
CSV_VALUES = ("0", "1/2", "-3/4", "7", "inf", "-inf")


@st.composite
def csv_tables(draw):
    """A total table on one of ``CSV_LABELS`` at depth 0..3, its rows in any
    order, its values shared objects or fresh objects of equal value."""
    outcomes = OutcomeSet(draw(st.sampled_from(CSV_LABELS)))
    depth = draw(st.integers(0, 3))
    pool = [ext(v) for v in draw(st.lists(st.sampled_from(CSV_VALUES), min_size=1, max_size=4))]
    sits = draw(st.permutations([s for d in range(depth + 1) for s in outcomes.tuples(d)]))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()), min_size=len(sits), max_size=len(sits)))
    table = {s: ext(str(pool[i])) if fresh else pool[i] for s, (i, fresh) in zip(sits, picks)}
    return outcomes, Supermartingale(table, depth)


def _decoded(decode, text, outcomes):
    """``decode``'s table as its depth and value texts, or its error text."""
    try:
        sm = decode(text, outcomes)
    except SchemaError as exc:
        return str(exc)
    return sm.depth, {s: str(v) for s, v in sm.table.items()}


def _corrupt(rows: list[list[str]], kind: str, j: int, k: int, sep: str) -> None:
    """Corrupt the parsed CSV ``rows`` in place: ``kind`` at data row ``j``;
    a duplicate of row ``j`` goes in at row ``k``."""
    if kind == "drop":
        del rows[j]
    elif kind == "duplicate":
        rows.insert(k, list(rows[j]))
    elif kind == "label":
        rows[j][0] = sep.join(rows[j][0].split(sep)[:-1] + ["?"]) if sep else rows[j][0][:-1] + "?"
    elif kind == "value":
        rows[j][1] = "1/0x"
    elif kind == "column":
        rows[j].append("5")
    else:
        rows[0] = ["situation", "price"]


@settings(max_examples=150, deadline=None)
@given(csv_tables(), st.data())
def test_csv_codec_matches_the_reference(case, data):
    outcomes, sm = case
    text = supermartingale_to_csv(sm, outcomes)
    assert text == reference_table_to_csv(sm, outcomes)
    expected = (sm.depth, {s: str(v) for s, v in sm.table.items()})
    assert _decoded(supermartingale_from_csv, text, outcomes) == expected
    assert _decoded(reference_table_from_csv, text, outcomes) == expected
    rows = list(csv.reader(io.StringIO(text)))
    kinds = ("drop", "duplicate", "label", "value", "column", "header")
    for kind in data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=2)):
        if len(rows) == 1:  # the header alone is left
            kind = "header"
        j = data.draw(st.integers(1, max(len(rows) - 1, 1)))
        _corrupt(rows, kind, j, data.draw(st.integers(1, len(rows))), outcomes.sep)
    broken = csv_text(rows[0], rows[1:])
    assert _decoded(supermartingale_from_csv, broken, outcomes) == _decoded(reference_table_from_csv, broken, outcomes)


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
        (lambda: _system({"kind": "constant", "value": None}), "/system/value: constant system needs a value"),
        (lambda: _system({"kind": "last-outcome", "map": {"0": "a", "1": "a"}, "initial": None}),
         "/system/initial: last-outcome system needs an initial value"),
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
        (lambda: content_from_json({"type": "table", "entries": [{"gamble": {"2": "1"}, "value": "1"}]}, BIN),
         "/content/entries/0/gamble: unknown outcome '2'"),
        (lambda: content_from_json({"type": "table", "declared_level": "x", "entries": []}, BIN), "/content: unknown level 'x'"),
    ],
)
def test_schema_errors_name_where_and_what(read, message):
    with pytest.raises(SchemaError) as info:
        read()
    assert str(info.value) == message


def test_last_outcome_system_predicts_from_the_last_outcome():
    spec = protocol2_from_json(dict(P2, predictions=[["a", "b"]] * 3, contents={"a": SUP, "b": SUP}))
    phi = forecasting_system_from_json({"kind": "last-outcome", "map": {"0": "a", "1": "b"}, "initial": "b"}, spec)
    histories = [(), ("0",), ("1",), ("1", "0"), ("0", "1")]
    assert [phi.predict(h) for h in histories] == ["b", "a", "b", "a", "b"]


def test_rationals_take_exponents_within_the_digit_limit():
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    assert _fraction("1e-5", "/x") == Fraction(1, 100000)
    assert _extreal(1e-05, "/x") == ext("1/100000")
    assert _fraction(f"1e{limit - 1}", "/x") == 10 ** (limit - 1)
    assert _extreal(f"-1E-{limit - 2}", "/x") == ext(Fraction(-1, 10 ** (limit - 2)))
    refused = [f"1e{limit}", f"1.5e-{limit - 2}", float("inf"), float("-inf"), float("nan"), "1e1000000000", "1e-1000000000"]
    for read, what in ((_fraction, "an exact rational"), (_extreal, "an extended rational")):
        for raw in refused:
            with pytest.raises(SchemaError) as err:
                read(raw, "/content/probs/0")
            assert str(err.value) == f"/content/probs/0: not {what}: {raw!r}"
