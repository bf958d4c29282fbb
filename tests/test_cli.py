import contextlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtprob.cli import _default_base, main
from gtprob.extreal import ext
from gtprob.forecaster import delta_mixing_check
from gtprob.functionals import Measure, OutcomeSet
from gtprob.gametree import GameSpec
from gtprob.serialize import forecasting_system_from_json, protocol2_from_json, window_from_json

# A subprocess finds the package source whether or not it is installed.
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

COIN_SPEC = {
    "outcomes": ["0", "1"],
    "horizon": 3,
    "content": {"type": "measure", "probs": {"0": "1/2", "1": "1/2"}},
}


@pytest.fixture
def coin_file(tmp_path):
    path = tmp_path / "coin.json"
    path.write_text(json.dumps(COIN_SPEC))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expect_prints_exact_rational(coin_file, capsys):
    code, out, _ = run(capsys, ["expect", coin_file, "--payoff", "e_w1", "--situation", ""])
    assert code == 0
    assert out.strip() == "1/2"


def test_expect_lower_and_sup_variant(coin_file, capsys):
    code, out, _ = run(
        capsys, ["expect", coin_file, "--payoff", "e_w1", "--lower"]
    )
    assert code == 0 and out.strip() == "1/2"
    code, out, _ = run(
        capsys,
        ["expect", coin_file, "--payoff", "leading_ones:8", "--variant", "sup"],
    )
    assert code == 0 and out.strip() == "1"


def test_expect_conditions_on_situations(coin_file, capsys):
    code, out, _ = run(
        capsys, ["expect", coin_file, "--payoff", "e_w2", "--situation", "01"]
    )
    assert code == 0 and out.strip() == "1"


def test_verify_reports_witness_and_exit_one(coin_file, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "situation,value\n,1\n0,2\n1,2\n"
        "00,2\n01,2\n10,2\n11,2\n"
    )
    code, out, _ = run(capsys, ["verify", coin_file, "--supermartingale", str(bad)])
    assert code == 1
    assert out.strip() == "□: 2 > 1"


def test_verify_accepts_martingale(coin_file, tmp_path, capsys):
    good = tmp_path / "good.csv"
    good.write_text(
        "situation,value\n,1\n0,0\n1,2\n"
        "00,0\n01,0\n10,2\n11,2\n"
    )
    code, out, _ = run(capsys, ["verify", coin_file, "--supermartingale", str(good)])
    assert code == 0
    assert "martingale" in out


def test_verify_tells_one_unit_of_slack_from_a_martingale(tmp_path, capsys):
    spec = write_json(tmp_path, "coin1.json", dict(COIN_SPEC, horizon=1))
    table = write_text(tmp_path, "slack.csv", "situation,value\n,1\n0,0\n1,1\n")
    assert run(capsys, ["verify", spec, "--supermartingale", table]) == (0, "ok: supermartingale up to depth 1\n", "")


@pytest.mark.parametrize(
    "rows, message",
    [
        ("situation,value\n,1\n0,0\n1,3\n", "base table fails verification at □: 3/2 > 1"),
        ("situation,value\n,1\n0,-1\n1,3\n", "base table must be nonnegative"),
    ],
    ids=["not_a_supermartingale", "negative"],
)
def test_doob_refuses_a_base_it_cannot_ride(rows, message, coin_file, tmp_path, capsys):
    base = write_text(tmp_path, "base.csv", rows)
    argv = ["simulate", coin_file, "--strategy", "doob:4/5,6/5", "--path", "1,0,1", "--base", base]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


def test_simulate_doob_trace_is_exact(coin_file, tmp_path, capsys):
    game4 = dict(COIN_SPEC, horizon=4)
    spec = tmp_path / "coin4.json"
    spec.write_text(json.dumps(game4))
    trace = tmp_path / "t.csv"
    code, _, _ = run(
        capsys,
        [
            "simulate",
            str(spec),
            "--strategy",
            "doob:4/5,6/5",
            "--path",
            "1,0,1,1",
            "--trace",
            str(trace),
        ],
    )
    assert code == 0
    rows = trace.read_text().splitlines()
    assert rows[0] == "n,situation,capital,conditional_upper,note"
    capitals = [r.split(",")[2] for r in rows[1:]]
    assert capitals == ["1", "3/2", "3/2", "15/8", "39/16"]
    notes = [r.split(",")[4] for r in rows[1:]]
    assert notes[1] == "upcross 1" and notes[2] == "drop 1" and notes[4] == "upcross 2"


def test_simulate_doubling_and_levy(coin_file, capsys):
    code, out, _ = run(
        capsys, ["simulate", coin_file, "--strategy", "doubling", "--path", "1,0"]
    )
    assert code == 0
    capitals = [r.split(",")[2] for r in out.splitlines()[1:]]
    assert capitals == ["1", "2", "0"]
    code, out, _ = run(
        capsys,
        [
            "simulate",
            coin_file,
            "--strategy",
            "levy:3/5,9/10",
            "--payoff",
            "e_w3",
            "--path",
            "1,1,1",
        ],
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert rows[-1].split(",")[2] == "2"
    assert rows[0].split(",")[4] == "enter 1"
    assert rows[-1].split(",")[4] == "exit 1"


def test_the_levy_column_reads_the_shifted_payoff_the_others_the_payoffs_own(coin_file, capsys):
    # The ride follows const:-2 raised by one minus its least leaf, the
    # constant 1; the other strategies list the payoff's own -2.
    for strategy, value in [("levy:1/3,2/3", "1"), ("doob:1/3,2/3", "-2"), ("donothing", "-2")]:
        argv = ["simulate", coin_file, "--strategy", strategy, "--payoff", "const:-2", "--path", "1,0,1"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert [r.split(",")[3] for r in out.splitlines()[1:]] == [value] * 4


def test_simulate_writes_table_and_cut_sidecar(coin_file, tmp_path, capsys):
    table = tmp_path / "table.csv"
    cuts = tmp_path / "cuts.json"
    code, _, _ = run(
        capsys,
        [
            "simulate",
            coin_file,
            "--strategy",
            "levy:3/5,9/10",
            "--payoff",
            "e_w3",
            "--path",
            "1,1,1",
            "--table",
            str(table),
            "--cuts",
            str(cuts),
        ],
    )
    assert code == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "situation,value"
    assert len(lines) == 1 + 2**4 - 1  # all nodes to depth 3
    sidecar = json.loads(cuts.read_text())
    assert sidecar["tau"][1] == [""]
    assert "111" in sidecar["sigma"][1]
    # Round trip: the written table verifies.
    code, out, _ = run(capsys, ["verify", coin_file, "--supermartingale", str(table)])
    assert code == 0


def test_axioms_subcommand(coin_file, capsys, tmp_path):
    code, out, _ = run(capsys, ["axioms", coin_file])
    assert code == 0
    assert "superexpectation" in out
    bad_spec = {
        "outcomes": ["0", "1"],
        "horizon": 1,
        "content": {
            "type": "table",
            "declared_level": "outer-content",
            "entries": [
                {"gamble": {"0": "0", "1": "0"}, "value": "0"},
                {"gamble": {"0": "1", "1": "1"}, "value": "1/2"},
            ],
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad_spec))
    code, out, _ = run(capsys, ["axioms", str(path)])
    assert code == 1


def test_schema_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"outcomes": ["0", "1"], "horizon": 2, "content": {"type": "envelope", "measures": []}}))
    code, _, err = run(capsys, ["expect", str(bad), "--payoff", "e_w1"])
    assert code == 2
    assert "envelope" in err


def test_law_levy_and_classify(coin_file, capsys):
    code, out, _ = run(
        capsys,
        ["law", coin_file, "levy", "--payoff", "e_w2", "--paths", "1,1;0,0"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["paths"][0]["values"] == ["1/2", "1/2", "1"]
    code, out, _ = run(capsys, ["law", coin_file, "classify", "--event", "w1=1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["lower"] == "1/2"


def test_law_kolmogorov_and_ergodic(coin_file, capsys):
    code, out, _ = run(capsys, ["law", coin_file, "kolmogorov", "--event", "w2=1"])
    assert code == 0 and "invariant" in out
    code, out, _ = run(
        capsys, ["law", coin_file, "ergodic", "--event", "w1=1", "--situation", "0"]
    )
    assert code == 0


def test_kolmogorov_names_multi_character_labels_readably(tmp_path, capsys):
    spec = {"outcomes": ["lo", "1", "hi"], "horizon": 3,
            "content": {"type": "measure", "probs": {"lo": "1/3", "1": "1/3", "hi": "1/3"}}}
    code, out, err = run(capsys, ["law", write_json(tmp_path, "lo1hi.json", spec), "kolmogorov", "--event", "w3=1"])
    assert (code, err) == (0, "")
    assert out == (
        "invariant at prefix depth 2 [1,1: 1/3, 1,hi: 1/3, 1,lo: 1/3, hi,1: 1/3, hi,hi: 1/3, hi,lo: 1/3, "
        "lo,1: 1/3, lo,hi: 1/3, lo,lo: 1/3]; relocation witness ok: True; "
        "finite-horizon surrogate: invariance checked across one prefix level\n"
    )


def test_law_mixing(tmp_path, capsys):
    spec = {
        "outcomes": ["0", "1"],
        "predictions": [["a"], ["a"], ["a"]],
        "contents": {"a": {"type": "measure", "probs": {"0": "1/2", "1": "1/2"}}},
        "horizon": 3,
    }
    spec_path = tmp_path / "p2.json"
    spec_path.write_text(json.dumps(spec))
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({"kind": "constant", "value": "a"}))
    event = tmp_path / "evt.json"
    event.write_text(json.dumps({"start": 3, "end": 3, "accepts": [["1"]]}))
    code, out, _ = run(
        capsys,
        [
            "law",
            str(spec_path),
            "mixing",
            "--system",
            str(system),
            "--events",
            str(event),
            "--delta",
            "0",
            "--gap",
            "1",
            "--max-prefix",
            "2",
        ],
    )
    assert code == 0
    assert "0 violation(s)" in out


def test_outputs_are_deterministic(coin_file, capsys):
    argv = ["law", coin_file, "levy", "--payoff", "e_w2", "--paths", "1,1"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_console_script_entry_point(coin_file):
    proc = subprocess.run(
        [sys.executable, "-m", "gtprob.cli", "expect", coin_file, "--payoff", "e_w1"],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1/2"


def test_unknown_flag_exits_two(coin_file):
    proc = subprocess.run(
        [sys.executable, "-m", "gtprob.cli", "expect", coin_file, "--bogus"],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert proc.returncode == 2


def test_depth_cap_exits_two_and_names_its_variable(tmp_path):
    spec = tmp_path / "coin5.json"
    spec.write_text(json.dumps(dict(COIN_SPEC, horizon=5)))
    proc = subprocess.run(
        [sys.executable, "-m", "gtprob.cli", "expect", str(spec), "--payoff", "e_w5"],
        capture_output=True,
        text=True,
        env=dict(SRC_ENV, GTP_MAX_DEPTH="3"),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: dense payoff tabulation to depth 5 exceeds the cap 3; "
        "raise GTP_MAX_DEPTH to allow it\n"
    )


def _limit_cpu_and_memory():
    resource.setrlimit(resource.RLIMIT_CPU, (10, 10))
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_path_reads_sweep_a_lattice_payoff_without_its_tree(tmp_path):
    # 4**14 leaves lie below the root, and e_w14's lattice has a handful
    # of states; a read that tabulated the tree would meet the CPU limit.
    content = {"type": "measure", "probs": dict.fromkeys("0123", "1/4")}
    spec = write_json(tmp_path, "k4.json", {"outcomes": list("0123"), "horizon": 14, "content": content})
    path = ",".join("01230123012301")
    expected = ["1/4"] * 14 + ["1"]
    commands = [
        ["law", spec, "levy", "--payoff", "e_w14", "--paths", path],
        ["simulate", spec, "--strategy", "donothing", "--payoff", "e_w14", "--path", path],
    ]
    for command in commands:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "gtprob.cli", *command],
            capture_output=True, text=True, env=SRC_ENV, preexec_fn=_limit_cpu_and_memory, timeout=60,
        )
        elapsed = time.monotonic() - start
        assert (proc.returncode, proc.stderr) == (0, "")
        assert elapsed < 2
        if command[0] == "law":
            assert json.loads(proc.stdout)["paths"][0]["values"] == expected
        else:
            assert [r.split(",")[3] for r in proc.stdout.splitlines()[1:]] == expected


def test_verify_meets_the_depth_cap_before_a_root_violation(tmp_path, capsys, monkeypatch):
    spec = write_json(tmp_path, "coin4.json", dict(COIN_SPEC, horizon=4))
    table = write_text(tmp_path, "t.csv", DEPTH_FOUR_TABLE.replace("\n,1\n", "\n,0\n", 1))
    argv = ["verify", spec, "--supermartingale", table]
    assert run(capsys, argv) == (1, "□: 1 > 0\n", "")
    monkeypatch.setenv("GTP_MAX_DEPTH", "2")
    assert run(capsys, argv) == (
        2,
        "",
        "error: dense level sweep to depth 3 exceeds the cap 2; raise GTP_MAX_DEPTH to allow it\n",
    )


def parser_exit(capsys, argv):
    """Exit code, stdout and stderr of a command line the parser ends."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


def test_law_without_its_flag_exits_two(coin_file, capsys):
    missing = {
        ("kolmogorov",): "--event",
        ("ergodic", "--situation", "0"): "--event",
        ("classify",): "--event",
        ("levy", "--paths", "1,1"): "--payoff",
        ("mixing", "--delta", "0"): "--system, --events",
    }
    for (mode, *flags), names in missing.items():
        code, out, err = parser_exit(capsys, ["law", coin_file, mode, *flags])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"gtprob law spec {mode}: error: the following arguments are required: {names}"
        )


def test_a_flag_another_law_mode_owns_exits_two(coin_file, capsys):
    code, out, err = parser_exit(capsys, ["law", coin_file, "levy", "--payoff", "e_w2", "--event", "w1=1"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "gtprob: error: unrecognized arguments: --event w1=1"


def test_ergodic_names_a_continuation_the_event_drops(coin_file, capsys):
    code, out, err = run(capsys, ["law", coin_file, "ergodic", "--event", "w1=1", "--situation", "1"])
    assert (code, err) == (1, "")
    assert out == (
        "drop-prefix condition fails at continuation 0; finite-horizon surrogate: the drop-prefix "
        "condition is enumerated on the event's window and the bound asserted at this truncation\n"
    )


def test_ergodic_names_a_multi_character_continuation_readably(tmp_path, capsys):
    spec = {"outcomes": ["lo", "1", "hi"], "horizon": 3,
            "content": {"type": "measure", "probs": {"lo": "1/3", "1": "1/3", "hi": "1/3"}}}
    event = write_json(tmp_path, "e.json", {"start": 1, "end": 2, "accepts": [["1", "lo"]]})
    argv = ["law", write_json(tmp_path, "lo1hi.json", spec), "ergodic", "--event", event, "--situation", "1"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (1, "")
    assert out.startswith("drop-prefix condition fails at continuation lo,lo; finite-horizon surrogate")


@pytest.mark.parametrize("event, kind, value", [("omega", "almost-certain", "1"), ("empty", "almost-impossible", "0")])
def test_classify_reads_the_event_shorthands(event, kind, value, coin_file, capsys):
    code, out, _ = run(capsys, ["law", coin_file, "classify", "--event", event])
    assert code == 0
    assert json.loads(out)["rows"] == [{"class": kind, "horizon": 3, "lower": value, "upper": value}]


def test_classify_prints_a_broken_complement_identity_and_exits_one(tmp_path, capsys):
    # The last round's table prices w4=0 at 1/2 but its complement at 1/3.
    gambles = [({"0": "1", "1": "0"}, "1/2"), ({"0": "0", "1": "1"}, "1/3"), ({"0": "-1", "1": "0"}, "-1/3")]
    table = {"type": "table", "entries": [{"gamble": g, "value": v} for g, v in gambles]}
    spec = {"outcomes": ["0", "1"], "horizon": 4, "contents": [COIN_SPEC["content"]] * 3 + [table]}
    argv = ["law", write_json(tmp_path, "broken.json", spec), "classify", "--event", "w4=0"]
    assert run(capsys, argv) == (1, "complement identity violated at □: lower=1/3, 1-upper(complement)=2/3\n", "")


def test_simulate_on_the_empty_path_traces_the_root_only(coin_file, capsys):
    assert run(capsys, ["simulate", coin_file, "--strategy", "doubling", "--path", ""]) == (
        0, "n,situation,capital,conditional_upper,note\n0,,1,,\n", ""
    )


def test_a_depth_cap_that_is_not_an_integer_exits_two(coin_file, capsys, monkeypatch):
    monkeypatch.setenv("GTP_MAX_DEPTH", "x")
    assert run(capsys, ["expect", coin_file, "--payoff", "e_w1"]) == (
        2, "", "error: GTP_MAX_DEPTH must be an integer, got 'x'\n"
    )


def test_classify_takes_no_horizons(coin_file, capsys):
    code, out, err = parser_exit(capsys, ["law", coin_file, "classify", "--event", "w1=1", "--horizons", "3"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "gtprob: error: unrecognized arguments: --horizons 3"


def test_every_command_and_law_mode_has_help(capsys):
    commands = [[], ["axioms"], ["expect"], ["simulate"], ["verify"], ["law"]]
    commands += [["law", "spec", mode] for mode in ("levy", "kolmogorov", "ergodic", "classify", "mixing")]
    for argv in commands:
        code, out, _ = parser_exit(capsys, [*argv, "--help"])
        assert code == 0 and out.startswith("usage: gtprob")


def test_file_errors_name_their_flag(coin_file, tmp_path, capsys):
    missing, bad, binary = (str(tmp_path / name) for name in ("missing.json", "bad.json", "binary.csv"))
    Path(bad).write_text("{not json")
    Path(binary).write_bytes(b"situation,value\n,\xff\n")
    mixing = mixing_argv(tmp_path)
    cases = {
        "spec": ["expect", missing, "--payoff", "e_w1"],
        "payoff": ["expect", coin_file, "--payoff", bad],
        "event": ["law", coin_file, "kolmogorov", "--event", bad],
        "supermartingale": ["verify", coin_file, "--supermartingale", binary],
        "base": ["simulate", coin_file, "--strategy", "doob:1/2,2", "--base", missing, "--path", "0"],
        "system": [*mixing[:4], missing, *mixing[5:]],
        "events": [*mixing[:6], bad],
    }
    for flag, argv in cases.items():
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        path = next(p for p in (missing, bad, binary) if p in argv)
        what = "invalid JSON in" if path == bad else "cannot read"
        assert err.startswith(f"error: /{flag}: {what} {path}: ")


# Nesting past the recursion limit and an integer past the digit limit.
PAST_PARSER_LIMITS = {
    "deep": "[" * 200_000 + "]" * 200_000,
    "long": '{"outcomes": ["0", "1"], "horizon": ' + "9" * 5000 + "}",
}


@pytest.mark.parametrize("name", list(PAST_PARSER_LIMITS))
def test_json_past_the_parser_limits_names_its_flag(name, coin_file, tmp_path, capsys):
    # Both are invalid JSON at the flag that names the file, never a traceback.
    text = PAST_PARSER_LIMITS[name]
    path = write_text(tmp_path, f"{name}.json", text)
    with pytest.raises((ValueError, RecursionError)) as parsed:
        json.loads(text)
    mixing = mixing_argv(tmp_path)
    cases = {
        "spec": ["expect", path, "--payoff", "e_w1"],
        "payoff": ["expect", coin_file, "--payoff", path],
        "system": [*mixing[:4], path, *mixing[5:]],
    }
    for flag, argv in cases.items():
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"error: /{flag}: invalid JSON in {path}: {parsed.value}\n")


def test_law_mixing_on_four_outcomes(tmp_path, capsys):
    # The outcome cap admits a forecaster spec with four outcomes.
    spec = dict(P2_SPEC, outcomes=["0", "1", "2", "3"])
    event = {"start": 3, "end": 3, "accepts": [["1"]]}
    p2 = protocol2_from_json(spec)
    phi = forecasting_system_from_json({"kind": "constant", "value": "a"}, p2)
    report = delta_mixing_check(phi, Fraction(0), 1, [window_from_json(event, p2.outcomes)], max_prefix=2)
    assert run(capsys, mixing_argv(tmp_path, spec=spec, events=[event])) == (0, f"{report}\n", "")


def test_last_outcome_map_missing_an_outcome_exits_two(tmp_path, capsys):
    spec = {
        "outcomes": ["0", "1"],
        "predictions": [["a", "b"]] * 3,
        "contents": {
            "a": {"type": "measure", "probs": {"0": "1/2", "1": "1/2"}},
            "b": {"type": "measure", "probs": {"0": "1/3", "1": "2/3"}},
        },
    }
    spec_path = tmp_path / "p2.json"
    spec_path.write_text(json.dumps(spec))
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({"kind": "last-outcome", "map": {"0": "a"}, "initial": "b"}))
    event = tmp_path / "evt.json"
    event.write_text(json.dumps({"start": 3, "end": 3, "accepts": [["1"]]}))
    argv = ["law", str(spec_path), "mixing", "--system", str(system), "--events", str(event)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.strip() == "error: /system/map: last-outcome map misses outcomes ['1']"


def test_table_functional_missing_an_entry_exits_two(tmp_path, capsys):
    spec = {
        "outcomes": ["0", "1"],
        "horizon": 2,
        "content": {
            "type": "table",
            "entries": [{"gamble": {"0": "0", "1": "1"}, "value": "1/2"}],
        },
    }
    path = tmp_path / "table_gap.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, ["expect", str(path), "--payoff", "e_w2"])
    assert code == 2 and out == ""
    assert err.startswith("error: no table entry for gamble values")


P2_SPEC = {
    "outcomes": ["0", "1"],
    "predictions": [["a", "b"]] * 3,
    "contents": {"a": COIN_SPEC["content"], "b": {"type": "measure", "probs": {"0": "1/3", "1": "2/3"}}},
}


def write_text(tmp_path, name, text) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_json(tmp_path, name, obj) -> str:
    return write_text(tmp_path, name, json.dumps(obj))


def mixing_argv(tmp_path, *flags, spec=P2_SPEC, system=None, events=None):
    """``law … mixing`` on a three-round forecaster spec, by default with
    the constant system ``a`` and the event "third outcome is 1"."""
    system = {"kind": "constant", "value": "a"} if system is None else system
    events = [{"start": 3, "end": 3, "accepts": [["1"]]}] if events is None else events
    files = [write_json(tmp_path, f"e{i}.json", e) for i, e in enumerate(events)]
    return [
        "law", write_json(tmp_path, "p2.json", spec), "mixing",
        "--system", write_json(tmp_path, "sys.json", system), "--events", ";".join(files), *flags,
    ]


M13_SPEC = dict(COIN_SPEC, content={"type": "measure", "probs": {"0": "1/3", "1": "2/3"}})
PER_ROUND_SPEC = {"outcomes": ["0", "1"], "horizon": 2, "contents": [COIN_SPEC["content"], M13_SPEC["content"]]}
AB_SPEC = {"outcomes": ["a", "b"], "horizon": 2, "content": {"type": "measure", "probs": {"a": "1/2", "b": "1/2"}}}
DEPTH_FOUR_TABLE = "situation,value\n" + "".join(
    "".join(s) + ",1\n" for d in range(5) for s in itertools.product("01", repeat=d)
)
TABLE_GAP_SPEC = {"outcomes": ["0", "1"], "horizon": 2, "content": {"type": "table", "entries": ["x"]}}
# A path in a directory that does not exist, relative to the working directory.
UNWRITABLE = os.path.join("no-such-directory", "out.csv")

# Input errors that must exit 2 with a message: case -> (argv from tmp_path
# and the coin spec's path, the message).
INPUT_ERRORS = {
    "table_system_gap": (
        lambda tmp, coin: mixing_argv(tmp, system={"kind": "table", "rule": {"": "a"}}),
        "/system: forecasting table has no entry for history 0",
    ),
    "table_system_without_a_root": (
        lambda tmp, coin: mixing_argv(tmp, system={"kind": "table", "rule": {"0": "a"}}),
        "/system: forecasting table has no entry for history □",
    ),
    "last_outcome_system_without_initial": (
        lambda tmp, coin: mixing_argv(tmp, system={"kind": "last-outcome", "map": {"0": "a", "1": "b"}}),
        "/system/initial: last-outcome system needs an initial value",
    ),
    "constant_system_without_value": (
        lambda tmp, coin: mixing_argv(tmp, system={"kind": "constant"}),
        "/system/value: constant system needs a value",
    ),
    "table_system_null_symbol": (
        lambda tmp, coin: mixing_argv(tmp, system={"kind": "table", "rule": {"": "a", "0": None, "1": "b"}}),
        "/system/rule/0: table system needs a prediction",
    ),
    "table_system_unknown_outcome": (
        lambda tmp, coin: mixing_argv(tmp, system={"kind": "table", "rule": {"x": "a"}}),
        "/system/rule/x: situation 'x' uses unknown outcome 'x'",
    ),
    "last_outcome_system_null_symbol": (
        lambda tmp, coin: mixing_argv(tmp, system={"kind": "last-outcome", "map": {"0": None, "1": "b"}, "initial": "a"}),
        "/system/map/0: last-outcome system needs a prediction",
    ),
    "constant_system_numeric_symbol": (
        lambda tmp, coin: mixing_argv(tmp, system={"kind": "constant", "value": 1}),
        "/system/value: not a prediction string: 1",
    ),
    "table_system_numeric_symbol": (
        lambda tmp, coin: mixing_argv(tmp, system={"kind": "table", "rule": {"": "a", "0": 1, "1": "b"}}),
        "/system/rule/0: not a prediction string: 1",
    ),
    "last_outcome_system_list_symbol": (
        lambda tmp, coin: mixing_argv(tmp, system={"kind": "last-outcome", "map": {"0": "a", "1": ["b"]}, "initial": "a"}),
        "/system/map/1: not a prediction string: ['b']",
    ),
    "last_outcome_system_boolean_initial": (
        lambda tmp, coin: mixing_argv(tmp, system={"kind": "last-outcome", "map": {"0": "a", "1": "b"}, "initial": True}),
        "/system/initial: not a prediction string: True",
    ),
    "forecaster_spec_past_the_outcome_cap": (
        lambda tmp, coin: mixing_argv(tmp, spec=dict(P2_SPEC, outcomes=[str(i) for i in range(6)])),
        "/: outcome set of size 6 exceeds the cap 4",
    ),
    "constant_system_off_the_menu": (
        lambda tmp, coin: mixing_argv(tmp, system={"kind": "constant", "value": "c"}),
        "/system: rule returned 'c' at round 1, menu is ('a', 'b')",
    ),
    "ergodic_on_per_round_functionals": (
        lambda tmp, coin: ["law", write_json(tmp, "mixed.json", PER_ROUND_SPEC), "ergodic", "--event", "w1=1"],
        "/: shift bound needs the same pricing functional at every round",
    ),
    "menu_not_a_list": (
        lambda tmp, coin: mixing_argv(tmp, spec=dict(P2_SPEC, predictions=[["a"], 5, ["a"]])),
        "/predictions/1: a prediction menu is a list of symbols",
    ),
    "accept_not_a_label": (
        lambda tmp, coin: mixing_argv(tmp, events=[{"start": 3, "end": 3, "accepts": [[["1"]]]}]),
        "/window/accepts/0: unknown outcome ['1']",
    ),
    "table_entry_not_an_object": (
        lambda tmp, coin: ["expect", write_json(tmp, "t.json", TABLE_GAP_SPEC), "--payoff", "e_w1"],
        "/content/entries/0: entry needs a gamble object",
    ),
    "doob_zero_denominator": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "doob:1/0,1", "--path", "0"],
        "/strategy: not an exact rational: '1/0'",
    ),
    "levy_zero_denominator": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "levy:0,1/0", "--payoff", "e_w1", "--path", "0"],
        "/strategy: not an exact rational: '1/0'",
    ),
    "const_zero_denominator": (
        lambda tmp, coin: ["expect", coin, "--payoff", "const:1/0"],
        "/payoff: not an extended rational: '1/0'",
    ),
    "leading_ones_zero_denominator": (
        lambda tmp, coin: ["expect", coin, "--payoff", "leading_ones:1/0"],
        "/payoff: not an exact rational: '1/0'",
    ),
    "levy_one_number": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "levy:1", "--payoff", "e_w1", "--path", "0"],
        "/strategy: expected levy:a,b[,dyadic], got 'levy:1'",
    ),
    "doob_one_number": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "doob:1", "--path", "0"],
        "/strategy: expected doob:a,b, got 'doob:1'",
    ),
    "payoff_depth_not_an_integer": (
        lambda tmp, coin: ["expect", coin, "--payoff", write_json(tmp, "p.json", {"kind": "constant", "value": "1", "depth": "x"})],
        "/payoff/depth: constant payoff needs a non-negative integer depth",
    ),
    "delta_zero_denominator": (
        lambda tmp, coin: mixing_argv(tmp, "--delta", "1/0"),
        "/delta: not an exact rational: '1/0'",
    ),
    "csv_duplicate_row": (
        lambda tmp, coin: ["verify", coin, "--supermartingale", write_text(tmp, "t.csv", "situation,value\n,1\n0,0\n1,2\n0,5\n")],
        "/csv/5: duplicate situation '0'",
    ),
    "csv_field_too_large": (
        lambda tmp, coin: ["verify", coin, "--supermartingale", write_text(tmp, "t.csv", 'situation,value\n,"' + "x" * 140_000 + '"\n')],
        "/csv/2: field larger than field limit (131072)",
    ),
    "payoff_coordinate_not_an_integer": (
        lambda tmp, coin: ["expect", coin, "--payoff", "e_wx"],
        "/payoff: not an integer: 'x'",
    ),
    "event_coordinate_not_an_integer": (
        lambda tmp, coin: ["law", coin, "kolmogorov", "--event", "wx=1"],
        "/event: not an integer: 'x'",
    ),
    "coordinate_shorthand_without_a_one": (
        lambda tmp, coin: ["expect", write_json(tmp, "ab.json", AB_SPEC), "--payoff", "e_w1"],
        "/payoff: e_w shorthand needs an outcome labeled '1'",
    ),
    "leading_ones_shorthand_without_a_one": (
        lambda tmp, coin: ["expect", write_json(tmp, "ab.json", AB_SPEC), "--payoff", "leading_ones:4"],
        "/payoff: leading_ones shorthand needs an outcome labeled '1'",
    ),
    "leading_ones_payoff_without_a_one": (
        lambda tmp, coin: [
            "expect", write_json(tmp, "ab.json", AB_SPEC),
            "--payoff", write_json(tmp, "p.json", {"kind": "leading_ones_capped", "cap": "4"}),
        ],
        "/payoff/kind: leading_ones_capped payoff needs an outcome labeled '1'",
    ),
    "event_unknown_outcome": (
        lambda tmp, coin: ["law", coin, "kolmogorov", "--event", "w1=z"],
        "/event: unknown outcome 'z'",
    ),
    "sup_variant_off_the_root": (
        lambda tmp, coin: ["expect", coin, "--payoff", "e_w1", "--variant", "sup", "--situation", "0"],
        "/situation: the sup variant is defined at the root only",
    ),
    "sup_variant_infinite_payoff": (
        lambda tmp, coin: ["expect", coin, "--payoff", "const:inf", "--variant", "sup"],
        "payoff must be finite-valued, got inf at 000",
    ),
    "sup_variant_lower": (
        lambda tmp, coin: ["expect", coin, "--payoff", "e_w1", "--variant", "sup", "--lower"],
        "/lower: the sup variant has no lower form",
    ),
    "levy_without_a_payoff": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "levy:3/5,9/10", "--path", "0"],
        "/payoff: the levy construction needs --payoff",
    ),
    "unknown_strategy": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "nope", "--path", "0"],
        "/strategy: unknown strategy 'nope'; use doubling, donothing, doob:a,b or levy:a,b[,dyadic]",
    ),
    "table_for_a_plain_strategy": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "doubling", "--path", "0", "--table", str(tmp / "t.csv")],
        "/strategy: --table and --cuts apply to the doob/levy constructions only",
    ),
    "table_for_a_plain_strategy_over_its_budget": (
        lambda tmp, coin: ["simulate", write_json(tmp, "m13.json", M13_SPEC), "--strategy", "doubling", "--path", "1", "--table", str(tmp / "t.csv")],
        "/strategy: --table and --cuts apply to the doob/levy constructions only",
    ),
    "base_for_a_plain_strategy": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "doubling", "--path", "1", "--base", str(tmp / "nosuch.csv")],
        "/strategy: --base applies to the doob construction only",
    ),
    "base_for_levy": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "levy:1/2,2", "--payoff", "e_w1", "--path", "1", "--base", str(tmp / "nosuch.csv")],
        "/strategy: --base applies to the doob construction only",
    ),
    "classify_event_past_the_horizon": (
        lambda tmp, coin: ["law", coin, "classify", "--event", "w9=1"],
        "/event: event window ends beyond the game horizon",
    ),
    "kolmogorov_event_past_the_horizon": (
        lambda tmp, coin: ["law", coin, "kolmogorov", "--event", "w9=1"],
        "/event: event window ends beyond the game horizon",
    ),
    "ergodic_event_past_the_horizon": (
        lambda tmp, coin: ["law", coin, "ergodic", "--event", write_json(tmp, "e.json", {"start": 3, "end": 4, "accepts": []})],
        "/event: event window ends beyond the game horizon",
    ),
    "payoff_not_a_shorthand": (
        lambda tmp, coin: ["expect", coin, "--payoff", "x"],
        "/payoff: no such file and not a recognized shorthand: 'x'",
    ),
    "event_not_a_shorthand": (
        lambda tmp, coin: ["law", coin, "kolmogorov", "--event", "x"],
        "/event: no such file and not a recognized shorthand: 'x'",
    ),
    "leading_ones_cap_below_one": (
        lambda tmp, coin: ["expect", coin, "--payoff", "leading_ones:0"],
        "/payoff: cap must be at least 1",
    ),
    "leading_ones_cap_past_the_horizon": (
        lambda tmp, coin: ["expect", coin, "--payoff", "leading_ones:100"],
        "/payoff: depth 3 too shallow for cap 100",
    ),
    "payoff_table_key_of_another_depth": (
        lambda tmp, coin: ["expect", coin, "--payoff", write_json(tmp, "p.json", {"kind": "table", "depth": 1, "values": {"00": "0", "01": "1"}})],
        "/payoff: table key ('0', '0') does not have depth 1",
    ),
    "table_deeper_than_the_horizon": (
        lambda tmp, coin: ["verify", coin, "--supermartingale", write_text(tmp, "t.csv", DEPTH_FOUR_TABLE)],
        "/supermartingale: table is deeper than the game horizon",
    ),
    "mixing_event_past_the_horizon": (
        lambda tmp, coin: mixing_argv(tmp, events=[{"start": 9, "end": 9, "accepts": [["1"]]}]),
        "/events: event window ends beyond the game horizon",
    ),
    "levy_path_longer_than_the_payoff": (
        lambda tmp, coin: ["law", coin, "levy", "--payoff", "e_w2", "--paths", "1,0,1"],
        "/paths: paths must have the payoff depth 2, got 3",
    ),
    "levy_path_shorter_than_the_payoff": (
        lambda tmp, coin: ["law", coin, "levy", "--payoff", "e_w2", "--paths", "1,0;1"],
        "/paths: paths must have the payoff depth 2, got 1",
    ),
    "levy_path_past_the_horizon": (
        lambda tmp, coin: ["law", coin, "levy", "--payoff", "e_w2", "--paths", "1,0,1,1"],
        "/paths: situation of depth 4 outside horizon 3",
    ),
    "simulate_path_unknown_outcome": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "doubling", "--path", "1,2"],
        "/path: situation uses unknown outcome '2'",
    ),
    "situation_unknown_outcome": (
        lambda tmp, coin: ["expect", coin, "--payoff", "e_w1", "--situation", "2"],
        "/situation: situation '2' uses unknown outcome '2'",
    ),
    "situation_past_the_horizon": (
        lambda tmp, coin: ["expect", coin, "--payoff", "e_w1", "--situation", "0101"],
        "/situation: situation of depth 4 outside horizon 3",
    ),
    "ergodic_situation_unknown_outcome": (
        lambda tmp, coin: ["law", coin, "ergodic", "--event", "w1=1", "--situation", "7"],
        "/situation: situation '7' uses unknown outcome '7'",
    ),
    "payoff_coordinate_zero": (
        lambda tmp, coin: ["expect", coin, "--payoff", "e_w0"],
        "/payoff: need 1 <= start <= end, got [0, 0]",
    ),
    "event_coordinate_zero": (
        lambda tmp, coin: ["law", coin, "kolmogorov", "--event", "w0=1"],
        "/event: need 1 <= start <= end, got [0, 0]",
    ),
    "expect_payoff_past_the_horizon": (
        lambda tmp, coin: ["expect", coin, "--payoff", "e_w9"],
        "/payoff: payoff settles beyond the game horizon",
    ),
    "simulate_payoff_past_the_horizon": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "doubling", "--path", "0", "--payoff", "e_w9"],
        "/payoff: payoff settles beyond the game horizon",
    ),
    "levy_payoff_past_the_horizon": (
        lambda tmp, coin: ["law", coin, "levy", "--payoff", "e_w9"],
        "/payoff: payoff settles beyond the game horizon",
    ),
    "base_deeper_than_the_horizon": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "doob:1/2,2", "--path", "0", "--base", write_text(tmp, "t.csv", DEPTH_FOUR_TABLE)],
        "/base: table is deeper than the game horizon",
    ),
    "doob_band_reversed": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "doob:2,1", "--path", "0"],
        "/strategy: need 0 <= a < b, got (2, 1)",
    ),
    "doob_band_below_zero": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "doob:-1,1", "--path", "0"],
        "/strategy: need 0 <= a < b, got (-1, 1)",
    ),
    "levy_band_reversed": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "levy:2,1", "--payoff", "e_w1", "--path", "0"],
        "/strategy: need 0 <= a < b, got (2, 1)",
    ),
    "levy_unknown_slack": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "levy:1/2,1,weird", "--payoff", "e_w1", "--path", "0"],
        "/strategy: slack must be 'none' or 'dyadic', got 'weird'",
    ),
    "table_unwritable": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "doob:1/2,2", "--path", "0", "--table", UNWRITABLE],
        f"/table: cannot write {UNWRITABLE}: [Errno 2] No such file or directory: '{UNWRITABLE}'",
    ),
    "cuts_unwritable": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "doob:1/2,2", "--path", "0", "--cuts", UNWRITABLE],
        f"/cuts: cannot write {UNWRITABLE}: [Errno 2] No such file or directory: '{UNWRITABLE}'",
    ),
    "table_payoff_deeper_than_the_horizon": (
        lambda tmp, coin: ["expect", coin, "--payoff", write_json(tmp, "deep.json", {"kind": "table", "depth": 10**10, "values": {}})],
        "/payoff/depth: payoff settles beyond the game horizon",
    ),
    "table_payoff_past_the_cap": (
        lambda tmp, coin: ["expect", write_json(tmp, "huge.json", dict(COIN_SPEC, horizon=10**30)), "--payoff",
                           write_json(tmp, "deep.json", {"kind": "table", "depth": 10**10, "values": {}})],
        "/payoff/depth: dense payoff tabulation to depth 10000000000 exceeds the cap 14; raise GTP_MAX_DEPTH to allow it",
    ),
    "leading_ones_on_a_long_game": (
        lambda tmp, coin: ["expect", write_json(tmp, "long.json", dict(COIN_SPEC, horizon=3_000_000)), "--payoff", "leading_ones:4"],
        "dense payoff tabulation to depth 3000000 exceeds the cap 14; raise GTP_MAX_DEPTH to allow it",
    ),
    "probability_with_a_huge_exponent": (
        lambda tmp, coin: ["axioms", write_json(tmp, "e.json", dict(COIN_SPEC, content={"type": "measure", "probs": {"0": "1e1000000000", "1": "1/2"}}))],
        "/content/probs/0: not an exact rational: '1e1000000000'",
    ),
    "constant_payoff_past_the_float_range": (
        lambda tmp, coin: ["expect", coin, "--payoff", write_text(tmp, "p.json", '{"kind": "constant", "value": 1e400}')],
        "/payoff/value: not an extended rational: inf",
    ),
    "constant_payoff_infinity_literal": (
        lambda tmp, coin: ["expect", coin, "--payoff", write_json(tmp, "p.json", {"kind": "constant", "value": float("-inf")})],
        "/payoff/value: not an extended rational: -inf",
    ),
    "trace_unwritable": (
        lambda tmp, coin: ["simulate", coin, "--strategy", "doubling", "--path", "0", "--trace", UNWRITABLE],
        f"/trace: cannot write {UNWRITABLE}: [Errno 2] No such file or directory: '{UNWRITABLE}'",
    ),
}


@pytest.mark.parametrize("case", list(INPUT_ERRORS))
def test_input_errors_exit_two(case, coin_file, tmp_path, capsys):
    argv, message = INPUT_ERRORS[case]
    code, out, err = run(capsys, argv(tmp_path, coin_file))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


MIXING_NOTE = (
    "finite-horizon surrogate: the bound is checked on the supplied event list only, "
    "not on every sufficiently remote event, and prefixes in the exception list are skipped\n"
)


@pytest.mark.parametrize("case", ["table_payoff_past_the_cap", "leading_ones_on_a_long_game", "probability_with_a_huge_exponent"])
def test_huge_numbers_are_refused_before_any_work(case, coin_file, tmp_path, capsys):
    argv = INPUT_ERRORS[case][0](tmp_path, coin_file)
    start = time.perf_counter()
    assert run(capsys, argv)[0] == 2
    assert time.perf_counter() - start < 1.0


def test_a_huge_horizon_is_a_legal_game(tmp_path, capsys):
    # Path-local and shallow operations run; a whole-tree sweep meets the cap.
    spec = write_json(tmp_path, "huge.json", dict(COIN_SPEC, horizon=10**30))
    assert run(capsys, ["expect", spec, "--payoff", "e_w1"]) == (0, "1/2\n", "")
    assert run(capsys, ["law", spec, "classify", "--event", "w1=1"])[0] == 0
    code, out, err = run(capsys, ["simulate", spec, "--strategy", "doob:1/2,2", "--path", "1"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: dense tree sweep to depth {10**30} exceeds the cap 14; ")


def test_law_levy_names_an_unwritable_trace_before_its_report(coin_file, capsys):
    code, out, err = run(capsys, ["law", coin_file, "levy", "--payoff", "e_w1", "--paths", "1", "--trace", UNWRITABLE])
    assert (code, out) == (2, "")
    assert err == f"error: /trace: cannot write {UNWRITABLE}: [Errno 2] No such file or directory: '{UNWRITABLE}'\n"


def per_node_base(game):
    """The step-multiplier base as one factor per label at every node,
    keyed in level order."""
    labels, p_last = game.outcomes.labels, game.content_at(1).probs[-1]
    up = Fraction(3, 2)
    factors = dict.fromkeys(labels, (1 - up * p_last) / (1 - p_last)) | {labels[-1]: up}
    table = {}
    for s in (s for d in range(game.horizon + 1) for s in itertools.product(labels, repeat=d)):
        v = Fraction(1)
        for x in s:
            v *= factors[x]
        table[s] = ext(v)
    return table


@pytest.mark.parametrize(
    "labels, probs",
    [(("0", "1"), ("1/2", "1/2")), (("0", "1"), ("1/3", "2/3")), (("lo", "1", "hi"), ("1/3", "1/3", "1/3"))],
)
def test_default_base_is_the_per_node_product(labels, probs):
    outcomes = OutcomeSet(labels)
    game = GameSpec(outcomes, Measure(outcomes, dict(zip(labels, probs))), 4)
    base = _default_base(game)
    assert base.depth == 4
    assert list(base.table.items()) == list(per_node_base(game).items())


def test_default_doob_base_checks_the_cap_before_any_value(tmp_path, capsys):
    spec = write_json(tmp_path, "long.json", dict(COIN_SPEC, horizon=10**6))
    code, out, err = run(capsys, ["simulate", spec, "--strategy", "doob:1/2,2", "--path", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: dense tree sweep to depth 1000000 exceeds the cap 14; ")


def test_simulate_prints_a_builtin_strategy_over_its_budget_as_a_witness(tmp_path, capsys):
    m13 = {"type": "measure", "probs": {"0": "1/3", "1": "2/3"}}
    at_root = write_json(tmp_path, "m13.json", dict(COIN_SPEC, content=m13))
    assert run(capsys, ["simulate", at_root, "--strategy", "doubling", "--path", "1"]) == (
        1, "□: gamble priced 4/3 exceeds capital 1\n", ""
    )
    one_in = write_json(tmp_path, "late.json", {"outcomes": ["0", "1"], "horizon": 2, "contents": [COIN_SPEC["content"], m13]})
    assert run(capsys, ["simulate", one_in, "--strategy", "doubling", "--path", "1,1"]) == (
        1, "1: gamble priced 8/3 exceeds capital 2\n", ""
    )


def test_simulate_prints_a_negative_levy_conditional_as_a_witness(tmp_path, capsys):
    def spec(price):
        entries = [({"0": "0", "1": "1"}, price), ({"0": price, "1": price}, price)]
        content = {"type": "table", "entries": [{"gamble": g, "value": v} for g, v in entries]}
        return {"outcomes": ["0", "1"], "horizon": 2, "content": content}

    table = tmp_path / "levy.csv"
    for price, strategy in [("-1", "levy:1/2,2"), ("-1/8", "levy:1/2,2,dyadic")]:
        argv = ["simulate", write_json(tmp_path, "negative.json", spec(price)), "--strategy", strategy]
        argv += ["--payoff", "e_w2", "--path", "0,1", "--table", str(table)]
        assert run(capsys, argv) == (1, f"□: conditional upper expectation {price} is negative\n", "")
        assert not table.exists()


def test_law_mixing_with_a_last_outcome_system(tmp_path, capsys):
    system = {"kind": "last-outcome", "map": {"0": "a", "1": "b"}, "initial": "b"}
    event = {"start": 3, "end": 3, "accepts": [["1"]]}
    spec = protocol2_from_json(P2_SPEC)
    phi = forecasting_system_from_json(system, spec)
    report = delta_mixing_check(phi, Fraction(0), 1, [window_from_json(event, spec.outcomes)], max_prefix=2)
    assert report.violations > 0
    assert run(capsys, mixing_argv(tmp_path, system=system, events=[event])) == (1, f"{report}\n", "")


def test_law_mixing_reads_prefixes_past_a_window_end(tmp_path, capsys):
    events = [{"start": 1, "end": 1, "accepts": [["1"]]}, {"start": 3, "end": 3, "accepts": [["1"]]}]
    code, out, _ = run(capsys, mixing_argv(tmp_path, "--gap", "-3", "--max-prefix", "3", events=events))
    assert code == 1
    assert out == (
        "delta=0: 11 violation(s) over 28 checks; worst margin 1/2 for event0 given 1\n"
        "dichotomy on supplied events: event0: upper=1/2 outside, event1: upper=1/2 outside\n"
        + MIXING_NOTE
    )


def test_law_mixing_prefix_past_the_horizon_exits_two(tmp_path, capsys):
    code, out, err = run(capsys, mixing_argv(tmp_path, "--gap", "-3", "--max-prefix", "4"))
    assert (code, out, err) == (2, "", "error: /max-prefix: outcome path longer than the horizon\n")
    # With a gap that leaves no event remote past the horizon, no longer prefix is conditioned on.
    assert run(capsys, mixing_argv(tmp_path, "--max-prefix", "4")) == run(capsys, mixing_argv(tmp_path, "--max-prefix", "3"))


def test_law_mixing_with_a_table_system(tmp_path, capsys):
    rule = {"": "b", "0": "a", "1": "b", "00": "a", "01": "b", "10": "b", "11": "a"}
    events = [
        {"start": 3, "end": 3, "accepts": [["1"]]},
        {"start": 2, "end": 3, "accepts": [["1", "1"], ["0", "1"]]},
    ]
    argv = mixing_argv(tmp_path, "--delta", "1/10", system={"kind": "table", "rule": rule}, events=events)
    code, out, _ = run(capsys, argv)
    assert code == 1
    assert out == (
        "delta=1/10: 2 violation(s) over 8 checks; worst margin 11/108 for event0 given 01\n"
        "dichotomy on supplied events: event0: upper=61/108 outside, event1: upper=61/108 outside\n"
        + MIXING_NOTE
    )


def test_law_levy_writes_its_path_trace(coin_file, tmp_path, capsys):
    trace = tmp_path / "levy.csv"
    argv = ["law", coin_file, "levy", "--payoff", "e_w2", "--paths", "1,1;0,0", "--trace", str(trace)]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["paths"][1] == {
        "in_event": False, "path": "00", "reaches_one": False, "terminal_ok": True, "values": ["1/2", "1/2", "0"]
    }
    assert trace.read_text() == "n,situation,value\n0,,1/2\n1,1,1/2\n2,11,1\n0,,1/2\n1,0,1/2\n2,00,0\n"


def test_simulate_doob_prints_the_payoff_conditional(coin_file, capsys):
    argv = ["simulate", coin_file, "--strategy", "doob:1/2,1", "--payoff", "e_w3", "--path", "1,0,1"]
    assert run(capsys, argv) == (0, (
        "n,situation,capital,conditional_upper,note\n"
        "0,,1,1/2,\n1,1,3/2,1/2,upcross 1\n2,10,3/2,1/2,\n3,101,3/2,1,\n"
    ), "")


def test_doob_without_a_step_multiplier_rides_the_constant_base(tmp_path, capsys):
    contents = {
        "biased": {"type": "measure", "probs": {"0": "1/4", "1": "3/4"}},
        "envelope": {"type": "envelope", "measures": [{"0": "1/3", "1": "2/3"}, {"0": "1/2", "1": "1/2"}]},
    }
    for name, content in contents.items():
        spec = write_json(tmp_path, f"{name}.json", dict(COIN_SPEC, content=content))
        argv = ["simulate", spec, "--strategy", "doob:1/2,1", "--path", "1,0,1"]
        assert run(capsys, argv) == (
            0, "n,situation,capital,conditional_upper,note\n0,,1,,\n1,1,1,,\n2,10,1,,\n3,101,1,,\n", ""
        )


def test_a_spec_of_the_wrong_kind_exits_two(coin_file, tmp_path, capsys):
    forecaster = write_json(tmp_path, "forecaster.json", dict(P2_SPEC, horizon=3))
    cases = [
        (["axioms", forecaster], "this command needs a basic game spec, not a forecaster spec"),
        (["law", forecaster, "classify", "--event", "w1=1"], "law classify needs a basic game spec"),
        (mixing_argv(tmp_path, spec=COIN_SPEC), "mixing needs a forecaster spec with a 'predictions' field"),
    ]
    for argv, message in cases:
        assert run(capsys, argv) == (2, "", f"error: /: {message}\n")


# -- the exit-code contract under fuzzed input ---------------------------------

FUZZ_FILES = {
    "coin.json": COIN_SPEC,
    "p2.json": dict(P2_SPEC, horizon=3),
    "payoff.json": {"kind": "table", "depth": 2, "values": {"00": "0", "01": "1/2", "10": "1", "11": "inf"}},
    "event.json": {"start": 2, "end": 3, "accepts": [["1", "1"], ["0", "1"]]},
    "system.json": {"kind": "last-outcome", "map": {"0": "a", "1": "b"}, "initial": "a"},
    "rule.json": {"kind": "table", "rule": {"": "b", "0": "a", "1": "b", "00": "a", "01": "b", "10": "b", "11": "a"}},
}
# Stand-ins for a dropped key and for values of every JSON type.
DROP = object()
SWAPS = [DROP, None, True, 0, -1, 7, 10**30, 1.5, float("inf"), "x", "1/0", "-inf", "1e1000000000", [], ["1"], {}, {"0": "1"}]
STRINGS = st.text(alphabet="01a,;:=/x-", max_size=6)
PATHS = st.one_of(st.sampled_from(["", "1", "1,0", "0,1,1", "1,0,1,1", "1,,0", "2", "11"]), STRINGS)
SITUATIONS = st.one_of(st.sampled_from(["", "0", "01", "0,1", "011", "0111", "2", "p"]), STRINGS)
STRATEGIES = st.one_of(
    st.sampled_from(
        ["doubling", "donothing", "doob:4/5,6/5", "levy:3/5,9/10", "levy:1/4,1/2,dyadic", "doob:", "levy:",
         "doob:1", "levy:1", "doob:1,2,3", "levy:1,2,3", "doob:6/5,4/5", "levy:2,1", "levy:x,1", "nope"]
    ),
    st.builds("{}:{}".format, st.sampled_from(["doob", "levy"]), STRINGS),
)
PAYOFFS = st.sampled_from(["payoff.json", "e_w1", "e_w3", "e_w9", "e_wx", "leading_ones:2", "const:-1/2", "const:x", "x"])
EVENTS = st.sampled_from(["event.json", "w1=1", "w3=0", "w9=1", "w1=z", "wx=1", "omega", "empty", "x"])
# Each law mode's flags; a command line may borrow one flag of another mode.
LAW_FLAGS = {
    "levy": {"--payoff": PAYOFFS, "--paths": st.lists(PATHS, max_size=3).map(";".join), "--trace": st.just("out.csv")},
    "kolmogorov": {"--event": EVENTS},
    "ergodic": {"--event": EVENTS, "--situation": SITUATIONS},
    "classify": {"--event": EVENTS},
    "mixing": {
        "--system": st.sampled_from(["system.json", "rule.json"]),
        "--events": st.sampled_from(["event.json", "event.json;event.json"]),
        "--delta": st.sampled_from(["0", "1/10", "1/0", "x", "-1"]),
        "--gap": st.integers(-6, 6).map(str),
        "--max-prefix": st.integers(0, 6).map(str),
    },
}


TABLE_ROWS = ["situation,value", ",1", "0,0", "1,2", "00,0", "01,0", "10,2", "11,2"]
TABLE = "\n".join(TABLE_ROWS) + "\n"
ROW_EDITS = ["drop", "duplicate", "move", "label", "header", "value", "column"]


def json_nodes(value, at=()):
    """The paths to every node of a JSON value."""
    yield at
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from json_nodes(child, (*at, key))


def replaced(value, at, new):
    """``value`` with the node at ``at`` replaced by ``new``, or dropped."""
    if not at:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    if new is DROP and len(at) == 1:
        del copy[at[0]]
    else:
        copy[at[0]] = replaced(value[at[0]], at[1:], new)
    return copy


def edited_table(draw):
    """The fixture capital table with one row dropped, duplicated or moved,
    or one label, header, value or column spoiled."""
    rows, edit = list(TABLE_ROWS), draw(st.sampled_from(ROW_EDITS))
    i = draw(st.integers(1, len(rows) - 1))
    if edit == "drop":
        del rows[i]
    elif edit == "duplicate":
        rows.insert(draw(st.integers(1, len(rows))), rows[i])
    elif edit == "move":
        rows.insert(draw(st.integers(1, len(rows) - 1)), rows.pop(i))
    elif edit == "label":
        rows[i] = "2" + rows[i]
    elif edit == "header":
        rows[0] = draw(st.sampled_from(["", "situation", "value,situation", "situation,value,x"]))
    elif edit == "value":
        rows[i] = rows[i].split(",")[0] + "," + draw(st.sampled_from(["", "x", "1/0", "inf", "-inf", "-1"]))
    else:
        rows[i] += ",0"
    return "\n".join(rows) + "\n"


@st.composite
def fuzzed_inputs(draw):
    """Fixture files and capital table, one of them perhaps mutated, and a
    command line."""
    files, table = dict(FUZZ_FILES), TABLE
    mutate = draw(st.integers(0, 3))
    if mutate == 0:
        name = draw(st.sampled_from(sorted(files)))
        at = draw(st.sampled_from(list(json_nodes(files[name]))))
        new = draw(st.sampled_from(SWAPS[1:] if not at else SWAPS))
        files[name] = replaced(files[name], at, new)
    elif mutate == 1:
        table = edited_table(draw)
    command = draw(st.sampled_from(["axioms", "expect", "simulate", "verify", "law", "law", "law"]))
    mode = draw(st.sampled_from(sorted(LAW_FLAGS)))
    # Mostly the kind of spec the command needs.
    specs = ["coin.json", "p2.json"][:: -1 if command == "law" and mode == "mixing" else 1]
    spec = specs[draw(st.integers(0, 5)) == 0]
    if command == "axioms":
        argv = ["axioms", spec]
    elif command == "expect":
        argv = ["expect", spec, "--payoff", draw(PAYOFFS), "--situation", draw(SITUATIONS)]
        argv += draw(st.sampled_from([[], ["--lower"], ["--variant", "sup"]]))
    elif command == "simulate":
        argv = ["simulate", spec, "--strategy", draw(STRATEGIES), "--path", draw(PATHS)]
        argv += draw(st.sampled_from([[], ["--payoff", draw(PAYOFFS)]]))
        argv += draw(st.sampled_from([[], ["--base", "table.csv"]]))
    elif command == "verify":
        argv = ["verify", spec, "--supermartingale", "table.csv"]
    else:
        flags = dict(LAW_FLAGS[mode])
        if draw(st.integers(0, 3)) == 0:
            other = draw(st.sampled_from(sorted(set(LAW_FLAGS) - {mode})))
            flag = draw(st.sampled_from(sorted(LAW_FLAGS[other])))
            flags[flag] = LAW_FLAGS[other][flag]
        argv = ["law", spec, mode]
        for flag, values in flags.items():
            if draw(st.integers(0, 7)) > 0:
                argv += [flag, draw(values)]
    return files, table, argv


def run_quietly(argv):
    """Exit code, stdout and stderr of ``main(argv)``, parser exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(fuzzed_inputs())
# Escapes that ended in a traceback once.
@example((FUZZ_FILES, TABLE, ["simulate", "coin.json", "--strategy", "levy:1", "--payoff", "e_w1", "--path", "0"]))
@example((dict(FUZZ_FILES, **{"payoff.json": {"kind": "constant", "value": "1", "depth": "x"}}), TABLE,
          ["expect", "coin.json", "--payoff", "payoff.json"]))
@example((dict(FUZZ_FILES, **{"coin.json": dict(COIN_SPEC, outcomes=["0", []])}), TABLE, ["axioms", "coin.json"]))
def test_any_input_keeps_the_exit_code_contract(inputs):
    files, table, argv = inputs
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in files.items():
            Path(tmp, name).write_text(json.dumps(obj))
        Path(tmp, "table.csv").write_text(table)
        # File names, alone or joined with ";", become paths in tmp.
        names = {*files, "table.csv", "out.csv"}
        argv = [";".join(str(Path(tmp, n)) for n in a.split(";")) if set(a.split(";")) <= names else a for a in argv]
        code, out, err = run_quietly(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    assert code != 1 or out, argv


@st.composite
def reordered_tables(draw):
    """The fixture table's rows with drawn values, perhaps one situation
    twice, in two orders."""
    value = st.sampled_from(["0", "1/2", "1", "2", "5"])
    rows = [row.split(",")[0] + "," + draw(value) for row in TABLE_ROWS[1:]]
    if draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)).split(",")[0] + "," + draw(value))
    return [draw(st.permutations(rows)) for _ in range(2)]


@settings(max_examples=50, deadline=None)
@given(reordered_tables())
@example([[",1", "0,0", "1,2", "0,5"], [",1", "0,5", "1,2", "0,0"]])
def test_verify_does_not_depend_on_row_order(orders):
    results = set()
    with tempfile.TemporaryDirectory() as tmp:
        spec, table = Path(tmp, "coin.json"), Path(tmp, "table.csv")
        spec.write_text(json.dumps(COIN_SPEC))
        for rows in orders:
            table.write_text("\n".join(["situation,value", *rows]) + "\n")
            code, out, _ = run_quietly(["verify", str(spec), "--supermartingale", str(table)])
            results.add((code, out))
    assert len(results) == 1, (orders, results)
