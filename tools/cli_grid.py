"""Run a fixed grid of ``gtprob`` command lines and print one digest line each.

Usage (from the repository root)::

    python tools/cli_grid.py                 # one digest line per command line
    python tools/cli_grid.py --against REV   # compare with the commit REV

Every command line runs in process through ``gtprob.cli.main``, with the
working directory set to a temporary directory that holds the fixture specs,
payoffs, events, forecasting systems and capital tables below.  Each runs
twice: with ``GTP_MAX_DEPTH`` unset and with ``GTP_MAX_DEPTH=2``.  The digest
line gives the exit code, a hash of stdout, of stderr and of every file the
command wrote, then the environment and the command line.  Paths in the grid
are relative, so no text depends on where the temporary directory lies.

``--against REV`` extracts ``REV`` with ``git archive`` into a temporary
directory and runs the same grid on that tree's ``src`` in a separate
process, while this tree's grid runs in this one.  It prints the command
lines whose results differ, grouped by what differs (exit code, stdout,
stderr, written files), with the changed lines of each text, and then one
summary line.  The exit status is 1 when a line differs.

Standard library only; not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVS = ("", "GTP_MAX_DEPTH=2")
OUT = "out"  # the directory every written file of the grid goes to
UNWRITABLE = "nodir/x.csv"

# -- fixtures ------------------------------------------------------------------

COIN = {"type": "measure", "probs": {"0": "1/2", "1": "1/2"}}
M13 = {"type": "measure", "probs": {"0": "1/3", "1": "2/3"}}
TABLE_ROUND = {
    "type": "table",
    "entries": [
        {"gamble": {"0": g0, "1": g1}, "value": v}
        for g0, g1, v in [
            ("0", "0", "0"), ("1", "1", "1"), ("0", "1", "1/2"), ("1", "0", "1/2"),
            ("2", "2", "2"), ("0", "2", "1"), ("3/2", "3/2", "3/2"),
        ]
    ],
}
K3 = {"type": "measure", "probs": {"lo": "1/3", "1": "1/3", "hi": "1/3"}}
P2 = {"outcomes": ["0", "1"], "predictions": [["a", "b"]] * 3, "contents": {"a": COIN, "b": M13}}
ENVELOPE = {"type": "envelope", "measures": [{"0": "1/3", "1": "2/3"}, {"0": "3/4", "1": "1/4"}]}
P3H8 = {"outcomes": ["0", "1"], "predictions": [["a", "b", "c"]] * 8,
        "contents": {"a": M13, "b": {"type": "sup"}, "c": ENVELOPE}}


def _table_csv(rows: dict[str, str]) -> str:
    return "situation,value\n" + "".join(f"{s},{v}\n" for s, v in rows.items())


def _tree(depth: int, value) -> dict[str, str]:
    return {"".join(s): value(s) for d in range(depth + 1) for s in itertools.product("01", repeat=d)}


FIXTURES = {
    # games
    "coin.json": {"outcomes": ["0", "1"], "horizon": 3, "content": COIN},
    "m13.json": {"outcomes": ["0", "1"], "horizon": 4, "content": M13},
    "mixed.json": {
        "outcomes": ["0", "1"],
        "horizon": 4,
        "contents": [
            {"type": "envelope", "measures": [{"0": "1/3", "1": "2/3"}, {"0": "1/2", "1": "1/2"}]},
            {"type": "sup"},
            COIN,
            TABLE_ROUND,
        ],
    },
    "k3.json": {"outcomes": ["lo", "1", "hi"], "horizon": 3, "content": K3},
    "k3r.json": {"outcomes": ["lo", "1", "hi"], "horizon": 3, "contents": [
        K3, {"type": "sup"}, {"type": "envelope", "measures": [K3["probs"], {"lo": "1/2", "1": "0", "hi": "1/2"}]},
    ]},
    "broken.json": {
        "outcomes": ["0", "1"],
        "horizon": 4,
        "contents": [COIN] * 3 + [{"type": "table", "entries": [
            {"gamble": {"0": "1", "1": "0"}, "value": "1/2"},
            {"gamble": {"0": "0", "1": "1"}, "value": "1/3"},
            {"gamble": {"0": "-1", "1": "0"}, "value": "-1/3"},
        ]}],
    },
    "gap.json": {"outcomes": ["0", "1"], "horizon": 2, "content": {"type": "table", "entries": ["x"]}},
    "ab.json": {"outcomes": ["a", "b"], "horizon": 2, "content": {"type": "measure", "probs": {"a": "1/2", "b": "1/2"}}},
    "nogame.json": {"outcomes": ["0", "1"], "horizon": 0, "content": COIN},
    "long.json": {"outcomes": ["0", "1"], "horizon": 10**6, "content": COIN},
    "huge.json": {"outcomes": ["0", "1"], "horizon": 10**30, "content": COIN},
    # forecaster specs
    "p2.json": P2,
    "p3h8.json": P3H8,
    "p2h.json": dict(P2, horizon=3),
    "p2h2.json": dict(P2, horizon=2),
    "p2str.json": dict(P2, horizon="3"),
    "p2nofn.json": dict(P2, contents={"a": COIN}),
    "p2empty.json": dict(P2, predictions=[["a"], [], ["a"]]),
    "p2menu.json": dict(P2, predictions=[["a"], 5, ["a"]]),
    # forecasting systems
    "sys_a.json": {"kind": "constant", "value": "a"},
    "sys_last.json": {"kind": "last-outcome", "map": {"0": "a", "1": "b"}, "initial": "b"},
    "sys_table.json": {"kind": "table", "rule": {"": "b", "0": "a", "1": "b", "00": "a", "01": "b", "10": "b", "11": "a"}},
    "sys_gap.json": {"kind": "table", "rule": {"": "a"}},
    "sys_mapgap.json": {"kind": "last-outcome", "map": {"0": "a"}, "initial": "a"},
    "sys_off.json": {"kind": "constant", "value": "c"},
    "sys_num.json": {"kind": "constant", "value": 1},
    "sys_rulenum.json": {"kind": "table", "rule": {"": "a", "0": 1, "1": "b"}},
    "sys_maplist.json": {"kind": "last-outcome", "map": {"0": "a", "1": ["b"]}, "initial": "a"},
    "sys_initbool.json": {"kind": "last-outcome", "map": {"0": "a", "1": "b"}, "initial": True},
    # off the menu at 1 (round 2) and at 00 (round 3): the first failure in depth-first order is 00
    "sys_twofail.json": {"kind": "table", "rule": {"": "a", "0": "a", "1": "c", "00": "c", "01": "a", "10": "a", "11": "a"}},
    "sys_c.json": {"kind": "constant", "value": "c"},
    "sys_last3.json": {"kind": "last-outcome", "map": {"0": "c", "1": "b"}, "initial": "a"},
    "sys_table8.json": {"kind": "table", "rule": {
        "".join(h): "abc"[(h.count("1") + len(h)) % 3] for d in range(8) for h in itertools.product("01", repeat=d)
    }},
    # events
    "e1.json": {"start": 1, "end": 1, "accepts": [["1"]]},
    "e3.json": {"start": 3, "end": 3, "accepts": [["1"]]},
    "e23.json": {"start": 2, "end": 3, "accepts": [["1", "1"], ["0", "1"]]},
    "e34.json": {"start": 3, "end": 4, "accepts": []},
    "e9.json": {"start": 9, "end": 9, "accepts": [["1"]]},
    "e68.json": {"start": 6, "end": 8, "accepts": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"], ["1", "1", "1"]]},
    "e8.json": {"start": 8, "end": 8, "accepts": [["0"]]},
    "ebad.json": {"start": 3, "end": 3, "accepts": [[["1"]]]},
    # payoffs
    "pay_table2.json": {"kind": "table", "depth": 2, "values": {"00": "0", "01": "1", "10": "2", "11": "-1"}},
    "pay_const5.json": {"kind": "constant", "value": "1", "depth": 5},
    "pay_ind9.json": {"kind": "indicator", "window": {"start": 9, "end": 9, "accepts": [["1"]]}},
    "pay_ind23.json": {"kind": "indicator", "window": {"start": 2, "end": 3, "accepts": [["1", "1"]]}},
    "pay_depthx.json": {"kind": "constant", "value": "1", "depth": "x"},
    "pay_key.json": {"kind": "table", "depth": 1, "values": {"00": "0", "01": "1"}},
    "pay_kind.json": {"kind": "nope"},
    "pay_deep5.json": {"kind": "table", "depth": 5, "values": {}},
    "pay_1e400.json": '{"kind": "constant", "value": 1e400}',
    "pay_1e-5.json": {"kind": "constant", "value": "1e-5"},
    "pay_1e4300.json": {"kind": "constant", "value": "1e4300"},
    "pay_lo4.json": {"kind": "leading_ones_capped", "cap": "4", "depth": 2},
    "pay_k3inf.json": {"kind": "table", "depth": 2, "values": {
        f"{a},{b}": {("1", "hi"): "inf", ("hi", "lo"): "-inf"}.get((a, b), "1/2")
        for a in ("lo", "1", "hi") for b in ("lo", "1", "hi")
    }},
    # capital tables
    "t_total.csv": _table_csv(_tree(3, lambda s: "1")),
    "t_deep.csv": _table_csv(_tree(4, lambda s: "1")),
    "t_notsm.csv": _table_csv({"": "1", "0": "0", "1": "3"}),
    "t_neg.csv": _table_csv({"": "1", "0": "-1", "1": "3"}),
    "t_root2.csv": _table_csv({"": "2"}),
    "t_deep_root2.csv": _table_csv(_tree(3, lambda s: "2" if not s else "1")),
    "t_dup.csv": "situation,value\n,1\n0,0\n1,2\n0,5\n",
    "t_label.csv": "situation,value\n,1\n2,1\n",
    "notjson.json": "{",
}

SPECS = ("coin.json", "m13.json", "mixed.json", "k3.json", "k3r.json")
PAYOFFS = (
    "e_w0", "e_w1", "e_w2", "e_w4", "e_w9", "e_wx", "const:3/2", "const:inf", "const:-inf", "const:1/0",
    "leading_ones:2", "leading_ones:100", "leading_ones:0", "leading_ones:1/0",
    "pay_table2.json", "pay_const5.json", "pay_ind9.json", "pay_ind23.json", "pay_depthx.json",
    "pay_key.json", "pay_kind.json", "x",
)
STRATEGIES = (
    "doubling", "donothing", "doob:1/2,2", "doob:4/5,6/5", "levy:3/5,9/10", "levy:1/4,1/2,dyadic",
    "nope", "doob:2,1", "doob:-1,1", "doob:1,1", "levy:2,1", "levy:1/2,1,weird", "levy:1", "doob:1",
    "doob:1/0,1", "levy:0,1/0",
)
TABLES = tuple(name for name in FIXTURES if name.startswith("t_")) + ("t_missing.csv",)
EVENTS = (
    "omega", "empty", "w1=1", "w2=0", "w3=1", "w0=1", "w9=1", "w1=z", "wx=1", "x",
    "e1.json", "e23.json", "e34.json", "e9.json", "ebad.json",
)


def _situations(spec: str) -> tuple[str, ...]:
    return ("", "hi", "lo,1", "1,1,1,1", "x") if spec.startswith("k3") else ("", "1", "01", "011", "0111", "2")


def _paths(spec: str) -> tuple[str, ...]:
    if spec.startswith("k3"):
        return ("", "hi", "lo,1", "lo,1,hi", "hi,hi,hi,hi", "lo,2")
    return ("", "1", "1,0", "1,1,0", "1,1,1,1", "1,2")


def _path_lists(spec: str) -> tuple[str | None, ...]:
    """``law levy --paths`` values, ``None`` for no flag."""
    if spec.startswith("k3"):
        return (None, "", "1,lo,hi", "1,1;lo,hi", "hi,hi,hi;lo,lo,lo", "1,lo;hi", "1,2,1", "1,1,1,1")
    return (None, "", "1,0,1", "1,1;0,1", "1,1,1;0,0,0", "1,0;1", "1,2,1", "1,1,1,1")


def grid() -> list[list[str]]:
    """Every command line of the grid, in a fixed order."""
    lines: list[list[str]] = []
    add = lines.append
    # k3r.json is left out: three audits at K = 3 would take most of the grid's time.
    for spec in ("coin.json", "m13.json", "mixed.json", "k3.json", "broken.json", "gap.json", "p2.json",
                 "notjson.json", "nosuch.json", "nogame.json"):
        add(["axioms", spec])
    for spec in SPECS:
        sits = _situations(spec)
        for payoff in PAYOFFS:
            for s in sits:
                add(["expect", spec, "--payoff", payoff, "--situation", s])
                add(["expect", spec, "--payoff", payoff, "--situation", s, "--lower"])
            add(["expect", spec, "--payoff", payoff, "--variant", "sup"])
            add(["expect", spec, "--payoff", payoff, "--variant", "sup", "--lower"])
            add(["expect", spec, "--payoff", payoff, "--variant", "sup", "--situation", sits[1]])
    # Capped runs and a non-finite table at K = 3, and situations past a run's break.
    for spec in ("k3.json", "k3r.json"):
        for payoff in ("leading_ones:8", "leading_ones:5", "leading_ones:7/2", "pay_lo4.json", "pay_k3inf.json"):
            add(["expect", spec, "--payoff", payoff, "--variant", "sup"])
        for s, payoff in itertools.product(("lo", "1,lo", "hi,1", "1,1,lo"), ("leading_ones:8", "pay_lo4.json")):
            add(["expect", spec, "--payoff", payoff, "--situation", s])
            add(["expect", spec, "--payoff", payoff, "--situation", s, "--lower"])
    for spec, cap in (("coin.json", "8"), ("m13.json", "16"), ("mixed.json", "16")):
        for s in ("0", "10", "110", "101"):
            add(["expect", spec, "--payoff", f"leading_ones:{cap}", "--situation", s])
            add(["expect", spec, "--payoff", f"leading_ones:{cap}", "--situation", s, "--lower"])
    for spec in SPECS:
        for strategy, path, payoff in itertools.product(STRATEGIES, _paths(spec), (None, "e_w2", "e_w9")):
            add(["simulate", spec, "--strategy", strategy, "--path", path] + (["--payoff", payoff] if payoff else []))
        for strategy in ("doubling", "donothing", "doob:1/2,2", "levy:3/5,9/10", "levy:1/4,1/2,dyadic"):
            for flag, name in (("--table", "table.csv"), ("--cuts", "cuts.json"), ("--trace", "trace.csv")):
                for target in (f"{OUT}/{name}", UNWRITABLE):
                    add(["simulate", spec, "--strategy", strategy, "--path", _paths(spec)[3],
                         "--payoff", "e_w2", flag, target])
            add(["simulate", spec, "--strategy", strategy, "--path", _paths(spec)[2], "--payoff", "e_w1",
                 "--table", f"{OUT}/table.csv", "--cuts", f"{OUT}/cuts.json", "--trace", f"{OUT}/trace.csv"])
        for table, strategy in itertools.product(TABLES, ("doob:1/2,2", "doob:4/5,6/5", "doob:2,1")):
            add(["simulate", spec, "--strategy", strategy, "--path", _paths(spec)[3], "--base", table])
        not_doob = ("doubling", "donothing", "levy:3/5,9/10", "nope")
        for table, strategy in itertools.product(("t_total.csv", "t_missing.csv"), not_doob):
            add(["simulate", spec, "--strategy", strategy, "--path", _paths(spec)[3], "--payoff", "e_w2", "--base", table])
        for table in TABLES:
            add(["verify", spec, "--supermartingale", table])
    for spec in SPECS:
        sits = _situations(spec)
        for event in EVENTS:
            add(["law", spec, "kolmogorov", "--event", event])
            add(["law", spec, "classify", "--event", event])
            for s in sits:
                add(["law", spec, "ergodic", "--event", event, "--situation", s])
        for payoff in ("e_w1", "e_w2", "e_w9", "leading_ones:2", "pay_table2.json", "x"):
            for paths in _path_lists(spec):
                argv = ["law", spec, "levy", "--payoff", payoff] + ([] if paths is None else ["--paths", paths])
                add(argv)
                add(argv + ["--trace", f"{OUT}/trace.csv"])
                add(argv + ["--trace", UNWRITABLE])
    add(["law", "broken.json", "classify", "--event", "w4=0"])
    systems = ("sys_a.json", "sys_last.json", "sys_table.json", "sys_gap.json", "sys_mapgap.json", "sys_off.json",
               "nosuch.json")
    events = ("e3.json", "e1.json;e3.json", "e23.json", "e9.json", "ebad.json")
    settings = (("0", "1", "2"), ("1/10", "1", "4"), ("0", "-3", "3"), ("0", "-3", "4"), ("1/2", "-1", "4"),
                ("1/0", "-3", "4"), ("x", "1", "2"), ("0", "0", "0"))
    for spec, system, event, (delta, gap, prefix) in itertools.chain(
        itertools.product(("p2.json", "p2h.json"), systems, events, settings),
        itertools.product(("p2h2.json", "p2str.json", "p2nofn.json", "p2empty.json", "p2menu.json", "coin.json"),
                          systems[:1], events[:1], settings[:4]),
    ):
        add(["law", spec, "mixing", "--system", system, "--events", event, "--delta", delta,
             "--gap", gap, "--max-prefix", prefix])
    add(["law", "p2.json", "mixing", "--system", "sys_a.json", "--events", "e3.json", "--gap", "x"])
    for system in ("sys_num.json", "sys_rulenum.json", "sys_maplist.json", "sys_initbool.json", "sys_twofail.json"):
        add(["law", "p2.json", "mixing", "--system", system, "--events", "e3.json"])
    # Deeper lattices under a constant, a last-outcome and a full-table system.
    for system, (delta, gap, prefix) in itertools.product(
        ("sys_c.json", "sys_last3.json", "sys_table8.json"), (("0", "1", "2"), ("1/10", "-3", "4"), ("1/2", "-3", "8"))
    ):
        add(["law", "p3h8.json", "mixing", "--system", system, "--events", "e68.json;e8.json", "--delta", delta,
             "--gap", gap, "--max-prefix", prefix])
    for payoff in ("e_w1", "leading_ones:8", "pay_lo4.json"):
        add(["expect", "ab.json", "--payoff", payoff])
    add(["expect", "gap.json", "--payoff", "e_w1"])
    add(["law", "p2.json", "kolmogorov", "--event", "w1=1"])
    add(["law", "coin.json", "kolmogorov"])
    for strategy in ("doob:1/2,2", "doubling"):
        add(["simulate", "long.json", "--strategy", strategy, "--path", "1"])
    add(["axioms", "huge.json"])
    add(["expect", "huge.json", "--payoff", "e_w1"])
    add(["law", "huge.json", "classify", "--event", "w1=1"])
    add(["simulate", "huge.json", "--strategy", "doob:1/2,2", "--path", "1"])
    for payoff in ("pay_deep5.json", "pay_1e400.json", "pay_1e-5.json", "pay_1e4300.json"):
        add(["expect", "coin.json", "--payoff", payoff])
    return lines


# -- running --------------------------------------------------------------------


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:10] if text else "-"


def run_grid(src: Path, workdir: Path) -> list[dict]:
    """Run every command line of the grid under each environment, in
    ``workdir``, on the package in ``src``; one record per line."""
    sys.path.insert(0, str(src))
    from gtprob.cli import main

    for name, content in FIXTURES.items():
        (workdir / name).write_text(content if isinstance(content, str) else json.dumps(content))
    out_dir = workdir / OUT
    out_dir.mkdir()
    os.chdir(workdir)
    records = []
    for env, argv in itertools.product(ENVS, grid()):
        if env:
            os.environ["GTP_MAX_DEPTH"] = env.split("=", 1)[1]
        else:
            os.environ.pop("GTP_MAX_DEPTH", None)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refused the command line
                code = exc.code
            except Exception as exc:  # a traceback breaks the CLI contract; record it
                code = f"raised {type(exc).__name__}: {exc}"
        files = {}
        for path in sorted(out_dir.iterdir()):
            files[path.name] = path.read_text()
            path.unlink()
        records.append({"key": f"{env or '-'} {shlex.join(argv)}", "exit": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "files": files})
    os.environ.pop("GTP_MAX_DEPTH", None)
    return records


def digest_line(rec: dict) -> str:
    files = ",".join(f"{name}={_digest(text)}" for name, text in rec["files"].items()) or "-"
    return f"exit={rec['exit']} out={_digest(rec['stdout'])} err={_digest(rec['stderr'])} files={files} :: {rec['key']}"


def _rev_records(rev: str, tmp: Path) -> subprocess.Popen:
    """Extract ``rev`` under ``tmp`` and start this grid on it in a child process."""
    tree = tmp / "tree"
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True)
    if archive.returncode:
        raise SystemExit(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tree, filter="data")
    (tmp / "work-rev").mkdir()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("GTP_MAX_DEPTH", None)
    argv = [sys.executable, __file__, "--records", str(tree / "src"), str(tmp / "work-rev")]
    return subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)


def _changed(old: str, new: str) -> list[str]:
    return [line for line in difflib.ndiff(old.splitlines(), new.splitlines()) if line[:1] in "-+"]


def compare(old: list[dict], new: list[dict], rev: str) -> int:
    """Print the differing lines grouped by what differs, and a summary line."""
    kinds = ("exit", "stdout", "stderr", "files")
    groups: dict[str, list[tuple[dict, dict]]] = {k: [] for k in kinds}
    same = 0
    for a, b in zip(old, new):
        differ = [k for k in kinds if a[k] != b[k]]
        for k in differ:
            groups[k].append((a, b))
        same += not differ
    for kind in kinds:
        if not groups[kind]:
            continue
        print(f"== {kind} differs on {len(groups[kind])} line(s) ({rev} -, this tree +) ==")
        for a, b in groups[kind]:
            print(b["key"])
            if kind == "exit":
                print(f"  - {a['exit']}\n  + {b['exit']}")
            elif kind == "files":
                for name in sorted(set(a["files"]) | set(b["files"])):
                    if a["files"].get(name) != b["files"].get(name):
                        print(f"  {name}:")
                        for line in _changed(a["files"].get(name, ""), b["files"].get(name, "")):
                            print(f"    {line}")
            else:
                for line in _changed(a[kind], b[kind]):
                    print(f"  {line}")
    counts = ", ".join(f"{k} {len(groups[k])}" for k in kinds)
    print(f"cli grid against {rev}: {len(new)} lines, {same} identical; differing in {counts}")
    return 0 if same == len(new) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="compare with the tree of commit REV")
    parser.add_argument("--records", nargs=2, metavar=("SRC", "WORKDIR"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.records:  # the child process of --against: JSON records on stdout
        records = run_grid(Path(args.records[0]).resolve(), Path(args.records[1]).resolve())
        json.dump(records, sys.stdout)
        return 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="gtprob-grid-") as tmp:
        tmp = Path(tmp)
        child = _rev_records(args.against, tmp) if args.against else None
        (tmp / "work").mkdir()
        here = os.getcwd()
        try:
            records = run_grid(ROOT / "src", tmp / "work")
        finally:
            os.chdir(here)
        if child is None:
            for rec in records:
                print(digest_line(rec))
            print(f"cli grid: {len(records)} lines in {time.perf_counter() - start:.1f} s")
            return 0
        out, _ = child.communicate()
        if child.returncode:
            raise SystemExit(f"the grid on {args.against} exited {child.returncode}")
        code = compare(json.loads(out), records, args.against)
        print(f"({time.perf_counter() - start:.1f} s)")
        return code


if __name__ == "__main__":
    sys.exit(main())
