"""Check that the tests catch a fixed list of wrong versions of ``src/gtprob``.

Usage (from the repository root)::

    python tools/mutants.py [--timeout SECONDS] [name ...]

The script copies ``src/``, ``tests/``, ``demos/`` and ``pyproject.toml``
to a temporary directory and never edits ``src/`` in place.  For each
mutation in ``MUTANTS`` (all of them, or those named on the command line)
it replaces one exact piece of source text in the copy, runs pytest with
``-x`` on the test files that cover it, with a per-mutant timeout and a
limit on its address space, and puts the original text back.  The limit
turns a mutant that allocates without bound into a ``MemoryError``.  It prints one line per mutant:

* ``killed``: a test failed, or the run outlasted the timeout or the memory limit;
* ``survived``: every test passed, so no test tells the mutant apart;
* ``equivalent``: every test passed, and the mutant is listed with the
  reason it computes the same results as the original.

A last line sums them up.  The exit status is 1 when a mutant that is not
listed as equivalent survives.  A mutation whose text is no longer found
in its module is an error: the list has fallen behind the source.

Uses only the standard library besides pytest and Hypothesis, which the
tests need anyway; not part of the test suite.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "pyproject.toml")
MEMORY_LIMIT = 2 << 30  # bytes of address space for each pytest run


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/gtprob
    old: str  # exact text, found once in the module
    new: str
    tests: tuple[str, ...]  # test files under tests/, run in this order
    equivalent: str = ""  # why the mutant computes the same results, if it does


EXPECTATION = ("test_expectation.py", "test_laws.py")

MUTANTS = [
    # -- the state lattice -----------------------------------------------------
    Mutant(
        "lattice-gather-index-off-by-one",
        "expectation.py",
        "[level[i] for i in kids[d]]",
        "[level[i - 1] for i in kids[d]]",
        EXPECTATION,
    ),
    Mutant(
        "lattice-state-not-advanced-along-s",
        "expectation.py",
        "[self._state(s)], [], game.outcomes.labels",
        "[self._automaton[0]], [], game.outcomes.labels",
        EXPECTATION,
    ),
    Mutant(
        "state-returns-the-start-state",
        "expectation.py",
        "            state = step(state, n, x)\n        return state\n",
        "            state = step(state, n, x)\n        return self._automaton[0]\n",
        EXPECTATION,
    ),
    Mutant(
        "lattice-states-merged-per-depth-only",
        "expectation.py",
        "index.setdefault(step(w, n, x), len(index))",
        "index.setdefault(step(w, n, x), 0)",
        EXPECTATION,
    ),
    Mutant(
        "lattice-step-told-the-next-round",
        "expectation.py",
        "index.setdefault(step(w, n, x), len(index))",
        "index.setdefault(step(w, n + 1, x), len(index))",
        EXPECTATION,
    ),
    Mutant(
        "lattice-states-listed-in-reverse",
        "expectation.py",
        "            states = list(index)\n",
        "            states = list(index)[::-1]\n"
        "            kids[-1] = [len(states) - 1 - i for i in kids[-1]]\n",
        EXPECTATION,
    ),
    Mutant(
        "cap-dropped-on-the-lattice",
        "expectation.py",
        "        self._span(game, s)\n        _, step, value",
        "        _, step, value",
        ("test_cli.py",),
    ),
    Mutant(
        "constant-rounds-skipped",
        "expectation.py",
        "        if d < bottom:\n",
        "        if d < bottom and len(nums) > 1:\n",
        EXPECTATION,
    ),
    Mutant(
        "lower-expectation-not-negated-back",
        "expectation.py",
        "return -v if negate else v",
        "return v",
        EXPECTATION,
    ),
    # -- path reads from one sweep ---------------------------------------------
    Mutant(
        "path-tree-index-drops-the-outcome",
        "expectation.py",
        "i = i * k + index(x) if kids is None",
        "i = i * k if kids is None",
        EXPECTATION,
    ),
    Mutant(
        "path-lattice-index-read-as-the-tree-index",
        "expectation.py",
        "else kids[d][i * k + index(x)]",
        "else i * k + index(x)",
        EXPECTATION,
    ),
    Mutant(
        "path-padded-with-the-root-value",
        "expectation.py",
        "row + row[-1:] * (len(path) - xi.depth)",
        "row + row[:1] * (len(path) - xi.depth)",
        EXPECTATION,
    ),
    # -- the single sources: a round's fan-out, event membership, the band ----
    Mutant(
        "price-level-fan-out-off-by-one",
        "functionals.py",
        "form, k = self.form, len(self.outcomes.labels)",
        "form, k = self.form, len(self.outcomes.labels) + 1",
        ("test_functionals.py", "test_expectation.py"),
    ),
    Mutant(
        "event-membership-negated",
        "expectation.py",
        "return bool(self._member(window))",
        "return not self._member(window)",
        EXPECTATION,
    ),
    Mutant(
        "band-admits-a-equal-b",
        "strategies.py",
        "if not (0 <= a < b):",
        "if not (0 <= a <= b):",
        ("test_strategies.py",),
    ),
    # -- the constructions ------------------------------------------------------
    Mutant(
        "doob-mirrors-the-negated-increment",
        "strategies.py",
        "x = v + bx - bs",
        "x = v - bx + bs",
        ("test_strategies.py",),
    ),
    Mutant(
        "doob-drop-at-the-bar",
        "strategies.py",
        "elif bx < an:",
        "elif bx <= an:",
        ("test_strategies.py", "test_cli.py"),
    ),
    Mutant(
        "levy-pad-one-level-deeper",
        "strategies.py",
        "dn = self.den >> (len(sx) + 1) if self.dyadic else 0",
        "dn = self.den >> (len(sx) + 2) if self.dyadic else 0",
        ("test_strategies.py",),
    ),
    Mutant(
        "levy-exit-bar-unpadded",
        "strategies.py",
        'if mode == "riding" and cx > self.bn - dn:',
        'if mode == "riding" and cx > self.bn:',
        ("test_strategies.py",),
    ),
    Mutant(
        "mixture-weights-equal",
        "strategies.py",
        "weights = [1 << (n - 1 - i) for i in range(n)]",
        "weights = [1 for i in range(n)]",
        ("test_strategies.py",),
    ),
    Mutant(
        "mixture-base-column-weighted-one",
        "strategies.py",
        "weights + [0]]",
        "weights + [1]]",
        ("test_strategies.py",),
    ),
    Mutant(
        "mixture-pooled-weights-unweighted",
        "strategies.py",
        "pooled = _int_round([weights],",
        "pooled = _int_round([[1] * n],",
        ("test_strategies.py",),
    ),
    Mutant(
        "mixture-parts-need-not-share-a-base",
        "strategies.py",
        "if p.base is not parts[0].base and p.base.table != parts[0].base.table:",
        "if False:",
        ("test_strategies.py",),
    ),
    Mutant(
        "intervals-admit-a-point",
        "strategies.py",
        "if rats[i] < rats[d - i]]",
        "if rats[i] <= rats[d - i]]",
        ("test_strategies.py",),
    ),
    Mutant(
        "mixture-walks-sorted-labels",
        "strategies.py",
        "sits = list(game.all_situations(depth))",
        "sits = sorted(game.all_situations(depth), key=lambda u: (len(u), u))",
        ("test_strategies.py",),
    ),
    Mutant(
        "levy-rides-a-negative-conditional",
        "strategies.py",
        "        if c < 0:\n",
        "        if False:\n",
        ("test_strategies.py", "test_cli.py"),
    ),
    # -- the forecaster -----------------------------------------------------------
    Mutant(
        "off-rule-state-worth-one",
        "forecaster.py",
        "ONE if v is not None and event.member_window(v[2]) else ZERO",
        "ONE if v is None or event.member_window(v[2]) else ZERO",
        ("test_forecaster.py",),
    ),
    Mutant(
        "rule-check-keyed-by-state-alone",
        "forecaster.py",
        "if n < end and (w, n) not in checked:\n            checked.add((w, n))",
        "if n < end and w not in checked:\n            checked.add(w)",
        ("test_forecaster.py",),
    ),
    Mutant(
        "rule-check-starts-at-the-start-state",
        "forecaster.py",
        "check(reduce(advance, prefix, phi._start), len(prefix))",
        "check(phi._start, len(prefix))",
        ("test_forecaster.py",),
    ),
    Mutant(
        "window-part-grows-before-its-start",
        "forecaster.py",
        "v[2] + (x,) if n >= event.start else v[2]",
        "v[2] + (x,) if n >= event.start - 1 else v[2]",
        ("test_forecaster.py",),
    ),
    Mutant(
        "next-prediction-read-from-the-parent-state",
        "forecaster.py",
        "return w, rule(w) if n < end else None",
        "return w, rule(v[0]) if n < end else None",
        ("test_forecaster.py",),
    ),
    Mutant(
        "rule-asked-at-the-window-end",
        "forecaster.py",
        "return w, rule(w) if n < end else None",
        "return w, rule(w)",
        ("test_forecaster.py",),
    ),
    Mutant(
        "embedded-round-takes-the-cheapest-menu-symbol",
        "forecaster.py",
        "list(map(max, *levels))",
        "list(map(min, *levels))",
        ("test_forecaster.py",),
    ),
    Mutant(
        "embedded-section-gather-shifted-by-one",
        "forecaster.py",
        "[nums[i + j] for i in range(0, len(nums), k) for j in section]",
        "[nums[i + j - 1] for i in range(0, len(nums), k) for j in section]",
        ("test_forecaster.py",),
    ),
    Mutant(
        "mixing-conditional-read-one-level-up",
        "forecaster.py",
        "cond, margin = row[n], row[n] - row[0]",
        "cond, margin = row[n - 1], row[n - 1] - row[0]",
        ("test_forecaster.py", "test_cli.py"),
    ),
    Mutant(
        "mixing-violation-at-delta",
        "forecaster.py",
        "if margin > ext(delta):",
        "if margin >= ext(delta):",
        ("test_forecaster.py", "test_cli.py"),
    ),
    Mutant(
        "mixing-gap-off-by-one",
        "forecaster.py",
        "e.start >= n + gap",
        "e.start > n + gap",
        ("test_forecaster.py", "test_cli.py"),
    ),
    # -- capital tables filled in one pass ---------------------------------------
    Mutant(
        "default-base-counts-the-first-label",
        "cli.py",
        "last = game.outcomes.labels[-1]\n            value",
        "last = game.outcomes.labels[0]\n            value",
        ("test_cli.py",),
    ),
    Mutant(
        "default-base-tabulated-before-the-cap-check",
        "cli.py",
        "            return Supermartingale.from_fn(game, lambda s: value(s.count(last), len(s)))\n",
        "            table = {(c, n): value(c, n) for n in range(game.horizon + 1) for c in range(n + 1)}\n"
        "            return Supermartingale.from_fn(game, lambda s: table[s.count(last), len(s)])\n",
        ("test_cli.py",),
    ),
    Mutant(
        "shift-fills-one-level-short",
        "gametree.py",
        "for t in game.all_situations(depth - len(s)))",
        "for t in game.all_situations(depth - len(s) - 1))",
        ("test_gametree.py", "test_laws.py"),
    ),
    Mutant(
        "constant-one-level-deep",
        "gametree.py",
        "zip(game.all_situations(d), repeat(ext(value)))",
        "zip(game.all_situations(d + 1), repeat(ext(value)))",
        ("test_gametree.py", "test_strategies.py"),
    ),
    # -- one enumeration per outcome set -----------------------------------------
    Mutant(
        "kept-level-skips-the-depth-cap",
        "gametree.py",
        '        config.require_dense(top, what="tree sweep")\n',
        "        if top not in self.outcomes._levels:\n"
        '            config.require_dense(top, what="tree sweep")\n',
        ("test_gametree.py",),
    ),
    Mutant(
        "table-depth-past-the-horizon-admitted",
        "gametree.py",
        "if not 0 <= top <= self.horizon:",
        "if not 0 <= top:",
        ("test_gametree.py",),
    ),
    Mutant(
        "missing-level-kept-one-length-short",
        "functionals.py",
        "self._levels.setdefault(length, ",
        "self._levels.setdefault(length - 1, ",
        ("test_gametree.py",),
    ),
    Mutant(
        "table-keeps-the-callers-dict",
        "gametree.py",
        "        self.table = dict(table)\n",
        "        self.table = table if isinstance(table, dict) else dict(table)\n",
        ("test_gametree.py",),
    ),
    # -- verification -------------------------------------------------------------
    Mutant(
        "verify-fails-on-equality",
        "gametree.py",
        "            if a > b:\n",
        "            if a >= b:\n",
        ("test_gametree.py",),
    ),
    Mutant(
        "verify-witness-one-level-up",
        "gametree.py",
        "s = game.outcomes._level(d)[i]",
        "s = game.outcomes._level(d - 1)[i // len(game.outcomes)]",
        ("test_gametree.py", "test_cli.py"),
    ),
    Mutant(
        "verify-caps-the-leaf-level",
        "gametree.py",
        'config.require_dense(top - 1, what="level sweep")',
        'config.require_dense(top, what="level sweep")',
        ("test_gametree.py",),
    ),
    # -- the scripted fixture and classification ------------------------------
    Mutant(
        "scripted-resolution-flipped",
        "laws.py",
        "state = s[m - 1] == in_branch",
        "state = s[m - 1] != in_branch",
        ("test_laws.py",),
    ),
    Mutant(
        "classify-horizon-unchecked",
        "laws.py",
        "    event.require_within(game.horizon)\n",
        "",
        ("test_laws.py",),
    ),
    # -- the two survivors of the first mutation run, and its slow kill -------
    Mutant(
        "martingale-flag-loosened",
        "gametree.py",
        "            if a != b:\n                equality = False",
        "            if a < b - 1:\n                equality = False",
        ("test_gametree.py", "test_cli.py"),
    ),
    Mutant(
        "invariance-verdict-first-two-prefixes",
        "laws.py",
        "invariant = len(set(values.values())) == 1",
        "invariant = len(set(list(values.values())[:2])) == 1",
        ("test_laws.py",),
    ),
    Mutant(
        "minus-infinity-dominates",
        "functionals.py",
        "_PInf if _PInf in live else _NInf if _NInf in live else",
        "_NInf if _NInf in live else _PInf if _PInf in live else",
        ("test_expectation.py",),
    ),
    # -- the first run's equivalents -----------------------------------------
    Mutant(
        "read-out-sign-at-zero",
        "extreal.py",
        "(INF if n > 0 else NEG_INF) if n.__class__ is float",
        "(INF if n >= 0 else NEG_INF) if n.__class__ is float",
        ("test_extreal.py", "test_expectation.py"),
        equivalent="only the floats +inf and -inf reach the sign test",
    ),
    Mutant(
        "lower-probability-from-its-dual",
        "expectation.py",
        "low = lower_expectation(game, indicator(event), s)",
        "low = ONE - upper_probability(game, event.complement(), s)",
        EXPECTATION,
        equivalent="the complement identity holds, so both sides agree by construction",
    ),
    # -- reports and input errors --------------------------------------------
    Mutant(
        "shift-counterexample-unjoined",
        "laws.py",
        "{format_situation(self.counterexample, self.outcomes)}",
        "{''.join(self.counterexample)}",
        ("test_cli.py",),
    ),
    Mutant(
        "unknown-gamble-label-unnamed",
        "serialize.py",
        "                    if lab not in outcomes:\n",
        "                    if False:\n",
        ("test_serialize.py",),
    ),
    Mutant(
        "levy-trace-written-after-the-report",
        "cli.py",
        "    if args.trace:\n        _write_file(args.trace, \"/trace\", csv_text([\"n\", \"situation\", \"value\"], report.trace_rows()))\n"
        "    print(json.dumps(report.to_json(), sort_keys=True, indent=2))\n",
        "    print(json.dumps(report.to_json(), sort_keys=True, indent=2))\n"
        "    if args.trace:\n        _write_file(args.trace, \"/trace\", csv_text([\"n\", \"situation\", \"value\"], report.trace_rows()))\n",
        ("test_cli.py",),
    ),
    Mutant(
        "budget-witness-exits-two",
        "cli.py",
        "exceeds capital {exc.capital}\")\n            return 1",
        "exceeds capital {exc.capital}\")\n            return 2",
        ("test_cli.py",),
    ),
    Mutant(
        "base-refusal-dropped",
        "cli.py",
        'if args.base and (plain or name.startswith("levy:")):',
        "if False:",
        ("test_cli.py",),
    ),
    Mutant(
        "last-outcome-initial-defaults",
        "serialize.py",
        '_symbol(obj.get("initial"), f"{where}/initial", "last-outcome system needs an initial value")',
        'str(obj.get("initial"))',
        ("test_serialize.py", "test_cli.py"),
    ),
    Mutant(
        "table-rule-null-symbol-admitted",
        "serialize.py",
        '_symbol(v, at, "table system needs a prediction")',
        "str(v)",
        ("test_cli.py",),
    ),
    Mutant(
        "last-outcome-map-null-symbol-admitted",
        "serialize.py",
        'x: _symbol(p, f"{where}/map/{x}", "last-outcome system needs a prediction")',
        "x: str(p)",
        ("test_cli.py",),
    ),
    Mutant(
        "json-nesting-uncaught",
        "serialize.py",
        "except (ValueError, RecursionError) as exc:",
        "except ValueError as exc:",
        ("test_cli.py",),
    ),
    Mutant(
        "forecaster-cap-refuses-four",
        "forecaster.py",
        "        config.require_outcomes(len(outcomes))\n",
        "        config.require_outcomes(len(outcomes) + 1)\n",
        ("test_cli.py",),
    ),
    Mutant(
        "forecaster-cap-unchecked",
        "forecaster.py",
        "        config.require_outcomes(len(outcomes))\n",
        "",
        ("test_cli.py",),
    ),
    Mutant(
        "system-error-type-uncaught",
        "cli.py",
        "except ForecastError as exc:",
        "except () as exc:",
        ("test_cli.py",),
    ),
    Mutant(
        "leading-ones-shorthand-without-a-one-admitted",
        "cli.py",
        '        if "1" not in game.outcomes:\n            raise SchemaError("/payoff", "leading_ones shorthand',
        '        if False:\n            raise SchemaError("/payoff", "leading_ones shorthand',
        ("test_cli.py",),
    ),
    Mutant(
        "leading-ones-payoff-without-a-one-admitted",
        "serialize.py",
        '            if "1" not in game.outcomes:\n',
        "            if False:\n",
        ("test_cli.py",),
    ),
    Mutant(
        "short-levy-path-unflagged",
        "laws.py",
        "if len(path) != xi.depth:",
        "if len(path) > xi.depth:",
        ("test_cli.py",),
    ),
    # -- the axiom audit on integer numerators --------------------------------
    Mutant(
        "audit-sum-without-inf-dominance",
        "functionals.py",
        "return tuple(_PInf if _PInf in (a, b) else a + b for a, b in zip(f, g))",
        "return tuple(a + b for a, b in zip(f, g))",
        ("test_functionals.py",),
    ),
    Mutant(
        "audit-scalar-lcm-dropped",
        "functionals.py",
        "lift = lcm(*(c.denominator for c in AUDIT_SCALARS))",
        "lift = 1",
        ("test_functionals.py",),
    ),
    Mutant(
        "audit-nonnegative-means-positive",
        "functionals.py",
        "nonneg = [f for f in vectors if min(f) >= 0]",
        "nonneg = [f for f in vectors if min(f) > 0]",
        ("test_functionals.py",),
    ),
    # -- one pricing path for a single gamble -----------------------------------
    Mutant(
        "one-node-guard-dropped",
        "functionals.py",
        "        if self.form is None and type(self).price_level is OuterContent.price_level:\n"
        "            raise NotImplementedError\n",
        "",
        ("test_functionals.py",),
    ),
    Mutant(
        "one-node-guard-ignores-an-own-level-rule",
        "functionals.py",
        "if self.form is None and type(self).price_level is OuterContent.price_level:",
        "if self.form is None:",
        ("test_functionals.py",),
    ),
    Mutant(
        "audit-reads-out-over-the-input-den",
        "functionals.py",
        "cache[f] = _read_out(*content.price_level(list(f), den))[0]",
        "cache[f] = _read_out(content.price_level(list(f), den)[0], den)[0]",
        ("test_functionals.py",),
    ),
    Mutant(
        "verify-witness-priced-from-rhs",
        "gametree.py",
        "(s, _read_out([a], den)[0], parents[i])",
        "(s, _read_out([b], den)[0], parents[i])",
        ("test_gametree.py", "test_cli.py"),
    ),
    Mutant(
        "non-string-prediction-admitted",
        "serialize.py",
        "    if not isinstance(raw, str):\n",
        "    if False:\n",
        ("test_cli.py",),
    ),
    Mutant(
        "extension-of-a-negative-weight-is-the-builtin",
        "functionals.py",
        "all(a >= 0 for row in form[1] or () for a in row)",
        "True",
        ("test_functionals.py",),
    ),
    # -- the public API: each module's __all__ ------------------------------------
    Mutant(
        "package-drops-a-module-api",
        "__init__.py",
        "from gtprob.laws import *\n",
        "",
        ("test_exports.py",),
    ),
    # -- sizes checked before work -------------------------------------------------
    Mutant(
        "table-payoff-size-before-depth",
        "serialize.py",
        "Payoff.constant(0, depth)._span(game, ())",
        "pass",
        ("test_serialize.py",),
    ),
    Mutant(
        "exponent-unbounded",
        "serialize.py",
        "e and len(mantissa) + abs(int(exponent)) > limit",
        "False",
        ("test_serialize.py",),
    ),
    # -- level order and the library's input checks ---------------------------
    Mutant(
        "stop-sorts-by-string",
        "gametree.py",
        "sorted(sm.table, key=len)",
        "sorted(sm.table, key=lambda s: (len(s), s))",
        ("test_gametree.py",),
    ),
    Mutant(
        "upper-table-fills-leaves-first",
        "expectation.py",
        "    return Supermartingale(zip(game.all_situations(xi.depth), chain.from_iterable(levels)), xi.depth)\n",
        "    table = {}\n"
        "    for d in range(xi.depth, -1, -1):\n"
        "        table.update(zip(game.outcomes.tuples(d), levels[d]))\n"
        "    return Supermartingale(table, xi.depth)\n",
        ("test_gametree.py",),
    ),
    Mutant(
        "negative-payoff-depth-admitted",
        "expectation.py",
        "        if depth < 0:",
        "        if depth < -1:",
        ("test_expectation.py",),
    ),
    Mutant(
        "window-with-both-sources-admitted",
        "expectation.py",
        "if (accepts is None) == (predicate is None):",
        "if accepts is None and predicate is None:",
        ("test_expectation.py",),
    ),
    # -- the integer boundary and table payoffs --------------------------------
    Mutant(
        "numerators-lcm-of-the-numerators",
        "extreal.py",
        "lcm(*{r._denominator for r in raw",
        "lcm(*{r._numerator for r in raw",
        ("test_extreal.py", "test_expectation.py"),
    ),
    Mutant(
        "leaf-values-prefix-guard-inverted",
        "expectation.py",
        "map(s.__add__, rests) if s else rests",
        "map(s.__add__, rests) if not s else rests",
        EXPECTATION,
    ),
    Mutant(
        "missing-table-leaf-named-by-its-parent",
        "expectation.py",
        'raise KeyError(f"payoff table has no entry for {s!r}")',
        'raise KeyError(f"payoff table has no entry for {s[:-1]!r}")',
        ("test_expectation.py",),
    ),
    Mutant(
        "negative-determinacy-depth-admitted",
        "expectation.py",
        'raise ValueError("determinacy depth must be nonnegative")',
        "pass",
        ("test_expectation.py",),
    ),
    # -- an automaton's tree walk ------------------------------------------------
    Mutant(
        "tree-walk-starts-at-depth-len-s",
        "expectation.py",
        "for n in range(len(s) + 1, self.depth + 1):\n                states = [step(w, n, x)",
        "for n in range(len(s), self.depth):\n                states = [step(w, n, x)",
        EXPECTATION,
    ),
    Mutant(
        "tree-walk-values-the-merged-states",
        "expectation.py",
        "leaves = list(map(value, states))",
        "leaves = list(map({w: value(w) for w in dict.fromkeys(states)}.__getitem__, states))",
        EXPECTATION,
    ),
    # -- a table payoff's kept leaf level ----------------------------------------
    Mutant(
        "kept-level-read-without-its-label-order",
        "expectation.py",
        "self._kept.get(outcomes.labels)",
        "next(iter(self._kept.values()), None)",
        ("test_expectation.py",),
    ),
    Mutant(
        "kept-level-sliced-one-subtree-on",
        "expectation.py",
        "i = sum(outcomes.index(x)",
        "i = k**span + sum(outcomes.index(x)",
        ("test_expectation.py",),
    ),
    Mutant(
        "subtree-level-kept-as-the-root",
        "expectation.py",
        "if self._kept is not None and not s:",
        "if self._kept is not None:",
        ("test_expectation.py",),
    ),
    Mutant(
        "kept-filled-by-a-read-below-a-situation",
        "expectation.py",
        "if self._kept is not None and not s:",
        "if self._kept is not None and s:",
        ("test_expectation.py",),
    ),
    Mutant(
        "csv-rows-share-the-first-value-text",
        "serialize.py",
        "text[id(table[s])]",
        "next(iter(text.values()))",
        ("test_serialize.py",),
    ),
]


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _run(copy: Path, mutant: Mutant, timeout: float) -> tuple[str, float]:
    path = copy / "src" / "gtprob" / mutant.module
    original = path.read_text()
    if original.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: text not found once in {mutant.module}; update MUTANTS")
    path.write_text(original.replace(mutant.old, mutant.new))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    argv += [f"tests/{name}" for name in mutant.tests]
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=copy, env=env, capture_output=True, timeout=timeout, preexec_fn=_limit_memory
        )
        if proc.returncode in (3, 4, 5):  # internal error, usage error, no tests collected
            raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout.decode()}")
        passed = proc.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    finally:
        path.write_text(original)
    elapsed = time.perf_counter() - start
    if not passed:
        return "killed", elapsed
    return ("equivalent" if mutant.equivalent else "survived"), elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] if args.names else MUTANTS
    tally = {"killed": 0, "survived": 0, "equivalent": 0}
    # SIGTERM unwinds like an exit: subprocess.run kills its pytest child
    # and the copy is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix="gtprob-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / name)
        for mutant in chosen:
            verdict, elapsed = _run(copy, mutant, args.timeout)
            tally[verdict] += 1
            note = f"  ({mutant.equivalent})" if verdict == "equivalent" else ""
            print(f"{verdict:<10} {mutant.module:<15} {mutant.name}  [{elapsed:.1f} s]{note}", flush=True)
    print(
        f"mutants: {len(chosen)} run, {tally['killed']} killed, {tally['survived']} survived, "
        f"{tally['equivalent']} equivalent"
    )
    return 1 if tally["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
