"""Self-tests of the benchmark: seeded inputs, metric names, checks that
catch wrong answers, failure accounting and exact counts.

    python3 -m pytest bench/tests
"""

import dataclasses
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
import workloads as wl  # noqa: E402

rschur = wl.rschur
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _run_bench(args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=170,
    )


class TestInputs:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_same_seed_same_instances(self, name):
        assert wl.build(name, 7).instances == wl.build(name, 7).instances

    @pytest.mark.parametrize("name", ["oracle_ladder", "construct_scan", "check_random"])
    def test_seed_draws_other_instances(self, name):
        first = wl.draw(name, 0)
        assert any(sorted(wl.draw(name, seed)) != sorted(first) for seed in range(1, 6))

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            wl.draw("nonesuch", 0)


class TestMetricNames:
    def test_names_units_and_bounds(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for w in SPEC["workloads"]:
            assert set(w) == {"name", "why"}
            assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
        for metric in SPEC["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in SPEC["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
        assert all(NAME.match(name) for name in names), names
        assert len(names) == len(set(names))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                          "bound": max(m["bound"] for m in SPEC["end_to_end"])}]

    def test_layer_map_covers_every_layer_metric(self):
        layer_map = json.loads((BENCH / "layer_map.json").read_text(encoding="utf-8"))["metrics"]
        assert set(layer_map) == {m["name"] for m in SPEC["per_layer"]}
        end_to_end = {m["name"] for m in SPEC["end_to_end"]}
        for entry in layer_map.values():
            assert set(entry["moves"]) <= end_to_end
            assert set(entry["on"]) <= set(WORKLOADS)

    def test_result_rejects_other_metrics(self):
        with pytest.raises(RuntimeError):
            run.result_line({"wall_s": 1.0}, False, run.Tally(attempted=1))


def _op(kind, *args):
    maker = {"search_rs": wl._oracle_op, "weak": wl._construct_op, "has_t": wl._scan_op,
             "max": wl._max_op, "verify": wl._verify_op}[kind]
    return maker((kind, *args), wl.NO_TRACE)


def _checked(op):
    result = op.run(wl.NO_TRACE)
    assert op.check(result, wl.NO_TRACE) is None
    return result


class TestChecksCatchWrongAnswers:
    def test_oracle_value_and_witness(self):
        op = _op("search_rs", 4, 4, 8)
        result = _checked(op)
        assert op.check(dataclasses.replace(result, value=result.value + 1), wl.NO_TRACE)
        assert op.check(dataclasses.replace(result, witness=None), wl.NO_TRACE)

    def test_construction_hit(self):
        op = _op("weak", 5, 3, 20)
        _checked(op)
        fake = rschur.SchurSolution((1, 2, 3, 4), 10)
        assert op.check((True, fake), wl.NO_TRACE)

    def test_random_scan_answer_and_witness(self):
        op = _op("has_t", 3, 3, (1, 2, 2, 3, 1, 2, 3, 3, 1, 2))
        found, witness = _checked(op)
        assert found
        assert op.check((False, None), wl.NO_TRACE)
        one_color = rschur.SchurSolution((1, 4), 5)  # colors 1, 3, 1
        assert op.check((True, one_color), wl.NO_TRACE)
        assert op.check((True, rschur.SchurSolution((1, 2), 4)), wl.NO_TRACE)  # not a solution

    def test_full_maximum(self):
        labels = tuple(range(1, 21))
        op = _op("max", 4, labels)
        count, witness = _checked(op)
        assert op.check((count - 1, witness), wl.NO_TRACE)

    def test_verify_exit_code_and_agree(self):
        op = _op("verify", 3, 3, 5, 6, 1)
        code, out, err, wall = _checked(op)
        assert op.check((3, out, err, wall), wl.NO_TRACE)
        rows = [json.loads(line) for line in out.splitlines()]
        rows[0]["agree"] = False
        bad = "\n".join(json.dumps(row) for row in rows)
        assert op.check((0, bad, err, wall), wl.NO_TRACE)
        assert op.check((0, out.splitlines()[0], err, wall), wl.NO_TRACE)


class TestFailureAccounting:
    def test_fabricated_failures_are_counted(self):
        def budget(tr):
            raise rschur.BudgetExceeded("node budget of 1 exhausted", nodes=1)

        ops = [
            wl.Op("right", lambda tr: 1, lambda result, tr: None),
            wl.Op("wrong", lambda tr: 2, lambda result, tr: f"got {result}, expected 1"),
            wl.Op("budget", budget, lambda result, tr: None),
            wl.Op("malformed", lambda tr: None, lambda result, tr: result[0]),
        ]
        workload = wl.Workload("fake", 0, [("fake",)] * len(ops), ops)
        tally = run.Tally()
        passes, times = run.run_passes(workload, wl.NO_TRACE, 0.0, tally)
        assert (len(passes), len(times)) == (1, 4)
        assert (tally.attempted, tally.failed) == (4, 3)
        values = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
        line = run.result_line(values, False, tally)
        assert line["correct"] is False and line["failed"] == 3


class TestExactCounts:
    POINTS = [(3, 3, 12), (4, 4, 12), (5, 4, 12)]

    def test_search_counts_repeat_and_match_search_rs(self):
        first = run.decide_all(wl, self.POINTS, 1, wl.NO_TRACE, run.Tally())
        again = run.decide_all(wl, self.POINTS, 1, wl.NO_TRACE, run.Tally())
        assert [(d.nodes, d.leaves) for d in first] == [(d.nodes, d.leaves) for d in again]
        total = sum(rschur.search_rs(m, t, n).nodes for m, t, n in self.POINTS)
        assert sum(d.nodes for d in first) == total

    def test_enumeration_counts_repeat(self):
        first = run.equations_metrics(wl, wl.NO_TRACE)
        again = run.equations_metrics(wl, wl.NO_TRACE)
        for key in first:
            if not key.endswith("_s") and "_s." not in key:
                assert first[key] == again[key], key
        assert first["equations.solutions"] == sum(wl.solution_count(m, 60, False) for m in run.INDEX_M)

    @pytest.mark.parametrize("distinct", [False, True])
    def test_solution_count_matches_enumeration(self, distinct):
        for m in range(3, 7):
            for n in range(1, 19):
                assert wl.solution_count(m, n, distinct) == rschur.count_solutions(m, n, distinct)

    def test_reference_max_matches_library(self):
        rng = random.Random(3)
        for _ in range(200):
            m = rng.randint(3, 5)
            n = rng.randint(1, 14)
            c = rschur.canonicalize([rng.randint(1, 4) for _ in range(n)])
            assert wl.reference_max_colors(c.colors, m) == rschur.max_solution_colors(c, m)[0]


def test_self_times_count_only_the_named_subtrees():
    tracer = Tracer()
    tracer.spans = [
        ["bench.op", 0.0, 10.0, -1],
        ["colorings.scan", 1.0, 9.0, 0],
        ["bench.check", 10.0, 15.0, -1],
        ["formulas.formula_value", 11.0, 14.0, 2],
    ]
    assert tracer.self_times(within="bench.op") == {"bench": 2.0, "colorings": 8.0}


def test_tail_percentile_keeps_ten_beyond():
    assert run.tail([0.1] * 19) is None
    out = run.tail([float(i) for i in range(56)])
    assert (out["percentile"], out["beyond"], out["value_s"]) == (82, 10, 45.0)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric(trace):
    proc = _run_bench(["--workload", "check_random", "--seed", "3", "--seconds", "0.1", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert set(lines[0]["environment"]) >= {"nproc", "python", "platform", "commit", "seed"}
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in wanted
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _run_bench(["--workload", "oracle_ladder", "--seed", "1", "--seconds", "1", "--trace", "0"],
                      cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
