"""Self-tests of the benchmark itself, on a tiny op list (a few seconds):

    python3 perfbench/selftest.py

* untraced and traced smoke runs report exactly the metrics of
  BENCHMARK.json, with their units, and pass the golden check;
* a tampered golden digest makes fail_ratio > 0 and the run incorrect;
* no span's self time is negative or exceeds its duration, and per layer
  the summed self time never exceeds the span total;
* in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from workloads import SMOKE as TINY
from workloads import fields_of, op_id

EPS = 1e-9

failures: list[str] = []


def check(cond: bool, what: str) -> None:
    print(("ok     " if cond else "FAILED ") + what)
    if not cond:
        failures.append(what)


def metric_units(section: str) -> dict[str, str]:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def test_smoke(goldens: dict) -> None:
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        res = run.run_workload(TINY, goldens, seed=0, seconds=0, trace=trace, label="selftest")
        got = {k: m["unit"] for k, m in res["metrics"].items()}
        check(got == metric_units(section), f"trace={int(trace)}: metric names and units match BENCHMARK.json {section}")
        check(res["correct"] and res["failed"] == 0, f"trace={int(trace)}: every op matches its golden")
        check(all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()),
              f"trace={int(trace)}: every metric is a number")
        if not trace:
            threads = res["raw"]["env"]["threads"]
            check(set(threads.values()) == {"1"}, "BLAS/OpenMP threads pinned to 1 in the worker")


def test_tampered_golden(goldens: dict) -> None:
    bad = dict(goldens)
    key = op_id(TINY[1])
    bad[key] = dict(bad[key], sha256="0" * 64)
    res = run.run_workload(TINY, bad, seed=0, seconds=0, trace=False, label="selftest")
    check(res["raw"]["fail_ratio"] > 0 and res["failed"] == 1 and not res["correct"],
          "a tampered golden digest counts as a failed op")


def test_self_times() -> None:
    run.SPANS_DIR.mkdir(exist_ok=True)
    path = run.SPANS_DIR / "selftest-spans.jsonl"
    doc = run.Runner().run_pass(TINY, fields_of(TINY), trace=True, spans=path)
    for name, s in doc["layers"].items():
        check(-EPS <= s["self_s"] <= s["total_s"] + EPS, f"{name}: self time within the span total")
    with open(path) as fh:
        fh.readline()
        spans = [json.loads(line) for line in fh]
    child = [0.0] * len(spans)
    for _name, parent, _op, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    check(bool(spans) and all(child[i] <= t1 - t0 + EPS for i, (_n, _p, _o, t0, t1) in enumerate(spans)),
          f"each of {len(spans)} written spans covers its children")


def test_bare_directory() -> None:
    bare = run.SPANS_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "socle-chain", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without the sources the benchmark exits nonzero and prints no result")


def main() -> int:
    goldens = run.load_goldens()
    test_smoke(goldens)
    test_tampered_golden(goldens)
    test_self_times()
    test_bare_directory()
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
