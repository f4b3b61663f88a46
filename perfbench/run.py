"""The cealg benchmark: cold `cealg` CLI commands in a closed loop.

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, seed 0, untraced

One client sends one op at a time.  Each pass runs the ops of the workload
once each, in an order shuffled by the seed, inside a fresh worker
interpreter (`worker.py`) with BLAS/OpenMP threads pinned to 1.  Every op's
exit code and stdout digest are checked against `goldens.json`.

With `--trace 0` each pass of the checkout is paired with a pass of the
frozen reference copy of the product in `reference/`: two workers, one of
each, are set up back to back and take each op in turn, the reference first
on every other op.  The first pair of passes runs every op; pairs repeat
until `--seconds` is used up, and a later one leaves out the ops that would
end past it.  Each op's CPU time is reported as its ratio to the
reference's over the run, times the reference's CPU time for that op in
`reference/nominal.json`, so that a host which slows down, and slows both
workers alike, moves the figures far less.  The last stdout line reports
the end-to-end metrics.

With `--trace 1` whole passes of the checkout run twice, untraced and
traced, and the last line reports the per-layer metrics of the traced
passes.  The lines before the last print every metric by name with its
unit, and a `raw` JSON line with the per-pass and per-op figures, the
unscaled CPU times, wall times and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, fields_of, op_id  # noqa: E402

WORKER = HERE / "worker.py"
GOLDENS = HERE / "goldens.json"
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
NOMINAL = REFERENCE / "nominal.json"
SPANS_DIR = HERE / "out"
SETUP_SAMPLES = 7  # set-up pairs per run, from paired passes plus set-up-only pairs
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "instances_per_s": "1/s",
    "op_cpu_geomean_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_SPANS = {
    "fields.matmul": ("calls", "self_s"),
    "fields.rref": ("calls", "self_s"),
    "fields.nullspace": ("self_s",),
    "fields.rank_batched": ("calls", "self_s"),
    "fields.field_make": ("self_s",),
    "groups.construct": ("calls", "self_s"),
    "groups.conjugacy": ("self_s",),
    "groups.central_series": ("self_s",),
    "groups.subgroup": ("self_s",),
    "groups.central_coset": ("self_s",),
    "groups.subgroup_generated": ("calls", "self_s"),
    "catalog.build": ("calls", "self_s"),
    "algebra.product": ("calls", "self_s"),
    "algebra.mult_matrix": ("calls", "self_s"),
    "algebra.center": ("self_s",),
    "algebra.is_central": ("calls", "self_s"),
    "decision.decompose": ("self_s",),
    "decision.oracle": ("self_s",),
    "decision.socle": ("self_s",),
    "decision.verify": ("calls", "self_s"),
    "decision.witness": ("self_s",),
    "cli": ("self_s",),
}
PER_LAYER_COUNTS = (
    "fields.matmul.macs", "fields.rank_batched.matrices", "fields.gf_vec.calls",
    "fields.gf_scalar.calls", "groups.mul.calls", "groups.element_order.calls",
    "decision.oracle.enumerated", "decision.oracle.rank_tests", "decision.socle.kernel_steps",
)
PER_LAYER_RATIOS = {
    "decision.oracle.tested_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}
GROUPS_SELF = ("catalog.build", "decision.decompose")  # counted with every groups.* span


def per_layer_units() -> dict[str, str]:
    units = {}
    for name, stats in PER_LAYER_SPANS.items():
        for stat in stats:
            units[f"{name}.{stat}"] = "count" if stat == "calls" else "s"
    units.update({k: "count" for k in PER_LAYER_COUNTS})
    units.update(PER_LAYER_RATIOS)
    return units


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing sources, worker crash)."""


class Worker:
    """A live worker process (`worker.py`), set up and waiting for ops."""

    def __init__(self, src: Path, fields: list[str], trace: bool, t_end: float, env: dict):
        left = t_end - time.perf_counter()
        if left <= 1:
            raise BenchError("out of time before the next pass")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(src)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        )
        self.timer = threading.Timer(left, self.proc.kill)  # the run's deadline
        self.timer.start()
        self.argv: list[list[str]] = []
        self.results: list[dict] = []
        try:
            self.setup = self.ask({"fields": fields, "trace": trace})
            if self.setup["warmup_exit"] != 0:
                raise BenchError(f"warm-up op exited {self.setup['warmup_exit']} in {src}")
        except BaseException:
            self.close()
            raise
        self.setup["setup_wall_s"] = time.perf_counter() - self.start

    def ask(self, req: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except OSError:
            line = ""
        if not line:
            self.close()
            raise BenchError(f"worker failed ({self.proc.returncode}) or ran past the run's "
                             f"deadline: {self.proc.stderr.read().strip()[-2000:]}")
        return json.loads(line)

    def run(self, argv: list[str]) -> None:
        self.results.append(self.ask({"op": argv}))
        self.argv.append(argv)

    def finish(self, spans: Path | None = None) -> dict:
        """End the pass: set-up, the ops run, their results and the
        worker's closing report."""
        try:
            end = self.ask({"end": True, "spans": str(spans) if spans else None})
            self.proc.wait(timeout=max(1.0, self.t_left()))
        finally:
            self.close()
        return {**self.setup, **end, "argv": self.argv, "ops": self.results,
                "pass_wall_s": time.perf_counter() - self.start}

    def t_left(self) -> float:
        return self.timer.interval - (time.perf_counter() - self.start)

    def close(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for fh in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            try:
                fh.close()
            except OSError:
                pass


class Runner:
    """Runs worker passes against one deadline."""

    def __init__(self, deadline_s: float = DEADLINE_S):
        self.t_end = time.perf_counter() + deadline_s
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def run_pass(self, ops: list[list[str]], fields: list[str], trace: bool,
                 spans: Path | None = None, src: Path = SRC) -> dict:
        worker = Worker(src, fields, trace, self.t_end, self.env)
        try:
            for argv in ops:
                worker.run(argv)
        except BaseException:
            worker.close()
            raise
        return worker.finish(spans)

    def run_paired(self, ops: list[list[str]], fields: list[str], ref_first: bool,
                   stop_at: float | None = None, pair_wall: dict | None = None) -> tuple[dict, dict]:
        """A pass of the checkout and one of the reference, interleaved op by
        op; with no ops, a set-up pair.  Returns (checkout, reference).
        With `stop_at`, an op is left out if its pair, at its last wall time
        in `pair_wall`, would end after then."""
        order = [REFERENCE, SRC] if ref_first else [SRC, REFERENCE]
        workers: dict[Path, Worker] = {}
        try:
            for src in order:
                workers[src] = Worker(src, fields, False, self.t_end, self.env)
            for argv in ops:
                t0 = time.perf_counter()
                if stop_at is not None and t0 + pair_wall.get(op_id(argv), 0.0) > stop_at:
                    continue
                n = len(workers[SRC].argv)
                for src in (order if n % 2 == 0 else order[::-1]):
                    workers[src].run(argv)
                if pair_wall is not None:
                    pair_wall[op_id(argv)] = time.perf_counter() - t0
            docs = {src: workers[src].finish() for src in order}
        finally:
            for worker in workers.values():
                worker.close()
        return docs[SRC], docs[REFERENCE]


def check_ops(ops: list[list[str]], results: list[dict], goldens: dict) -> list[str]:
    """Failures: a crash, or an exit code or stdout digest unlike the golden."""
    bad = []
    for argv, res in zip(ops, results):
        key = op_id(argv)
        want = goldens.get(key)
        if want is None:
            bad.append(f"{key}: no golden")
        elif res["exception"] is not None:
            bad.append(f"{key}: {res['exception']}")
        elif res["exit"] != want["exit"]:
            bad.append(f"{key}: exit {res['exit']}, expected {want['exit']}")
        elif res["sha256"] != want["sha256"]:
            bad.append(f"{key}: stdout digest differs from the golden")
    return bad


def run_workload(ops: list[list[str]], goldens: dict, seed: int, seconds: float,
                 trace: bool, label: str) -> dict:
    """Run passes for `seconds`; returns the result line's fields plus raw data."""
    runner = Runner()
    fields = fields_of(ops)
    rng = random.Random(seed)
    passes, refs, traced, setups = [], [], [], []
    pair_wall: dict[str, float] = {}  # each op's last pair, in wall seconds
    failures: list[str] = []
    start, est = time.perf_counter(), 0.0
    while not passes or time.perf_counter() - start + est <= seconds:
        order = list(range(len(ops)))
        rng.shuffle(order)
        shuffled = [ops[i] for i in order]
        t0 = time.perf_counter()
        if trace:
            doc = runner.run_pass(shuffled, fields, trace=False)
            SPANS_DIR.mkdir(exist_ok=True)
            spans = SPANS_DIR / f"spans-{label}-seed{seed}-pass{len(traced)}.jsonl"
            tdoc = runner.run_pass(shuffled, fields, trace=True, spans=spans)
            failures += check_ops(tdoc["argv"], tdoc["ops"], goldens)
            traced.append(tdoc)
        else:
            doc, ref = runner.run_paired(shuffled, fields, ref_first=len(passes) % 2 == 1,
                                         stop_at=start + seconds if passes else None,
                                         pair_wall=pair_wall)
            refs.append(ref)
            setups.append((doc, ref))
            # set-up samples spread over the run, like the passes
            setups.append(runner.run_paired([], fields, ref_first=len(passes) % 2 == 0))
        failures += check_ops(doc["argv"], doc["ops"], goldens)
        passes.append(doc)
        est = time.perf_counter() - t0
        if not trace:
            # what a pair of passes costs besides its ops, plus the cheapest op
            est += min(pair_wall.values()) - sum(pair_wall[op_id(a)] for a in doc["argv"])
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(runner.run_paired([], fields, ref_first=len(setups) % 2 == 1))

    attempted = sum(len(d["ops"]) for d in passes + traced)
    raw = {
        "workload": label, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(passes), "traced_passes": len(traced), "ops_per_pass": len(ops),
        "pass_ops": [len(d["ops"]) for d in passes],
        "fail_ratio": len(failures) / attempted, "failures": failures[:20],
        "pass_cpu_s": [sum(o["cpu_s"] for o in d["ops"]) for d in passes],
        "pass_wall_s": [d["pass_wall_s"] for d in passes],
        "op_wall_s_sum": [sum(o["wall_s"] for o in d["ops"]) for d in passes],
        "peak_rss_mb": [d["maxrss_kb"] / 1024 for d in passes],
        "op_cpu_s": op_cpu_times(passes),
        "env": passes[-1]["env"],
    }
    if trace:
        metrics, units = per_layer_metrics(passes, traced), per_layer_units()
        raw["shares"] = layer_shares(traced)
    else:
        metrics, units = end_to_end_metrics(passes, refs, setups, fields, raw), END_TO_END
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "raw": raw,
    }


def op_cpu_times(passes: list[dict]) -> dict[str, list[float]]:
    """Each op's CPU time in each pass that ran it, keyed by op id."""
    out: dict[str, list[float]] = {}
    for d in passes:
        for argv, res in zip(d["argv"], d["ops"]):
            out.setdefault(op_id(argv), []).append(res["cpu_s"])
    return out


def end_to_end_metrics(passes: list[dict], refs: list[dict], setups: list[tuple[dict, dict]],
                       fields: list[str], raw: dict) -> dict[str, float]:
    """Each op's CPU time is its ratio to the reference's over the pairs that
    ran it, times the reference's recorded CPU time for it; the rate and the
    typical op are taken over those, one per op.  Set-up is scaled alike."""
    ref_goldens = load_goldens()  # not the caller's, which a self-test tampers with
    for ref in refs:
        bad = check_ops(ref["argv"], ref["ops"], ref_goldens)
        if bad:
            raise BenchError(f"the reference copy does not reproduce its goldens: {bad[0]}")
    cur, ref = op_cpu_times(passes), op_cpu_times(refs)
    with open(NOMINAL) as fh:
        nominal = json.load(fh)
    try:
        nom = {k: nominal["op_cpu_s"][k] for k in cur}
        nom_setup = nominal["setup_s"][",".join(fields)]
    except KeyError as exc:
        raise BenchError(f"no nominal CPU time in {NOMINAL.name} for {exc}") from None
    ratio = {k: sum(cur[k]) / sum(ref[k]) for k in cur}
    scaled = [nom[k] * ratio[k] for k in cur]
    unscaled = [statistics.fmean(v) for v in cur.values()]
    ops_run = [o for d in passes for o in d["ops"]]
    completed = sum(o["exception"] is None for o in ops_run) / len(ops_run)
    setup_ratio = statistics.median(c["setup_cpu_s"] / r["setup_cpu_s"] for c, r in setups)
    raw.update({
        "ref_op_cpu_s": ref,
        "op_cpu_ratio": ratio,
        "setup_cpu_s": [c["setup_cpu_s"] for c, _ in setups],
        "ref_setup_cpu_s": [r["setup_cpu_s"] for _, r in setups],
        "setup_wall_s": [c["setup_wall_s"] for c, _ in setups],
        "unscaled": {
            "instances_per_s": completed * len(unscaled) / sum(unscaled),
            "op_cpu_geomean_ms": 1000 * statistics.geometric_mean(unscaled),
            "setup_s": statistics.median(c["setup_cpu_s"] for c, _ in setups),
        },
    })
    return {
        "instances_per_s": completed * len(scaled) / sum(scaled),
        "op_cpu_geomean_ms": 1000 * statistics.geometric_mean(scaled),
        "peak_rss_mb": statistics.median(d["maxrss_kb"] / 1024 for d in passes
                                         if len(d["ops"]) == raw["ops_per_pass"]),
        "setup_s": setup_ratio * nom_setup,
    }


def per_layer_metrics(passes: list[dict], traced: list[dict]) -> dict[str, float]:
    n = len(traced)
    out: dict[str, float] = {}
    for name, stats in PER_LAYER_SPANS.items():
        for stat in stats:
            out[f"{name}.{stat}"] = sum(d["layers"].get(name, {}).get(stat, 0) for d in traced) / n
    # fields are built during set-up, so field_make counts set-up spans too
    out["fields.field_make.self_s"] += sum(
        d["setup_layers"].get("fields.field_make", {}).get("self_s", 0) for d in traced) / n
    out.update({k: sum(d["counts"].get(k, 0) for d in traced) / n for k in PER_LAYER_COUNTS})
    enumerated = out["decision.oracle.enumerated"]
    out["decision.oracle.tested_ratio"] = out["decision.oracle.rank_tests"] / enumerated if enumerated else 0.0
    traced_cpu = sum(o["cpu_s"] for d in traced for o in d["ops"])
    plain_cpu = sum(o["cpu_s"] for d in passes for o in d["ops"])
    out["trace.overhead_ratio"] = traced_cpu / plain_cpu
    return out


def layer_shares(traced: list[dict]) -> dict[str, float]:
    """The dominant-layer predictions, as shares of the traced op CPU time:
    oracle and socle spans with their children, and the self time of the
    groups layer with catalog construction and the Sylow split."""
    traced_cpu = sum(o["cpu_s"] for d in traced for o in d["ops"])

    def layer_sum(pred, stat):
        return sum(v[stat] for d in traced for k, v in d["layers"].items() if pred(k))

    return {
        "share.oracle_total": layer_sum(lambda k: k == "decision.oracle", "total_s") / traced_cpu,
        "share.socle_total": layer_sum(lambda k: k == "decision.socle", "total_s") / traced_cpu,
        "share.groups_self": layer_sum(
            lambda k: k.startswith("groups.") or k in GROUPS_SELF, "self_s") / traced_cpu,
    }


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def print_result(res: dict) -> None:
    raw = res["raw"]
    print(f"# {raw['workload']}: {raw['passes']} passes of {raw['ops_per_pass']} ops"
          + (f", {raw['traced_passes']} traced" if raw["trace"] else
             f", {len(raw['setup_cpu_s'])} set-up samples")
          + f", seed {raw['seed']}")
    for name, m in res["metrics"].items():
        print(f"{name:34} {m['value']:.6g} {m['unit']}")
    for name, v in raw.get("shares", {}).items():
        print(f"{name:34} {v:.6g} fraction")
    print(f"{'fail_ratio':34} {raw['fail_ratio']:.6g} fraction "
          f"({res['failed']} of {res['attempted']} ops)")
    for line in raw["failures"]:
        print(f"FAILED {line}")
    print("raw " + json.dumps(raw, sort_keys=True))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cealg" / "cli.py").is_file():
        print(f"error: no cealg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    goldens = load_goldens()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            res = run_workload(WORKLOADS[name], goldens, args.seed, args.seconds,
                               bool(args.trace), name)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        print_result(res)
        ok = ok and res["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
