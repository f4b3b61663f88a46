"""One pass of a workload in a fresh interpreter, one op per request.

    python3 perfbench/worker.py [SRC]

SRC is the directory that holds the `cealg` package: `src` of the checkout
by default, or the frozen reference copy `perfbench/reference`.  The worker
reads JSON lines on stdin and answers each with one JSON line on stdout:

    {"fields": ["2", "5^2", ...], "trace": bool}   set up; the first request
    {"op": argv}                                   run one op
    {"end": true, "spans": path or null}           report the pass and exit

Set-up (interpreter start, `import cealg.cli`, building the fields, one
warm-up op) is timed as the process CPU time when its answer is written.
Each op runs cold: every `lru_cache` in the package except `field_make` is
cleared before it, so no group, algebra or cached analysis survives from an
earlier op, and the freed heap is handed back to the system, so an op's
peak RSS does not depend on the ops before it.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)
# must precede the first numpy import, which happens with cealg's
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WARMUP = ["check", "--group", "C2", "--field", "2", "--format", "json"]


def _import_cealg(src: Path):
    if not (src / "cealg" / "cli.py").is_file():
        raise SystemExit(f"no cealg sources under {src}")
    sys.path.insert(0, str(src))
    import cealg
    from cealg import algebra, catalog, cli, decision, fields, groups

    if Path(cealg.__file__).resolve().parent != src / "cealg":
        raise SystemExit(f"imported cealg from {cealg.__file__}, not from {src}")
    return {"cealg": cealg, "fields": fields, "groups": groups, "catalog": catalog,
            "algebra": algebra, "decision": decision, "cli": cli}


def _heap_trimmer():
    """glibc's malloc_trim(0), or a no-op where it is missing."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    return lambda: trim(0)


def _cache_clearers(modules: dict) -> list:
    keep = modules["fields"].field_make
    out = []
    for mod in modules.values():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and obj is not keep and obj.cache_clear not in out:
                out.append(obj.cache_clear)
    return out


def run_op(cli, argv: list[str]) -> dict:
    """Run one CLI command; CPU and wall time, exit code, stdout digest."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse refusals exit 2 through SystemExit
        code = exc.code if isinstance(exc.code, int) else 2
        exception = f"SystemExit({exc.code!r})"
    except Exception as exc:  # noqa: BLE001 - any crash is an op failure, not a benchmark crash
        code = None
        exception = f"{type(exc).__name__}: {exc}"
    cpu, wall = time.process_time() - c0, time.perf_counter() - w0
    return {
        "exit": code,
        "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "cpu_s": cpu,
        "wall_s": wall,
        "exception": exception,
        "stderr": err.getvalue()[-500:],
    }


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main() -> int:
    src = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else ROOT / "src"
    out = sys.stdout

    def answer(doc: dict) -> None:
        out.write(json.dumps(doc) + "\n")
        out.flush()

    req = json.loads(sys.stdin.readline())
    modules = _import_cealg(src)
    cli = modules["cli"]
    clearers = _cache_clearers(modules)
    trim_heap = _heap_trimmer()
    tracer = None
    if req["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(modules)
    for spec in req["fields"]:
        cli.parse_field(spec)
    warm = run_op(cli, WARMUP)
    if tracer is not None:
        tracer.counts.clear()  # counts are per pass; set-up keeps only its spans
    answer({"setup_cpu_s": time.process_time(), "warmup_exit": warm["exit"],
            "env": environment()})
    op_ids = []
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("end"):
            break
        for clear in clearers:
            clear()
        gc.collect()
        trim_heap()
        if tracer is not None:
            tracer.op = len(op_ids)
        op_ids.append(shlex.join(req["op"]))
        answer(run_op(cli, req["op"]))
    else:
        return 1  # stdin closed without an end request
    doc = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        doc["layers"] = tracer.layer_stats(setup=False)
        doc["setup_layers"] = tracer.layer_stats(setup=True)
        doc["counts"] = dict(tracer.counts)
        if req.get("spans"):
            tracer.write_spans(req["spans"], op_ids)
    answer(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
