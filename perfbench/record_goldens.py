"""Write goldens.json: every op's exit code and the SHA-256 of its stdout.

    python3 perfbench/record_goldens.py

The goldens are the reference outputs of the commit that defined the
benchmark; JSON reports are byte-deterministic without --timings, so a
later commit must reproduce them exactly.  Re-record only when an output
change is intended, and say so with the change.
"""

from __future__ import annotations

import json
import sys

from run import GOLDENS, Runner
from workloads import WORKLOADS, fields_of, op_id


def main() -> int:
    runner = Runner(deadline_s=900)
    goldens = {}
    for ops in WORKLOADS.values():
        doc = runner.run_pass(ops, fields_of(ops), trace=False)
        for argv, res in zip(ops, doc["ops"]):
            if res["exception"] is not None or res["exit"] not in (0, 1):
                print(f"refusing to record {op_id(argv)}: exit {res['exit']}, "
                      f"{res['exception'] or res['stderr']}", file=sys.stderr)
                return 1
            goldens[op_id(argv)] = {"exit": res["exit"], "sha256": res["sha256"]}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(goldens)} ops in {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
