"""Write reference/nominal.json: the reference copy's CPU time per op and set-up.

    python3 perfbench/record_nominal.py

`reference/` is a frozen copy of the product's sources.  An untraced run
reports each op's CPU time as its ratio to the reference's, measured beside
it, times the figure recorded here; set-up likewise, per set of fields.
Each figure is the median over PASSES passes of the reference.  Re-record
only together with a new reference copy, and say so with the change: it
rescales every end-to-end timing.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from run import NOMINAL, REFERENCE, Runner, check_ops, load_goldens
from workloads import SMOKE, WORKLOADS, fields_of, op_id

PASSES = 5


def main() -> int:
    runner = Runner(deadline_s=3600)
    goldens = load_goldens()
    op_cpu: dict[str, list[float]] = defaultdict(list)
    setup: dict[str, list[float]] = defaultdict(list)
    for ops in [*WORKLOADS.values(), SMOKE]:
        fields = fields_of(ops)
        for _ in range(PASSES):
            doc = runner.run_pass(ops, fields, trace=False, src=REFERENCE)
            bad = check_ops(ops, doc["ops"], goldens)
            if bad:
                print(f"refusing to record: {bad[0]}", file=sys.stderr)
                return 1
            for argv, res in zip(ops, doc["ops"]):
                op_cpu[op_id(argv)].append(res["cpu_s"])
            setup[",".join(fields)].append(doc["setup_cpu_s"])
    nominal = {
        "passes": PASSES,
        "setup_s": {k: round(statistics.median(v), 6) for k, v in sorted(setup.items())},
        "op_cpu_s": {k: round(statistics.median(v), 6) for k, v in sorted(op_cpu.items())},
    }
    NOMINAL.write_text(json.dumps(nominal, indent=1) + "\n")
    print(f"recorded {len(nominal['op_cpu_s'])} ops and {len(setup)} set-ups in {NOMINAL}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
