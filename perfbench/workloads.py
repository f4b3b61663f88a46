"""The benchmark's workloads: fixed lists of cold `cealg` CLI commands.

Each op is one argv list for `cealg.cli.main`, always with `--format json`
so its stdout can be checked byte for byte against `goldens.json`.  The op
lists are written out here rather than derived from the catalog at run
time, so a later change to the catalog cannot silently change a workload.
"""

from __future__ import annotations

import shlex

# catalog.standard_entries() of order <= 16 with their orders, except five
# of the nine non-abelian groups of order 16, whose full oracle scans take
# over a second each.  Two of class 3 (D16, QD16) and two of class 2 (M16,
# C4:C4) stay: with the GF(4) scan they are the five slowest of the 41 ops
# and lead instances_per_s.
_STANDARD_SMALL = [
    ("C1", 1), ("C2", 2), ("C3", 3), ("C4", 4), ("C6", 6), ("C8", 8),
    ("C9", 9), ("C12", 12), ("C16", 16),
    ("E2^2", 4), ("E2^3", 8), ("E3^2", 9),
    ("S3", 6), ("D8", 8), ("D12", 12), ("Q8", 8),
] + [(f"order16:{i}", 16) for i in (1, 2, 3, 4, 5, 6, 7, 9, 13)]

# the CLI's default oracle budget (decision.DEFAULT_BUDGET)
_ORACLE_BUDGET = 1 << 20


def _check(group: str, field: str, *extra: str) -> list[str]:
    return ["check", "--group", group, "--field", field, *extra, "--format", "json"]


def _oracle_sweep() -> list[list[str]]:
    ops = [
        _check(spec, str(p), "--crossvalidate")
        for spec, n in _STANDARD_SMALL
        for p in (2, 3)
        if p**n <= _ORACLE_BUDGET
    ]
    # the per-candidate scan over GF(4): one pair of ranks per tested candidate
    ops.append(_check("D8", "2^2", "--method", "oracle"))
    return ops


def _socle_chain() -> list[list[str]]:
    cases = [
        ("D128", "2"), ("D256", "2"), ("Q128", "2"), ("order16:7", "2"),
        ("H7", "7"), ("H5 x C5", "5"), ("prop29:3", "3"),
        ("H5", "5^2"), ("D64", "2^2"), ("prop29:2", "2^2"),
    ]
    return [_check(g, f, "--method", "socle") for g, f in cases]


def _large_groups() -> list[list[str]]:
    auto = [
        ("C1024", "2"), ("H11", "11"), ("H7 x C9", "7"), ("Q8 x C125", "2"),
        ("S3 x C64", "2"), ("D512", "3"), ("prop29:3", "3"),
    ]
    ops = [_check(g, f) for g, f in auto]
    ops.append(_check("prop29:3", "3", "--method", "structural"))
    ops += [["groups", "info", g, "--format", "json"] for g in ("H11", "prop29:3", "D512")]
    return ops


WORKLOADS: dict[str, list[list[str]]] = {
    "oracle-sweep": _oracle_sweep(),
    "socle-chain": _socle_chain(),
    "large-groups": _large_groups(),
}


# one cheap op from each workload, for the benchmark's self-tests
SMOKE: list[list[str]] = [
    _check("D8", "2", "--crossvalidate"),
    _check("order16:7", "2", "--method", "socle"),
    ["groups", "info", "prop29:3", "--format", "json"],
]


def op_id(argv: list[str]) -> str:
    """The op's key in goldens.json: its argv as one shell-quoted line."""
    return shlex.join(argv)


def fields_of(ops: list[list[str]]) -> list[str]:
    """The distinct --field specs the ops use, in first-use order."""
    out: list[str] = []
    for argv in ops:
        if "--field" in argv:
            spec = argv[argv.index("--field") + 1]
            if spec not in out:
                out.append(spec)
    return out
