"""Command-line front end.

Subcommands:

* groups list / groups info <spec>
* check --group <spec> --field <p | p^k | 0> [--method ...] [--crossvalidate]
* reproduce <thm11 | remark31 | prop29>

Exit codes: 0 = centrally essential, 1 = not centrally essential,
2 = refusal or error (any unexpected exception, out of memory included, is
reported on one `error:` line), 3 = a reproduction assertion failed.  Identical
configurations produce byte-identical reports, text or JSON; timings
appear only with --timings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import catalog
from .decision import (
    ESSENTIAL,
    NOT_ESSENTIAL,
    BudgetError,
    CrossValidationError,
    DecisionReport,
    DEFAULT_BUDGET,
    StructuralUndecidedError,
    decide,
)
from .fields import GF, field_make
from .groups import ORDER_CAP, FiniteGroup, group_from_generators

EXIT_ESSENTIAL = 0
EXIT_NOT_ESSENTIAL = 1
EXIT_ERROR = 2
EXIT_MISMATCH = 3


def parse_field(spec: str) -> GF | None:
    """"p" or "p^k" for a finite field; "0" selects characteristic zero."""
    spec = spec.strip()
    if spec == "0":
        return None
    p_s, caret, k_s = spec.partition("^")
    try:
        p, k = int(p_s), int(k_s) if caret else 1
    except ValueError:
        raise ValueError(f'field spec must be "p", "p^k" or "0", got {spec!r}') from None
    return field_make(p, k)


def load_group(spec: str) -> FiniteGroup:
    """A catalog spec, or a path to a JSON group description
    {"name": ..., "degree": ..., "generators": [[image list], ...]}.

    A spec is a path when it ends in .json or contains a path separator, so
    a file in the working directory cannot shadow a catalog name.
    """
    if not (spec.endswith(".json") or "/" in spec or os.sep in spec):
        return catalog.get(spec)
    with open(spec) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a group file must hold a JSON object")
    degree, gens = data.get("degree"), data.get("generators")
    if type(degree) is not int or not 1 <= degree <= ORDER_CAP:
        raise ValueError(f"degree must be an integer in 1..{ORDER_CAP}")
    if not isinstance(gens, list) or not all(
        isinstance(g, list) and all(type(x) is int for x in g) for g in gens
    ):
        raise ValueError("generators must be a list of lists of integers")
    if any(len(g) != degree for g in gens):
        raise ValueError(f"every generator must have length {degree}")
    return group_from_generators(degree, gens, str(data.get("name", os.path.basename(spec))))


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _field_label(field: tuple[int, int]) -> str:
    p, k = field
    return f"GF({p}^{k})" if k > 1 else f"GF({p})"


def _report_text(r: DecisionReport, include_timings: bool) -> str:
    lines = [
        f"group    {r.group_name} (order {r.group_order})",
        "field    " + ("characteristic 0" if r.field is None else _field_label(r.field)),
        f"method   {r.method}",
        f"verdict  {r.verdict}",
        f"reason   {r.reason}",
    ]
    for name, v in r.cross_checks:
        lines.append(f"agrees   {name}: {v}")
    for w in r.witnesses:
        lines.append(f"witness  [{w['kind']}] " + " + ".join(
            f"{v}*{lab}" for lab, v in w["element"]))
    if include_timings:
        for k, v in sorted(r.timings.items()):
            lines.append(f"time     {k}: {v * 1000:.1f} ms")
    return "\n".join(lines) + "\n"


def _report_json(r: DecisionReport, include_timings: bool) -> str:
    return json.dumps(r.to_dict(include_timings=include_timings),
                      sort_keys=True, indent=2) + "\n"


def cmd_groups(args) -> int:
    if args.action == "list":
        for line in catalog.names():
            print(line)
        return 0
    g = load_group(args.spec)
    series = g.upper_central_series
    star, _ = g.central_coset_condition()
    info = {
        "name": g.name,
        "order": g.n,
        "center_size": len(g.center),
        "class_sizes": sorted(g.conjugacy.sizes),
        "z_chain": [len(s) for s in series.subgroups],
        "nilpotency_class": series.nilpotency_class,
        "commutator_subgroup_size": len(g.commutator_subgroup),
        "abelian": g.is_abelian,
        "central_coset_condition": star,
        "z2_self_centralizing": g.z2_self_centralizing(),
    }
    if args.format == "json":
        print(json.dumps(info, sort_keys=True, indent=2))
    else:
        for k, v in info.items():
            print(f"{k:26} {v}")
    return 0


def cmd_check(args) -> int:
    fld = parse_field(args.field)
    group = load_group(args.group)
    method = args.method
    if args.crossvalidate:
        if fld is None or method != "auto":
            raise ValueError("--crossvalidate needs --method auto and a finite field")
        method = "crossvalidate"

    t0 = time.perf_counter()
    report = decide(group, fld, method, args.budget)
    report.timings["total"] = time.perf_counter() - t0

    text = (_report_json(report, args.timings) if args.format == "json"
            else _report_text(report, args.timings))
    _emit(text, args.output)
    return EXIT_ESSENTIAL if report.verdict == ESSENTIAL else EXIT_NOT_ESSENTIAL


def _reproduce_remark31(fmt: str) -> tuple[int, str]:
    f2 = field_make(2)
    rows = []
    bad = []
    for g in catalog.order16_all():
        r = decide(g, f2, "crossvalidate")
        rows.append(r)
        if r.verdict != ESSENTIAL:
            bad.append(f"{g.name}: verdict {r.verdict}")
    socle_decided = {r.group_name for r in rows if r.method == "socle"}
    class3 = {g.name for g in catalog.order16_all() if g.nilpotency_class == 3}
    if socle_decided != class3:
        bad.append(f"socle path used for {sorted(socle_decided)}, expected {sorted(class3)}")
    return (EXIT_MISMATCH if bad else 0), _format_rows(rows, fmt, bad)


def _reproduce_prop29(fmt: str, include_p5: bool) -> tuple[int, str]:
    rows = []
    bad = []
    ps = [2, 3] + ([5] if include_p5 else [])
    for p in ps:
        g = catalog.p5_class3_group(p)
        fld = field_make(p)
        r = decide(g, fld, "structural" if p == 5 else "auto")
        rows.append(r)
        if r.verdict != NOT_ESSENTIAL:
            bad.append(f"{g.name}: verdict {r.verdict}")
        if not any(w["kind"] == "center_sum_translate" for w in r.witnesses):
            bad.append(f"{g.name}: missing the center-sum witness")
    return (EXIT_MISMATCH if bad else 0), _format_rows(rows, fmt, bad)


def _reproduce_thm11(fmt: str, budget: int) -> tuple[int, str]:
    rows = []
    bad = []
    refused = []  # (candidates, name, p) of the instances the oracle refused
    for name, g in catalog.standard_entries():
        if g.n > 16:
            continue
        for fld in (field_make(2), field_make(3)):
            try:
                oracle = decide(g, fld, "oracle", budget)
            except BudgetError:
                refused.append((fld.order**g.n, name, fld.p))
                continue
            r = decide(g, fld)
            r.cross_checks.append(("oracle", oracle.verdict))
            rows.append(r)
            if oracle.verdict != r.verdict:
                bad.append(
                    f"{name} over GF({fld.p}): decide={r.verdict} oracle={oracle.verdict}"
                )
    if not rows:
        least, name, p = min(refused)
        raise ValueError(f"budget {budget} admits no thm11 instance; the smallest, "
                         f"{name} over GF({p}), needs a budget of {least}")
    return (EXIT_MISMATCH if bad else 0), _format_rows(rows, fmt, bad)


def _format_rows(rows: list[DecisionReport], fmt: str, bad: list[str]) -> str:
    if fmt == "json":
        doc = {"rows": [r.to_dict() for r in rows], "failures": bad}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    widths = (24, 7, 8, 12, 28)
    header = ("group", "order", "field", "method", "reason")
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)) + "  verdict"]
    for r in rows:
        fld = "char0" if r.field is None else _field_label(r.field)
        cells = (r.group_name[:24], str(r.group_order), fld, r.method, r.reason[:28])
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)) + f"  {r.verdict}")
    if bad:
        lines.append("FAILED:")
        lines.extend(f"  {b}" for b in bad)
    else:
        lines.append("all assertions hold")
    return "\n".join(lines) + "\n"


def cmd_reproduce(args) -> int:
    if args.target == "remark31":
        code, out = _reproduce_remark31(args.format)
    elif args.target == "prop29":
        code, out = _reproduce_prop29(args.format, args.with_p5)
    else:
        code, out = _reproduce_thm11(args.format, args.budget)
    _emit(out, args.output)
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cealg",
        description="Build finite groups and decide whether their modular "
                    "group algebras are centrally essential.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("groups", help="list catalog groups or inspect one")
    g.add_argument("action", choices=["list", "info"])
    g.add_argument("spec", nargs="?", help="group spec (required for info)")
    g.add_argument("--format", choices=["text", "json"], default="text")

    c = sub.add_parser("check", help="decide one (group, field) instance")
    c.add_argument("--group", required=True, help="catalog spec or JSON file path")
    c.add_argument("--field", required=True, help='"p", "p^k", or "0" for characteristic zero')
    c.add_argument("--method", choices=["auto", "oracle", "socle", "structural", "char0"],
                   default="auto")
    c.add_argument("--crossvalidate", action="store_true",
                   help="run redundant deciders and assert agreement "
                        "(with --method auto over a finite field)")
    c.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="oracle enumeration budget (total candidate count)")
    c.add_argument("--format", choices=["text", "json"], default="text")
    c.add_argument("--timings", action="store_true",
                   help="include per-phase timings in the report, text or JSON")
    c.add_argument("--output", help="write the report to this path instead of stdout")

    r = sub.add_parser("reproduce", help="re-run a published computation end to end")
    r.add_argument("target", choices=["thm11", "remark31", "prop29"])
    r.add_argument("--with-p5", action="store_true",
                   help="include the order-5^5 instance (structural route)")
    r.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    r.add_argument("--format", choices=["text", "json"], default="text")
    r.add_argument("--output", help="write the table to this path instead of stdout")
    return ap


# one parser per process; it holds no handlers, so main looks each one up
# when it is called
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command == "groups" and args.action == "info" and not args.spec:
        _PARSER.error("groups info requires a group spec")
    try:
        handler = {"groups": cmd_groups, "check": cmd_check, "reproduce": cmd_reproduce}
        return handler[args.command](args)
    except (ValueError, KeyError, OSError, BudgetError, StructuralUndecidedError,
            ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except CrossValidationError as exc:
        print(f"cross-validation failure: {exc}", file=sys.stderr)
        return EXIT_MISMATCH if args.command == "reproduce" else EXIT_ERROR
    except Exception as exc:
        # exit 1 is a verdict, so a crash (MemoryError included) must never
        # fall through to it
        msg = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}" + (f": {msg}" if msg else ""), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
