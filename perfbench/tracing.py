"""Per-layer tracing of `cealg`, done from outside the package.

`install` replaces public functions of each layer with wrappers that record
spans (name, parent span, op index, start, end) in memory, and counts for
hot scalar methods, which get no span.  A function is replaced in every
`cealg` module that looks it up under its name, not only where it is
defined, so `from .fields import rank_batched` callers are traced too.
`cached_property` analyses are rewrapped as `cached_property`, so they still
compute once per object.

Span clocks are thread CPU time: the product is single-threaded.  The self
time of a span is its duration minus the durations of its direct children.
Counting wrappers cost time that lands in the self time of the enclosing
span; `trace.overhead_ratio` reports the total cost of tracing.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# per-layer span names and the (module, qualified name) of what they wrap
SPANS = [
    ("fields.matmul", "fields", "Matrix.matmul"),
    ("fields.rref", "fields", "Matrix.rref"),
    ("fields.nullspace", "fields", "Matrix.nullspace"),
    ("fields.rank_batched", "fields", "rank_batched"),
    ("fields.field_make", "fields", "field_make"),
    ("groups.construct", "groups", "FiniteGroup.__init__"),
    ("groups.conjugacy", "groups", "FiniteGroup.conjugacy"),
    ("groups.central_series", "groups", "FiniteGroup.upper_central_series"),
    ("groups.subgroup", "groups", "FiniteGroup.subgroup"),
    ("groups.central_coset", "groups", "FiniteGroup.central_coset_condition"),
    ("groups.subgroup_generated", "groups", "FiniteGroup.subgroup_generated"),
    ("catalog.build", "catalog", "get"),
    ("algebra.product", "algebra", "GroupAlgebra._mul_arrays"),
    ("algebra.mult_matrix", "algebra", "GroupAlgebra.left_mult_matrix"),
    ("algebra.mult_matrix", "algebra", "GroupAlgebra.right_mult_matrix"),
    ("algebra.center", "algebra", "GroupAlgebra.center_basis"),
    ("algebra.center", "algebra", "GroupAlgebra.center_matrix"),
    ("algebra.is_central", "algebra", "GroupAlgebra.is_central"),
    ("decision.decompose", "decision", "decompose_p"),
    ("decision.oracle", "decision", "oracle_centrally_essential"),
    ("decision.socle", "decision", "socle_centrally_essential"),
    ("decision.verify", "decision", "candidate_admits_central_multiple"),
    ("decision.witness", "decision", "witness_not_ce"),
    ("cli", "cli", "main"),
]

# hot methods that are only counted
COUNTERS = [
    ("groups.mul.calls", "groups", "FiniteGroup.mul"),
    ("groups.element_order.calls", "groups", "FiniteGroup.element_order"),
] + [
    ("fields.gf_vec.calls", "fields", f"GF.{m}")
    for m in ("vadd", "vneg", "vsub", "vmul", "vscale", "vsum")
] + [
    ("fields.gf_scalar.calls", "fields", f"GF.{m}")
    for m in ("add", "neg", "mul", "inv", "pow")
]

# the oracle's candidate scans: marked as active, but not spans
ORACLE_SCANS = ("_oracle_scan_prime", "_oracle_scan_generic")


class Tracer:
    """In-memory spans and counts for one worker process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, op index, t0, t1, nested]
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.active: Counter = Counter()  # open spans and scans by name
        self.op = -1

    def span(self, name, fn, on_call=None):
        spans, stack, active, clock = self.spans, self.stack, self.active, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, active[name] > 0]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
                active[name] -= 1

        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def scope(self, name, fn):
        active = self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[name] -= 1

        return wrapper

    # -- counts taken from call arguments ------------------------------------

    def _on_matmul(self, a, b):
        self.counts["fields.matmul.macs"] += a.rows * a.cols * b.cols

    def _on_nullspace(self, m):
        if self.active["decision.socle"]:
            self.counts["decision.socle.kernel_steps"] += 1

    def _on_rank_batched(self, field, mats):
        self.counts["fields.rank_batched.matrices"] += mats.shape[0]
        if self.active["oracle.scan"]:
            # each tested candidate takes two batched ranks, of rC and of rC + C
            self.counts["decision.oracle.rank_tests"] += mats.shape[0] / 2

    def _on_verify(self, alg, coeffs):
        if self.active["oracle.scan"]:
            self.counts["decision.oracle.rank_tests"] += 1

    def _on_projective_mask(self, digits):
        self.counts["decision.oracle.enumerated"] += digits.shape[0]

    def _hooked(self, fn, on_call):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_call(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the layers; `modules` maps short names ("fields", ...) to the
        imported `cealg` modules."""
        hooks = {
            "fields.matmul": self._on_matmul,
            "fields.nullspace": self._on_nullspace,
            "fields.rank_batched": self._on_rank_batched,
            "decision.verify": self._on_verify,
        }
        for name, mod, qual in SPANS:
            _replace(modules, mod, qual, lambda fn, n=name: self.span(n, fn, hooks.get(n)))
        for key, mod, qual in COUNTERS:
            _replace(modules, mod, qual, lambda fn, k=key: self.counter(k, fn))
        for qual in ORACLE_SCANS:
            _replace(modules, "decision", qual, lambda fn: self.scope("oracle.scan", fn))
        _replace(modules, "decision", "_projective_mask",
                 lambda fn: self._hooked(fn, self._on_projective_mask))

    # -- results -----------------------------------------------------------------

    def layer_stats(self, setup: bool) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time, and total time of outermost spans,
        over the set-up spans (op index -1) or over the ops' spans."""
        child = [0.0] * len(self.spans)
        for name, parent, _op, t0, t1, _nested in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for i, (name, _parent, op, t0, t1, nested) in enumerate(self.spans):
            if (op < 0) != setup:
                continue
            s = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            s["calls"] += 1
            s["self_s"] += (t1 - t0) - child[i]
            if not nested:
                s["total_s"] += t1 - t0
        return out

    def write_spans(self, path: str, op_ids: list[str]) -> None:
        """One JSON header line naming the ops, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"ops": op_ids, "fields": ["name", "parent", "op", "t0", "t1"]}) + "\n")
            for name, parent, op, t0, t1, _nested in self.spans:
                fh.write(json.dumps([name, parent, op, t0, t1]) + "\n")


def _replace(modules: dict, mod: str, qual: str, make) -> None:
    """Replace the function `qual` of `modules[mod]` by `make(fn)` wherever a
    module of the package looks it up."""
    owner = modules[mod]
    if "." in qual:
        cls_name, attr = qual.split(".")
        cls = getattr(owner, cls_name)
        orig = cls.__dict__[attr]
        if isinstance(orig, functools.cached_property):
            new = functools.cached_property(make(orig.func))
            new.__set_name__(cls, attr)
        else:
            new = make(orig)
        setattr(cls, attr, new)
        return
    orig = getattr(owner, qual)
    new = make(orig)
    for m in modules.values():
        if getattr(m, qual, None) is orig:
            setattr(m, qual, new)
