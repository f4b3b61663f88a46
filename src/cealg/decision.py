"""Deciders for the centrally essential property of FG.

Three routes, kept deliberately independent so they can cross-check each
other:

* the exhaustive oracle enumerates projective representatives r and asks,
  per candidate, whether rC meets C away from zero (a pair of ranks);
* the socle decider, valid for p-groups over characteristic p, computes the
  annihilator of the radical of the center and tests containment in the
  center -- one nullspace chain plus one rank;
* the structural route applies the Sylow-decomposition reduction, the
  class <= 2 shortcut, and for class > 2 groups with the central-coset
  property a constructive non-essentiality witness g * (sum of the center),
  re-verified by independent linear algebra.

Every negative verdict carries a witness that is re-validated numerically,
never trusted from theory alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dfield

import numpy as np

from .algebra import AlgebraElement, GroupAlgebra
from .fields import GF, Matrix, rank_batched
from .groups import FiniteGroup

DEFAULT_BUDGET = 1 << 20
_CHUNK = 1 << 14

ESSENTIAL = "centrally_essential"
NOT_ESSENTIAL = "not_centrally_essential"


class BudgetError(RuntimeError):
    """The oracle refuses rather than approximate when over budget."""


class StructuralUndecidedError(RuntimeError):
    """The structural rules alone do not settle this instance."""


class CrossValidationError(RuntimeError):
    """Two deciders disagreed; indicates an implementation bug."""


@dataclass
class DecisionReport:
    group_name: str
    group_order: int
    field: tuple[int, int] | None  # (p, k); None for characteristic zero
    method: str  # oracle | socle | structural | char0
    verdict: str
    reason: str
    witnesses: list[dict] = dfield(default_factory=list)
    cross_checks: list[tuple[str, str]] = dfield(default_factory=list)
    timings: dict[str, float] = dfield(default_factory=dict)
    details: dict = dfield(default_factory=dict)

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "group": {"name": self.group_name, "order": self.group_order},
            "field": None if self.field is None else {"p": self.field[0], "k": self.field[1]},
            "method": self.method,
            "verdict": self.verdict,
            "reason": self.reason,
            "witnesses": self.witnesses,
            "cross_checks": [list(c) for c in self.cross_checks],
            "details": self.details,
        }
        if include_timings:
            out["timings"] = self.timings
        return out


@dataclass(frozen=True)
class PDecomposition:
    p: int
    p_part: tuple[int, ...]
    p_prime_part: tuple[int, ...]
    p_part_is_subgroup: bool
    parts_commute: bool
    h_abelian: bool

    @property
    def is_direct(self) -> bool:
        return self.p_part_is_subgroup and self.parts_commute and self.h_abelian


# -- candidate-level test shared by the oracle and the verifiers ---------------


def candidate_admits_central_multiple(
    alg: GroupAlgebra, coeffs: np.ndarray
) -> tuple[bool, dict]:
    """Whether some central c makes (r c) a nonzero central element.

    Works on the subspace rC spanned by r times each class sum:
    dim(rC /\\ C) = rank(rC) + dim C - rank(rC + C).
    """
    F = alg.field
    sums = alg.center_basis.class_sums
    rows = np.stack([alg._mul_arrays(coeffs, s.coeffs) for s in sums])
    m1 = Matrix(F, rows)
    r1 = m1.rank()
    zmat, _ = alg.center_matrix
    r2 = m1.vstack(zmat).rank()
    d = alg.center_basis.dim
    inter = r1 + d - r2
    return inter > 0, {"rank_rC": r1, "rank_sum": r2, "center_dim": d, "intersection_dim": inter}


def _enumeration_digits(lo: int, hi: int, q: int, n: int) -> np.ndarray:
    """Coefficient rows of candidates lo..hi-1 in the canonical order.

    Candidate m has coefficients the base-q digits of m, least significant
    digit = coefficient of basis element 0.
    """
    ms = np.arange(lo, hi, dtype=np.int64)
    qpow = q ** np.arange(n, dtype=np.int64)
    return (ms[:, None] // qpow[None, :]) % q


def _projective_mask(digits: np.ndarray) -> np.ndarray:
    """Keep rows whose first nonzero coefficient equals 1."""
    nz = digits != 0
    first = np.argmax(nz, axis=1)
    has = nz.any(axis=1)
    vals = digits[np.arange(digits.shape[0]), first]
    return has & (vals == 1)


@dataclass
class OracleOutcome:
    verdict: str
    counterexample: AlgebraElement | None
    artifact: dict


def oracle_centrally_essential(
    group: FiniteGroup, fld: GF, budget: int = DEFAULT_BUDGET
) -> OracleOutcome:
    """Exhaustive check of the defining property over projective
    representatives (first nonzero coefficient = 1); scaling a candidate by
    a nonzero field scalar does not change its fate.

    Refuses (BudgetError) when |F|^|G| exceeds the budget.
    """
    n, q = group.n, fld.order
    if q**n > budget:
        raise BudgetError(
            f"oracle needs {q}^{n} candidates, over the budget of {budget}"
        )
    alg = GroupAlgebra(group, fld)
    if group.is_abelian:
        # FG is commutative: c = 1 certifies every nonzero r directly
        return OracleOutcome(ESSENTIAL, None, {"candidates": 0, "commutative": True})
    total = q**n
    bad = _oracle_scan_generic(alg, total)
    if bad is None:
        # count projective representatives for the record
        checked = (total - 1) // (q - 1)
        return OracleOutcome(ESSENTIAL, None, {"candidates": checked})
    digits = _enumeration_digits(bad, bad + 1, q, n)[0]
    witness = alg.element(digits)
    ok, artifact = candidate_admits_central_multiple(alg, witness.coeffs)
    if ok:
        raise CrossValidationError("oracle counterexample failed re-verification")
    artifact["candidate_index"] = bad
    return OracleOutcome(NOT_ESSENTIAL, witness, artifact)


def _oracle_scan_generic(alg: GroupAlgebra, total: int) -> int | None:
    """Index of the first candidate r with rC /\\ C = 0, or None."""
    group, F = alg.group, alg.field
    n, q = group.n, F.order
    sums = alg.center_basis.class_sums
    # rms[h, K*n + m] = RM(Sigma_K)[h, m]: one product gives every r * Sigma_K
    rms = np.stack([alg.right_mult_matrix(s.coeffs).data for s in sums], axis=1)
    rms = rms.reshape(n, len(sums) * n)
    zmat, piv = alg.center_matrix
    nonpiv = [c for c in range(n) if c not in piv]
    for lo in range(1, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        digits = _enumeration_digits(lo, hi, q, n)
        mask = _projective_mask(digits)
        # r with nonzero augmentation admits c = Sigma_G: r Sigma_G is the
        # nonzero central element aug(r) * Sigma_G, so only augmentation-zero
        # candidates can fail
        mask &= F.vsum(digits, 1) == 0
        if not mask.any():
            continue
        cand = digits[mask]
        idx = np.nonzero(mask)[0] + lo
        a = F.vmatmul(cand, rms).reshape(-1, len(sums), n)  # rows r * Sigma_K
        red = F.vsub(a, F.vmatmul(a[:, :, piv], zmat.data))
        r_full = rank_batched(F, a)
        r_red = rank_batched(F, red[:, :, nonpiv] if nonpiv else red)
        bad = r_full == r_red  # empty intersection rC /\ C
        if bad.any():
            return int(idx[np.argmax(bad)])
    return None


# the scan's former prime-field name, kept because instrumentation looks
# the oracle scans up by name
_oracle_scan_prime = _oracle_scan_generic


# -- socle route ----------------------------------------------------------------


def _require_p_group(group: FiniteGroup, fld: GF) -> None:
    n, p = group.n, fld.p
    while n % p == 0:
        n //= p
    if n != 1:
        raise ValueError(
            f"{group.name} is not a {p}-group; the socle route only applies to "
            "p-groups over characteristic p"
        )


def radical_center_basis(group: FiniteGroup, fld: GF) -> list[AlgebraElement]:
    """Basis of the radical of C(FG) for a p-group over characteristic p:
    {z - 1 : z central, z != 1} plus the class sums of non-singleton classes.

    These are exactly the augmentation-zero central elements (non-singleton
    class sizes are powers of p), and in this local setting augmentation
    zero is nilpotency.
    """
    _require_p_group(group, fld)
    alg = GroupAlgebra(group, fld)
    out: list[AlgebraElement] = []
    neg_one = fld.neg(1)
    for z in group.center:
        if z == 0:
            continue
        c = np.zeros(group.n, dtype=np.int64)
        c[z] = 1
        c[0] = neg_one
        out.append(alg.element(c))
    for cls in group.conjugacy.classes:
        if len(cls) > 1:
            c = np.zeros(group.n, dtype=np.int64)
            c[list(cls)] = 1
            out.append(alg.element(c))
    return out


@dataclass
class SocleOutcome:
    verdict: str
    socle_dim: int
    excess: AlgebraElement | None
    artifact: dict


def socle_centrally_essential(group: FiniteGroup, fld: GF) -> SocleOutcome:
    """Essentiality via the socle: C is essential in FG iff every element
    annihilated by the radical of C already lies in C.

    The socle is computed as the intersection of the kernels of left
    multiplication by the radical basis, and the containment test is a
    single rank comparison against the class-sum basis.  A socle vector
    outside C is returned as a certified counterexample (its central
    multiples form the line it spans, which misses C).
    """
    _require_p_group(group, fld)
    alg = GroupAlgebra(group, fld)
    F, n = fld, group.n
    rad = radical_center_basis(group, fld)
    for b in rad:
        # the radical description rests on these being nilpotent; guard it
        if not b.power(n).is_zero():
            raise CrossValidationError("radical basis element is not nilpotent")
    # intersect kernels incrementally; columns of basis span the running space
    basis = np.eye(n, dtype=np.int64)
    for b in rad:
        lm = alg.left_mult_matrix(b.coeffs)
        restricted = lm.matmul(Matrix(F, basis))
        ker = restricted.nullspace()  # rows: coordinates w.r.t. current basis
        if ker.rows == 0:
            basis = np.zeros((n, 0), dtype=np.int64)
            break
        basis = Matrix(F, basis).matmul(Matrix(F, ker.data.T)).data
    socle_rows = Matrix(F, basis.T).rref()[0].data
    socle_rows = socle_rows[~(socle_rows == 0).all(axis=1)]
    socle_dim = socle_rows.shape[0]
    zmat, _ = alg.center_matrix
    d = alg.center_basis.dim
    stacked = Matrix(F, np.vstack([zmat.data, socle_rows]) if socle_dim else zmat.data)
    combined_rank = stacked.rank()
    if combined_rank == d:
        return SocleOutcome(ESSENTIAL, socle_dim, None, {"center_dim": d})
    # first socle basis vector outside the center is the counterexample
    excess = None
    for row in socle_rows:
        x = alg.element(row)
        if not alg.is_central(x):
            excess = x
            break
    if excess is None:
        raise CrossValidationError("socle exceeded the center but no excess vector found")
    for b in rad:
        if not (b * excess).is_zero():
            raise CrossValidationError("socle vector not annihilated by the radical")
    ok, artifact = candidate_admits_central_multiple(alg, excess.coeffs)
    if ok:
        raise CrossValidationError("socle excess vector failed the rank re-verification")
    artifact["socle_dim"] = socle_dim
    return SocleOutcome(NOT_ESSENTIAL, socle_dim, excess, artifact)


# -- structural route -------------------------------------------------------------


def decompose_p(group: FiniteGroup, p: int) -> PDecomposition:
    """Split elements into p-part and p'-part and test for a direct
    decomposition G = P x H with H abelian."""
    n, t = group.n, group.table
    # element orders divide n: a p-power order divides its p-part pk, an
    # order prime to p divides n / pk
    pk = _p_part(n, p)
    every = np.arange(n)
    p_mask = group.powers(every, pk) == 0
    p_part = np.flatnonzero(p_mask)
    if p_part.size == n:
        # a p-group: P is everything, H the identity alone
        return PDecomposition(p, tuple(range(n)), (0,), True, True, True)
    h_part = np.flatnonzero(group.powers(every, n // pk) == 0)
    closed = bool(p_mask[t[p_part[:, None], p_part]].all())
    commute = bool((t[p_part[:, None], h_part] == t[h_part[:, None], p_part].T).all())
    t_hh = t[h_part[:, None], h_part]
    h_ab = bool((t_hh == t_hh.T).all())
    return PDecomposition(
        p, tuple(p_part.tolist()), tuple(h_part.tolist()), closed, commute, h_ab
    )


def _p_part(n: int, p: int) -> int:
    """The largest power of p dividing n."""
    pk = 1
    while n % (pk * p) == 0:
        pk *= p
    return pk


def _p_part_group(group: FiniteGroup, dec: PDecomposition) -> FiniteGroup:
    """The p-part of a direct decomposition as a group of its own; a p-group
    is its own p-part and keeps its already validated table."""
    name = f"{group.name}|P"
    if len(dec.p_part) == group.n:
        return FiniteGroup(group.table, name, group.labels, validate=False)
    return group.subgroup(dec.p_part, name=name)


def witness_ce(
    group: FiniteGroup, fld: GF, x: AlgebraElement
) -> AlgebraElement:
    """For a p-group of class <= 2 over characteristic p, build central c
    with 0 != x c central, by greedily multiplying by (1 - z) for central
    group elements z while the product stays nonzero.

    Terminates because each factor sits in the nilpotent augmentation
    ideal; succeeds because once x_k annihilates every (1 - z) it is a
    multiple of the center sum, which is central when the commutator
    subgroup lies in the center.
    """
    nc = group.nilpotency_class
    if nc is None or nc > 2:
        raise ValueError("the constructive witness requires nilpotency class <= 2")
    _require_p_group(group, fld)
    if x.is_zero():
        raise ValueError("witness construction needs a nonzero element")
    alg = x.algebra
    if alg.is_central(x):
        return alg.one()
    c = alg.one()
    cur = x
    center = [z for z in group.center if z != 0]
    neg_one = fld.neg(1)
    progress = True
    while progress:
        progress = False
        for z in center:
            fac = np.zeros(group.n, dtype=np.int64)
            fac[0] = 1
            fac[z] = neg_one
            factor = alg.element(fac)
            nxt = cur * factor
            if not nxt.is_zero():
                cur = nxt
                c = c * factor
                progress = True
                break
    if cur.is_zero() or not alg.is_central(c) or not alg.is_central(cur):
        raise CrossValidationError("constructive witness failed its postcondition")
    return c


def witness_not_ce(group: FiniteGroup, fld: GF) -> tuple[AlgebraElement, dict]:
    """For a class > 2 p-group satisfying the central-coset condition over
    characteristic p, the element x = g * (sum of the center), g the least
    element outside Z_2, has x C /\\ C = 0; verified by rank computation
    before being returned, so the certificate stands on the linear algebra
    alone."""
    _require_p_group(group, fld)
    nc = group.nilpotency_class
    if nc is None or nc <= 2:
        raise ValueError("non-essentiality witness requires nilpotency class > 2")
    ok, _ = group.central_coset_condition()
    if not ok:
        raise ValueError("non-essentiality witness requires the central-coset condition")
    chain = group.upper_central_series.subgroups
    z2 = set(chain[2])
    g = next(i for i in range(group.n) if i not in z2)
    alg = GroupAlgebra(group, fld)
    coeffs = np.zeros(group.n, dtype=np.int64)
    coeffs[group.table[g, list(group.center)]] = 1
    x = alg.element(coeffs)
    if x.is_zero():
        raise CrossValidationError("witness element vanished unexpectedly")
    if alg.is_central(x):
        raise CrossValidationError("witness element is central; hypothesis violated")
    admits, artifact = candidate_admits_central_multiple(alg, x.coeffs)
    if admits:
        raise CrossValidationError(
            "witness verification failed: x admits a central multiple"
        )
    artifact["witness_g"] = group.label(g)
    artifact["noncentral"] = True
    return x, artifact


def check_q_subgroups(group: FiniteGroup, p: int) -> bool:
    """For every prime q != p dividing |G|: all cyclic q-subgroups are
    normal and the q-elements generate an abelian subgroup.

    Cyclic subgroups suffice: every element of a q-subgroup generates one,
    normality passes to the subgroup it generates, and commutativity of
    the full q-generated subgroup covers the rest.
    """
    n = group.n
    qs = set()
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            if d != p:
                qs.add(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1 and m != p:
        qs.add(m)
    t, orders = group.table, group.element_orders
    every = np.arange(n)
    for q in qs:
        q_elems = np.flatnonzero((_p_part(n, q) % orders == 0) & (orders > 1))
        # in_sub[i, y]: y lies in the cyclic subgroup of q_elems[i]
        in_sub = np.zeros((q_elems.size, n), dtype=bool)
        rows = np.arange(q_elems.size)
        cur = q_elems
        for _ in range(int(orders[q_elems].max(initial=1))):
            in_sub[rows, cur] = True
            cur = t[cur, q_elems]
        conj = t[t[group.inv[None, :], q_elems[:, None]], every[None, :]]  # a^-1 x a
        if not in_sub[rows[:, None], conj].all():
            return False
        span = np.asarray(group.subgroup_generated(q_elems.tolist()))
        t_ss = t[span[:, None], span]
        if not (t_ss == t_ss.T).all():
            return False
    return True


def central_idempotent_check(group: FiniteGroup, fld: GF) -> bool:
    """Consistency of subgroup idempotents: e_H is idempotent for every
    cyclic H with |H| coprime to the characteristic, and central whenever
    the algebra is centrally essential."""
    from .algebra import subgroup_idempotent

    alg = GroupAlgebra(group, fld)
    verdict = decide(group, fld).verdict
    seen: set[tuple[int, ...]] = set()
    for x in range(group.n):
        h = group.subgroup_generated([x])
        if h in seen:
            continue
        seen.add(h)
        if len(h) % fld.p == 0:
            continue
        e = subgroup_idempotent(alg, h)
        if not (e * e == e):
            return False
        if verdict == ESSENTIAL and not alg.is_central(e):
            return False
    return True


# -- the pipeline -------------------------------------------------------------------


def _witness_dict(kind: str, x: AlgebraElement, checks: dict) -> dict:
    return {"kind": kind, "element": x.to_report(), "checks": checks}


def decide(
    group: FiniteGroup,
    fld: GF | None,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
) -> DecisionReport:
    """The one decision entry point: a verdict, a reason and re-verified
    witnesses for FG.

    `fld=None` is characteristic zero, where FG is centrally essential
    exactly when it is commutative, i.e. when G is abelian (method "auto" or
    "char0").  Over GF(p^k) the method is one of

    * "auto": p-decomposition, whose failure settles the question
      negatively; nilpotency class <= 2 on the p-part settles it
      positively; otherwise the socle decider on the p-part;
    * "crossvalidate": "auto", then the socle decider (after the class
      shortcut) and, within budget, the oracle run redundantly and must
      agree;
    * "oracle" or "socle": that decider alone, on G itself;
    * "structural": the structural rules alone; raises
      StructuralUndecidedError when they do not apply.
    """
    report = DecisionReport(
        group_name=group.name,
        group_order=group.n,
        field=None if fld is None else (fld.p, fld.k),
        method="structural",
        verdict="",
        reason="",
    )
    if fld is None:
        if method not in ("auto", "char0"):
            raise ValueError(f"method {method!r} needs a finite field")
        report.method = "char0"
        if group.is_abelian:
            report.verdict, report.reason = ESSENTIAL, "char0_commutative"
        else:
            report.verdict, report.reason = NOT_ESSENTIAL, "char0_noncommutative"
    elif method == "oracle":
        out = oracle_centrally_essential(group, fld, budget)
        report.method, report.verdict, report.details = "oracle", out.verdict, out.artifact
        if out.counterexample is None:
            report.reason = "oracle_no_counterexample"
        else:
            report.reason = "oracle_counterexample"
            report.witnesses.append(
                _witness_dict("oracle_counterexample", out.counterexample, out.artifact)
            )
    elif method == "socle":
        _record_socle(report, socle_centrally_essential(group, fld))
    elif method == "structural":
        _, p_group = _shortcuts(report, group, fld, {})
        if not report.reason:
            if not p_group.central_coset_condition()[0]:
                raise StructuralUndecidedError(
                    f"structural rules do not settle {group.name}: class > 2 "
                    "without the central-coset condition"
                )
            x, artifact = witness_not_ce(p_group, fld)
            report.verdict, report.reason = NOT_ESSENTIAL, "central_coset_witness"
            report.witnesses.append(_witness_dict("center_sum_translate", x, artifact))
    elif method in ("auto", "crossvalidate"):
        dec, p_group = _shortcuts(report, group, fld, report.timings)
        report.details["decomposition"] = {
            "p_part_size": len(dec.p_part),
            "p_prime_part_size": len(dec.p_prime_part),
            "is_direct": dec.is_direct,
            "h_abelian": dec.h_abelian,
        }
        if p_group is not None:
            report.details["p_part_order"] = p_group.n
        if not report.reason:
            t0 = time.perf_counter()
            soc = socle_centrally_essential(p_group, fld)
            report.timings["socle"] = time.perf_counter() - t0
            _record_socle(report, soc)
            if soc.verdict == NOT_ESSENTIAL and p_group.central_coset_condition()[0]:
                x, artifact = witness_not_ce(p_group, fld)
                report.witnesses.append(_witness_dict("center_sum_translate", x, artifact))
    else:
        raise ValueError(f"unknown method {method!r}")

    if method == "crossvalidate":
        checks = []
        if report.reason == "nc_le_2":
            checks.append(("socle", lambda: socle_centrally_essential(p_group, fld)))
        if fld.order**group.n <= budget:
            checks.append(("oracle", lambda: oracle_centrally_essential(group, fld, budget)))
        for name, run in checks:
            t0 = time.perf_counter()
            verdict = run().verdict
            report.timings[name] = time.perf_counter() - t0
            report.cross_checks.append((name, verdict))
            if verdict != report.verdict:
                raise CrossValidationError(
                    f"{name} disagrees with {report.method} ({report.reason}) on {group.name}"
                )
    return report


def _shortcuts(
    report: DecisionReport, group: FiniteGroup, fld: GF, timings: dict[str, float]
) -> tuple[PDecomposition, FiniteGroup | None]:
    """The Sylow split and the class <= 2 shortcut of the auto and structural
    routes: sets the verdict and reason when they settle FG, records the
    p-part's class, and returns the split with the p-part (None when the
    split is not direct)."""
    t0 = time.perf_counter()
    dec = decompose_p(group, fld.p)
    timings["decompose"] = time.perf_counter() - t0
    if not dec.is_direct:
        report.verdict, report.reason = NOT_ESSENTIAL, "sylow_decomposition_failed"
        return dec, None
    p_group = _p_part_group(group, dec)
    t1 = time.perf_counter()
    nc = p_group.nilpotency_class
    timings["central_series"] = time.perf_counter() - t1
    report.details["p_part_class"] = nc
    if nc is not None and nc <= 2:
        report.verdict, report.reason = ESSENTIAL, "nc_le_2"
    return dec, p_group


def _record_socle(report: DecisionReport, soc: SocleOutcome) -> None:
    """A socle outcome as the report's route, verdict, reason and witness."""
    report.method, report.verdict = "socle", soc.verdict
    report.details["socle_dim"] = soc.socle_dim
    if soc.verdict == ESSENTIAL:
        report.reason = "socle_inside_center"
    else:
        report.reason = "socle_outside_center"
        report.witnesses.append(_witness_dict("socle_excess", soc.excess, soc.artifact))
