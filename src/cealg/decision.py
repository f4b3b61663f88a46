"""Deciders for the centrally essential property of FG.

Three routes, kept deliberately independent so they can cross-check each
other:

* the exhaustive oracle enumerates projective representatives r and asks,
  per candidate, whether rC meets C away from zero: a nonzero central
  multiple r * Sigma_K certifies r, read off two tables of integer codes
  for the low and the high digits of the candidate index, compared over
  grid blocks that pair each high row with the low rows of opposite
  augmentation, with no product; one RREF per uncertified candidate, in
  index order, settles the rest, so the scan stops at its first failure; it
  refuses above its budget and at q^|G| >= 2^63, beyond the int64 index;
* the socle decider, valid for p-groups over characteristic p, computes the
  annihilator of the radical of the center and tests containment in the
  center -- one nullspace loop in F[G/Z] for the center Z, over GF(p)
  whatever k is, from the first link's multiplication matrix to one RREF
  lifted to FG, plus a class-constancy test; before any verdict it checks,
  one bounded block of radical rows at a time, that they are nilpotent
  (squaring the block in one product per level) and annihilate the socle's
  excess vector;
* the structural route: for class > 2 groups with the central-coset
  property, a constructive non-essentiality witness g * (sum of the center).

Every witness that a verdict carries is a read-only int64 coefficient row
of FG that one certify step, `_certified`, has re-validated, never trusted
from theory alone; a failed Sylow split carries none.  The oracle and the
socle decider share only their result type, Outcome, `_record`, which
writes one into a report, and that step.  `decide` is the one entry point
that builds reports: one pipeline for the auto, crossvalidate and
structural methods (see its docstring).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dfield

import numpy as np

from . import fields
from .algebra import GroupAlgebra
from .fields import GF, Matrix
from .groups import BLOCK_ENTRIES, FiniteGroup, row_blocks

DEFAULT_BUDGET = 1 << 20
INDEX_LIMIT = 1 << 63  # the oracle enumerates fewer candidates than this
_CHUNK = 1 << 14
_FIRST_PIECE = 1 << 8  # low-table rows built before the first RREFs
_FIRST_BATCH = 16  # uncertified candidates in the first batch of products

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


@dataclass
class Outcome:
    """What the oracle or the socle decider found: the verdict, the details
    that the report records, and on a negative verdict the witness row with
    its rank checks."""

    verdict: str
    details: dict
    witness: np.ndarray | None = None
    checks: dict | None = None


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

    Works on the subspace rC spanned by the rows r * Sigma_K, formed as
    one product of r with the class-sum rows of alg.center_basis:
    dim(rC /\\ C) = rank(rC) + dim C - rank(rC + C).  The class sums are
    in RREF with their pivots at the least members of the classes, so
    reducing a row mod C subtracts from each entry the row's entry at the
    least member of that entry's class, and rank(rC + C) = dim C +
    rank(rC - rC[:, rep]); this is the identity behind the oracle's class
    coordinates.  The reduction is taken of the RREF rows of rC, which
    span rC, so neither elimination sees the class sums, and the second
    has only rank(rC) rows.
    """
    F = alg.field
    red, pivots = Matrix(F, alg._mul_arrays(coeffs, alg.center_basis)).rref()
    rows, r1 = red.data[: len(pivots)], len(pivots)
    d = len(alg.center_basis)
    r2 = d + Matrix(F, F.vsub(rows, rows[:, alg.group.conjugacy.rep])).rank()
    inter = r1 + d - r2
    return inter > 0, {"rank_rC": r1, "rank_sum": r2, "center_dim": d, "intersection_dim": inter}


def _certified(alg: GroupAlgebra, row: np.ndarray, what: str) -> dict:
    """The rank checks of the witness row `row`, made read-only: it must not
    be central and must admit no nonzero central multiple, or the decider
    that produced it is wrong."""
    row.setflags(write=False)
    if alg.is_central(row):
        raise CrossValidationError(f"{what} is central")
    admits, checks = candidate_admits_central_multiple(alg, row)
    if admits:
        raise CrossValidationError(f"{what} failed the rank re-verification")
    return checks


def _candidate_digits(ms: np.ndarray, q: int, n: int) -> np.ndarray:
    """Coefficient rows of the candidates with int64 indices ms.

    Candidate m has coefficients the base-q digits of m, least significant
    digit = coefficient of basis element 0.
    """
    return (ms[:, None] // q ** np.arange(n, dtype=np.int64)) % q


def _projective_mask(digits: np.ndarray) -> np.ndarray:
    """Keep rows whose first nonzero coefficient equals 1."""
    if digits.shape[1] == 0:
        return np.zeros(digits.shape[0], dtype=bool)  # rows of the empty half
    nz = digits != 0
    first = np.argmax(nz, axis=1)
    has = nz.any(axis=1)
    vals = digits[np.arange(digits.shape[0]), first]
    return has & (vals == 1)


def oracle_centrally_essential(
    group: FiniteGroup, fld: GF, budget: int = DEFAULT_BUDGET
) -> Outcome:
    """Exhaustive check of the defining property over projective
    representatives (first nonzero coefficient = 1); scaling a candidate by
    a nonzero field scalar does not change its fate.

    Refuses (BudgetError) when |F|^|G| exceeds the budget, and at any
    budget when it reaches 2^63, where the int64 candidate index would wrap.
    """
    n, q = group.n, fld.order
    if q**n >= INDEX_LIMIT:
        raise BudgetError(
            f"oracle needs {q}^{n} candidates; its int64 candidate index stops "
            "at 2^63 - 1, whatever the budget"
        )
    if q**n > budget:
        raise BudgetError(
            f"oracle needs {q}^{n} candidates, over the budget of {budget}"
        )
    alg = GroupAlgebra(group, fld)
    if group.is_abelian:
        # FG is commutative: c = 1 certifies every nonzero r directly
        return Outcome(ESSENTIAL, {"candidates": 0, "commutative": True})
    total = q**n
    bad = _oracle_scan_generic(alg, total)
    if bad is None:
        # count projective representatives for the record
        checked = (total - 1) // (q - 1)
        return Outcome(ESSENTIAL, {"candidates": checked})
    witness = _candidate_digits(np.array([bad], dtype=np.int64), q, n)[0]
    checks = _certified(alg, witness, "oracle counterexample")
    checks["candidate_index"] = bad
    return Outcome(NOT_ESSENTIAL, checks, witness, checks)


def _class_products(alg: GroupAlgebra) -> np.ndarray:
    """The (n, d * n) matrix P whose row vector product r @ P holds every
    r * Sigma_K, K = 0..d-1, in class coordinates.

    Class coordinates: x'_j = x_j - x_rep(j) for each of the n - d elements
    j that are not the least member rep(j) of their class (the residues,
    first), then x_rep for the d least members.  C is exactly the vectors
    whose residues vanish.
    """
    n, F = alg.dim, alg.field
    rep = alg.group.conjugacy.rep
    leading = rep == np.arange(n)
    reps, others = np.flatnonzero(leading), np.flatnonzero(~leading)
    rep_of, d = rep[others], reps.size
    out = np.empty((n, d, n), dtype=np.int64)
    for k, s in enumerate(alg.center_basis):
        rm = alg.right_mult_matrix(s).data  # r * Sigma_K = r @ rm
        out[:, k, : n - d] = F.vsub(rm[:, others], rm[:, rep_of])
        out[:, k, n - d :] = rm[:, reps]
    return out.reshape(n, d * n)


def _half_table(
    F: GF, prods: np.ndarray, lo: int, hi: int, d: int, negate: bool
) -> tuple[np.ndarray, ...]:
    """Rows lo..hi-1 of one half of the split candidate table.

    Row m stands for the partial candidate whose coefficients on the rows of
    `prods` are the base-q digits of m.  A row holds its projective mask,
    its augmentation, and per class K the base-q codes sum_j v_j q^j of the
    residue block and of the rep block of v = (row digits) @ prods at K,
    negated first when `negate` is set.  Distinct blocks have distinct
    codes, and each code is below q^n < 2^63.  The product exists only in
    blocks of about _CHUNK * d entries.
    """
    q, rows = F.order, prods.shape[0]
    n = prods.shape[1] // d
    res_q = q ** np.arange(n - d, dtype=np.int64)
    rep_q = q ** np.arange(d, dtype=np.int64)
    step = max(1, _CHUNK // n)
    parts = []
    for b in range(lo, hi, step):
        digits = _candidate_digits(np.arange(b, min(b + step, hi), dtype=np.int64), q, rows)
        a = F.vmatmul(digits, prods).reshape(-1, d, n)
        if negate:
            a = F.vneg(a)
        parts.append((_projective_mask(digits), F.vsum(digits, 1),
                      a[:, :, : n - d] @ res_q, a[:, :, n - d :] @ rep_q))
    return _joined(parts)


def _joined(parts: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """The columns of consecutive table pieces, one array each."""
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(c) for c in zip(*parts))


def _oracle_scan_generic(alg: GroupAlgebra, total: int) -> int | None:
    """Index of the first candidate r with rC /\\ C = 0, or None.

    The scan splits every candidate m = m_hi * q^L + m_lo, with the low
    digits the coefficients of elements 0..L-1, so that each r * Sigma_K
    in class coordinates (see _class_products) is lo[m_lo] + hi[m_hi].  A
    candidate is certified by a nonzero central multiple r * Sigma_K, that
    is lo + hi with zero residues and a nonzero rep part: the residue codes
    of lo and of -hi agree and their rep codes differ.  A candidate r with
    nonzero augmentation is certified by r * Sigma_G = aug(r) * Sigma_G, so
    high row m_hi only meets the q^(L-1) low rows of augmentation
    -aug(m_hi).  A block of high rows and those low rows form a grid of
    candidates, certified by broadcast compares of class-major codes (at
    most 4 * _CHUNK codes per block) and no product.  The low table
    (q^L <= _CHUNK rows, L <= ceil(n / 2)) is built in growing pieces while
    the first high row, the zero one, is scanned, then grouped by
    augmentation once.

    Only uncertified candidates get their product, in batches that grow
    from _FIRST_BATCH, and then one RREF each, in index order, so the scan
    stops at the first failure: rC /\\ C = 0 exactly when rank(rC) equals
    the rank of its residues.  The residues come first in class
    coordinates, so that is an RREF with no pivot in the d rep columns.
    """
    F, n, d = alg.field, alg.dim, len(alg.center_basis)
    q = F.order
    prods = _class_products(alg)
    L = 1
    while L < -(-n // 2) and q ** (L + 1) <= _CHUNK:
        L += 1
    low, g = q**L, q ** (L - 1)
    # product batches double up to about 16 * _CHUNK entries
    batch = _FIRST_BATCH
    cap = max(_FIRST_BATCH, (_CHUNK << 4) // (d * n))

    def first_failure(ms: np.ndarray) -> int | None:
        # test the sorted uncertified candidates ms, products in growing batches
        nonlocal batch
        while ms.size:
            part, ms = ms[:batch], ms[batch:]
            batch = min(2 * batch, cap)
            a = F.vmatmul(_candidate_digits(part, q, n), prods).reshape(-1, d, n)
            for m, rows in zip(part, a):
                if max(Matrix(F, rows).rref()[1], default=-1) < n - d:
                    return int(m)
        return None

    # high row 0 is the zero half, with codes and augmentation 0: its
    # candidates are the low rows, scanned while the low table is built
    parts, lo, step = [], 0, _FIRST_PIECE
    while lo < low:
        part = _half_table(F, prods[:L], lo, min(lo + step, low), d, False)
        parts.append(part)
        proj, aug, res, rep = part
        bad = first_failure(lo + np.flatnonzero(
            proj & (aug == 0) & ((res != 0) | (rep == 0)).all(axis=1)))
        if bad is not None:
            return bad
        lo, step = lo + step, 2 * step
    proj_lo, aug_lo, res_lo, rep_lo = _joined(parts)
    # grp[a] lists the low rows of augmentation a in index order: row
    # j * q + c has augmentation c + aug(j)
    grp = np.arange(g) * q + F.vsub(np.arange(q)[:, None], aug_lo[:g])
    proj_g = proj_lo[grp]
    res_g = res_lo[grp].transpose(0, 2, 1).copy()  # (q, d, g)
    rep_g = rep_lo[grp].transpose(0, 2, 1).copy()
    # the other high rows, in blocks whose class-major compares hold at
    # most 4 * _CHUNK codes
    high, hb = total // low, max(1, (_CHUNK << 2) // (g * d))
    for h0 in range(1, high, hb):
        proj_hi, aug_hi, res_hi, rep_hi = _half_table(
            F, prods[L:], h0, min(h0 + hb, high), d, True)
        gi = F.vneg(aug_hi)
        # projective: the first nonzero digit is 1, read from the low half
        # unless it is zero; low row 0 is the first of augmentation group 0
        mask = proj_g[gi]
        mask[:, 0] |= proj_hi & (gi == 0)
        mask &= ((res_g[gi] != res_hi[:, :, None]) | (rep_g[gi] == rep_hi[:, :, None])).all(axis=1)
        i, j = np.nonzero(mask)
        bad = first_failure((h0 + i) * low + grp[gi[i], j])
        if bad is not None:
            return bad
    return None


# the scan's former prime-field name, kept because instrumentation looks
# the oracle scans up by name
_oracle_scan_prime = _oracle_scan_generic


# -- socle route ----------------------------------------------------------------


def _require_p_group(group: FiniteGroup, fld: GF) -> None:
    if _p_part(group.n, fld.p) != group.n:
        raise ValueError(
            f"{group.name} is not a {fld.p}-group; the socle route only applies to "
            "p-groups over characteristic p"
        )


def _radical_basis(alg: GroupAlgebra) -> list[np.ndarray]:
    """Coefficient rows spanning the radical of C(FG) for a p-group over
    characteristic p: z - 1 for each central z != 1, then the class sums of
    the non-singleton classes, as views of the rows of alg.center_basis.

    These are exactly the augmentation-zero central elements (non-singleton
    class sizes are powers of p), and in this local setting augmentation
    zero is nilpotency.
    """
    z = [c for c in alg.group.center if c]
    links = np.zeros((len(z), alg.dim), dtype=np.int64)
    links[np.arange(len(z)), z], links[:, 0] = 1, alg.field.neg(1)
    sizes = alg.group.conjugacy.sizes
    return list(links) + [s for s, size in zip(alg.center_basis, sizes) if size > 1]


def _radical_annihilator(alg: GroupAlgebra) -> np.ndarray:
    """RREF basis rows of the socle ann_FG(J), J the radical of C(FG), for
    a p-group G over characteristic p, computed in F[G/Z], Z the center.

    The links z - 1 (z in Z) of the radical basis annihilate x exactly when
    x is constant on the cosets gZ, that is x = y Sigma_Z for y in FG; and
    y -> y Sigma_Z maps F[G/Z] one-to-one onto those x, as the image ybar
    of y in F[G/Z] is the coefficient of g in y Sigma_Z on the coset gZ.
    So a class sum K annihilates x exactly when Kbar ybar = 0, where
    Kbar[gZ] = |K /\\ gZ|, an integer mod p and so its own encoding in any
    GF(p^k).  The kernels of the Kbar are intersected in F[G/Z], one loop
    over the indices of the nonzero Kbar: the first one's link is its left
    multiplication matrix, a later one's is its product with the running
    basis, and a link that is zero costs no nullspace.  No kernel is empty,
    as Sigma_{G/Z} lies in every one (Kbar Sigma_{G/Z} = |K| Sigma_{G/Z}, and
    |K| is a power of p).  The RREF is taken in F[G/Z] and lifted to FG by
    the cosets: they are numbered by their least members, so the lift of an
    RREF is the RREF of the lift.
    """
    group, F = alg.group, alg.field
    quo, coset_of = group.quotient_map(group.center)
    m = quo.n
    # Kbar for every class K in one pass; the non-singleton K are the links
    cp = group.conjugacy
    keys = np.asarray(cp.class_of, dtype=np.int64) * m + coset_of
    images = np.bincount(keys, minlength=len(cp.classes) * m).reshape(-1, m)
    images %= F.p
    live = np.flatnonzero((np.array(cp.sizes) > 1) & images.any(axis=1))
    if not live.size:  # every Kbar is zero: the coset sums span the socle
        return (coset_of == np.arange(m)[:, None]).astype(np.int64)
    qalg = GroupAlgebra(quo, F)
    # the rows of basis span the running space
    basis = qalg.left_mult_matrix(images[live[0]]).nullspace().data
    for idx in live[1:]:
        restricted = qalg._mul_arrays(images[idx], basis)
        if not restricted.any():
            continue  # Kbar already annihilates the running space
        # ker rows are coordinates w.r.t. the current basis
        ker = Matrix(F, restricted.T).nullspace().data
        basis = F.vmatmul(ker, basis)
    red, pivots = Matrix(F, basis).rref()
    return red.data[: len(pivots)][:, coset_of]


def socle_centrally_essential(group: FiniteGroup, fld: GF, alg=None) -> Outcome:
    """Essentiality via the socle: C is essential in FG iff every element
    annihilated by the radical of C already lies in C.

    The socle is the intersection of the kernels of multiplication by the
    radical basis (see _radical_annihilator), and the containment test asks
    each socle basis row to be constant on conjugacy classes.  A socle
    vector outside C is returned as a certified counterexample (its central
    multiples form the line it spans, which misses C).  Before any verdict,
    one pass over bounded blocks of the radical basis rows guards their
    nilpotency and re-checks that they annihilate that vector.

    Every matrix of the chain and the guard has its entries in GF(p): the
    radical rows have entries 0, 1 and -1, the Kbar are integers mod p, and
    each kernel of a GF(p) matrix has a GF(p) basis.  An element of GF(p)
    has the same encoding in GF(p^k), and the RREF of a GF(p) matrix is the
    same over GF(p^k), so both run in F_p[G] and their rows, ranks and
    verdict do not depend on k.  Only the excess vector is certified over
    the given field, in FG.  `alg`, when given, is FG already built; its
    class sums are the radical rows, so they are built once.
    """
    _require_p_group(group, fld)
    alg = alg or GroupAlgebra(group, fld)
    prime = alg if fld.k == 1 else GroupAlgebra(group, fields.field_make(fld.p))
    n = group.n
    rad = _radical_basis(alg)
    socle_rows = _radical_annihilator(prime)
    socle_dim = socle_rows.shape[0]
    # a row lies in C exactly when it is constant on classes
    outside = (socle_rows != socle_rows[:, group.conjugacy.rep]).any(axis=1)
    excess = None
    if outside.any():
        # the first socle basis vector outside the center is the
        # counterexample; a row of its own, so the basis goes before the guard
        excess = socle_rows[np.argmax(outside)].copy()
    del socle_rows
    for rows in row_blocks(len(rad), n, fields._PAIRS):
        # the radical description rests on its rows being nilpotent; guard
        # it before any verdict.  b is nilpotent iff b^n = 0 iff b^(2^m) = 0
        # for 2^m >= n: each level squares the live rows of a block in one
        # product, and a row leaves at its first zero power.  The block is
        # stacked once, and first re-checks that it annihilates the excess
        x = np.stack(rad[rows])
        stray = excess is not None and prime._mul_arrays(x, excess).any()
        x, e = x[x.any(axis=1)], 1
        while e < n and len(x):
            x = prime._mul_arrays(x, x)
            x, e = x[x.any(axis=1)], 2 * e
        if len(x):
            raise CrossValidationError("radical basis element is not nilpotent")
        if stray:
            raise CrossValidationError("socle vector not annihilated by the radical")
    if excess is None:
        return Outcome(ESSENTIAL, {"socle_dim": socle_dim})
    checks = _certified(alg, excess, "socle excess vector")
    checks["socle_dim"] = socle_dim
    return Outcome(NOT_ESSENTIAL, {"socle_dim": socle_dim}, excess, checks)


# -- structural route -------------------------------------------------------------


def decompose_p(group: FiniteGroup, p: int) -> PDecomposition:
    """Split elements into p-part P and p'-part H and test for a direct
    decomposition G = P x H with H abelian in O(n |S|), with S_X generating
    <X> (X itself if n |X| fits a block, else X's greedy generators): P is
    closed iff P S_P lies in P, and x commutes with H iff x commutes with S_H."""
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
    s_p, s_h = (x if x.size * n <= BLOCK_ENTRIES else group._greedy_generators(x)
                for x in (p_part, h_part))
    closed = bool(p_mask[t[p_part[:, None], s_p]].all())
    commutes = group._commuting_with(s_h)  # x commutes with <H>
    return PDecomposition(p, tuple(p_part.tolist()), tuple(h_part.tolist()), closed,
                          bool(commutes[p_part].all()), bool(commutes[h_part].all()))


def _p_part(n: int, p: int) -> int:
    """The largest power of p dividing n."""
    pk = 1
    while n % (pk * p) == 0:
        pk *= p
    return pk


def _p_part_group(group: FiniteGroup, dec: PDecomposition) -> FiniteGroup:
    """The p-part of a direct decomposition as a group of its own.  A p-group
    is its own p-part: the group itself comes back, with its inverses,
    generators and cached analyses."""
    if len(dec.p_part) == group.n:
        return group
    return group.subgroup(dec.p_part, name=f"{group.name}|P")


def witness_not_ce(group: FiniteGroup, fld: GF, alg=None) -> tuple[np.ndarray, dict]:
    """For a class > 2 p-group satisfying the central-coset condition over
    characteristic p, the element x = g * (sum of the center), g the least
    element outside Z_2, has x C /\\ C = 0; verified by rank computation
    before being returned, in FG (`alg` when given), so the certificate
    stands on the linear algebra alone."""
    _require_p_group(group, fld)
    nc = group.nilpotency_class
    if nc is None or nc <= 2:
        raise ValueError("non-essentiality witness requires nilpotency class > 2")
    if not group.central_coset_condition()[0]:
        raise ValueError("non-essentiality witness requires the central-coset condition")
    z2 = set(group.upper_central_series.subgroups[2])
    g = next(i for i in range(group.n) if i not in z2)
    x = np.zeros(group.n, dtype=np.int64)
    x[group.table[g, list(group.center)]] = 1
    checks = _certified(alg or GroupAlgebra(group, fld), x, "center-sum witness")
    checks["witness_g"] = group.label(g)
    checks["noncentral"] = True
    return x, checks


# -- the pipeline -------------------------------------------------------------------


def _witness_dict(group: FiniteGroup, kind: str, row: np.ndarray, checks: dict) -> dict:
    """A witness row of F[group] as its [label, coefficient] pairs, in
    element-index order, with its checks."""
    element = [[group.label(i), int(row[i])] for i in np.nonzero(row)[0].tolist()]
    return {"kind": kind, "element": element, "checks": checks}


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
    "char0").  Over GF(p^k), "oracle" or "socle" runs that decider alone on
    G, and "auto", "crossvalidate" and "structural" run one pipeline: the
    Sylow split G = P x H (H abelian), whose failure settles FG negatively;
    nilpotency class <= 2 on the p-part P, which settles it positively; at
    class > 2 the socle decider on P, or for "structural" the central-coset
    condition (StructuralUndecidedError without it); and on a negative
    verdict, when P has that condition, the center-sum witness.
    "crossvalidate" then runs the socle decider (after the class shortcut)
    and the oracle (unless it refuses over its budget); both must agree.
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
        return report
    if method == "char0":
        raise ValueError(f"method 'char0' needs characteristic zero, not {fld}")
    if method in ("oracle", "socle"):
        out = (oracle_centrally_essential(group, fld, budget) if method == "oracle"
               else socle_centrally_essential(group, fld))
        _record(report, group, method, out)
        return report
    if method not in ("auto", "crossvalidate", "structural"):
        raise ValueError(f"unknown method {method!r}")

    structural = method == "structural"
    t0 = time.perf_counter()
    dec = decompose_p(group, fld.p)
    report.timings["decompose"] = time.perf_counter() - t0
    if not structural:
        report.details["decomposition"] = {
            "p_part_size": len(dec.p_part),
            "p_prime_part_size": len(dec.p_prime_part),
            "is_direct": dec.is_direct,
            "h_abelian": dec.h_abelian,
        }
    if not dec.is_direct:
        report.verdict, report.reason = NOT_ESSENTIAL, "sylow_decomposition_failed"
    else:
        p_group = _p_part_group(group, dec)
        alg = GroupAlgebra(p_group, fld)  # FG of the p-part: one set of class sums
        if not structural:
            report.details["p_part_order"] = p_group.n
        t0 = time.perf_counter()
        nc = p_group.nilpotency_class
        report.timings["central_series"] = time.perf_counter() - t0
        report.details["p_part_class"] = nc
        if nc is not None and nc <= 2:
            report.verdict, report.reason = ESSENTIAL, "nc_le_2"
        elif structural:
            if not p_group.central_coset_condition()[0]:
                raise StructuralUndecidedError(
                    f"structural rules do not settle {group.name}: class > 2 "
                    "without the central-coset condition"
                )
            report.verdict, report.reason = NOT_ESSENTIAL, "central_coset_witness"
        else:
            t0 = time.perf_counter()
            soc = socle_centrally_essential(p_group, fld, alg)
            report.timings["socle"] = time.perf_counter() - t0
            _record(report, p_group, "socle", soc)
        if report.verdict == NOT_ESSENTIAL and p_group.central_coset_condition()[0]:
            x, art = witness_not_ce(p_group, fld, alg)
            report.witnesses.append(_witness_dict(p_group, "center_sum_translate", x, art))

    if method == "crossvalidate":
        # the socle decider checks the class shortcut; p_group is set there
        runs = [("oracle", lambda: oracle_centrally_essential(group, fld, budget))]
        if report.reason == "nc_le_2":
            runs.insert(0, ("socle", lambda: socle_centrally_essential(p_group, fld)))
        for name, run in runs:
            t0 = time.perf_counter()
            try:
                verdict = run().verdict
            except BudgetError:
                continue  # the oracle refuses over its budget: no cross-check
            report.timings[name] = time.perf_counter() - t0
            report.cross_checks.append((name, verdict))
            if verdict != report.verdict:
                raise CrossValidationError(
                    f"{name} disagrees with {report.method} ({report.reason}) on {group.name}"
                )
    return report


# per route: the reason for each verdict, and the kind of its witness
_ROUTES = {
    "oracle": ("oracle_no_counterexample", "oracle_counterexample", "oracle_counterexample"),
    "socle": ("socle_inside_center", "socle_outside_center", "socle_excess"),
}


def _record(report: DecisionReport, group: FiniteGroup, route: str, out: Outcome) -> None:
    """A decider's outcome on `group` as the report's route, verdict,
    reason, details and witness."""
    essential, not_essential, kind = _ROUTES[route]
    report.method, report.verdict = route, out.verdict
    report.details.update(out.details)
    if out.witness is None:
        report.reason = essential
    else:
        report.reason = not_essential
        report.witnesses.append(_witness_dict(group, kind, out.witness, out.checks))
