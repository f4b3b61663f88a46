"""Independent references that only the tests use.

The decision pipeline never calls these: each is a second route that a test
holds the package to (a batched Gaussian elimination, the column-by-column
RREF, the element orders of a whole group, the socle chain over the given
field one Kbar at a time, the verifier's stacked rank, the class <= 2 witness construction of Theorem 2, the
radical basis of the center, augmentation ideals, subgroup idempotents, the
whole-array quotient map, the dense Sylow split, the frozen catalog
fingerprints, the factor-at-a-time elementary abelian build, the law
digits' integer remainder, the catalog's former eager label lists), or a
small helper for building coefficient rows by hand.  An element of FG is
its int64 coefficient row; products go through `GroupAlgebra._mul_arrays`,
sums and scalings through the field's vector operations.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Sequence

import numpy as np

from cealg import catalog
from cealg.algebra import GroupAlgebra
from cealg.decision import (
    CrossValidationError,
    PDecomposition,
    _p_part,
    _radical_basis,
    _require_p_group,
)
from cealg.fields import GF, Matrix
from cealg.groups import FiniteGroup, _closure, cycle_notation, direct_product

# groups on which the array analyses and the class-sum RREF meet their
# references
REFERENCE_SPECS = [f"order16:{i}" for i in range(1, 15)] + ["S3", "D12", "Q8 x C3"]


# -- a second elimination and the element orders ------------------------------------


def batched_ranks(field: GF, mats: np.ndarray) -> np.ndarray:
    """Ranks of a batch of matrices of encodings, shape (B, m, n).

    Branch-free Gaussian elimination vectorized across the batch, a second
    elimination loop to hold Matrix.rref to.
    """
    t = np.array(mats, dtype=np.int64)
    nb, m, n = t.shape
    if nb == 0 or m == 0 or n == 0:
        return np.zeros(nb, dtype=np.int64)
    piv = np.zeros(nb, dtype=np.int64)
    row_ids = np.arange(m)
    for c in range(n):
        col = t[:, :, c]
        eligible = (col != 0) & (row_ids[None, :] >= piv[:, None])
        has = eligible.any(axis=1)
        idx = np.nonzero(has)[0]
        if idx.size == 0:
            continue
        src = np.argmax(eligible[idx], axis=1)
        dst = piv[idx]
        tmp = t[idx, src, :].copy()
        t[idx, src, :] = t[idx, dst, :]
        t[idx, dst, :] = tmp
        pv = t[idx, dst, c]
        inv = np.array([field.inv(int(x)) for x in pv], dtype=np.int64)
        t[idx, dst, :] = field.vmul(inv[:, None], t[idx, dst, :])
        factors = t[idx, :, c].copy()
        factors[np.arange(idx.size), dst] = 0
        t[idx] = field.vsubmul(t[idx], factors[:, :, None], t[idx, dst, :][:, None, :])
        piv[idx] = dst + 1
        if int(piv.min()) == m:
            break
    return piv


def rref_by_columns(field: GF, data: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The RREF and pivot columns of a matrix of encodings, as `Matrix.rref`
    formed them before it jumped over empty columns: one `nonzero` per
    column, with the same pivot rule."""
    a = np.array(data, dtype=np.int64)
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        src = r + int(nz[0])
        if src != r:
            a[[r, src]] = a[[src, r]]
        pv = int(a[r, c])
        if pv != 1:
            a[r] = field.vscale(field.inv(pv), a[r])
        factors = a[:, c].copy()
        factors[r] = 0
        hit = np.nonzero(factors)[0]
        if hit.size:
            a[hit] = field.vsubmul(a[hit], factors[hit, None], a[r][None, :])
        pivots.append(c)
        r += 1
    return a, pivots


def element_orders(g: FiniteGroup) -> np.ndarray:
    """Order of every element: the least divisor d of n with x^d = 1, for
    all elements at once through FiniteGroup.powers."""
    n = g.n
    orders = np.zeros(n, dtype=np.int64)
    live = np.arange(n)
    for d in range(1, n + 1):
        if n % d:
            continue
        done = g.powers(live, d) == 0
        orders[live[done]] = d
        live = live[~done]
        if not live.size:
            break
    return orders


# -- rows by hand ------------------------------------------------------------------


def basis(alg: GroupAlgebra, i: int) -> np.ndarray:
    c = np.zeros(alg.dim, dtype=np.int64)
    c[i] = 1
    return c


def from_support(alg: GroupAlgebra, pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    c = np.zeros(alg.dim, dtype=np.int64)
    for i, v in pairs:
        c[i] = v
    return c


def random_nonzero(alg: GroupAlgebra, rng: np.random.Generator) -> np.ndarray:
    while True:
        c = rng.integers(0, alg.field.order, size=alg.dim)
        if c.any():
            return c.astype(np.int64)


def power(alg: GroupAlgebra, row: np.ndarray, e: int) -> np.ndarray:
    """row^e in FG by repeated squaring."""
    out, base = basis(alg, 0), row
    while e:
        if e & 1:
            out = alg._mul_arrays(out, base)
        base = alg._mul_arrays(base, base)
        e >>= 1
    return out


def index_of_label(g: FiniteGroup, lab: str) -> int:
    for i in range(g.n):
        if g.label(i) == lab:
            return i
    raise KeyError(f"no element labelled {lab!r} in {g.name}")


def labels_of(g: FiniteGroup) -> list[str]:
    """Every label of g, in element order."""
    return [g.label(i) for i in range(g.n)]


# -- algebra references ------------------------------------------------------------


def omega_ideal_basis(
    alg: GroupAlgebra, h: Iterable[int]
) -> list[np.ndarray]:
    """Basis rows of the right ideal generated by {1 - h : h in H}.

    H must be a subgroup.  For normal H the dimension is |G| - |G|/|H|,
    asserted here.
    """
    g, F = alg.group, alg.field
    members = sorted(set(h))
    if tuple(members) != g.subgroup_generated(members):
        raise ValueError("H is not a subgroup")
    n = alg.dim
    rows = []
    neg_one = F.neg(1)
    for hh in members:
        if hh == 0:
            continue
        # (1 - h) x has support {x, h x}; h != identity keeps them distinct
        for x in range(n):
            r = np.zeros(n, dtype=np.int64)
            r[x] = 1
            r[g.mul(hh, x)] = neg_one
            rows.append(r)
    if not rows:
        return []
    red, piv = Matrix(F, np.stack(rows)).rref()
    basis = list(red.data[: len(piv)])
    if g.is_normal(members):
        expected = n - n // len(members)
        if len(basis) != expected:
            raise RuntimeError("augmentation ideal dimension mismatch for normal H")
    return basis


def subgroup_idempotent(alg: GroupAlgebra, h: Iterable[int]) -> np.ndarray:
    """e = |H|^-1 * (sum of H); requires char(F) coprime to |H|."""
    g, F = alg.group, alg.field
    members = sorted(set(h))
    if tuple(members) != g.subgroup_generated(members):
        raise ValueError("H is not a subgroup")
    m = len(members) % F.p
    if m == 0:
        raise ZeroDivisionError("characteristic divides |H|; no idempotent")
    scale = F.inv(m)  # prime-subfield constants encode as themselves
    c = np.zeros(alg.dim, dtype=np.int64)
    c[members] = 1
    e = F.vscale(scale, c)
    if not np.array_equal(alg._mul_arrays(e, e), e):
        raise RuntimeError("subgroup averaging element failed idempotency")
    return e


# -- decision references ------------------------------------------------------------


def radical_center_basis(group: FiniteGroup, fld: GF) -> list[np.ndarray]:
    """The socle decider's radical basis rows of C(FG), after its p-group
    check."""
    _require_p_group(group, fld)
    return _radical_basis(GroupAlgebra(group, fld))


def socle_rows_per_link(alg: GroupAlgebra) -> np.ndarray:
    """The socle rows of `_radical_annihilator` as its chain formed them
    before it ran over GF(p): in F[G/Z] over alg's own field, with one
    product and one `.any()` per nonzero Kbar, so a decider over GF(p^k) is
    held to a chain over GF(p^k)."""
    group, F = alg.group, alg.field
    quo, coset_of = group.quotient_map(group.center)
    m = quo.n
    cp = group.conjugacy
    keys = np.asarray(cp.class_of, dtype=np.int64) * m + coset_of
    images = np.bincount(keys, minlength=len(cp.classes) * m).reshape(-1, m)
    images = images[np.array(cp.sizes) > 1] % F.p
    qalg = GroupAlgebra(quo, F)
    basis = None  # rows span the running space; None is all of F[G/Z]
    for kbar in images:
        if not kbar.any():
            continue
        if basis is None:
            link = qalg.left_mult_matrix(kbar)
        else:
            restricted = qalg._mul_arrays(kbar, basis)
            if not restricted.any():
                continue
            link = Matrix(F, restricted.T)
        ker = link.nullspace().data
        basis = ker if basis is None else F.vmatmul(ker, basis)
    if basis is None:
        return (coset_of == np.arange(m)[:, None]).astype(np.int64)
    red, pivots = Matrix(F, basis).rref()
    return red.data[: len(pivots)][:, coset_of]


def admits_central_multiple_stacked(alg: GroupAlgebra, coeffs: np.ndarray) -> tuple[bool, dict]:
    """`candidate_admits_central_multiple` as it ranked before its residue
    form: rank(rC + C) from the stacked rows of rC and the class sums, the
    rows r * Sigma_K one product each, ranked by the batched elimination."""
    F = alg.field
    rc = np.stack([alg._mul_arrays(coeffs, s) for s in alg.center_basis])
    r1, r2 = (int(batched_ranks(F, a[None])[0]) for a in (rc, np.vstack([rc, alg.center_basis])))
    d = len(alg.center_basis)
    inter = r1 + d - r2
    return inter > 0, {"rank_rC": r1, "rank_sum": r2, "center_dim": d, "intersection_dim": inter}


def witness_ce(group: FiniteGroup, fld: GF, x: np.ndarray) -> np.ndarray:
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
    if not x.any():
        raise ValueError("witness construction needs a nonzero element")
    alg = GroupAlgebra(group, fld)
    c = basis(alg, 0)
    if alg.is_central(x):
        return c
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
            nxt = alg._mul_arrays(cur, fac)
            if nxt.any():
                cur = nxt
                c = alg._mul_arrays(c, fac)
                progress = True
                break
    if not cur.any() or not alg.is_central(c) or not alg.is_central(cur):
        raise CrossValidationError("constructive witness failed its postcondition")
    return c


# -- the whole-array quotient ---------------------------------------------------------


def quotient_whole_array(g: FiniteGroup, normal: Iterable[int]) -> tuple[np.ndarray, ...]:
    """G/N as `FiniteGroup.quotient_map` formed it before its row blocks:
    every coset gN at once, as the n x |N| array t[:, N], in int64.

    Returns the quotient's table, its inverses and the coset of every
    element, cosets numbered by their least members; raises ValueError
    unless N is a normal subgroup."""
    inside = np.zeros(g.n, dtype=bool)
    inside[np.fromiter(normal, dtype=np.int64)] = True
    t = g.table.astype(np.int64)
    cosets = t[:, inside]  # row g holds gN
    least = cosets.min(axis=1)
    if not (inside[0] and g.is_normal(np.flatnonzero(inside))
            and (least[cosets] == least[:, None]).all()):
        raise ValueError("quotient requires a normal subgroup")
    is_rep = least == np.arange(g.n)
    reps = np.flatnonzero(is_rep)
    coset_of = (np.cumsum(is_rep) - 1)[least]
    return coset_of[t[reps[:, None], reps]], coset_of[g.inv[reps]], coset_of


# -- the dense Sylow split -------------------------------------------------------------


def decompose_p_dense(group: FiniteGroup, p: int) -> PDecomposition:
    """`decompose_p` as it was formed before its generating sets: the three
    tests read the |P| x |P|, |P| x |H| and |H| x |H| slices of the table."""
    n, t = group.n, group.table
    pk = _p_part(n, p)
    every = np.arange(n)
    p_mask = group.powers(every, pk) == 0
    p_part = np.flatnonzero(p_mask)
    if p_part.size == n:
        return PDecomposition(p, tuple(range(n)), (0,), True, True, True)
    h_part = np.flatnonzero(group.powers(every, n // pk) == 0)
    closed = bool(p_mask[t[p_part[:, None], p_part]].all())
    commute = bool((t[p_part[:, None], h_part] == t[h_part[:, None], p_part].T).all())
    t_hh = t[h_part[:, None], h_part]
    h_ab = bool((t_hh == t_hh.T).all())
    return PDecomposition(
        p, tuple(p_part.tolist()), tuple(h_part.tolist()), closed, commute, h_ab
    )


# -- catalog references ---------------------------------------------------------------


def encode_mod(digits: list[np.ndarray], radices: tuple[int, ...]) -> np.ndarray:
    """`catalog._encode` as it was formed before its steps of r: index
    arrays of unreduced digit arrays, each reduced by the integer remainder,
    leaving its inputs as they are."""
    out = digits[0] % radices[0]
    for d, r in zip(digits[1:], radices[1:]):
        out = out * r + d % r
    return out


def elem_abelian_by_factors(p: int, r: int) -> FiniteGroup:
    """C_p x ... x C_p, one factor at a time: the catalog's former build."""
    idx = np.arange(p, dtype=np.int32)
    cp = FiniteGroup((idx[:, None] + idx) % p, f"E{p}^1")
    g = cp
    for k in range(2, r + 1):
        g = direct_product(g, cp, f"E{p}^{k}")
    return g


# The catalog's former eager labels: one list per group, built as the
# catalog built them before its families passed label functions, or None
# for a group labelled by its indices.

_Q8_LABELS = ["1", "i", "-1", "-i", "j", "k", "-j", "-k"]


def _pow(sym: str, e: int) -> str:
    return "" if e == 0 else sym if e == 1 else f"{sym}^{e}"


def _word(parts: Iterable[str]) -> str:
    return " ".join(p for p in parts if p) or "1"


def product_labels(l1: list[str] | None, l2: list[str] | None,
                   n1: int, n2: int) -> list[str] | None:
    """The pairs (x, y) of a direct product, indexed x * n2 + y."""
    if l1 is None and l2 is None:
        return None
    l1, l2 = l1 or [str(x) for x in range(n1)], l2 or [str(y) for y in range(n2)]
    return [f"({a},{b})" for a in l1 for b in l2]


def subgroup_labels(labels: list[str] | None, members: Sequence[int]) -> list[str] | None:
    """A subgroup's labels: its parent's, copied member by member."""
    return None if labels is None else [labels[g] for g in members]


def shown(labels: list[str] | None, n: int) -> list[str]:
    """What label(i) reads for each i: the list, or the indices."""
    return labels if labels is not None else [str(i) for i in range(n)]


def _p5_labels(p: int) -> list[str]:
    if p == 2:
        return [_word([_Q8_LABELS[q] if q else "", "a" if c else "", "t" if s else ""])
                for q in range(8) for c in range(2) for s in range(2)]
    labels_n = [_word([_pow("a", k), _pow("b", l), _pow("c", m), _pow("g", r)])
                for k, l, m, r in itertools.product(range(p), repeat=4)]
    labels = []
    for idx in range(p**5):
        nidx, s = divmod(idx, p)
        base = labels_n[nidx]
        labels.append(_word([base if base != "1" else "", _pow("B", s)]))
    return labels


_ORDER16_SPECS = ["C16", "C4 x C4", "C8 x C2", "C4 x C2 x C2", "E2^4", "D16", "QD16",
                  "Q16", "M16", "D8 x C2", "Q8 x C2", "P16", None, None]


def _atomic_labels(spec: str) -> list[str] | None:
    if spec == "Q8":
        return _Q8_LABELS
    if spec == "S3":
        return [cycle_notation(e) for e in _closure(3, [(1, 0, 2), (1, 2, 0)])[0]]
    if spec in ("QD16", "M16"):
        return [_word([_pow("r", i), _pow("s", s)]) for i in range(8) for s in range(2)]
    if spec == "P16":
        return [_word([_pow("w", e), _pow("X", u), _pow("Z", v)])
                for e, u, v in itertools.product(range(4), range(2), range(2))]
    kind, num = re.fullmatch(r"(order16:|prop29:|[CEDQH])(\d+).*", spec).groups()
    n = int(num)
    if kind == "order16:":
        sub = _ORDER16_SPECS[n - 1]
        return None if sub is None else eager_labels(sub)
    if kind == "prop29:":
        return _p5_labels(n)
    if kind == "C":
        return [_word([_pow("g", i)]) for i in range(n)]
    if kind == "D":
        return [_word([_pow("r", i), _pow("s", s)]) for s in range(2) for i in range(n // 2)]
    if kind == "Q":
        return [_word([_pow("a", x), _pow("b", u)]) for u in range(2) for x in range(n // 2)]
    if kind == "H":
        return [_word([_pow("x", i), _pow("y", j), _pow("z", k)])
                for i, j, k in itertools.product(range(n), repeat=3)]
    return None  # E<p>^<r>: products of unlabelled E<p>^1


def eager_labels(spec: str) -> list[str] | None:
    """The eager label list of a catalog spec, products folded from the left."""
    first, *rest = spec.split(" x ")
    labels = _atomic_labels(first)
    if rest:
        n = catalog.get(first).n
        for part in rest:
            n2 = catalog.get(part).n
            labels, n = product_labels(labels, _atomic_labels(part), n, n2), n * n2
    return labels


def fingerprint(g: FiniteGroup) -> tuple:
    """Cheap isomorphism-invariant signature.

    (order, element-order counts, class-size counts, |Z_i| chain, |G'|,
    abelianization element-order counts).
    """
    order_counts = _counts(sorted(element_orders(g).tolist()))
    class_counts = _counts(sorted(g.conjugacy.sizes))
    chain = tuple(len(s) for s in g.upper_central_series.subgroups)
    gprime = g.commutator_subgroup
    ab = g.quotient_map(gprime)[0]
    ab_counts = _counts(sorted(element_orders(ab).tolist()))
    return (g.n, order_counts, class_counts, chain, len(gprime), ab_counts)


def _counts(sorted_vals: Sequence[int]) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for v in sorted_vals:
        if out and out[-1][0] == v:
            out[-1] = (v, out[-1][1] + 1)
        else:
            out.append((v, 1))
    return tuple(out)


# frozen construction fingerprints for the fixed-name entries; a mismatch
# means the builder drifted
EXPECTED_FINGERPRINTS: dict[str, tuple] = {
    "Q8": (8, ((1, 1), (2, 1), (4, 6)), ((1, 2), (2, 3)), (1, 2, 8), 2, ((1, 1), (2, 3))),
    "S3": (6, ((1, 1), (2, 3), (3, 2)), ((1, 1), (2, 1), (3, 1)), (1,), 3, ((1, 1), (2, 1))),
    "QD16": (16, ((1, 1), (2, 5), (4, 6), (8, 4)), ((1, 2), (2, 3), (4, 2)), (1, 2, 4, 16), 4, ((1, 1), (2, 3))),
    "M16": (16, ((1, 1), (2, 3), (4, 4), (8, 8)), ((1, 4), (2, 6)), (1, 4, 16), 2, ((1, 1), (2, 3), (4, 4))),
    "H3": (27, ((1, 1), (3, 26)), ((1, 3), (3, 8)), (1, 3, 27), 3, ((1, 1), (3, 8))),
    "prop29:2": (32, ((1, 1), (2, 7), (4, 16), (8, 8)), ((1, 2), (2, 3), (4, 6)), (1, 2, 8, 32), 4, ((1, 1), (2, 7))),
    "prop29:3": (243, ((1, 1), (3, 134), (9, 108)), ((1, 9), (9, 26)), (1, 9, 27, 243), 27, ((1, 1), (3, 8))),
    "order16:1": (16, ((1, 1), (2, 1), (4, 2), (8, 4), (16, 8)), ((1, 16),), (1, 16), 1, ((1, 1), (2, 1), (4, 2), (8, 4), (16, 8))),
    "order16:2": (16, ((1, 1), (2, 3), (4, 12)), ((1, 16),), (1, 16), 1, ((1, 1), (2, 3), (4, 12))),
    "order16:3": (16, ((1, 1), (2, 3), (4, 4), (8, 8)), ((1, 16),), (1, 16), 1, ((1, 1), (2, 3), (4, 4), (8, 8))),
    "order16:4": (16, ((1, 1), (2, 7), (4, 8)), ((1, 16),), (1, 16), 1, ((1, 1), (2, 7), (4, 8))),
    "order16:5": (16, ((1, 1), (2, 15)), ((1, 16),), (1, 16), 1, ((1, 1), (2, 15))),
    "order16:6": (16, ((1, 1), (2, 9), (4, 2), (8, 4)), ((1, 2), (2, 3), (4, 2)), (1, 2, 4, 16), 4, ((1, 1), (2, 3))),
    "order16:7": (16, ((1, 1), (2, 5), (4, 6), (8, 4)), ((1, 2), (2, 3), (4, 2)), (1, 2, 4, 16), 4, ((1, 1), (2, 3))),
    "order16:8": (16, ((1, 1), (2, 1), (4, 10), (8, 4)), ((1, 2), (2, 3), (4, 2)), (1, 2, 4, 16), 4, ((1, 1), (2, 3))),
    "order16:9": (16, ((1, 1), (2, 3), (4, 4), (8, 8)), ((1, 4), (2, 6)), (1, 4, 16), 2, ((1, 1), (2, 3), (4, 4))),
    "order16:10": (16, ((1, 1), (2, 11), (4, 4)), ((1, 4), (2, 6)), (1, 4, 16), 2, ((1, 1), (2, 7))),
    "order16:11": (16, ((1, 1), (2, 3), (4, 12)), ((1, 4), (2, 6)), (1, 4, 16), 2, ((1, 1), (2, 7))),
    "order16:12": (16, ((1, 1), (2, 7), (4, 8)), ((1, 4), (2, 6)), (1, 4, 16), 2, ((1, 1), (2, 7))),
    "order16:13": (16, ((1, 1), (2, 3), (4, 12)), ((1, 4), (2, 6)), (1, 4, 16), 2, ((1, 1), (2, 3), (4, 4))),
    "order16:14": (16, ((1, 1), (2, 7), (4, 8)), ((1, 4), (2, 6)), (1, 4, 16), 2, ((1, 1), (2, 3), (4, 4))),
}


def verify_fixed_entries() -> list[str]:
    """Rebuild every fixed-name entry and compare fingerprints; returns the
    names that drifted (empty list = all good)."""
    bad = []
    for name, expected in EXPECTED_FINGERPRINTS.items():
        if fingerprint(catalog.get(name)) != expected:
            bad.append(name)
    return bad
