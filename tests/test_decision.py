import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cealg import catalog, decision, fields
from cealg.algebra import GroupAlgebra
from cealg.decision import (
    DEFAULT_BUDGET,
    ESSENTIAL,
    NOT_ESSENTIAL,
    BudgetError,
    StructuralUndecidedError,
    _class_products,
    _candidate_digits,
    _half_table,
    _oracle_scan_generic,
    _p_part,
    _projective_mask,
    candidate_admits_central_multiple,
    decide,
    decompose_p,
    oracle_centrally_essential,
    socle_centrally_essential,
    witness_not_ce,
)
from cealg.fields import Matrix, field_make
from cealg.groups import FiniteGroup, row_blocks
from reference import (
    basis,
    batched_ranks,
    decompose_p_dense,
    element_orders,
    fingerprint,
    from_support,
    index_of_label,
    power,
    radical_center_basis,
    random_nonzero,
    subgroup_idempotent,
    witness_ce,
)


class TestOracle:
    def test_q8_gf2_essential(self, f2):
        out = oracle_centrally_essential(catalog.quaternion8(), f2)
        assert out.verdict == ESSENTIAL
        assert out.details["candidates"] == 255

    def test_s3_gf2_counterexample(self, f2):
        out = oracle_centrally_essential(catalog.sym3(), f2)
        assert out.verdict == NOT_ESSENTIAL
        assert out.witness is not None and not out.witness.flags.writeable
        # the center of F2 S3 is spanned by 3 class sums: 8 elements
        alg = GroupAlgebra(catalog.sym3(), f2)
        assert len(alg.center_basis) == 3
        ok, art = candidate_admits_central_multiple(alg, out.witness)
        assert not ok and art["intersection_dim"] == 0

    def test_c3_gf3_essential(self, f3):
        out = oracle_centrally_essential(catalog.cyclic(3), f3)
        assert out.verdict == ESSENTIAL

    def test_budget_refusal(self, f2):
        with pytest.raises(BudgetError):
            oracle_centrally_essential(catalog.p5_class3_group(2), f2)

    def test_index_limit_refusal(self, f2):
        # 2^64 candidates overflow the int64 candidate index at any budget
        with pytest.raises(BudgetError, match="2\\^63"):
            oracle_centrally_essential(catalog.get("D64"), f2, budget=2**128)
        # and crossvalidate leaves the oracle out instead of refusing
        rep = decide(catalog.get("D64"), f2, "crossvalidate", budget=2**128)
        assert [name for name, _ in rep.cross_checks] == []

    def test_extension_field_scan(self, f4):
        # char 2 sees S3 fail its Sylow decomposition; the oracle agrees
        out = oracle_centrally_essential(catalog.sym3(), f4)
        assert out.verdict == NOT_ESSENTIAL
        out2 = oracle_centrally_essential(catalog.cyclic(4), f4)
        assert out2.verdict == ESSENTIAL

    @pytest.mark.parametrize("p,k", [(2, 2), (3, 2)])
    def test_batched_scan_matches_per_candidate_loop(self, p, k):
        # reference: test each projective candidate in enumeration order
        fld = field_make(p, k)
        g = catalog.sym3()
        alg = GroupAlgebra(g, fld)
        n, q = g.n, fld.order
        first = None
        for m in range(1, q**n):
            coeffs = np.array([(m // q**i) % q for i in range(n)], dtype=np.int64)
            if coeffs[np.nonzero(coeffs)[0][0]] != 1:
                continue
            if not candidate_admits_central_multiple(alg, coeffs)[0]:
                first = m
                break
        out = oracle_centrally_essential(g, fld)
        assert first is not None
        assert out.details["candidate_index"] == first

    def test_counterexample_is_least(self, f2):
        # determinism: re-running returns the identical counterexample
        a = oracle_centrally_essential(catalog.sym3(), f2)
        b = oracle_centrally_essential(catalog.sym3(), f2)
        assert np.array_equal(a.witness, b.witness)
        assert a.details["candidate_index"] == b.details["candidate_index"]


# -- the oracle scan against its rank-only form ----------------------------------


def _rank_only_scan(alg: GroupAlgebra, total: int, chunk: int | None = None) -> int | None:
    """The oracle scan without class coordinates or certificates: every
    augmentation-zero projective candidate r gets two ranks, of rC and of
    rC reduced modulo the RREF class-sum matrix, and fails when they agree.
    Candidates are ranked in chunks of `chunk` indices, _CHUNK by default."""
    F, n, q = alg.field, alg.dim, alg.field.order
    chunk = chunk or decision._CHUNK
    sums = alg.center_basis
    rms = np.stack([alg.right_mult_matrix(s).data for s in sums], axis=1)
    rms = rms.reshape(n, len(sums) * n)
    zmat, piv = alg.center_matrix
    nonpiv = [c for c in range(n) if c not in piv]
    for lo in range(1, total, chunk):
        digits = _candidate_digits(np.arange(lo, min(lo + chunk, total)), q, n)
        mask = _projective_mask(digits) & (F.vsum(digits, 1) == 0)
        if not mask.any():
            continue
        a = F.vmatmul(digits[mask], rms).reshape(-1, len(sums), n)
        red = F.vsub(a, F.vmatmul(a[:, :, piv], zmat.data))
        bad = batched_ranks(F, a) == batched_ranks(F, red[:, :, nonpiv] if nonpiv else red)
        if bad.any():
            return int(lo + np.nonzero(mask)[0][np.argmax(bad)])
    return None


SCAN_CASES = [
    (name, p, k)
    for name, g in catalog.standard_entries()
    if g.n <= 12
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1)]
    if (p**k) ** g.n <= DEFAULT_BUDGET
] + [
    ("order16:6", 2, 1), ("order16:7", 2, 1), ("order16:9", 2, 1), ("order16:13", 2, 1),
    # 2^27 candidates, split into halves of 14 and 13 digits; both scans stop at 24
    ("H3", 2, 1),
]


@pytest.mark.parametrize("name,p,k", SCAN_CASES)
def test_scan_matches_rank_only_scan(name, p, k):
    g, fld = catalog.get(name), field_make(p, k)
    alg = GroupAlgebra(g, fld)
    total = fld.order**g.n
    assert _oracle_scan_generic(alg, total) == _rank_only_scan(alg, total)


def _spy_half_tables(monkeypatch) -> list[tuple[bool, int, int]]:
    """(negate, lo, hi) of every half table the oracle scan builds, in order."""
    built, half = [], decision._half_table

    def spy(F, prods, lo, hi, d, negate):
        built.append((negate, lo, hi))
        return half(F, prods, lo, hi, d, negate)

    monkeypatch.setattr(decision, "_half_table", spy)
    return built


def _traced_scan(monkeypatch, alg: GroupAlgebra, total: int):
    """The scan's result, the low-table rows it built, the end of its first
    block of high rows, and the candidates it multiplied out, in order."""
    built, ranked, digits = _spy_half_tables(monkeypatch), [], decision._candidate_digits

    def spy(ms, q, n):
        if n == alg.dim:
            ranked.extend(ms.tolist())
        return digits(ms, q, n)

    monkeypatch.setattr(decision, "_candidate_digits", spy)
    bad = _oracle_scan_generic(alg, total)
    low = max(hi for negate, _, hi in built if not negate)
    block_end = next((hi for negate, _, hi in built if negate), None)
    return bad, low, block_end, ranked


def _uncertified(alg: GroupAlgebra, stop: int) -> list[int]:
    """The augmentation-zero projective candidates below stop with no
    nonzero central multiple r * Sigma_K, by dense products."""
    F, n, q, out = alg.field, alg.dim, alg.field.order, []
    prods = _class_products(alg)
    for lo in range(1, stop, 4096):
        ms = np.arange(lo, min(lo + 4096, stop))
        digits = _candidate_digits(ms, q, n)
        ms = ms[_projective_mask(digits) & (F.vsum(digits, 1) == 0)]
        a = F.vmatmul(_candidate_digits(ms, q, n), prods).reshape(len(ms), -1, n)
        out += ms[~_central_multiple(a)].tolist()
    return out


# D8 with its elements renamed; over GF(3) its first failure, candidate
# 189, has support beyond elements 0..3, and with 2 low digits its low half
# is zero
_RENAMED = {"D8 renamed": ("D8", [0, 3, 5, 4, 7, 6, 1, 2])}


def _scan_group(name: str) -> FiniteGroup:
    if name in _RENAMED:
        spec, perm = _RENAMED[name]
        return _relabel(catalog.get(spec), np.array(perm))
    return catalog.get(name)


# (spec, p, k, where the first failure lies) with the scan shrunk to
# _CHUNK = 16: low tables of 9 to 16 rows, built in pieces of 2, 4, ...
# rows, grid blocks of 1 to 7 high rows and product batches of 1, 2, 4, ...
# candidates.  The failing candidates' low halves have augmentation 1,
# except D8's (augmentation 0) and D8 renamed's (zero)
LATE_SCAN_CASES = [
    ("S3", 2, 2, "row"), ("S3", 3, 1, "row"), ("D8", 3, 1, "block"), ("D8 renamed", 3, 1, "block"),
    ("S3 x C2", 3, 1, "block"), ("S3 x C2", 2, 2, "block"), ("S3 x C3", 2, 1, "block"),
    # 60 uncertified candidates pass their RREFs before the failure, 257
    ("D48", 2, 1, "block"),
    ("D8", 2, 2, None),
]


@pytest.mark.parametrize("name,p,k,where", LATE_SCAN_CASES)
def test_late_failures_match_rank_only_scan(monkeypatch, name, p, k, where):
    g, fld = _scan_group(name), field_make(p, k)
    alg = GroupAlgebra(g, fld)
    total = fld.order**g.n
    want = _rank_only_scan(alg, total, chunk=1024)
    for attr, value in [("_CHUNK", 16), ("_FIRST_PIECE", 2), ("_FIRST_BATCH", 1)]:
        monkeypatch.setattr(decision, attr, value)
    bad, low, block_end, ranked = _traced_scan(monkeypatch, alg, total)
    assert bad == want
    # every uncertified candidate is multiplied out once, in index order, up
    # to the batch holding the first failure
    assert ranked == _uncertified(alg, ranked[-1] + 1 if bad is not None else total)
    if where is None:
        assert bad is None
    else:
        assert bad in ranked
        # past high row 0, or past the first block of high rows
        assert bad >= (low if where == "row" else low * block_end)


def test_renamed_failure_past_row_0_matches_rank_only_scan(monkeypatch, f3):
    # full size: 4 low digits; the first failure's low half has augmentation 1
    alg = GroupAlgebra(_scan_group("D8 renamed"), f3)
    bad, low, _, _ = _traced_scan(monkeypatch, alg, 3**8)
    assert bad == _rank_only_scan(alg, 3**8) == 189
    assert bad >= low == 81
    low_half = _candidate_digits(np.array([bad % low]), 3, 4)
    assert f3.vsum(low_half, 1)[0] == 1


def _central_multiple(a: np.ndarray) -> np.ndarray:
    """For products a[i, K] = r_i * Sigma_K in class coordinates, shaped
    (B, d, n): whether some r_i * Sigma_K is a nonzero central element,
    i.e. has zero residues and a nonzero rep coordinate."""
    d, n = a.shape[1:]
    central = ~a[:, :, : n - d].any(axis=2) & a[:, :, n - d :].any(axis=2)
    return central.any(axis=1)


def _certified(alg: GroupAlgebra, r: np.ndarray) -> bool:
    a = alg.field.vmatmul(r[None, :], _class_products(alg))
    return bool(_central_multiple(a.reshape(1, -1, alg.dim))[0])


@st.composite
def _candidates(draw):
    name = draw(st.sampled_from(["S3", "D8", "Q8", "order16:9"]))
    p, k = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    g, q = catalog.get(name), p**k
    # dense vectors mostly have no central multiple, sparse ones often do
    coeffs = draw(st.lists(st.integers(0, q - 1), min_size=g.n, max_size=g.n))
    if draw(st.booleans()):
        support = draw(st.sets(st.integers(0, g.n - 1), min_size=1))
        coeffs = [c if i in support else 0 for i, c in enumerate(coeffs)]
    if not any(coeffs):
        coeffs[draw(st.integers(0, g.n - 1))] = 1
    return GroupAlgebra(g, field_make(p, k)), np.array(coeffs, dtype=np.int64)


@st.composite
def _split_candidates(draw):
    alg, r = draw(_candidates())
    F, n = alg.field, alg.dim
    if draw(st.booleans()):
        # augmentation zero, so that r * Sigma_G certifies nothing
        r[0] = 0
        r[0] = F.neg(F.vsum(r))
        if not r.any():
            r[1], r[0] = 1, F.neg(1)
    m = sum(int(c) * F.order**i for i, c in enumerate(r))
    return alg, m, draw(st.integers(0, n))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_split_candidates())
def test_split_codes_certify_as_the_full_product(case):
    # candidate m = m_hi * q^L + m_lo: the codes of the low half against the
    # codes of the negated high half decide the dense certificate
    alg, m, L = case
    F, n, d = alg.field, alg.dim, len(alg.center_basis)
    prods = _class_products(alg)
    m_hi, m_lo = divmod(m, F.order**L)
    *_, res_lo, rep_lo = _half_table(F, prods[:L], m_lo, m_lo + 1, d, False)
    *_, res_hi, rep_hi = _half_table(F, prods[L:], m_hi, m_hi + 1, d, True)
    split = ((res_lo == res_hi) & (rep_lo != rep_hi)).any()
    a = F.vmatmul(_candidate_digits(np.array([m]), F.order, n), prods)
    assert split == _central_multiple(a.reshape(1, d, n))[0]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_candidates())
def test_certificate_is_a_nonzero_central_multiple(case):
    alg, r = case
    multiples = [alg._mul_arrays(r, s) for s in alg.center_basis]
    want = any(m.any() and alg.is_central(m) for m in multiples)
    assert _certified(alg, r) == want


@pytest.mark.parametrize("spec,p,k", [
    ("prop29:2", 2, 1), ("S3", 3, 1), ("D8", 2, 2), ("S3", 2, 2), ("H5", 5, 2)])
def test_verifier_rows_are_the_per_class_products(monkeypatch, spec, p, k):
    # the verifier's rows r * Sigma_K, formed as one product with the
    # class-sum array, against one _mul_arrays product per class sum; the
    # first rank it takes is that of those rows
    alg = GroupAlgebra(catalog.get(spec), field_make(p, k))
    F, rng = alg.field, np.random.default_rng(7)
    ranked, rank = [], Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda m: ranked.append(m.data) or rank(m))
    for density in (0.05, 0.5, 1.0):
        r = rng.integers(0, F.order, alg.dim) * (rng.random(alg.dim) < density)
        ranked.clear()
        _, art = candidate_admits_central_multiple(alg, r)
        want = np.stack([alg._mul_arrays(r, s) for s in alg.center_basis])
        assert ranked[0].tolist() == want.tolist()
        assert art["rank_rC"] == rank(Matrix(F, want))


def test_certificate_fires_both_ways(f2):
    g = catalog.quaternion8()
    alg = GroupAlgebra(g, f2)
    z = next(i for i in g.center if i != 0)
    one_plus_z = from_support(alg, [(0, 1), (z, 1)])
    assert _certified(alg, one_plus_z)  # (1 + z) Sigma_K is central
    s3 = GroupAlgebra(catalog.sym3(), f2)
    bad = oracle_centrally_essential(catalog.sym3(), f2).witness
    assert not _certified(s3, bad)


def _scan_rrefs(monkeypatch, group, fld, budget=DEFAULT_BUDGET):
    """The oracle's outcome on FG, the candidates that the scan takes an
    RREF for, in the order taken, and the sizes of its batches of products;
    each RREF is checked to be of that candidate's rows r * Sigma_K in
    class coordinates."""
    inside, inputs, batches = [], [], []
    scan, rref, digits = decision._oracle_scan_generic, Matrix.rref, decision._candidate_digits

    def scoped(alg, total):
        inside.append(alg.dim)
        try:
            return scan(alg, total)
        finally:
            inside.pop()

    def spy_rref(m):
        if inside:
            inputs.append(m.data.copy())
        return rref(m)

    def spy_digits(ms, q, n):
        if inside and n == inside[-1]:
            batches.append(ms.tolist())  # the candidates whose products are formed
        return digits(ms, q, n)

    monkeypatch.setattr(decision, "_oracle_scan_generic", scoped)
    monkeypatch.setattr(Matrix, "rref", spy_rref)
    monkeypatch.setattr(decision, "_candidate_digits", spy_digits)
    out = oracle_centrally_essential(group, fld, budget)
    alg = GroupAlgebra(group, fld)
    n, d = group.n, len(alg.center_basis)
    tested = sum(batches, [])[: len(inputs)]
    rows = fld.vmatmul(_candidate_digits(np.array(tested, dtype=np.int64), fld.order, n),
                       _class_products(alg)).reshape(len(tested), d, n)
    assert [m.tolist() for m in inputs] == rows.tolist()
    return out, tested, [len(b) for b in batches]


def test_certified_candidates_skip_ranks(monkeypatch, f2, f3):
    out, tested, batches = _scan_rrefs(monkeypatch, catalog.get("order16:9"), f2)
    assert out.verdict == ESSENTIAL and tested == batches == []
    # D12 over GF(3) fails at candidate 19, inside the first piece of the
    # low table: the RREFs stop there, inside the first batch of products
    out, tested, batches = _scan_rrefs(monkeypatch, catalog.get("D12"), f3)
    assert out.details["candidate_index"] == 19
    assert tested[-1] == 19 and len(tested) <= decision._FIRST_BATCH
    assert len(batches) == 1


def test_early_failure_builds_little_of_the_low_table(monkeypatch, f2):
    # H3 over GF(2): 2^27 candidates and a low table of 2^14 rows; the scan
    # returns candidate 24 after the first piece
    built = _spy_half_tables(monkeypatch)
    out = oracle_centrally_essential(catalog.get("H3"), f2, budget=2**27)
    assert out.details["candidate_index"] == 24
    assert sum(hi - lo for negate, lo, hi in built if not negate) < 2**10


def test_late_failure_stops_at_its_rref(monkeypatch, f2):
    # D48 over GF(2): 2^48 candidates, the first failure is candidate 257;
    # the RREFs stop there, after fewer than 257 candidates, whose products
    # are formed in a few growing batches
    out, tested, batches = _scan_rrefs(monkeypatch, catalog.get("D48"), f2, budget=2**62)
    assert out.details["candidate_index"] == 257
    assert tested[-1] == 257 and len(tested) < 257
    assert len(batches) <= 4


@pytest.mark.parametrize("spec,total,bound", [
    # full scan, no failure: the grid blocks' compares dominate (parent
    # scan 1.76 MB, with chunk-wide gathers)
    ("order16:9", 2**16, 1 << 20),
    # early failure: the growing product batches dominate (92 MB when one
    # batch took every uncertified candidate of a chunk)
    ("D48", 2**48, 8 << 20),
])
def test_scan_peak_memory(f2, spec, total, bound):
    alg = GroupAlgebra(catalog.get(spec), f2)
    alg.center_matrix  # the scan's inputs are built before tracing
    tracemalloc.start()
    try:
        _oracle_scan_generic(alg, total)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


class TestRadicalBasis:
    def test_c2(self, f2):
        basis = radical_center_basis(catalog.cyclic(2), f2)
        alg = GroupAlgebra(catalog.cyclic(2), f2)
        assert len(basis) == 1 and np.array_equal(basis[0], from_support(alg, [(0, 1), (1, 1)]))

    def test_q8_size_and_nilpotence(self, f2):
        basis = radical_center_basis(catalog.quaternion8(), f2)
        alg = GroupAlgebra(catalog.quaternion8(), f2)
        assert len(basis) == 5 - 1
        assert all(not power(alg, b, 8).any() for b in basis)

    def test_augmentation_zero(self, f3):
        for b in radical_center_basis(catalog.heisenberg(3), f3):
            assert f3.vsum(b) == 0

    def test_class_sum_rows_are_views(self, f3):
        # the z - 1 rows come first; the class sums are not copied
        alg = GroupAlgebra(catalog.get("prop29:3"), f3)
        rad = decision._radical_basis(alg)
        z = len(alg.group.center) - 1
        assert len(rad) - z == sum(size > 1 for size in alg.group.conjugacy.sizes)
        assert all(b.base is alg.center_basis for b in rad[z:])

    def test_rejects_non_p_group(self, f2, f3):
        with pytest.raises(ValueError):
            radical_center_basis(catalog.sym3(), f2)
        with pytest.raises(ValueError):
            radical_center_basis(catalog.quaternion8(), f3)


class TestSocle:
    def test_q8_agrees_with_oracle(self, f2):
        soc = socle_centrally_essential(catalog.quaternion8(), f2)
        ora = oracle_centrally_essential(catalog.quaternion8(), f2)
        assert soc.verdict == ora.verdict == ESSENTIAL

    def test_d16_essential(self, f2):
        assert socle_centrally_essential(catalog.dihedral(16), f2).verdict == ESSENTIAL

    def test_counterexample_group_negative(self, f2):
        soc = socle_centrally_essential(catalog.p5_class3_group(2), f2)
        assert soc.verdict == NOT_ESSENTIAL
        assert soc.witness is not None and not soc.witness.flags.writeable
        alg = GroupAlgebra(catalog.p5_class3_group(2), f2)
        assert not alg.is_central(soc.witness)
        ok, _ = candidate_admits_central_multiple(alg, soc.witness)
        assert not ok

    def test_trivial_group(self, f2):
        assert socle_centrally_essential(catalog.cyclic(1), f2).verdict == ESSENTIAL

    def test_rejects_wrong_characteristic(self, f3):
        with pytest.raises(ValueError):
            socle_centrally_essential(catalog.quaternion8(), f3)

    @pytest.mark.parametrize("spec,p,verdict", [
        ("prop29:3", 3, NOT_ESSENTIAL), ("Q8", 2, ESSENTIAL)])
    def test_class_sums_built_once(self, monkeypatch, spec, p, verdict):
        # the radical basis and the re-verification share one GroupAlgebra
        built = []
        center_basis = GroupAlgebra.center_basis.func

        def counting(self):
            built.append(self)
            return center_basis(self)

        prop = cached_property(counting)
        prop.__set_name__(GroupAlgebra, "center_basis")
        monkeypatch.setattr(GroupAlgebra, "center_basis", prop)
        soc = socle_centrally_essential(catalog.get(spec), field_make(p, 1))
        assert soc.verdict == verdict
        assert len(built) == 1


# -- the socle containment test against its rank form ------------------------------


def _socle_rows(alg: GroupAlgebra) -> np.ndarray:
    """RREF basis rows of the annihilator of the radical of the center,
    intersecting the kernels of the dense left multiplication matrices.
    The RREF basis of a subspace is unique, so the decider's rows match."""
    F, n = alg.field, alg.dim
    basis = Matrix(F, np.eye(n, dtype=np.int64))  # rows span the running space
    for b in radical_center_basis(alg.group, F):
        lm = alg.left_mult_matrix(b)
        ker = lm.matmul(Matrix(F, basis.data.T)).nullspace()
        basis = ker.matmul(basis)
    red, piv = basis.rref()
    return red.data[: len(piv)]


def _rank_containment(alg: GroupAlgebra, rows: np.ndarray):
    """The parent's containment test: the socle lies in C when stacking its
    rows under the class-sum matrix keeps the rank at dim C; otherwise the
    excess is the first row that is_central rejects."""
    zmat, _ = alg.center_matrix
    if Matrix(alg.field, np.vstack([zmat.data, rows])).rank() == len(alg.center_basis):
        return ESSENTIAL, None
    return NOT_ESSENTIAL, next(x for x in rows if not alg.is_central(x))


def _prime_of(n: int) -> int:
    return next((p for p in range(2, n + 1) if n % p == 0), 2)


def _is_p_group(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


CONTAINMENT_CASES = [
    (spec, _prime_of(g.n), k)
    for spec, g in catalog.standard_entries()
    + [(s, catalog.get(s)) for s in ("D16", "QD16", "Q16", "D32", "H5")]
    if _is_p_group(g.n, _prime_of(g.n))
    for k in (1, 2)
]


@pytest.mark.parametrize("spec,p,k", CONTAINMENT_CASES)
def test_socle_containment_matches_rank_reference(monkeypatch, spec, p, k):
    g, fld = catalog.get(spec), field_make(p, k)
    alg = GroupAlgebra(g, fld)
    rows = _socle_rows(alg)
    verdict, excess = _rank_containment(alg, rows)
    central_calls, rank_calls = [], []
    is_central, rank = GroupAlgebra.is_central, Matrix.rank
    monkeypatch.setattr(GroupAlgebra, "is_central",
                        lambda a, x: central_calls.append(x) or is_central(a, x))
    monkeypatch.setattr(Matrix, "rank", lambda m: rank_calls.append(m) or rank(m))
    soc = socle_centrally_essential(g, fld)
    assert (soc.verdict, soc.details["socle_dim"]) == (verdict, rows.shape[0])
    if excess is None:
        assert soc.witness is None and not central_calls and not rank_calls
    else:
        assert soc.witness.tolist() == excess.tolist()
        # the class-constancy verdict is checked once, by the commutation route
        assert [x.tolist() for x in central_calls] == [excess.tolist()]


def _fg_chain_rows(alg: GroupAlgebra) -> np.ndarray:
    """The socle rows by the chain run at full dimension in FG, link by link
    over the whole radical basis, z - 1 for central z included: the
    decider's chain before it moved to F[G/Z], kept as its reference."""
    F, n = alg.field, alg.dim
    rad = decision._radical_basis(alg)
    basis, first = np.eye(n, dtype=np.int64), True
    for b in rad:
        restricted = alg._mul_arrays(b, basis.T).T
        if not restricted.any():
            continue  # b already annihilates the running space
        ker = Matrix(F, restricted).nullspace()
        if ker.data.shape[0] == 0:
            basis = np.zeros((n, 0), dtype=np.int64)
            break
        # ker rows are coordinates w.r.t. the current basis
        basis = ker.data.T if first else Matrix(F, basis).matmul(Matrix(F, ker.data.T)).data
        first = False
    red, pivots = Matrix(F, basis.T).rref()
    return red.data[: len(pivots)]


@pytest.mark.parametrize("spec,p,k", [
    ("H3 x C3", 3, 1), ("H3 x C3", 3, 2), ("D8 x C4", 2, 1), ("D8 x C4", 2, 2),
    ("Q8 x C2 x C2", 2, 1), ("H5", 5, 1), ("H5", 5, 2), ("H7", 7, 1),
    ("prop29:2", 2, 2), ("prop29:3", 3, 1),
    # class >= 3, where the links in F[G/Z] are not all zero, and more than
    # the first non-singleton class is needed
    ("QD16 x C4", 2, 1), ("QD16 x C4", 2, 2), ("D16 x D8", 2, 1), ("prop29:3", 3, 2),
])
def test_quotient_chain_matches_fg_chain(spec, p, k):
    g, fld = catalog.get(spec), field_make(p, k)
    assert len(g.center) >= 3 or k > 1  # links skipped, or an extension field
    alg = GroupAlgebra(g, fld)
    rows = _fg_chain_rows(alg)
    assert decision._radical_annihilator(alg).tolist() == rows.tolist()
    outside = (rows != rows[:, g.conjugacy.rep]).any(axis=1)
    soc = socle_centrally_essential(g, fld)
    assert soc.details["socle_dim"] == rows.shape[0]
    if outside.any():
        assert soc.verdict == NOT_ESSENTIAL
        assert soc.witness.tolist() == rows[np.argmax(outside)].tolist()
    else:
        assert soc.verdict == ESSENTIAL and soc.witness is None


@pytest.mark.parametrize("spec", ["D16", "QD16 x C4", "prop29:3", "H5 x C5"])
@pytest.mark.parametrize("k", [1, 2])
def test_rref_lifts_by_cosets(rng, spec, k):
    # the chain takes its RREF in F[G/Z] and lifts it: cosets are numbered
    # by their least members, so the lift of an RREF is the RREF of the lift
    g = catalog.get(spec)
    fld = field_make(_prime_of(g.n), k)
    quo, coset_of = g.quotient_map(g.center)
    m, least = quo.n, np.unique(coset_of, return_index=True)[1]
    assert 1 < m < g.n
    for s in (1, m // 2, m, m + 2):
        b = rng.integers(0, fld.order, size=(s, m))
        b[s // 2 :] = b[: s - s // 2]  # repeated rows: rank below s
        red, piv = Matrix(fld, b).rref()
        lifted, lifted_piv = Matrix(fld, b[:, coset_of]).rref()
        assert red.data[:, coset_of].tolist() == lifted.data.tolist()
        assert lifted_piv == least[piv].tolist()


@pytest.mark.parametrize("spec,p,k", CONTAINMENT_CASES)
def test_every_link_kills_the_coset_sum(spec, p, k):
    # K Sigma_{G/Z} = (|K| mod p) Sigma_{G/Z} = 0 for a non-singleton class
    # K of a p-group, so no kernel of the chain in F[G/Z] is empty
    g, fld = catalog.get(spec), field_make(p, k)
    quo, coset_of = g.quotient_map(g.center)
    qalg, ones = GroupAlgebra(quo, fld), np.ones(quo.n, dtype=np.int64)
    for cls in g.conjugacy.classes:
        kbar = np.bincount(coset_of[list(cls)], minlength=quo.n) % p
        if len(cls) > 1 and kbar.any():
            assert not qalg._mul_arrays(kbar, ones).any()
            assert not fld.vmatmul(qalg.left_mult_matrix(kbar).data, ones).any()


def _basis_row(n: int, i: int) -> np.ndarray:
    row = np.zeros(n, dtype=np.int64)
    row[i] = 1
    return row


def _noncentral(g: FiniteGroup) -> int:
    return next(i for i in range(g.n) if i not in g.center)


# faults injected into the socle decider on prop29:2 over GF(2), and the
# check that must catch each
_radical_basis = decision._radical_basis
SOCLE_FAULTS = {
    # the identity 1 joins the radical basis: it is not nilpotent
    "non-nilpotent radical row": (
        "_radical_basis",
        lambda alg: [_basis_row(alg.dim, 0)] + _radical_basis(alg),
        "not nilpotent"),
    # a group element g outside the center as the socle: b g != 0 for b != 0
    "socle row the radical does not annihilate": (
        "_radical_annihilator",
        lambda alg: _basis_row(alg.dim, _noncentral(alg.group))[None, :],
        "not annihilated by the radical"),
}


@pytest.mark.parametrize("name", SOCLE_FAULTS)
def test_socle_checks_catch_injected_faults(monkeypatch, f2, name):
    target, fault, message = SOCLE_FAULTS[name]
    monkeypatch.setattr(decision, target, fault)
    with pytest.raises(decision.CrossValidationError, match=message):
        socle_centrally_essential(catalog.p5_class3_group(2), f2)


# the three routes that report a witness row, and the name each gives it
WITNESS_ROUTES = {
    "oracle": (lambda: oracle_centrally_essential(catalog.sym3(), field_make(2)).witness,
               "oracle counterexample"),
    "socle": (lambda: socle_centrally_essential(catalog.get("prop29:2"), field_make(2)).witness,
              "socle excess vector"),
    "center-sum": (lambda: witness_not_ce(catalog.get("prop29:3"), field_make(3))[0],
                   "center-sum witness"),
}


@pytest.mark.parametrize("route", WITNESS_ROUTES)
def test_each_witness_route_certifies_its_row_once(monkeypatch, route):
    run, what = WITNESS_ROUTES[route]
    calls, certified = [], decision._certified

    def spy(alg, row, name):
        calls.append((row, name))
        return certified(alg, row, name)

    monkeypatch.setattr(decision, "_certified", spy)
    witness = run()
    assert len(calls) == 1 and calls[0][0] is witness and calls[0][1] == what
    assert not witness.flags.writeable


@pytest.mark.parametrize("fault", ["central", "central multiple"])
@pytest.mark.parametrize("route", WITNESS_ROUTES)
def test_each_witness_route_refuses_a_faulty_row(monkeypatch, route, fault):
    run, what = WITNESS_ROUTES[route]
    if fault == "central":
        monkeypatch.setattr(GroupAlgebra, "is_central", lambda a, x: True)
        message = f"{what} is central"
    else:
        admits = candidate_admits_central_multiple
        monkeypatch.setattr(decision, "candidate_admits_central_multiple",
                            lambda alg, x: (True, admits(alg, x)[1]))
        message = f"{what} failed the rank re-verification"
    with pytest.raises(decision.CrossValidationError) as info:
        run()
    assert str(info.value) == message


def test_guard_squares_each_block_at_most_log_n_times(monkeypatch, f2):
    # D256: the guard squares every live radical row of a block in one
    # product per level, at most ceil(log2 256) = 8 levels; one squaring per
    # row and level made 324 products
    g = catalog.get("D256")
    squarings, mul = [], GroupAlgebra._mul_arrays

    def counting(alg, x, y):
        if alg.group is g and x is y:
            squarings.append(len(x))
        return mul(alg, x, y)

    monkeypatch.setattr(GroupAlgebra, "_mul_arrays", counting)
    assert socle_centrally_essential(g, f2).verdict == ESSENTIAL
    rows = len(decision._radical_basis(GroupAlgebra(g, f2)))
    blocks = list(row_blocks(rows, g.n, fields._PAIRS))
    assert 0 < len(squarings) <= 8 * len(blocks)
    assert max(squarings) <= blocks[0].stop


@pytest.mark.parametrize("spec,p,bound", [
    # the stacked blocks of radical rows and their products and bins stay
    # within 0.1 MB of one product per row (1.15 MB; 3.3 MB when one block
    # held all 144 radical rows)
    ("H5 x C5", 5, 1.25 * 2**20),
    # the chain's first link dominates (18.1 MB when its product was
    # gathered and the identity basis lived through its nullspace)
    ("D1024", 2, 19.1 * 2**20),
])
def test_socle_peak_memory(spec, p, bound):
    g, F = catalog.get(spec), field_make(p)
    g.conjugacy, g.center  # the group's analyses are built before tracing
    tracemalloc.start()
    try:
        socle_centrally_essential(g, F)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


@pytest.mark.parametrize("method", ["auto", "structural"])
def test_central_coset_condition_evaluated_once(monkeypatch, f3, method):
    # decide and witness_not_ce both ask for the predicate on a negative
    # verdict; the group evaluates it once
    evaluated = []
    body = FiniteGroup._central_coset.func

    def counting(group):
        evaluated.append(group)
        return body(group)

    prop = cached_property(counting)
    prop.__set_name__(FiniteGroup, "_central_coset")
    monkeypatch.setattr(FiniteGroup, "_central_coset", prop)
    g = catalog.get("prop29:3")
    g.__dict__.pop("_central_coset", None)  # evaluated afresh
    report = decide(g, f3, method)
    assert report.verdict == NOT_ESSENTIAL and report.witnesses
    assert len(evaluated) == 1


def test_decide_builds_the_class_sums_once(monkeypatch, f3):
    # on a negative verdict at class > 2 the socle decider and the
    # center-sum witness certify their rows in one algebra of the p-part
    built = []
    center_basis = GroupAlgebra.center_basis.func

    def counting(self):
        built.append(self)
        return center_basis(self)

    prop = cached_property(counting)
    prop.__set_name__(GroupAlgebra, "center_basis")
    monkeypatch.setattr(GroupAlgebra, "center_basis", prop)
    report = decide(catalog.get("prop29:3"), f3)
    assert report.verdict == NOT_ESSENTIAL
    assert [w["kind"] for w in report.witnesses] == ["socle_excess", "center_sum_translate"]
    assert len(built) == 1


class TestDecomposition:
    def test_s3_at_3(self):
        d = decompose_p(catalog.sym3(), 3)
        assert d.p_part_is_subgroup
        assert not d.parts_commute
        assert not d.is_direct

    def test_s3_at_2(self):
        d = decompose_p(catalog.sym3(), 2)
        assert not d.p_part_is_subgroup
        assert not d.is_direct

    def test_c6_at_3(self):
        d = decompose_p(catalog.cyclic(6), 3)
        assert d.is_direct and d.h_abelian
        assert len(d.p_part) == 3 and len(d.p_prime_part) == 2

    def test_q8_x_c3_at_2(self):
        g = catalog.get("Q8 x C3")
        d = decompose_p(g, 2)
        assert d.is_direct
        assert len(d.p_part) == 8 and len(d.p_prime_part) == 3
        assert fingerprint(g.subgroup(d.p_part)) == fingerprint(catalog.quaternion8())

    def test_direct_implies_factorization(self):
        for spec, p in [("C6", 3), ("C12", 2), ("Q8 x C3", 2), ("C6", 2)]:
            g = catalog.get(spec)
            d = decompose_p(g, p)
            assert d.is_direct
            assert len(d.p_part) * len(d.p_prime_part) == g.n
            assert set(d.p_part) & set(d.p_prime_part) == {0}


# -- the Sylow split from generating sets against the dense table slices ----------


def _assert_split_matches_dense(g):
    for p in range(2, g.n + 1):
        if g.n % p == 0 and fields.is_prime(p):
            assert decompose_p(g, p) == decompose_p_dense(g, p), (g.name, p)


def test_sylow_split_matches_dense_slices_on_standard_entries():
    for _, g in catalog.standard_entries():
        _assert_split_matches_dense(g)


@pytest.mark.parametrize("spec", ["C1024", "D512", "H7 x C9", "S3 x C64", "Q8 x C125", "C5 x S3"])
def test_sylow_split_matches_dense_slices(spec):
    _assert_split_matches_dense(catalog.get(spec))


def test_sylow_split_fails_each_test_somewhere():
    # among the groups above: P not closed, P and H not commuting, H not abelian
    s3_2, s3_3 = decompose_p(catalog.sym3(), 2), decompose_p(catalog.sym3(), 3)
    c5_s3 = decompose_p(catalog.get("C5 x S3"), 5)
    assert not s3_2.p_part_is_subgroup
    assert s3_3.p_part_is_subgroup and not s3_3.parts_commute
    assert c5_s3.p_part_is_subgroup and c5_s3.parts_commute and not c5_s3.h_abelian


class TestDecide:
    def test_q8_gf2(self, f2):
        r = decide(catalog.quaternion8(), f2)
        assert r.verdict == ESSENTIAL and r.reason == "nc_le_2"

    def test_q8_x_c3_gf2_crossvalidated(self, f2):
        r = decide(catalog.get("Q8 x C3"), f2, method="crossvalidate")
        assert r.verdict == ESSENTIAL
        assert ("socle", ESSENTIAL) in r.cross_checks
        # 2^24 candidates exceed the default budget: no oracle cross-check
        assert not any(name == "oracle" for name, _ in r.cross_checks)

    def test_crossvalidate_runs_oracle_in_budget(self, f2):
        r = decide(catalog.quaternion8(), f2, method="crossvalidate")
        assert ("oracle", ESSENTIAL) in r.cross_checks

    def test_crossvalidate_skips_the_oracle_past_its_index(self, f2):
        # 2^64 candidates reach the oracle's int64 index at any budget: the
        # cross-check is skipped, not raised
        r = decide(catalog.dihedral(64), f2, "crossvalidate", budget=2**70)
        assert r.verdict == ESSENTIAL and r.method == "socle"
        assert not any(name == "oracle" for name, _ in r.cross_checks)

    def test_counterexample_group_gf3(self, f3):
        r = decide(catalog.p5_class3_group(3), f3)
        assert r.verdict == NOT_ESSENTIAL
        assert r.method == "socle" and r.reason == "socle_outside_center"
        kinds = {w["kind"] for w in r.witnesses}
        assert kinds == {"socle_excess", "center_sum_translate"}

    def test_s3_decomposition_failure(self, f2, f3):
        for f in (f2, f3):
            r = decide(catalog.sym3(), f)
            assert r.verdict == NOT_ESSENTIAL
            assert r.reason == "sylow_decomposition_failed"

    def test_nonabelian_p_prime_group(self):
        # a 2-group over characteristic 3: H = G must be abelian
        r = decide(catalog.dihedral(8), field_make(3))
        assert r.verdict == NOT_ESSENTIAL
        assert r.reason == "sylow_decomposition_failed"

    def test_rejects_bad_mode(self, f2):
        with pytest.raises(ValueError):
            decide(catalog.quaternion8(), f2, method="fast")

    def test_timings_recorded(self, f2):
        r = decide(catalog.quaternion8(), f2)
        assert "decompose" in r.timings

    def test_structural_route_runs_the_same_steps(self, f2):
        # the pipeline times the same steps; the report keeps the structural
        # details, with no decomposition and no p-part order
        r = decide(catalog.get("Q8 x C3"), f2, "structural")
        assert (r.method, r.reason) == ("structural", "nc_le_2")
        assert set(r.timings) == {"decompose", "central_series"}
        assert r.details == {"p_part_class": 2}

    @pytest.mark.parametrize("spec,p", [("Q8", 2), ("D16", 2), ("H3", 3), ("C9", 3),
                                        ("prop29:2", 2), ("prop29:3", 3)])
    def test_p_group_is_its_own_p_part(self, validated_orders, inherited_orders, spec, p):
        g = catalog.get(spec)
        assert decision._p_part_group(g, decompose_p(g, p)) is g
        validated_orders.clear()
        inherited_orders.clear()
        decide(g, field_make(p))
        # no copy of g as its own p-part; at most the socle chain's G/Z
        assert validated_orders == []
        assert inherited_orders in ([], [g.n // len(g.center)])

    def test_p_part_subgroup_is_the_one_group_built(self, validated_orders, inherited_orders, f2):
        g = catalog.get("Q8 x C3")
        validated_orders.clear()
        inherited_orders.clear()
        r = decide(g, f2)
        # counted on both constructor paths: the subgroup inherits the axioms
        assert validated_orders == [] and inherited_orders == [8]
        assert r.details["p_part_order"] == 8

    def test_h11_socle_agrees_with_sylow_shortcut(self):
        # order 1331 is far beyond the oracle; the socle chain checks the
        # class <= 2 shortcut there instead
        g, f11 = catalog.get("H11"), field_make(11)
        auto = decide(g, f11)
        assert auto.reason == "nc_le_2"
        soc = decide(g, f11, "socle")
        assert soc.reason == "socle_inside_center"
        assert soc.verdict == auto.verdict == ESSENTIAL


@pytest.mark.parametrize("spec,p", [("prop29:2 x C3", 2), ("prop29:3 x C2", 3), ("prop29:5 x C2", 5)])
def test_p_part_witnesses_lift_to_fg(spec, p):
    # Theorem 1.1 at orders the oracle cannot reach: the auto route finds its
    # witnesses in F[P], P the p-part; mapped into FG by label, each stays
    # non-central there and admits no central multiple
    g, fld = catalog.get(spec), field_make(p)
    r = decide(g, fld)
    assert r.verdict == NOT_ESSENTIAL and r.details["p_part_order"] < g.n
    assert {w["kind"] for w in r.witnesses} == {"socle_excess", "center_sum_translate"}
    alg = GroupAlgebra(g, fld)
    for w in r.witnesses:
        x = from_support(alg, [(index_of_label(g, lab), v) for lab, v in w["element"]])
        assert not alg.is_central(x)
        admits, art = candidate_admits_central_multiple(alg, x)
        assert not admits and art["intersection_dim"] == 0


class TestDecideChar0:
    def test_abelian_positive(self):
        assert decide(catalog.cyclic(6), None).verdict == ESSENTIAL

    def test_q8_negative(self):
        r = decide(catalog.quaternion8(), None)
        assert r.verdict == NOT_ESSENTIAL and r.method == "char0"

    def test_s3_negative(self):
        assert decide(catalog.sym3(), None).verdict == NOT_ESSENTIAL


class TestStructural:
    def test_counterexample_without_linear_algebra_decider(self, f2):
        r = decide(catalog.p5_class3_group(2), f2, "structural")
        assert r.verdict == NOT_ESSENTIAL
        assert r.reason == "central_coset_witness"
        assert r.witnesses[0]["kind"] == "center_sum_translate"

    def test_d16_undecided(self, f2):
        with pytest.raises(StructuralUndecidedError):
            decide(catalog.dihedral(16), f2, "structural")

    def test_shortcut_cases(self, f2):
        assert decide(catalog.quaternion8(), f2, "structural").verdict == ESSENTIAL
        assert decide(catalog.sym3(), f2, "structural").verdict == NOT_ESSENTIAL


class TestWitnessCE:
    def test_central_input_gives_identity(self, f2):
        alg = GroupAlgebra(catalog.quaternion8(), f2)
        one = basis(alg, 0)
        assert np.array_equal(witness_ce(catalog.quaternion8(), f2, one), one)

    def test_quaternion_i(self, f2):
        q8 = catalog.quaternion8()
        alg = GroupAlgebra(q8, f2)
        x = basis(alg, index_of_label(q8, "i"))
        c = witness_ce(q8, f2, x)
        minus_one = index_of_label(q8, "-1")
        assert np.array_equal(c, from_support(alg, [(0, 1), (minus_one, 1)]))
        xc = alg._mul_arrays(x, c)
        assert xc.any() and alg.is_central(xc)
        assert {q8.label(i) for i in np.flatnonzero(xc)} == {"i", "-i"}

    def test_heisenberg_random(self, f3, rng):
        h = catalog.heisenberg(3)
        alg = GroupAlgebra(h, f3)
        for _ in range(25):
            x = random_nonzero(alg, rng)
            c = witness_ce(h, f3, x)
            xc = alg._mul_arrays(x, c)
            assert alg.is_central(c)
            assert xc.any()
            assert alg.is_central(xc)

    def test_rejects_class_three(self, f2):
        g = catalog.p5_class3_group(2)
        alg = GroupAlgebra(g, f2)
        with pytest.raises(ValueError, match="class"):
            witness_ce(g, f2, basis(alg, 0))

    def test_rejects_zero(self, f2):
        alg = GroupAlgebra(catalog.quaternion8(), f2)
        with pytest.raises(ValueError, match="nonzero"):
            witness_ce(catalog.quaternion8(), f2, np.zeros(alg.dim, dtype=np.int64))


class TestWitnessNotCE:
    @pytest.mark.parametrize("p", [2, 3])
    def test_counterexample_groups(self, p):
        g = catalog.p5_class3_group(p)
        fld = field_make(p)
        x, transcript = witness_not_ce(g, fld)
        assert transcript["intersection_dim"] == 0
        alg = GroupAlgebra(g, fld)
        assert x.any() and not x.flags.writeable and not alg.is_central(x)
        # x is the least non-Z2 element times the center sum
        z2 = set(g.upper_central_series.subgroups[2])
        least = next(i for i in range(g.n) if i not in z2)
        want = from_support(alg, [(g.mul(least, z), 1) for z in g.center])
        assert np.array_equal(x, want)

    def test_rejects_low_class(self, f2):
        with pytest.raises(ValueError):
            witness_not_ce(catalog.quaternion8(), f2)

    def test_rejects_missing_coset_condition(self, f2):
        with pytest.raises(ValueError, match="coset"):
            witness_not_ce(catalog.dihedral(16), f2)


# -- consistency predicates that only the tests use -----------------------------


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
    t, orders = group.table, element_orders(group)
    for q in qs:
        q_elems = np.flatnonzero((_p_part(n, q) % orders == 0) & (orders > 1))
        # in_sub[i, y]: y lies in the cyclic subgroup of q_elems[i]
        in_sub = np.zeros((q_elems.size, n), dtype=bool)
        rows = np.arange(q_elems.size)
        cur = q_elems
        for _ in range(int(orders[q_elems].max(initial=1))):
            in_sub[rows, cur] = True
            cur = t[cur, q_elems]
        # <x> is normal once s^-1 x s lies in it for every generator s
        conj = group.conjugators[:, q_elems].T
        if not in_sub[rows[:, None], conj].all():
            return False
        span = np.asarray(group.subgroup_generated(q_elems.tolist()))
        t_ss = t[span[:, None], span]
        if not (t_ss == t_ss.T).all():
            return False
    return True


def central_idempotent_check(group: FiniteGroup, fld) -> bool:
    """Consistency of subgroup idempotents: e_H is idempotent for every
    cyclic H with |H| coprime to the characteristic, and central whenever
    the algebra is centrally essential."""
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
        if not np.array_equal(alg._mul_arrays(e, e), e):
            return False
        if verdict == ESSENTIAL and not alg.is_central(e):
            return False
    return True


class TestQSubgroupsAndIdempotents:
    def test_q8_vacuous(self):
        assert check_q_subgroups(catalog.quaternion8(), 2)

    def test_s3_fails(self):
        assert not check_q_subgroups(catalog.sym3(), 3)

    def test_c6_passes(self):
        assert check_q_subgroups(catalog.cyclic(6), 3)

    def test_central_idempotents(self, f2, f3):
        assert central_idempotent_check(catalog.cyclic(6), f3)
        assert central_idempotent_check(catalog.get("Q8 x C3"), f2)
        assert central_idempotent_check(catalog.sym3(), f2)


class TestVerdictsOverExtensionFields:
    def test_q8_gf4(self, f4):
        r = decide(catalog.quaternion8(), f4, method="crossvalidate")
        assert r.verdict == ESSENTIAL
        assert ("oracle", ESSENTIAL) in r.cross_checks


# -- independence from the extension degree ------------------------------------------
#
# J(Z(FG)) and annihilators commute with extending the perfect field GF(p) to
# GF(p^k), so the verdict over GF(p^k) is the verdict over GF(p).

K_INDEPENDENCE_SPECS = [s for s, _ in catalog.standard_entries()] + [
    "D16", "QD16", "Q16", "H5", "S3 x C3", "Q8 x C3"]


@pytest.mark.parametrize("spec", K_INDEPENDENCE_SPECS)
def test_verdict_independent_of_extension_degree(spec):
    g = catalog.get(spec)
    for p in (2, 3, 5):
        methods = ["auto", "socle"] if _is_p_group(g.n, p) else ["auto"]
        for method in methods:
            base = decide(g, field_make(p), method).verdict
            for k in (2, 3):
                assert decide(g, field_make(p, k), method).verdict == base, (p, k, method)


@pytest.mark.parametrize("spec", ["S3", "D8", "Q8"])
def test_oracle_verdict_over_gf4_is_the_gf2_verdict(spec, f2, f4):
    g = catalog.get(spec)
    assert oracle_centrally_essential(g, f4).verdict == oracle_centrally_essential(g, f2).verdict


# -- invariance under relabeling the group elements -----------------------------

RELABEL_CASES = [
    ("Q8", 2), ("D16", 2), ("QD16", 2), ("order16:12", 2), ("S3", 2), ("S3", 3),
    ("D12", 3), ("Q8 x C3", 2), ("H3", 3), ("prop29:2", 2),
]


def _relabel(g, perm):
    """The same group with element x renamed perm[x]; perm fixes 0."""
    table = np.empty_like(g.table)
    table[np.ix_(perm, perm)] = perm[g.table]
    labels = [""] * g.n
    for x in range(g.n):
        labels[perm[x]] = g.label(x)
    return FiniteGroup(table, g.name, labels)


@st.composite
def _relabelings(draw):
    spec, p = draw(st.sampled_from(RELABEL_CASES))
    g = catalog.get(spec)
    rest = draw(st.permutations(range(1, g.n)))
    return g, p, np.array([0, *rest])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_relabelings())
def test_relabeling_invariance(case):
    g, p, perm = case
    h = _relabel(g, perm)
    assert sorted(element_orders(h).tolist()) == sorted(element_orders(g).tolist())
    dg, dh = decompose_p(g, p), decompose_p(h, p)
    assert (len(dh.p_part), len(dh.p_prime_part), dh.is_direct) == (
        len(dg.p_part), len(dg.p_prime_part), dg.is_direct)
    assert sorted(h.conjugacy.sizes) == sorted(g.conjugacy.sizes)
    assert ([len(s) for s in h.upper_central_series.subgroups]
            == [len(s) for s in g.upper_central_series.subgroups])
    fld = field_make(p)
    rg, rh = decide(g, fld), decide(h, fld)
    assert (rh.verdict, rh.reason) == (rg.verdict, rg.reason)
    assert len(rh.witnesses) == len(rg.witnesses)
    alg = GroupAlgebra(h, fld)
    for w in rh.witnesses:
        x = from_support(alg, [(index_of_label(h, lab), v) for lab, v in w["element"]])
        assert not alg.is_central(x)
        admits, _ = candidate_admits_central_multiple(alg, x)
        assert not admits
