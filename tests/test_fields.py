import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cealg.fields import (
    EXACT_FLOAT,
    GF,
    Matrix,
    _decode_base,
    _poly_mod,
    field_make,
    is_prime,
    rank_batched,
)
from reference import batched_ranks, rref_by_columns


class TestConstruction:
    def test_gf2(self, f2):
        assert f2.order == 2
        assert f2.add(1, 1) == 0

    def test_gf3_arithmetic(self, f3):
        assert f3.add(2, 2) == 1
        assert f3.add(1, f3.neg(2)) == 2
        assert f3.mul(1, f3.inv(2)) == 2
        assert f3.inv(2) == 2
        assert f3.neg(1) == 2

    def test_gf4_modulus_and_inverse(self, f4):
        # least irreducible is t^2 + t + 1; t = 2, t+1 = 3
        assert f4.modulus == (1, 1, 1)
        assert f4.mul(2, 3) == 1
        assert f4.inv(2) == 3

    def test_gf4_axioms_exhaustive(self, f4):
        els = range(4)
        for a in els:
            for b in els:
                assert f4.add(a, b) == f4.add(b, a)
                assert f4.mul(a, b) == f4.mul(b, a)
                for c in els:
                    assert f4.add(f4.add(a, b), c) == f4.add(a, f4.add(b, c))
                    assert f4.mul(f4.mul(a, b), c) == f4.mul(a, f4.mul(b, c))
                    assert f4.mul(a, f4.add(b, c)) == f4.add(f4.mul(a, b), f4.mul(a, c))

    def test_modulus_deterministic(self):
        assert field_make(2, 3).modulus == (1, 0, 1, 1)
        assert field_make(3, 2).modulus == (1, 0, 1)

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            GF(4)
        with pytest.raises(ValueError):
            GF(1)

    def test_rejects_order_overflow(self):
        with pytest.raises(ValueError):
            GF(2, 17)

    def test_inverse_of_zero(self, f3):
        with pytest.raises(ZeroDivisionError):
            f3.inv(0)

    def test_large_extension_field(self):
        # above the table threshold: log/exp route
        F = field_make(2, 10)
        assert F.order == 1024
        x = 700
        assert F.mul(x, F.inv(x)) == 1
        assert F.mul(3, F.mul(5, 7)) == F.mul(F.mul(3, 5), 7)

    @pytest.mark.parametrize("p, k", [(2, 8), (3, 5), (5, 3), (7, 1), (257, 1)])
    def test_log_exp_match_scalar_walk(self, p, k):
        F = GF(p, k)
        q = F.order
        g, x = F._find_generator(), 1
        exp, log = [], np.zeros(q, dtype=np.int64)
        for i in range(q - 1):
            exp.append(x)
            log[x] = i
            x = F._mul_scalar(x, g)
        assert x == 1
        assert F._exp[: q - 1].tolist() == exp and F._log[1:].tolist() == log[1:].tolist()
        # log[0] reaches past the second cycle, into the zero tail
        assert F._log[0] == 2 * (q - 1)
        assert F._exp[q - 1 :].tolist() == exp + [0] * (2 * q - 1)
        assert F._dig.tolist() == [_decode_base(x, p, k) for x in range(F.order)]

    def test_largest_field_builds_fast(self):
        t0 = time.process_time()
        F = GF(2, 16)
        assert time.process_time() - t0 < 1.0
        assert F.modulus == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)
        assert F.mul(F.inv(40000), 40000) == 1

    def test_encode_decode_roundtrip(self, f4):
        # the base-p digits of an encoding, low first, encode it again
        for x in range(4):
            assert sum(c * 2**i for i, c in enumerate(_decode_base(x, 2, 2))) == x

    def test_is_prime(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


@pytest.mark.parametrize("p, k", [(2, 1), (5, 1), (2, 2), (3, 5), (2, 10)])
def test_pow_matches_repeated_mul_and_inv(p, k):
    F = field_make(p, k)
    for a in sorted(set(range(0, F.order, max(1, F.order // 40))) | {F.order - 1}):
        for e in range(-4, 10):
            if a == 0 and e < 0:
                with pytest.raises(ZeroDivisionError):
                    F.pow(a, e)
                continue
            base, out = (a if e >= 0 else F.inv(a)), 1
            for _ in range(abs(e)):
                out = F.mul(out, base)
            assert F.pow(a, e) == out, (a, e)


@pytest.mark.parametrize("p, k", [(2, 1), (5, 1), (2, 2), (5, 2), (2, 10)])
def test_vsum_at_matches_scalar_adds(p, k):
    # repeated indices sum, absent ones stay 0, as a loop of GF.add does
    F, rng = field_make(p, k), np.random.default_rng(p * 100 + k)
    size = 23
    for length in (0, 1, 40, 500):
        idx = rng.integers(0, size - 3, size=length)  # the last bins stay absent
        vals = rng.integers(0, F.order, size=length)
        want = [0] * size
        for i, v in zip(idx.tolist(), vals.tolist()):
            want[i] = F.add(want[i], v)
        got = F.vsum_at(idx, vals, size)
        assert got.dtype == np.int64 and got.tolist() == want
    # one bin that every entry hits
    vals = np.full(1000, F.order - 1)
    total = 0
    for v in vals.tolist():
        total = F.add(total, v)
    assert F.vsum_at(np.zeros(1000, dtype=np.int64), vals, 2).tolist() == [total, 0]


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 2), (5, 2), (2, 8), (3, 5), (2, 1), (7, 1)])
def test_find_generator_is_least_of_full_order(p, k):
    # the multiplicative order of each element by a scalar walk; GF(2) gets 1
    F = GF(p, k)

    def order(x):
        t, y = 1, x
        while y != 1:
            y, t = F._mul_scalar(y, x), t + 1
        return t

    least = next(x for x in range(1, F.order) if order(x) == F.order - 1)
    assert F._find_generator() == least


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 2), (5, 2), (2, 8), (3, 5)])
def test_vmul_matches_scalar_on_every_pair(p, k):
    # the zero row and column included
    F = field_make(p, k)
    a = np.arange(F.order)
    got = F.vmul(a[:, None], a[None, :])
    want = [[F._mul_scalar(x, y) for y in range(F.order)] for x in range(F.order)]
    assert got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("p, k", [(2, 10), (3, 7), (5, 6), (2, 16)])
def test_vmul_matches_scalar_on_random_pairs(p, k):
    F, rng = field_make(p, k), np.random.default_rng(p * 100 + k)
    a, b = rng.integers(0, F.order, size=(2, 10**4))
    a[:50] = 0  # zeros in a alone, in both, and in b alone
    b[25:75] = 0
    want = [F._mul_scalar(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert F.vmul(a, b).tolist() == want
    # a scalar times an array, zero included, and an (h, 1) x (1, n) broadcast
    xs, ys = a[40:70].tolist(), b[:100].tolist()
    for s in (0, 1, xs[-1]):
        assert F.vmul(s, b[:100]).tolist() == [F._mul_scalar(s, y) for y in ys]
    outer = F.vmul(a[40:70, None], b[None, :100])
    assert outer.shape == (30, 100)
    assert outer.tolist() == [[F._mul_scalar(x, y) for y in ys] for x in xs]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 257, 65521])
def test_prime_field_negation_and_inverse_tables(p):
    F = GF(p)
    assert F._neg_t.tolist() == [(-x) % p for x in range(p)]
    assert F._inv_t.tolist() == [0] + [pow(x, -1, p) for x in range(1, p)]


def _span_size(field, rows):
    """Independent oracle for rank: count the distinct row combinations."""
    vecs = {tuple(np.zeros(rows.shape[1], dtype=int))}
    for row in rows:
        new = set()
        for v in vecs:
            acc = np.array(v, dtype=np.int64)
            for s in range(1, field.order):
                new.add(tuple(field.vadd(acc, field.vscale(s, row))))
        vecs |= new
    return len(vecs)


class TestMatrix:
    def test_identity_nullspace_empty(self, f2):
        m = Matrix(f2, np.eye(3, dtype=np.int64))
        assert m.nullspace().data.shape[0] == 0
        assert m.rank() == 3

    def test_equal_rows(self, f2):
        m = Matrix(f2, np.array([[1, 1], [1, 1]], dtype=np.int64))
        ns = m.nullspace()
        assert ns.data.tolist() == [[1, 1]]
        assert m.rank() == 1

    def test_zero_matrix_rank(self, f3):
        assert Matrix(f3, np.zeros((4, 5), dtype=np.int64)).rank() == 0

    def test_random_gf3_rank_against_enumeration(self, f3, rng):
        for _ in range(40):
            rows = rng.integers(0, 3, size=(3, 3)).astype(np.int64)
            m = Matrix(f3, rows)
            r = m.rank()
            assert _span_size(f3, rows) == 3**r
            assert m.nullspace().data.shape[0] == 3 - r

    def test_subspace_member_rank(self, f2, rng):
        # five independent rows of GF(2)^8 plus a combination of them
        while True:
            rows = rng.integers(0, 2, size=(5, 8)).astype(np.int64)
            if Matrix(f2, rows).rank() == 5:
                break
        assert _span_size(f2, rows) == 2**5
        combo = rows[[0, 2, 3]].sum(axis=0) % 2
        stacked = Matrix(f2, np.vstack([rows, combo[None, :]]))
        assert stacked.rank() == 5

    def test_nullspace_properties(self, f2, f3, f4, rng):
        for F in (f2, f3, f4):
            for _ in range(25):
                m = Matrix(F, rng.integers(0, F.order, size=(4, 6)).astype(np.int64))
                ns = m.nullspace()
                assert ns.data.shape[0] + m.rank() == 6
                assert not m.matmul(Matrix(F, ns.data.T)).data.any()

    def test_rref_deterministic_and_canonical(self, f3):
        m = Matrix(f3, np.array([[0, 2, 1], [1, 1, 1], [1, 0, 0]], dtype=np.int64))
        red1, piv1 = m.rref()
        red2, piv2 = m.rref()
        assert (red1.data == red2.data).all() and piv1 == piv2
        for r, c in enumerate(piv1):
            assert red1.data[r, c] == 1
            col = red1.data[:, c].copy()
            col[r] = 0
            assert not col.any()

    def test_empty_matrix(self, f2):
        m = Matrix(f2, np.zeros((0, 4), dtype=np.int64))
        assert m.rank() == 0
        assert m.nullspace().data.shape[0] == 4

    def test_matmul_extension_field(self, f4):
        a = Matrix(f4, np.array([[2, 1], [0, 3]], dtype=np.int64))
        b = Matrix(f4, np.array([[1, 2], [3, 0]], dtype=np.int64))
        prod = a.matmul(b)
        for i in range(2):
            for j in range(2):
                want = 0
                for k in range(2):
                    want = f4.add(want, f4.mul(int(a.data[i, k]), int(b.data[k, j])))
                assert prod.data[i, j] == want

    def test_rank_batched_matches_scalar(self, rng):
        # the package's one elimination, Matrix.rank and the rank_batched map
        # over it, against the reference's batched elimination: random,
        # rank-deficient, zero-row and zero-column matrices over prime
        # fields, tabled extensions and the log/exp tables of GF(2^10)
        for p, k in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 10), (257, 1)]:
            F = field_make(p, k)
            for rows, cols in [(5, 7), (7, 5)]:
                mats = rng.integers(0, F.order, size=(40, rows, cols)).astype(np.int64)
                c = int(rng.integers(1, F.order))
                # a dependent last row and a dependent last column
                mats[:10, -1] = F.vadd(mats[:10, 0], F.vscale(c, mats[:10, 2]))
                mats[:10, :, -1] = F.vadd(mats[:10, :, 0], F.vscale(c, mats[:10, :, 2]))
                mats[10:20, :, 3] = 0
                mats[20:25, 2:] = 0
                mats[25:28] = 0
                want = batched_ranks(F, mats).tolist()
                assert max(want[:10]) < min(rows, cols) and max(want[20:25]) <= 2
                assert want[25:28] == [0, 0, 0]
                assert rank_batched(F, mats).tolist() == want
                assert [Matrix(F, m).rank() for m in mats] == want
            for shape in [(6, 0, 7), (6, 5, 0), (6, 0, 0), (0, 5, 7)]:
                empty = np.zeros(shape, dtype=np.int64)
                assert batched_ranks(F, empty).tolist() == [0] * shape[0]
                assert rank_batched(F, empty).tolist() == [0] * shape[0]

    @pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (2, 3), (3, 2), (2, 10), (257, 1)])
    def test_shared_kernels_every_field(self, p, k, rng):
        # tables (q <= 256), log/exp tables (GF(2^10)), no tables (GF(257))
        F = field_make(p, k)
        mats = rng.integers(0, F.order, size=(60, 4, 6)).astype(np.int64)
        mats[:20, 3] = mats[:20, 1]  # some rank-deficient slices
        mats[20:30, :, 2] = 0
        assert batched_ranks(F, mats).tolist() == [Matrix(F, m).rank() for m in mats]
        a = Matrix(F, rng.integers(0, F.order, size=(3, 4)).astype(np.int64))
        b = Matrix(F, rng.integers(0, F.order, size=(4, 5)).astype(np.int64))
        prod = a.matmul(b)
        for i in range(3):
            for j in range(5):
                want = 0
                for t in range(4):
                    want = F.add(want, F.mul(int(a.data[i, t]), int(b.data[t, j])))
                assert prod.data[i, j] == want


# every field the tests above build: prime, tabled, log/exp and untabled
EVERY_FIELD = [(2, 1), (3, 1), (5, 1), (7, 1), (257, 1), (65521, 1), (2, 2), (2, 3),
               (3, 2), (5, 2), (2, 8), (3, 5), (5, 3), (2, 10), (3, 7), (5, 6), (2, 16)]


@pytest.mark.parametrize("p,k", EVERY_FIELD)
def test_rref_jumps_match_the_column_loop(p, k):
    # the RREF that jumps over empty columns against the loop that steps
    # through them: wide, low-rank, zero-column, zero and empty matrices
    F, rng = field_make(p, k), np.random.default_rng(p * 100 + k)
    wide = rng.integers(0, F.order, size=(3, 80))
    low = F.vmatmul(rng.integers(0, F.order, size=(24, 3)), rng.integers(0, F.order, size=(3, 40)))
    sparse_cols = rng.integers(0, F.order, size=(12, 50)) * (rng.random(50) < 0.2)
    late = np.zeros((6, 30), dtype=np.int64)
    late[2:, [7, 8, 29]] = rng.integers(1, F.order, size=(4, 3))
    rank1 = F.vmatmul(rng.integers(0, F.order, size=(9, 1)), rng.integers(1, F.order, size=(1, 35)))
    for a in (wide, low, sparse_cols, late, rank1, sparse_cols.T,
              np.zeros((5, 7), dtype=np.int64), np.zeros((0, 6), dtype=np.int64),
              np.zeros((4, 0), dtype=np.int64)):
        a = np.asarray(a, dtype=np.int64)
        red, pivots = Matrix(F, a).rref()
        want, want_pivots = rref_by_columns(F, a)
        assert (red.data.tolist(), pivots) == (want.tolist(), want_pivots)


@st.composite
def _split_matrices(draw):
    p, k = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (257, 1)]))
    F = field_make(p, k)
    d, n = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    # zeros often, so that some matrices are rank-deficient
    entry = st.one_of(st.just(0), st.integers(0, F.order - 1))
    a = np.array(draw(st.lists(entry, min_size=d * n, max_size=d * n)), dtype=np.int64)
    return F, a.reshape(d, n), draw(st.integers(1, n))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_split_matrices())
def test_no_pivot_past_a_split_iff_the_ranks_agree(case):
    # the oracle's failure test: an RREF with no pivot at or after column s
    # exactly when the whole matrix and its first s columns have one rank
    F, a, s = case
    _, pivots = Matrix(F, a).rref()
    whole, head = batched_ranks(F, a[None])[0], batched_ranks(F, a[None, :, :s])[0]
    assert all(c < s for c in pivots) == (whole == head)


def _matmul_reference(F, a, b):
    """Field product with Python ints: digit polynomials multiplied and
    summed without any reduction, then reduced mod p and the modulus."""
    p, k = F.p, F.k
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    da = [[_decode_base(int(x), p, k) for x in row] for row in a]
    db = [[_decode_base(int(x), p, k) for x in row] for row in b.T]
    for i, ra in enumerate(da):
        for j, cb in enumerate(db):
            acc = [0] * (2 * k - 1)
            for xa, xb in zip(ra, cb):
                for s, ca in enumerate(xa):
                    if ca:
                        for t, cc in enumerate(xb):
                            acc[s + t] += ca * cc
            red = _poly_mod(acc, F.modulus, p) if k > 1 else [acc[0] % p]
            out[i, j] = sum(c * p**e for e, c in enumerate(red))
    return out


class TestVmatmulExactness:
    """The float64 products at the largest sums the exactness bound allows."""

    def test_prime_field_all_max_entries(self):
        F = field_make(65521)
        a = np.full((2, 8192), F.p - 1, dtype=np.int64)
        b = np.full((8192, 3), F.p - 1, dtype=np.int64)
        want = (8192 * (F.p - 1) ** 2) % F.p
        assert (F.vmatmul(a, b) == want).all()

    def test_prime_field_longest_exact_inner(self):
        F = field_make(65521)
        inner = (EXACT_FLOAT - 1) // (F.p - 1) ** 2  # the sum stays below 2^53
        a = np.full((1, inner), F.p - 1, dtype=np.int64)
        b = np.full((inner, 1), F.p - 1, dtype=np.int64)
        assert F.vmatmul(a, b)[0, 0] == (inner * (F.p - 1) ** 2) % F.p

    def test_prime_field_random_against_python_ints(self, rng):
        F = field_make(65521)
        a = rng.integers(F.p - 64, F.p, size=(3, 4096)).astype(np.int64)
        b = rng.integers(F.p - 64, F.p, size=(4096, 2)).astype(np.int64)
        assert (F.vmatmul(a, b) == _matmul_reference(F, a, b)).all()

    @pytest.mark.parametrize("p,k", [(2, 8), (3, 5)])
    def test_extension_field_all_max_digits(self, p, k, rng):
        F = field_make(p, k)
        top = F.order - 1  # every base-p digit is p - 1
        a = np.full((1, 8192), top, dtype=np.int64)
        b = np.full((8192, 2), top, dtype=np.int64)
        b[:5, 1] = rng.integers(0, F.order, size=5)
        assert (F.vmatmul(a, b) == _matmul_reference(F, a, b)).all()
        a = rng.integers(0, F.order, size=(4, 33)).astype(np.int64)
        b = rng.integers(0, F.order, size=(33, 5)).astype(np.int64)
        assert (F.vmatmul(a, b) == _matmul_reference(F, a, b)).all()

    @pytest.mark.parametrize("p,k", [(2, 1), (65521, 1), (3, 5), (2, 16)])
    def test_guard_refuses_inexact_products_before_copying(self, p, k):
        F = field_make(p, k)
        inner = -(-EXACT_FLOAT // (k * (p - 1) ** 2))  # least inner at the bound
        # zero-stride views hold no memory; except over GF(65521), a float
        # copy of either would need petabytes and raise MemoryError, so a
        # ValueError shows the guard came first
        a = np.broadcast_to(np.int64(1), (1, inner))
        b = np.broadcast_to(np.int64(1), (inner, 1))
        with pytest.raises(ValueError, match="exact float64"):
            F.vmatmul(a, b)
