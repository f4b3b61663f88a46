import time

import numpy as np
import pytest

from cealg.fields import GF, Matrix, field_make, is_prime, rank_batched


class TestConstruction:
    def test_gf2(self, f2):
        assert f2.order == 2
        assert f2.add(1, 1) == 0

    def test_gf3_arithmetic(self, f3):
        assert f3.add(2, 2) == 1
        assert f3.sub(1, 2) == 2
        assert f3.div(1, 2) == 2
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
        with pytest.raises(ZeroDivisionError):
            f3.div(1, 0)

    def test_large_extension_field(self):
        # above the table threshold: log/exp route
        F = field_make(2, 10)
        assert F.order == 1024
        x = 700
        assert F.mul(x, F.inv(x)) == 1
        assert F.mul(3, F.mul(5, 7)) == F.mul(F.mul(3, 5), 7)

    @pytest.mark.parametrize("p, k", [(2, 8), (3, 5), (5, 3)])
    def test_log_exp_match_scalar_walk(self, p, k):
        F = GF(p, k)
        g, x = F._find_generator(), 1
        exp, log = [], np.zeros(F.order, dtype=np.int64)
        for i in range(F.order - 1):
            exp.append(x)
            log[x] = i
            x = F._mul_scalar(x, g)
        assert x == 1
        assert F._exp.tolist() == exp and F._log.tolist() == log.tolist()
        assert F._dig.tolist() == [list(F.decode(x)) for x in range(F.order)]

    def test_largest_field_builds_fast(self):
        t0 = time.process_time()
        F = GF(2, 16)
        assert time.process_time() - t0 < 1.0
        assert F.modulus == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1)
        assert F.mul(F.inv(40000), 40000) == 1

    def test_encode_decode_roundtrip(self, f4):
        for x in range(4):
            assert f4.encode(f4.decode(x)) == x

    def test_is_prime(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


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
        assert m.nullspace().rows == 0
        assert m.rank() == 3

    def test_equal_rows(self, f2):
        m = Matrix.from_rows(f2, [[1, 1], [1, 1]])
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
            assert m.nullspace().rows == 3 - r

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
                assert ns.rows + m.rank() == 6
                assert not m.matmul(Matrix(F, ns.data.T)).data.any()

    def test_rref_deterministic_and_canonical(self, f3):
        m = Matrix.from_rows(f3, [[0, 2, 1], [1, 1, 1], [1, 0, 0]])
        red1, piv1 = m.rref()
        red2, piv2 = m.rref()
        assert (red1.data == red2.data).all() and piv1 == piv2
        for r, c in enumerate(piv1):
            assert red1.data[r, c] == 1
            col = red1.data[:, c].copy()
            col[r] = 0
            assert not col.any()

    def test_empty_matrix(self, f2):
        m = Matrix.from_rows(f2, [], cols=4)
        assert m.rank() == 0
        assert m.nullspace().rows == 4

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

    def test_rank_batched_matches_scalar(self, f2, f3, rng):
        for F in (f2, f3):
            mats = rng.integers(0, F.order, size=(150, 5, 7)).astype(np.int64)
            got = rank_batched(F, mats)
            want = [Matrix(F, m).rank() for m in mats]
            assert got.tolist() == want

    @pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (2, 3), (3, 2), (2, 10), (257, 1)])
    def test_shared_kernels_every_field(self, p, k, rng):
        # tables (q <= 256), log/exp tables (GF(2^10)), no tables (GF(257))
        F = field_make(p, k)
        mats = rng.integers(0, F.order, size=(60, 4, 6)).astype(np.int64)
        mats[:20, 3] = mats[:20, 1]  # some rank-deficient slices
        mats[20:30, :, 2] = 0
        assert rank_batched(F, mats).tolist() == [Matrix(F, m).rank() for m in mats]
        a = Matrix(F, rng.integers(0, F.order, size=(3, 4)).astype(np.int64))
        b = Matrix(F, rng.integers(0, F.order, size=(4, 5)).astype(np.int64))
        prod = a.matmul(b)
        for i in range(3):
            for j in range(5):
                want = 0
                for t in range(4):
                    want = F.add(want, F.mul(int(a.data[i, t]), int(b.data[t, j])))
                assert prod.data[i, j] == want
