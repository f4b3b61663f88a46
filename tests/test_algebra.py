import numpy as np
import pytest

from cealg import catalog, fields
from cealg.algebra import GroupAlgebra
from cealg.fields import Matrix, field_make
from reference import (
    REFERENCE_SPECS,
    basis,
    commutes_with_every_element,
    from_support,
    index_of_label,
    omega_ideal_basis,
    random_nonzero,
    subgroup_idempotent,
)


@pytest.fixture(scope="module")
def q8_f2():
    return GroupAlgebra(catalog.quaternion8(), field_make(2))


# elements of FG are coefficient rows: products through the one kernel
# `_mul_arrays`, sums and scalings through the field's vector operations, and
# the augmentation (the ring morphism onto F) as the field sum of the row


class TestRingOps:
    def test_char2_square(self, f2):
        alg = GroupAlgebra(catalog.cyclic(2), f2)
        x = from_support(alg, [(0, 1), (1, 1)])
        assert not alg._mul_arrays(x, x).any()

    def test_identity_neutral(self, q8_f2, rng):
        one, mul = basis(q8_f2, 0), q8_f2._mul_arrays
        for _ in range(20):
            x = random_nonzero(q8_f2, rng)
            assert np.array_equal(mul(one, x), x) and np.array_equal(mul(x, one), x)

    def test_quaternion_table_product(self, q8_f2):
        g = q8_f2.group
        i = basis(q8_f2, index_of_label(g, "i"))
        j = basis(q8_f2, index_of_label(g, "j"))
        assert np.array_equal(q8_f2._mul_arrays(i, j), basis(q8_f2, index_of_label(g, "k")))

    def test_scale_and_neg(self, f3):
        alg = GroupAlgebra(catalog.cyclic(3), f3)
        x = from_support(alg, [(1, 2)])
        assert np.array_equal(f3.vscale(2, x), from_support(alg, [(1, 1)]))
        assert not f3.vadd(x, f3.vneg(x)).any()

    def test_extension_field_product(self, f4):
        alg = GroupAlgebra(catalog.cyclic(2), f4)
        # (t + (t+1) g)^2 = t^2 + (t+1)^2 g^2 = t^2 + (t+1)^2 in char 2
        x = from_support(alg, [(0, 2), (1, 3)])
        sq = alg._mul_arrays(x, x)
        want = f4.add(f4.mul(2, 2), f4.mul(3, 3))
        assert np.array_equal(sq, from_support(alg, [(0, want)]))


class TestCommutator:
    def test_self_commutator_zero(self, q8_f2, rng):
        x, mul = random_nonzero(q8_f2, rng), q8_f2._mul_arrays
        assert not q8_f2.field.vsub(mul(x, x), mul(x, x)).any()

    def test_ij_commutator(self, q8_f2):
        g = q8_f2.group
        i = basis(q8_f2, index_of_label(g, "i"))
        j = basis(q8_f2, index_of_label(g, "j"))
        mul = q8_f2._mul_arrays
        c = q8_f2.field.vsub(mul(i, j), mul(j, i))
        assert c.any()
        assert {g.label(idx) for idx in np.flatnonzero(c)} == {"k", "-k"}

    def test_class_sums_commute_with_basis(self, q8_f2):
        mul = q8_f2._mul_arrays
        for s in q8_f2.center_basis:
            for g in range(8):
                x = basis(q8_f2, g)
                assert not q8_f2.field.vsub(mul(x, s), mul(s, x)).any()


class TestAugmentation:
    def test_identity(self, q8_f2):
        assert q8_f2.field.vsum(basis(q8_f2, 0)) == 1

    def test_one_plus_g(self, f2):
        alg = GroupAlgebra(catalog.cyclic(2), f2)
        assert f2.vsum(from_support(alg, [(0, 1), (1, 1)])) == 0

    def test_noncentral_class_sum_augments_to_zero(self, f2):
        alg = GroupAlgebra(catalog.dihedral(16), f2)
        for s in alg.center_basis:
            if np.count_nonzero(s) > 1:
                assert f2.vsum(s) == 0

    def test_ring_morphism(self, f3, rng):
        alg = GroupAlgebra(catalog.sym3(), f3)
        for _ in range(50):
            x, y = random_nonzero(alg, rng), random_nonzero(alg, rng)
            assert f3.vsum(alg._mul_arrays(x, y)) == f3.mul(f3.vsum(x), f3.vsum(y))
            assert f3.vsum(f3.vadd(x, y)) == f3.add(f3.vsum(x), f3.vsum(y))


class TestCenter:
    def test_commutative_center_dim(self, f2):
        c6 = catalog.cyclic(6)
        assert len(GroupAlgebra(c6, f2).center_basis) == 6

    def test_q8_center_dim(self, q8_f2):
        assert len(q8_f2.center_basis) == 5

    def test_d16_center_dim(self, f2):
        assert len(GroupAlgebra(catalog.dihedral(16), f2).center_basis) == 7

    # order16:<i> is order16_all()[i - 1]
    @pytest.mark.parametrize("spec", [f"order16:{i}" for i in range(1, 15)]
                             + ["prop29:2", "prop29:3", "H5 x C5", "D256"])
    def test_class_sums_match_per_class_build(self, f2, spec):
        # the scatter from class_of against one vector per class
        alg = GroupAlgebra(catalog.get(spec), f2)
        rows = []
        for cls in alg.group.conjugacy.classes:
            c = np.zeros(alg.dim, dtype=np.int64)
            c[list(cls)] = 1
            rows.append(c)
        sums = alg.center_basis
        assert sums.dtype == np.int64 and not sums.flags.writeable
        assert sums.tolist() == np.stack(rows).tolist()

    @pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2)])
    @pytest.mark.parametrize("spec", REFERENCE_SPECS)
    def test_center_matrix_is_the_rref_of_the_class_sums(self, spec, p, k):
        alg = GroupAlgebra(catalog.get(spec), field_make(p, k))
        red, pivots = alg.center_matrix
        ref, ref_pivots = Matrix(alg.field, alg.center_basis).rref()
        assert red.field == ref.field and pivots == ref_pivots
        assert red.data.tolist() == ref.data.tolist()

    def test_class_sums_central(self, q8_f2):
        for s in q8_f2.center_basis:
            assert q8_f2.is_central(s)

    def test_basis_element_not_central(self, q8_f2):
        i = basis(q8_f2, index_of_label(q8_f2.group, "i"))
        assert not q8_f2.is_central(i)

    def test_all_central_when_commutative(self, f3, rng):
        alg = GroupAlgebra(catalog.cyclic(6), f3)
        for _ in range(10):
            assert alg.is_central(random_nonzero(alg, rng))

    @pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2)])
    def test_is_central_matches_commuting_with_every_element(self, p, k, rng):
        fld = field_make(p, k)
        for spec, g in catalog.standard_entries():
            alg = GroupAlgebra(g, fld)
            rows = [basis(alg, i) for i in range(g.n)] + list(alg.center_basis)
            for _ in range(8):
                # constant on classes, or drawn freely
                rows.append(rng.integers(0, fld.order, size=len(alg.center_basis))[
                    np.array(g.conjugacy.class_of)])
                rows.append(rng.integers(0, fld.order, size=g.n))
            for c in rows:
                assert alg.is_central(c) == commutes_with_every_element(alg, c), spec


class TestOmegaIdeal:
    def test_trivial_subgroup(self, q8_f2):
        assert omega_ideal_basis(q8_f2, [0]) == []

    def test_full_c2(self, f2):
        alg = GroupAlgebra(catalog.cyclic(2), f2)
        basis = omega_ideal_basis(alg, [0, 1])
        assert len(basis) == 1
        assert np.array_equal(basis[0], from_support(alg, [(0, 1), (1, 1)]))

    def test_center_of_q8(self, q8_f2):
        z = q8_f2.group.center
        assert len(omega_ideal_basis(q8_f2, z)) == 8 - 8 // 2

    def test_rejects_non_subgroup(self, q8_f2):
        i = index_of_label(q8_f2.group, "i")
        with pytest.raises(ValueError, match="subgroup"):
            omega_ideal_basis(q8_f2, [0, i])

    def test_normal_dimension_formula(self, f2):
        d16 = catalog.dihedral(16)
        alg = GroupAlgebra(d16, f2)
        r2 = d16.subgroup_generated([index_of_label(d16, "r^2")])
        assert d16.is_normal(r2)
        assert len(omega_ideal_basis(alg, r2)) == 16 - 16 // 4


class TestIdempotents:
    def test_trivial_subgroup_gives_identity(self, q8_f2):
        assert np.array_equal(subgroup_idempotent(q8_f2, [0]), basis(q8_f2, 0))

    def test_a3_in_s3_char2(self, f2):
        s3 = catalog.sym3()
        alg = GroupAlgebra(s3, f2)
        a3 = s3.commutator_subgroup
        e = subgroup_idempotent(alg, a3)
        assert np.array_equal(e, from_support(alg, [(i, 1) for i in a3]))
        assert np.array_equal(alg._mul_arrays(e, e), e)
        assert alg.is_central(e)

    def test_order2_subgroup_char3(self, f3):
        c6 = catalog.cyclic(6)
        alg = GroupAlgebra(c6, f3)
        h = c6.subgroup_generated([3])
        e = subgroup_idempotent(alg, h)
        assert np.array_equal(e, from_support(alg, [(0, 2), (3, 2)]))
        assert np.array_equal(alg._mul_arrays(e, e), e)

    def test_char_divides_order_rejected(self, f3):
        alg = GroupAlgebra(catalog.cyclic(6), f3)
        with pytest.raises(ZeroDivisionError):
            subgroup_idempotent(alg, catalog.cyclic(6).subgroup_generated([2]))


class TestCenterSumAnnihilation:
    @pytest.mark.parametrize("p", [2, 3])
    def test_center_sum_kills_central_subgroup_sum(self, p):
        g = catalog.p5_class3_group(p)
        alg = GroupAlgebra(g, field_make(p))
        z = g.center
        sig_z = from_support(alg, [(i, 1) for i in z])
        h = g.subgroup_generated([z[1]])
        assert len(h) % p == 0
        sig_h = from_support(alg, [(i, 1) for i in h])
        assert not alg._mul_arrays(sig_z, sig_h).any()


# GF(2^10) multiplies through its log/exp tables; its gathered products run
# 100 digit-plane products, so it takes the two smallest groups only
PRODUCT_CASES = [(p, k, spec) for p, k in [(2, 1), (5, 1), (2, 2), (5, 2)]
                 for spec in ["D8", "Q8 x C3", "H5", "prop29:3"]]
PRODUCT_CASES += [(2, 10, "D8"), (2, 10, "Q8 x C3")]


@pytest.mark.parametrize("gather", [fields._GATHER, 7])
@pytest.mark.parametrize("p,k,spec", PRODUCT_CASES)
def test_block_product_matches_left_mult_matrix(spec, p, k, gather, rng, monkeypatch):
    # both evaluations of _mul_arrays against the dense left_mult_matrix,
    # row by row; small limits split every product into many gathered
    # blocks, into one row of bins per block, and into pair blocks smaller
    # than one element's pairs with a dense row
    g, F = catalog.get(spec), field_make(p, k)
    alg = GroupAlgebra(g, F)
    n, r = g.n, 5
    monkeypatch.setattr(fields, "_GATHER", gather)
    if gather < n:
        monkeypatch.setattr(fields, "_PAIRS", n // 2 + 1)
    sparse = np.zeros((r, n), dtype=np.int64)
    for row in sparse[1:]:
        row[rng.choice(n, size=3, replace=False)] = rng.integers(1, F.order, size=3)
    dense = rng.integers(0, F.order, size=(r, n)).astype(np.int64)
    dense[3] = 0
    stacks = {"sparse": sparse, "dense": dense}
    # every row times every row, by the reference: want[a, b][i, j] is
    # x_i y_j, one column of left_mult_matrix(x_i) times the stack of y's
    lms = {a: [alg.left_mult_matrix(x) for x in stacks[a]] for a in stacks}
    want = {(a, b): np.stack([lm.matmul(Matrix(F, stacks[b].T)).data.T for lm in lms[a]])
            for a in stacks for b in stacks}
    ran = []

    def spy(name):
        evaluation = getattr(GroupAlgebra, name)
        return lambda self, *args: ran.append(name) or evaluation(self, *args)

    for name in ("_mul_pairs", "_mul_gather"):
        monkeypatch.setattr(GroupAlgebra, name, spy(name))

    def evaluated(x, y):
        ran.clear()
        out = alg._mul_arrays(x, y)
        (name,) = ran
        return out, name

    def product(x, y):
        # a stack of x rows (or none) pairs; a single row x gathers, and at
        # a ratio of 0 it pairs too unless y has no rows
        out, name = evaluated(x, y)
        stack, rows_of_y = x.ndim == 2 and len(x) != 1, y.ndim == 1 or len(y) > 0
        assert name == ("_mul_pairs" if stack or cost == 0 and rows_of_y else "_mul_gather")
        return out

    # at the measured ratio a single row x picks its evaluation by y alone:
    # a sparse and a dense x take the same one against the same y
    for ys in stacks.values():
        assert evaluated(sparse[1], ys)[1] == evaluated(dense[1], ys)[1]
    # a ratio of 0 takes the support pairs whenever y has rows, a huge one
    # only for a stack of x
    for cost in (0, 1 << 62):
        monkeypatch.setattr(fields, "_PAIR_COST", cost)
        for (a, b), table in want.items():
            xs, ys, rows = stacks[a], stacks[b], np.arange(r)
            assert (product(xs, ys) == table[rows, rows]).all()
            # a single row on either side, of shape (n,) or (1, n)
            assert (product(xs[1], ys) == table[1]).all()
            assert (product(xs[2:3], ys) == table[2]).all()
            assert (product(xs, ys[1]) == table[:, 1]).all()
            assert (product(xs, ys[2:3]) == table[:, 2]).all()
            assert (product(xs[1], ys[2]) == table[1, 2]).all()
            # an empty stack gives an empty stack
            assert product(xs[:0], ys[0]).shape == product(xs[0], ys[:0]).shape == (0, n)
        # one stack as both operands, as the nilpotency guard squares
        assert (product(dense, dense) == want["dense", "dense"][rows, rows]).all()
