import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cealg import catalog
from cealg.algebra import GroupAlgebra
from cealg.decision import (
    ESSENTIAL,
    NOT_ESSENTIAL,
    BudgetError,
    StructuralUndecidedError,
    candidate_admits_central_multiple,
    decide,
    decompose_p,
    oracle_centrally_essential,
    radical_center_basis,
    socle_centrally_essential,
    witness_ce,
    witness_not_ce,
)
from cealg.fields import field_make
from cealg.groups import FiniteGroup


class TestOracle:
    def test_q8_gf2_essential(self, f2):
        out = oracle_centrally_essential(catalog.quaternion8(), f2)
        assert out.verdict == ESSENTIAL
        assert out.artifact["candidates"] == 255

    def test_s3_gf2_counterexample(self, f2):
        out = oracle_centrally_essential(catalog.sym3(), f2)
        assert out.verdict == NOT_ESSENTIAL
        assert out.counterexample is not None
        # the center of F2 S3 is spanned by 3 class sums: 8 elements
        alg = GroupAlgebra(catalog.sym3(), f2)
        assert alg.center_basis.dim == 3
        ok, art = candidate_admits_central_multiple(alg, out.counterexample.coeffs)
        assert not ok and art["intersection_dim"] == 0

    def test_c3_gf3_essential(self, f3):
        out = oracle_centrally_essential(catalog.cyclic(3), f3)
        assert out.verdict == ESSENTIAL

    def test_budget_refusal(self, f2):
        with pytest.raises(BudgetError):
            oracle_centrally_essential(catalog.p5_class3_group(2), f2)

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
        assert out.artifact["candidate_index"] == first

    def test_counterexample_is_least(self, f2):
        # determinism: re-running returns the identical counterexample
        a = oracle_centrally_essential(catalog.sym3(), f2)
        b = oracle_centrally_essential(catalog.sym3(), f2)
        assert a.counterexample == b.counterexample
        assert a.artifact["candidate_index"] == b.artifact["candidate_index"]


class TestRadicalBasis:
    def test_c2(self, f2):
        basis = radical_center_basis(catalog.cyclic(2), f2)
        alg = GroupAlgebra(catalog.cyclic(2), f2)
        assert basis == [alg.from_support([(0, 1), (1, 1)])]

    def test_q8_size_and_nilpotence(self, f2):
        basis = radical_center_basis(catalog.quaternion8(), f2)
        assert len(basis) == 5 - 1
        assert all(b.power(8).is_zero() for b in basis)

    def test_augmentation_zero(self, f3):
        for b in radical_center_basis(catalog.heisenberg(3), f3):
            assert b.augmentation() == 0

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
        assert soc.excess is not None
        alg = GroupAlgebra(catalog.p5_class3_group(2), f2)
        assert not alg.is_central(soc.excess)
        ok, _ = candidate_admits_central_multiple(alg, soc.excess.coeffs)
        assert not ok

    def test_trivial_group(self, f2):
        assert socle_centrally_essential(catalog.cyclic(1), f2).verdict == ESSENTIAL

    def test_rejects_wrong_characteristic(self, f3):
        with pytest.raises(ValueError):
            socle_centrally_essential(catalog.quaternion8(), f3)


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
        assert g.subgroup(d.p_part).fingerprint() == catalog.quaternion8().fingerprint()

    def test_direct_implies_factorization(self):
        for spec, p in [("C6", 3), ("C12", 2), ("Q8 x C3", 2), ("C6", 2)]:
            g = catalog.get(spec)
            d = decompose_p(g, p)
            assert d.is_direct
            assert len(d.p_part) * len(d.p_prime_part) == g.n
            assert set(d.p_part) & set(d.p_prime_part) == {0}


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
        assert witness_ce(catalog.quaternion8(), f2, alg.one()) == alg.one()

    def test_quaternion_i(self, f2):
        q8 = catalog.quaternion8()
        alg = GroupAlgebra(q8, f2)
        x = alg.basis(q8.index_of_label("i"))
        c = witness_ce(q8, f2, x)
        minus_one = q8.index_of_label("-1")
        assert c == alg.from_support([(0, 1), (minus_one, 1)])
        xc = x * c
        assert not xc.is_zero() and alg.is_central(xc)
        assert {q8.label(i) for i, _ in xc.support()} == {"i", "-i"}

    def test_heisenberg_random(self, f3, rng):
        h = catalog.heisenberg(3)
        alg = GroupAlgebra(h, f3)
        for _ in range(25):
            x = alg.random_nonzero(rng)
            c = witness_ce(h, f3, x)
            xc = x * c
            assert alg.is_central(c)
            assert not xc.is_zero()
            assert alg.is_central(xc)

    def test_rejects_class_three(self, f2):
        g = catalog.p5_class3_group(2)
        alg = GroupAlgebra(g, f2)
        with pytest.raises(ValueError, match="class"):
            witness_ce(g, f2, alg.one())

    def test_rejects_zero(self, f2):
        alg = GroupAlgebra(catalog.quaternion8(), f2)
        with pytest.raises(ValueError, match="nonzero"):
            witness_ce(catalog.quaternion8(), f2, alg.zero())


class TestWitnessNotCE:
    @pytest.mark.parametrize("p", [2, 3])
    def test_counterexample_groups(self, p):
        g = catalog.p5_class3_group(p)
        fld = field_make(p)
        x, transcript = witness_not_ce(g, fld)
        assert transcript["intersection_dim"] == 0
        alg = GroupAlgebra(g, fld)
        assert not x.is_zero() and not alg.is_central(x)
        # x is the least non-Z2 element times the center sum
        z2 = set(g.upper_central_series.subgroups[2])
        least = next(i for i in range(g.n) if i not in z2)
        want = alg.from_support([(g.mul(least, z), 1) for z in g.center])
        assert x == want

    def test_rejects_low_class(self, f2):
        with pytest.raises(ValueError):
            witness_not_ce(catalog.quaternion8(), f2)

    def test_rejects_missing_coset_condition(self, f2):
        with pytest.raises(ValueError, match="coset"):
            witness_not_ce(catalog.dihedral(16), f2)


class TestQSubgroupsAndIdempotents:
    def test_q8_vacuous(self):
        from cealg.decision import check_q_subgroups

        assert check_q_subgroups(catalog.quaternion8(), 2)

    def test_s3_fails(self):
        from cealg.decision import check_q_subgroups

        assert not check_q_subgroups(catalog.sym3(), 3)

    def test_c6_passes(self):
        from cealg.decision import check_q_subgroups

        assert check_q_subgroups(catalog.cyclic(6), 3)

    def test_central_idempotents(self, f2, f3):
        from cealg.decision import central_idempotent_check

        assert central_idempotent_check(catalog.cyclic(6), f3)
        assert central_idempotent_check(catalog.get("Q8 x C3"), f2)
        assert central_idempotent_check(catalog.sym3(), f2)


class TestVerdictsOverExtensionFields:
    def test_q8_gf4(self, f4):
        # same machinery applies for k > 1; verdicts recorded, no
        # field-independence claim
        r = decide(catalog.quaternion8(), f4, method="crossvalidate")
        assert r.verdict == ESSENTIAL
        assert ("oracle", ESSENTIAL) in r.cross_checks


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
    assert sorted(h.element_orders.tolist()) == sorted(g.element_orders.tolist())
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
        x = alg.from_support((h.index_of_label(lab), v) for lab, v in w["element"])
        assert not alg.is_central(x)
        admits, _ = candidate_admits_central_multiple(alg, x.coeffs)
        assert not admits
