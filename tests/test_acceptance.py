"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its stated runtime bound."""

import time

import numpy as np
import pytest

import properties
from cealg import catalog
from cealg.algebra import GroupAlgebra
from cealg.decision import (
    ESSENTIAL,
    NOT_ESSENTIAL,
    DEFAULT_BUDGET,
    decide,
    oracle_centrally_essential,
    socle_centrally_essential,
    witness_not_ce,
)
from cealg.fields import field_make
from reference import basis, index_of_label, random_nonzero, witness_ce


def _p_group_prime(n: int) -> int | None:
    for p in (2, 3, 5):
        m = n
        while m % p == 0:
            m //= p
        if m == 1 and n > 1:
            return p
    return None


def _report(num: int, elapsed: float, text: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS ({elapsed:.2f}s) {text}")


def test_criterion_1_quaternion_base_case(f2):
    t0 = time.perf_counter()
    q8 = catalog.quaternion8()
    r = decide(q8, f2)
    ora = oracle_centrally_essential(q8, f2)
    assert r.verdict == ESSENTIAL
    assert ora.verdict == ESSENTIAL
    alg = GroupAlgebra(q8, f2)
    i = basis(alg, index_of_label(q8, "i"))
    j = basis(alg, index_of_label(q8, "j"))
    assert f2.vsub(alg._mul_arrays(i, j), alg._mul_arrays(j, i)).any()
    assert f2.order**q8.n == 2**8 == 256
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, elapsed, "Q8 over GF(2): essential by decide and oracle; "
            "noncommutative algebra of 256 elements")


def test_criterion_2_order16_sweep(f2):
    t0 = time.perf_counter()
    groups = catalog.order16_all()
    assert len(groups) == 14
    socle_decided = set()
    for g in groups:
        r = decide(g, f2)
        assert r.verdict == ESSENTIAL, g.name
        if r.method == "socle":
            socle_decided.add(g.name)
    class3 = {g.name for g in groups if g.nilpotency_class == 3}
    assert socle_decided == class3 == {"D16", "QD16", "Q16"}
    for name in sorted(class3):
        ora = oracle_centrally_essential(catalog.get(name), f2)
        assert ora.verdict == ESSENTIAL, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(2, elapsed, "all 14 groups of order 16 essential over GF(2); "
            "class-3 trio decided by socle and oracle-confirmed")


def test_criterion_3_counterexample_family():
    t0 = time.perf_counter()
    for p in (2, 3):
        g = catalog.p5_class3_group(p)
        fld = field_make(p)
        r = decide(g, fld)
        assert r.verdict == NOT_ESSENTIAL, p
        shipped = [w for w in r.witnesses if w["kind"] == "center_sum_translate"]
        assert shipped, p
        checks = shipped[0]["checks"]
        assert checks["noncentral"] is True
        assert checks["intersection_dim"] == 0
        # independent recomputation of the witness and its verification
        x, transcript = witness_not_ce(g, fld)
        assert transcript["intersection_dim"] == 0
        alg = GroupAlgebra(g, fld)
        assert not alg.is_central(x)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, elapsed, "both order-p^5 class-3 groups non-essential with "
            "rank-verified center-sum witnesses")


def test_criterion_4_oracle_agreement():
    t0 = time.perf_counter()
    fields = [field_make(2), field_make(3)]
    pairs = 0
    seen_s3 = 0
    for name, g in catalog.standard_entries():
        if g.n > 16:
            continue
        for fld in fields:
            if fld.order**g.n > DEFAULT_BUDGET:
                continue
            r = decide(g, fld)
            ora = oracle_centrally_essential(g, fld)
            assert r.verdict == ora.verdict, f"{name} over GF({fld.p})"
            pairs += 1
            if name == "S3":
                seen_s3 += 1
                assert r.verdict == NOT_ESSENTIAL
    assert seen_s3 == 2  # S3 over GF(2) and GF(3), both negative routes
    elapsed = time.perf_counter() - t0
    _report(4, elapsed, f"decide(auto) matches the oracle on {pairs} "
            "(group, field) pairs with zero mismatches")


def test_criterion_5_class_two_socle():
    t0 = time.perf_counter()
    count = 0
    for name, g in catalog.standard_entries():
        if g.n > 32:
            continue
        p = _p_group_prime(g.n)
        if p not in (2, 3):
            continue
        nc = g.nilpotency_class
        if nc is None or nc > 2:
            continue
        soc = socle_centrally_essential(g, field_make(p))
        assert soc.verdict == ESSENTIAL, name
        count += 1
    assert count >= 15
    elapsed = time.perf_counter() - t0
    _report(5, elapsed, f"{count} class<=2 catalog p-groups essential by the "
            "socle decider itself")


def test_criterion_6_constructive_witness_suite(rng):
    t0 = time.perf_counter()
    total = 0
    groups = 0
    for name, g in catalog.standard_entries():
        if g.n > 27:
            continue
        p = _p_group_prime(g.n)
        if p not in (2, 3):
            continue
        nc = g.nilpotency_class
        if nc is None or nc > 2:
            continue
        fld = field_make(p)
        alg = GroupAlgebra(g, fld)
        for _ in range(100):
            x = random_nonzero(alg, rng)
            c = witness_ce(g, fld, x)
            xc = alg._mul_arrays(x, c)
            assert alg.is_central(c), name
            assert xc.any(), name
            assert alg.is_central(xc), name
            total += 1
        groups += 1
    assert groups >= 12
    elapsed = time.perf_counter() - t0
    _report(6, elapsed, f"constructive witnesses succeeded on {total} random "
            f"elements across {groups} class<=2 p-groups")


def test_criterion_7_structural_facts():
    t0 = time.perf_counter()
    g2 = catalog.p5_class3_group(2)
    zs = g2.upper_central_series.subgroups
    assert len(zs[1]) == 2 and len(zs[2]) == 8
    assert g2.centralizer(zs[2]) == zs[2]
    assert g2.subgroup_generated(
        [index_of_label(g2, "k"), index_of_label(g2, "a")]) == zs[2]
    assert g2.nilpotency_class == 3
    assert g2.central_coset_condition()[0]

    g3 = catalog.p5_class3_group(3)
    zs = g3.upper_central_series.subgroups
    ia, ib, ic = (index_of_label(g3, x) for x in "abc")
    assert g3.subgroup_generated([ia, ib]) == zs[1] and len(zs[1]) == 9
    assert g3.subgroup_generated([ia, ib, ic]) == zs[2] and len(zs[2]) == 27
    assert g3.centralizer(zs[2]) == zs[2]
    assert g3.nilpotency_class == 3
    assert g3.central_coset_condition()[0]
    elapsed = time.perf_counter() - t0
    _report(7, elapsed, "centers, second centers, centralizers, class, and "
            "coset condition reproduced for both counterexample groups")


def test_criterion_8_characteristic_zero():
    t0 = time.perf_counter()
    for name, g in catalog.standard_entries():
        r = decide(g, None)
        want = ESSENTIAL if g.is_abelian else NOT_ESSENTIAL
        assert r.verdict == want, name
    assert decide(catalog.quaternion8(), None).verdict == NOT_ESSENTIAL
    assert decide(catalog.sym3(), None).verdict == NOT_ESSENTIAL
    elapsed = time.perf_counter() - t0
    _report(8, elapsed, "characteristic-zero verdict equals the abelianness "
            "test across the catalog")


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    ran = {
        "field_axioms": properties.check_field_axioms(),
        "group_invariants": properties.check_group_invariants(),
        "ring_axioms": properties.check_ring_axioms(),
        "omega_nilpotence": properties.check_omega_nilpotence(),
        "center_characterization": properties.check_center_characterization(),
        "coset_condition_implication": properties.check_coset_condition_implication(),
        "oracle_scaling": properties.check_oracle_scaling(),
        "oracle_socle_agreement": properties.check_oracle_socle_agreement(),
    }
    assert all(v > 0 for v in ran.values())
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(9, elapsed, "property families green: " +
            ", ".join(f"{k}({v})" for k, v in ran.items()))
