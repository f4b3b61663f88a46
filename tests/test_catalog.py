import itertools
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from cealg import catalog, groups
from cealg.catalog import _encode, _mixed_radix
from cealg.groups import ORDER_CAP, FiniteGroup, GroupValidationError, direct_product
from cealg.decision import _p_part_group, decompose_p
from cealg.fields import is_prime
from reference import (
    eager_labels,
    fingerprint,
    index_of_label,
    labels_of,
    shown,
    subgroup_labels,
    verify_fixed_entries,
)


class TestNamedGroups:
    def test_q8_relations(self):
        q8 = catalog.get("Q8")
        a, b = index_of_label(q8, "i"), index_of_label(q8, "j")
        ab = np.array([a, b])
        assert q8.powers(ab, 4).tolist() == [0, 0]
        a2, b2 = q8.powers(ab, 2).tolist()
        assert a2 == b2 != 0
        assert q8.mul(q8.mul(a, b), int(q8.inv[a])) == q8.inv[b]
        assert q8.n == 8 and len(q8.conjugacy.classes) == 5

    def test_dihedral16(self):
        d16 = catalog.get("D16")
        assert d16.n == 16
        assert d16.nilpotency_class == 3

    def test_cyclic6(self):
        c6 = catalog.get("C6")
        assert c6.n == 6 and c6.is_abelian

    def test_heisenberg(self):
        h = catalog.get("H3")
        assert h.n == 27 and h.nilpotency_class == 2
        assert all(h.element_order(x) == 3 for x in range(1, 27))

    def test_elem_abelian(self):
        e = catalog.get("E3^2")
        assert e.n == 9 and e.is_abelian
        assert all(e.element_order(x) == 3 for x in range(1, 9))

    def test_gen_quaternion_unique_involution(self):
        q16 = catalog.get("Q16")
        assert sum(1 for x in range(16) if q16.element_order(x) == 2) == 1

    def test_direct_product_spec(self):
        g = catalog.get("Q8 x C3")
        assert g.n == 24 and g.name == "Q8 x C3"

    def test_product_spec_inherits_the_group_axioms(self, validated_orders, inherited_orders):
        # the factors were validated where they entered; the product is
        # built once, by the inherited path, and its table is not checked
        # again (tests/test_groups.py checks the inherited tables in full)
        d8, c3 = catalog.dihedral(8), catalog.cyclic(3)
        validated_orders.clear()
        inherited_orders.clear()
        g = catalog.get("D8 x C3")
        assert validated_orders == [] and inherited_orders == [24]
        assert g.name == "D8 x C3" and labels_of(g) == labels_of(direct_product(d8, c3))

    def test_unknown_specs_rejected(self):
        for bad, message in [
            ("X9", "unknown group spec 'X9'"),
            ("Q", "unknown group spec 'Q'"),
            ("E2", "unknown group spec 'E2'"),
            ("order16:", "unknown group spec 'order16:'"),
            ("Q8 x S4", "unknown group spec 'S4'"),
            ("D7", "dihedral group order must be even"),
            ("order16:15", "order-16 catalog index must be in 1..14"),
            ("order16:0", "order-16 catalog index must be in 1..14"),
            ("prop29:7", "exceeds the supported cap for p > 5"),
            ("prop29:4", "parameter must be prime"),
            ("E4^2", "elementary abelian group needs a prime"),
            ("Q12", "generalized quaternion group order must be 2"),
            ("", "empty group spec"),
            ("C0", "cyclic group order must be positive"),
            ("E2^14", r"group order 2\^14 exceeds the cap"),
            ("E3^20", r"group order 3\^20 exceeds the cap"),
        ]:
            with pytest.raises(ValueError, match=message):
                catalog.get(bad)


@pytest.mark.parametrize("spec", ["C<n>", "E<p>^<r>", "D<2m>", "Q<2^m>", "H<p>",
                                  "order16:<1..14>", "prop29:<p>"])
def test_listed_family_placeholders_are_not_specs(spec):
    # `groups list` shows these spellings; lookup matches the patterns only,
    # so none of them reaches a builder without its argument
    with pytest.raises(ValueError) as info:
        catalog.get(spec)
    assert str(info.value) == f"unknown group spec {spec!r}"


# each fixed name and one spec per family, with the builder that makes it;
# the builder runs again past its cache
SPEC_BUILDERS = [
    ("Q8", catalog.quaternion8, ()),
    ("S3", catalog.sym3, ()),
    ("QD16", catalog.semidihedral16, ()),
    ("M16", catalog.modular16, ()),
    ("C5", catalog.cyclic, (5,)),
    ("E3^2", catalog.elem_abelian, (3, 2)),
    ("D10", catalog.dihedral, (10,)),
    ("Q16", catalog.gen_quaternion, (16,)),
    ("H3", catalog.heisenberg, (3,)),
    ("order16:13", catalog.order16, (13,)),
    ("prop29:3", catalog.p5_class3_group, (3,)),
]


@pytest.mark.parametrize("spec, builder, args", SPEC_BUILDERS,
                         ids=[s for s, _, _ in SPEC_BUILDERS])
def test_spec_gives_its_builders_group(spec, builder, args):
    g, ref = catalog.get(spec), builder.__wrapped__(*args)
    assert (g.name, labels_of(g)) == (ref.name, labels_of(ref))
    assert np.array_equal(g.table, ref.table)


class TestOrder16:
    def test_fourteen_distinct(self):
        gs = catalog.order16_all()
        assert len(gs) == 14
        fps = {fingerprint(g) for g in gs}
        assert len(fps) == 14
        assert all(g.n == 16 for g in gs)

    def test_exactly_three_class_three(self):
        names = {g.name for g in catalog.order16_all() if g.nilpotency_class == 3}
        assert names == {"D16", "QD16", "Q16"}

    def test_five_abelian(self):
        assert sum(1 for g in catalog.order16_all() if g.is_abelian) == 5

    def test_index_range(self):
        with pytest.raises(ValueError):
            catalog.order16(15)


class TestCounterexampleFamily:
    def test_even_case_structure(self):
        g = catalog.p5_class3_group(2)
        zs = g.upper_central_series.subgroups
        assert g.n == 32
        assert len(zs[1]) == 2 and len(zs[2]) == 8
        assert g.nilpotency_class == 3
        k, a = index_of_label(g, "k"), index_of_label(g, "a")
        assert g.subgroup_generated([k, a]) == zs[2]
        assert g.centralizer(zs[2]) == zs[2]

    def test_odd_case_structure(self):
        g = catalog.p5_class3_group(3)
        zs = g.upper_central_series.subgroups
        assert g.n == 243
        ia, ib, ic = (index_of_label(g, x) for x in "abc")
        assert g.subgroup_generated([ia, ib]) == zs[1] and len(zs[1]) == 9
        assert g.subgroup_generated([ia, ib, ic]) == zs[2] and len(zs[2]) == 27
        assert g.centralizer(zs[2]) == zs[2]
        assert g.nilpotency_class == 3

    def test_hypothesis_predicates(self):
        for p in (2, 3):
            g = catalog.p5_class3_group(p)
            assert g.z2_self_centralizing()
            assert g.central_coset_condition()[0]

    def test_odd_normal_form_subgroup_order(self):
        # the extension base has order p^4 and index p
        g = catalog.p5_class3_group(3)
        base = [i for i in range(g.n) if "B" not in g.label(i)]
        assert len(base) == 81
        assert g.subgroup_generated(base) == tuple(base)

    def test_p5_smoke(self):
        g = catalog.p5_class3_group(5)
        assert g.n == 5**5
        assert g.nilpotency_class == 3
        assert g.z2_self_centralizing()

    def test_rejects_large_prime(self):
        with pytest.raises(ValueError):
            catalog.p5_class3_group(7)
        with pytest.raises(ValueError):
            catalog.p5_class3_group(6)


def test_fixed_entry_fingerprints_frozen():
    assert verify_fixed_entries() == []


def test_standard_entries_deterministic():
    a = [name for name, _ in catalog.standard_entries()]
    b = [name for name, _ in catalog.standard_entries()]
    assert a == b and len(a) == 35


# -- label functions against the former eager lists ------------------------------

# every standard entry (the fourteen of order 16 among them), then the rest of
# prop29 and the Heisenberg groups, and two products
_LABEL_SPECS = [name for name, _ in catalog.standard_entries()] + [
    "prop29:5", "H5", "H7", "Q8 x C3", "H7 x C9"]


@pytest.mark.parametrize("spec", _LABEL_SPECS)
def test_labels_match_the_eager_lists(spec):
    g, ref = catalog.get(spec), eager_labels(spec)
    assert labels_of(g) == shown(ref, g.n)
    # and the p-parts that decompose_p splits off as subgroups
    for p in (q for q in range(2, g.n + 1) if g.n % q == 0 and is_prime(q)):
        dec = decompose_p(g, p)
        if dec.p_part_is_subgroup:
            sub = _p_part_group(g, dec)
            assert labels_of(sub) == shown(subgroup_labels(ref, dec.p_part), sub.n)


# -- the array builders against a per-pair loop over the same laws -------------


def _law_table(elems, law):
    """Reference Cayley table: one law call per ordered pair."""
    index = {e: i for i, e in enumerate(elems)}
    return np.array([[index[law(a, b)] for b in elems] for a in elems])


def _cyclic_ref(n):
    return _law_table(list(range(n)), lambda a, b: (a + b) % n)


def _dihedral_ref(order):
    m = order // 2

    def law(x, y):
        (i, s), (j, t) = x, y
        return ((i + (j if s == 0 else -j)) % m, (s + t) % 2)

    return _law_table([(i, s) for s in range(2) for i in range(m)], law)


def _quaternion_ref(order):
    m, half = order // 2, order // 4

    def law(a, b):
        (x, u), (y, v) = a, b
        return ((x + (y if u == 0 else -y) + (half if u and v else 0)) % m, (u + v) % 2)

    return _law_table([(x, u) for u in range(2) for x in range(m)], law)


def _heisenberg_ref(p):
    def law(a, b):
        (i, j, k), (x, y, z) = a, b
        return ((i + x) % p, (j + y) % p, (k + z + i * y) % p)

    return _law_table(list(itertools.product(range(p), repeat=3)), law)


def _pauli_ref():
    def law(a, b):
        (e1, u1, v1), (e2, u2, v2) = a, b
        return ((e1 + e2 + 2 * v1 * u2) % 4, (u1 + u2) % 2, (v1 + v2) % 2)

    return _law_table(list(itertools.product(range(4), range(2), range(2))), law)


def _normal_form_p4_ref(p):
    def law(x, y):
        (k, l, m, r), (k2, l2, m2, r2) = x, y
        return ((k + k2) % p, (l + l2 + r * m2) % p, (m + m2) % p, (r + r2) % p)

    return _law_table(list(itertools.product(range(p), repeat=4)), law)


_LAW_CASES = (
    [(f"C{n}", partial(catalog.cyclic, n), partial(_cyclic_ref, n)) for n in (1, 2, 12)]
    + [(f"D{n}", partial(catalog.dihedral, n), partial(_dihedral_ref, n)) for n in (6, 16, 30)]
    + [(f"Q{n}", partial(catalog.gen_quaternion, n), partial(_quaternion_ref, n)) for n in (8, 16, 32)]
    + [(f"H{p}", partial(catalog.heisenberg, p), partial(_heisenberg_ref, p)) for p in (2, 3, 5)]
    + [("P16", catalog.pauli16, _pauli_ref)]
)


@pytest.mark.parametrize("build, ref", [c[1:] for c in _LAW_CASES], ids=[c[0] for c in _LAW_CASES])
def test_law_builders_match_per_pair_loop(build, ref):
    assert (build().table == ref()).all()


def test_normal_form_base_matches_per_pair_loop():
    # prop29:3 pairs (x, c) as x * 3 + c; the pairs (x, 0) form N_3^4
    g = catalog.p5_class3_group(3)
    base = g.subgroup(range(0, g.n, 3))
    assert (base.table == _normal_form_p4_ref(3)).all()


@pytest.mark.parametrize("spec", ["C100000", "D20000", "Q16384"])
def test_law_order_over_the_cap_refused_before_the_table(spec):
    # the table would take 1 GB or more; the refusal allocates next to nothing
    tracemalloc.start()
    try:
        with pytest.raises(GroupValidationError, match=rf"outside \(0, {ORDER_CAP}\]"):
            catalog.get(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# -- the row-blocked law build against the whole-array build --------------------


def _table_from_law(radices: tuple[int, ...], law, name: str, labels=None) -> FiniteGroup:
    """Cayley table of a closed-form law on mixed-radix normal forms.

    Element i has the digits of i in the given radices, most significant
    first.  The law receives the digit arrays of the left factor as columns
    and of the right factor as rows, and returns the product's digits
    unreduced; each is reduced mod its radix here.
    """
    digits = _mixed_radix(np.arange(math.prod(radices), dtype=np.int32), radices)
    prod = law([d[:, None] for d in digits], [d[None, :] for d in digits])
    return FiniteGroup(_encode(prod, radices), name, labels)


# every law of the catalog, at orders the default block of rows does not
# divide where the law allows one (a block of 2^16 entries always divides
# a power of 2)
_BLOCKED_LAWS = {
    "C1024": partial(catalog.cyclic.__wrapped__, 1024),
    "C1000": partial(catalog.cyclic.__wrapped__, 1000),
    "D512": partial(catalog.dihedral.__wrapped__, 512),
    "D1000": partial(catalog.dihedral.__wrapped__, 1000),
    "Q64": partial(catalog.gen_quaternion.__wrapped__, 64),
    "P16": catalog.pauli16.__wrapped__,
    "N3^4": partial(catalog._p5_odd.__wrapped__, 3),  # the base N of prop29:3
    "N5^4": partial(catalog._p5_odd.__wrapped__, 5),
}


@pytest.mark.parametrize("build", _BLOCKED_LAWS.values(), ids=_BLOCKED_LAWS.keys())
def test_blocked_law_matches_whole_array_build(monkeypatch, build):
    calls = []
    blocked = catalog._table_from_law

    def recording(radices, law, name, labels=None):
        # the families pass their labels as functions of the index
        calls.append((radices, law, name, labels))
        return blocked(radices, law, name, labels)

    monkeypatch.setattr(catalog, "_table_from_law", recording)
    build()
    default = groups.BLOCK_ENTRIES
    # every law the builder used (the builder of N_p^4 also builds C_p)
    for radices, law, name, labels in calls:
        ref = _table_from_law(radices, law, name, labels)
        # the default block, one row per block, and seven rows (a block
        # that divides no order above)
        for entries in (default, 1, 7 * ref.n):
            monkeypatch.setattr(groups, "BLOCK_ENTRIES", entries)
            g = blocked(radices, law, name, labels)
            assert g.table.tolist() == ref.table.tolist() and g.inv.tolist() == ref.inv.tolist()
            assert labels_of(g) == labels_of(ref) and g.name == name


# the Heisenberg law the catalog built H_p from before it became a product
def _heisenberg_law(a, b):
    i, j, k = a
    x, y, z = b
    return (i + x, j + y, k + z + i * y)


@pytest.mark.parametrize("p", [7, 11], ids=["H7", "H11"])
def test_heisenberg_matches_whole_array_law(p):
    labels = [
        catalog._join_labels([catalog._pow_label("x", i), catalog._pow_label("y", j),
                              catalog._pow_label("z", k)])
        for i, j, k in itertools.product(range(p), repeat=3)
    ]
    ref = _table_from_law((p, p, p), _heisenberg_law, f"H{p}", labels)
    g = catalog.heisenberg.__wrapped__(p)
    assert g.table.tolist() == ref.table.tolist() and g.inv.tolist() == ref.inv.tolist()
    assert labels_of(g) == labels_of(ref) and g.name == ref.name


def test_heisenberg_validates_no_table_larger_than_cp(validated_orders, inherited_orders):
    # C_p is a law table; C_p x C_p and the split extension inherit the axioms
    catalog.heisenberg.cache_clear()
    catalog.cyclic.cache_clear()
    validated_orders.clear()
    inherited_orders.clear()
    catalog.heisenberg(7)
    assert validated_orders == [7] and inherited_orders == [49, 343]


@pytest.mark.parametrize("a, b", [("Q8", "C3"), ("S3", "D8"), ("C1", "H3"), ("C4", "C1"),
                                  ("C7", "D30"), ("H3", "C5")])
def test_direct_product_matches_per_pair_loop(monkeypatch, a, b):
    g1, g2 = catalog.get(a), catalog.get(b)
    pairs = [(x, y) for x in range(g1.n) for y in range(g2.n)]
    ref = _law_table(pairs, lambda u, v: (g1.mul(u[0], v[0]), g2.mul(u[1], v[1])))
    n = g1.n * g2.n
    # the default block, blocks of two x (a partial last block where g1's
    # order is odd), and one row, where g2's rows of one x fill no block
    for entries in (groups.BLOCK_ENTRIES, 2 * g2.n * n, n):
        monkeypatch.setattr(groups, "BLOCK_ENTRIES", entries)
        assert (direct_product(g1, g2).table == ref).all()
