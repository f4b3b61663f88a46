import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from cealg import catalog, cli, groups
from cealg.decision import decompose_p
from cealg.fields import is_prime
from cealg.groups import (
    ORDER_CAP,
    FiniteGroup,
    GroupValidationError,
    _closure,
    direct_product,
    group_from_generators,
    semidirect_product,
)
from reference import (
    REFERENCE_SPECS,
    elem_abelian_by_factors,
    element_orders,
    eager_labels,
    fingerprint,
    index_of_label,
    labels_of,
    quotient_whole_array,
    shown,
    subgroup_labels,
)

# a Latin square with identity and two-sided inverses that is not associative
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


class TestValidation:
    def test_rejects_non_latin(self):
        with pytest.raises(GroupValidationError):
            FiniteGroup([[0, 1], [1, 1]])

    def test_rejects_non_latin_with_identity_and_inverses(self):
        # a two-sided identity, a unique right inverse in every row and the
        # left inverse law, yet rows 1 and 2 repeat a value: the
        # associativity test is what refuses it
        t = [[0, 1, 2], [1, 0, 1], [2, 2, 0]]
        with pytest.raises(GroupValidationError, match="associativity"):
            FiniteGroup(t)

    def test_rejects_wrong_identity(self):
        with pytest.raises(GroupValidationError):
            FiniteGroup([[1, 0], [0, 1]])

    def test_rejects_nonassociative_loop(self):
        with pytest.raises(GroupValidationError, match="associativity"):
            FiniteGroup(NONASSOC_LOOP)

    def test_rejects_single_corrupted_product(self):
        t = catalog.get("D8").table.copy()
        t[3, 5] = t[3, 6]
        with pytest.raises(GroupValidationError):
            FiniteGroup(t)

    @pytest.mark.parametrize("spec", ["C8", "D8", "Q8 x C3", "D256", "H5 x C2",
                                      "D512", "S3 x C64", "H7"])
    def test_rejects_swapped_intercalate(self, spec):
        # With z central of least order m, rows a<z> and columns b, zb of a
        # group table form a Latin subsquare: both columns hold ab<z> there.
        # Swapping the two columns inside it (for m = 2, an intercalate) keeps
        # the Latin square, the identity and the inverses but breaks
        # associativity, which only the associativity test can see.
        g = catalog.get(spec)
        t, n = g.table.copy(), g.n
        orders = element_orders(g)
        z = min(g.center[1:], key=lambda z: (orders[z], z))
        zs = set(g.subgroup_generated([z]))
        a, b = next((a, b) for a in range(1, n) for b in range(1, n)
                    if a not in zs and b not in zs and t[a, b] not in zs)
        zb = t[z, b]
        rows = t[a, sorted(zs)]
        t[rows, b], t[rows, zb] = t[rows, zb], t[rows, b]
        # the reference n^3 check agrees that the result is not associative
        assert any(not (t[t[x], :] == t[x, t]).all() for x in range(n))
        with pytest.raises(GroupValidationError, match="associativity"):
            FiniteGroup(t)

    @pytest.mark.parametrize("entries", [1, 1 << 16])
    def test_inverse_pass_names_the_element_in_a_later_block(self, monkeypatch, entries):
        monkeypatch.setattr(groups, "BLOCK_ENTRIES", entries)
        t = catalog.cyclic(1000).table.copy()
        t[900, 100] = 5  # row 900 no longer holds the identity
        with pytest.raises(GroupValidationError, match="element 900 lacks"):
            FiniteGroup(t)

    def test_rejects_non_square(self):
        with pytest.raises(GroupValidationError):
            FiniteGroup([[0, 1]])

    @pytest.mark.parametrize("bad", [40000, (1 << 16) + 3, -1])
    def test_refuses_entries_before_narrowing_them(self, bad):
        # cast to int16 first, 40000 would read -25536, and 2^16 + 3 would
        # read 3, the right product of 1 and 2 in C4
        t = catalog.cyclic(4).table.astype(np.int64)
        t[1, 2] = bad
        for given in (t, t.tolist()):
            with pytest.raises(GroupValidationError, match="table entries out of range"):
                FiniteGroup(given)


class TestGenerators:
    def test_swap_gives_c2(self):
        g = group_from_generators(2, [(1, 0)])
        assert g.n == 2

    def test_no_generators_give_trivial_group(self):
        g = group_from_generators(3, [])
        assert g.n == 1 and labels_of(g) == ["e"]

    def test_s3(self):
        g = group_from_generators(3, [(1, 0, 2), (1, 2, 0)], "S3")
        assert g.n == 6
        assert len(g.conjugacy.classes) == 3

    def test_q8_regular_representation(self):
        q8 = catalog.quaternion8()
        lam_i = tuple(int(x) for x in q8.table[index_of_label(q8, "i")])
        lam_j = tuple(int(x) for x in q8.table[index_of_label(q8, "j")])
        g = group_from_generators(8, [lam_i, lam_j], "Q8reg")
        assert g.n == 8
        assert sorted(g.conjugacy.sizes) == [1, 1, 2, 2, 2]

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            group_from_generators(3, [(0, 0, 1)])

    def test_closure_cap(self):
        cyc = tuple(list(range(1, 13)) + [0])
        swap = (1, 0) + tuple(range(2, 13))
        with pytest.raises(ValueError, match="cap"):
            group_from_generators(13, [cyc, swap])


class TestProducts:
    def test_c2_x_c2(self):
        v4 = direct_product(catalog.cyclic(2), catalog.cyclic(2))
        assert v4.n == 4 and v4.is_abelian

    def test_q8_x_c2(self):
        g = direct_product(catalog.quaternion8(), catalog.cyclic(2))
        assert g.n == 16

    def test_c3_x_c3_elementary(self):
        g = direct_product(catalog.cyclic(3), catalog.cyclic(3))
        assert fingerprint(g) == fingerprint(catalog.elem_abelian(3, 2))

    def test_trivial_action_equals_direct(self):
        c3, c2 = catalog.cyclic(3), catalog.cyclic(2)
        sd = semidirect_product(c3, c2, [[0, 1, 2], [0, 1, 2]])
        dp = direct_product(c3, c2)
        assert (sd.table == dp.table).all()

    def test_inversion_action_gives_s3(self):
        sd = semidirect_product(catalog.cyclic(3), catalog.cyclic(2), [[0, 1, 2], [0, 2, 1]])
        assert fingerprint(sd) == fingerprint(catalog.sym3())

    def test_action_must_fix_identity(self):
        with pytest.raises(ValueError, match="identity"):
            semidirect_product(catalog.cyclic(3), catalog.cyclic(2), [[1, 2, 0], [0, 1, 2]])

    def test_action_must_be_automorphism(self):
        with pytest.raises(ValueError, match="automorphism"):
            semidirect_product(catalog.cyclic(3), catalog.cyclic(2), [[0, 1, 2], [1, 0, 2]])

    def test_action_must_be_homomorphism(self):
        ident, inv = [0, 1, 2], [0, 2, 1]
        with pytest.raises(ValueError, match="homomorphism"):
            semidirect_product(catalog.cyclic(3), catalog.cyclic(4), [ident, inv, inv, ident])


class TestAnalyses:
    def test_element_orders(self):
        q8 = catalog.quaternion8()
        assert q8.element_order(0) == 1
        a = index_of_label(q8, "i")
        assert q8.element_order(a) == 4
        assert q8.powers(np.array([a]), 2)[0] != 0
        d16 = catalog.dihedral(16)
        assert d16.element_order(index_of_label(d16, "s")) == 2

    def test_abelian_classes_are_singletons(self):
        c6 = catalog.cyclic(6)
        assert c6.conjugacy.sizes == (1,) * 6

    def test_q8_classes(self):
        assert sorted(catalog.quaternion8().conjugacy.sizes) == [1, 1, 2, 2, 2]

    def test_d16_classes(self):
        assert sorted(catalog.dihedral(16).conjugacy.sizes) == [1, 1, 2, 2, 2, 4, 4]

    def test_center_abelian(self):
        c6 = catalog.cyclic(6)
        assert c6.center == tuple(range(6))

    def test_centralizer_of_identity(self):
        s3 = catalog.sym3()
        assert s3.centralizer([0]) == tuple(range(6))

    def test_centralizer_z2_d16(self):
        d16 = catalog.dihedral(16)
        z2 = d16.upper_central_series.subgroups[2]
        cent = d16.centralizer(z2)
        r = index_of_label(d16, "r")
        assert cent == d16.subgroup_generated([r])
        assert len(cent) == 8

    def test_centralizer_empty_set_rejected(self):
        with pytest.raises(ValueError):
            catalog.sym3().centralizer([])

    def test_commutator_subgroups(self):
        assert catalog.cyclic(6).commutator_subgroup == (0,)
        q8 = catalog.quaternion8()
        assert set(q8.commutator_subgroup) == {0, index_of_label(q8, "-1")}
        s3 = catalog.sym3()
        assert len(s3.commutator_subgroup) == 3

    def test_upper_central_series_abelian(self):
        c6 = catalog.cyclic(6)
        s = c6.upper_central_series
        assert s.nilpotency_class == 1
        assert s.subgroups[-1] == tuple(range(6))
        assert catalog.cyclic(1).nilpotency_class == 0

    def test_upper_central_series_s3_stabilizes(self):
        s = catalog.sym3().upper_central_series
        assert s.nilpotency_class is None
        assert s.subgroups == ((0,),)

    def test_subgroup_generated(self):
        q8 = catalog.quaternion8()
        assert q8.subgroup_generated([]) == (0,)
        a = index_of_label(q8, "i")
        assert len(q8.subgroup_generated([a])) == 4

    def test_subgroup_reindexing(self):
        q8 = catalog.quaternion8()
        sub = q8.subgroup(q8.subgroup_generated([index_of_label(q8, "i")]))
        assert sub.n == 4 and sub.is_abelian

    def test_quotient(self):
        s3 = catalog.sym3()
        q = s3.quotient_map(s3.commutator_subgroup)[0]
        assert q.n == 2
        with pytest.raises(ValueError, match="normal"):
            s3.quotient_map(s3.subgroup_generated([1]))


class TestPredicates:
    def test_star_vacuous_on_abelian(self):
        ok, cert = catalog.cyclic(6).central_coset_condition()
        assert ok and cert["witnesses"] == {}

    def test_star_q8(self):
        q8 = catalog.quaternion8()
        ok, cert = q8.central_coset_condition()
        assert ok
        minus_one = index_of_label(q8, "-1")
        assert all(z == minus_one for z in cert["witnesses"].values())

    def test_star_d16_fails(self):
        d16 = catalog.dihedral(16)
        ok, cert = d16.central_coset_condition()
        assert not ok
        g = cert["violator"]
        # the only candidate subgroup is generated by the order-2 rotation
        z = [x for x in d16.center if x != 0]
        assert len(z) == 1
        coset = {d16.mul(g, h) for h in d16.subgroup_generated(z)}
        cls = set(d16.conjugacy.classes[d16.conjugacy.class_of[g]])
        assert not coset <= cls

    def test_star_cyclic_reduction_matches_full_enumeration(self):
        # compare against enumeration of every subgroup of the center
        import itertools

        for spec in ["Q8", "D8", "D16", "QD16", "Q16", "M16", "H3", "prop29:2",
                     "order16:12", "order16:13", "order16:14", "S3", "D12"]:
            g = catalog.get(spec)
            z = [x for x in g.center if x != 0]
            if len(g.center) > 16:
                continue
            subgroups = set()
            for r in range(1, min(4, len(z)) + 1):
                for combo in itertools.combinations(z, r):
                    sub = g.subgroup_generated(combo)
                    if len(sub) > 1:
                        subgroups.add(sub)
            full = True
            for cls in g.conjugacy.classes:
                if len(cls) == 1:
                    continue
                rep = cls[0]
                cls_set = set(cls)
                if not any(
                    all(g.mul(rep, h) in cls_set for h in sub) for sub in subgroups
                ):
                    full = False
                    break
            assert g.central_coset_condition()[0] == full, spec

    def test_z2_self_centralizing(self):
        assert catalog.p5_class3_group(2).z2_self_centralizing()
        assert not catalog.dihedral(16).z2_self_centralizing()
        assert catalog.quaternion8().z2_self_centralizing()


class TestJsonShapes:
    def test_labels(self):
        q8 = catalog.quaternion8()
        assert q8.label(0) == "1"
        with pytest.raises(KeyError):
            index_of_label(group_from_generators(2, [(1, 0)]), "nope")
        unlabeled = FiniteGroup([[0, 1], [1, 0]])
        assert unlabeled.label(1) == "1"


# -- the array analyses against scalar loops over the table ---------------------


def _orders_ref(g):
    out = []
    for x in range(g.n):
        m, cur = 1, x
        while cur != 0:
            cur = g.mul(cur, x)
            m += 1
        out.append(m)
    return out


def _decompose_ref(g, p):
    orders = _orders_ref(g)

    def is_p_power(m):
        while m % p == 0:
            m //= p
        return m == 1

    p_part = tuple(x for x in range(g.n) if is_p_power(orders[x]))
    h_part = tuple(x for x in range(g.n) if orders[x] % p != 0)
    closed = all(g.mul(a, b) in set(p_part) for a in p_part for b in p_part)
    commute = all(g.mul(a, b) == g.mul(b, a) for a in p_part for b in h_part)
    h_ab = all(g.mul(a, b) == g.mul(b, a) for a in h_part for b in h_part)
    return p_part, h_part, closed, commute, h_ab


def _subgroup_table_ref(g, mem):
    pos = {x: i for i, x in enumerate(mem)}
    return [[pos[g.mul(x, y)] for y in mem] for x in mem]


def _classes_ref(g):
    classes = []
    for x in range(g.n):
        if not any(x in c for c in classes):
            classes.append(tuple(sorted({g.mul(g.mul(int(g.inv[a]), x), a) for a in range(g.n)})))
    return tuple(classes)


def _generated_ref(g, gens):
    seen, frontier = {0}, [0]
    while frontier:
        nxt = [g.mul(x, s) for x in frontier for s in gens]
        frontier = [y for y in dict.fromkeys(nxt) if y not in seen]
        seen.update(frontier)
    return tuple(sorted(seen))


def _central_coset_ref(g):
    cert = {}
    for cls in _classes_ref(g):
        if len(cls) == 1:
            continue
        rep = cls[0]
        found = next(
            (z for z in g.center if z != 0
             and all(g.mul(rep, h) in cls for h in _generated_ref(g, [z]))),
            None,
        )
        if found is None:
            return False, {"violator": rep, "witnesses": cert}
        cert[rep] = found
    return True, {"violator": None, "witnesses": cert}


@pytest.mark.parametrize("spec", REFERENCE_SPECS)
def test_analyses_match_scalar_loops(spec):
    from cealg.decision import decompose_p

    g = catalog.get(spec)
    orders = _orders_ref(g)
    assert element_orders(g).tolist() == orders
    assert [g.element_order(x) for x in range(g.n)] == orders
    assert g.conjugacy.classes == _classes_ref(g)
    for p in (2, 3, 5):
        dec = decompose_p(g, p)
        assert (dec.p_part, dec.p_prime_part, dec.p_part_is_subgroup, dec.parts_commute,
                dec.h_abelian) == _decompose_ref(g, p)
        if dec.p_part_is_subgroup:
            sub = g.subgroup(dec.p_part)
            assert sub.table.tolist() == _subgroup_table_ref(g, dec.p_part)
            assert labels_of(sub) == shown(subgroup_labels(eager_labels(spec), dec.p_part), sub.n)
        else:
            with pytest.raises(ValueError, match="not closed"):
                g.subgroup(dec.p_part)
    for x in range(0, g.n, 5):
        assert g.subgroup_generated([x, g.n - 1 - x]) == _generated_ref(g, [x, g.n - 1 - x])
    assert g.central_coset_condition() == _central_coset_ref(g)


def test_generator_table_matches_composition_loop():
    gens = [(1, 2, 3, 0), (1, 0, 2, 3)]
    g = group_from_generators(4, gens, "S4")
    elems = _closure(4, gens)[0]
    index = {e: i for i, e in enumerate(elems)}
    ref = [[index[tuple(a[b[x]] for x in range(4))] for b in elems] for a in elems]
    assert g.n == 24 and g.table.tolist() == ref


def test_no_scalar_loops_on_catalog_and_decide(monkeypatch):
    """Building and deciding go through whole-table gathers: not one call of
    the scalar product or the scalar element order."""
    from cealg.decision import decide
    from cealg.fields import field_make

    calls = {"mul": 0, "element_order": 0}

    def counted(name):
        orig = getattr(FiniteGroup, name)

        def wrapper(self, *args):
            calls[name] += 1
            return orig(self, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(FiniteGroup, name, counted(name))
    catalog.heisenberg.cache_clear()
    catalog.cyclic.cache_clear()
    h11 = catalog.get("H11")
    catalog.get("C1024")
    assert decide(h11, field_make(11)).verdict == "centrally_essential"
    assert calls == {"mul": 0, "element_order": 0}


# -- the generating-set analyses against the O(n^2) table scans ---------------


def _scan_classes(g):
    """Classes from the whole conjugation table x^-1 g x, by least member."""
    t = g.table
    least = t[g.inv[:, None], t.T].min(axis=0)
    class_of = (np.cumsum(least == np.arange(g.n)) - 1)[least]
    classes = tuple(tuple(np.flatnonzero(class_of == c).tolist())
                    for c in range(int(class_of.max()) + 1))
    return classes, tuple(class_of.tolist())


def _scan_center(g):
    return tuple(np.flatnonzero((g.table == g.table.T).all(axis=1)).tolist())


def _scan_commutators(g):
    """The n x n table of (x, y) = x^-1 y^-1 x y."""
    t, inv = g.table, g.inv
    return t[t[inv[:, None], inv[None, :]], t]


def _scan_series(g):
    comm = _scan_commutators(g)
    chain = [(0,)]
    current = np.zeros(g.n, dtype=bool)
    current[0] = True
    while True:
        nxt = current[comm].all(axis=1)
        if (nxt == current).all():
            break
        current = nxt
        chain.append(tuple(np.flatnonzero(current).tolist()))
        if current.all():
            break
    return tuple(chain), (len(chain) - 1 if current.all() else None)


def _scan_commutator_subgroup(g):
    return _generated_ref(g, np.unique(_scan_commutators(g)).tolist())


def _scan_centralizer(g, s):
    arr = np.array(sorted(set(s)))
    return tuple(np.flatnonzero((g.table[:, arr] == g.table[arr, :].T).all(axis=1)).tolist())


def _scan_is_normal(g, members):
    inside = np.zeros(g.n, dtype=bool)
    inside[list(members)] = True
    t, arr = g.table, np.array(sorted(members))
    return bool(inside[t[t[g.inv[:, None], arr[None, :]], np.arange(g.n)[:, None]]].all())


def _relabelled(g, rng):
    """g with its non-identity elements renamed by a random permutation pi;
    returns the copy and pi as an array (pi[0] = 0)."""
    pi = np.concatenate([[0], 1 + rng.permutation(g.n - 1)]).astype(np.int32)
    table = np.empty_like(g.table)
    table[np.ix_(pi, pi)] = pi[g.table]
    return FiniteGroup(table, g.name + "'"), pi


def _mapped(pi, members):
    return tuple(sorted(pi[list(members)].tolist()))


def _right_generators_ref(g):
    gens, span = [], {0}
    for x in range(g.n):
        if x not in span:
            gens.append(x)
            span = set(_generated_ref(g, gens))
    return gens


def _assert_matches_scan(g):
    classes, class_of = _scan_classes(g)
    assert g.conjugacy.classes == classes and g.conjugacy.class_of == class_of
    # rep[x] is the least member of x's class
    rep = g.conjugacy.rep
    assert rep.tolist() == [classes[c][0] for c in class_of] and not rep.flags.writeable
    assert g.center == _scan_center(g)
    series = g.upper_central_series
    assert (series.subgroups, series.nilpotency_class) == _scan_series(g)
    assert g.commutator_subgroup == _scan_commutator_subgroup(g)
    z2 = series.subgroups[min(2, len(series.subgroups) - 1)]
    assert g.centralizer(z2) == _scan_centralizer(g, z2)
    for h in (g.commutator_subgroup, g.subgroup_generated([g.n - 1])):
        assert g.is_normal(h) == _scan_is_normal(g, h)
    # the closure squares its generators, so long cycles close in few rounds
    xs = [1 % g.n, g.n // 3, g.n - 1]
    for x, y in zip(xs, xs[1:] + xs[:1]):
        assert g.subgroup_generated([x]) == _generated_ref(g, [x])
        assert g.subgroup_generated([x, y]) == _generated_ref(g, [x, y])
    assert g.right_generators.tolist() == _right_generators_ref(g)


@pytest.mark.parametrize(
    "spec", [s for s, _ in catalog.standard_entries()]
    + ["D64", "S3 x C64", "H7", "C1024", "D512", "Q8 x C125"]
)
def test_generator_analyses_match_table_scans(spec):
    g = catalog.get(spec)
    _assert_matches_scan(g)
    # a relabelled copy: its own scans agree, and they carry g's over pi
    h, pi = _relabelled(g, np.random.default_rng(g.n))
    _assert_matches_scan(h)
    assert {_mapped(pi, c) for c in g.conjugacy.classes} == set(h.conjugacy.classes)
    assert _mapped(pi, g.center) == h.center
    assert [_mapped(pi, z) for z in g.upper_central_series.subgroups] == list(
        h.upper_central_series.subgroups)
    assert _mapped(pi, g.commutator_subgroup) == h.commutator_subgroup
    assert g.central_coset_condition()[0] == h.central_coset_condition()[0]
    assert g.z2_self_centralizing() == h.z2_self_centralizing()
    assert fingerprint(g) == fingerprint(h)


@pytest.mark.parametrize("p, r", [(2, 1), (2, 4), (3, 3), (5, 2), (7, 1)])
def test_elem_abelian_table_is_digitwise_sum(p, r):
    n = p**r
    digits = np.stack([(np.arange(n) // p**i) % p for i in range(r)], axis=1)
    ref = ((digits[:, None, :] + digits[None, :, :]) % p) @ np.array([p**i for i in range(r)])
    g = catalog.elem_abelian(p, r)
    assert g.table.tolist() == ref.tolist()
    assert g.name == f"E{p}^{r}" and labels_of(g) == shown(None, g.n)


_ELEM_ABELIAN_CASES = [
    (p, r) for p in range(2, 65) if is_prime(p) for r in range(2, 13) if p**r <= 4096
] + [(p, 1) for p in (2, 3, 5, 7, 61, 4093)]


@pytest.mark.parametrize("p, r", _ELEM_ABELIAN_CASES)
def test_elem_abelian_matches_factor_at_a_time_build(p, r):
    # halves and one factor at a time pair the same base-p digits
    g, ref = catalog.elem_abelian.__wrapped__(p, r), elem_abelian_by_factors(p, r)
    assert np.array_equal(g.table, ref.table) and np.array_equal(g.inv, ref.inv)
    assert (g.name, labels_of(g)) == (ref.name, labels_of(ref))


def _unique_quotient(g, normal):
    """The quotient as np.unique names it: cosets by least member, numbered
    in that order; returns the coset of every element and the table."""
    arr = np.unique(np.asarray(normal))
    reps, coset_of = np.unique(g.table[:, arr].min(axis=1), return_inverse=True)
    return coset_of, coset_of[g.table[reps[:, None], reps]]


@pytest.mark.parametrize("spec, normal", [
    ("S3", "commutator_subgroup"), ("H5", "center"), ("D16", "center"),
    ("D16", "commutator_subgroup"),
])
def test_quotient_map_matches_unique_reference(spec, normal):
    g = catalog.get(spec)
    members = getattr(g, normal)
    coset_of, table = _unique_quotient(g, members)
    # the same set in another order, with a repeat, names the same cosets
    for given in (members, list(reversed(members)) + [0]):
        q, got = g.quotient_map(given)
        assert got.tolist() == coset_of.tolist()
        assert q.table.tolist() == table.tolist() and q.n == g.n // len(members)
    # the derived table is a group with the derived inverses: it passes the
    # full validation of a fresh FiniteGroup
    fresh = FiniteGroup(q.table)
    assert fresh.inv.tolist() == q.inv.tolist() and not q.table.flags.writeable


def test_quotient_refuses_normal_sets_that_are_not_subgroups():
    s3 = catalog.sym3()
    # {1} with the three transpositions is a union of classes, not a subgroup
    transpositions = [c for c in s3.conjugacy.classes if len(c) == 3][0]
    members = (0, *transpositions)
    assert s3.is_normal(members)
    with pytest.raises(ValueError, match="normal"):
        s3.quotient_map(members)
    d16 = catalog.dihedral(16)
    with pytest.raises(ValueError, match="normal"):
        d16.quotient_map(d16.center[1:])  # the center without the identity


# blocks of one row, of a few rows with a partial last block, and the default
_COSET_BLOCKS = pytest.mark.parametrize("entries", [1, 37, None], ids=["1", "37", "default"])


@_COSET_BLOCKS
@pytest.mark.parametrize("spec", REFERENCE_SPECS + ["D16", "prop29:3", "E2^10"])
def test_quotient_map_matches_whole_array_reference(monkeypatch, spec, entries):
    g = catalog.get(spec)
    if entries:
        monkeypatch.setattr(groups, "BLOCK_ENTRIES", entries)
    normals = [g.center] if spec in ("D16", "prop29:3", "E2^10") else [
        g.center, g.commutator_subgroup]
    for normal in normals:
        table, inv, coset_of = quotient_whole_array(g, normal)
        q, got = g.quotient_map(normal)
        assert np.array_equal(q.table, table) and np.array_equal(q.inv, inv)
        assert np.array_equal(got, coset_of)


@_COSET_BLOCKS
def test_quotient_refusals_match_whole_array_reference(monkeypatch, entries):
    # normal sets holding 1 that are not closed: the identity with S3's
    # transpositions, and with D16's class of the reflection s
    s3, d16 = catalog.sym3(), catalog.dihedral(16)
    cases = [(s3, (0, *[c for c in s3.conjugacy.classes if len(c) == 3][0])),
             (d16, (0, *d16.conjugacy.classes[d16.conjugacy.class_of[index_of_label(d16, "s")]]))]
    if entries:
        monkeypatch.setattr(groups, "BLOCK_ENTRIES", entries)
    for g, members in cases:
        assert g.is_normal(members)
        for quotient in (g.quotient_map, lambda m: quotient_whole_array(g, m)):
            with pytest.raises(ValueError, match="normal subgroup"):
                quotient(members)


def test_quotient_by_the_center_peaks_far_below_the_table():
    g = catalog.elem_abelian.__wrapped__(2, 12)
    center = g.center  # found with the generators, before the trace
    tracemalloc.start()
    try:
        q, coset_of = g.quotient_map(center)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert q.n == 1 and not coset_of.any()
    # the n x |Z| cosets at once took 2 n^2 bytes (32 MB) in int16 alone
    assert peak < 1 << 20, peak


# -- groups that inherit the axioms, checked by full validation ---------------

_INHERITING_SPECS = [
    # the products of the large-groups and socle-chain workloads
    "H7 x C9", "Q8 x C125", "S3 x C64", "H5 x C5",
    # split extensions of C_p x C_p by C_p, acting group first
    "H2", "H3", "H5", "H7", "H11",
    "prop29:2", "prop29:3", "prop29:5", "Q8 x C3", "E3^7",
]


def _derived(g, rng):
    """g, some of its subgroups and quotients: the center, G', a random
    cyclic subgroup, every p-part that is a subgroup, G/Z and G/G'."""
    yield g
    x = int(rng.integers(g.n))
    for members in (g.center, g.commutator_subgroup, g.subgroup_generated([x])):
        yield g.subgroup(members)
    for p in range(2, g.n + 1):
        if g.n % p == 0 and is_prime(p):
            dec = decompose_p(g, p)
            if dec.p_part_is_subgroup:
                yield g.subgroup(dec.p_part)
    yield g.quotient_map(g.center)[0]
    yield g.quotient_map(g.commutator_subgroup)[0]


def test_label_functions_keep_no_group_alive():
    # factors and a parent made directly, so that no catalog cache holds them
    def cyclic_table(n):
        idx = np.arange(n)
        return (idx[:, None] + idx) % n

    c2 = FiniteGroup(cyclic_table(2), "C2", ["1", "a"])
    c3 = FiniteGroup(cyclic_table(3), "C3", lambda i: "b" * i or "1")
    c6 = FiniteGroup(cyclic_table(6), "C6", [f"g{i}" for i in range(6)])
    prod, sub = direct_product(c2, c3), c6.subgroup([0, 2, 4])
    gone = [weakref.ref(g) for g in (c2, c3, c6)]
    del c2, c3, c6
    gc.collect()
    assert [ref() for ref in gone] == [None, None, None]
    assert labels_of(prod) == ["(1,1)", "(1,b)", "(1,bb)", "(a,1)", "(a,b)", "(a,bb)"]
    assert labels_of(sub) == ["g0", "g2", "g4"]


def _assert_passes_full_validation(g):
    fresh = FiniteGroup(g.table.copy(), g.name, labels_of(g))
    assert fresh.inv.tolist() == g.inv.tolist(), g.name
    assert not g.table.flags.writeable and not g.inv.flags.writeable


def _metacyclic(rng):
    """C_m : C_k with c acting by x -> u^c x for a random unit u of order
    dividing k."""
    m, k = (int(v) for v in rng.integers(2, 13, size=2))
    units = [u for u in range(1, m) if np.gcd(u, m) == 1 and pow(u, k, m) == 1]
    u = units[int(rng.integers(len(units)))]
    return m, k, [[(x * pow(u, c, m)) % m for x in range(m)] for c in range(k)]


def _random_products(rng, count):
    """Direct products of two small groups, cyclic-by-cyclic semidirect
    products with a random unit of the right order, and N : N by
    conjugation, so the inverse formula meets a nontrivial action; the
    semidirect products in both pair orders."""
    small = [catalog.cyclic(k) for k in (1, 2, 3, 4, 5, 6)] + [
        catalog.sym3(), catalog.quaternion8(), catalog.dihedral(8), catalog.dihedral(10)]
    for _ in range(count):
        a, b = rng.choice(len(small), size=2)
        yield direct_product(small[a], small[b])
        m, k, action = _metacyclic(rng)
        acting_first = bool(rng.integers(2))
        yield semidirect_product(
            catalog.cyclic(m), catalog.cyclic(k), action, acting_first=acting_first)
        nn = small[int(rng.integers(6, len(small)))]
        t, inv = nn.table, nn.inv
        yield semidirect_product(nn, nn, [t[t[c], inv[c]].tolist() for c in range(nn.n)],
                                 acting_first=not acting_first)


def test_inherited_groups_pass_full_validation(rng):
    bases = list(catalog.order16_all()) + [g for _, g in catalog.standard_entries()]
    bases += [catalog.get(spec) for spec in _INHERITING_SPECS]
    bases += list(_random_products(rng, 8))
    for g in bases:
        for h in _derived(g, rng):
            _assert_passes_full_validation(h)


def test_products_and_subgroups_skip_validation(validated_orders, inherited_orders):
    c4, s3, c3, c2 = catalog.cyclic(4), catalog.sym3(), catalog.cyclic(3), catalog.cyclic(2)
    validated_orders.clear()
    g = direct_product(c4, s3)
    h = semidirect_product(c3, c2, [[0, 1, 2], [0, 2, 1]])
    g.subgroup(g.center)
    g.quotient_map(g.center)
    assert validated_orders == [] and inherited_orders == [24, 6, 4, 6]
    assert h.inv.tolist() == [0, 1, 4, 3, 2, 5]


def test_inherited_path_keeps_its_refusals():
    c3, c2 = catalog.cyclic(3), catalog.cyclic(2)
    with pytest.raises(GroupValidationError, match="label count"):
        semidirect_product(c3, c2, [[0, 1, 2], [0, 2, 1]], labels=["a"] * 5)
    with pytest.raises(GroupValidationError, match="label count"):
        FiniteGroup._inherited(c3.table, c3.inv, "C3", ["a", "b"])
    # an order above the cap is refused before the table is read; a
    # broadcast view stands in for the table without allocating it
    big = np.broadcast_to(np.zeros(1, dtype=np.int32), (ORDER_CAP + 1, ORDER_CAP + 1))
    tracemalloc.start()
    try:
        with pytest.raises(GroupValidationError, match="outside"):
            FiniteGroup._inherited(big, np.zeros(ORDER_CAP + 1, dtype=np.int32), "big")
        with pytest.raises(GroupValidationError, match="outside"):
            FiniteGroup(big)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # neither path casts the view: that would allocate its 2^26 entries
    assert peak < 1 << 20, peak
    with pytest.raises(ValueError, match="cap"):
        direct_product(catalog.cyclic(91), catalog.cyclic(91))  # 8281 > 8192


# -- semidirect products in both pair orders ------------------------------------

_PAIR_ORDERS = pytest.mark.parametrize(
    "acting_first", [False, True], ids=["n-first", "acting-first"])


@_PAIR_ORDERS
def test_action_refusals_in_both_pair_orders(acting_first):
    c3, c2, c4 = catalog.cyclic(3), catalog.cyclic(2), catalog.cyclic(4)
    ident, inv = [0, 1, 2], [0, 2, 1]
    for gamma, action, reason in [
        (c2, [[1, 2, 0], ident], "identity must be trivial"),
        (c2, [ident, [0, 1, 1]], "element 1 is not a permutation"),
        (c2, [ident, [1, 0, 2]], "element 1 is not an automorphism"),
        (c4, [ident, inv, inv, ident], r"not a homomorphism: fails at pair \(1, 1\)"),
    ]:
        with pytest.raises(ValueError, match=reason):
            semidirect_product(c3, gamma, action, acting_first=acting_first)


@_PAIR_ORDERS
@pytest.mark.parametrize("rows", [None, 1, 5])
def test_automorphism_refusal_names_the_first_failing_pair(monkeypatch, acting_first, rows):
    # swapping 5 and 7 in C12 fixes 0 but is no automorphism: the first
    # failing pair in row order is (1, 4), a(5) = 7 against 1 + a(4) = 5
    c12 = catalog.cyclic(12)
    swap = [{5: 7, 7: 5}.get(x, x) for x in range(12)]
    if rows:
        monkeypatch.setattr(groups, "BLOCK_ENTRIES", rows * 12)
    action = [list(range(12)), swap]
    with pytest.raises(ValueError, match=r"element 1 is not an automorphism: fails at pair \(1, 4\)"):
        semidirect_product(c12, catalog.cyclic(2), action, acting_first=acting_first)


def test_acting_first_is_the_pair_swap_of_n_first(rng):
    for _ in range(12):
        m, k, action = _metacyclic(rng)
        cm, ck = catalog.cyclic(m), catalog.cyclic(k)
        a = semidirect_product(cm, ck, action)  # (x, c) -> x * k + c
        b = semidirect_product(cm, ck, action, acting_first=True)  # (c, x) -> c * m + x
        x, c = np.divmod(np.arange(m * k), k)
        swap = c * m + x  # a's index of (x, c) -> b's index of (c, x)
        assert (b.table[swap[:, None], swap] == swap[a.table]).all()
        assert (b.inv[swap] == swap[a.inv]).all()


@_PAIR_ORDERS
@pytest.mark.parametrize("rows", [None, 1, 7])
def test_semidirect_product_matches_per_pair_loop(monkeypatch, acting_first, rows):
    # C9 : C3 with c acting by x -> 4^c x; blocks of 7 rows leave a partial
    # last block
    action = [[(x * 4**c) % 9 for x in range(9)] for c in range(3)]

    def law(u, v):
        (x, c), (y, d) = u, v
        return ((x + action[c][y]) % 9, (c + d) % 3)

    pairs = [(x, c) for x in range(9) for c in range(3)]
    if acting_first:
        pairs.sort(key=lambda u: u[::-1])
    index = {u: i for i, u in enumerate(pairs)}
    ref = [[index[law(u, v)] for v in pairs] for u in pairs]
    if rows:
        monkeypatch.setattr(groups, "BLOCK_ENTRIES", rows * 27)
    g = semidirect_product(catalog.cyclic(9), catalog.cyclic(3), action, acting_first=acting_first)
    assert g.table.tolist() == ref
    assert g.inv.tolist() == [index[((-action[(-c) % 3][x]) % 9, (-c) % 3)] for x, c in pairs]


# -- the builders hold at most two row blocks beyond what they return ----------

_SYM6_GENERATORS = [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]
_BOUNDED_BUILDS = {
    "H7 x C9": lambda: direct_product(catalog.heisenberg(7), catalog.cyclic(9)),
    # g2's rows of one x no longer fit a block
    "C2 x C512": lambda: direct_product(catalog.cyclic(2), catalog.cyclic(512)),
    "H11": lambda: catalog.heisenberg.__wrapped__(11),
    # the halves E2^5 are cached; E2^9, a quarter of the table, is never built
    "E2^10": lambda: catalog.elem_abelian.__wrapped__(2, 10),
    "S6": lambda: group_from_generators(6, _SYM6_GENERATORS, "S6"),
}


@pytest.mark.parametrize("build", _BOUNDED_BUILDS.values(), ids=_BOUNDED_BUILDS.keys())
def test_build_peak_is_the_result_plus_two_row_blocks(build):
    # a first build fills the caches (the factors, numpy's own), so what
    # the traced build retains is its result: table, inverses and labels
    build()
    tracemalloc.start()
    try:
        g = build()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    two_blocks = 2 * groups.BLOCK_ENTRIES * g.table.itemsize
    # a whole n x n temporary would not fit into the bound
    assert g.table.nbytes > two_blocks
    assert peak - retained <= two_blocks, (peak - retained, two_blocks)


# -- the table layout: int16, read-only, at every order up to the cap ----------


def test_the_cap_fits_the_table_dtype():
    assert groups.TABLE is np.int16
    assert ORDER_CAP <= np.iinfo(groups.TABLE).max + 1


def _every_builder(tmp_path):
    """Groups from every builder: closed-form laws, direct and semidirect
    products, permutation closures, a group file, and subgroups and
    quotients of those."""
    out = [g for _, g in catalog.standard_entries()] + catalog.order16_all()
    out += [catalog.get(s) for s in ("prop29:2", "prop29:3", "prop29:5", "H11")]
    products = [catalog.get(s) for s in ("H7 x C9", "S3 x C64", "Q8 x C3")]
    out += products
    action = [[(x * 4**c) % 9 for x in range(9)] for c in range(3)]
    for acting_first in (False, True):
        out.append(semidirect_product(catalog.cyclic(9), catalog.cyclic(3), action,
                                      acting_first=acting_first))
    out.append(group_from_generators(6, _SYM6_GENERATORS, "S6"))
    path = tmp_path / "s4.json"
    path.write_text(json.dumps({"name": "S4", "degree": 4,
                                "generators": [[1, 2, 3, 0], [1, 0, 2, 3]]}))
    out.append(cli.load_group(str(path)))
    for g in products:
        for p in (2, 3, 7):
            dec = decompose_p(g, p) if g.n % p == 0 else None
            if dec and dec.p_part_is_subgroup:
                out.append(g.subgroup(dec.p_part))
    for g in list(out):
        out += [g.subgroup(g.center), g.quotient_map(g.center)[0],
                g.quotient_map(g.commutator_subgroup)[0]]
    return out


def test_every_builder_stores_read_only_int16_tables(tmp_path):
    built = _every_builder(tmp_path)
    assert len(built) > 200
    for g in built:
        assert g.table.dtype == g.inv.dtype == np.int16, g.name
        assert not g.table.flags.writeable and not g.inv.flags.writeable, g.name


def _sum_mod(n):
    return lambda x, y: (x + y) % n


# the three largest shapes, each against its law computed in int64
_AT_THE_CAP = {
    "C8192": (lambda: catalog.cyclic.__wrapped__(8192), _sum_mod(8192), lambda x: -x % 8192),
    "C2 x C4096": (
        lambda: direct_product(catalog.cyclic.__wrapped__(2), catalog.cyclic.__wrapped__(4096)),
        lambda x, y: (x // 4096 + y // 4096) % 2 * 4096 + (x + y) % 4096,
        lambda x: x // 4096 * 4096 + -x % 4096),
    "E2^13": (lambda: catalog.elem_abelian.__wrapped__(2, 13), np.bitwise_xor, lambda x: x),
}


@pytest.mark.parametrize("build, law, inverse", _AT_THE_CAP.values(), ids=_AT_THE_CAP.keys())
def test_tables_at_the_cap_match_an_int64_reference(rng, build, law, inverse):
    g = build()
    n = g.n
    every = np.arange(n, dtype=np.int64)
    rows = np.concatenate([[0, 1, n // 2, n - 2, n - 1], rng.choice(n, 16, replace=False)])
    got = g.table[rows].astype(np.int64)
    assert np.array_equal(got, law(rows[:, None], every[None, :]))
    assert np.array_equal(g.inv.astype(np.int64), inverse(every))
    assert not g.table[every, g.inv].any()


def test_a_table_at_the_cap_retains_two_bytes_an_entry():
    n = ORDER_CAP
    catalog.cyclic.__wrapped__(64)  # numpy's and the catalog's first-call costs
    tracemalloc.start()
    try:
        g = catalog.cyclic.__wrapped__(n)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == n and g.table.nbytes == 2 * n * n
    # the table, its inverses, the generators and the label function
    assert retained <= 2 * n * n + 8 * n, retained
