"""Invariant sweeps shared by the acceptance suite.

Each function runs one property family over the catalog and raises
AssertionError on violation.  They are plain functions (not tests) so the
acceptance criterion that times the property suites can drive them all
from one place.
"""

from __future__ import annotations

import numpy as np

from cealg import catalog
from cealg.algebra import GroupAlgebra
from cealg.decision import (
    candidate_admits_central_multiple,
    oracle_centrally_essential,
    socle_centrally_essential,
)
from cealg.fields import GF, Matrix, field_make
from reference import basis, omega_ideal_basis, power, random_nonzero

FIELD_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (2, 4), (5, 2), (3, 3), (7, 2), (2, 6), (3, 4), (2, 7), (3, 5), (2, 8)]


def _natural_field(g) -> GF | None:
    n = g.n
    for p in (2, 3):
        m = n
        while m % p == 0:
            m //= p
        if m == 1 and n > 1:
            return field_make(p)
    return field_make(2) if n > 1 else field_make(2)


def check_field_axioms() -> int:
    """Exhaustive field axioms and Frobenius for every order up to 2^8, on
    the add and multiply grids of the vector operations every caller uses."""
    checked = 0
    for p, k in FIELD_ORDERS:
        F = field_make(p, k)
        q = F.order
        a = np.arange(q, dtype=np.int64)
        add = F.vadd(a[:, None], a[None, :])
        mul = F.vmul(a[:, None], a[None, :])
        # commutativity
        assert (add == add.T).all() and (mul == mul.T).all()
        # identities and inverses
        assert (add[0] == a).all() and (mul[1] == a).all()
        negs = np.array([F.neg(int(x)) for x in a])
        assert (add[a, negs] == 0).all()
        for x in range(1, q):
            assert F.mul(x, F.inv(x)) == 1
        # associativity and distributivity, chunked over the first operand
        for x in range(q):
            lhs = add[add[x], :]
            rhs = add[x, add]
            assert (lhs == rhs).all()
            lhs = mul[mul[x], :]
            rhs = mul[x, mul]
            assert (lhs == rhs).all()
            assert (mul[x, add] == add[mul[x][:, None], mul[x][None, :]]).all()
        # Frobenius: (a+b)^p = a^p + b^p
        apb = add[a[:, None], a[None, :]]
        frob = _pow_table(F, a, p)
        assert (frob[apb] == add[frob[:, None], frob[None, :]]).all()
        checked += 1
    return checked


def _pow_table(F: GF, a: np.ndarray, e: int) -> np.ndarray:
    out = np.ones_like(a)
    base = a.copy()
    while e:
        if e & 1:
            out = F.vmul(out, base)
        base = F.vmul(base, base)
        e >>= 1
    return out


def _is_prime_power(n: int, p: int) -> bool:
    if n < p:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def check_group_invariants() -> int:
    """Class partition and central-series invariants over the catalog."""
    checked = 0
    for name, g in catalog.standard_entries():
        part = g.conjugacy
        assert sum(part.sizes) == g.n
        assert all(g.n % s == 0 for s in part.sizes)
        singletons = tuple(sorted(c[0] for c in part.classes if len(c) == 1))
        assert singletons == g.center
        series = g.upper_central_series
        for sub in series.subgroups:
            assert g.is_normal(sub)
        if any(_is_prime_power(g.n, p) for p in (2, 3, 5)):
            assert series.nilpotency_class is not None, f"{name}: p-group must be nilpotent"
        checked += 1
    return checked


def check_ring_axioms(triples_per_group: int = 10_000, seed: int = 7) -> int:
    """Associativity, distributivity, identity on random triples of
    coefficient rows, multiplied by the one product kernel."""
    rng = np.random.default_rng(seed)
    checked = 0
    for name, g in catalog.standard_entries():
        F = _natural_field(g)
        alg = GroupAlgebra(g, F)
        mul, one = alg._mul_arrays, basis(alg, 0)
        n = g.n
        coeffs = rng.integers(0, F.order, size=(triples_per_group, 3, n))
        for i in range(triples_per_group):
            x, y, z = coeffs[i]
            xy = mul(x, y)
            yz = mul(y, z)
            assert np.array_equal(mul(xy, z), mul(x, yz))
            assert np.array_equal(mul(x, F.vadd(y, z)), F.vadd(xy, mul(x, z)))
            if i % 997 == 0:
                assert np.array_equal(mul(one, x), x) and np.array_equal(mul(x, one), x)
        checked += 1
    return checked


def check_omega_nilpotence() -> int:
    """Every generator of the full augmentation ideal is nilpotent for
    catalog p-groups of order <= 32 over GF(p)."""
    checked = 0
    for name, g in catalog.standard_entries():
        if g.n > 32 or g.n == 1:
            continue
        for p in (2, 3):
            m = g.n
            while m % p == 0:
                m //= p
            if m != 1:
                continue
            F = field_make(p)
            alg = GroupAlgebra(g, F)
            for b in omega_ideal_basis(alg, range(g.n)):
                assert not power(alg, b, g.n).any(), f"{name}: omega generator not nilpotent"
            checked += 1
    return checked


def check_center_characterization(seed: int = 11) -> int:
    """Commutation test, class-constancy test, and rank-based span
    membership agree on random elements."""
    rng = np.random.default_rng(seed)
    checked = 0
    for name, g in catalog.standard_entries():
        F = _natural_field(g)
        alg = GroupAlgebra(g, F)
        zmat, _ = alg.center_matrix
        d = len(alg.center_basis)
        probes = [random_nonzero(alg, rng) for _ in range(20)]
        probes += list(alg.center_basis)
        probes.append(F.vsum(np.stack(
            [F.vscale(int(rng.integers(0, F.order)), s) for s in alg.center_basis]), 0))
        for x in probes:
            lib = alg.is_central(x)  # runs commutation + constancy, must agree
            by_rank = Matrix(F, np.vstack([zmat.data, x[None, :]])).rank() == d
            assert lib == by_rank, f"{name}: rank route disagrees"
        checked += 1
    return checked


def check_coset_condition_implication() -> int:
    """A self-centralizing Z_2 forces the central-coset condition."""
    checked = 0
    for name, g in catalog.standard_entries():
        if g.z2_self_centralizing():
            ok, _ = g.central_coset_condition()
            assert ok, f"{name}: implication fails"
        checked += 1
    return checked


def check_oracle_scaling(seed: int = 13, samples: int = 60) -> int:
    """A candidate and its nonzero scalar multiples share their fate."""
    rng = np.random.default_rng(seed)
    checked = 0
    for spec, p in [("S3", 3), ("D8", 3), ("Q8", 3), ("S3", 2)]:
        g = catalog.get(spec)
        F = field_make(p)
        alg = GroupAlgebra(g, F)
        for _ in range(samples):
            x = random_nonzero(alg, rng)
            lam = int(rng.integers(1, F.order))
            a, _ = candidate_admits_central_multiple(alg, x)
            b, _ = candidate_admits_central_multiple(alg, F.vscale(lam, x))
            assert a == b
        checked += 1
    return checked


def check_oracle_socle_agreement() -> int:
    """Socle and oracle verdicts agree on small p-group instances."""
    checked = 0
    for spec, p in [("C2", 2), ("C4", 2), ("E2^2", 2), ("C8", 2), ("E2^3", 2),
                    ("D8", 2), ("Q8", 2), ("C16", 2),
                    ("C3", 3), ("C9", 3), ("E3^2", 3)]:
        g = catalog.get(spec)
        F = field_make(p)
        soc = socle_centrally_essential(g, F)
        ora = oracle_centrally_essential(g, F)
        assert soc.verdict == ora.verdict, f"{spec}/GF({p})"
        checked += 1
    return checked
