"""Built-in group constructions.

Every entry is deterministic: identical tables across runs.  Families are
built either from closed-form multiplication laws on normal forms (cyclic,
dihedral, quaternion, ...) or from the generic product constructors.

get() and names() read one grammar table, in listing order: each entry's
spec, its pattern, its builder and its help line.  get() tries the fixed
names Q8, S3, QD16 and M16 first, then the families C<n>, E<p>^<r>, D<2m>,
Q<2^m>, H<p>, order16:<1..14> and prop29:<p>, and takes "A x B" for direct
products.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Callable

import numpy as np

from .fields import is_prime, power_exceeds
from .groups import (
    ORDER_CAP,
    TABLE,
    FiniteGroup,
    GroupValidationError,
    direct_product,
    group_from_generators,
    row_blocks,
    semidirect_product,
)


def _table_from_law(radices: tuple[int, ...], law: Callable, name: str, labels=None) -> FiniteGroup:
    """Cayley table of a closed-form law on mixed-radix normal forms.

    Element i has the digits of i in the given radices, most significant
    first.  The law receives the digit arrays of the left factor as columns
    and of the right factor as rows, and returns the product's digits
    unreduced; each is reduced mod its radix here.  The law runs on one row
    block of the table at a time, so no n x n temporary is formed.  An order
    over the cap is refused before any table is allocated.
    """
    n = math.prod(radices)
    if not 0 < n <= ORDER_CAP:
        raise GroupValidationError(f"group order {n} outside (0, {ORDER_CAP}]")
    # the law's unreduced digits are int32; reduced, each index fits TABLE
    digits = _mixed_radix(np.arange(n, dtype=np.int32), radices)
    right = [d[None, :] for d in digits]
    table = np.empty((n, n), dtype=TABLE)
    for rows in row_blocks(n):
        table[rows] = _encode(law([d[rows, None] for d in digits], right), radices)
    return FiniteGroup(table, name, labels)


def _mixed_radix(idx: int | np.ndarray, radices: tuple[int, ...]) -> list:
    """Digits of idx, an int or an int array, in the given radices, most
    significant first."""
    out = []
    for r in reversed(radices):
        idx, d = divmod(idx, r)
        out.append(d)
    return out[::-1]


def _encode(digits: list[np.ndarray], radices: tuple[int, ...]) -> np.ndarray:
    """Index arrays of unreduced digit arrays, each reduced mod its radix r
    in place by steps of r: the laws' digits lie within a few r of [0, r)."""
    out = 0
    for d, r in zip(digits, radices):
        for _ in range(d.max() // r):
            np.subtract(d, r, out=d, where=d >= r)
        for _ in range(-(d.min() // r)):
            np.add(d, r, out=d, where=d < 0)
        out = out * r + d
    return out


def _power_list(g: FiniteGroup, x: int, k: int) -> np.ndarray:
    """x^0, ..., x^(k-1) in g."""
    out = np.zeros(k, dtype=np.int64)
    for e in range(1, k):
        out[e] = g.table[out[e - 1], x]
    return out


def _pow_label(sym: str, e: int) -> str:
    if e == 0:
        return ""
    return sym if e == 1 else f"{sym}^{e}"


def _join_labels(parts: list[str]) -> str:
    s = " ".join(p for p in parts if p)
    return s if s else "1"


def _power_labels(radices: tuple[int, ...], syms: str, order: tuple[int, ...] | None = None):
    """The label function of mixed-radix normal forms: element i, with digits
    d, is the word of the powers syms[t]^d[t], for t in the given order of
    digit positions (most significant first if not given)."""
    order = order or range(len(radices))

    def label(i: int) -> str:
        d = _mixed_radix(i, radices)
        return _join_labels([_pow_label(syms[t], d[t]) for t in order])

    return label


@lru_cache(maxsize=None)
def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    return _table_from_law((n,), lambda a, b: (a[0] + b[0],), f"C{n}", _power_labels((n,), "g"))


@lru_cache(maxsize=None)
def elem_abelian(p: int, r: int) -> FiniteGroup:
    if r < 1 or (p <= ORDER_CAP and not is_prime(p)):
        raise ValueError("elementary abelian group needs a prime and positive rank")
    if power_exceeds(p, r, ORDER_CAP):
        raise ValueError(f"group order {p}^{r} exceeds the cap {ORDER_CAP}")
    if r == 1:
        idx = np.arange(p, dtype=np.int32)
        return FiniteGroup((idx[:, None] + idx) % p, f"E{p}^1")
    # E_p^a x E_p^b, b = r // 2: pair (x, y) -> x * p^b + y joins the base-p
    # digits, and the unlabelled factors of about p^(r/2) elements leave the
    # product's table the only large one
    return direct_product(elem_abelian(p, r - r // 2), elem_abelian(p, r // 2), f"E{p}^{r}")


@lru_cache(maxsize=None)
def dihedral(order: int) -> FiniteGroup:
    if order < 2 or order % 2:
        raise ValueError("dihedral group order must be even and >= 2")
    m = order // 2

    def law(x, y):
        s, i = x
        t, j = y
        return (s + t, i + j * (1 - 2 * s))

    return _table_from_law((2, m), law, f"D{order}", _power_labels((2, m), "sr", (1, 0)))


@lru_cache(maxsize=None)
def gen_quaternion(order: int) -> FiniteGroup:
    if order < 8 or order & (order - 1):
        raise ValueError("generalized quaternion group order must be 2^m >= 8")
    m = order // 2
    half = m // 2

    def law(a, b):
        u, x = a
        v, y = b
        return (u + v, x + y * (1 - 2 * u) + half * u * v)

    return _table_from_law((2, m), law, f"Q{order}", _power_labels((2, m), "ba", (1, 0)))


_Q8_LABELS = ("1", "i", "-1", "-i", "j", "k", "-j", "-k")


@lru_cache(maxsize=None)
def quaternion8() -> FiniteGroup:
    """Q8 with the classical +/- i j k labels (a = i, b = j)."""
    g = gen_quaternion(8)
    return FiniteGroup._inherited(g.table, g.inv, "Q8", _Q8_LABELS)


def _c8_by_c2(u: int, name: str) -> FiniteGroup:
    """C8 : C2 with the C2 generator acting by r -> r^u."""
    act = [list(range(8)), [(u * i) % 8 for i in range(8)]]
    return semidirect_product(cyclic(8), cyclic(2), act, name, _power_labels((8, 2), "rs"))


@lru_cache(maxsize=None)
def semidihedral16() -> FiniteGroup:
    return _c8_by_c2(3, "QD16")


@lru_cache(maxsize=None)
def modular16() -> FiniteGroup:
    return _c8_by_c2(5, "M16")


@lru_cache(maxsize=None)
def sym3() -> FiniteGroup:
    g = group_from_generators(3, [(1, 0, 2), (1, 2, 0)], "S3")
    return g


@lru_cache(maxsize=None)
def heisenberg(p: int) -> FiniteGroup:
    """Unitriangular 3x3 matrices over GF(p): nonabelian of order p^3, class 2.

    Element (i, j, k), index (i * p + j) * p + k, is x^i y^j z^k, and
    (i, j, k)(x, y, z) = (i + x, j + y, k + z + i y): the split extension
    of C_p x C_p by C_p acting by (j, k) -> (j, k + i j), acting group first.
    """
    if p**3 > ORDER_CAP:
        raise ValueError(f"group order {p}^3 exceeds the cap {ORDER_CAP}")
    if not is_prime(p):
        raise ValueError("heisenberg group needs a prime")
    cp = cyclic(p)
    j, k = np.divmod(np.arange(p * p), p)
    action = [j * p + (k + i * j) % p for i in range(p)]
    return semidirect_product(direct_product(cp, cp), cp, action, f"H{p}",
                              _power_labels((p, p, p), "xyz"), acting_first=True)


@lru_cache(maxsize=None)
def pauli16() -> FiniteGroup:
    """Central product of D8 and C4: phases i^e times X^u Z^v with XZ = -ZX."""
    def law(a, b):
        e1, u1, v1 = a
        e2, u2, v2 = b
        return (e1 + e2 + 2 * v1 * u2, u1 + u2, v1 + v2)

    return _table_from_law((4, 2, 2), law, "P16", _power_labels((4, 2, 2), "wXZ"))


@lru_cache(maxsize=None)
def c4_rtimes_c4() -> FiniteGroup:
    c4 = cyclic(4)
    inv = [(-i) % 4 for i in range(4)]
    act = [list(range(4)), inv, list(range(4)), inv]
    return semidirect_product(c4, c4, act, "C4:C4")


@lru_cache(maxsize=None)
def c4xc2_rtimes_c2() -> FiniteGroup:
    base = direct_product(cyclic(4), cyclic(2), "C4xC2")
    # pair (i, j) has index 2 * i + j; the automorphism a -> ab, b -> b
    perm = [((i + 0) % 4) * 2 + ((j + i) % 2) for i in range(4) for j in range(2)]
    act = [list(range(8)), perm]
    return semidirect_product(base, cyclic(2), act, "(C4xC2):C2")


_ORDER16_BUILDERS: list[Callable[[], FiniteGroup]] = [
    lambda: cyclic(16),
    lambda: direct_product(cyclic(4), cyclic(4), "C4 x C4"),
    lambda: direct_product(cyclic(8), cyclic(2), "C8 x C2"),
    lambda: direct_product(direct_product(cyclic(4), cyclic(2)), cyclic(2), "C4 x C2 x C2"),
    lambda: elem_abelian(2, 4),
    lambda: dihedral(16),
    lambda: semidihedral16(),
    lambda: gen_quaternion(16),
    lambda: modular16(),
    lambda: direct_product(dihedral(8), cyclic(2), "D8 x C2"),
    lambda: direct_product(quaternion8(), cyclic(2), "Q8 x C2"),
    lambda: pauli16(),
    lambda: c4_rtimes_c4(),
    lambda: c4xc2_rtimes_c2(),
]


@lru_cache(maxsize=None)
def order16(i: int) -> FiniteGroup:
    if not 1 <= i <= 14:
        raise ValueError("order-16 catalog index must be in 1..14")
    return _ORDER16_BUILDERS[i - 1]()


def order16_all() -> list[FiniteGroup]:
    """All 14 isomorphism types of order 16, fixed order: abelian first."""
    return [order16(i) for i in range(1, 15)]


# -- the order-p^5 class-3 counterexample family ------------------------------


@lru_cache(maxsize=None)
def _p5_even() -> FiniteGroup:
    """(Q8 x C2) : C2, the swap-i-j automorphism twisted by the C2 factor."""
    q8 = quaternion8()
    i_q, j_q = 1, 4
    # phi: i -> j, j -> i extended to all of Q8 via the normal form i^x j^u
    t = q8.table
    u, x = np.divmod(np.arange(8), 4)
    phi = t[_power_list(q8, j_q, 4)[x], _power_list(q8, i_q, 2)[u]]
    n = direct_product(q8, cyclic(2), "Q8 x C2")
    minus1 = 2
    qa, ca = np.divmod(np.arange(16), 2)
    alpha = np.where(ca == 0, phi[qa], t[phi[qa], minus1]) * 2 + ca
    # element (q, c, s) has index 4q + 2c + s
    def label(i: int) -> str:
        q, c, s = _mixed_radix(i, (8, 2, 2))
        return _join_labels([_Q8_LABELS[q] if q else "", _pow_label("a", c), _pow_label("t", s)])

    return semidirect_product(n, cyclic(2), [list(range(16)), alpha.tolist()], "prop29:2", label)


@lru_cache(maxsize=None)
def _p5_odd(p: int) -> FiniteGroup:
    """Order p^5 for odd p: the normal-form group N of order p^4 extended by
    an order-p automorphism."""
    # N: tuples (k, l, m, r) for a^k b^l c^m g^r with
    # (k,l,m,r)(k',l',m',r') = (k+k', l+l'+r m', m+m', r+r')
    radices = (p, p, p, p)

    def law(x, y):
        k, l, m, r = x
        k2, l2, m2, r2 = y
        return (k + k2, l + l2 + r * m2, m + m2, r + r2)

    ka, la, ma, ra = _mixed_radix(np.arange(p**4), radices)
    n_grp = _table_from_law(radices, law, f"N{p}^4", _power_labels(radices, "abcg"))

    # beta: a^k b^l c^m g^r -> a^(k+m+r) b^(l + r(r+1)/2) c^(m+r) g^r
    beta = _encode([ka + ma + ra, la + ra * (ra + 1) // 2, ma + ra, ra], radices)
    acts = [np.arange(p**4)]
    for _ in range(p - 1):
        acts.append(beta[acts[-1]])
    if not (beta[acts[-1]] == acts[0]).all():
        raise RuntimeError("extension automorphism does not have order p")
    # element (n, s) is the word of n followed by B^s
    return semidirect_product(n_grp, cyclic(p), [a.tolist() for a in acts], f"prop29:{p}",
                              _power_labels(radices + (p,), "abcgB"))


@lru_cache(maxsize=None)
def p5_class3_group(p: int) -> FiniteGroup:
    """A group of order p^5 and nilpotency class 3 whose modular group
    algebra over characteristic p is not centrally essential."""
    if p > 5:
        raise ValueError("order p^5 exceeds the supported cap for p > 5")
    if not is_prime(p):
        raise ValueError("parameter must be prime")
    return _p5_even() if p == 2 else _p5_odd(p)


# -- name grammar --------------------------------------------------------------


# the grammar table in listing order: spec, pattern, builder, help.  A fixed
# name is its own pattern; a family's numbers are its builder's arguments
_GRAMMAR: list[tuple[str, str, Callable[..., FiniteGroup], str]] = [
    ("C<n>", r"C(\d+)", cyclic, "cyclic of order n"),
    ("E<p>^<r>", r"E(\d+)\^(\d+)", elem_abelian, "elementary abelian of order p^r"),
    ("D<2m>", r"D(\d+)", dihedral, "dihedral of order 2m"),
    ("Q<2^m>", r"Q(\d+)", gen_quaternion, "generalized quaternion of order 2^m (Q8, Q16, ...)"),
    ("QD16", "QD16", semidihedral16, "semidihedral of order 16"),
    ("M16", "M16", modular16, "modular group of order 16"),
    ("Q8", "Q8", quaternion8, "quaternion group with +/- i j k labels"),
    ("S3", "S3", sym3, "symmetric group on 3 letters"),
    ("H<p>", r"H(\d+)", heisenberg, "unitriangular 3x3 group over GF(p), order p^3"),
    ("order16:<1..14>", r"order16:(\d+)", order16, "the fourteen groups of order 16"),
    ("prop29:<p>", r"prop29:(\d+)", p5_class3_group, "order p^5, class 3, p in {2, 3, 5}"),
]


def _atomic(spec: str) -> FiniteGroup:
    spec = spec.strip()
    # the fixed names first, so "Q8" keeps its +/- i j k labels
    for _, pattern, build, _ in sorted(_GRAMMAR, key=lambda entry: entry[0] != entry[1]):
        m = re.fullmatch(pattern, spec)
        if m:
            return build(*(int(x) for x in m.groups()))
    raise ValueError(f"unknown group spec {spec!r}")


def get(spec: str) -> FiniteGroup:
    """Build a group from a catalog spec, with " x " for direct products."""
    parts = [s for s in spec.split(" x ") if s.strip()]
    if not parts:
        raise ValueError("empty group spec")
    g = _atomic(parts[0])
    for i in range(1, len(parts)):
        # the last product carries the spec as its name
        g = direct_product(g, _atomic(parts[i]), spec.strip() if i == len(parts) - 1 else None)
    return g


def names() -> list[str]:
    """Stable listing of the atomic grammar for the CLI."""
    lines = [f"{spec:<15} {text}" for spec, _, _, text in _GRAMMAR]
    return lines + [f"{'A x B':<15} direct product of two specs"]


def standard_entries() -> list[tuple[str, FiniteGroup]]:
    """The fixed acceptance listing used by the reproduction suites."""
    specs = [
        "C1", "C2", "C3", "C4", "C6", "C8", "C9", "C12", "C16", "C27",
        "E2^2", "E2^3", "E3^2", "E3^3",
        "S3", "D8", "D12", "Q8", "H3",
    ] + [f"order16:{i}" for i in range(1, 15)] + ["prop29:2", "prop29:3"]
    return [(s, get(s)) for s in specs]

