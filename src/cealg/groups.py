"""Finite groups as immutable Cayley tables, with the analyses the deciders
need: conjugacy classes, center, centralizers, commutator subgroup, upper
central series, and the coset/centralizer predicates on which the structural
deciders rest.

Elements are canonical indices 0..n-1 with index 0 the identity.  Subsets of
a group are passed around as sorted tuples of indices so that every derived
object serializes identically across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

ORDER_CAP = 1 << 13
EXHAUSTIVE_ASSOC_CAP = 300
ASSOC_SAMPLES = 1_000_000


class GroupValidationError(ValueError):
    pass


@dataclass(frozen=True)
class ClassPartition:
    """Conjugacy classes, ordered by least member, each class sorted."""

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


@dataclass(frozen=True)
class CentralSeries:
    """Ascending central series Z_0 <= Z_1 <= ... up to stabilization.

    nilpotency_class is None when the chain stabilizes below the full group.
    """

    subgroups: tuple[tuple[int, ...], ...]
    nilpotency_class: int | None


class FiniteGroup:
    """A finite group given by its full multiplication table."""

    def __init__(
        self,
        table: np.ndarray | Sequence[Sequence[int]],
        name: str = "G",
        labels: Sequence[str] | None = None,
        validate: bool = True,
    ):
        table = np.asarray(table, dtype=np.int32)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupValidationError("multiplication table must be square")
        self.n = int(table.shape[0])
        if self.n == 0 or self.n > ORDER_CAP:
            raise GroupValidationError(f"group order {self.n} outside (0, {ORDER_CAP}]")
        self.table = table
        self.name = name
        self.labels = list(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.n:
            raise GroupValidationError("label count does not match order")
        self.inv = self._compute_inverses()
        if validate:
            self._validate()
        self.table.setflags(write=False)
        self.inv.setflags(write=False)

    # -- construction checks -------------------------------------------------

    def _compute_inverses(self) -> np.ndarray:
        inv = np.full(self.n, -1, dtype=np.int32)
        for g in range(self.n):
            hits = np.nonzero(self.table[g] == 0)[0]
            if hits.size != 1:
                raise GroupValidationError(f"element {g} lacks a unique right inverse")
            inv[g] = hits[0]
        return inv

    def _validate(self) -> None:
        n, t = self.n, self.table
        if t.min() < 0 or t.max() >= n:
            raise GroupValidationError("table entries out of range")
        ref = np.arange(n, dtype=np.int32)
        if not (np.sort(t, axis=1) == ref).all() or not (np.sort(t, axis=0) == ref[:, None]).all():
            raise GroupValidationError("table is not a Latin square")
        if not (t[0] == ref).all() or not (t[:, 0] == ref).all():
            raise GroupValidationError("index 0 is not a two-sided identity")
        if not (t[ref, self.inv] == 0).all() or not (t[self.inv, ref] == 0).all():
            raise GroupValidationError("inverse law fails")
        if n <= EXHAUSTIVE_ASSOC_CAP:
            for a in range(n):
                if not (t[t[a], :] == t[a, t]).all():
                    raise GroupValidationError(f"associativity fails at element {a}")
        else:
            rng = np.random.default_rng(0xA550C)
            idx = rng.integers(0, n, size=(3, ASSOC_SAMPLES))
            a, b, c = idx
            if not (t[t[a, b], c] == t[a, t[b, c]]).all():
                raise GroupValidationError("associativity fails on sampled triples")

    # -- basic operations -----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def power(self, a: int, e: int) -> int:
        if e < 0:
            return self.power(self.inverse(a), -e)
        out, base = 0, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def element_order(self, x: int) -> int:
        m, cur = 1, x
        while cur != 0:
            cur = self.mul(cur, x)
            m += 1
        return m

    def commutator(self, x: int, y: int) -> int:
        """(x, y) = x^-1 y^-1 x y."""
        return self.mul(self.mul(self.inverse(x), self.inverse(y)), self.mul(x, y))

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)

    def index_of_label(self, lab: str) -> int:
        if not self.labels:
            raise KeyError("group carries no labels")
        try:
            return self.labels.index(lab)
        except ValueError:
            raise KeyError(f"no element labelled {lab!r} in {self.name}") from None

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.name} of order {self.n}>"

    # -- derived structure ----------------------------------------------------

    @cached_property
    def conjugacy(self) -> ClassPartition:
        t = self.table
        n = self.n
        a = np.arange(n, dtype=np.int32)
        # conj[x, g] = x^-1 * (g * x), columns indexed by g
        gx = t[:, :]  # gx[g, x] = g*x
        conj = t[self.inv[:, None], gx.T]  # conj[x, g]
        class_of = np.full(n, -1, dtype=np.int64)
        classes: list[tuple[int, ...]] = []
        for g in range(n):
            if class_of[g] >= 0:
                continue
            orbit = np.unique(conj[:, g])
            class_of[orbit] = len(classes)
            classes.append(tuple(int(x) for x in orbit))
        return ClassPartition(tuple(classes), tuple(int(x) for x in class_of))

    @cached_property
    def center(self) -> tuple[int, ...]:
        commutes = (self.table == self.table.T).all(axis=1)
        return tuple(int(x) for x in np.nonzero(commutes)[0])

    @cached_property
    def is_abelian(self) -> bool:
        return len(self.center) == self.n

    def centralizer(self, s: Iterable[int]) -> tuple[int, ...]:
        s = sorted(set(s))
        if not s:
            raise ValueError("centralizer of the empty set is undefined")
        t = self.table
        arr = np.array(s, dtype=np.int64)
        good = (t[:, arr] == t[arr, :].T).all(axis=1)
        return tuple(int(x) for x in np.nonzero(good)[0])

    def subgroup_generated(self, s: Iterable[int]) -> tuple[int, ...]:
        # words in the generators form a subsemigroup, hence a subgroup here
        seen = {0}
        frontier = [0]
        gens = sorted(set(s) | {0})
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(seen))

    @cached_property
    def commutator_subgroup(self) -> tuple[int, ...]:
        t = self.table
        n = self.n
        a = np.arange(n)
        comms = t[t[self.inv[:, None], self.inv[None, :]], t[a[:, None], a[None, :]]]
        return self.subgroup_generated(int(x) for x in np.unique(comms))

    @cached_property
    def upper_central_series(self) -> CentralSeries:
        n, t = self.n, self.table
        a = np.arange(n)
        comm = t[t[self.inv[:, None], self.inv[None, :]], t[a[:, None], a[None, :]]]
        chain: list[tuple[int, ...]] = [(0,)]
        current = np.zeros(n, dtype=bool)
        current[0] = True
        while True:
            in_cur = current[comm]  # in_cur[g, a] = (g,a) in Z_i
            nxt = in_cur.all(axis=1)
            if (nxt == current).all():
                break
            current = nxt
            chain.append(tuple(int(x) for x in np.nonzero(current)[0]))
            if current.all():
                break
        nc = len(chain) - 1 if current.all() else None
        return CentralSeries(tuple(chain), nc)

    @property
    def nilpotency_class(self) -> int | None:
        return self.upper_central_series.nilpotency_class

    def subgroup(self, members: Iterable[int], name: str | None = None) -> "FiniteGroup":
        """The subgroup on the given closed member set, reindexed canonically."""
        mem = sorted(set(members))
        if mem[0] != 0:
            raise ValueError("subgroup must contain the identity")
        pos = {g: i for i, g in enumerate(mem)}
        try:
            table = [[pos[self.mul(x, y)] for y in mem] for x in mem]
        except KeyError:
            raise ValueError("member set is not closed under multiplication")
        labels = [self.label(g) for g in mem] if self.labels else None
        return FiniteGroup(table, name or f"{self.name}|sub{len(mem)}", labels)

    def is_normal(self, members: Iterable[int]) -> bool:
        mem = set(members)
        arr = np.array(sorted(mem), dtype=np.int64)
        t = self.table
        conj = t[t[self.inv[:, None], arr[None, :]], np.arange(self.n, dtype=np.int64)[:, None]]
        return all(int(x) in mem for x in np.unique(conj))

    def quotient(self, normal: Iterable[int], name: str | None = None) -> "FiniteGroup":
        mem = sorted(set(normal))
        if not self.is_normal(mem):
            raise ValueError("quotient requires a normal subgroup")
        arr = np.array(mem, dtype=np.int64)
        coset_min = np.full(self.n, -1, dtype=np.int64)
        reps: list[int] = []
        for g in range(self.n):
            if coset_min[g] >= 0:
                continue
            coset = np.unique(self.table[g, arr])
            coset_min[coset] = len(reps)
            reps.append(g)
        table = [[int(coset_min[self.mul(x, y)]) for y in reps] for x in reps]
        return FiniteGroup(table, name or f"{self.name}/N{len(mem)}")

    # -- invariants used as construction fingerprints -------------------------

    def fingerprint(self) -> tuple:
        """Cheap isomorphism-invariant signature.

        (order, element-order counts, class-size counts, |Z_i| chain, |G'|,
        abelianization element-order counts).
        """
        orders = sorted(self.element_order(x) for x in range(self.n))
        order_counts = _counts(orders)
        class_counts = _counts(sorted(self.conjugacy.sizes))
        chain = tuple(len(s) for s in self.upper_central_series.subgroups)
        gprime = self.commutator_subgroup
        ab = self.quotient(gprime)
        ab_counts = _counts(sorted(ab.element_order(x) for x in range(ab.n)))
        return (self.n, order_counts, class_counts, chain, len(gprime), ab_counts)

    # -- predicates feeding the structural deciders ---------------------------

    def central_coset_condition(self) -> tuple[bool, dict]:
        """Whether each non-central element's class absorbs a coset of a
        non-trivial central subgroup.

        Searching cyclic central subgroups only is enough: any non-trivial
        subgroup of the center contains a non-trivial cyclic one, and the
        condition is inherited downward.  The condition is constant on
        classes (conjugating g carries gH onto the same class), so one
        representative per class is checked.
        """
        z = self.center
        cert: dict[int, int] = {}
        for cls in self.conjugacy.classes:
            if len(cls) == 1:
                continue
            g = cls[0]
            cls_set = set(cls)
            found = None
            for zc in z:
                if zc == 0:
                    continue
                h = self.subgroup_generated([zc])
                if all(self.mul(g, x) in cls_set for x in h):
                    found = zc
                    break
            if found is None:
                return False, {"violator": g, "witnesses": cert}
            cert[g] = found
        return True, {"violator": None, "witnesses": cert}

    def z2_self_centralizing(self) -> bool:
        """Whether the centralizer of Z_2 is contained in Z_2."""
        chain = self.upper_central_series.subgroups
        z2 = chain[min(2, len(chain) - 1)]
        return set(self.centralizer(z2)) <= set(z2)


def _counts(sorted_vals: Sequence[int]) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for v in sorted_vals:
        if out and out[-1][0] == v:
            out[-1] = (v, out[-1][1] + 1)
        else:
            out.append((v, 1))
    return tuple(out)


# -- constructors -------------------------------------------------------------


def _compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """(a . b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


def closure_elements(degree: int, gens: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Breadth-first closure of permutations under composition.

    Element order: identity first, then words by length, ties broken by
    generator index.
    """
    gen_ts = []
    for g in gens:
        t = tuple(int(x) for x in g)
        if len(t) != degree or sorted(t) != list(range(degree)):
            raise ValueError(f"generator {g} is not a permutation of 0..{degree - 1}")
        gen_ts.append(t)
    ident = tuple(range(degree))
    elems: list[tuple[int, ...]] = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gen_ts:
                c = _compose(w, g)
                if c not in index:
                    if len(elems) >= ORDER_CAP:
                        raise ValueError(f"closure exceeds the order cap {ORDER_CAP}")
                    index[c] = len(elems)
                    elems.append(c)
                    nxt.append(c)
        frontier = nxt
    return elems


def cycle_notation(perm: Sequence[int]) -> str:
    seen: set[int] = set()
    out = []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            continue
        cyc = [i]
        j = perm[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = perm[j]
        out.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(out) if out else "e"


def group_from_generators(
    degree: int,
    gens: Sequence[Sequence[int]],
    name: str = "G",
) -> FiniteGroup:
    """The permutation group generated by gens, as a Cayley table."""
    elems = closure_elements(degree, gens)
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    table = np.zeros((n, n), dtype=np.int32)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            table[i, j] = index[_compose(a, b)]
    labels = [cycle_notation(e) for e in elems]
    return FiniteGroup(table, name, labels)


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name: str | None = None) -> FiniteGroup:
    n1, n2 = g1.n, g2.n
    if n1 * n2 > ORDER_CAP:
        raise ValueError(f"product order {n1 * n2} exceeds the cap {ORDER_CAP}")
    t1 = g1.table.astype(np.int64)
    t2 = g2.table.astype(np.int64)
    # pair (x, y) -> x * n2 + y
    table = (np.kron(t1, np.ones((n2, n2), dtype=np.int64)) * n2
             + np.kron(np.ones((n1, n1), dtype=np.int64), t2))
    labels = None
    if g1.labels or g2.labels:
        labels = [
            f"({g1.label(x)},{g2.label(y)})" for x in range(n1) for y in range(n2)
        ]
    return FiniteGroup(table.astype(np.int32), name or f"{g1.name} x {g2.name}", labels)


def semidirect_product(
    n_grp: FiniteGroup,
    gamma: FiniteGroup,
    action: Sequence[Sequence[int]],
    name: str | None = None,
    labels: Sequence[str] | None = None,
) -> FiniteGroup:
    """Pairs (x, c) with (x, c)(x', c') = (x * action[c](x'), c c').

    Every action[c] must be an automorphism of n_grp and the assignment
    c -> action[c] a homomorphism; both are checked exhaustively.
    """
    nn, ng = n_grp.n, gamma.n
    if nn * ng > ORDER_CAP:
        raise ValueError(f"product order {nn * ng} exceeds the cap {ORDER_CAP}")
    if len(action) != ng:
        raise ValueError("need one action permutation per acting element")
    acts = np.array([[int(x) for x in a] for a in action], dtype=np.int64)
    ident = np.arange(nn, dtype=np.int64)
    if not (acts[0] == ident).all():
        raise ValueError("action of the identity must be trivial")
    tn = n_grp.table.astype(np.int64)
    for c in range(ng):
        a = acts[c]
        if sorted(a.tolist()) != list(range(nn)):
            raise ValueError(f"action of element {c} is not a permutation")
        img = a[tn]
        ref = tn[a[:, None], a[None, :]]
        if not (img == ref).all():
            bad = np.argwhere(img != ref)[0]
            raise ValueError(
                f"action of element {c} is not an automorphism: fails at pair "
                f"({int(bad[0])}, {int(bad[1])})"
            )
    tg = gamma.table.astype(np.int64)
    for c1 in range(ng):
        for c2 in range(ng):
            if not (acts[tg[c1, c2]] == acts[c1][acts[c2]]).all():
                raise ValueError(
                    f"action is not a homomorphism: fails at pair ({c1}, {c2})"
                )
    # pair (x, c) -> x * ng + c
    table = np.zeros((nn * ng, nn * ng), dtype=np.int64)
    for c in range(ng):
        moved = tn[:, acts[c]]  # moved[x, x'] = x * c(x')
        for c2 in range(ng):
            rows = (np.arange(nn) * ng + c)[:, None]
            cols = (np.arange(nn) * ng + c2)[None, :]
            table[rows, cols] = moved * ng + tg[c, c2]
    return FiniteGroup(table.astype(np.int32), name or f"{n_grp.name} : {gamma.name}", labels)
