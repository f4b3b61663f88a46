"""Finite groups as immutable Cayley tables, with the analyses the deciders
need: conjugacy classes, center, centralizers, commutator subgroup, upper
central series, and the coset/centralizer predicates on which the structural
deciders rest.

Everything works from one small right generating set S of the table.
A table is validated once, where it enters: a table given from outside (a
closed-form law, a permutation closure, a file) gets the exhaustive check,
whose Light's associativity test over S covers every triple in O(n^2 |S|).
Direct products, semidirect products, subgroups and quotients of validated
groups inherit the axioms, and take their inverses from the parts; what is
checked for them is their own premise: that the action is a homomorphism
into Aut(N), that the member set holds 1 and is closed, that N is a normal
subgroup.  Classes are orbits of
conjugation by S, the center commutes with S, Z_{i+1} is read off the
n x |S| table of the commutators [x, s], and G' is the normal closure of the
[s, u]; each is O(n |S|) up to logarithmic factors, and none forms an n x n
array.

Elements are canonical indices 0..n-1 with index 0 the identity.  Subsets of
a group are passed around as sorted tuples of indices so that every derived
object serializes identically across runs.

Every table and inverse array is read-only int16 (TABLE): ORDER_CAP = 2^13
keeps each entry below 2^15, so a table takes 2 n^2 bytes.  An index formed
from entries, such as a pair x * n + y, is formed in intp first.  The n^2
passes over a table (validation, product fills, the laws, the cosets of a
quotient) go by row blocks, so nothing else of that size is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

ORDER_CAP = 1 << 13
# the dtype of every Cayley table and inverse array: the cap keeps each
# entry below 2^15, so a table takes 2 n^2 bytes (134 MB at the cap)
TABLE = np.int16
# the n^2 passes over a table go by row blocks of about this many entries
BLOCK_ENTRIES = 1 << 16
# element labels: a function of the index, a sequence of n, or None for str(i)
Labels = Callable[[int], str] | Sequence[str] | None


def row_blocks(n: int, width: int | None = None, entries: int | None = None) -> Iterator[slice]:
    """Slices of the n rows of a table with `width` entries a row (n if not
    given), each of about `entries` entries (BLOCK_ENTRIES if not given)
    and at least one row."""
    rows = max(1, (entries or BLOCK_ENTRIES) // (width or n))
    for lo in range(0, n, rows):
        yield slice(lo, lo + rows)


class GroupValidationError(ValueError):
    pass


@dataclass(frozen=True)
class ClassPartition:
    """Conjugacy classes, ordered by least member, each class sorted.

    rep[g] is the least member of g's class (a read-only int array), so a
    vector c is constant on classes, i.e. central, exactly when c == c[rep].
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    rep: np.ndarray = field(compare=False)

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
        labels: Labels = None,
    ):
        table = np.asarray(table)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupValidationError("multiplication table must be square")
        self._adopt(table.shape[0], name, labels)
        # the range is checked before the narrowing cast, which would wrap
        if table.min() < 0 or table.max() >= self.n:
            raise GroupValidationError("table entries out of range")
        self.table = table.astype(TABLE, copy=False)
        self._validate()
        self.table.setflags(write=False)
        self.inv.setflags(write=False)

    @classmethod
    def _inherited(
        cls,
        table: np.ndarray,
        inv: np.ndarray,
        name: str,
        labels: Labels = None,
    ) -> "FiniteGroup":
        """A group built by a theorem from validated groups, with the
        inverses taken from the parts.  The table is not validated again;
        the order cap and the count of a label sequence are still checked."""
        g = cls.__new__(cls)
        g._adopt(table.shape[0], name, labels)  # the cap, before any cast
        g.table = np.asarray(table, dtype=TABLE)
        g.inv = np.asarray(inv, dtype=TABLE)
        g.table.setflags(write=False)
        g.inv.setflags(write=False)
        return g

    # -- construction checks -------------------------------------------------

    def _adopt(self, n: int, name: str, labels: Labels) -> None:
        self.n = int(n)
        if self.n == 0 or self.n > ORDER_CAP:
            raise GroupValidationError(f"group order {self.n} outside (0, {ORDER_CAP}]")
        self.name = name
        # the label of element i is self._label(i); str for an unlabelled group
        if labels is None or callable(labels):
            self._label = labels or str
        else:
            labels = list(labels)
            if len(labels) != self.n:
                raise GroupValidationError("label count does not match order")
            self._label = labels.__getitem__

    def _validate(self) -> None:
        n, t = self.n, self.table
        # the identity comes before the generating set, whose closure
        # terminates only because 0 * s = s
        ref = np.arange(n, dtype=TABLE)
        if not (t[0] == ref).all() or not (t[:, 0] == ref).all():
            raise GroupValidationError("index 0 is not a two-sided identity")
        self.inv = np.empty(n, dtype=TABLE)
        for rows in row_blocks(n):
            hits = t[rows] == 0
            unique = np.count_nonzero(hits, axis=1) == 1
            if not unique.all():
                raise GroupValidationError(
                    f"element {rows.start + unique.argmin()} lacks a unique right inverse")
            self.inv[rows] = hits.argmax(axis=1)
        if not (t[self.inv, ref] == 0).all():
            raise GroupValidationError("inverse law fails")
        # Light's test: the s with (xy)s = x(ys) for all x, y form a set closed
        # under the product, so checking a generating set checks every element.
        # An associative table with a two-sided identity and right inverses is
        # a group, and so a Latin square.
        for s in self.right_generators.tolist():
            col = np.ascontiguousarray(t[:, s])  # y -> ys
            # quarter blocks of rows: take copies an int16 index block to int64
            for rows in row_blocks(n, 4 * n):
                blk = t[rows]
                if not (col.take(blk) == blk.take(col, axis=1)).all():
                    raise GroupValidationError(f"associativity fails at element {s}")

    @cached_property
    def right_generators(self) -> np.ndarray:
        """A greedy generating set S: every element is a product of members
        of S.  The closure multiplies on the right only, so it does not
        assume associativity."""
        out = self._greedy_generators(np.arange(self.n))
        out.setflags(write=False)
        return out

    def _greedy_generators(self, candidates: np.ndarray) -> np.ndarray:
        """Each candidate, in order, that the ones kept before it do not
        generate: together they generate what all the candidates do."""
        reached = np.arange(self.n) == 0  # the identity alone
        kept: list[int] = []
        while True:
            rest = candidates[~reached[candidates]]
            if not rest.size:
                return np.array(kept, dtype=np.int64)
            kept.append(int(rest[0]))
            self._close(reached, kept)

    def _close(self, reached: np.ndarray, gens: Iterable[int]) -> np.ndarray:
        """Extend the bool mask `reached` in place until right multiplication
        by gens keeps it, and return it.

        Each round multiplies the newest elements by every generator and adds
        the squares of the generators as generators, until no new one
        appears; a square is a product of generators, so the closure stays
        the same, and <g> closes in about log2 |g| rounds."""
        t = self.table
        is_gen = np.zeros_like(reached)
        is_gen[np.fromiter(gens, dtype=np.int64)] = True
        frontier = np.flatnonzero(reached)
        while frontier.size:
            s = np.flatnonzero(is_gen)
            fresh = np.zeros_like(reached)
            fresh[t[frontier[:, None], s]] = True
            fresh &= ~reached
            reached |= fresh
            frontier = np.flatnonzero(fresh)
            is_gen[t[s, s]] = True
        return reached

    @cached_property
    def conjugators(self) -> np.ndarray:
        """conjugators[i, g] = s^-1 g s for the i-th right generator s."""
        s = self.right_generators
        t = self.table
        out = t[self.inv[s][:, None], t[:, s].T]
        out.setflags(write=False)
        return out

    # -- basic operations -----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def element_order(self, x: int) -> int:
        """The least divisor d of n with x^d = 1."""
        xs = np.array([x])
        return next(d for d in range(1, self.n + 1)
                    if self.n % d == 0 and self.powers(xs, d)[0] == 0)

    def powers(self, xs: np.ndarray, e: int) -> np.ndarray:
        """x^e for every x in xs (e >= 0), by square-and-multiply gathers."""
        t = self.table
        out, base = np.zeros_like(xs), xs
        while e:
            if e & 1:
                out = t[out, base]
            e >>= 1
            if e:
                base = t[base, base]
        return out

    def label(self, i: int) -> str:
        return self._label(i)

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.name} of order {self.n}>"

    # -- derived structure ----------------------------------------------------

    @cached_property
    def conjugacy(self) -> ClassPartition:
        # the classes are the orbits of g -> s^-1 g s over the generators; a
        # class is named by its least member, and numbered in the order of those
        least = _least_in_orbit(self.conjugators)
        least.setflags(write=False)
        class_of = (np.cumsum(least == np.arange(self.n)) - 1)[least]
        members = np.argsort(class_of, kind="stable").tolist()
        classes, start = [], 0
        for size in np.bincount(class_of).tolist():
            classes.append(tuple(members[start : start + size]))
            start += size
        return ClassPartition(tuple(classes), tuple(class_of.tolist()), least)

    @cached_property
    def center(self) -> tuple[int, ...]:
        # an element commuting with every generator commutes with every word
        return self._commuting_with(self.right_generators)

    @cached_property
    def is_abelian(self) -> bool:
        return len(self.center) == self.n

    def centralizer(self, s: Iterable[int]) -> tuple[int, ...]:
        s = sorted(set(s))
        if not s:
            raise ValueError("centralizer of the empty set is undefined")
        # the centralizer of s is that of any subset generating <s>
        return self._commuting_with(self._greedy_generators(np.array(s, dtype=np.int64)))

    def _commuting_with(self, arr: np.ndarray) -> tuple[int, ...]:
        t = self.table
        good = (t[:, arr] == t[arr, :].T).all(axis=1)
        return tuple(np.flatnonzero(good).tolist())

    def subgroup_generated(self, s: Iterable[int]) -> tuple[int, ...]:
        # words in the generators form a subsemigroup, hence a subgroup here
        reached = np.arange(self.n) == 0  # the identity alone
        return tuple(np.flatnonzero(self._close(reached, s)).tolist())

    def _commutators(self, xs: np.ndarray) -> np.ndarray:
        """[x, s] = x^-1 s^-1 x s for every x in xs and generator s."""
        t, inv, s = self.table, self.inv, self.right_generators
        return t[t[inv[xs][:, None], inv[s]], t[xs[:, None], s]]

    @cached_property
    def commutator_subgroup(self) -> tuple[int, ...]:
        # G' is the normal closure of the commutators of the generators.  Each
        # round adds the least conjugate that escapes, so the subgroup at
        # least doubles, and stops once conjugating by the generators keeps it
        gens = np.flatnonzero(self._member_mask(
            self._commutators(self.right_generators).ravel())).tolist()
        inside = np.arange(self.n) == 0
        while True:
            members = np.flatnonzero(self._close(inside, gens))
            conj = self.conjugators[:, members]
            escaped = conj[~inside[conj]]
            if not escaped.size:
                return tuple(members.tolist())
            gens.append(int(escaped.min()))

    @cached_property
    def upper_central_series(self) -> CentralSeries:
        # Z_{i+1} = {x : [x, s] in Z_i for every generator s}
        n = self.n
        comm = self._commutators(np.arange(n))
        chain: list[tuple[int, ...]] = [(0,)]
        current = np.zeros(n, dtype=bool)
        current[0] = True
        while True:
            in_cur = current[comm]  # in_cur[g, i] = [g, s_i] in Z_i
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
        inside = self._member_mask(members)
        if not inside[0]:
            raise ValueError("subgroup must contain the identity")
        mem = np.flatnonzero(inside)
        prod = self.table[mem[:, None], mem]
        if not inside[prod].all():
            raise ValueError("member set is not closed under multiplication")
        # a closed finite set holding 1 is a subgroup, and inherits the axioms
        pos = np.cumsum(inside, dtype=TABLE) - 1  # position in the member list
        lab = self._label  # not self: the label function keeps no table alive
        labels = None if lab is str else lambda i: lab(int(mem[i]))
        return FiniteGroup._inherited(
            pos[prod], pos[self.inv[mem]], name or f"{self.name}|sub{mem.size}", labels)

    def _member_mask(self, members: Iterable[int]) -> np.ndarray:
        """The bool mask of a set of elements given in any order, repeats
        allowed; np.flatnonzero reads it back as the sorted set."""
        inside = np.zeros(self.n, dtype=bool)
        inside[np.fromiter(members, dtype=np.int64)] = True
        return inside

    def is_normal(self, members: Iterable[int]) -> bool:
        # the g with g^-1 N g = N form a subgroup, so the generators decide
        inside = self._member_mask(members)
        return bool(inside[self.conjugators[:, inside]].all())

    def quotient_map(self, normal: Iterable[int]) -> tuple["FiniteGroup", np.ndarray]:
        """G/N for a normal subgroup N, and the coset of every element of G.

        Cosets gN are named by their least member, and numbered in that
        order.  G/N inherits the group axioms from G, so its table is not
        validated again; what is checked is that N is a normal subgroup.
        """
        inside = self._member_mask(normal)
        t, mem = self.table, np.flatnonzero(inside)
        if not (inside[0] and self.is_normal(mem)):
            raise ValueError("quotient requires a normal subgroup")
        # the cosets gN, rows of t[:, mem], are formed a row block at a time
        blocks = list(row_blocks(self.n, mem.size))
        least = np.empty(self.n, dtype=TABLE)
        for rows in blocks:
            least[rows] = t[rows][:, mem].min(axis=1)
        # the least member is constant on every coset, so the cosets
        # partition G, exactly when N, holding the identity, is closed
        if not all((least[t[rows][:, mem]] == least[rows, None]).all() for rows in blocks):
            raise ValueError("quotient requires a normal subgroup")
        is_rep = least == np.arange(self.n)
        reps = np.flatnonzero(is_rep)
        coset_of = (np.cumsum(is_rep, dtype=TABLE) - 1)[least]
        quo = FiniteGroup._inherited(
            coset_of[t[reps[:, None], reps]],
            coset_of[self.inv[reps]],  # (gN)^-1 = g^-1 N
            f"{self.name}/N{np.count_nonzero(inside)}",
        )
        return quo, coset_of

    # -- predicates feeding the structural deciders ---------------------------

    def central_coset_condition(self) -> tuple[bool, dict]:
        """Whether each non-central element's class absorbs a coset of a
        non-trivial central subgroup, with the violator or the central
        element found for each class; evaluated once per group.

        Searching cyclic central subgroups only is enough: any non-trivial
        subgroup of the center contains a non-trivial cyclic one, and the
        condition is inherited downward.  The condition is constant on
        classes (conjugating g carries gH onto the same class), so one
        representative per class is checked.
        """
        return self._central_coset

    @cached_property
    def _central_coset(self) -> tuple[bool, dict]:
        t, cp = self.table, self.conjugacy
        cyclic: dict[int, np.ndarray] = {}  # central z -> the subgroup <z>
        cert: dict[int, int] = {}
        for cls in cp.classes:
            if len(cls) == 1:
                continue
            g = cls[0]
            found = None
            for zc in self.center[1:]:
                if zc not in cyclic:
                    cyclic[zc] = np.asarray(self.subgroup_generated([zc]))
                if (cp.rep[t[g, cyclic[zc]]] == g).all():
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


def _least_in_orbit(perms: np.ndarray) -> np.ndarray:
    """For every point, the least point of its orbit under the group that the
    rows of perms (permutations of 0..n-1) generate.

    Min-label hooking with pointer jumping: every label is a point of the same
    orbit and no larger than the point itself.  Each round hooks the root of
    every edge's larger end onto the smaller root and then flattens the trees,
    so every tree that has a neighbour merges, and the rounds are logarithmic.
    """
    label = np.arange(perms.shape[1])
    while True:
        before = label
        label = label.copy()
        for p in perms:
            a, b = before, before[p]
            np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped
        if (label == before).all():
            return label


# -- constructors -------------------------------------------------------------


def _compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """(a . b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


def _closure(
    degree: int, gens: Sequence[Sequence[int]]
) -> tuple[list[tuple[int, ...]], np.ndarray, np.ndarray, np.ndarray]:
    """Breadth-first closure of permutations under composition.

    Returns the elements (identity first, then words by length, ties broken
    by generator index), the left-multiplication maps left[k, i] = index of
    gens[k] . element i, and for every element but the identity the parent
    element and the generator whose product parent . generator first
    reached it.
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
    parent: list[int] = [0]
    via: list[int] = [0]
    frontier = [0]
    while frontier:
        nxt = []
        for w in frontier:
            for k, g in enumerate(gen_ts):
                c = _compose(elems[w], g)
                if c not in index:
                    if len(elems) >= ORDER_CAP:
                        raise ValueError(f"closure exceeds the order cap {ORDER_CAP}")
                    index[c] = len(elems)
                    elems.append(c)
                    parent.append(w)
                    via.append(k)
                    nxt.append(index[c])
        frontier = nxt
    left = np.array([[index[_compose(g, e)] for e in elems] for g in gen_ts], dtype=TABLE)
    left = left.reshape(len(gen_ts), len(elems))
    return elems, left, np.array(parent, dtype=np.int32), np.array(via, dtype=np.int32)


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
    elems, left, parent, via = _closure(degree, gens)
    n = len(elems)
    labels = [cycle_notation(e) for e in elems]
    del elems  # labelled, the permutations are freed before the table is filled
    # row j of the table from its parent's: (w . g) . a = w . (g . a).
    # Parents are listed before their children, so rows fill in order.
    table = np.empty((n, n), dtype=TABLE)
    table[0] = np.arange(n)
    for j in range(1, n):
        table[j] = table[parent[j]].take(left[via[j]])
    return FiniteGroup(table, name, labels)


def _fill_pairs(
    table: np.ndarray, moved: Callable[[slice, slice], np.ndarray], tg: np.ndarray
) -> None:
    """Fill the table of pairs (x, c) -> x * m + c, m = |tg|, whose entry in
    row (x, c) and column (x', c') is moved[x, c, x'] * m + tg[c, c'].

    moved(xs, cs) gives moved[xs, cs], with an axis c of length 1 where it
    does not depend on c.  The table fills a row block of tg at a time:
    rows (x, c) for the c of the block and a block of x, each moved[x, c]
    times m with its entries repeated m times, plus tg's row c tiled k
    times.  No temporary holds more than a block."""
    n, m = table.shape[0], tg.shape[0]
    k = n // m
    by_x = table.reshape(k, m, n)
    for cs in row_blocks(m, n):
        right = tg[cs, None, :].repeat(k, axis=1).reshape(-1, n)
        for xs in row_blocks(k, right.size):
            np.add((moved(xs, cs) * m).repeat(m, axis=2), right, out=by_x[xs, cs])
        del right  # freed before the next block's is built


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name: str | None = None) -> FiniteGroup:
    n1, n2 = g1.n, g2.n
    n = n1 * n2
    if n > ORDER_CAP:
        raise ValueError(f"product order {n} exceeds the cap {ORDER_CAP}")
    # pair (x, y) -> x * n2 + y
    table = np.empty((n, n), dtype=TABLE)
    _fill_pairs(table, lambda xs, cs: g1.table[xs, None, :], g2.table)
    l1, l2 = g1._label, g2._label  # not the groups: no table is kept alive
    labels = None if l1 is l2 is str else lambda i: f"({l1(i // n2)},{l2(i % n2)})"
    inv = g1.inv[:, None] * n2 + g2.inv[None, :]  # (x, y)^-1 = (x^-1, y^-1)
    return FiniteGroup._inherited(table, inv.ravel(), name or f"{g1.name} x {g2.name}", labels)


def semidirect_product(
    n_grp: FiniteGroup,
    gamma: FiniteGroup,
    action: Sequence[Sequence[int]],
    name: str | None = None,
    labels: Labels = None,
    acting_first: bool = False,
) -> FiniteGroup:
    """Pairs of x in n_grp and c in gamma with (x, c)(x', c') =
    (x * action[c](x'), c c'), indexed x * |gamma| + c, or, with
    acting_first, written (c, x) and indexed c * |n_grp| + x.

    Every action[c] must be an automorphism of n_grp and the assignment
    c -> action[c] a homomorphism; both are checked exhaustively, and the
    product then inherits the group axioms from n_grp and gamma.
    """
    nn, ng = n_grp.n, gamma.n
    n = nn * ng
    if n > ORDER_CAP:
        raise ValueError(f"product order {n} exceeds the cap {ORDER_CAP}")
    if len(action) != ng:
        raise ValueError("need one action permutation per acting element")
    perms = [[int(x) for x in a] for a in action]
    ident = list(range(nn))
    if perms[0] != ident:
        raise ValueError("action of the identity must be trivial")
    for c, a in enumerate(perms):
        if sorted(a) != ident:
            raise ValueError(f"action of element {c} is not a permutation")
    acts = np.array(perms, dtype=TABLE)
    tn, tg = n_grp.table, gamma.table
    for c in range(1, ng):
        a = acts[c]
        for rows in row_blocks(nn):
            # a(x y) = a(x) a(y) for the x of this block and every y
            same = a.take(tn[rows]) == tn[a[rows, None], a]
            if not same.all():
                x, y = np.argwhere(~same)[0]
                raise ValueError(
                    f"action of element {c} is not an automorphism: fails at pair "
                    f"({rows.start + int(x)}, {int(y)})"
                )
    for c1 in range(ng):
        # hom[c2] says action[c1 c2](x) = action[c1](action[c2](x)) for every x
        hom = (acts[tg[c1]] == acts[c1].take(acts)).all(axis=1)
        if not hom.all():
            raise ValueError(
                f"action is not a homomorphism: fails at pair ({c1}, {int(np.argmin(hom))})"
            )
    table = np.empty((n, n), dtype=TABLE)
    if acting_first:
        for c in range(ng):
            # row (c, x) holds (c c') * nn + x * action[c](x') at column (c', x')
            np.add(tn[:, acts[c]][:, None, :], tg[c][:, None] * nn,
                   out=table[c * nn : (c + 1) * nn].reshape(nn, ng, nn))
    else:
        _fill_pairs(table, lambda xs, cs: tn[xs][:, acts[cs]], tg)
    # (x, c)^-1 = (action[c^-1](x^-1), c^-1)
    cinv = gamma.inv[:, None]
    xinv = acts[cinv, n_grp.inv]
    inv = (cinv * nn + xinv).ravel() if acting_first else (xinv * ng + cinv).T.ravel()
    return FiniteGroup._inherited(table, inv, name or f"{n_grp.name} : {gamma.name}", labels)
