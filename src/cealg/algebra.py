"""Arithmetic in the group algebra FG.

Elements are dense coefficient vectors indexed by group element; the product
is the convolution induced by the Cayley table.  The class sums, which span
the center, are one read-only array of coefficient rows, and both
center-membership tests (commuting with every basis element, and constancy
on conjugacy classes) are kept side by side as mutual checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .fields import GF, Matrix
from .groups import FiniteGroup


class GroupAlgebra:
    """The algebra FG for a finite group G over a small finite field F."""

    def __init__(self, group: FiniteGroup, field: GF):
        self.group = group
        self.field = field
        self.dim = group.n

    def element(self, coeffs: Sequence[int] | np.ndarray) -> "AlgebraElement":
        arr = np.asarray(coeffs, dtype=np.int64)
        if arr.shape != (self.dim,):
            raise ValueError(f"coefficient vector must have length {self.dim}")
        if (arr < 0).any() or (arr >= self.field.order).any():
            raise ValueError("coefficients must be canonical field encodings")
        return self._wrap(arr.copy())

    def _wrap(self, arr: np.ndarray) -> "AlgebraElement":
        """An element on a fresh int64 array of canonical encodings, which
        it takes over without a copy or a check: the arithmetic results."""
        arr.setflags(write=False)
        return AlgebraElement(self, arr)

    def zero(self) -> "AlgebraElement":
        return self.element(np.zeros(self.dim, dtype=np.int64))

    def one(self) -> "AlgebraElement":
        c = np.zeros(self.dim, dtype=np.int64)
        c[0] = 1
        return self.element(c)

    # -- multiplication kernels ------------------------------------------------

    def _mul_arrays(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The product x y of a coefficient vector x with y, a coefficient
        vector of shape (n,) or a block of them as the columns of an (n, d)
        array.

        (x y)[j] = sum over h in supp x of x[h] * y[h^-1 j]: one gathered
        product over the support of x, so a sparse x costs |supp x| rows of
        y per result row and no n x n multiplication matrix is formed.
        """
        g = self.group
        nz = np.nonzero(x)[0]
        return self.field.vmatmul(x[nz], y, take=g.table[g.inv[nz]])

    def right_mult_matrix(self, y: np.ndarray) -> Matrix:
        """Matrix RM with (x y) = x @ RM for row vectors x."""
        n, t = self.dim, self.group.table
        rm = np.zeros((n, n), dtype=np.int64)
        # RM[h, t[h, k]] = y[k]; rows of t are permutations, so no collisions
        rm[np.arange(n)[:, None], t] = np.asarray(y)[None, :]
        return Matrix(self.field, rm)

    def left_mult_matrix(self, x: np.ndarray) -> Matrix:
        """Matrix LM with (x y) = LM @ y for column vectors y.

        No decider builds it: it is the independent dense reference that the
        tests hold `_mul_arrays` to, and perfbench's tracer looks it up by name.
        """
        n, t = self.dim, self.group.table
        lm = np.zeros((n, n), dtype=np.int64)
        # LM[t[h, k], k] = x[h]; columns of t are permutations
        lm[t, np.arange(n)[None, :]] = np.asarray(x)[:, None]
        return Matrix(self.field, lm)

    # -- the center --------------------------------------------------------------

    @cached_property
    def center_basis(self) -> np.ndarray:
        """The class sums, which span the center: a read-only (d, n) array
        whose row K is 1 on the members of class K, in class order."""
        sums = np.zeros((len(self.group.conjugacy.classes), self.dim), dtype=np.int64)
        sums[self.group.conjugacy.class_of, np.arange(self.dim)] = 1
        sums.setflags(write=False)
        return sums

    @cached_property
    def center_matrix(self) -> tuple[Matrix, list[int]]:
        """Class-sum row matrix in RREF plus its pivot columns."""
        return Matrix(self.field, self.center_basis).rref()

    def is_central(self, x: "AlgebraElement") -> bool:
        """Center membership, computed two independent ways.

        Route 1: x commutes with every group basis element.  Route 2: the
        coefficients are constant on conjugacy classes (class sums have
        disjoint supports, so this is exactly span membership).  The two
        must agree; a mismatch would be an implementation bug.
        """
        t = self.group.table
        c = x.coeffs
        commutes = True
        for g in range(self.dim):
            xg = np.zeros(self.dim, dtype=np.int64)
            xg[t[:, g]] = c
            gx = np.zeros(self.dim, dtype=np.int64)
            gx[t[g, :]] = c
            if not (xg == gx).all():
                commutes = False
                break
        constant = bool((c == c[self.group.conjugacy.rep]).all())
        if commutes != constant:
            raise RuntimeError("center membership routes disagree; this is a bug")
        return commutes


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    algebra: GroupAlgebra
    coeffs: np.ndarray

    def _require_same(self, other: "AlgebraElement") -> None:
        if self.algebra.group is not other.algebra.group or self.algebra.field != other.algebra.field:
            raise ValueError("elements live in different group algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        F = self.algebra.field
        return self.algebra._wrap(F.vadd(self.coeffs, other.coeffs))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        F = self.algebra.field
        return self.algebra._wrap(F.vsub(self.coeffs, other.coeffs))

    def __neg__(self) -> "AlgebraElement":
        return self.algebra._wrap(self.algebra.field.vneg(self.coeffs))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        return self.algebra._wrap(self.algebra._mul_arrays(self.coeffs, other.coeffs))

    def scale(self, s: int) -> "AlgebraElement":
        self.algebra.field._check(s)
        return self.algebra._wrap(self.algebra.field.vscale(s, self.coeffs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.algebra.group is other.algebra.group
            and self.algebra.field == other.algebra.field
            and (self.coeffs == other.coeffs).all()
        )

    def __hash__(self) -> int:
        return hash(self.coeffs.tobytes())

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def power(self, e: int) -> "AlgebraElement":
        out = self.algebra.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def augmentation(self) -> int:
        """Coefficient sum; the ring morphism onto F."""
        return self.algebra.field.vsum(self.coeffs)

    def support(self) -> list[tuple[int, int]]:
        return [(int(i), int(self.coeffs[i])) for i in np.nonzero(self.coeffs)[0]]

    def to_report(self) -> list[list]:
        g = self.algebra.group
        return [[g.label(i), v] for i, v in self.support()]

    def __repr__(self) -> str:
        g = self.algebra.group
        parts = [f"{v}*{g.label(i)}" for i, v in self.support()]
        return " + ".join(parts) if parts else "0"

