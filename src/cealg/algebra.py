"""Arithmetic in the group algebra FG.

Elements are dense int64 coefficient rows indexed by group element, with no
class of their own; the product is the convolution induced by the Cayley
table, formed by the one kernel `_mul_arrays`.  The class sums, which span
the center, are one read-only array of coefficient rows, and both
center-membership tests (commuting with every basis element, and constancy
on conjugacy classes) are kept side by side as mutual checks.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .fields import GF, Matrix
from .groups import FiniteGroup


class GroupAlgebra:
    """The algebra FG for a finite group G over a small finite field F."""

    def __init__(self, group: FiniteGroup, field: GF):
        self.group = group
        self.field = field
        self.dim = group.n

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
        """Class-sum row matrix in RREF plus its pivot columns.

        The class sums are already in RREF: row K leads with a 1 at its
        least member, the rows are in least-member order and their supports
        are disjoint, so the pivots are the least members.
        """
        leading = np.flatnonzero(self.group.conjugacy.rep == np.arange(self.dim))
        return Matrix(self.field, self.center_basis), leading.tolist()

    def is_central(self, c: np.ndarray) -> bool:
        """Center membership of the coefficient row c, computed two
        independent ways.

        Route 1: c commutes with every group basis element.  Route 2: the
        coefficients are constant on conjugacy classes (class sums have
        disjoint supports, so this is exactly span membership).  The two
        must agree; a mismatch would be an implementation bug.
        """
        t = self.group.table
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

