"""Arithmetic in the group algebra FG.

Elements are dense int64 coefficient rows indexed by group element, with no
class of their own; the product is the convolution induced by the Cayley
table, formed by the one kernel `_mul_arrays` for whole stacks of rows at
once: a stack of x rows as sums over support pairs, and a single row x as
one gathered product (BLAS), or as support pairs when y is sparse.  The
class sums, which span the center, are one read-only array of coefficient
rows, and both center-membership tests (commuting with every generator,
and constancy on conjugacy classes) are kept side by side as mutual checks.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import fields
from .fields import GF, Matrix
from .groups import FiniteGroup, row_blocks


class GroupAlgebra:
    """The algebra FG for a finite group G over a small finite field F."""

    def __init__(self, group: FiniteGroup, field: GF):
        self.group = group
        self.field = field
        self.dim = group.n

    # -- multiplication kernels ------------------------------------------------

    def _mul_arrays(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The row-wise products x_i y_i of two stacks of coefficient rows,
        each of shape (r, n).  Either operand may be a single row, of shape
        (n,) or (1, n), paired with every row of the other; the result is
        the stack of products, of shape (n,) when both operands are (n,).

        (x y)[hg] sums x[h] y[g] over h in supp x and g in supp y.  A stack
        of x rows (more than one, or none) is summed over support pairs.  A
        single row x costs |supp x| n entries per row y_i as one gathered
        product (BLAS), and |supp x| |supp y_i| as support pairs, so |supp x|
        cancels: it takes the pairs when fields._PAIR_COST times the nonzeros
        of y is below the entries of y.  No n x n multiplication matrix is
        formed either way.
        """
        xs, ys = (x[None] if x.ndim == 1 else x), (y[None] if y.ndim == 1 else y)
        if len(xs) != 1 or fields._PAIR_COST * int(np.count_nonzero(ys)) < ys.size:
            out = self._mul_pairs(xs, ys)
        else:
            out = self._mul_gather(xs[0], ys)
        return out[0] if x.ndim == y.ndim == 1 else out

    def _mul_gather(self, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """x y_i for one row x and every row of a stack ys, as one gathered
        product: (x y)[j] sums x[h] y[h^-1 j] over h in supp x."""
        g = self.group
        nz = np.nonzero(x)[0]
        take = g.table[g.inv[nz]]
        return self.field.vmatmul(x[nz], np.ascontiguousarray(ys.T), take=take).T

    def _mul_pairs(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """x_i y_i as support pairs: x[h] y[g] summed at hg by `GF.vsum_at`,
        in blocks of rows of at most fields._PAIRS bins (one row at least),
        and within each in blocks of at most fields._PAIRS pairs (or the
        pairs of one element of x with its row of y)."""
        F, n, t = self.field, self.dim, self.group.table.ravel()
        out = np.empty((len(ys) if len(xs) == 1 else len(xs), n), dtype=np.int64)
        for rows in row_blocks(len(out), n, fields._PAIRS):
            m = len(out[rows])
            xi, xh, xv = _entries(xs, rows, m)
            yi, yg, yv = (xi, xh, xv) if ys is xs else _entries(ys, rows, m)
            cy = np.bincount(yi, minlength=m)
            rep = cy[xi]  # pairs of each entry of x, with the entries of its row of y
            cum = np.cumsum(rep)
            # pair k of a block is entry e of x with entry k + start[e] of y
            start = (np.cumsum(cy) - cy)[xi] - cum + rep
            acc, a = None, 0
            while a < xi.size:
                done = int(cum[a - 1]) if a else 0
                b = xi.size if cum[-1] - done <= fields._PAIRS else max(
                    a + 1, int(np.searchsorted(cum, done + fields._PAIRS, "right")))
                e = np.repeat(np.arange(a, b), rep[a:b])
                f = np.repeat(start[a:b] + done, rep[a:b])
                f += np.arange(f.size)
                part = F.vsum_at(xi[e] * n + t[xh[e] * n + yg[f]], F.vmul(xv[e], yv[f]), m * n)
                acc, a = part if acc is None else F.vadd(acc, part), b
            out[rows] = 0 if acc is None else acc.reshape(m, n)
        return out

    def right_mult_matrix(self, y: np.ndarray) -> Matrix:
        """Matrix RM with (x y) = x @ RM for row vectors x."""
        n, t = self.dim, self.group.table
        rm = np.zeros((n, n), dtype=np.int64)
        # RM[h, t[h, k]] = y[k]; rows of t are permutations, so no collisions
        rm[np.arange(n)[:, None], t] = np.asarray(y)[None, :]
        return Matrix(self.field, rm)

    def left_mult_matrix(self, x: np.ndarray) -> Matrix:
        """Matrix LM with (x y) = LM @ y for column vectors y.

        The socle chain's first link in F[G/Z] is one; it is also the
        independent dense reference that the tests hold `_mul_arrays` to.
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

        Route 1: c commutes with every right generator s, and so with every
        product of them: (c s)[j] = c[j s^-1] equals (s c)[j] = c[s^-1 j]
        for every j.  Route 2: the coefficients are constant on conjugacy
        classes (class sums have disjoint supports, so this is exactly span
        membership).  The two must agree; a mismatch would be an
        implementation bug.
        """
        g = self.group
        t, s_inv = g.table, g.inv[g.right_generators]
        commutes = bool((c[t[:, s_inv]].T == c[t[s_inv]]).all())
        constant = bool((c == c[g.conjugacy.rep]).all())
        if commutes != constant:
            raise RuntimeError("center membership routes disagree; this is a bug")
        return commutes


def _entries(a: np.ndarray, rows: slice, m: int) -> tuple[np.ndarray, ...]:
    """Row (counted within the m given rows), column and value of every
    nonzero entry of those rows of a stack, in row order; a single row
    stands for each of them."""
    if len(a) == 1:
        j = np.flatnonzero(a[0] != 0)
        return np.repeat(np.arange(m), j.size), np.tile(j, m), np.tile(a[0, j], m)
    blk = a[rows]
    k = np.flatnonzero(blk != 0)
    i = k // a.shape[1]
    j = k - i * a.shape[1]
    return i, j, blk[i, j]
