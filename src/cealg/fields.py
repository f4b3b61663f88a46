"""Small finite fields GF(p^k) with exact table-backed arithmetic.

Field elements are plain ints in [0, order): the canonical encoding of the
polynomial representative c0 + c1*t + ... + c_{k-1}*t^(k-1) as the base-p
integer sum(c_i * p^i).  Index 0 is the additive identity, 1 the
multiplicative identity.  A GF object owns the arithmetic; there is no
per-element wrapper class.

Vectorized operations work on numpy int64 arrays of encodings.  Every field
carries negation and inverse tables; fields of order <= 256 also carry full
add/mul tables, and larger extension fields use digit tables for addition
and log/exp tables for multiplication, so every field up to the 2^16 order
cap stays vectorizable.  Only this module knows the encoding: the matrix
kernels below and every caller use the GF vector operations, one code path
for every GF(p^k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

MAX_ORDER = 1 << 16
TABLE_ORDER = 1 << 8


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- polynomial helpers over GF(p), coefficients low-degree-first -----------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: list[int], m: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m, coefficients mod p."""
    a = [x % p for x in a]
    dm = len(m) - 1
    while len(_poly_trim(a)) - 1 >= dm:
        shift = len(a) - 1 - dm
        lead = a[-1]
        for i in range(dm + 1):
            a[shift + i] = (a[shift + i] - lead * m[i]) % p
        _poly_trim(a)
    return a


def _poly_mul_mod(a: Sequence[int], b: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_mod(out, m, p)


def _is_irreducible(m: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..k/2: a
    reducible m has a factor of at most half its degree."""
    k = len(m) - 1
    if k < 1:
        return False
    if m[0] % p == 0:  # divisible by t
        return k == 1
    for d in range(1, k // 2 + 1):
        for enc in range(p**d):
            div = _decode_base(enc, p, d) + [1]
            if not _poly_trim(_poly_mod(list(m), div, p)):
                return False
    return True


def _decode_base(x: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(x % p)
        x //= p
    return out


def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Least monic degree-k irreducible, ordered lexicographically on the
    low-first coefficient sequence (c0, c1, ..., c_{k-1})."""
    for c0_first in range(p**k):
        digits = _decode_base(c0_first, p, k)
        lower = digits[::-1]  # enumerate with c0 most significant
        m = lower + [1]
        if _is_irreducible(m, p):
            return tuple(m)
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")


class GF:
    """The finite field GF(p^k), elements encoded as ints in [0, p^k)."""

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if k < 1:
            raise ValueError(f"extension degree must be positive, got {k}")
        order = p**k
        if order > MAX_ORDER:
            raise ValueError(f"field order {p}^{k} exceeds cap {MAX_ORDER}")
        self.p = p
        self.k = k
        self.order = order
        # modulus convention for prime fields: the polynomial t, i.e. (0, 1)
        self.modulus: tuple[int, ...] = (0, 1) if k == 1 else _least_irreducible(p, k)
        self._pmat = np.array([p**i for i in range(k)], dtype=np.int64)
        self._build_tables()

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.order
        a = np.arange(q, dtype=np.int64)
        self._add_t = self._mul_t = None
        self._dig = self._log = self._exp = None
        if k == 1:
            self._neg_t = (-a) % p
            self._inv_t = np.array([pow(x, -1, p) if x else 0 for x in range(q)], dtype=np.int64)
            if q <= TABLE_ORDER:
                self._add_t = (a[:, None] + a[None, :]) % p
                self._mul_t = (a[:, None] * a[None, :]) % p
            return
        dig = self._dig = (a[:, None] // self._pmat) % p
        self._build_log_exp()
        log, exp = self._log[1:], self._exp
        self._neg_t = ((-dig) % p) @ self._pmat
        self._inv_t = np.concatenate([[0], exp[-log % (q - 1)]])
        if q <= TABLE_ORDER:
            self._add_t = ((dig[:, None, :] + dig[None, :, :]) % p) @ self._pmat
            self._mul_t = np.zeros((q, q), dtype=np.int64)
            self._mul_t[1:, 1:] = exp[(log[:, None] + log[None, :]) % (q - 1)]

    def _build_log_exp(self) -> None:
        """Powers of a generator g by doubling: once exp holds g^0..g^(s-1),
        the next s powers are that block times g^s, one vector product."""
        q = self.order
        g = self._find_generator()
        exp = np.ones(q - 1, dtype=np.int64)
        s, g_s = 1, g  # g_s = g^s
        while s < q - 1:
            m = min(s, q - 1 - s)
            exp[s : s + m] = self.vmatmul(exp[:m, None], np.array([[g_s]]))[:, 0]
            s, g_s = s + m, self._mul_scalar(g_s, g_s)
        if self._mul_scalar(int(exp[-1]), g) != 1:
            raise RuntimeError("generator order mismatch")
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self._exp, self._log = exp, log

    def _find_generator(self) -> int:
        q = self.order
        n = q - 1
        factors = []
        m, d = n, 2
        while d * d <= m:
            if m % d == 0:
                factors.append(d)
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            factors.append(m)
        for cand in range(2, q):
            if all(self._pow_scalar(cand, n // f) != 1 for f in factors):
                return cand
        raise RuntimeError("no multiplicative generator found")

    # -- scalar arithmetic (ints in [0, order)) -----------------------------

    def _check(self, *xs: int) -> None:
        for x in xs:
            if not 0 <= x < self.order:
                raise ValueError(f"element {x} outside GF({self.p}^{self.k})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        if self.k == 1:
            return (a + b) % self.p
        if self._add_t is not None:
            return int(self._add_t[a, b])
        return int(((self._dig[a] + self._dig[b]) % self.p) @ self._pmat)

    def neg(self, a: int) -> int:
        self._check(a)
        return int(self._neg_t[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_scalar(self, a: int, b: int) -> int:
        da = _decode_base(a, self.p, self.k)
        db = _decode_base(b, self.p, self.k)
        prod = _poly_mul_mod(da, db, self.modulus, self.p)
        return sum(c * self.p**i for i, c in enumerate(prod))

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if self._mul_t is not None:
            return int(self._mul_t[a, b])
        if self.k == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(self._log[a] + self._log[b]) % (self.order - 1)])

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self._inv_t[a])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def _pow_scalar(self, a: int, e: int) -> int:
        out, base = 1, a
        while e:
            if e & 1:
                out = self._mul_scalar(out, base)
            base = self._mul_scalar(base, base)
            e >>= 1
        return out

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if e < 0:
            return self.pow(self.inv(a), -e)
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def encode(self, coeffs: Iterable[int]) -> int:
        return sum((c % self.p) * self.p**i for i, c in enumerate(coeffs))

    def decode(self, x: int) -> tuple[int, ...]:
        self._check(x)
        return tuple(_decode_base(x, self.p, self.k))

    # -- vectorized arithmetic on int64 arrays of encodings -----------------

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.k == 1:
            return (a + b) % self.p
        if self._add_t is not None:
            return self._add_t[a, b]
        return ((self._dig[a] + self._dig[b]) % self.p) @ self._pmat

    def vneg(self, a: np.ndarray) -> np.ndarray:
        return self._neg_t[a]

    def vsub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.k == 1:
            return (a - b) % self.p
        return self.vadd(a, self._neg_t[b])

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.k == 1:
            return (a * b) % self.p
        if self._mul_t is not None:
            return self._mul_t[a, b]
        a = np.asarray(a)
        b = np.asarray(b)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        nz = (a != 0) & (b != 0)
        ab = np.broadcast_to(a, out.shape)[nz]
        bb = np.broadcast_to(b, out.shape)[nz]
        out[nz] = self._exp[(self._log[ab] + self._log[bb]) % (self.order - 1)]
        return out

    def vscale(self, s: int, a: np.ndarray) -> np.ndarray:
        if self.k == 1:
            return (s * a) % self.p
        return self.vmul(np.full(a.shape, s, dtype=np.int64), a)

    def vinv(self, a: np.ndarray) -> np.ndarray:
        """Elementwise inverse of an array of nonzero encodings."""
        if not np.all(a):
            raise ZeroDivisionError("inverse of zero")
        return self._inv_t[a]

    def vsubmul(self, a: np.ndarray, f: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a - f*b elementwise; f*b must have the shape of the result."""
        if self.k == 1:
            # one temporary, reused for the difference and the reduction
            t = np.multiply(f, b)
            np.subtract(a, t, out=t)
            t %= self.p
            return t
        return self.vsub(a, self.vmul(f, b))

    def vsum(self, a: np.ndarray, axis: int | None = None):
        """Field sum along an axis, or of every entry (as an int) when the
        axis is None."""
        if self.k == 1:
            s = np.sum(a, axis) % self.p
        else:
            dig = self._dig[np.ravel(a) if axis is None else a]
            s = (dig.sum(0 if axis is None else axis % np.ndim(a)) % self.p) @ self._pmat
        return s if axis is not None else int(s)

    def vmatmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Field product of arrays shaped (..., m, n) @ (..., n, r).

        Extension fields multiply the base-p digit arrays as integers, k^2
        products, then reduce the coefficients mod p and the resulting
        polynomial of degree <= 2k - 2 mod the modulus.
        """
        p, k = self.p, self.k
        if k == 1:
            return (a @ b) % p
        da, db = self._dig[a], self._dig[b]
        c = [0] * (2 * k - 1)
        for i in range(k):
            for j in range(k):
                c[i + j] = c[i + j] + da[..., i] @ db[..., j]
        for d in range(2 * k - 2, k - 1, -1):
            top = c[d] % p
            for i in range(k):
                c[d - k + i] -= self.modulus[i] * top
        return sum((c[i] % p) * p**i for i in range(k))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GF)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p}^{self.k})"


@lru_cache(maxsize=None)
def field_make(p: int, k: int = 1) -> GF:
    """Construct (and cache) GF(p^k) with the canonical modulus."""
    return GF(p, k)


# -- dense matrices over a GF -----------------------------------------------


@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix of field encodings."""

    field: GF
    data: np.ndarray  # int64, shape (rows, cols)

    @staticmethod
    def from_rows(field: GF, rows: Sequence[Sequence[int]], cols: int | None = None) -> "Matrix":
        if len(rows) == 0:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            return Matrix(field, np.zeros((0, cols), dtype=np.int64))
        return Matrix(field, np.array(rows, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and pivot columns.

        Pivot rule: scan columns left to right, take the first nonzero row
        at or below the current pivot row.  Deterministic by construction.
        """
        F = self.field
        a = self.data.copy()
        m, n = a.shape
        pivots: list[int] = []
        r = 0
        for c in range(n):
            if r == m:
                break
            col = a[r:, c]
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                continue
            src = r + int(nz[0])
            if src != r:
                a[[r, src]] = a[[src, r]]
            pv = int(a[r, c])
            if pv != 1:
                a[r] = F.vscale(F.inv(pv), a[r])
            factors = a[:, c].copy()
            factors[r] = 0
            hit = np.nonzero(factors)[0]
            if hit.size:
                a[hit] = F.vsubmul(a[hit], factors[hit, None], a[r][None, :])
            pivots.append(c)
            r += 1
        return Matrix(F, a), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "Matrix":
        """Basis of {v : self @ v = 0}, rows of the result, in RREF."""
        F = self.field
        red, pivots = self.rref()
        n = self.cols
        free = [c for c in range(n) if c not in pivots]
        basis = np.zeros((len(free), n), dtype=np.int64)
        basis[np.arange(len(free)), free] = 1
        basis[:, pivots] = F.vneg(red.data[: len(pivots), free].T)
        return Matrix(F, basis).rref()[0]

    def matmul(self, other: "Matrix") -> "Matrix":
        return Matrix(self.field, self.field.vmatmul(self.data, other.data))

    def vstack(self, other: "Matrix") -> "Matrix":
        return Matrix(self.field, np.vstack([self.data, other.data]))

    def is_zero(self) -> bool:
        return not self.data.any()


def rank_batched(field: GF, mats: np.ndarray) -> np.ndarray:
    """Ranks of a batch of matrices of encodings, shape (B, m, n).

    Branch-free Gaussian elimination vectorized across the batch; matches
    Matrix.rank on every slice.
    """
    t = np.array(mats, dtype=np.int64)
    nb, m, n = t.shape
    if nb == 0 or m == 0 or n == 0:
        return np.zeros(nb, dtype=np.int64)
    piv = np.zeros(nb, dtype=np.int64)
    row_ids = np.arange(m)
    for c in range(n):
        col = t[:, :, c]
        eligible = (col != 0) & (row_ids[None, :] >= piv[:, None])
        has = eligible.any(axis=1)
        idx = np.nonzero(has)[0]
        if idx.size == 0:
            continue
        src = np.argmax(eligible[idx], axis=1)
        dst = piv[idx]
        tmp = t[idx, src, :].copy()
        t[idx, src, :] = t[idx, dst, :]
        t[idx, dst, :] = tmp
        pv = t[idx, dst, c]
        t[idx, dst, :] = field.vmul(field.vinv(pv)[:, None], t[idx, dst, :])
        factors = t[idx, :, c].copy()
        factors[np.arange(idx.size), dst] = 0
        t[idx] = field.vsubmul(t[idx], factors[:, :, None], t[idx, dst, :][:, None, :])
        piv[idx] = dst + 1
        if int(piv.min()) == m:
            break
    return piv
