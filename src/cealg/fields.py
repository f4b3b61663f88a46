"""Small finite fields GF(p^k) with exact table-backed arithmetic.

Field elements are plain ints in [0, order): the canonical encoding of the
polynomial representative c0 + c1*t + ... + c_{k-1}*t^(k-1) as the base-p
integer sum(c_i * p^i).  Index 0 is the additive identity, 1 the
multiplicative identity.  A GF object owns the arithmetic; there is no
per-element wrapper class.

Vectorized operations work on numpy int64 arrays of encodings.  Every field
is built one way: base-p digit, log/exp, negation and inverse tables.  Prime
fields add and multiply mod p.  An extension-field product is one log/exp
gather, and a sum an add-table lookup for orders up to TABLE_ORDER or digit
arithmetic above it, so every field up to the 2^16 order cap stays
vectorizable.  Only this module knows the encoding: the matrix kernels below
and every caller use the GF vector operations, one code path for every
GF(p^k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

MAX_ORDER = 1 << 16
TABLE_ORDER = 1 << 8
# entries in one gathered block of a vmatmul operand
_GATHER = 1 << 19
# support pairs, and output bins, in one block of a grouped sum of products
_PAIRS = 1 << 13
# gathered entries that cost as much as one support pair, measured on the
# socle decider's products: a single row x takes the pairs when this times
# the nonzeros of y is below the entries of y (see GroupAlgebra._mul_arrays)
_PAIR_COST = 4
# float64 integer sums are exact below this; a product with inner dimension
# up to the largest group order, 2^13, over a field of order up to MAX_ORDER
# stays below 2^46
EXACT_FLOAT = 1 << 53


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def power_exceeds(p: int, k: int, cap: int) -> bool:
    """Whether p^k > cap, for p >= 2 and k >= 1, without forming p^k when
    it is far over the cap."""
    return p > cap or k >= cap.bit_length() or p**k > cap


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
        # primality is tested by trial division, so only below the cap
        if p <= MAX_ORDER and not is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p}")
        if k < 1:
            raise ValueError(f"extension degree must be positive, got {k}")
        if power_exceeds(p, k, MAX_ORDER):
            raise ValueError(f"field order {p}^{k} exceeds cap {MAX_ORDER}")
        self.p = p
        self.k = k
        self.order = p**k
        # modulus convention for prime fields: the polynomial t, i.e. (0, 1)
        self.modulus: tuple[int, ...] = (0, 1) if k == 1 else _least_irreducible(p, k)
        self._pmat = np.array([p**i for i in range(k)], dtype=np.int64)
        self._build_tables()

    def _build_tables(self) -> None:
        """One build for every GF(p^k).  exp holds the powers g^0..g^(q-2) of
        the least generator g twice over, then 2q - 1 zeros, and log[0] is
        2(q - 1), so exp[log[a] + log[b]] is a*b, a zero factor landing in
        the zero tail.  The powers come by doubling: once exp holds
        g^0..g^(s-1), the next s are that block times g^s, one vector
        product.  Negation comes from the base-p digits, inverses from
        log/exp; the float64 digit planes and, up to TABLE_ORDER, the add
        table exist only for k > 1, where a path reads them."""
        p, k, q = self.p, self.k, self.order
        dig = self._dig = (np.arange(q, dtype=np.int64)[:, None] // self._pmat) % p
        self._fplanes = self._add_t = None
        if k > 1:
            # the float64 digit planes for vmatmul: _fplanes[i, x] is digit i of x
            self._fplanes = np.ascontiguousarray(dig.T, dtype=np.float64)
            if q <= TABLE_ORDER:
                self._add_t = ((dig[:, None, :] + dig[None, :, :]) % p) @ self._pmat
        g = self._find_generator()
        exp = np.ones(q - 1, dtype=np.int64)
        s, g_s = 1, g  # g_s = g^s
        while s < q - 1:
            m = min(s, q - 1 - s)
            exp[s : s + m] = self.vmatmul(exp[:m, None], np.array([[g_s]]))[:, 0]
            s, g_s = s + m, self._mul_scalar(g_s, g_s)
        if self._mul_scalar(int(exp[-1]), g) != 1:
            raise RuntimeError("generator order mismatch")
        self._log = np.full(q, 2 * (q - 1), dtype=np.int64)
        self._log[exp] = np.arange(q - 1)
        self._exp = np.concatenate([exp, exp, np.zeros(2 * q - 1, dtype=np.int64)])
        self._neg_t = ((-dig) % p) @ self._pmat
        # g^-i = g^(q-1-i); log[0] indexes from the end, into the zero tail
        self._inv_t = self._exp[q - 1 - self._log]

    def _find_generator(self) -> int:
        n = self.order - 1
        factors = [f for f in range(2, n + 1) if n % f == 0 and is_prime(f)]
        for cand in range(1, self.order):
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
        return int(self.vadd(a, b))

    def neg(self, a: int) -> int:
        self._check(a)
        return int(self._neg_t[a])

    def _mul_scalar(self, a: int, b: int) -> int:
        da = _decode_base(a, self.p, self.k)
        db = _decode_base(b, self.p, self.k)
        prod = _poly_mul_mod(da, db, self.modulus, self.p)
        return sum(c * self.p**i for i, c in enumerate(prod))

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return int(self.vmul(a, b))

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self._inv_t[a])

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
        return self._pow_scalar(self.inv(a), -e) if e < 0 else self._pow_scalar(a, e)

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
        """a*b elementwise: mod p, or one log/exp gather when k > 1."""
        if self.k == 1:
            return (a * b) % self.p
        return self._exp[self._log[a] + self._log[b]]

    def vscale(self, s: int, a: np.ndarray) -> np.ndarray:
        return self.vmul(s, a)

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

    def vsum_at(self, idx: np.ndarray, vals: np.ndarray, size: int) -> np.ndarray:
        """Grouped field sum: entry i of the result, for i < size, is the sum
        of the vals[j] with idx[j] == i.

        One float64 bincount per base-p digit plane, exact while every bin
        sums fewer than 2^53 / (p - 1) entries; the digit sums are reduced
        mod p and put back together in base p.
        """
        p = self.p
        if len(vals) * (p - 1) >= EXACT_FLOAT:
            raise ValueError(f"{len(vals)} entries too many for exact float64 sums over {self}")
        out = None
        for plane in self._planes(vals)[::-1]:
            s = np.bincount(idx, weights=plane, minlength=size).astype(np.int64)
            np.remainder(s, p, out=s, where=s >= p)  # most bins are below p
            if out is None:
                out = s
            else:
                out *= p
                out += s
        return out

    def vmatmul(
        self, a: np.ndarray, b: np.ndarray, take: np.ndarray | None = None
    ) -> np.ndarray:
        """Field product of arrays shaped (..., m, n) @ (..., n, r).

        With `take`, an (s, t) index array into the first axis of b, the
        product is a @ b[take] for a vector a of length s: entry j is
        sum over i of a[i] * b[take[i, j]], shaped (t,) + b.shape[1:].  The
        gather reads the float64 form of b in blocks of result rows, each at
        most _GATHER entries, so the gathered operand is never built whole.

        The operands are split into their k base-p digit planes (one plane,
        the encodings themselves, over a prime field) and the k^2 plane
        products run as float64 BLAS products, exact while every sum they
        accumulate stays below 2^53 (the FFLAS-FFPACK technique).  The
        coefficient sums are reduced mod p, and the polynomial of degree
        <= 2k - 2 they form mod the modulus.  Raises ValueError when the
        inner dimension is too long for exact sums.
        """
        p, k = self.p, self.k
        inner = a.shape[-1]
        if k * inner * (p - 1) ** 2 >= EXACT_FLOAT:
            raise ValueError(
                f"inner dimension {inner} too long for exact float64 products over {self}"
            )
        da, db = self._planes(a), self._planes(b)
        if take is None:
            return self._plane_product(da, db)
        s, t = take.shape
        width = b.size // b.shape[0]  # entries per row of b
        rows = max(1, _GATHER // max(1, k * s * width))
        out = np.empty(t * width, dtype=np.int64)
        for lo in range(0, t, rows):
            blk = take[:, lo : lo + rows]
            out[lo * width : (lo + rows) * width] = self._plane_product(
                da, db[:, blk].reshape(k, s, blk.shape[1] * width))
        return out.reshape((t,) + b.shape[1:])

    def _planes(self, x: np.ndarray) -> np.ndarray:
        """The float64 digit planes of an array of encodings, shaped
        (k,) + x.shape."""
        return x.astype(np.float64)[None] if self.k == 1 else self._fplanes[:, x]

    def _plane_product(self, da: np.ndarray, db: np.ndarray) -> np.ndarray:
        """The encodings of the product of two arrays of digit planes."""
        p, k = self.p, self.k
        if k == 1:
            out = (da[0] @ db[0]).astype(np.int64)
            out %= p
            return out
        c = [0] * (2 * k - 1)
        for i in range(k):
            for j in range(k):
                c[i + j] = c[i + j] + da[i] @ db[j]
        # the exact sums convert to int64, where % is far cheaper than fmod
        c = [x.astype(np.int64) for x in c]
        for d in range(2 * k - 2, k - 1, -1):
            top = c[d] % p
            for i in range(k):
                c[d - k + i] -= self.modulus[i] * top
        out = c[k - 1] % p
        for i in range(k - 2, -1, -1):
            out *= p
            out += c[i] % p
        return out

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

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and pivot columns.

        Pivot rule: scan columns left to right, take the first nonzero row
        at or below the current pivot row.  Deterministic by construction.
        From a column with no such row the scan jumps, with one `any` over
        the rows left, to the next column that has one, so the empty
        columns of a wide or low-rank matrix cost no step each.
        """
        F = self.field
        a = self.data.copy()
        m, n = a.shape
        pivots: list[int] = []
        r = c = 0
        while r < m and c < n:
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                live = np.flatnonzero(a[r:, c + 1 :].any(axis=0))
                if live.size == 0:
                    break
                c += 1 + int(live[0])
                nz = np.nonzero(a[r:, c])[0]
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
            r, c = r + 1, c + 1
        return Matrix(F, a), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "Matrix":
        """Basis of {v : self @ v = 0}, rows of the result, in RREF."""
        F = self.field
        red, pivots = self.rref()
        n = self.cols
        free = np.flatnonzero(~np.isin(np.arange(n), pivots))
        basis = np.zeros((len(free), n), dtype=np.int64)
        basis[np.arange(len(free)), free] = 1
        basis[:, pivots] = F.vneg(red.data[: len(pivots), free].T)
        return Matrix(F, basis).rref()[0]

    def matmul(self, other: "Matrix") -> "Matrix":
        return Matrix(self.field, self.field.vmatmul(self.data, other.data))


def rank_batched(field: GF, mats: np.ndarray) -> np.ndarray:
    """Ranks of a stack of matrices of encodings, shape (B, m, n), one
    Matrix.rank each; kept because instrumentation looks it up by name."""
    return np.array([Matrix(field, a).rank() for a in mats], dtype=np.int64)
