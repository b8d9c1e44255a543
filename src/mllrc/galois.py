"""Exact arithmetic over GF(p^m) and exact linear algebra for matrices over it.

Elements of GF(p^m) are encoded as integers in [0, p^m): the base-p digits of
the integer, low-order digit first, are the coefficients of the residue
polynomial modulo the field modulus.  The default modulus for each (p, m) is
the lexicographically first monic irreducible polynomial of degree m, where
"lexicographic" means increasing integer encoding of the coefficient vector
(c_0, ..., c_{m-1}); e.g. GF(4) uses x^2 + x + 1 and GF(16) uses x^4 + x + 1.

All array operations take and return numpy int64 arrays (plain Python ints in,
plain ints out for scalar/scalar calls).  Arithmetic is exact; nothing here is
floating point.

Row reduction (mat_rref, mat_rank, _rref_stack, and LinearCode.shorten) runs
its pivot steps in the integer domain, in one helper, _pivot_step: the pivot
row is scaled by the inverse from the field's table, and the pivot column is
cleared in one whole-array update A - f (x) row, where f is that column with
a 0 at the pivot row.  The arithmetic is fixed once per field
(FiniteField._elim_ops) and skips the conversions, range checks and scalar
wrapping of the public field methods.  Prime fields use integer products,
reduced by the clearing update (XOR on GF(2), mod p otherwise; no
intermediate exceeds (p-1)^3 < 2^48, so none overflows int64).  Extension
fields with q <= 2^8 gather from a q x q uint8 product table and, in odd
characteristic, a difference table (XOR in characteristic 2), 64 KiB each at
q = 2^8, built on first use.  Larger extension fields use the field's own
mul and sub.  The table routes return uint8 arrays, which _pivot_step writes
into the int64 matrix in place.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

__all__ = [
    "FiniteField",
    "MatrixGF",
    "field_new",
    "field_from_order",
    "default_modulus",
    "is_irreducible",
    "mat_rank",
    "mat_rref",
    "mat_kernel",
]

MAX_FIELD_SIZE = 1 << 16
# Largest extension field whose pivot steps gather from q x q uint8 tables.
_ELIM_TABLE_MAX = 1 << 8


# ---------------------------------------------------------------------------
# primes and polynomials over GF(p)
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (n <= 2^16 here)."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _poly_deg(c: tuple[int, ...]) -> int:
    for i in range(len(c) - 1, -1, -1):
        if c[i]:
            return i
    return -1


def _poly_rem(a: list[int], b: tuple[int, ...], p: int) -> list[int]:
    """Remainder of a modulo b over GF(p).  b must have invertible lead."""
    a = list(a)
    db = _poly_deg(b)
    lead_inv = pow(b[db], p - 2, p) if p > 2 else b[db]
    da = _poly_deg(tuple(a))
    while da >= db:
        f = (a[da] * lead_inv) % p
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - f * b[i]) % p
        da = _poly_deg(tuple(a))
    return a[:db] if db > 0 else [0]


def is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """True iff coeffs (low-order first, length deg+1) is irreducible over GF(p).

    Uses trial division by every monic polynomial of degree 1..deg//2, which is
    exact and fast for the field sizes supported here (p^m <= 2^16).
    """
    m = _poly_deg(tuple(coeffs))
    if m <= 0:
        return False
    if m == 1:
        return True
    if coeffs[0] == 0:  # divisible by x
        return False
    for d in range(1, m // 2 + 1):
        for j in range(p**d):
            div = []
            t = j
            for _ in range(d):
                div.append(t % p)
                t //= p
            div.append(1)  # monic
            rem = _poly_rem(list(coeffs), tuple(div), p)
            if _poly_deg(tuple(rem)) < 0:
                return False
    return True


def default_modulus(p: int, m: int) -> tuple[int, ...] | None:
    """Lexicographically first monic irreducible of degree m over GF(p).

    Returns None for m == 1 (prime fields need no modulus).  Coefficient order
    is low-order first and includes the leading 1, so GF(4) -> (1, 1, 1).
    """
    if m == 1:
        return None
    for j in range(p**m):
        c = []
        t = j
        for _ in range(m):
            c.append(t % p)
            t //= p
        c.append(1)
        if is_irreducible(tuple(c), p):
            return tuple(c)
    raise RuntimeError(f"no irreducible polynomial of degree {m} over GF({p})")


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------


class FiniteField:
    """GF(p^m) with integer-encoded elements and vectorized exact arithmetic."""

    def __init__(self, p: int, m: int = 1, modulus: tuple[int, ...] | None = None):
        if p > MAX_FIELD_SIZE:  # also keeps the trial division short
            raise PreconditionError(
                f"field characteristic {p} exceeds supported maximum {MAX_FIELD_SIZE}"
            )
        if not _is_prime(p):
            raise PreconditionError(f"field characteristic must be prime, got {p}")
        if m < 1:
            raise PreconditionError(f"extension degree must be >= 1, got {m}")
        q = p**m
        if q > MAX_FIELD_SIZE:
            raise PreconditionError(f"field size {q} exceeds supported maximum {MAX_FIELD_SIZE}")
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            if modulus is not None:
                raise PreconditionError("prime fields take no modulus")
            self.modulus: tuple[int, ...] | None = None
        else:
            mod = tuple(int(c) % p for c in modulus) if modulus is not None else default_modulus(p, m)
            if len(mod) != m + 1 or mod[m] != 1:
                raise PreconditionError(f"modulus must be monic of degree {m} (got {mod})")
            if not is_irreducible(mod, p):
                raise PreconditionError(f"modulus {mod} is reducible over GF({p})")
            self.modulus = mod
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self._inv: np.ndarray | None = None
        self._gen: int | None = None
        self._elim = None

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteField)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m}; modulus={','.join(map(str, self.modulus))})"

    # -- raw (scalar, table-free) arithmetic --------------------------------

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits: list[int]) -> int:
        v = 0
        for d in reversed(digits[: self.m]):
            v = v * self.p + (d % self.p)
        return v

    def _mul_raw(self, a: int, b: int) -> int:
        """Polynomial product mod modulus on integer encodings (no tables)."""
        p, m = self.p, self.m
        if m == 1:
            return (a * b) % p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        mod = self.modulus
        for deg in range(2 * m - 2, m - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for i in range(m):
                    prod[deg - m + i] = (prod[deg - m + i] - c * mod[i]) % p
        return self._encode(prod)

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        b = a
        while e:
            if e & 1:
                r = self._mul_raw(r, b)
            b = self._mul_raw(b, b)
            e >>= 1
        return r

    # -- discrete-log tables -------------------------------------------------

    def _ensure_tables(self) -> None:
        if self._exp is not None:
            return
        q = self.q
        order = q - 1
        factors = _prime_factors(order) if order > 1 else []
        gen = 1
        for cand in range(2, q):
            if all(self._pow_raw(cand, order // f) != 1 for f in factors):
                gen = cand
                break
        exp = np.empty(max(order, 1), dtype=np.int64)
        x = 1
        for i in range(order):
            exp[i] = x
            x = self._mul_raw(x, gen)
        log = np.full(q, -1, dtype=np.int64)
        log[exp[:order]] = np.arange(order, dtype=np.int64)
        inv = np.zeros(q, dtype=np.int64)
        if order >= 1:
            inv[exp[:order]] = exp[(-np.arange(order, dtype=np.int64)) % max(order, 1)]
        self._exp, self._log, self._inv, self._gen = exp, log, inv, gen

    @property
    def generator(self) -> int:
        """A fixed generator of the multiplicative group (smallest encoding)."""
        self._ensure_tables()
        return int(self._gen)

    def elements(self) -> np.ndarray:
        return np.arange(self.q, dtype=np.int64)

    # -- vectorized arithmetic ----------------------------------------------

    @staticmethod
    def _wrap(a, b, out):
        if isinstance(a, (int, np.integer)) and (b is None or isinstance(b, (int, np.integer))):
            return int(out)
        return out

    def check(self, a) -> None:
        arr = np.asarray(a)
        if arr.size and (arr.min() < 0 or arr.max() >= self.q):
            raise PreconditionError(f"element out of range for {self!r}")

    def add(self, a, b):
        ra = np.asarray(a, dtype=np.int64)
        rb = np.asarray(b, dtype=np.int64)
        if self.m == 1:
            out = (ra + rb) % self.p
        elif self.p == 2:
            out = ra ^ rb
        else:
            out = np.zeros(np.broadcast(ra, rb).shape, dtype=np.int64)
            pw = 1
            for _ in range(self.m):
                out += (((ra // pw) % self.p + (rb // pw) % self.p) % self.p) * pw
                pw *= self.p
        return self._wrap(a, b, out)

    def neg(self, a):
        ra = np.asarray(a, dtype=np.int64)
        if self.m == 1:
            out = (-ra) % self.p
        elif self.p == 2:
            out = ra.copy() if isinstance(ra, np.ndarray) else ra
        else:
            out = np.zeros(ra.shape, dtype=np.int64)
            pw = 1
            for _ in range(self.m):
                out += ((self.p - (ra // pw) % self.p) % self.p) * pw
                pw *= self.p
        return self._wrap(a, None, out)

    def sub(self, a, b):
        if self.m == 1:
            out = (np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)) % self.p
            return self._wrap(a, b, out)
        if self.p == 2:
            return self.add(a, b)
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        ra = np.asarray(a, dtype=np.int64)
        rb = np.asarray(b, dtype=np.int64)
        if self.m == 1:
            out = (ra * rb) % self.p
        else:
            self._ensure_tables()
            la = self._log[ra]
            lb = self._log[rb]
            idx = (la + lb) % (self.q - 1)
            out = np.where((ra == 0) | (rb == 0), 0, self._exp[idx])
            if out.ndim == 0:
                out = out[()]
        return self._wrap(a, b, out)

    def inv(self, a):
        ra = np.asarray(a, dtype=np.int64)
        if np.any(ra == 0):
            raise ZeroDivisionError(f"inversion of 0 in {self!r}")
        self._ensure_tables()
        out = self._inv[ra]
        return self._wrap(a, None, out)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        ra = np.asarray(a, dtype=np.int64)
        if self.q == 2:
            out = np.where(ra == 0, 1 if e == 0 else 0, 1).astype(np.int64)
        else:
            self._ensure_tables()
            idx = (self._log[ra] * (e % (self.q - 1) if e else 0)) % (self.q - 1)
            nz = self._exp[idx] if e else np.ones_like(ra)
            out = np.where(ra == 0, 1 if e == 0 else 0, nz)
        if out.ndim == 0:
            out = out[()]
        return self._wrap(a, None, out)

    # -- elimination arithmetic -----------------------------------------------

    def _elim_ops(self):
        """(mul, axpy) for the pivot step: mul(a, b) = a*b and
        axpy(a, f, b) = a - f*b elementwise on arrays of field elements,
        broadcasting.  On prime fields mul leaves its products unreduced and
        axpy reduces every entry it returns, so _pivot_step passes the scaled
        row through axpy (with f = 0 there).  The route (see the module
        docstring) is fixed on first use, from q and the field type."""
        if self._elim is None:
            self._ensure_tables()
            q, p = self.q, self.p
            if self.m == 1:
                mul = lambda a, b: a * b
                if p == 2:
                    axpy = lambda a, f, b: a ^ (f * b)
                else:
                    axpy = lambda a, f, b: _mod(a - f * b, p)
            elif q <= _ELIM_TABLE_MAX:
                e = self.elements()
                prod = self.mul(e[:, None], e[None, :]).astype(np.uint8)
                mul = lambda a, b: prod[a, b]
                if p == 2:
                    axpy = lambda a, f, b: a ^ prod[f, b]
                else:
                    diff = self.sub(e[:, None], e[None, :]).astype(np.uint8)
                    axpy = lambda a, f, b: diff[a, prod[f, b]]
            else:
                mul = self.mul
                axpy = lambda a, f, b: self.sub(a, self.mul(f, b))
            self._elim = (mul, axpy)
        return self._elim

    # -- digit views ----------------------------------------------------------

    def coeffs(self, a) -> np.ndarray:
        """Base-p digit expansion, low-order digit first; shape a.shape + (m,)."""
        ra = np.asarray(a, dtype=np.int64)
        out = np.empty(ra.shape + (self.m,), dtype=np.int64)
        t = ra.copy()
        for i in range(self.m):
            out[..., i] = t % self.p
            t //= self.p
        return out


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place on an int64 temporary: numpy's int64 % takes about
    twice as long as this floor division by a scalar."""
    x -= x // p * p
    return x


_FIELD_CACHE: dict[tuple, FiniteField] = {}


def field_new(p: int, m: int = 1, modulus: tuple[int, ...] | None = None) -> FiniteField:
    """Construct (or fetch a cached) GF(p^m) with the given or default modulus."""
    key = (p, m, tuple(modulus) if modulus is not None else None)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FiniteField(p, m, modulus)
    return _FIELD_CACHE[key]


def field_from_order(q: int, modulus: tuple[int, ...] | None = None) -> FiniteField:
    """GF(q) for a prime power q, factoring q = p^m automatically."""
    if q < 2:
        raise PreconditionError(f"field order must be >= 2, got {q}")
    if q > MAX_FIELD_SIZE:  # before the trial division, which takes sqrt(q)
        raise PreconditionError(f"field size {q} exceeds supported maximum {MAX_FIELD_SIZE}")
    p = 2
    while q % p:
        p += 1
        if p * p > q:
            p = q
            break
    m, t = 0, q
    while t % p == 0:
        t //= p
        m += 1
    if t != 1:
        raise PreconditionError(f"{q} is not a prime power")
    return field_new(p, m, modulus)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class MatrixGF:
    """Immutable 2-D matrix over a FiniteField (int64 entries, exact ops)."""

    __slots__ = ("field", "a")

    def __init__(self, field: FiniteField, array):
        arr = np.array(array, dtype=np.int64, copy=True)
        if arr.ndim != 2:
            raise PreconditionError(f"matrix must be 2-D, got shape {arr.shape}")
        field.check(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", arr)

    def __setattr__(self, *_):
        raise AttributeError("MatrixGF is immutable")

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @property
    def nrows(self) -> int:
        return self.a.shape[0]

    @property
    def ncols(self) -> int:
        return self.a.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixGF)
            and self.field == other.field
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __repr__(self) -> str:
        return f"MatrixGF({self.field!r}, shape={self.a.shape})"

    def tolist(self) -> list[list[int]]:
        return self.a.tolist()

    def take_cols(self, idx) -> "MatrixGF":
        return MatrixGF(self.field, self.a[:, list(idx)])

    def __matmul__(self, other: "MatrixGF") -> "MatrixGF":
        if self.field != other.field:
            raise PreconditionError("field mismatch in matrix product")
        if self.ncols != other.nrows:
            raise PreconditionError(f"shape mismatch {self.shape} @ {other.shape}")
        F = self.field
        if F.m == 1:
            out = (self.a @ other.a) % F.p
        else:
            out = np.zeros((self.nrows, other.ncols), dtype=np.int64)
            for t in range(self.ncols):
                out = F.add(out, F.mul(self.a[:, t : t + 1], other.a[t : t + 1, :]))
        return MatrixGF(F, out)


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------


def _pivot_step(F: FiniteField, M: np.ndarray, at: tuple, c: int) -> None:
    """Scale the pivot row(s) M[at] so that column c reads 1 there, then clear
    column c in every other row of M, in place.  M is one matrix (at = (r,))
    or a stack (at = (matrices, rows), one pivot row per matrix).

    The clearing is one whole-array update M - f (x) row, where f is column c
    with f = 0 at the pivot row, done with the field's integer-domain
    elimination arithmetic (FiniteField._elim_ops)."""
    mul, axpy = F._elim_ops()
    row = mul(M[at], F._inv[M[at + (c,)]][..., None])
    M[at] = row
    f = M[..., c].copy()
    f[at] = 0
    M[...] = axpy(M, f[..., None], row[..., None, :])


def _rref(F: FiniteField, A: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """mat_rref on a raw int64 array (entries in range, unchecked): returns a
    reduced copy and the pivot columns."""
    A = A.copy()
    nr, nc = A.shape
    pivots: list[int] = []
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        nz = A[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            A[[r, r + nz[0]]] = A[[r + nz[0], r]]
        _pivot_step(F, A, (r,), c)
        pivots.append(c)
    return A, tuple(pivots)


def mat_rref(M: MatrixGF) -> tuple[MatrixGF, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns.

    Deterministic: the pivot in each column is the first nonzero entry from the
    current row downward; pivots are scaled to 1 and cleared above and below.
    Each pivot step is one integer-domain update of the whole matrix
    (_pivot_step).  The RREF and its pivots are unique, so the route a field
    takes does not show in the result.
    """
    R, piv = _rref(M.field, M.a)
    return MatrixGF(M.field, R), piv


def _rref_stack(F: FiniteField, B: np.ndarray, limit: int | None = None):
    """Row-reduce every matrix of the stack B (N x k x s) in lockstep.

    Each matrix gets the reduction of mat_rref: column by column, the pivot is
    the first nonzero entry from the current row down, scaled to 1 and cleared
    above and below; only the first `limit` columns (default all) take
    pivots.  A column's pivot step (_pivot_step) runs once on the matrices
    that pivot there, gathered from the stack, or on the stack itself when
    all of them do.  Returns the reduced stack, the (N x s) mask of pivot
    columns and the ranks.
    """
    N, k, s = B.shape
    B = B.copy()
    rank = np.zeros(N, dtype=np.int64)
    pivot = np.zeros((N, s), dtype=bool)
    rows = np.arange(k)
    for c in range(s if limit is None else limit):
        cand = (B[:, :, c] != 0) & (rows >= rank[:, None])
        idx = np.flatnonzero(cand.any(axis=1))
        if idx.size == 0:
            continue
        every = idx.size == N
        at, top = np.arange(idx.size), rank[idx]
        found = cand[idx].argmax(axis=1)
        M = B if every else B[idx]
        M[at, top], M[at, found] = M[at, found], M[at, top]
        _pivot_step(F, M, (at, top), c)
        if not every:
            B[idx] = M
        pivot[idx, c] = True
        rank[idx] += 1
    return B, pivot, rank


def mat_rank(M: MatrixGF) -> int:
    """Rank over the matrix's own field."""
    return len(mat_rref(M)[1])


def mat_kernel(M: MatrixGF) -> MatrixGF:
    """Basis of the right kernel {v : M v = 0}, one vector per row.

    Canonical (RREF-derived) basis: rows are ordered by their free column and
    each row has a 1 in its free column, so equal matrices give equal kernels.
    """
    R, piv = mat_rref(M)
    return MatrixGF(M.field, _kernel_basis(M.field, R.a, piv))


def _kernel_basis(F: FiniteField, R: np.ndarray, piv) -> np.ndarray:
    """mat_kernel's basis read from a reduced matrix R and its pivot columns:
    row i has a 1 at the i-th free column f and -R[j, f] at pivot piv[j]."""
    pivots = set(piv)
    free = [c for c in range(R.shape[1]) if c not in pivots]
    K = np.zeros((len(free), R.shape[1]), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    K[:, list(piv)] = F.neg(R[: len(piv)][:, free].T)
    return K
