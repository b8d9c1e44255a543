"""Linear codes over GF(p^m) with exhaustive, exact code-level primitives.

Everything here is enumeration-based and exact: minimum distance, coordinate
locality, repair-set witnesses.  Enumerations are bounded by a hard budget
(number of vectors touched); exceeding it raises BudgetError rather than
falling back to any approximation.  Coordinates are 0-based throughout the
library API (the CLI layer presents them 1-based).

Every exhaustive pass (the primal distance pass, the dual weight
distribution behind the MacWilliams route, and the dual-word scans behind
localities and repair-set witnesses) runs on one split-table kernel,
`_SplitTable`.  The first a generator rows are encoded once into a low
codebook of q^a words (a is the largest value with q^a <= 2^12, clamped to
[1, k]); block b is that codebook shifted by high word b, the combination
of the remaining rows.  A block's zero pattern is the single comparison
low == -high[b] on a column-major uint8 table (uint16 when q > 256), so no
block re-encodes messages; actual codewords are rebuilt only for witness
candidates.  The budget still charges the nominal q^k (or q^dim) words
before a pass starts, and the zero word is never visited.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import BudgetError, ParseError, PreconditionError
from .galois import FiniteField, MatrixGF, field_new, mat_kernel, mat_rank

__all__ = [
    "DEFAULT_BUDGET",
    "LinearCode",
    "LocalityClass",
    "LocalityProfile",
    "RepairSet",
    "code_from_generator",
    "code_from_lines",
    "code_from_parity_check",
    "code_to_lines",
    "dual",
    "entropy",
    "format_profile_shape",
    "load_code",
    "locality_of_coordinate",
    "locality_profile",
    "min_distance",
    "parse_profile_shape",
    "resolve_budget",
    "save_code",
    "shorten",
    "verify_profile",
]

DEFAULT_BUDGET = 10**8
_BUDGET_ENV = "MLLRC_BUDGET"
_LOW_WORDS = 1 << 12


def resolve_budget(budget: int | None = None) -> int:
    """Explicit argument, else the MLLRC_BUDGET env var, else 10^8."""
    if budget is None:
        env = os.environ.get(_BUDGET_ENV)
        if not env:
            return DEFAULT_BUDGET
        bad = f"{_BUDGET_ENV} must be a positive integer, got {env!r}"
        try:
            budget = int(env)
        except ValueError:
            raise PreconditionError(bad) from None
        if budget <= 0:
            raise PreconditionError(bad)
        return budget
    budget = int(budget)
    if budget <= 0:
        raise PreconditionError(f"enumeration budget must be positive, got {budget}")
    return budget


# ---------------------------------------------------------------------------
# enumeration kernel
# ---------------------------------------------------------------------------


def _low_rows(q: int, k: int) -> int:
    """Rows in the low codebook: the largest a with q^a <= _LOW_WORDS, clamped
    to [1, k], so the codebook never exceeds max(q, _LOW_WORDS) words."""
    a = 1
    while a < k and q ** (a + 1) <= _LOW_WORDS:
        a += 1
    return a


def _codebook(F: FiniteField, G: np.ndarray) -> np.ndarray:
    """All q^r words spanned by the r rows of G, one per row, in message order
    (digit i multiplies row i; digit 0 is least significant)."""
    n = G.shape[1]
    words = np.zeros((1, n), dtype=np.int64)
    for row in G:
        multiples = F.mul(F.elements()[:, None], row[None, :])
        words = F.add(multiples[:, None, :], words[None, :, :]).reshape(-1, n)
    return words


def _word_chunks(F: FiniteField, G: np.ndarray):
    """The words of _codebook(F, G) in the same order, in chunks of at most
    max(q, _LOW_WORDS) rows, so memory stays bounded whatever the dimension."""
    a = _low_rows(F.q, G.shape[0])
    low = _codebook(F, G[:a])
    if a >= G.shape[0]:  # also the lone zero word of an empty G
        yield low
        return
    for top in _word_chunks(F, G[a:]):
        for h in top:
            yield F.add(low, h)


class _SplitTable:
    """Exhaustive enumeration of a row space by split tables.

    The first a generator rows (a = _low_rows) are encoded once into a low
    codebook of q^a words; the other rows give q^(k-a) high words.  Block b is
    the low codebook shifted by high word b, so message index = c + q^a * b,
    the same order as counting messages with digit 0 least significant.  The
    codebook is held column-major as uint8 (uint16 when q > 256), and word
    (b, c) is zero at coordinate j exactly when low[c, j] == -high[b, j]: one
    comparison per block gives every zero pattern, with no per-block field
    arithmetic.  Actual words are rebuilt only on request (witnesses).
    """

    def __init__(self, F: FiniteField, G: np.ndarray):
        k, n = G.shape
        a = _low_rows(F.q, k)
        self.field = F
        self.low = _codebook(F, G[:a])
        self._low_t = np.ascontiguousarray(
            self.low.T, dtype=np.uint8 if F.q <= 256 else np.uint16
        )
        self._neg_high_rows = F.neg(G[a:])
        # zero counts (and zero counts + 1) fit in a byte for n < 255
        self._count_dtype = np.uint8 if n < 255 else np.int64

    def blocks(self):
        """Yield (first, neg_high, eq, zeros) per block, skipping the zero word.

        eq[j, c] says low word first + c plus the block's high word is zero at
        coordinate j; zeros[c] is its number of zero coordinates.  neg_high is
        the negated high word (int64), for word()."""
        first = 1  # message 0 is the zero word
        for chunk in _word_chunks(self.field, self._neg_high_rows):
            for neg_high, nh in zip(chunk, chunk.astype(self._low_t.dtype)):
                eq = self._low_t[:, first:] == nh[:, None]
                zeros = eq.view(np.uint8).sum(axis=0, dtype=self._count_dtype)
                yield first, neg_high, eq, zeros
                first = 0

    def word(self, c: int, neg_high: np.ndarray) -> np.ndarray:
        """The codeword with low index c in the block of neg_high."""
        return self.field.sub(self.low[c], neg_high)


# ---------------------------------------------------------------------------
# profiles and repair sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepairSet:
    """c[target] = sum coefficients[j] * c[helpers[j]] for every codeword."""

    target: int
    helpers: tuple[int, ...]
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if len(self.helpers) < 1:
            raise PreconditionError("repair set needs at least one helper")
        if self.target in self.helpers:
            raise PreconditionError("repair target cannot be its own helper")
        if len(self.helpers) != len(self.coefficients):
            raise PreconditionError("helpers and coefficients must align")

    def holds_for(self, code: "LinearCode") -> bool:
        """Exact check of the repair relation on every generator row."""
        F = code.field
        G = code.G.a
        rhs = np.zeros(code.k, dtype=np.int64)
        for j, c in zip(self.helpers, self.coefficients):
            rhs = F.add(rhs, F.mul(c, G[:, j]))
        return bool(np.array_equal(rhs, G[:, self.target]))


@dataclass(frozen=True)
class LocalityClass:
    locality: int
    coordinates: tuple[int, ...]

    def __post_init__(self):
        if self.locality < 1:
            raise PreconditionError(f"locality must be >= 1, got {self.locality}")
        if not self.coordinates:
            raise PreconditionError("locality class cannot be empty")
        if tuple(sorted(set(self.coordinates))) != self.coordinates:
            raise PreconditionError("class coordinates must be sorted and distinct")

    @property
    def size(self) -> int:
        return len(self.coordinates)


@dataclass(frozen=True)
class LocalityProfile:
    """Coordinate classes with strictly increasing localities r_1 < ... < r_s."""

    classes: tuple[LocalityClass, ...]

    def __post_init__(self):
        if not self.classes:
            raise PreconditionError("profile needs at least one class")
        locs = [c.locality for c in self.classes]
        if locs != sorted(set(locs)):
            raise PreconditionError("class localities must be strictly increasing")
        seen: set[int] = set()
        for c in self.classes:
            if seen & set(c.coordinates):
                raise PreconditionError("classes must be pairwise disjoint")
            seen |= set(c.coordinates)

    @property
    def n(self) -> int:
        return sum(c.size for c in self.classes)

    @property
    def s(self) -> int:
        return len(self.classes)

    def shape(self) -> tuple[tuple[int, int], ...]:
        """((n_1, r_1), ..., (n_s, r_s))."""
        return tuple((c.size, c.locality) for c in self.classes)

    def covers(self, n: int) -> bool:
        return set().union(*(c.coordinates for c in self.classes)) == set(range(n))

    def __str__(self) -> str:
        return format_profile_shape(self.shape())


_PROFILE_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_profile_shape(text: str) -> tuple[tuple[int, int], ...]:
    """Parse "(n1,r1),(n2,r2),..." into a shape tuple, validating the grammar.

    Classes may appear in any order; the result is canonical (sorted by
    locality).  Duplicate localities are rejected."""
    pairs = _PROFILE_RE.findall(text)
    canonical = ",".join(f"({a},{b})" for a, b in pairs)
    stripped = re.sub(r"\s+", "", text)
    if not pairs or stripped != canonical:
        raise ParseError(f"malformed profile string: {text!r}")
    try:
        shape = tuple(sorted(((int(a), int(b)) for a, b in pairs), key=lambda p: p[1]))
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"malformed profile string: {exc}") from exc
    locs = [r for _, r in shape]
    if len(locs) != len(set(locs)):
        raise ParseError(f"profile localities must be distinct: {text!r}")
    if any(n < 1 or r < 1 for n, r in shape):
        raise ParseError(f"profile entries must be positive: {text!r}")
    return shape


def format_profile_shape(shape) -> str:
    return ",".join(f"({n},{r})" for n, r in shape)


def _profile_from_localities(locs: dict[int, int]) -> LocalityProfile:
    by_r: dict[int, list[int]] = {}
    for coord, r in locs.items():
        by_r.setdefault(r, []).append(coord)
    classes = tuple(
        LocalityClass(r, tuple(sorted(by_r[r]))) for r in sorted(by_r)
    )
    return LocalityProfile(classes)


# ---------------------------------------------------------------------------
# the code object
# ---------------------------------------------------------------------------


class LinearCode:
    """[n, k] linear code over GF(p^m), held as a full-rank generator matrix."""

    def __init__(self, field: FiniteField, G, *, parity_check: MatrixGF | None = None):
        Gm = G if isinstance(G, MatrixGF) else MatrixGF(field, G)
        if Gm.field != field:
            raise PreconditionError("generator field mismatch")
        if Gm.nrows < 1 or Gm.ncols < 1:
            raise PreconditionError("code needs k >= 1 and n >= 1")
        if Gm.nrows > Gm.ncols:
            raise PreconditionError("generator has more rows than columns")
        if mat_rank(Gm) != Gm.nrows:
            raise PreconditionError("generator matrix must have full row rank")
        self.field = field
        self.G = Gm
        self._H = parity_check
        self._d: int | None = None

    # -- basic parameters ----------------------------------------------------

    @property
    def n(self) -> int:
        return self.G.ncols

    @property
    def k(self) -> int:
        return self.G.nrows

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def H(self) -> MatrixGF:
        """Parity-check matrix (kernel of G); empty (0 x n) when k = n."""
        if self._H is None:
            self._H = mat_kernel(self.G)
        return self._H

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearCode)
            and self.field == other.field
            and self.G == other.G
        )

    def __repr__(self) -> str:
        d = f",{self._d}" if self._d is not None else ""
        return f"LinearCode[{self.n},{self.k}{d}]_{self.q}"

    def dual(self) -> "LinearCode":
        if self.k == self.n:
            raise PreconditionError("full space has a zero dual; not representable")
        return LinearCode(self.field, self.H)

    # -- codeword sampling -----------------------------------------------------

    def sample_codewords(self, count: int, seed: int) -> np.ndarray:
        """Deterministic random codewords, one per row (for spot checks/demos)."""
        rng = np.random.default_rng(seed)
        msgs = rng.integers(0, self.q, size=(count, self.k), dtype=np.int64)
        return (MatrixGF(self.field, msgs) @ self.G).a

    # -- distance --------------------------------------------------------------

    def min_distance(self, budget: int | None = None) -> int:
        """Exact minimum nonzero codeword weight (cached once computed)."""
        if self._d is not None:
            return self._d
        b = resolve_budget(budget)
        primal = self.q**self.k
        dual_side = self.q ** (self.n - self.k)
        if primal <= b:
            table = _SplitTable(self.field, self.G.a)
            d = self.n - max(int(zeros.max()) for *_, zeros in table.blocks())
        elif dual_side <= b:
            d = self._distance_via_dual()
        else:
            raise BudgetError(
                f"minimum distance of {self!r} needs {min(primal, dual_side)} "
                f"enumerations; budget is {b}"
            )
        self._d = d
        return d

    def _weight_counts(self, G: np.ndarray) -> list[int]:
        """Number of words of each weight 0..n in the row space of G."""
        by_zeros = np.zeros(self.n + 1, dtype=np.int64)
        for *_, zeros in _SplitTable(self.field, G).blocks():
            by_zeros += np.bincount(zeros, minlength=self.n + 1)
        by_zeros[self.n] += 1  # zero word
        return [int(c) for c in by_zeros[::-1]]

    def _distance_via_dual(self) -> int:
        """Exact distance from the dual weight distribution via the
        MacWilliams transform (integer Krawtchouk arithmetic)."""
        n, q = self.n, self.q
        B = self._weight_counts(self.H.a)
        denom = q ** (self.n - self.k)
        for i in range(1, n + 1):
            acc = 0
            for j in range(n + 1):
                if not B[j]:
                    continue
                kraw = 0
                for l in range(0, min(i, j) + 1):
                    if i - l > n - j:
                        continue
                    kraw += (-1) ** l * (q - 1) ** (i - l) * comb(j, l) * comb(n - j, i - l)
                acc += B[j] * kraw
            if acc % denom:
                raise RuntimeError("MacWilliams transform produced a non-integer count")
            if acc // denom:
                return i
        raise RuntimeError("no nonzero codeword found; generator was rank-deficient")

    # -- shortening / puncturing -------------------------------------------------

    def shorten(self, i: int, allow_zero_column: bool = False) -> "LinearCode":
        """Codewords with c_i = 0, coordinate i deleted ([n-1, k-1, >= d]).

        Row-reduces so column i has a single nonzero entry, then deletes that
        row and the column.  Remaining coordinates keep their relative order.
        A zero column cannot be shortened (k would not drop); with
        allow_zero_column=True it is simply deleted instead.
        """
        if not 0 <= i < self.n:
            raise PreconditionError(f"coordinate {i} out of range [0, {self.n})")
        F = self.field
        A = self.G.a.copy()
        col = A[:, i]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            if allow_zero_column:
                return LinearCode(F, np.delete(A, i, axis=1))
            raise PreconditionError(
                f"generator column {i} is identically zero; shortening would not "
                "reduce the dimension (pass allow_zero_column=True to drop it)"
            )
        if self.k == 1:
            raise PreconditionError("shortening a dimension-1 code would empty it")
        piv = int(nz[0])
        if A[piv, i] != 1:
            A[piv] = F.mul(A[piv], F.inv(int(A[piv, i])))
        others = np.nonzero(A[:, i])[0]
        others = others[others != piv]
        if others.size:
            A[others] = F.sub(A[others], F.mul(A[others, i][:, None], A[piv][None, :]))
        A = np.delete(np.delete(A, piv, axis=0), i, axis=1)
        return LinearCode(F, A)

    def puncture(self, i: int) -> "LinearCode":
        """Delete coordinate i; dimension drops only if it was forced to 0."""
        if not 0 <= i < self.n:
            raise PreconditionError(f"coordinate {i} out of range [0, {self.n})")
        A = np.delete(self.G.a, i, axis=1)
        M = MatrixGF(self.field, A)
        if mat_rank(M) < self.k:
            from .galois import mat_rref

            R, piv = mat_rref(M)
            A = R.a[: len(piv)]
        return LinearCode(self.field, A)

    # -- coordinate-set entropy ---------------------------------------------------

    def entropy(self, coords) -> int:
        """rank(G_I) = log_q of the number of distinct projections onto I."""
        coords = list(coords)
        if any(not 0 <= c < self.n for c in coords):
            raise PreconditionError(f"coordinates out of range: {coords}")
        if not coords:
            return 0
        return mat_rank(self.G.take_cols(coords))

    # -- locality ----------------------------------------------------------------

    def _dual_support_scan(
        self,
        support: tuple[int, ...],
        targets: tuple[int, ...],
        budget: int | None,
        want_witnesses: bool,
    ) -> dict[int, tuple[int | None, RepairSet | None]]:
        """Min weight of dual words supported within `support` through each target.

        Enumerates the kernel of G restricted to `support` (exactly the dual
        words vanishing outside it).  Witnesses are normalized to h_target = 1
        and chosen as the lexicographically smallest (helper set, coefficient
        vector) among minimum-weight candidates.
        """
        F = self.field
        b = resolve_budget(budget)
        sub = MatrixGF(F, self.G.a[:, list(support)])
        K = mat_kernel(sub).a
        dim = K.shape[0]
        if F.q**dim > b:
            raise BudgetError(
                f"dual scan needs {F.q ** dim} enumerations; budget is {b}"
            )
        pos = {c: idx for idx, c in enumerate(support)}
        t_pos = np.array([pos[t] for t in targets], dtype=np.intp)
        # per target: 1 + the most zeros of a word nonzero there (0: no word)
        best = np.zeros(len(targets), dtype=np.int64)
        if dim > 0:
            table = _SplitTable(F, K)
            for _, _, eq, zeros in table.blocks():
                # a target can improve only if some word of this block has
                # more zeros than its best so far; the rest skip this block
                lagging = np.nonzero(best <= zeros.max())[0]
                if lagging.size:
                    score = np.where(eq[t_pos[lagging]], 0, zeros + 1)
                    best[lagging] = np.maximum(best[lagging], score.max(axis=1))
        weight = {
            t: len(support) + 1 - int(m) if m else None for t, m in zip(targets, best)
        }
        if not want_witnesses:
            return {t: (weight[t], None) for t in targets}
        keys: dict[int, tuple] = {}
        wit: dict[int, RepairSet | None] = {t: None for t in targets}
        active = np.nonzero(best)[0]
        if active.size:
            rows = t_pos[active]
            want = best[active][:, None]
            for first, neg_high, eq, zeros in table.blocks():
                if want.min() > zeros.max() + 1:
                    continue  # no minimum-weight word in this block
                score = np.where(eq[rows], 0, zeros + 1)
                for i, ci in zip(*np.nonzero(score == want)):
                    t, tp = targets[active[i]], int(rows[i])
                    h = table.word(first + int(ci), neg_high)
                    hn = F.mul(F.inv(int(h[tp])), h)  # normalize h_t = 1
                    supp = tuple(support[j] for j in np.nonzero(hn)[0] if j != tp)
                    coeffs = tuple(int(F.neg(int(hn[pos[c]]))) for c in supp)
                    key = (supp, coeffs)
                    if t not in keys or key < keys[t]:
                        keys[t] = key
                        wit[t] = RepairSet(t, supp, coeffs)
        return {t: (weight[t], wit[t]) for t in targets}

    def locality_of_coordinate(
        self, i: int, restrict_to=None, budget: int | None = None
    ) -> tuple[int, RepairSet]:
        """Exact locality of coordinate i and a witness repair set.

        restrict_to: optional coordinate set the helpers must come from.
        """
        if not 0 <= i < self.n:
            raise PreconditionError(f"coordinate {i} out of range [0, {self.n})")
        if not self.G.a[:, i].any():
            raise PreconditionError(
                f"coordinate {i} is identically zero; locality is undefined"
            )
        if restrict_to is None:
            support = tuple(range(self.n))
        else:
            support = tuple(sorted(set(restrict_to) | {i}))
            if any(not 0 <= c < self.n for c in support):
                raise PreconditionError("restrict_to coordinates out of range")
        res = self._dual_support_scan(support, (i,), budget, want_witnesses=True)
        w, witness = res[i]
        if w is None:
            raise PreconditionError(
                f"coordinate {i} has no repair relation (no dual word through it)"
            )
        return w - 1, witness

    def locality_profile(self, mode: str = "loose", budget: int | None = None) -> LocalityProfile:
        """Exact per-coordinate localities grouped into increasing classes.

        loose: helpers may come from anywhere (the detection default).
        strict: the loose partition re-scanned with helpers confined to each
        class; raises if the partition is not stable under that restriction.
        """
        if mode not in ("loose", "strict"):
            raise PreconditionError(f"unknown profile mode {mode!r}")
        zero_cols = [int(j) for j in range(self.n) if not self.G.a[:, j].any()]
        if zero_cols:
            raise PreconditionError(
                f"coordinates {zero_cols} are identically zero; locality is undefined"
            )
        full = tuple(range(self.n))
        res = self._dual_support_scan(full, full, budget, want_witnesses=False)
        locs: dict[int, int] = {}
        for c in full:
            w = res[c][0]
            if w is None:
                raise PreconditionError(
                    f"coordinate {c} has no repair relation (no dual word through it)"
                )
            locs[c] = w - 1
        loose = _profile_from_localities(locs)
        if mode == "loose":
            return loose
        strict_locs: dict[int, int] = {}
        for cls in loose.classes:
            res = self._dual_support_scan(
                cls.coordinates, cls.coordinates, budget, want_witnesses=False
            )
            for c in cls.coordinates:
                w = res[c][0]
                if w is None:
                    raise PreconditionError(
                        f"coordinate {c} has no repair relation inside its class"
                    )
                strict_locs[c] = w - 1
        strict = _profile_from_localities(strict_locs)
        if tuple(c.coordinates for c in strict.classes) != tuple(
            c.coordinates for c in loose.classes
        ):
            raise PreconditionError(
                "profile is not strict-stable: restricting helpers to classes "
                "changes the partition"
            )
        return strict

    def verify_profile(
        self, profile: LocalityProfile, mode: str = "loose", budget: int | None = None
    ) -> tuple[bool, dict[int, RepairSet | None]]:
        """Check every coordinate of class i has a repair set of size <= r_i.

        strict mode confines helpers to the coordinate's own class.  Returns
        (ok, witnesses); coordinates failing their class bound map to None.
        """
        if mode not in ("loose", "strict"):
            raise PreconditionError(f"unknown profile mode {mode!r}")
        if not profile.covers(self.n):
            raise PreconditionError("profile does not cover the code's coordinates")
        witnesses: dict[int, RepairSet | None] = {}
        ok = True
        for cls in profile.classes:
            support = cls.coordinates if mode == "strict" else tuple(range(self.n))
            res = self._dual_support_scan(
                support, cls.coordinates, budget, want_witnesses=True
            )
            for c in cls.coordinates:
                w, witness = res[c]
                if w is None or w - 1 > cls.locality:
                    witnesses[c] = None
                    ok = False
                else:
                    witnesses[c] = witness
        return ok, witnesses


# ---------------------------------------------------------------------------
# functional aliases (the operation surface)
# ---------------------------------------------------------------------------


def code_from_generator(field: FiniteField, G) -> LinearCode:
    return LinearCode(field, G)


def code_from_parity_check(field: FiniteField, H) -> LinearCode:
    Hm = H if isinstance(H, MatrixGF) else MatrixGF(field, H)
    if mat_rank(Hm) != Hm.nrows:
        raise PreconditionError("parity-check matrix must have full row rank")
    G = mat_kernel(Hm)
    return LinearCode(field, G, parity_check=Hm)


def dual(code: LinearCode) -> LinearCode:
    return code.dual()


def min_distance(code: LinearCode, budget: int | None = None) -> int:
    return code.min_distance(budget)


def shorten(code: LinearCode, i: int, allow_zero_column: bool = False) -> LinearCode:
    return code.shorten(i, allow_zero_column)


def entropy(code: LinearCode, coords) -> int:
    return code.entropy(coords)


def locality_of_coordinate(code, i, restrict_to=None, budget=None):
    return code.locality_of_coordinate(i, restrict_to, budget)


def locality_profile(code, mode="loose", budget=None):
    return code.locality_profile(mode, budget)


def verify_profile(code, profile, mode="loose", budget=None):
    return code.verify_profile(profile, mode, budget)


# ---------------------------------------------------------------------------
# code file format
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(
    r"^q=(\d+)\s+p=(\d+)\s+m=(\d+)\s+n=(\d+)\s+k=(\d+)\s*$"
)


def code_to_lines(code: LinearCode) -> list[str]:
    """Text form of a code: header line, modulus line (m >= 2), G rows."""
    F = code.field
    lines = [f"q={F.q} p={F.p} m={F.m} n={code.n} k={code.k}"]
    if F.m >= 2:
        lines.append("modulus=" + ",".join(str(c) for c in F.modulus))
    for row in code.G.tolist():
        lines.append(" ".join(str(v) for v in row))
    return lines


def code_from_lines(lines, where: str = "code text") -> LinearCode:
    """Parse the text form, validating every field and entry range.

    `lines` are the stripped, non-empty content lines; `where` prefixes error
    messages (a file path or an embedding-section label).
    """
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ParseError(f"{where}: empty code text")
    hd = _HEADER_RE.match(lines[0])
    if not hd:
        raise ParseError(f"{where}: malformed header line {lines[0]!r}")
    q, p, m, n, k = (int(hd.group(i)) for i in range(1, 6))
    if p**m != q:
        raise ParseError(f"{where}: q={q} is not p^m = {p}^{m}")
    body = lines[1:]
    modulus = None
    if body and body[0].startswith("modulus="):
        try:
            modulus = tuple(int(v) for v in body[0][len("modulus="):].split(","))
        except ValueError as exc:
            raise ParseError(f"{where}: malformed modulus line") from exc
        body = body[1:]
        if m == 1:
            raise ParseError(f"{where}: modulus line present for a prime field")
    try:
        field = field_new(p, m, modulus)
    except PreconditionError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    if len(body) != k:
        raise ParseError(f"{where}: expected {k} generator rows, found {len(body)}")
    rows = []
    for ln in body:
        try:
            row = [int(v) for v in ln.split()]
        except ValueError as exc:
            raise ParseError(f"{where}: non-integer generator entry in {ln!r}") from exc
        if len(row) != n:
            raise ParseError(f"{where}: row has {len(row)} entries, expected {n}")
        if any(not 0 <= v < q for v in row):
            raise ParseError(f"{where}: generator entry out of range [0, {q})")
        rows.append(row)
    try:
        return LinearCode(field, rows)
    except PreconditionError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def save_code(code: LinearCode, path) -> None:
    """Write the text format: header line, modulus line (m >= 2), G rows."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(code_to_lines(code)) + "\n")


def _read_ascii(path) -> str:
    """Text of an input file (universal newlines); a byte outside ASCII is a
    ParseError, like any other malformed content."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: non-ASCII byte 0x{exc.object[exc.start]:02x}; "
            "input files are ASCII text"
        ) from exc


def load_code(path) -> LinearCode:
    """Parse the text format, validating every field and entry range."""
    raw = [ln.strip() for ln in _read_ascii(path).split("\n")]
    return code_from_lines(raw, where=str(path))
