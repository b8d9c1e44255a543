"""Constructions of codes with multiple localities.

Contents: polynomial-evaluation base codes whose repair groups are the cosets
of a multiplicative subgroup (tamo_barg), repair-group shortening transforms
that trade locality classes (algorithm1_ml_lrc / algorithm3_ml_lrc) together
with the profile-arithmetic predictor for single-coordinate shortening,
information-locality codes that split one shared parity into per-block
parities (ml_pyramid), a generalized concatenation engine over a nested chain
of inner codes (gcc_generator), the binary two-level family built on it
(construction2_binary_lrc), and the greedy coordinate-set builder used for
dimension-bound certificates (entropy_set).

All constructions are deterministic: free choices (evaluation-point order,
which coordinate of a repair group to delete, anchor/padding selection) are
resolved lexicographically and documented on each function.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .errors import BudgetError, ParseError, PreconditionError
from .galois import (
    FiniteField,
    MatrixGF,
    _kernel_basis,
    _rref_stack,
    field_from_order,
    field_new,
    mat_rref,
)
from .kernel import _SplitTable
from .linear_code import (
    LinearCode,
    LocalityClass,
    LocalityProfile,
    RepairSet,
    _field_from_header,
    _normalize_shape,
    _read_ascii,
    code_from_lines,
    code_to_lines,
    format_profile_shape,
    parse_profile_shape,
    resolve_budget,
)

__all__ = [
    "GccLevel",
    "GccSpec",
    "PyramidSpec",
    "algorithm1_ml_lrc",
    "algorithm3_ml_lrc",
    "construction2_binary_lrc",
    "construction2_gcc_spec",
    "construction2_parameters",
    "detect_repair_groups",
    "entropy_set",
    "extended_rs",
    "gcc_generator",
    "load_gcc_spec",
    "load_pyramid_spec",
    "ml_pyramid",
    "predict_shortened_profile",
    "pyramid_bound_shape",
    "pyramid_profile",
    "rate_dimension_limit",
    "reed_solomon",
    "save_gcc_spec",
    "save_pyramid_spec",
    "tamo_barg",
]


# ---------------------------------------------------------------------------
# evaluation base codes
# ---------------------------------------------------------------------------


def reed_solomon(field: FiniteField, n: int, k: int) -> LinearCode:
    """[n, k, n-k+1] polynomial-evaluation code on the first n field elements.

    Row i is the evaluation of x^i at the points 0, 1, ..., n-1 (integer
    element encodings), so the first k columns form an information set.
    """
    if not 1 <= k <= n:
        raise PreconditionError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > field.q:
        raise PreconditionError(
            f"length {n} exceeds the number of distinct field points {field.q}"
        )
    pts = np.arange(n, dtype=np.int64)
    G = np.array([field.pow(pts, i) for i in range(k)])
    return LinearCode(field, G)


def extended_rs(field: FiniteField, k: int) -> LinearCode:
    """[q+1, k, q-k+2] evaluation code: all q points plus the x^{k-1} column.

    The extension coordinate is the coefficient of x^{k-1}, appended last.
    """
    q = field.q
    if not 1 <= k <= q:
        raise PreconditionError(f"need 1 <= k <= q={q}, got k={k}")
    pts = np.arange(q, dtype=np.int64)
    G = np.zeros((k, q + 1), dtype=np.int64)
    for i in range(k):
        G[i, :q] = [field.pow(int(x), i) for x in pts]
    G[k - 1, q] = 1
    return LinearCode(field, G)


def _systematic_generator(code: LinearCode) -> np.ndarray:
    """Row-reduced generator (I | P); requires the first k columns independent."""
    R, piv = mat_rref(code.G)
    if piv != tuple(range(code.k)):
        raise PreconditionError("leading coordinates are not an information set")
    return R.a


def tamo_barg(q: int, n: int, k: int, r: int) -> LinearCode:
    """[n, k] r-local evaluation code on a multiplicative subgroup of GF(q)*.

    The n evaluation points form the order-n multiplicative subgroup,
    partitioned into cosets of its order-(r+1) subgroup; g(x) = x^{r+1} is
    constant on each coset.  Encoding polynomials are
    f(x) = sum_{i<r} sum_{j<k/r} a_{ij} x^i g(x)^j, so within a coset every
    codeword is a degree-(r-1) polynomial and the coset is a repair group.

    Point order: coset-major (coset c contributes positions c(r+1)..c(r+1)+r);
    generator rows are ordered j-major (row index j*r + i has degree i+(r+1)j).
    """
    F = field_from_order(q)
    if r < 1 or k < 1 or n < 1:
        raise PreconditionError(f"need n, k, r >= 1, got n={n}, k={k}, r={r}")
    if n % (r + 1):
        raise PreconditionError(f"r+1 = {r + 1} must divide n = {n}")
    if (q - 1) % n:
        raise PreconditionError(
            f"n = {n} must divide q-1 = {q - 1} (evaluation points form a "
            "multiplicative subgroup)"
        )
    if k % r:
        raise PreconditionError(f"r = {r} must divide k = {k}")
    if k * (r + 1) > n * r:
        raise PreconditionError(
            f"rate bound violated: k = {k} exceeds r*n/(r+1) = {n * r}/{r + 1}"
        )
    gamma = F.pow(F.generator, (q - 1) // n)  # fixed order-n element
    m = n // (r + 1)
    pts = [F.pow(gamma, c + t * m) for c in range(m) for t in range(r + 1)]
    rows = [
        [F.pow(x, i + (r + 1) * j) for x in pts]
        for j in range(k // r)
        for i in range(r)
    ]
    return LinearCode(F, rows)


# ---------------------------------------------------------------------------
# repair groups
# ---------------------------------------------------------------------------

_SUPPORT_SEARCH_CAP = 1 << 20
# Column subsets tested together: enough to amortise the numpy calls, few
# enough that a chunk's (subsets x k x size) stack stays small.
_SUBSET_CHUNK = 256


def _xor_route(F: FiniteField, size: int) -> bool:
    """Whether _full_support_flags answers subsets of this size by XOR."""
    return F.q == 2 and 2**size <= _SUPPORT_SEARCH_CAP


def _full_support_flags(F: FiniteField, A: np.ndarray, subsets):
    """For each column subset S of A, in order: is some dual word's support
    exactly S, i.e. does the kernel of A[:, S] hold a vector with no zero?

    Subsets are read _SUBSET_CHUNK at a time.  Over GF(2) the only vector
    with no zero is all-ones, so S qualifies iff its columns XOR to zero.  A
    binary chunk whose kernels cannot exceed _SUPPORT_SEARCH_CAP words
    (2^|S| <= cap) is answered that way, on bit-packed columns; every other
    chunk goes to _elimination_flags, which gives the same flags there.
    """
    packed = np.packbits(A.T != 0, axis=1) if F.q == 2 else None
    it = iter(subsets)
    while chunk := list(itertools.islice(it, _SUBSET_CHUNK)):
        S = np.array(chunk, dtype=np.int64)
        if packed is not None and _xor_route(F, S.shape[1]):
            yield from (~np.bitwise_xor.reduce(packed[S], axis=1).any(axis=1)).tolist()
        else:
            yield from _elimination_flags(F, A, S)


def _elimination_flags(F: FiniteField, A: np.ndarray, S: np.ndarray):
    """_full_support_flags for the equal-size subsets S (one per row), all
    row-reduced in lockstep.  Kernel dimension 0 means no.  Dimension 1 means
    yes iff the free column of the RREF is nonzero in every pivot row.  A
    larger kernel is scanned word by word from its RREF basis with the
    split-table kernel.  A kernel of more than _SUPPORT_SEARCH_CAP words
    raises BudgetError when its subset's turn comes, after the flags of all
    earlier subsets.
    """
    R, pivot, rank = _rref_stack(F, A[:, S].transpose(1, 0, 2))
    dims = S.shape[1] - rank
    R_free = R[np.arange(len(S)), :, pivot.argmin(axis=1)]
    in_rank = np.arange(R.shape[1]) < rank[:, None]
    one_free_full = np.all((R_free != 0) | ~in_rank, axis=1)
    for b, dim in enumerate(dims.tolist()):
        if dim == 0:
            yield False
            continue
        total = F.q**dim
        if total > _SUPPORT_SEARCH_CAP:
            raise BudgetError(
                f"kernel enumeration needs {total} combinations "
                f"(cap {_SUPPORT_SEARCH_CAP})"
            )
        if dim == 1:
            yield bool(one_free_full[b])
            continue
        K = _kernel_basis(F, R[b], np.flatnonzero(pivot[b]).tolist())
        full = K.shape[1]  # a word with no zero
        yield any(bool((w == full).any()) for w in _SplitTable(F, K).weights())


def detect_repair_groups(code: LinearCode, r: int) -> tuple[tuple[int, ...], ...]:
    """Partition all coordinates into disjoint (r+1)-sets, each the exact
    support of some dual word (so each set is a self-contained repair group).

    The lexicographically smallest such partition is returned, ordered by
    smallest element; raises if none exists.  A depth-first walk places the
    least uncovered coordinate x at each step, trying the candidates with
    least element x in lexicographic order.  The first visit of x tests all
    (r+1)-subsets with least element x in one _full_support_flags batch and
    keeps the candidates for later visits, so no subset is tested twice, and
    a subset whose least element the walk never reaches is never tested (nor
    can its kernel raise the 2^20-word BudgetError).  Before the walk, the
    worst case of testing all C(n, r+1) subsets is charged against the
    enumeration budget: a unit per subset on the binary XOR route, else
    k(r+1) units per subset (a span-search rank test); BudgetError when that
    is over the budget.
    """
    n = code.n
    if not 1 <= r < n:
        raise PreconditionError(f"need 1 <= r < n, got r={r}, n={n}")
    if n % (r + 1):
        raise PreconditionError(
            f"n = {n} is not a multiple of r+1 = {r + 1}; no partition into "
            "repair groups exists"
        )
    count = comb(n, r + 1)
    units = count if _xor_route(code.field, r + 1) else count * code.k * (r + 1)
    budget = resolve_budget()
    if units > budget:
        raise BudgetError(
            f"repair-group detection at r = {r} needs {units} units for "
            f"{count} subsets; budget is {budget}"
        )
    by_least: dict[int, list[tuple[int, ...]]] = {}

    def candidates(x: int) -> list[tuple[int, ...]]:
        if x not in by_least:
            subsets, tested = itertools.tee(
                (x, *c) for c in itertools.combinations(range(x + 1, n), r)
            )
            flags = _full_support_flags(code.field, code.G.a, tested)
            by_least[x] = list(itertools.compress(subsets, flags))
        return by_least[x]

    def walk(covered: set, acc: list):
        if len(covered) == n:
            return tuple(acc)
        x = min(set(range(n)) - covered)
        for g in candidates(x):
            if covered & set(g):
                continue
            acc.append(g)
            res = walk(covered | set(g), acc)
            if res is not None:
                return res
            acc.pop()
        return None

    part = walk(set(), [])
    if part is None:
        raise PreconditionError(
            f"no partition of the {n} coordinates into disjoint repair groups "
            f"of size {r + 1}"
        )
    return part


def _normalize_groups(code: LinearCode, repair_groups) -> tuple[tuple[int, ...], ...]:
    """Validate user-supplied groups: uniform size, disjoint, covering, and
    each carrying a full-support dual word.  Returns them sorted by minimum."""
    groups = []
    for g in repair_groups:
        t = tuple(sorted(int(c) for c in g))
        if len(set(t)) != len(t):
            raise PreconditionError(f"repair group {t} has repeated coordinates")
        if any(not 0 <= c < code.n for c in t):
            raise PreconditionError(f"repair group {t} out of range [0, {code.n})")
        groups.append(t)
    if not groups:
        raise PreconditionError("at least one repair group is required")
    size = len(groups[0])
    if size < 2:
        raise PreconditionError("repair groups need at least two coordinates")
    if any(len(g) != size for g in groups):
        raise PreconditionError("repair groups must all have the same size")
    flat = [c for g in groups for c in g]
    if len(set(flat)) != len(flat):
        raise PreconditionError("repair groups must be pairwise disjoint")
    if len(flat) != code.n:
        raise PreconditionError(
            f"repair groups must partition all {code.n} coordinates "
            f"(got {len(flat)})"
        )
    for i, ok in enumerate(_full_support_flags(code.field, code.G.a, groups), 1):
        if not ok:
            raise PreconditionError(
                f"repair group {i} of {len(groups)} carries no dual word with "
                "full support"
            )
    return tuple(sorted(groups))


def _auto_groups(code: LinearCode, r_min: int) -> tuple[tuple[int, ...], ...]:
    """Detect groups at the smallest locality >= r_min that admits a
    partition.  Every r2 with (r2+1) | n is tried, up to n-1: disjoint
    groups need only n/(r2+1) <= n-k independent dual words."""
    for r2 in range(max(r_min, 1), code.n):
        if code.n % (r2 + 1):
            continue
        try:
            return detect_repair_groups(code, r2)
        except PreconditionError:
            continue
    raise PreconditionError(
        "could not auto-detect disjoint repair groups; pass repair_groups "
        "explicitly"
    )


def algorithm1_ml_lrc(
    base: LinearCode, r1: int, n1: int, repair_groups=None
) -> LinearCode:
    """Turn an r2-local code into an ((n1, r1), (n2, r2))-local code.

    Deletes (by shortening, i.e. removing parity-check columns) the r2-r1
    lexicographically smallest coordinates of each of the first n1/(r1+1)
    repair groups.  Each affected group keeps r1+1 coordinates whose punctured
    dual word still covers them, giving locality r1; untouched groups keep
    locality r2.  Output parameters: [n1+n2, k, d] with n2 = n - n1/(r1+1)
    *(r2+1) and k = base.k - (r2-r1)*n1/(r1+1), distance preserved.  This is
    algorithm3_ml_lrc with alpha = n1/(r1+1).

    repair_groups: disjoint (r2+1)-sets partitioning the coordinates, each the
    exact support of a dual word; auto-detected from the base when omitted.
    """
    if n1 < 0:
        raise PreconditionError(f"n1 must be >= 0, got {n1}")
    if r1 < 1:
        raise PreconditionError(f"r1 must be >= 1, got {r1}")
    if n1 % (r1 + 1):
        raise PreconditionError(f"r1+1 = {r1 + 1} must divide n1 = {n1}")
    return algorithm3_ml_lrc(base, r1, n1 // (r1 + 1), repair_groups)


def algorithm3_ml_lrc(
    base: LinearCode, r1: int, alpha: int, repair_groups=None
) -> LinearCode:
    """Delete r2-r1 coordinates from each of the first alpha repair groups.

    The deleted coordinates are the r2-r1 lexicographically smallest of each
    group, groups ordered by smallest element.  Output parameters
    [n - alpha*(r2-r1), k - alpha*(r2-r1), d] with profile
    ((alpha*(r1+1), r1), (n - alpha*(r2+1), r2)).  alpha = 0 is the identity.
    """
    if alpha < 0:
        raise PreconditionError(f"alpha must be >= 0, got {alpha}")
    if r1 < 1:
        raise PreconditionError(f"r1 must be >= 1, got {r1}")
    if repair_groups is None:
        groups = _auto_groups(base, r1)
    else:
        groups = _normalize_groups(base, repair_groups)
    if alpha > len(groups):
        raise PreconditionError(
            f"{alpha} groups requested, only {len(groups)} repair groups"
        )
    r2 = len(groups[0]) - 1
    if r1 > r2:
        raise PreconditionError(
            f"target locality r1 = {r1} exceeds the group locality r2 = {r2}"
        )
    to_delete = sorted(c for g in groups[:alpha] for c in g[: r2 - r1])
    code = base
    for c in reversed(to_delete):  # delete highest-first so indices stay valid
        code = code.shorten(c)
    return code


# ---------------------------------------------------------------------------
# profile arithmetic for shortening
# ---------------------------------------------------------------------------


def predict_shortened_profile(profile, alpha: int) -> tuple[tuple[int, int], ...]:
    """Profile shape after shortening one coordinate of class alpha (1-based).

    Shortening at a class-alpha coordinate removes it from its repair group;
    the r_alpha surviving partners of that group drop to locality r_alpha - 1.
    If the previous class already has locality r_alpha - 1 they merge into it
    (n'_{alpha-1} = n_{alpha-1} + r_alpha, n'_alpha = n_alpha - r_alpha - 1);
    otherwise a new class (r_alpha, r_alpha - 1) is inserted before class
    alpha.  Classes that would become empty are dropped.
    """
    shape = _normalize_shape(profile)
    s = len(shape)
    if not 1 <= alpha <= s:
        raise PreconditionError(
            f"alpha must be in [1, {s}] (1-based class index), got {alpha}"
        )
    n_a, r_a = shape[alpha - 1]
    if n_a < r_a + 2:
        raise PreconditionError(
            f"class {alpha} has n = {n_a} <= r+1 = {r_a + 1}; it would not "
            "survive shortening"
        )
    if alpha >= 2 and shape[alpha - 2][1] == r_a - 1:
        merged = (shape[alpha - 2][0] + r_a, r_a - 1)
        out = shape[: alpha - 2] + (merged, (n_a - r_a - 1, r_a)) + shape[alpha:]
    else:
        if r_a < 2:
            raise PreconditionError(
                f"class {alpha} has locality 1; the split-off partners would "
                "have locality 0"
            )
        out = (
            shape[: alpha - 1]
            + ((r_a, r_a - 1), (n_a - r_a - 1, r_a))
            + shape[alpha:]
        )
    return tuple((nn, rr) for nn, rr in out if nn > 0)


def rate_dimension_limit(shape) -> Fraction:
    """Largest dimension a code with the given shape can have:
    sum over classes of r_i * n_i / (r_i + 1), as an exact fraction."""
    shape = _normalize_shape(shape)
    return sum(
        (Fraction(r * n, r + 1) for n, r in shape), start=Fraction(0)
    )


# ---------------------------------------------------------------------------
# information-locality parity splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PyramidSpec:
    """Parameters for a parity-splitting construction over a [k+d-1, k, d]
    evaluation base: field size, target distance, and the per-class
    (k_i, r_i) with strictly increasing r_i.  Class i takes the next k_i
    information coordinates, in ceil(k_i/r_i) consecutive blocks of r_i
    (the last block possibly smaller)."""

    q: int
    d: int
    dims: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", _normalize_shape(self.dims))
        field_from_order(self.q)  # validates prime power
        if self.d < 2:
            raise PreconditionError(f"distance must be >= 2, got {self.d}")

    @property
    def k(self) -> int:
        return sum(k_i for k_i, _ in self.dims)

    @property
    def kappas(self) -> tuple[int, ...]:
        """Blocks per class: ceil(k_i/r_i)."""
        return tuple(-(-k_i // r_i) for k_i, r_i in self.dims)

    @property
    def n(self) -> int:
        return self.k + sum(self.kappas) + self.d - 2


def ml_pyramid(spec: PyramidSpec) -> LinearCode:
    """Information-locality code from a [k+d-1, k, d] evaluation base.

    The base's systematic form is (I | P) with d-1 parity columns.  The first
    parity column is split: each block I_{i,j} gets its own parity coordinate
    carrying P[:,0] restricted to the block.  Columns P[:,1..d-2] stay global.
    Layout: information coordinates 0..k-1, then one parity per block
    (class-major, block order), then the d-2 global parities.

    Length k + sum_i ceil(k_i/r_i) + d - 2; distance stays d; information
    coordinates of class i (and the block parities) have locality <= r_i.
    Row-reducing the base is charged k^2 (k+d-1) units against the
    enumeration budget before it is built; BudgetError when over.
    """
    F = field_from_order(spec.q)
    k, d = spec.k, spec.d
    if spec.q < k + d - 1:
        raise PreconditionError(
            f"field size {spec.q} too small for a [{k + d - 1}, {k}] "
            f"evaluation base (needs q >= k+d-1)"
        )
    units = k * k * (k + d - 1)  # one row reduction of the base
    budget = resolve_budget()
    if units > budget:
        raise BudgetError(
            f"pyramid construction needs {units} units for the "
            f"{k} x {k + d - 1} base; budget is {budget}"
        )
    base = reed_solomon(F, k + d - 1, k)
    P = _systematic_generator(base)[:, k:]  # k x (d-1), all entries nonzero
    G = np.zeros((k, spec.n), dtype=np.int64)
    G[:, :k] = np.eye(k, dtype=np.int64)
    col, off = k, 0
    for k_i, r_i in spec.dims:
        for start in range(off, off + k_i, r_i):
            block = slice(start, min(start + r_i, off + k_i))
            G[block, col] = P[block, 0]
            col += 1
        off += k_i
    G[:, col:] = P[:, 1:]
    return LinearCode(F, G)


def pyramid_profile(spec: PyramidSpec) -> LocalityProfile:
    """Locality classes of the constructed code: class i holds its information
    coordinates plus its block-parity coordinates (n_i = k_i + kappa_i).  The
    d-2 global parities belong to no class (information locality only), so the
    profile does not cover the last d-2 coordinates."""
    classes = []
    off, col = 0, spec.k
    for (k_i, r_i), kappa in zip(spec.dims, spec.kappas):
        coords = (*range(off, off + k_i), *range(col, col + kappa))
        classes.append(LocalityClass(r_i, coords))
        off, col = off + k_i, col + kappa
    return LocalityProfile(tuple(classes))


def pyramid_bound_shape(spec: PyramidSpec) -> tuple[tuple[int, int], ...]:
    """Information-symbol size accounting used for optimality checks: class i
    counts its information plus block-parity coordinates, n_i = k_i + kappa_i
    = ceil(k_i*(r_i+1)/r_i).  The d-2 shared parities belong to no class and
    are charged only to the total length."""
    return tuple(
        (k_i + kappa, r_i) for (k_i, r_i), kappa in zip(spec.dims, spec.kappas)
    )


# ---------------------------------------------------------------------------
# generalized concatenation
# ---------------------------------------------------------------------------


def _ext_degree(base: FiniteField, outer: FiniteField) -> int:
    """Extension degree of the outer field over the base field (1 if equal)."""
    if outer == base:
        return 1
    if base.m == 1 and outer.p == base.p and outer.m > 1:
        return outer.m
    raise PreconditionError(
        "outer field must equal the base field or be an extension of a prime "
        f"base field; got outer {outer!r} over base {base!r}"
    )


@dataclass(frozen=True)
class GccLevel:
    """One concatenation level: outer code over GF(q^l), its multiplicity, and
    the lambda*l rows of the inner chain this level's symbols multiply."""

    outer: LinearCode
    multiplicity: int
    band: MatrixGF


@dataclass(frozen=True)
class GccSpec:
    """Nested-inner-code concatenation data.

    The inner chain is defined by the bands: B_i is spanned by the stacked
    bands of levels i..s, so B_1 > B_2 > ... > B_s is nested by construction
    and the stacked bands must have full row rank (exact dimension drops
    k_{B_i} - k_{B_{i+1}} = lambda_i * l_i).  All outer codes share one length
    N; all bands share one length n_b over the base field.
    """

    base_field: FiniteField
    levels: tuple[GccLevel, ...]

    def __post_init__(self):
        if not self.levels:
            raise PreconditionError("at least one level is required")
        N = self.levels[0].outer.n
        n_b = self.levels[0].band.ncols
        for i, lvl in enumerate(self.levels, start=1):
            if lvl.multiplicity < 1:
                raise PreconditionError(
                    f"level {i}: multiplicity must be >= 1, got {lvl.multiplicity}"
                )
            if lvl.outer.n != N:
                raise PreconditionError(
                    f"level {i}: outer length {lvl.outer.n} != {N}; all outer "
                    "codes must share one length"
                )
            if lvl.band.field != self.base_field:
                raise PreconditionError(
                    f"level {i}: band must be over the base field"
                )
            if lvl.band.ncols != n_b:
                raise PreconditionError(
                    f"level {i}: band length {lvl.band.ncols} != {n_b}; all "
                    "bands must share one length"
                )
            ell = _ext_degree(self.base_field, lvl.outer.field)
            if lvl.band.nrows != lvl.multiplicity * ell:
                raise PreconditionError(
                    f"level {i}: band has {lvl.band.nrows} rows, expected "
                    f"multiplicity*degree = {lvl.multiplicity}*{ell}"
                )
        stacked = np.vstack([lvl.band.a for lvl in self.levels])
        M = MatrixGF(self.base_field, stacked)
        R, piv = mat_rref(M)
        if len(piv) != stacked.shape[0]:
            raise PreconditionError(
                "stacked bands are rank-deficient; the inner chain does not "
                "have exact dimension drops"
            )

    @property
    def s(self) -> int:
        return len(self.levels)

    @property
    def N(self) -> int:
        return self.levels[0].outer.n

    @property
    def n_b(self) -> int:
        return self.levels[0].band.ncols

    @property
    def n(self) -> int:
        return self.N * self.n_b

    @property
    def ells(self) -> tuple[int, ...]:
        return tuple(
            _ext_degree(self.base_field, lvl.outer.field) for lvl in self.levels
        )

    @property
    def k(self) -> int:
        return sum(
            lvl.outer.k * lvl.multiplicity * ell
            for lvl, ell in zip(self.levels, self.ells)
        )

    def inner_chain(self) -> tuple[LinearCode, ...]:
        """B_1, ..., B_s: B_i is spanned by the bands of levels i..s."""
        out = []
        for i in range(self.s):
            stacked = np.vstack([lvl.band.a for lvl in self.levels[i:]])
            out.append(LinearCode(self.base_field, stacked))
        return tuple(out)


def gcc_generator(spec: GccSpec) -> LinearCode:
    """Generator of the concatenated code, assembled by encoder semantics.

    Rows are indexed by (level i, copy t < lambda_i, outer row u < k_i, basis
    exponent b < l_i), in that nesting order.  The row's block at outer
    position j is the coefficient vector of x^b * G_{A_i}[u, j] (length l_i
    over the base field, polynomial basis 1, x, ..., x^{l_i-1}) multiplied
    into the t-th l_i-row band slice.  Column blocks are laid out j-major:
    outer position j occupies columns j*n_b .. (j+1)*n_b - 1.
    """
    F = spec.base_field
    rows = []
    for lvl, ell in zip(spec.levels, spec.ells):
        Fo = lvl.outer.field
        GA = lvl.outer.G.a
        for t in range(lvl.multiplicity):
            band_t = MatrixGF(F, lvl.band.a[t * ell : (t + 1) * ell, :])
            for u in range(lvl.outer.k):
                for b in range(ell):
                    if ell == 1:
                        digs = GA[u][:, None]
                    else:
                        beta = Fo.p**b  # encoding of x^b
                        digs = Fo.coeffs(Fo.mul(beta, GA[u]))
                    block = MatrixGF(F, digs) @ band_t  # N x n_b
                    rows.append(block.a.reshape(-1))
    return LinearCode(F, np.array(rows, dtype=np.int64))


# ---------------------------------------------------------------------------
# the binary two-level family
# ---------------------------------------------------------------------------


def construction2_parameters(r: int, j: int) -> tuple[int, int, int]:
    """Stated parameter triple of the binary two-level family:
    [(r+1)(2^{r-1}+1-j), r(2^{r-1}-r+2-j)-1, 2(r+1)].

    Valid for r >= 2 and 0 <= j <= 2^{r-1}-r (outer dimension stays >= 1).
    """
    if r < 2:
        raise PreconditionError(f"locality must be >= 2, got {r}")
    q1 = 2 ** (r - 1)
    if not 0 <= j <= q1 - r:
        raise PreconditionError(
            f"j must be in [0, {q1 - r}] for r = {r}, got {j}"
        )
    return ((r + 1) * (q1 + 1 - j), r * (q1 - r + 2 - j) - 1, 2 * (r + 1))


def construction2_gcc_spec(r: int, j: int) -> GccSpec:
    """Component data of the binary two-level family.

    Level 1: [2^{r-1}+1-j, 2^{r-1}-r+1-j, r+1] extended evaluation code over
    GF(2^{r-1}) (all field points plus the x^{k-1} column; for j > 0 the
    extension column is shortened first, then the trailing points), multiplied
    into the rows [e_i | 1], i = 1..r-1.  Level 2: the [2^{r-1}+1-j,
    2^{r-1}-j, 2] single-parity-check code multiplied into the all-ones row.

    The stacked rows span the length-(r+1) single-parity-check space exactly
    when r is odd (the all-ones word has even weight).  For even r the
    all-ones row falls outside it, the inner-distance premise degrades, and
    the assembled code misses the stated distance target 2(r+1); the spec
    still validates (the stack keeps full rank) and the true parameters are
    reported by the returned code itself.
    """
    construction2_parameters(r, j)  # range validation
    q1 = 2 ** (r - 1)
    F2 = field_new(2)
    Fo = field_new(2, r - 1) if r >= 3 else F2
    A1 = extended_rs(Fo, q1 - r + 1)
    for _ in range(j):
        A1 = A1.shorten(A1.n - 1)
    m2 = q1 - j
    GA2 = np.hstack(
        [np.eye(m2, dtype=np.int64), np.ones((m2, 1), dtype=np.int64)]
    )
    A2 = LinearCode(F2, GA2)
    band1 = np.zeros((r - 1, r + 1), dtype=np.int64)
    for i in range(r - 1):
        band1[i, i] = 1
        band1[i, r] = 1
    band2 = np.ones((1, r + 1), dtype=np.int64)
    return GccSpec(
        F2,
        (
            GccLevel(A1, 1, MatrixGF(F2, band1)),
            GccLevel(A2, 1, MatrixGF(F2, band2)),
        ),
    )


def construction2_binary_lrc(r: int, j: int) -> LinearCode:
    """Binary r-local code of the two-level family; see construction2_gcc_spec
    for the components and the even-r distance caveat."""
    return gcc_generator(construction2_gcc_spec(r, j))


# ---------------------------------------------------------------------------
# coordinate sets for dimension-bound certificates
# ---------------------------------------------------------------------------


def entropy_set(cls: LocalityClass, repair_sets, t: int) -> tuple[int, ...]:
    """Greedy coordinate set I inside one locality class with bounded rank.

    Level m (m = 0..t-1) picks the smallest coordinate a_m outside the set so
    far, adds it with its repair helpers, then pads with the smallest unused
    class coordinates up to min((m+1)(r+1), n_i).  Each level adds one
    coordinate whose value is determined by the others, so
    rank(G_I) <= |I| - t;  |I| = t(r+1) whenever t(r+1) <= n_i, else n_i.

    repair_sets: mapping coordinate -> RepairSet (or an iterable of
    RepairSets); every class coordinate needs one, with helpers inside the
    class and at most r_i of them.  Entries for other coordinates are ignored.
    """
    coords = set(cls.coordinates)
    r = cls.locality
    n_i = len(coords)
    if isinstance(repair_sets, dict):
        items = repair_sets.items()
    else:
        items = [(rs.target, rs) for rs in repair_sets]
    rs: dict[int, RepairSet] = {}
    for key, val in items:
        if key not in coords:
            continue
        if val is None:
            continue
        if not isinstance(val, RepairSet) or val.target != key:
            raise PreconditionError(
                f"repair set for coordinate {key} must be a RepairSet "
                "targeting it"
            )
        rs[key] = val
    missing = sorted(coords - set(rs))
    if missing:
        raise PreconditionError(
            f"coordinates {missing} have no repair set within their class"
        )
    for val in rs.values():
        if not set(val.helpers) <= coords:
            raise PreconditionError(
                f"repair set for {val.target} uses helpers outside the class"
            )
        if len(val.helpers) > r:
            raise PreconditionError(
                f"repair set for {val.target} has {len(val.helpers)} helpers; "
                f"class locality is {r}"
            )
    t_max = -(-n_i // (r + 1))
    if not 1 <= t <= t_max:
        raise PreconditionError(f"t must be in [1, {t_max}], got {t}")
    chosen: set[int] = set()
    for m in range(t):
        anchor = min(coords - chosen)
        chosen.add(anchor)
        chosen |= set(rs[anchor].helpers)
        cap = min((m + 1) * (r + 1), n_i)
        if len(chosen) < cap:
            pad = sorted(coords - chosen)[: cap - len(chosen)]
            chosen |= set(pad)
    return tuple(sorted(chosen))


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[([a-z0-9]+)(?:\s+(\d+))?\]$")


def _read_sections(path) -> list[tuple[str, int | None, list[str]]]:
    raw = _read_ascii(path).split("\n")
    sections: list[tuple[str, int | None, list[str]]] = []
    for ln in raw:
        line = ln.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            try:
                idx = int(m.group(2)) if m.group(2) else None
            except ValueError as exc:  # more digits than int() converts
                raise ParseError(f"{path}: malformed section header: {exc}") from exc
            sections.append((m.group(1), idx, []))
        elif not sections:
            raise ParseError(
                f"{path}: content before the first section header: {line!r}"
            )
        else:
            sections[-1][2].append(line)
    if not sections:
        raise ParseError(f"{path}: empty spec file")
    return sections


def _kv(lines: list[str], where: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for ln in lines:
        if "=" not in ln:
            raise ParseError(f"{where}: expected key=value, got {ln!r}")
        key, val = ln.split("=", 1)
        key, val = key.strip(), val.strip()
        if key in out:
            raise ParseError(f"{where}: duplicate key {key!r}")
        out[key] = val
    return out


def _kv_int(kv: dict[str, str], key: str, where: str) -> int:
    if key not in kv:
        raise ParseError(f"{where}: missing required key {key!r}")
    try:
        return int(kv[key])
    except ValueError as exc:
        raise ParseError(f"{where}: key {key!r} must be an integer") from exc


def _base_field_from_kv(kv: dict[str, str], where: str) -> FiniteField:
    q = _kv_int(kv, "q", where)
    p = m = None
    if "p" in kv or "m" in kv:
        p = _kv_int(kv, "p", where) if "p" in kv else q
        m = _kv_int(kv, "m", where) if "m" in kv else 1
    return _field_from_header(q, p, m, kv.get("modulus"), where)


def save_gcc_spec(spec: GccSpec, path) -> None:
    """Write a concatenation spec file: a [gcc] header section, then one
    [outer i] (code text) and one [band i] (integer rows) per level."""
    F = spec.base_field
    lines = ["[gcc]", f"q={F.q}"]
    if F.m >= 2:
        lines.append(f"p={F.p}")
        lines.append(f"m={F.m}")
        lines.append("modulus=" + ",".join(str(c) for c in F.modulus))
    lines.append(f"levels={spec.s}")
    lines.append(
        "multiplicities=" + ",".join(str(l.multiplicity) for l in spec.levels)
    )
    for i, lvl in enumerate(spec.levels, start=1):
        lines.append("")
        lines.append(f"[outer {i}]")
        lines.extend(code_to_lines(lvl.outer))
        lines.append("")
        lines.append(f"[band {i}]")
        for row in lvl.band.tolist():
            lines.append(" ".join(str(v) for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_gcc_spec(path) -> GccSpec:
    """Parse a concatenation spec file (see save_gcc_spec for the layout)."""
    sections = _read_sections(path)
    name, idx, lines = sections[0]
    if name != "gcc" or idx is not None:
        raise ParseError(f"{path}: first section must be [gcc]")
    kv = _kv(lines, f"{path} [gcc]")
    unknown = set(kv) - {"q", "p", "m", "modulus", "levels", "multiplicities"}
    if unknown:
        raise ParseError(f"{path} [gcc]: unknown keys {sorted(unknown)}")
    base = _base_field_from_kv(kv, f"{path} [gcc]")
    levels = _kv_int(kv, "levels", f"{path} [gcc]")
    if levels < 1:
        raise ParseError(f"{path} [gcc]: levels must be >= 1")
    if "multiplicities" not in kv:
        raise ParseError(f"{path} [gcc]: missing required key 'multiplicities'")
    try:
        mults = tuple(int(v) for v in kv["multiplicities"].split(","))
    except ValueError as exc:
        raise ParseError(f"{path} [gcc]: malformed multiplicities") from exc
    if len(mults) != levels:
        raise ParseError(
            f"{path} [gcc]: expected {levels} multiplicities, got {len(mults)}"
        )
    outers: dict[int, LinearCode] = {}
    bands: dict[int, MatrixGF] = {}
    for name, idx, lines in sections[1:]:
        if name == "outer":
            if idx is None or idx in outers:
                raise ParseError(f"{path}: bad or repeated [outer] section")
            outers[idx] = code_from_lines(lines, f"{path} [outer {idx}]")
        elif name == "band":
            if idx is None or idx in bands:
                raise ParseError(f"{path}: bad or repeated [band] section")
            rows = []
            for ln in lines:
                try:
                    rows.append([int(v) for v in ln.split()])
                except ValueError as exc:
                    raise ParseError(
                        f"{path} [band {idx}]: non-integer entry in {ln!r}"
                    ) from exc
            if not rows or any(len(r) != len(rows[0]) for r in rows):
                raise ParseError(f"{path} [band {idx}]: ragged or empty rows")
            if any(not 0 <= v < base.q for r in rows for v in r):
                raise ParseError(f"{path} [band {idx}]: entry out of range [0, {base.q})")
            bands[idx] = MatrixGF(base, rows)
        else:
            raise ParseError(f"{path}: unknown section [{name}]")
    want = set(range(1, levels + 1))
    if set(outers) != want or set(bands) != want:
        raise ParseError(
            f"{path}: need [outer i] and [band i] for each i in 1..{levels}"
        )
    try:
        return GccSpec(
            base,
            tuple(
                GccLevel(outers[i], mults[i - 1], bands[i])
                for i in range(1, levels + 1)
            ),
        )
    except PreconditionError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_pyramid_spec(spec: PyramidSpec, path) -> None:
    """Write a parity-splitting spec file: [pyramid] with q=, d=, classes=."""
    lines = [
        "[pyramid]",
        f"q={spec.q}",
        f"d={spec.d}",
        "classes=" + format_profile_shape(spec.dims),
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_pyramid_spec(path) -> PyramidSpec:
    """Parse a parity-splitting spec file (see save_pyramid_spec)."""
    sections = _read_sections(path)
    if len(sections) != 1 or sections[0][0] != "pyramid" or sections[0][1] is not None:
        raise ParseError(f"{path}: expected a single [pyramid] section")
    kv = _kv(sections[0][2], f"{path} [pyramid]")
    unknown = set(kv) - {"q", "d", "classes"}
    if unknown:
        raise ParseError(f"{path} [pyramid]: unknown keys {sorted(unknown)}")
    q = _kv_int(kv, "q", f"{path} [pyramid]")
    d = _kv_int(kv, "d", f"{path} [pyramid]")
    if "classes" not in kv:
        raise ParseError(f"{path} [pyramid]: missing required key 'classes'")
    dims = parse_profile_shape(kv["classes"])
    try:
        return PyramidSpec(q, d, dims)
    except PreconditionError as exc:
        raise ParseError(f"{path}: {exc}") from exc
