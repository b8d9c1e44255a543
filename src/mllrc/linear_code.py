"""Linear codes over GF(p^m) with exhaustive, exact code-level primitives.

Everything here is enumeration-based and exact: minimum distance, coordinate
locality, repair-set witnesses.  Enumerations are bounded by a hard budget
(number of vectors touched); exceeding it raises BudgetError rather than
falling back to any approximation.  Coordinates are 0-based throughout the
library API (the CLI layer presents them 1-based).

Every enumeration runs on the kernel in mllrc.kernel: split tables weigh
every word of a row space (the MacWilliams route), and Brouwer-Zimmermann
levels visit words lightest-first, one walk (kernel._BZWalk) shared by the
distance and the locality dual scan.

Minimum distance: a code whose q^k words fit one low codebook
(kernel._LOW_WORDS) and the budget, in at most 2^18 cells (q^k n, a 2 MiB
block of int64), is read as one block of all its words
(kernel._all_words), before any information set.  Any other code takes one
of two routes.  Brouwer-Zimmermann takes disjoint information sets greedily
in column order (_information_sets); set j has rank r_j and a generator that
is [I; 0] on its columns.  Level w enumerates, on a set, the messages of
weight w whose first nonzero entry is 1 (_MessageLevels); once every set has
had its levels up to w_j, each unseen codeword weighs at least
sum_j max(0, w_j + 1 - (k - r_j)), and the least weight found is d as soon
as that bound reaches it.  Level 1 is the rows of the sets' generators and
costs nothing.  The plan of the later levels (_bz_plan) is charged against
the budget before any is enumerated, with the least weight of those rows as
the target; when it does not fit, the MacWilliams route (the weight
distribution of the q^(n-k) dual words) runs if those fit, and otherwise
BudgetError ("minimum distance of <code> needs <q^(n-k)> dual words or
<plan> information-set words; budget is <b>") is raised before any level.
Before each level, MacWilliams also takes over when its words fit the
budget and number fewer than _DUAL_WORDS_PER_WORD times the level's words.
A code whose q^k words fit the budget is never refused: the plan never
exceeds the first set alone.

Locality has a second route, span search: coordinate t has locality s when
s is the least size of a set S of other allowed coordinates whose generator
columns span column t.  Such an S is independent, so its coefficients are
unique and nonzero, and its first s - 1 columns P do not span g_t.  Level s
row-reduces [G_P | G] once per (s-1)-subset P, pivoting on P's columns only,
and P + (j,) spans g_t iff the residuals of g_j and g_t below P's pivots
match once scaled to a leading 1.  The first P in combinations order with a
match, with its least j, is the lexicographically least such S
(_span_level); level 1 is the same lookup on the empty prefix.
LinearCode._locality_scan predicts each level's cost as (open targets) x
C(|support| - 1, s) tests of k(s+1) units, charged against the same budget,
and hands the open targets to the dual scan when its q^dim words fit the
budget and number fewer than _WORDS_PER_UNIT times the level's units, or
when the level does not fit.  The dual scan is charged its nominal q^dim
words, but when those exceed one low codebook it visits them in
Brouwer-Zimmermann order over information sets of the kernel, and stops
once no unseen word can lower an open bound (LinearCode._dual_support_scan).
Locality is refused only when both routes are over the budget.  Every
locality answer goes through LinearCode._repairs, which keeps the exact
results (localities and witnesses together) on the code.  Both routes
take as witness the lexicographically least S.  The dual scan reads S off
the minimum-weight dual words h through t (their nonzero positions other
than t), with c_j = -h_j / h_t: two such words scaled to h_t = 1 with one
S differ by a word z inside S, and z != 0 would give h - cz, zero at a
helper and 1 at t, a lighter word.  So S fixes the coefficients, and the
scan keeps per target the word of least support (these supports have one
size and hold t, so that is the least S).
"""

from __future__ import annotations

import re
from math import comb

import numpy as np

from . import kernel
from .errors import BudgetError, ParseError, PreconditionError
from .galois import (
    FiniteField,
    MatrixGF,
    _kernel_basis,
    _pivot_step,
    _rref,
    field_from_order,
    field_new,
    mat_kernel,
    mat_rank,
)
from .profiles import (  # re-exported: part of this module's API
    LocalityClass, LocalityProfile, RepairSet, _normalize_shape,
    _profile_from_localities, format_profile_shape, parse_profile_shape,
)

__all__ = [
    "DEFAULT_BUDGET",
    "LinearCode",
    "LocalityClass",
    "LocalityProfile",
    "RepairSet",
    "code_from_lines",
    "code_from_parity_check",
    "code_to_lines",
    "format_profile_shape",
    "load_code",
    "parse_profile_shape",
    "resolve_budget",
    "save_code",
]

DEFAULT_BUDGET = 10**8
# Dual-scan words that cost as much as one span-test unit (one entry of a
# k x (s+1) rank test), for the route choice in LinearCode._locality_scan.
# Timed on the perfbench corpus (2-core x86-64, Python 3.11, numpy 2.4): a
# dual-scan word takes 3.6-5.4 ns on [12,6]_13, [11,5]_13 and [15,10]_16 and
# 2.0 ns on [45,23]_2 (packed, 10-11 ns unpacked); span search 8-33 ns a
# predicted unit on [12,6]_13, [15,8]_16 and [20,8]_2.  16 is kept on purpose
# so that no route or refusal edge moves.
_WORDS_PER_UNIT = 16
# MacWilliams (split-table) dual words that cost as much as one
# Brouwer-Zimmermann word, for the route choice in LinearCode._distance_scan
# only.  Timed on the same host in two runs: a BZ word took 30-32 ns on
# [45,23]_2 (bit-packed), 50-67 ns on [15,8]_16, 74-84 ns on [12,6]_13 and
# 200-266 ns on [102,64]_2 (too long to pack); a MacWilliams dual word 8-11 ns
# on [15,10]_16 and [12,6]_13 and, packed, 2.8-3.0 ns on [45,23]_2 (9-13 ns
# unpacked).  So a BZ word costs 2 to 11 dual words; 5 is kept on purpose so
# that no route or refusal edge moves.
_DUAL_WORDS_PER_WORD = 5


def resolve_budget(budget: int | None = None) -> int:
    """Explicit argument, else 10^8."""
    if budget is None:
        return DEFAULT_BUDGET
    budget = int(budget)
    if budget <= 0:
        raise PreconditionError(f"enumeration budget must be positive, got {budget}")
    return budget



# ---------------------------------------------------------------------------
# the code object
# ---------------------------------------------------------------------------


class LinearCode:
    """[n, k] linear code over GF(p^m), held as a full-rank generator matrix."""

    def __init__(self, field: FiniteField, G):
        Gm = G if isinstance(G, MatrixGF) else MatrixGF(field, G)
        if Gm.field != field:
            raise PreconditionError("generator field mismatch")
        if Gm.nrows < 1 or Gm.ncols < 1:
            raise PreconditionError("code needs k >= 1 and n >= 1")
        if Gm.nrows > Gm.ncols:
            raise PreconditionError("generator has more rows than columns")
        R, piv = _rref(field, Gm.a)
        if len(piv) != Gm.nrows:
            raise PreconditionError("generator matrix must have full row rank")
        R.setflags(write=False)
        self.field = field
        self.G = Gm
        self._reduced = (R, piv)  # G's RREF and pivots, read wherever G is reduced as is
        self._H: MatrixGF | None = None
        self._d: int | None = None
        # support -> {target: (locality or None, witness or None)}, exact
        # results of _repairs; a witness of None with a locality was not asked
        self._repairs_done: dict[tuple[int, ...], dict] = {}

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
            self._H = MatrixGF(self.field, _kernel_basis(self.field, *self._reduced))
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

    # -- distance --------------------------------------------------------------

    def min_distance(self, budget: int | None = None) -> int:
        """Exact minimum nonzero codeword weight (cached once computed)."""
        if self._d is not None:
            return self._d
        self._d = self._distance_scan(resolve_budget(budget))
        return self._d

    def _distance_scan(self, b: int) -> int:
        """Exact distance under budget b: one listing, Brouwer-Zimmermann or
        MacWilliams, by the rules of the module docstring."""
        k, q = self.k, self.q
        if q**k <= min(kernel._LOW_WORDS, b) and q**k * self.n <= kernel._LOW_WORDS << 6:
            return int(kernel._all_words(self.field, self.G.a)[0].min())
        dual_words = q ** (self.n - k)
        ranks, gens, best = [], [], self.n
        for r, G in kernel._information_sets(self.field, self.G.a, self._reduced):
            ranks.append(r)
            gens.append(G)
            best = min(best, int(np.count_nonzero(G, axis=1).min()))
            if kernel._bz_bound(k, ranks, [1] * len(ranks)) >= best:
                return best  # the rows prove d; later sets are not needed
        words, levels = kernel._bz_plan(k, q, ranks, best)
        if words > b:
            if dual_words > b:
                raise BudgetError(
                    f"minimum distance of {self!r} needs {dual_words} dual words "
                    f"or {words} information-set words; budget is {b}"
                )
            return self._distance_via_dual()
        walk = kernel._BZWalk(self.field, gens, ranks, kernel._MessageLevels.weights)
        for w, steps, level in levels:
            if dual_words <= b and dual_words < level * _DUAL_WORDS_PER_WORD:
                return self._distance_via_dual()
            for bound, weights in walk.level(w, steps):
                if weights is not None:
                    best = min(best, int(weights.min()))
                if best <= bound:  # no unseen word is lighter
                    return best
        return best  # the plan ran out: the first best is proved, or all seen

    def _weight_counts(self, G: np.ndarray) -> list[int]:
        """Number of words of each weight 0..n in the row space of G."""
        counts = np.zeros(self.n + 1, dtype=np.int64)
        counts[0] = 1  # zero word
        for weights in kernel._SplitTable(self.field, G).weights():
            counts += np.bincount(weights, minlength=self.n + 1)
        return counts.tolist()

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

    # -- shortening ---------------------------------------------------------------

    def shorten(self, *at: int) -> "LinearCode":
        """Codewords with c_i = 0 for each i in at, those coordinates deleted
        ([n-t, k-t, >= d] for t positions; self for none).  One elimination,
        highest position first: each step clears column i outside its first
        nonzero row not yet a pivot; pivot rows and columns are deleted at the
        end, so the generator is that of single-position calls, highest first.
        A column zero outside the pivot rows (a repeated position's, too)
        cannot be shortened, as k would not drop; that error, like the one for
        emptying the code, names the position as .at.
        """
        order = sorted(at, reverse=True)
        for i in order:
            if not 0 <= i < self.n:
                raise PreconditionError(f"coordinate {i} out of range [0, {self.n})")
        if not at:
            return self
        A, free = self.G.a.copy(), np.ones(self.k, dtype=bool)
        for t, i in enumerate(order):
            nz = np.flatnonzero((A[:, i] != 0) & free)
            if nz.size == 0 or t == self.k - 1:
                err = PreconditionError(
                    "shortening a dimension-1 code would empty it" if nz.size else
                    "the generator column is identically zero; shortening would "
                    "not reduce the dimension"
                )
                err.at = i
                raise err
            _pivot_step(self.field, A, (nz[0],), i)
            free[nz[0]] = False
        return LinearCode(self.field, np.delete(A[free], order, axis=1))

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
        K: np.ndarray,
        want_witnesses: bool,
    ) -> dict[int, tuple[int | None, RepairSet | None]]:
        """Min weight of dual words supported within `support` through each target.

        Enumerates K, a basis of the kernel of G restricted to `support`
        (exactly the dual words vanishing outside it).  Bounds start at the
        lightest basis row through each target (no row: no word), and a
        chunk lowers them only from its words lighter than the largest open
        bound.  A K whose q^dim words fit one low codebook is read as one
        block of all its nonzero words (kernel._all_words).  Otherwise the
        rows are those of K's information sets, and the words come
        lightest-first in Brouwer-Zimmermann order (kernel._BZWalk); the
        walk stops once no unseen word can weigh less than the largest open
        bound (with witnesses: as little as it).  Witnesses come from the
        least-support word per target that weighs its current bound, kept
        until the bound falls; a minimum-weight word sets the bound when
        seen, so that word gives the least helper set (module docstring).
        """
        F, m, dim = self.field, len(support), K.shape[0]
        t_pos = np.searchsorted(support, targets)  # support is ascending
        gens, ranks = [K], []
        if dim > kernel._low_rows(F.q, dim):
            ranks, gens = zip(*kernel._information_sets(F, K))
        basis = np.concatenate(gens)
        through = basis[:, t_pos] != 0
        # per target: the least weight of a word through it (m + 1: none)
        bound = np.where(through, np.count_nonzero(basis, axis=1)[:, None], m + 1)
        bound = bound.min(axis=0, initial=m + 1)
        open_ = through.any(axis=0)

        def chunks(best):
            """(bound, weights, block) over the dual words, where no word of
            this chunk or a later one weighs less than bound; a walk step's
            end is (bound, None, None)."""
            if not ranks:
                yield (0,) + kernel._all_words(F, K)
                return
            walk = kernel._BZWalk(F, gens, ranks, kernel._MessageLevels.words)
            for j in range(len(gens)):
                yield from ((0, *c) for c in walk.set(j).words(1))
            for w, steps, _ in kernel._bz_plan(dim, F.q, ranks, best)[1]:
                for at_least, chunk in walk.level(w, steps):
                    yield (at_least,) + (chunk or (None, None))

        extra = int(want_witnesses)  # plan and walk one weight further
        least: dict[int, tuple] = {}  # per target: (support, word) least at its bound
        if open_.any():
            top = int(bound[open_].max())
            for at_least, weights, block in chunks(top + extra):
                if at_least >= top + extra:
                    break  # every word that can lower (or witness) an open bound is seen
                if weights is None:
                    continue
                if weights.min() < top:
                    sel = np.flatnonzero(weights < top)
                    lower = np.minimum(bound, kernel._lightest(block, weights, sel, t_pos, m + 1))
                    for a in np.flatnonzero(lower < bound).tolist():
                        least.pop(a, None)  # its kept word is heavier than its bound now
                    bound, top = lower, int(lower[open_].max())
                if not extra or weights.min() > top:
                    continue  # no word of this chunk weighs an open bound
                cand = np.flatnonzero(np.isin(weights, bound[open_]))
                H = kernel._word(block, cand, m)
                hit = (H[:, t_pos] != 0) & (weights[cand, None] == bound) & open_
                for r in np.flatnonzero(hit.any(axis=1)).tolist():
                    supp = np.flatnonzero(H[r]).tolist()
                    for a in np.flatnonzero(hit[r]).tolist():
                        if a not in least or supp < least[a][0]:
                            least[a] = (supp, H[r])
        out = {t: (int(w) if w <= m else None, None) for t, w in zip(targets, bound)}
        for a, (supp, h) in least.items():
            t, tp = targets[a], int(t_pos[a])
            S = [j for j in supp if j != tp]
            c = F.neg(F.mul(h[S], F.inv(int(h[tp]))))  # c_j = -h_j / h_t
            out[t] = (out[t][0], RepairSet(t, tuple(support[j] for j in S), tuple(c.tolist())))
        return out

    def _repairs(
        self,
        support: tuple[int, ...],
        targets: tuple[int, ...],
        budget: int | None,
        cap: int | None = None,
        witnesses: bool = True,
    ) -> dict[int, tuple[int | None, RepairSet | None]]:
        """Locality and witness of each target with helpers from `support`.

        (None, None) means no repair relation inside the support, or, under
        `cap`, none of size <= cap.  Witnesses have the least helper set (see
        the module docstring); with witnesses=False they may be None.
        Exact results are kept on the code, so a profile and its witnesses
        come from one scan.
        """
        done = self._repairs_done.setdefault(support, {})
        todo = tuple(
            t for t in targets
            if t not in done
            or (witnesses and done[t][0] is not None and done[t][1] is None)
        )
        if todo:
            done.update(self._locality_scan(support, todo, budget, cap, witnesses))
        out = {}
        for t in targets:
            loc, wit = done.get(t, (None, None))
            within = loc is not None and (cap is None or loc <= cap)
            out[t] = (loc, wit) if within else (None, None)
        return out

    def _locality_scan(self, support, targets, budget, cap, witnesses):
        """Exact (locality, witness) per target, by span search or dual scan.

        The support is ascending, so |support| = n means G's own columns,
        whose kept RREF is read.  Span search charges nothing for level 1.
        Before each level s >= 2 its cost is predicted as (open targets) x
        C(|support| - 1, s) rank tests of k(s+1) units each, charged against
        the budget.  The open targets go to the dual scan instead, charged
        its nominal q^dim words whatever order it visits them in, when those
        fit the budget and are predicted cheaper, or when the level does not
        fit; when neither fits, BudgetError.  Targets still open after level
        `cap` are left out of the result.  Every target column must be nonzero.
        """
        F, k = self.field, self.k
        b = resolve_budget(budget)
        m = len(support)
        R, piv = self._reduced if m == self.n else _rref(F, self.G.a[:, list(support)])
        A = R[: len(piv)]
        free = [j for j in range(m) if j not in piv]
        dual_words = F.q ** len(free)
        pos = {c: idx for idx, c in enumerate(support)}
        # no dual word is nonzero at a pivot column whose row vanishes on
        # every free column: such a target has no repair relation
        rel = {
            t: pos[t] in free or A[piv.index(pos[t]), free].any() for t in targets
        }
        out = {t: (None, None) for t in targets if not rel[t]}
        open_ = [pos[t] for t in targets if rel[t]]
        # level 1 is span search's lookup on the empty prefix: parallel columns
        found = kernel._first_matches(F, A[None], np.empty((1, 0), dtype=np.int64), open_)
        spent, s = 0, 1
        while True:
            for p, (S, coeffs) in found.items():
                t = support[p]
                helpers = tuple(support[j] for j in S)
                out[t] = (s, RepairSet(t, helpers, tuple(int(c) for c in coeffs)))
            open_ = [p for p in open_ if p not in found]
            s += 1
            if not open_ or (cap is not None and s > cap):
                return out
            level = len(open_) * comb(m - 1, s) * k * (s + 1)
            span_fits = spent + level <= b
            if dual_words <= b and (
                not span_fits or dual_words < level * _WORDS_PER_UNIT
            ):
                break
            if not span_fits:
                raise BudgetError(
                    f"locality needs {dual_words} dual words or {spent + level} "
                    f"span-test units; budget is {b}"
                )
            spent += level
            found = kernel._span_level(F, A, open_, s)
        rest = tuple(support[p] for p in open_)
        K = _kernel_basis(F, A, piv)
        scan = self._dual_support_scan(support, rest, K, witnesses)
        out.update((t, (w - 1, wit)) for t, (w, wit) in scan.items())
        return out

    def _check_no_zero_column(self) -> None:
        zero_cols = np.flatnonzero(~self.G.a.any(axis=0)).tolist()
        if zero_cols:
            raise PreconditionError(
                f"coordinates {zero_cols} are identically zero; locality is undefined"
            )

    def locality_profile(
        self,
        mode: str = "loose",
        budget: int | None = None,
        *,
        keep_witnesses: bool = False,
    ) -> LocalityProfile:
        """Exact per-coordinate localities grouped into increasing classes.

        loose: helpers may come from anywhere (the detection default).
        strict: the loose partition re-scanned with helpers confined to each
        class; raises if the partition is not stable under that restriction.
        keep_witnesses: the same scan also finds the repair sets that
        verify_profile(profile, mode) then returns without scanning again.
        """
        if mode not in ("loose", "strict"):
            raise PreconditionError(f"unknown profile mode {mode!r}")
        self._check_no_zero_column()
        full = tuple(range(self.n))
        res = self._repairs(full, full, budget, witnesses=keep_witnesses)
        locs: dict[int, int] = {}
        for c in full:
            loc = res[c][0]
            if loc is None:
                raise PreconditionError(
                    f"coordinate {c} has no repair relation (no dual word through it)"
                )
            locs[c] = loc
        loose = _profile_from_localities(locs)
        if mode == "loose":
            return loose
        strict_locs: dict[int, int] = {}
        for cls in loose.classes:
            res = self._repairs(
                cls.coordinates, cls.coordinates, budget, witnesses=keep_witnesses
            )
            for c in cls.coordinates:
                loc = res[c][0]
                if loc is None:
                    raise PreconditionError(
                        f"coordinate {c} has no repair relation inside its class"
                    )
                strict_locs[c] = loc
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
        self._check_no_zero_column()
        witnesses: dict[int, RepairSet | None] = {}
        for cls in profile.classes:
            support = cls.coordinates if mode == "strict" else tuple(range(self.n))
            res = self._repairs(support, cls.coordinates, budget, cap=cls.locality)
            witnesses.update((c, res[c][1]) for c in cls.coordinates)
        return all(w is not None for w in witnesses.values()), witnesses


# ---------------------------------------------------------------------------
# construction from a parity-check matrix
# ---------------------------------------------------------------------------


def code_from_parity_check(field: FiniteField, H) -> LinearCode:
    Hm = H if isinstance(H, MatrixGF) else MatrixGF(field, H)
    if mat_rank(Hm) != Hm.nrows:
        raise PreconditionError("parity-check matrix must have full row rank")
    return LinearCode(field, mat_kernel(Hm))


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


def _field_from_header(q: int, p, m, modulus, where: str) -> FiniteField:
    """The field GF(q) that a file header names.

    p and m are the header's values, or None to factor q; modulus is the
    header's comma-separated modulus text, or None.  Every fault is a
    ParseError prefixed with `where`.
    """
    if modulus is not None:
        try:
            modulus = tuple(int(v) for v in modulus.split(","))
        except ValueError as exc:
            raise ParseError(f"{where}: malformed modulus") from exc
    if p is not None and (m > q.bit_length() or p**m != q):  # no field, or p^m > q: skip the power
        raise ParseError(f"{where}: q={q} is not p^m = {p}^{m}")
    try:
        return field_from_order(q, modulus) if p is None else field_new(p, m, modulus)
    except PreconditionError as exc:
        raise ParseError(f"{where}: {exc}") from exc


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
    try:
        q, p, m, n, k = (int(hd.group(i)) for i in range(1, 6))
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"{where}: malformed header line: {exc}") from exc
    body = lines[1:]
    modulus = None
    if body and body[0].startswith("modulus="):
        if m == 1:
            raise ParseError(f"{where}: modulus line present for a prime field")
        modulus, body = body[0][len("modulus="):], body[1:]
    field = _field_from_header(q, p, m, modulus, where)
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
    _write_lines(path, code_to_lines(code))


def _write_lines(path, lines) -> None:
    """Write lines to an ASCII text file, each ended by a newline: the one
    writer of code files, spec files and CLI --out files."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


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
