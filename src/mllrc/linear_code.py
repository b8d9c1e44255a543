"""Linear codes over GF(p^m) with exhaustive, exact code-level primitives.

Everything here is enumeration-based and exact: minimum distance, coordinate
locality, repair-set witnesses.  Enumerations are bounded by a hard budget
(number of vectors touched); exceeding it raises BudgetError rather than
falling back to any approximation.  Coordinates are 0-based throughout the
library API (the CLI layer presents them 1-based).

Every exhaustive pass (the dual weight distribution behind the MacWilliams
distance route, and the dual-word scans behind localities and repair-set
witnesses) runs on one split-table kernel, `_SplitTable`.  The first a
generator rows are encoded once into a low codebook of q^a words (a is the
largest value with q^a <= 2^12, clamped to [1, k]); high word b is the
combination of the remaining rows, and word (b, c) is low word c plus it.
Over GF(2) with n <= 64 words are uint64 bitmasks: a block is a batch of at
most 2^16 words, high[b:b+h, None] ^ low[None, :], weighed by
np.bitwise_count.  Otherwise a block is the codebook shifted by one high
word, and its zero pattern is the single comparison low == -high[b] on a
column-major uint8 table (uint16 when q > 256).  No block re-encodes
messages; actual codewords are rebuilt only for witness candidates.  The
budget charges the nominal q^dim words before a pass starts, and the zero
word is never visited.  A dual scan seeds each target's bound from the
basis rows and reduces only the words of a block lighter than the largest
bound still open.

Minimum distance has two routes.  Brouwer-Zimmermann takes disjoint
information sets greedily in column order (_information_sets); set j has
rank r_j and a generator that is [I; 0] on its columns.  Level w enumerates,
on a set, the messages of weight w whose first nonzero entry is 1
(_MessageLevels); once every set has had its levels up to w_j, each unseen
codeword weighs at least sum_j max(0, w_j + 1 - (k - r_j)), and the least
weight found is d as soon as that bound reaches it.  Level 1 is the rows of
the sets' generators and costs nothing.  The plan of the later levels
(_bz_plan) is charged against the budget before any is enumerated, with the
least weight of those rows as the target; when it does not fit, the
MacWilliams route (the weight distribution of the q^(n-k) dual words) runs
if those fit, and otherwise BudgetError ("minimum distance of <code> needs
<q^(n-k)> dual words or <plan> information-set words; budget is <b>") is
raised before any level.  Before each level, MacWilliams also takes over
when its words fit the budget and number fewer than _DUAL_WORDS_PER_WORD
times the level's words.  A code whose q^k words fit the budget is never
refused: the plan never exceeds the first set alone.

Locality has a second route, span search: coordinate t has locality s when
s is the least size of a set S of other allowed coordinates whose generator
columns span column t.  Such an S is independent, so its coefficients are
unique and nonzero, and its first s - 1 columns P do not span g_t.  Level s
row-reduces [G_P | G] once per (s-1)-subset P, pivoting on P's columns only,
and P + (j,) spans g_t iff the residuals of g_j and g_t below P's pivots
match once scaled to a leading 1.  The first P in combinations order with a
match, with its least j, is the dual scan's lexicographically least witness
(_span_level); level 1 is the same lookup on the empty prefix.
LinearCode._locality_scan predicts each level's cost as (open targets) x
C(|support| - 1, s) tests of k(s+1) units, charged against the same budget,
and hands the open targets to the dual scan when its q^dim words fit the
budget and number fewer than _WORDS_PER_UNIT times the level's units, or
when the level does not fit.
Locality is refused only when both routes are over the budget.  Every
locality answer goes through LinearCode._repairs, which keeps the exact
results (localities and witnesses together) on the code.
"""

from __future__ import annotations

import itertools
import re
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
    mat_kernel,
    mat_rank,
    mat_rref,
)
from .profiles import (  # re-exported: part of this module's API
    LocalityClass, LocalityProfile, RepairSet, _CheckedShape, _normalize_shape,
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
_LOW_WORDS = 1 << 12
# Span-search prefixes row-reduced together: enough to amortise the numpy
# calls, few enough that a chunk's (prefixes x k x (m+s-1)) stack stays small.
_SPAN_CHUNK = 64
# Dual-scan words that cost as much as one span-test unit (one entry of a
# k x (s+1) rank test), for the route choice in LinearCode._locality_scan.
# Timed on the perfbench corpus (2-core x86-64, Python 3.11, numpy 2.4): a
# dual-scan word takes 3.6-5.4 ns on [12,6]_13, [11,5]_13 and [15,10]_16 and
# 2.0 ns on [45,23]_2 (packed, 10-11 ns unpacked); span search 8-33 ns a
# predicted unit on [12,6]_13, [15,8]_16 and [20,8]_2.  16 is kept on purpose
# so that no route or refusal edge moves.
_WORDS_PER_UNIT = 16
# MacWilliams dual words that cost as much as one Brouwer-Zimmermann word,
# for the route choice in LinearCode._distance_scan.  Timed on the same host
# in two runs: a BZ word took 30-32 ns on [45,23]_2 (bit-packed), 50-67 ns on
# [15,8]_16, 74-84 ns on [12,6]_13 and 200-266 ns on [102,64]_2 (too long to
# pack); a MacWilliams dual word 8-11 ns on [15,10]_16 and [12,6]_13 and,
# packed, 2.8-3.0 ns on [45,23]_2 (9-13 ns unpacked).  So a BZ word costs 2
# to 11 dual words; 5 is kept on purpose so that no route or refusal edge moves.
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
# enumeration kernel
# ---------------------------------------------------------------------------


def _low_rows(q: int, k: int) -> int:
    """Rows in the low codebook: the largest a with q^a <= _LOW_WORDS, clamped
    to [1, k], so the codebook never exceeds max(q, _LOW_WORDS) words."""
    a = 1
    while a < k and q ** (a + 1) <= _LOW_WORDS:
        a += 1
    return a


def _packs(F: FiniteField, n: int) -> bool:
    """Whether words of length n over F pack into uint64 (numpy >= 2 weighs them)."""
    return F.q == 2 and n <= 64 and hasattr(np, "bitwise_count")


def _pack(G: np.ndarray) -> np.ndarray:
    """Each row of a 0/1 matrix as one uint64, bit j holding column j."""
    shifts = np.arange(G.shape[1], dtype=np.uint64)
    return np.bitwise_or.reduce(G.astype(np.uint64) << shifts, axis=1)


def _codebook(F: FiniteField, G: np.ndarray) -> np.ndarray:
    """All q^r words spanned by the r rows of G, one per row, in message order
    (digit i multiplies row i; digit 0 is least significant)."""
    n = G.shape[1]
    words = np.zeros((1, n), dtype=np.int64)
    for row in G:
        multiples = F.mul(F.elements()[:, None], row[None, :])
        words = F.add(multiples[:, None, :], words[None, :, :]).reshape(-1, n)
    return words


def _xor_codebook(rows: np.ndarray) -> np.ndarray:
    """_codebook over GF(2) on packed rows, by XOR doubling."""
    words = np.zeros(1, dtype=np.uint64)
    for row in rows:
        words = np.concatenate([words, words ^ row])
    return words


def _word_chunks(q: int, rows, codebook, add):
    """The words of codebook(rows) in the same order, in chunks of at most
    max(q, _LOW_WORDS) words, so memory stays bounded whatever the dimension;
    add(low, h) shifts a chunk by one word."""
    a = _low_rows(q, len(rows))
    low = codebook(rows[:a])
    if a >= len(rows):  # also the lone zero word of no rows
        yield low
        return
    for top in _word_chunks(q, rows[a:], codebook, add):
        for h in top:
            yield add(low, h)


class _SplitTable:
    """Exhaustive enumeration of a row space by split tables.

    The first a generator rows (a = _low_rows) are encoded once into a low
    codebook of q^a words; the other rows give q^(k-a) high words.  Word
    (b, c) is low word c plus high word b, message c + q^a * b: the order of
    counting messages with digit 0 least significant.  Over GF(2) with
    n <= 64 (_packs) words are uint64 bitmasks: a block is a batch of
    _LOW_WORDS * 16 words or one high word, whichever is more, built as
    high[b:b+h, None] ^ low[None, :] and weighed by np.bitwise_count.
    Otherwise a block is one high word: the codebook is held column-major as
    uint8 (uint16 when q > 256), and word (b, c) is nonzero at coordinate j
    exactly when low[c, j] != -high[b, j], so one comparison gives every
    zero pattern, with no per-block field arithmetic.  Actual words are
    rebuilt only on request (witnesses).
    """

    def __init__(self, F: FiniteField, G: np.ndarray):
        k, n = G.shape
        a = _low_rows(F.q, k)
        self.field, self.n = F, n
        self.packed = _packs(F, n)
        if self.packed:
            rows = _pack(G)
            self._low, self._high_rows = _xor_codebook(rows[:a]), rows[a:]
            self._bits = np.arange(n, dtype=np.uint64)
            return
        self._low = _codebook(F, G[:a])
        self._low_t = self._low.T.astype(np.uint8 if F.q <= 256 else np.uint16, order="C")
        self._neg_high_rows = F.neg(G[a:])
        # weights (and n + 1) fit in a byte for n < 255
        self._count_dtype = np.uint8 if n < 255 else np.int64

    def blocks(self):
        """Yield (first, weights, block) per block, skipping the zero word.

        The block's words are messages first, first + 1, ...; weights[i] is
        the weight of word i, and block is read by lightest and word."""
        first = 0
        if self.packed:
            span = max(1, (_LOW_WORDS << 4) // len(self._low))  # high words a batch
            for top in _word_chunks(2, self._high_rows, _xor_codebook, np.bitwise_xor):
                for at in range(0, len(top), span):
                    words = (top[at:at + span, None] ^ self._low).ravel()
                    skip = int(first == 0)  # message 0 is the zero word
                    yield first + skip, np.bitwise_count(words[skip:]), words[skip:]
                    first += len(words)
            return
        F = self.field
        for chunk in _word_chunks(F.q, self._neg_high_rows, lambda G: _codebook(F, G), F.add):
            for neg_high, nh in zip(chunk, chunk.astype(self._low_t.dtype)):
                skip = int(first == 0)
                ne = self._low_t[:, skip:] != nh[:, None]
                weights = ne.view(np.uint8).sum(axis=0, dtype=self._count_dtype)
                yield first + skip, weights, (skip, neg_high, ne)
                first += self._low_t.shape[1]

    def lightest(self, block, weights, sel, cols) -> np.ndarray:
        """Per coordinate cols[j], the least weight of a word among sel
        (nonempty) nonzero there, else n + 1.  Packed, the supports of each
        weight are ORed, so memory stays linear in len(sel)."""
        w = weights[sel]
        if not self.packed:
            return np.where(block[2][np.ix_(cols, sel)], w, self.n + 1).min(axis=1)
        order = np.argsort(w)
        w = w[order]
        starts = np.flatnonzero(np.r_[True, w[1:] != w[:-1]])
        # seen[g]: the coordinates where some word of weight <= w[starts[g]] is nonzero
        seen = np.bitwise_or.accumulate(np.bitwise_or.reduceat(block[sel][order], starts))
        hit = (seen[:, None] >> self._bits[cols]) & 1 != 0
        return np.where(hit.any(axis=0), w[starts][hit.argmax(axis=0)], self.n + 1)

    def word(self, block, i: int) -> np.ndarray:
        """Word i of the block, as an int64 vector."""
        if self.packed:
            return ((block[i] >> self._bits) & 1).astype(np.int64)
        skip, neg_high, _ = block
        return self.field.sub(self._low[skip + i], neg_high)


def _information_sets(F: FiniteField, G: np.ndarray):
    """Disjoint information sets of the row space of G, chosen greedily in
    column order, yielded as (rank r, generator) pairs.

    Set j is the RREF pivots among the columns no earlier set took.  Its
    generator is the RREF of G with those columns moved first (then the
    taken columns), so it shows [I_r; 0] on the set's columns: rows r.. vanish
    there.  Columns are reordered, which no weight depends on.  Ranks never
    increase from one set to the next."""
    rest, used = list(range(G.shape[1])), []
    while rest:
        R, piv = mat_rref(MatrixGF(F, G[:, rest + used]))
        chosen = {rest[p] for p in piv if p < len(rest)}
        if not chosen:  # only zero columns left
            return
        yield len(chosen), R.a
        used += sorted(chosen)
        rest = [c for c in rest if c not in chosen]


def _bz_bound(k: int, ranks, done) -> int:
    """Brouwer-Zimmermann lower bound on the weight of every codeword not yet
    seen, once set j has had all its messages of weight <= done[j]: such a
    word has a message of weight >= done[j] + 1 on set j, so at least
    done[j] + 1 - (k - r_j) nonzero coordinates on it, and the sets are
    disjoint."""
    return sum(max(0, w + 1 - (k - r)) for r, w in zip(ranks, done))


def _bz_plan(k: int, q: int, ranks, best: int):
    """The schedule of levels w >= 2 that proves d = best at the latest, as
    (total words, [(w, [(set, first level)], words), ...]).

    Level 1 (the rows of every set) is taken as done.  At level w each set
    whose bound grows there (w + 1 > k - r_j) enumerates its messages of
    weights first..w, where first is 2 for a set that joins at w; the level
    ends early once the bound reaches best, and level k of the first set has
    seen every word.  The plan uses the first m sets for the least m of
    least total, so it never costs more than the first set alone: at most
    (q^k - 1)/(q - 1) words.  A level's words are all its steps', even if it
    ends early."""
    plans = []
    for m in range(1, len(ranks) + 1):
        shorter = plans[-1][1] if plans else None
        if plans and (not shorter or shorter[-1][0] < max(2, k - ranks[m - 1])):
            break  # set m would join only after the shorter plan has ended
        done, levels = [1] * len(ranks), []

        def finished():
            return done[0] == k or _bz_bound(k, ranks, done) >= best

        while not finished():
            w = done[0] + 1
            steps = [(j, done[j] + 1) for j in range(m) if w + 1 > k - ranks[j]]
            # C(k, v) (q - 1)^(v - 1) messages of weight v lead with a 1
            words = sum(comb(k, v) * (q - 1) ** (v - 1)
                        for _, a in steps for v in range(a, w + 1))
            levels.append((w, steps, words))
            for j, _ in steps:
                done[j] = w
                if finished():
                    break
        plans.append((sum(words for *_, words in levels), levels))
    return min(plans, key=lambda plan: plan[0])


def _rechunk(pieces, size: int):
    """Regroup (words, last) array pieces into chunks of `size` rows (the
    last chunk may be shorter)."""
    words, lasts, have = [], [], 0
    for w, last in pieces:
        words.append(w)
        lasts.append(last)
        have += len(w)
        if have >= size:
            W, L = np.concatenate(words), np.concatenate(lasts)
            cut = have - have % size
            for at in range(0, cut, size):
                yield W[at:at + size], L[at:at + size]
            words, lasts, have = [W[cut:]], [L[cut:]], have - cut
    if have:
        yield np.concatenate(words), np.concatenate(lasts)


class _MessageLevels:
    """The words m.G of one generator, level by level: level w holds the
    messages m of weight w whose first nonzero entry is 1.

    Level w is built from the level-(w-1) words P whose last nonzero message
    entry is above row i, as P + c.g_i for every nonzero c.  Only weights are
    needed from the level asked for, so that step is a comparison: P + c.g_i
    is zero at j exactly when P_j == -c.g_ij, the split-table idiom.  Over
    GF(2) with n <= 64 a word is packed into a uint64, added by XOR and
    weighed by np.bitwise_count (numpy 2; older numpy takes the general
    path).  Levels are generated depth-first, _LOW_WORDS // (q - 1) words of
    the level below at a time (at least one), so a step makes at most
    max(q - 1, _LOW_WORDS) words and no level is held whole.
    """

    def __init__(self, F: FiniteField, G: np.ndarray):
        k, n = G.shape
        self.k = k
        self.row_weights = np.count_nonzero(G, axis=1)
        self.piece = max(1, _LOW_WORDS // (F.q - 1))  # P words per step
        if _packs(F, n):
            self.rows = _pack(G)
            self._add = lambda P, i: P ^ self.rows[i]
            self._weigh = lambda P, i: np.bitwise_count(P ^ self.rows[i])
        else:
            dtype = np.uint8 if F.q <= 256 else np.uint16
            self.rows = G.astype(dtype)
            mults = F.mul(G[:, None, :], F.elements()[1:, None])  # c.g_i at [i, c]
            neg = F.neg(mults).astype(dtype)
            mults = mults.astype(dtype)
            count = np.uint8 if n < 256 else np.int64

            def add(P, i):
                if F.p == 2:  # F.add is XOR here; skip its int64 widening
                    return (P[:, None] ^ mults[i][None]).reshape(-1, n)
                return F.add(P[:, None], mults[i][None]).reshape(-1, n).astype(dtype)

            def weigh(P, i):
                eq = P[:, None] == neg[i][None]
                return n - eq.view(np.uint8).sum(axis=2, dtype=count).ravel()

            self._add, self._weigh = add, weigh

    def _chunks(self, w: int):
        """(words, last row) chunks of level w, self.piece words each."""

        def pieces():
            if w == 1:
                yield self.rows, np.arange(self.k)
                return
            for P, last in self._chunks(w - 1):
                for i in range(int(last.min()) + 1, self.k):
                    words = self._add(P[last < i], i)
                    yield words, np.full(len(words), i)

        yield from _rechunk(pieces(), self.piece)

    def weights(self, w: int):
        """The weights of the level-w words, one array per step."""
        if w == 1:
            yield self.row_weights
            return
        for P, last in self._chunks(w - 1):
            for i in range(int(last.min()) + 1, self.k):
                yield self._weigh(P[last < i], i)


def _first_matches(F: FiniteField, R: np.ndarray, P, targets):
    """_span_level's lookup on one chunk of prefixes P (rows, in order): R
    stacks [A_P | A] row-reduced on P's p columns.  Per target t, the first
    independent P where some j != t has a residual (rows p and down) c times
    t's nonzero one, as (P + (j,), R[:p, t] - c R[:p, j] then c) for the
    least such j.  That j exceeds max(P) once every earlier prefix was tried:
    else P + (j,) less max(P) would be an earlier match."""
    p = P.shape[1]
    U = R[:, p:, p:]
    head = np.take_along_axis(U, (U != 0).argmax(axis=1)[:, None], axis=1)[:, 0]
    U = F.mul(U, F.inv(np.where(head != 0, head, 1))[:, None, :])
    t = np.asarray(targets, dtype=np.int64)
    indep = (R[:, :p, :p] == np.eye(p, dtype=np.int64)).all(axis=(1, 2))
    live = indep[:, None] & (head[:, t] != 0)  # and a_t outside span(A_P)
    match = live[:, :, None] & (np.arange(U.shape[2]) != t[:, None])
    for row in U.transpose(1, 0, 2):
        match &= row[:, t, None] == row[:, None, :]
    hit = match.any(axis=2)
    got = np.flatnonzero(hit.any(axis=0))
    n = hit[:, got].argmax(axis=0)
    j, t = match[n, got].argmax(axis=1), t[got]
    c = F.div(head[n, t], head[n, j])
    alpha = F.sub(R[n, :p, p + t], F.mul(c[:, None], R[n, :p, p + j]))
    coeffs = np.concatenate([alpha, c[:, None]], axis=1)
    S = np.concatenate([P[n], j[:, None]], axis=1).tolist()
    return {int(x): (tuple(S[i]), coeffs[i]) for i, x in enumerate(t)}


def _span_level(F: FiniteField, A: np.ndarray, targets, s: int):
    """Per target column t of A: the first s-subset S of the other columns, in
    combinations order, whose span holds column t, with the coefficients of
    column t over the columns of S.  Targets with no such S are left out.
    Level s - 1 must have left every target open (see the module docstring).
    The (s-1)-subsets P are taken _SPAN_CHUNK at a time, and each chunk is
    row-reduced in one _rref_stack call that pivots on P's columns only."""
    m, p = A.shape[1], s - 1
    prefixes = itertools.combinations(range(m), p)
    found: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}
    for chunk in iter(lambda: list(itertools.islice(prefixes, _SPAN_CHUNK)), []):
        if len(found) == len(targets):
            break
        P = np.array(chunk, dtype=np.int64)
        B = np.broadcast_to(A, (len(P),) + A.shape)
        R = _rref_stack(F, np.concatenate([A[:, P].transpose(1, 0, 2), B], axis=2), p)[0]
        found.update(_first_matches(F, R, P, [t for t in targets if t not in found]))
    return found


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

    # -- distance --------------------------------------------------------------

    def min_distance(self, budget: int | None = None) -> int:
        """Exact minimum nonzero codeword weight (cached once computed)."""
        if self._d is not None:
            return self._d
        self._d = self._distance_scan(resolve_budget(budget))
        return self._d

    def _distance_scan(self, b: int) -> int:
        """Exact distance by Brouwer-Zimmermann or MacWilliams under budget
        b, by the cost rule of the module docstring."""
        k, q = self.k, self.q
        dual_words = q ** (self.n - k)
        ranks, gens, best = [], [], self.n
        for r, G in _information_sets(self.field, self.G.a):
            ranks.append(r)
            gens.append(G)
            best = min(best, int(np.count_nonzero(G, axis=1).min()))
            if _bz_bound(k, ranks, [1] * len(ranks)) >= best:
                return best  # the rows prove d; later sets are not needed
        words, levels = _bz_plan(k, q, ranks, best)
        if words > b:
            if dual_words > b:
                raise BudgetError(
                    f"minimum distance of {self!r} needs {dual_words} dual words "
                    f"or {words} information-set words; budget is {b}"
                )
            return self._distance_via_dual()
        sets, done = {}, [1] * len(ranks)
        for w, steps, level in levels:
            if dual_words <= b and dual_words < level * _DUAL_WORDS_PER_WORD:
                return self._distance_via_dual()
            for j, first in steps:
                if j not in sets:
                    sets[j] = _MessageLevels(self.field, gens[j])
                for v in range(first, w + 1):
                    bound = _bz_bound(k, ranks, done)
                    for weights in sets[j].weights(v):
                        best = min(best, int(weights.min()))
                        if best <= bound:  # no unseen word is lighter
                            return best
                    done[j] = v
                    if _bz_bound(k, ranks, done) >= best:
                        return best
        return best  # the plan ran out: the first best is proved, or all seen

    def _weight_counts(self, G: np.ndarray) -> list[int]:
        """Number of words of each weight 0..n in the row space of G."""
        counts = np.zeros(self.n + 1, dtype=np.int64)
        counts[0] = 1  # zero word
        for _, weights, _ in _SplitTable(self.field, G).blocks():
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

    def shorten(self, i: int) -> "LinearCode":
        """Codewords with c_i = 0, coordinate i deleted ([n-1, k-1, >= d]).

        Row-reduces so column i has a single nonzero entry, then deletes that
        row and the column.  Remaining coordinates keep their relative order.
        A zero column cannot be shortened (k would not drop).
        """
        if not 0 <= i < self.n:
            raise PreconditionError(f"coordinate {i} out of range [0, {self.n})")
        F = self.field
        A = self.G.a.copy()
        col = A[:, i]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            raise PreconditionError(
                "the generator column is identically zero; shortening would not "
                "reduce the dimension"
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
        lightest row of K through each target (no row: no word), and a block
        lowers them only from its words lighter than the largest open bound.
        Witnesses are normalized to h_target = 1 and chosen as the
        lexicographically smallest (helper set, coefficient vector) among
        the words whose weight is the target's minimum.
        """
        F, m = self.field, len(support)
        pos = {c: idx for idx, c in enumerate(support)}
        t_pos = np.array([pos[t] for t in targets], dtype=np.intp)
        through = K[:, t_pos] != 0
        # per target: the least weight of a word through it (m + 1: none)
        bound = np.where(through, np.count_nonzero(K, axis=1)[:, None], m + 1)
        bound = bound.min(axis=0, initial=m + 1)
        open_ = through.any(axis=0)
        if open_.any():
            table = _SplitTable(F, K)
            top = int(bound[open_].max())
            for _, weights, block in table.blocks():
                if weights.min() < top:
                    sel = np.flatnonzero(weights < top)
                    bound = np.minimum(bound, table.lightest(block, weights, sel, t_pos))
                    top = int(bound[open_].max())
        weight = {t: int(w) if w <= m else None for t, w in zip(targets, bound)}
        if not want_witnesses:
            return {t: (weight[t], None) for t in targets}
        keys: dict[int, tuple] = {}  # the least (helpers, coefficients) so far
        active = np.flatnonzero(open_)
        if active.size:
            rows, want = t_pos[active], bound[active]
            wanted, top = np.zeros(m + 1, dtype=bool), int(want.max())
            wanted[want] = True
            for _, weights, block in table.blocks():
                if weights.min() > top:
                    continue  # no minimum-weight word in this block
                for i in np.flatnonzero(wanted[weights]).tolist():
                    h = table.word(block, i)
                    for a in np.flatnonzero((want == weights[i]) & (h[rows] != 0)):
                        t, tp = targets[active[a]], int(rows[a])
                        hn = F.mul(F.inv(int(h[tp])), h)  # normalize h_t = 1
                        supp = tuple(support[j] for j in np.nonzero(hn)[0] if j != tp)
                        coeffs = tuple(int(F.neg(int(hn[pos[c]]))) for c in supp)
                        keys[t] = min(keys.get(t, (supp, coeffs)), (supp, coeffs))
        return {t: (weight[t], RepairSet(t, *keys[t]) if t in keys else None) for t in targets}

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
        `cap`, none of size <= cap.  Witnesses are the lexicographically least
        (helpers, coefficients); with witnesses=False they may be None.
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

        Span search (see the module docstring) charges nothing for level 1.
        Before each level s >= 2 its cost is predicted as (open targets) x
        C(|support| - 1, s) rank tests of k(s+1) units each, charged against
        the budget.  The open targets go to the dual scan of q^dim words
        instead when that fits the budget and is predicted cheaper, or when
        the level does not fit; when neither fits, BudgetError.  Targets
        still open after level `cap` are left out of the result.  Every
        target column must be nonzero.
        """
        F, k = self.field, self.k
        b = resolve_budget(budget)
        m = len(support)
        R, piv = mat_rref(MatrixGF(F, self.G.a[:, list(support)]))
        A = R.a[: len(piv)]
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
        found = _first_matches(F, A[None], np.empty((1, 0), dtype=np.int64), open_)
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
            found = _span_level(F, A, open_, s)
        rest = tuple(support[p] for p in open_)
        K = _kernel_basis(F, A, piv)
        scan = self._dual_support_scan(support, rest, K, witnesses)
        out.update((t, (w - 1, wit)) for t, (w, wit) in scan.items())
        return out

    def _check_no_zero_column(self) -> None:
        zero_cols = [int(j) for j in range(self.n) if not self.G.a[:, j].any()]
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
    G = mat_kernel(Hm)
    return LinearCode(field, G, parity_check=Hm)


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
