"""Enumeration kernel of mllrc.linear_code: split tables, Brouwer-Zimmermann
levels over information sets, and prefix-shared span search, over numpy
arrays of field elements.

Passes that weigh every word of a row space (the dual weight distribution
behind the MacWilliams distance route, and repair-group detection) run on
the split-table kernel, `_SplitTable`.  The first a generator rows are
encoded once into a low codebook of q^a words (a is the largest value with
q^a <= 2^12, clamped to [1, k]); high word b is the combination of the
remaining rows, and word (b, c) is low word c plus it.  Over GF(2) with
n <= 64 words are uint64 bitmasks: a block is a batch of at most 2^16
words, high[b:b+h, None] ^ low[None, :], weighed by np.bitwise_count.
Otherwise a block is the codebook shifted by one high word, and its zero
pattern is the single comparison low == -high[b] on a column-major uint8
table (uint16 when q > 256).  No block re-encodes messages.  The budget
charges the nominal q^dim words before a pass starts, and the zero word is
never visited.

Brouwer-Zimmermann order visits a row space lightest-first: on each of
disjoint information sets (_information_sets), the messages of weight 1,
2, ... (_MessageLevels), with a lower bound on the weight of every word not
yet visited (_bz_bound).  The minimum distance and the locality dual scan
share one walk over the planned levels (_bz_plan, _BZWalk) and stop as
soon as that bound proves what they need.  The dual scan reads word
blocks: one uint64 per word over GF(2) with n <= 64 (_packs), else one row
per word.  _MessageLevels.words yields them, _all_words gives a small row
space as one such block, and _lightest and _word read them all.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from .galois import FiniteField, _rref, _rref_stack

_LOW_WORDS = 1 << 12
# Span-search prefixes row-reduced together: enough to amortise the numpy
# calls, few enough that a chunk's (prefixes x k x (m+s-1)) stack stays small.
_SPAN_CHUNK = 64


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


def _weighed(words):
    """(weights, words) of a word block."""
    packed = words.ndim == 1
    return (np.bitwise_count(words) if packed else np.count_nonzero(words, axis=1)), words


def _all_words(F: FiniteField, G: np.ndarray):
    """Every nonzero word of the row space of G, in message order, as one
    (weights, block) pair."""
    words = _xor_codebook(_pack(G)) if _packs(F, G.shape[1]) else _codebook(F, G)
    return _weighed(words[1:])


def _lightest(block, weights, sel, cols, none: int) -> np.ndarray:
    """Per coordinate cols[j], the least weights[i] of a word block[i], i in
    sel (nonempty), that is nonzero there, else none.  Packed supports of
    each weight are ORed, so memory stays linear in len(sel)."""
    w = weights[sel]
    if block.ndim == 2:
        return np.where(block[np.ix_(sel, cols)] != 0, w[:, None], none).min(axis=0)
    order = np.argsort(w)
    w = w[order]
    starts = np.flatnonzero(np.r_[True, w[1:] != w[:-1]])
    # seen[g]: the coordinates where some word of weight <= w[starts[g]] is nonzero
    seen = np.bitwise_or.accumulate(np.bitwise_or.reduceat(block[sel][order], starts))
    hit = (seen[:, None] >> np.asarray(cols, dtype=np.uint64)) & 1 != 0
    return np.where(hit.any(axis=0), w[starts][hit.argmax(axis=0)], none)


def _word(block, i: int, n: int) -> np.ndarray:
    """Word i of a block of words of length n, as an int64 vector."""
    if block.ndim == 2:
        return block[i].astype(np.int64)
    return ((block[i] >> np.arange(n, dtype=np.uint64)) & 1).astype(np.int64)


class _SplitTable:
    """The weights of every word of a row space, by split tables.

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
    zero pattern, with no per-block field arithmetic.
    """

    def __init__(self, F: FiniteField, G: np.ndarray):
        k, n = G.shape
        a = _low_rows(F.q, k)
        self.field = F
        self.packed = _packs(F, n)
        if self.packed:
            rows = _pack(G)
            self._low, self._high_rows = _xor_codebook(rows[:a]), rows[a:]
            return
        low = _codebook(F, G[:a])
        self._low_t = low.T.astype(np.uint8 if F.q <= 256 else np.uint16, order="C")
        self._neg_high_rows = F.neg(G[a:])
        # weights (and n + 1) fit in a byte for n < 255
        self._count_dtype = np.uint8 if n < 255 else np.int64

    def weights(self):
        """Yield the weights of the words, block by block, in message order,
        skipping the zero word."""
        skip = 1  # message 0 is the zero word
        if self.packed:
            span = max(1, (_LOW_WORDS << 4) // len(self._low))  # high words a batch
            for top in _word_chunks(2, self._high_rows, _xor_codebook, np.bitwise_xor):
                for at in range(0, len(top), span):
                    yield np.bitwise_count((top[at:at + span, None] ^ self._low).ravel()[skip:])
                    skip = 0
            return
        F = self.field
        for chunk in _word_chunks(F.q, self._neg_high_rows, lambda G: _codebook(F, G), F.add):
            for nh in chunk.astype(self._low_t.dtype):
                ne = self._low_t[:, skip:] != nh[:, None]
                yield ne.view(np.uint8).sum(axis=0, dtype=self._count_dtype)
                skip = 0


def _information_sets(F: FiniteField, G: np.ndarray):
    """Disjoint information sets of the row space of G, chosen greedily in
    column order, yielded as (rank r, generator) pairs.

    Set j is the RREF pivots among the columns no earlier set took.  Its
    generator is the RREF of G with those columns moved first (then the
    taken columns), put back in G's column order, so it is [I_r; 0] on the
    set's columns: rows r.. vanish there.  Ranks never increase from one
    set to the next."""
    rest, used = list(range(G.shape[1])), []
    while rest:
        order = rest + used
        R, piv = _rref(F, G[:, order])
        chosen = {rest[p] for p in piv if p < len(rest)}
        if not chosen:  # only zero columns left
            return
        yield len(chosen), R[:, np.argsort(order)]  # column order[i] is R's column i
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
    max(q - 1, _LOW_WORDS) words and no level is held whole.  words() gives
    the words themselves, in blocks read by _lightest and _word.
    """

    def __init__(self, F: FiniteField, G: np.ndarray):
        k, n = G.shape
        self.k, self.n = k, n
        self.row_weights = np.count_nonzero(G, axis=1)
        self.piece = max(1, _LOW_WORDS // (F.q - 1))  # P words per step
        self.packed = _packs(F, n)
        if self.packed:
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

    def words(self, w: int):
        """The level-w words as (weights, block) chunks of self.piece words."""
        for P, _ in self._chunks(w):
            yield _weighed(P)


class _BZWalk:
    """Brouwer-Zimmermann enumeration of the row space of disjoint
    information sets, set j of rank ranks[j] with generator gens[j], one
    planned level (see _bz_plan) at a time; level 1 is taken as done.
    read(levels, v) gives the chunks of one set's messages of weight v
    (_MessageLevels.weights or _MessageLevels.words)."""

    def __init__(self, F: FiniteField, gens, ranks, read):
        self.field, self.gens, self.ranks, self.read = F, gens, ranks, read
        self.done, self._sets = [1] * len(ranks), {}

    def set(self, j: int) -> _MessageLevels:
        """The levels of set j, built on first use."""
        if j not in self._sets:
            self._sets[j] = _MessageLevels(self.field, self.gens[j])
        return self._sets[j]

    def level(self, w: int, steps):
        """Yield (bound, chunk) for each chunk of the level's steps, and
        (bound, None) after each step: no word yielded later, or in this
        chunk, weighs less than bound."""
        k = len(self.gens[0])
        for j, first in steps:
            levels = self.set(j)
            for v in range(first, w + 1):
                bound = _bz_bound(k, self.ranks, self.done)
                for chunk in self.read(levels, v):
                    yield bound, chunk
                self.done[j] = v
                yield _bz_bound(k, self.ranks, self.done), None


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
