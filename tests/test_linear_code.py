"""Code-level primitives against independent brute-force oracles.

The distance oracle here lists every codeword by plain itertools message
enumeration and takes the minimum Hamming weight in pure Python — a separate
code path from the library's block enumeration.  Frozen expectations for the
trivial cases (repetition, SPC) are asserted directly.
"""

import collections
import hashlib
import itertools
import random
import time
from math import comb

import numpy as np
import pytest

import mllrc.kernel as kernel
import mllrc.linear_code as linear_code
from mllrc.bounds import KOptOracle
from mllrc.certify import certify
from mllrc.constructions import construction2_binary_lrc, reed_solomon, tamo_barg
from mllrc.errors import BudgetError, ParseError, PreconditionError
from mllrc.galois import (
    MatrixGF,
    _rref_stack,
    field_from_order,
    field_new,
    mat_rank,
    mat_rref,
)
from mllrc.linear_code import (
    LinearCode,
    LocalityClass,
    LocalityProfile,
    RepairSet,
    code_from_parity_check,
    format_profile_shape,
    load_code,
    parse_profile_shape,
    resolve_budget,
    save_code,
)


def brute_distance(F, G):
    """Min nonzero codeword weight by pure-Python enumeration (oracle)."""
    k = len(G)
    best = None
    for msg in itertools.product(range(F.q), repeat=k):
        if not any(msg):
            continue
        word = [0] * len(G[0])
        for c, row in zip(msg, G):
            for j, g in enumerate(row):
                word[j] = F.add(word[j], F.mul(c, g))
        w = sum(1 for v in word if v)
        best = w if best is None else min(best, w)
    return best


def random_code(F, n, k, rng):
    while True:
        A = rng.integers(0, F.q, size=(k, n))
        if A.any(axis=0).all() and mat_rank(MatrixGF(F, A)) == k:
            return LinearCode(F, A)


# ---------------------------------------------------------------------------
# construction, dual, parity check
# ---------------------------------------------------------------------------


def test_identity_generator_full_space():
    F = field_new(2)
    C = LinearCode(F, np.eye(4, dtype=np.int64))
    assert (C.n, C.k) == (4, 4)
    assert C.H.shape == (0, 4)
    with pytest.raises(PreconditionError):
        C.dual()


def test_spc_from_parity_check():
    F = field_new(2)
    C = code_from_parity_check(F, [[1, 1, 1, 1]])
    assert (C.n, C.k) == (4, 3)
    assert C.min_distance() == 2
    prod = C.G @ MatrixGF(F, C.H.a.T)
    assert not prod.a.any()


def test_dual_of_dual_same_row_space():
    rng = np.random.default_rng(41)
    for q, m in [(2, 1), (3, 1), (2, 2)]:
        F = field_new(q, m)
        C = random_code(F, 6, 3, rng)
        DD = C.dual().dual()
        assert DD.k == C.k
        # same row space: each generator of one is in the kernel of the other's H
        assert not (C.G @ MatrixGF(F, DD.H.a.T)).a.any()
        assert not (DD.G @ MatrixGF(F, C.H.a.T)).a.any()


def test_rank_deficient_generator_rejected():
    F = field_new(2)
    with pytest.raises(PreconditionError):
        LinearCode(F, [[1, 0, 1], [1, 0, 1]])
    with pytest.raises(PreconditionError):
        code_from_parity_check(F, [[1, 1, 0], [1, 1, 0]])


def _repetition4():
    return LinearCode(field_new(2), [[1, 1, 1, 1]])


@pytest.mark.parametrize("call, text", [
    (lambda: LinearCode(field_new(2), MatrixGF(field_new(3), [[1, 2]])),
     "generator field mismatch"),
    (lambda: LinearCode(field_new(2), np.zeros((0, 3), dtype=np.int64)),
     "code needs k >= 1 and n >= 1"),
    (lambda: LinearCode(field_new(2), [[1, 0], [0, 1], [1, 1]]),
     "generator has more rows than columns"),
    (lambda: _repetition4().locality_profile(mode="tight"), "unknown profile mode 'tight'"),
    (lambda: _repetition4().verify_profile(_repetition4().locality_profile(), mode="tight"),
     "unknown profile mode 'tight'"),
    (lambda: _repetition4().verify_profile(LocalityProfile((LocalityClass(1, (0, 1, 2)),))),
     "profile does not cover the code's coordinates"),
    (lambda: LocalityClass(0, (0, 1)), "locality must be >= 1, got 0"),
    (lambda: LocalityClass(1, ()), "locality class cannot be empty"),
    (lambda: LocalityClass(1, (1, 0)), "class coordinates must be sorted and distinct"),
    (lambda: LocalityClass(1, (0, 0, 1)), "class coordinates must be sorted and distinct"),
], ids=["field", "empty", "rows", "profile-mode", "verify-mode", "verify-cover",
        "class-locality", "class-empty", "class-unsorted", "class-repeated"])
def test_refusals_keep_their_type_and_text(call, text):
    with pytest.raises(PreconditionError) as refused:
        call()
    assert type(refused.value) is PreconditionError
    assert str(refused.value) == text


# ---------------------------------------------------------------------------
# minimum distance
# ---------------------------------------------------------------------------


def test_repetition_distance():
    F = field_new(2)
    C = LinearCode(F, [[1, 1, 1, 1]])
    assert C.min_distance() == 4


def test_distance_matches_listing_oracle():
    rng = np.random.default_rng(8)
    for q, m, n, k in [(2, 1, 8, 4), (3, 1, 6, 3), (2, 2, 5, 2), (13, 1, 5, 2)]:
        F = field_new(q, m)
        for _ in range(6):
            C = random_code(F, n, k, rng)
            assert C.min_distance() == brute_distance(F, C.G.tolist())


def _golay():
    """The extended binary Golay code [24,12,8], from the [23,12,7] cyclic
    code of 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11."""
    g = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
    rows = [[0] * i + g + [0] * (11 - i) for i in range(12)]
    return LinearCode(field_new(2), [row + [sum(row) % 2] for row in rows])


def _ternary_hamming():
    """The [13,10,3]_3 Hamming code: its parity checks are the 13 points of
    the projective plane over GF(3)."""
    points = [v for v in itertools.product(range(3), repeat=3)
              if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1]
    return code_from_parity_check(field_new(3), np.array(points).T)


@pytest.fixture
def dual_calls(monkeypatch):
    """Counts the runs of the MacWilliams route."""
    calls = []
    real = LinearCode._distance_via_dual
    monkeypatch.setattr(LinearCode, "_distance_via_dual",
                        lambda self: calls.append(self) or real(self))
    return calls


def test_dual_side_distance_path(dual_calls):
    # binary [10,7] and [12,9] codes have d <= 2 (Hamming bound), which the
    # rows of two information sets prove: no route enumerates anything
    rng = np.random.default_rng(13)
    for _ in range(10):
        C = random_code(field_new(2), 10, 7, rng)
        direct = LinearCode(C.field, C.G.a).min_distance()
        via_dual = LinearCode(C.field, C.G.a).min_distance(budget=2**9)
        assert via_dual == direct
    for _ in range(10):
        C = random_code(field_new(2), 12, 9, rng)
        direct = LinearCode(C.field, C.G.a).min_distance()
        via_dual = LinearCode(C.field, C.G.a).min_distance(budget=2**9 - 1)
        assert via_dual == direct
    assert not dual_calls
    # the [13,10]_3 Hamming code needs level 2 (90 words); its 3^3 dual words
    # are the cheaper route, and the only one under a budget of 27
    for budget in (None, 27):
        H = _ternary_hamming()
        assert H.min_distance(budget=budget) == 3
        assert dual_calls == [H]
        dual_calls.clear()
    # the extended Golay code stays on Brouwer-Zimmermann: its levels cost
    # 132 and 440 words, MacWilliams 4096
    assert _golay().min_distance(budget=4096) == 8
    assert not dual_calls


def test_budget_hard_error():
    # the extended Golay code: the plan is levels 2 and 3 on its two
    # information sets, 2 x (C(12, 2) + C(12, 3)) = 572 words, and MacWilliams
    # needs 2^12 words -> below 572 neither route is allowed
    C = _golay()
    with pytest.raises(BudgetError) as exc:
        C.min_distance(budget=571)
    assert str(exc.value) == (
        "minimum distance of LinearCode[24,12]_2 needs 4096 dual words or 572 "
        "information-set words; budget is 571"
    )
    assert C.min_distance(budget=572) == 8
    with pytest.raises(PreconditionError):
        LinearCode(C.field, C.G.a).min_distance(budget=0)


def test_budget_explicit_else_default():
    assert resolve_budget() == linear_code.DEFAULT_BUDGET == 10**8
    assert resolve_budget(7) == 7
    for bad in (0, -4):
        with pytest.raises(PreconditionError, match="must be positive"):
            resolve_budget(bad)
    # the rows of the information sets are weighed for free: d = 2 is proved
    # by the bound after them, under any budget
    C = LinearCode(field_new(2), [[1, 1, 0, 0], [0, 1, 1, 1]])
    assert C.min_distance(budget=1) == 2


def test_gcc2_r4_certify_walks_the_dual_lightest_first(monkeypatch, bz_scan_spy):
    # [45,23]_2: the locality scan's kernel has dimension 22.  Listing it
    # would visit all 2^22 dual words; in Brouwer-Zimmermann order the scan
    # stops once no unseen word can lower an open bound.
    walked = []
    real = kernel._MessageLevels.words

    def words(self, w):
        for weights, block in real(self, w):
            walked.append(len(weights))
            yield weights, block

    monkeypatch.setattr(kernel._MessageLevels, "words", words)
    cert = certify(construction2_binary_lrc(4, 0), oracle=KOptOracle("table"))
    assert (cert.d, cert.profile.shape()) == (6, ((36, 3), (9, 8)))
    assert bz_scan_spy["routes"] == {("walk", _PACKS)}
    assert 0 < sum(walked) < 2**22


def test_gcc2_r4_witnesses_extend_the_bound_walk(monkeypatch):
    # [45,23]_2: without witnesses the dual scan stops after 18,238 words.
    # With them the same walk goes on through the words of the open bounds'
    # weight; a second walk from the basis rows would make 62,810 in all.
    walked = []
    real = kernel._MessageLevels.words

    def words(self, w):
        for weights, block in real(self, w):
            walked.append(len(weights))
            yield weights, block

    monkeypatch.setattr(kernel._MessageLevels, "words", words)
    counts = {}
    for witnesses in (False, True):
        walked.clear()
        profile = construction2_binary_lrc(4, 0).locality_profile(keep_witnesses=witnesses)
        assert profile.shape() == ((36, 3), (9, 8))
        counts[witnesses] = sum(walked)
    assert counts[False] == 18_238
    assert counts[False] < counts[True] < 18_238 + 44_572


def test_gcc2_r5_distance_is_refused_before_any_level(monkeypatch):
    # [102,64]_2: the information sets have ranks 64, 36 and 2, and no row
    # weighs under 12.  The second set joins the bound only at level 28, so
    # proving d = 12 needs levels 2..11 of the first: sum C(64, w) words.
    levels = []
    real = kernel._MessageLevels.weights
    monkeypatch.setattr(kernel._MessageLevels, "weights",
                        lambda self, w: levels.append(w) or real(self, w))
    C = construction2_binary_lrc(5, 0)
    start = time.perf_counter()
    with pytest.raises(BudgetError) as exc:
        C.min_distance()
    assert time.perf_counter() - start < 1
    assert str(exc.value) == (
        f"minimum distance of LinearCode[102,64]_2 needs {2**38} dual words or "
        f"{sum(comb(64, w) for w in range(2, 12))} information-set words; "
        "budget is 100000000"
    )
    assert levels == []


def test_brouwer_zimmermann_exact_distances():
    # Singleton-optimal: d = 15 - 8 - 2 + 2; MacWilliams would need 16^7 words
    assert tamo_barg(16, 15, 8, 4).min_distance() == 7
    assert construction2_binary_lrc(4, 0).min_distance() == 6  # [45,23]_2


# ---------------------------------------------------------------------------
# split-table enumeration kernel against itertools references
# ---------------------------------------------------------------------------

# One (n, k) per code.  Per field the shapes give a single block (k <= a, the
# low codebook's row count) and several blocks (k > a, or n - k > a for the
# dual scans); GF(257) runs the uint16 codebook.
_KERNEL_CASES = [
    ((2, 1), [(8, 4), (15, 13), (15, 2)]),
    ((3, 1), [(6, 3), (9, 8), (9, 1)]),
    ((2, 2), [(5, 2), (8, 7), (8, 1)]),
    ((3, 2), [(5, 2), (5, 4), (6, 2)]),
    ((13, 1), [(5, 2), (5, 4), (5, 1)]),
    ((2, 4), [(5, 2), (5, 4), (5, 1)]),
    ((257, 1), [(3, 1), (3, 2)]),
]


class _Ref:
    """Brute-force reference: every word listed by itertools message
    enumeration, with field arithmetic from plain-Python tables."""

    def __init__(self, F):
        el = F.elements()
        self.q = F.q
        self.add = F.add(el[:, None], el[None, :]).tolist()
        self.mul = F.mul(el[:, None], el[None, :]).tolist()
        self.neg = [row.index(0) for row in self.add]
        self.inv = [0] + [row.index(1) for row in self.mul[1:]]

    def words(self, rows):
        n = len(rows[0])
        out = []
        for msg in itertools.product(range(self.q), repeat=len(rows)):
            w = [0] * n
            for c, row in zip(msg, rows):
                if c:
                    mc = self.mul[c]
                    for j, g in enumerate(row):
                        w[j] = self.add[w[j]][mc[g]]
            out.append(tuple(w))
        return out

    def weights(self, words, n):
        counts = [0] * (n + 1)
        for w in words:
            counts[sum(1 for v in w if v)] += 1
        return counts

    def repair(self, dual_words, i, support):
        """(locality, RepairSet) of coordinate i with helpers in support, or
        None: the lightest dual word inside support through i, ties broken
        by the least (helpers, coefficients)."""
        best = None
        for h in dual_words:
            if not h[i] or any(v for j, v in enumerate(h) if v and j not in support):
                continue
            s = self.inv[h[i]]
            hn = [self.mul[s][v] for v in h]
            helpers = tuple(j for j, v in enumerate(hn) if v and j != i)
            key = (len(helpers), helpers, tuple(self.neg[hn[j]] for j in helpers))
            if best is None or key < best:
                best = key
        if best is None:
            return None
        return best[0], RepairSet(i, best[1], best[2])


def _random_full_code(F, n, k, rng):
    """Random [n, k] code with no zero column, from a seeded random.Random."""
    while True:
        A = [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)]
        if all(any(row[j] for row in A) for j in range(n)) and mat_rank(
            MatrixGF(F, A)
        ) == k:
            return LinearCode(F, A)


def _locality(C, i, helpers=None, budget=None):
    """(locality, witness) of coordinate i with helpers drawn from `helpers`
    (default: every coordinate), or None when no dual word through i lies
    inside them."""
    support = range(C.n) if helpers is None else set(helpers) | {i}
    loc, witness = C._repairs(tuple(sorted(support)), (i,), budget)[i]
    return None if loc is None else (loc, witness)


def _classes(locs):
    """Coordinate classes by locality, as the library groups them."""
    by_r = {}
    for c, r in sorted(locs.items()):
        by_r.setdefault(r, []).append(c)
    return LocalityProfile(
        tuple(LocalityClass(r, tuple(cs)) for r, cs in sorted(by_r.items()))
    )


def test_kernel_cases_cover_single_and_multi_block():
    for (p, m), shapes in _KERNEL_CASES:
        q = p**m
        assert any(k <= kernel._low_rows(q, k) for _, k in shapes)
        assert any(k > kernel._low_rows(q, k) for _, k in shapes)
    assert any(n - k > kernel._low_rows(p**m, n - k)
               for (p, m), shapes in _KERNEL_CASES for n, k in shapes)


@pytest.mark.parametrize(
    "field,shape",
    [(f, s) for f, shapes in _KERNEL_CASES for s in shapes],
    ids=lambda v: "x".join(map(str, v)),
)
def test_kernel_matches_itertools_reference(field, shape):
    F = field_new(*field)
    n, k = shape
    rng = random.Random(repr((field, shape)))
    C = _random_full_code(F, n, k, rng)
    ref = _Ref(F)
    primal = ref.words(C.G.tolist())
    dual_words = ref.words(C.H.tolist())

    # distance: primal pass and, where the dual is smaller, MacWilliams
    d = min(sum(1 for v in w if v) for w in primal if any(w))
    assert C.min_distance() == d
    if F.q ** (n - k) < F.q**k:
        assert LinearCode(F, C.G.a).min_distance(budget=F.q ** (n - k)) == d
    assert C._weight_counts(C.G.a) == ref.weights(primal, n)
    assert C._weight_counts(C.H.a) == ref.weights(dual_words, n)

    # loose and strict profiles; a coordinate without a repair relation is
    # a PreconditionError in both
    everything = set(range(n))
    loose = {i: ref.repair(dual_words, i, everything) for i in range(n)}
    if any(v is None for v in loose.values()):
        for mode in ("loose", "strict"):
            with pytest.raises(PreconditionError):
                C.locality_profile(mode)
    else:
        prof = _classes({i: v[0] for i, v in loose.items()})
        assert C.locality_profile("loose") == prof
        strict = {
            i: ref.repair(dual_words, i, set(cls.coordinates))
            for cls in prof.classes for i in cls.coordinates
        }
        if any(v is None for v in strict.values()) or [
            c.coordinates for c in _classes({i: v[0] for i, v in strict.items()}).classes
        ] != [c.coordinates for c in prof.classes]:
            with pytest.raises(PreconditionError):
                C.locality_profile("strict")
        else:
            assert C.locality_profile("strict") == _classes(
                {i: v[0] for i, v in strict.items()}
            )
        ok, wit = C.verify_profile(prof, "strict")
        expect = {}
        for cls in prof.classes:
            for i in cls.coordinates:
                v = strict[i]
                expect[i] = v[1] if v is not None and v[0] <= cls.locality else None
        assert wit == expect
        assert ok == all(w is not None for w in expect.values())

    # witnesses of a generous one-class claim: every coordinate that has a
    # repair relation gets the reference's witness
    claim = LocalityProfile((LocalityClass(n, tuple(range(n))),))
    ok, wit = C.verify_profile(claim)
    assert wit == {i: v and v[1] for i, v in loose.items()}
    assert ok == all(v is not None for v in loose.values())

    for i in range(n):
        helpers = set(rng.sample(range(n), rng.randrange(n)))
        assert _locality(C, i, helpers) == ref.repair(dual_words, i, helpers | {i})


# ---------------------------------------------------------------------------
# locality routes: span search, dual scan and a switch between them
# ---------------------------------------------------------------------------

# Field -> the largest n - k of a corpus code, so the reference lists at most
# a few hundred dual words.
_ROUTE_FIELDS = {(2, 1): 6, (3, 1): 4, (2, 2): 3, (3, 2): 2, (13, 1): 2,
                 (2, 4): 2, (257, 1): 1}


def _route_code(F, rng):
    """A random full-rank code without zero columns; some columns are
    multiples of others, so that locality 1 occurs."""
    while True:
        k = rng.randint(1, 4)
        n = rng.randint(k + 1, min(k + _ROUTE_FIELDS[(F.p, F.m)], 8))
        A = [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)]
        for j in range(n):
            if j and rng.random() < 0.2:
                src, c = rng.randrange(j), rng.randrange(1, F.q)
                for row in A:
                    row[j] = F.mul(c, row[src])
        if all(any(row[j] for row in A) for j in range(n)) and mat_rank(
            MatrixGF(F, A)
        ) == k:
            return LinearCode(F, A)


def _reference_profile(ref, dual_words, n, mode):
    """The profile, or the PreconditionError text, that mode must give."""
    loose = {i: ref.repair(dual_words, i, set(range(n))) for i in range(n)}
    bad = [i for i, v in loose.items() if v is None]
    if bad:
        return f"coordinate {bad[0]} has no repair relation (no dual word through it)"
    prof = _classes({i: v[0] for i, v in loose.items()})
    if mode == "loose":
        return prof
    strict = {}
    for cls in prof.classes:
        for i in cls.coordinates:
            v = ref.repair(dual_words, i, set(cls.coordinates))
            if v is None:
                return f"coordinate {i} has no repair relation inside its class"
            strict[i] = v[0]
    got = _classes(strict)
    if [c.coordinates for c in got.classes] != [c.coordinates for c in prof.classes]:
        return ("profile is not strict-stable: restricting helpers to classes "
                "changes the partition")
    return got


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PreconditionError as exc:
        return str(exc)


@pytest.fixture
def route_spy(monkeypatch):
    """Runs every locality scan on one route and records which ran: "span"
    never hands over to the dual scan, "dual" always does after the level-1
    lookup, and "switch" runs span level 2 and then hands over."""
    calls = []
    real_level, real_dual = kernel._span_level, LinearCode._dual_support_scan
    real_scan = LinearCode._locality_scan
    state = {"route": "span"}

    def scan(self, *args):
        calls.append([])
        # "dual": the dual scan is always predicted cheaper; otherwise never
        ratio = 10**30 if state["route"] == "dual" else 0
        monkeypatch.setattr(linear_code, "_WORDS_PER_UNIT", ratio)
        return real_scan(self, *args)

    def level(F, A, targets, s):
        calls[-1].append(f"span{s}")
        if state["route"] == "switch":
            monkeypatch.setattr(linear_code, "_WORDS_PER_UNIT", 10**30)
        return real_level(F, A, targets, s)

    def dual(self, *args):
        calls[-1].append("dual")
        return real_dual(self, *args)

    monkeypatch.setattr(LinearCode, "_locality_scan", scan)
    monkeypatch.setattr(kernel, "_span_level", level)
    monkeypatch.setattr(LinearCode, "_dual_support_scan", dual)
    return state, calls


# 256 was the chunk of the per-subset search; the default chunk is covered too
@pytest.mark.parametrize("chunk", sorted({1, 3, kernel._SPAN_CHUNK, 256}))
@pytest.mark.parametrize("field", sorted(_ROUTE_FIELDS), ids=lambda f: f"{f[0]}^{f[1]}")
def test_locality_routes_match_reference(monkeypatch, route_spy, field, chunk):
    monkeypatch.setattr(kernel, "_SPAN_CHUNK", chunk)
    state, calls = route_spy
    F = field_new(*field)
    ref = _Ref(F)
    rng = random.Random(f"routes/{field}/{chunk}")
    # a [4,3] single-parity code has locality 3, so the switch has work left
    fixed = [LinearCode(F, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])]
    if F.q == 2:  # strict mode raises: confining helpers changes its classes
        fixed.append(LinearCode(F, [[1, 0, 1, 1, 0, 1, 1, 1], [0, 1, 0, 1, 0, 1, 1, 1],
                                    [1, 1, 0, 1, 0, 0, 1, 1], [0, 1, 0, 1, 1, 1, 0, 1]]))
    for C in fixed + [_route_code(F, rng) for _ in range(5)]:
        n = C.n
        dual_words = ref.words(C.H.tolist())
        full = set(range(n))
        expect_profile = {m: _reference_profile(ref, dual_words, n, m)
                          for m in ("loose", "strict")}
        one_class = LocalityClass(rng.randint(1, n - 1), tuple(range(n)))
        claims = [LocalityProfile((one_class,))]
        if isinstance(expect_profile["loose"], LocalityProfile):
            tight = expect_profile["loose"]
            claims.append(tight)
            claims.append(LocalityProfile(tuple(
                LocalityClass(c.locality + 1, c.coordinates) for c in tight.classes
            )))
        queries = []
        for i in range(n):
            helpers = set(rng.sample(range(n), rng.randrange(n)))
            queries.append((i, helpers, ref.repair(dual_words, i, helpers | {i})))
        for route in ("span", "dual", "switch"):
            state["route"] = route
            for mode in ("loose", "strict"):
                got = _outcome(LinearCode(F, C.G.a).locality_profile, mode)
                assert got == expect_profile[mode], (route, mode, C.G.tolist())
            for claim in claims:
                for mode in ("loose", "strict"):
                    want = {}
                    for cls in claim.classes:
                        support = set(cls.coordinates) if mode == "strict" else full
                        for i in cls.coordinates:
                            v = ref.repair(dual_words, i, support)
                            want[i] = v[1] if v and v[0] <= cls.locality else None
                    ok, wit = LinearCode(F, C.G.a).verify_profile(claim, mode)
                    # repr pins the witness bytes, down to plain-int coefficients
                    assert repr(wit) == repr(want), (route, mode, claim)
                    assert ok == all(w is not None for w in want.values())
            D = LinearCode(F, C.G.a)
            for i, helpers, want in queries:
                assert repr(_locality(D, i, helpers)) == repr(want), (route, i, helpers)
    # every route ran as intended, and the switch happened mid-scan
    assert any(c and c[0] == "span2" and c[-1] == "dual" for c in calls)
    assert not any("dual" in c and c[-1] != "dual" for c in calls)


def span_level_reference(F, A, targets, s):
    """The per-subset span search that prefix-shared span search replaced:
    one rank test of [A_S | a_t] per target t and s-subset S, in
    combinations order, 256 tests row-reduced at a time."""
    m = A.shape[1]
    streams = {
        t: itertools.combinations([j for j in range(m) if j != t], s) for t in targets
    }
    found: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}
    while streams:
        per = max(1, 256 // len(streams))
        tags, cols = [], []
        for t, it in list(streams.items()):
            got = list(itertools.islice(it, per))
            if len(got) < per:
                del streams[t]
            tags += [t] * len(got)
            cols += [S + (t,) for S in got]
        if not cols:
            break
        R, pivot, _ = _rref_stack(F, A[:, cols].transpose(1, 0, 2))
        for b in np.flatnonzero(~pivot[:, s]).tolist():
            t = tags[b]
            if t not in found:
                found[t] = (cols[b][:s], R[b, :s, s])
                streams.pop(t, None)
    return found


def _span_matrix(F, rng):
    """A random k x m matrix, k <= 8 and m <= 14.  Most have zero columns,
    columns that repeat or scale an earlier one, and columns that combine two
    earlier ones, so that many prefixes are rank-deficient; the rest are
    plain random, so that high levels are reached."""
    k = rng.randint(1, 8)
    m = rng.randint(2, 14) if rng.random() < 0.2 else rng.randint(k + 1, 14)
    odd = rng.choice([0.0, 0.2, 0.4])
    A = np.array([[rng.randrange(F.q) for _ in range(m)] for _ in range(k)])
    for j in range(1, m):
        kind = rng.random() / odd if odd else 1.0
        if kind < 0.2:
            A[:, j] = 0
        elif kind < 0.6:
            A[:, j] = F.mul(rng.randrange(1, F.q), A[:, rng.randrange(j)])
        elif kind < 1.0 and j > 1:
            a, b = rng.sample(range(j), 2)
            A[:, j] = F.add(F.mul(rng.randrange(F.q), A[:, a]), A[:, b])
    return A


def _witness_bytes(found):
    return {t: (S, np.asarray(c, dtype=np.int64).tobytes()) for t, (S, c) in found.items()}


@pytest.mark.parametrize("q", [2, 3, 4, 13, 16, 17])
def test_span_search_matches_per_subset_reference(monkeypatch, q):
    """Level 1 (the lookup on the empty prefix) and every level s >= 2 until
    all targets are resolved give the reference's S and coefficient bytes, at
    every chunk size."""
    F = field_from_order(q)
    rng = random.Random(f"span-search/{q}")
    empty = np.empty((1, 0), dtype=np.int64)
    deepest = 0
    for _ in range(12):
        A = _span_matrix(F, rng)
        rank = mat_rank(MatrixGF(F, A))
        # nonzero columns in the span of the others: their least s is <= rank
        targets = [
            t for t in range(A.shape[1])
            if A[:, t].any() and mat_rank(MatrixGF(F, np.delete(A, t, axis=1))) == rank
        ]
        want = span_level_reference(F, A, targets, 1)
        got = kernel._first_matches(F, A[None], empty, targets)
        assert _witness_bytes(got) == _witness_bytes(want)
        levels, open_ = [], [t for t in targets if t not in want]
        while open_:
            s = len(levels) + 2
            levels.append((s, open_, span_level_reference(F, A, open_, s)))
            deepest = max(deepest, s) if levels[-1][2] else deepest
            open_ = [t for t in open_ if t not in levels[-1][2]]
        assert 1 + len(levels) <= max(rank, 1)  # the least s is at most the rank
        # one prefix a chunk, or three, on the narrower matrices: a level
        # there has at most C(10, 5) prefixes
        small = (1, 3) if A.shape[1] <= 10 else ()
        for chunk in small + (kernel._SPAN_CHUNK,):
            monkeypatch.setattr(kernel, "_SPAN_CHUNK", chunk)
            for s, open_, want in levels:
                got = kernel._span_level(F, A, open_, s)
                assert _witness_bytes(got) == _witness_bytes(want), (chunk, s, A.tolist())
    assert deepest >= 3


# Field -> the largest k of a distance-corpus code, so the reference lists
# at most a few thousand words.
_DISTANCE_FIELDS = {(2, 1): 10, (3, 1): 6, (2, 2): 5, (3, 2): 4, (13, 1): 4,
                    (2, 4): 4, (257, 1): 2}
_REF_DISTANCE: dict = {}


def _ref_distance(F, A):
    """Least weight of a nonzero codeword: row i plus every combination of
    the rows after it covers each message whose first nonzero entry, at i,
    is 1, and scaling a word keeps its weight."""
    key = (F.q, F.modulus, tuple(map(tuple, A)))
    if key not in _REF_DISTANCE:
        ref = _Ref(F)
        _REF_DISTANCE[key] = min(
            sum(1 for a, b in zip(A[i], tail) if ref.add[a][b])
            for i in range(len(A))
            for tail in (ref.words(A[i + 1:]) if i + 1 < len(A) else [[0] * len(A[i])])
        )
    return _REF_DISTANCE[key]


def _distance_code(F, rng, kmax):
    """A random full-rank generator with some zero columns and some columns
    that are multiples of earlier ones."""
    while True:
        k = rng.randint(1, kmax)
        n = rng.randint(k, 2 * k + 1)
        A = [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)]
        for j in range(n):
            roll = rng.random()
            if roll < 0.05:
                for row in A:
                    row[j] = 0
            elif j and roll < 0.15:
                src, c = rng.randrange(j), rng.randrange(1, F.q)
                for row in A:
                    row[j] = F.mul(c, row[src])
        if mat_rank(MatrixGF(F, A)) == k:
            return A


def _chain_code(F, k, rng):
    """M [I | B | B x] for random invertible M, rank-(k-1) B and nonzero
    B x: greedy information sets of ranks k, k - 1 and 1."""
    while True:
        M = MatrixGF(F, [[rng.randrange(F.q) for _ in range(k)] for _ in range(k)])
        B = MatrixGF(F, [[rng.randrange(F.q) for _ in range(k - 1)] for _ in range(k)])
        x = MatrixGF(F, [[rng.randrange(1, F.q)] for _ in range(k - 1)])
        Bx = B @ x
        if mat_rank(M) == k and mat_rank(B) == k - 1 and Bx.a.any():
            return (M @ MatrixGF(F, np.hstack([np.eye(k, dtype=np.int64), B.a, Bx.a]))).tolist()


def _needs_levels(F, A):
    """Whether Brouwer-Zimmermann must enumerate beyond the rows of its
    information sets on the code of generator A."""
    sets = list(kernel._information_sets(F, np.array(A)))
    best = min(int(np.count_nonzero(G, axis=1).min()) for _, G in sets)
    return bool(kernel._bz_plan(len(A), F.q, [r for r, _ in sets], best)[1])


@pytest.mark.parametrize("chunk", [1, 3, kernel._LOW_WORDS])
@pytest.mark.parametrize("field", sorted(_DISTANCE_FIELDS), ids=lambda f: f"{f[0]}^{f[1]}")
def test_message_levels_match_reference(monkeypatch, field, chunk):
    # level w: the words of the messages of weight w whose first nonzero
    # entry is 1, each once; GF(2) with n > 64 takes the unpacked path
    monkeypatch.setattr(kernel, "_LOW_WORDS", chunk)
    F = field_new(*field)
    ref = _Ref(F)
    rng = random.Random(f"levels/{field}/{chunk}")
    shapes = [(4, 9), (3, 5), (1, 3)] + ([(3, 70)] if F.q == 2 else [])
    for k, n in shapes:
        G = [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)]
        levels = kernel._MessageLevels(F, np.array(G, dtype=np.int64))
        for w in range(1, min(k, 3 if F.q < 257 else 2) + 1):
            want = []
            for rows in itertools.combinations(G, w):
                for cs in itertools.product(range(1, F.q), repeat=w - 1):
                    word = list(rows[0])  # coefficient 1
                    for c, row in zip(cs, rows[1:]):
                        mc = ref.mul[c]
                        word = [ref.add[a][mc[g]] for a, g in zip(word, row)]
                    want.append(tuple(word))
            got = np.concatenate(list(levels.weights(w))).tolist()
            assert sorted(got) == sorted(sum(1 for v in x if v) for x in want), (k, n, w)
            # words(): the same words, each with its weight, read by _word and
            # _lightest (here: each word alone, at every coordinate)
            got = []
            for weights, block in levels.words(w):
                for i in range(len(weights)):
                    x = kernel._word(block, i, n)
                    alone = kernel._lightest(block, weights, np.array([i]), np.arange(n), n + 1)
                    assert alone.tolist() == np.where(x == 0, n + 1, weights[i]).tolist()
                    assert weights[i] == np.count_nonzero(x)
                    got.append(tuple(x.tolist()))
            assert sorted(got) == sorted(want), (k, n, w)


@pytest.fixture
def distance_spy(monkeypatch):
    """Runs every distance on one route and records what ran, with the
    code's q^k words: "bz" never hands over to MacWilliams, "dual" hands
    over before level 2, and "switch" hands over after its first level >= 2.
    A code answered by the one-codebook listing records ["list"] alone."""
    calls = []
    real_scan, real_dual = LinearCode._distance_scan, LinearCode._distance_via_dual
    real_weights, real_all = kernel._MessageLevels.weights, kernel._all_words
    state = {"route": "bz"}

    def scan(self, b):
        calls.append((state["route"], [], self.q ** self.k))
        ratio = 10**30 if state["route"] == "dual" else 0
        monkeypatch.setattr(linear_code, "_DUAL_WORDS_PER_WORD", ratio)
        return real_scan(self, b)

    def weights(self, w):
        assert w <= self.k  # level k of the first set has seen every word
        if w >= 2:
            calls[-1][1].append(w)
            if state["route"] == "switch":
                monkeypatch.setattr(linear_code, "_DUAL_WORDS_PER_WORD", 10**30)
        return real_weights(self, w)

    def dual(self):
        calls[-1][1].append("dual")
        return real_dual(self)

    def all_words(F, G):
        calls[-1][1].append("list")
        return real_all(F, G)

    monkeypatch.setattr(LinearCode, "_distance_scan", scan)
    monkeypatch.setattr(LinearCode, "_distance_via_dual", dual)
    monkeypatch.setattr(kernel._MessageLevels, "weights", weights)
    monkeypatch.setattr(kernel, "_all_words", all_words)
    return state, calls


@pytest.mark.parametrize("chunk", [1, 3, kernel._LOW_WORDS])
@pytest.mark.parametrize("field", sorted(_DISTANCE_FIELDS), ids=lambda f: f"{f[0]}^{f[1]}")
def test_distance_routes_match_reference(monkeypatch, distance_spy, field, chunk):
    monkeypatch.setattr(kernel, "_LOW_WORDS", chunk)
    state, calls = distance_spy
    F = field_new(*field)
    kmax = _DISTANCE_FIELDS[field]
    rng = random.Random(f"distance/{field}")  # the same codes for every chunk
    c = rng.randrange(1, F.q)
    codes = [
        [[0, 1, c, 0, 1]],  # k = 1 with zero columns
        (MatrixGF(F, _chain_code(F, kmax, rng)).a[:, :kmax]).tolist(),  # k = n
        _chain_code(F, kmax, rng),
    ] + [_distance_code(F, rng, kmax) for _ in range(6)]
    ranks = [r for r, _ in kernel._information_sets(F, np.array(codes[2]))]
    assert ranks == [kmax, kmax - 1, 1]
    # codes whose rows do not settle d (two-row codes never need a level),
    # and over GF(2) the extended Golay code, which needs levels 2 and 3
    deep = [A for A in (_distance_code(F, rng, kmax) for _ in range(400))
            if _needs_levels(F, A)][:4]
    assert len(deep) >= (2 if kmax > 2 else 0)
    codes += deep + ([_golay().G.tolist()] if F.q == 2 else [])
    for A in codes:
        want = _ref_distance(F, A)
        for route in ("bz", "dual", "switch"):
            state["route"] = route
            assert LinearCode(F, A).min_distance() == want, (route, A)
    # the listing answered exactly the codes of at most `chunk` words (the
    # default budget holds them all), on every route, and nothing else ran
    assert all((lv == ["list"]) == (words <= chunk) for _, lv, words in calls)
    assert sum(lv == ["list"] for _, lv, _ in calls) == 3 * sum(
        F.q ** len(A) <= chunk for A in codes)
    # on the others every route ran as intended, and the switch happened
    # mid-scan; at chunk = 2^12 only the fields above one codebook keep any
    ran = {route: [lv for r, lv, _ in calls if r == route and lv and lv != ["list"]]
           for route in ("bz", "dual", "switch")}
    assert not any("dual" in lv for lv in ran["bz"])
    assert all(lv == ["dual"] for lv in ran["dual"])
    assert all(lv[0] == 2 and lv.count("dual") <= (lv[-1] == "dual")
               for lv in ran["switch"])
    walked = [A for A in deep if F.q ** len(A) > chunk]
    assert len(walked) >= (2 if kmax > 2 and F.q ** kmax > chunk else 0)
    assert all(len(lvs) >= len(walked) for lvs in ran.values())
    if F.q == 2 and chunk < 2**12:  # the Golay code's 2^12 words are listed at 2^12
        assert [2, 2, "dual"] in ran["switch"]


@pytest.fixture
def listed(monkeypatch):
    """The dimensions of the row spaces read whole by kernel._all_words."""
    dims = []
    real = kernel._all_words
    monkeypatch.setattr(kernel, "_all_words", lambda F, G: dims.append(len(G)) or real(F, G))
    return dims


@pytest.mark.parametrize("field", sorted(_DISTANCE_FIELDS), ids=lambda f: f"{f[0]}^{f[1]}")
def test_listing_matches_reference_at_the_codebook_edge(listed, field):
    # the largest k with q^k <= 2^12 is listed, the next k is not, and a
    # budget below q^k falls through to Brouwer-Zimmermann, which answers
    # as before (its plan never exceeds (q^k - 1)/(q - 1) words)
    F = field_new(*field)
    edge = kernel._low_rows(F.q, 64)
    assert F.q ** edge <= kernel._LOW_WORDS < F.q ** (edge + 1)
    rng = random.Random(f"listing/{field}")
    for k in (edge, edge + 1):
        for _ in range(2):
            A = _random_full_code(F, k + rng.randint(1, 4), k, rng).G.tolist()
            want = _ref_distance(F, A)
            for budget, lists in ((None, k == edge), (F.q**k - 1, False), (F.q**k, k == edge)):
                listed.clear()
                assert LinearCode(F, A).min_distance(budget=budget) == want, (A, budget)
                assert listed == ([k] if lists else []), (A, budget)


def test_listing_leaves_refusals_and_large_fields_alone(listed):
    # the Golay code's 2^12 words need the budget: below its 572-word plan
    # the refusal is the Brouwer-Zimmermann one, below 2^12 the walk answers
    C = _golay()
    with pytest.raises(BudgetError) as exc:
        LinearCode(C.field, C.G.a).min_distance(budget=571)
    assert str(exc.value) == (
        "minimum distance of LinearCode[24,12]_2 needs 4096 dual words or 572 "
        "information-set words; budget is 571"
    )
    assert LinearCode(C.field, C.G.a).min_distance(budget=4095) == 8
    assert listed == []
    assert LinearCode(C.field, C.G.a).min_distance(budget=4096) == 8
    assert listed == [12]
    # k = 1: q words are listed only when q <= 2^12 (no clamp to one row)
    for q, lists in ((4093, True), (65521, False)):
        listed.clear()
        assert LinearCode(field_new(q), [[1, 5, 0, q - 1, 9]]).min_distance() == 4
        assert listed == ([1] if lists else [])
    # and only in at most 2^18 cells (q^k n): [64,1]_4093 is listed, [65,1]_4093 walked
    for n, lists in ((64, True), (65, False)):
        listed.clear()
        assert LinearCode(field_new(4093), [[1 + j % 5 for j in range(n)]]).min_distance() == n
        assert listed == ([1] if lists else [])


def test_kept_reduction_is_the_rref_of_g():
    # the form kept by __init__ is mat_rref(G), write-protected, and H is
    # read from it
    rng = random.Random("kept-rref")
    for field in sorted(_DISTANCE_FIELDS):
        F = field_new(*field)
        codes = [_random_full_code(F, k + extra, k, rng) for k, extra in ((1, 3), (3, 2), (2, 0))]
        codes.append(codes[1].shorten(0))
        for C in codes:
            R, piv = mat_rref(C.G)
            assert np.array_equal(C._reduced[0], R.a) and C._reduced[1] == piv
            with pytest.raises(ValueError):
                C._reduced[0][0, 0] = 0
            assert C.H == linear_code.mat_kernel(C.G)
            assert C.H.shape == (C.n - C.k, C.n)


def test_information_sets_read_the_kept_reduction_for_the_first_set_only():
    # later sets reduce column permutations of G, never the kept form
    rng = random.Random("kept-sets")
    for field in sorted(_DISTANCE_FIELDS):
        F = field_new(*field)
        k = min(_DISTANCE_FIELDS[field], 4)
        C = LinearCode(F, _chain_code(F, k, rng))
        got = list(kernel._information_sets(F, C.G.a, C._reduced))
        want = list(kernel._information_sets(F, C.G.a))
        assert [r for r, _ in got] == [r for r, _ in want] == [k, k - 1, 1]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))


def test_strict_scan_never_reads_the_kept_reduction():
    # every class is a proper support: its scan reduces its own columns
    class Tripwire:
        def __iter__(self):
            raise AssertionError("kept reduction read for a proper support")

    # [11,5]_13 (span search) and [45,23]_2 (dual scan), two classes each
    for D in (tamo_barg(13, 12, 6, 3).shorten(1), construction2_binary_lrc(4, 0)):
        want = LinearCode(D.field, D.G.a)
        want = (_outcome(want.locality_profile, "strict", keep_witnesses=True),)
        fresh = LinearCode(D.field, D.G.a)
        loose = fresh.locality_profile(keep_witnesses=True)  # the full support, kept
        assert len(loose.classes) > 1
        fresh._reduced = Tripwire()
        got = (_outcome(fresh.locality_profile, "strict", keep_witnesses=True),)
        assert got == want
        if isinstance(got[0], LocalityProfile):
            assert fresh.verify_profile(got[0], "strict")[0]


def test_zero_columns_are_named_in_order():
    C = LinearCode(field_new(5), [[1, 0, 2, 0, 3, 0], [0, 0, 1, 0, 4, 1]])
    msg = "coordinates [1, 3] are identically zero; locality is undefined"
    for call in (C.locality_profile, lambda: C.verify_profile(
            LocalityProfile((LocalityClass(1, tuple(range(6))),)))):
        with pytest.raises(PreconditionError) as exc:
            call()
        assert str(exc.value) == msg


def test_macwilliams_matches_reference():
    rng = random.Random("macwilliams")
    for field, kmax in sorted(_DISTANCE_FIELDS.items()):
        F = field_new(*field)
        for _ in range(4):
            A = _distance_code(F, rng, kmax)
            if len(A) < len(A[0]):
                assert LinearCode(F, A)._distance_via_dual() == _ref_distance(F, A)


_PACKS = hasattr(np, "bitwise_count")  # numpy >= 2 packs GF(2) words


@pytest.mark.parametrize("low_words", [1, 9, 1 << 12])
def test_split_table_visits_every_word_in_message_order(monkeypatch, low_words):
    # a small codebook bound forces several chunk levels on small inputs;
    # binary n = 64 packs words into uint64, n = 65 takes the general path
    monkeypatch.setattr(kernel, "_LOW_WORDS", low_words)
    rng = random.Random(low_words)
    for field, n, k in [((2, 1), 5, 7), ((3, 1), 4, 5), ((2, 2), 3, 4),
                        ((3, 2), 3, 3), ((257, 1), 2, 2), ((2, 1), 64, 7),
                        ((2, 1), 65, 7)]:
        F = field_new(*field)
        G = [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)]
        table = kernel._SplitTable(F, np.array(G, dtype=np.int64))
        assert table.packed == (F.q == 2 and n <= 64 and _PACKS)
        got = np.concatenate(list(table.weights())).tolist()
        # message digit 0 is least significant; itertools varies the last
        # position fastest, so the reference lists the rows reversed; the
        # zero word is never yielded
        words = _Ref(F).words(G[::-1])
        assert words[0] == (0,) * n
        assert got == [sum(1 for v in w if v) for w in words[1:]]


def test_packed_weight_counts_span_several_batches():
    # 2^17 words of length 30: two batches of the packed table at the
    # default codebook size, against a numpy listing of every message
    F = field_new(2)
    rng = np.random.default_rng(17)
    while True:
        G = rng.integers(0, 2, size=(17, 30))
        if mat_rank(MatrixGF(F, G)) == 17:
            break
    C = LinearCode(F, G)
    table = kernel._SplitTable(F, G)
    assert table.packed == _PACKS
    assert sum(1 for _ in table.weights()) == (2 if _PACKS else 2**5)
    msgs = (np.arange(1 << 17)[:, None] >> np.arange(17)) & 1
    weights = ((msgs @ G) % 2).sum(axis=1)
    want = np.bincount(weights, minlength=31).tolist()
    assert C._weight_counts(G) == want
    assert C._distance_via_dual() == C.min_distance() == min(weights[1:])
    # the dual's MacWilliams route lists C again, from another basis
    dual = LinearCode(F, C.H.a)
    assert dual._weight_counts(dual.H.a) == want
    assert dual._distance_via_dual() == dual.min_distance()


def _sparse_check_code(n, r, rng):
    """A binary [n, n - r] code whose r parity checks have density about
    1/4, so its dual words have a spread of weights; coordinate 0 lies in
    no check's support, so it has no repair relation."""
    F = field_new(2)
    while True:
        H = (rng.random((r, n)) < 0.25).astype(np.int64)
        empty = np.flatnonzero(~H.any(axis=0))
        H[rng.integers(r, size=len(empty)), empty] = 1
        H[:, 0] = 0
        if mat_rank(MatrixGF(F, H)) == r:
            C = code_from_parity_check(F, H)
            if C.G.a.any(axis=0).all():  # no dual word of weight 1
                return C, H


_SCAN_REFERENCE: dict = {}


def _scan_reference(C, H, support):
    """_Ref.repair of every coordinate of `support`, helpers from it, as
    (weight, witness): the dual scan's answer.  Kept across parameters."""
    key = (C.G.a.tobytes(), support)
    if key not in _SCAN_REFERENCE:
        ref = _Ref(C.field)
        dual_words = ref.words(H.tolist())
        got = {}
        for t in support:
            v = ref.repair(dual_words, t, set(support))
            got[t] = (None, None) if v is None else (v[0] + 1, v[1])
        _SCAN_REFERENCE[key] = got
    return _SCAN_REFERENCE[key]


@pytest.mark.parametrize("low_words", [1, 9, kernel._LOW_WORDS])
def test_dual_support_scan_matches_reference(monkeypatch, bz_scan_spy, low_words):
    # supports of at most 64 coordinates scan packed words, longer ones
    # rows; loose (every coordinate) and strict (one locality class)
    # supports, and an independent support (no dual word)
    monkeypatch.setattr(kernel, "_LOW_WORDS", low_words)
    rng = np.random.default_rng(20)
    F = field_new(2)
    for n, r in [(12, 5), (40, 7), (64, 8), (65, 8), (70, 7)]:
        C, H = _sparse_check_code(n, r, rng)
        full = tuple(range(n))
        loose = _scan_reference(C, H, full)
        assert loose[0] == (None, None)
        by_loc = {}
        for t, (w, _) in loose.items():
            by_loc.setdefault(w, []).append(t)
        supports = [full] + [tuple(c) for w, c in by_loc.items() if w and len(c) > 1]
        supports.append(tuple(int(j) for j in mat_rref(C.G)[1][:3]))  # independent
        for support in supports:
            R, piv = mat_rref(MatrixGF(F, C.G.a[:, list(support)]))
            K = linear_code._kernel_basis(F, R.a[: len(piv)], piv)
            if support is supports[-1]:
                assert K.shape[0] == 0
            want = _scan_reference(C, H, support)
            got = LinearCode(F, C.G.a)._dual_support_scan(support, support, K, True)
            assert repr(got) == repr(want), (n, support)
            weights = LinearCode(F, C.G.a)._dual_support_scan(support, support, K, False)
            assert weights == {t: (w, None) for t, (w, _) in want.items()}
    # both routes ran, packed and unpacked; every kernel here (dimension
    # <= 8) fits one default codebook
    ran = bz_scan_spy["routes"]
    routes = {"single", "walk"} if low_words < 1 << 12 else {"single"}
    assert {route for route, _ in ran} == routes
    assert {packed for _, packed in ran} == ({True, False} if _PACKS else {False})


def dual_scan_reference(F, support, targets, K, want_witnesses):
    """Every word of the row space of K, listed by message arithmetic.  Per
    target, the least weight of a word through it and, among the words of
    that weight, the least normalized (helpers, coefficients)."""
    m = len(support)
    words = np.zeros((1, m), dtype=np.int64)
    for row in K:  # every message, one more digit at a time
        words = np.concatenate([F.add(words, F.mul(c, row)) for c in range(F.q)])
    weights = np.count_nonzero(words, axis=1)
    out = {}
    for t in targets:
        tp = support.index(t)
        through = np.flatnonzero(words[:, tp])
        if not through.size:
            out[t] = (None, None)
            continue
        least = int(weights[through].min())
        keys = []
        for i in through[weights[through] == least] if want_witnesses else ():
            hn = F.mul(F.inv(int(words[i, tp])), words[i])
            helpers = [j for j in np.flatnonzero(hn).tolist() if j != tp]
            keys.append((tuple(support[j] for j in helpers),
                         tuple(int(F.neg(int(hn[j]))) for j in helpers)))
        out[t] = (least, RepairSet(t, *min(keys)) if keys else None)
    return out


@pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2), (13, 1)],
                         ids=lambda f: f"{f[0]}^{f[1]}")
def test_least_helper_set_fixes_the_witness(field):
    # the lemma behind the dual scan's witness rule: among the minimum-weight
    # dual words inside a support through a coordinate t, each scaled to 1 at
    # t, no two have the same helper set, so no coefficient tie-break decides;
    # on the loose support, the largest loose class and a random helper subset
    F = field_new(*field)
    ref = _Ref(F)
    rng = random.Random(f"helper-sets/{field}")
    n, k = {2: (12, 5), 3: (9, 4), 4: (8, 4), 13: (6, 3)}[F.q]
    ties = 0
    for _ in range(3):
        C = _random_full_code(F, n, k, rng)
        dual_words = ref.words(C.H.tolist())
        full = tuple(range(n))
        locs = {t: ref.repair(dual_words, t, set(full)) for t in full}
        classes = _classes({t: v[0] for t, v in locs.items() if v}).classes
        largest = max((c.coordinates for c in classes), key=len)
        for support in (full, largest, tuple(sorted(rng.sample(full, n - 2)))):
            inside = [h for h in dual_words if not any(h[j] for j in full if j not in support)]
            for t in support:
                through = [h for h in inside if h[t]]
                if not through:
                    continue
                least = min(sum(1 for v in h if v) for h in through)
                scaled = {tuple(ref.mul[ref.inv[h[t]]][v] for v in h)
                          for h in through if sum(1 for v in h if v) == least}
                helpers = {tuple(j for j, v in enumerate(h) if v and j != t) for h in scaled}
                assert len(helpers) == len(scaled), (C.G.tolist(), support, t)
                ties += len(scaled) > 1
    assert ties  # some coordinate had several minimum-weight words to choose from


# Field -> (n, k) shapes whose dual dimensions straddle one low codebook
# (4096 words): the first shape's kernel fits it and is read as one block,
# the others walk Brouwer-Zimmermann levels.
_BZ_SCAN_SHAPES = {
    (2, 1): [(20, 8), (21, 8), (24, 10), (28, 12)],
    (3, 1): [(12, 5), (13, 5), (14, 6)],
    (2, 2): [(11, 5), (12, 5), (13, 6)],
    (13, 1): [(6, 3), (7, 3), (8, 4)],
}


def _bz_scan_code(F, n, k, rng, density, coloop):
    """A random [n, k] code with about `density` nonzero entries and no zero
    column; with coloop, coordinate 0 is in no dual word."""
    while True:
        A = [[rng.randrange(1, F.q) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(k)]
        for i in range(k):
            A[i][i] = 1
        if coloop:
            A[0] = [1] + [0] * (n - 1)
            for row in A[1:]:
                row[0] = 0
        if all(any(row[j] for row in A) for j in range(n)) and mat_rank(MatrixGF(F, A)) == k:
            return LinearCode(F, A)


@pytest.fixture
def bz_scan_spy(monkeypatch):
    """Counts the Brouwer-Zimmermann levels walked, and records the routes
    the dual scan read words by: ("single", packed) for a kernel read as one
    block, ("walk", packed) for the words of an information set."""
    seen = {"levels": 0, "routes": set()}
    real_level, real_all, real_words = (
        kernel._BZWalk.level, kernel._all_words, kernel._MessageLevels.words)

    def level(self, w, steps):
        seen["levels"] += 1
        return real_level(self, w, steps)

    def all_words(F, G):
        weights, block = real_all(F, G)
        seen["routes"].add(("single", block.ndim == 1))
        return weights, block

    def words(self, w):
        seen["routes"].add(("walk", bool(self.packed)))
        return real_words(self, w)

    monkeypatch.setattr(kernel._BZWalk, "level", level)
    monkeypatch.setattr(kernel, "_all_words", all_words)
    monkeypatch.setattr(kernel._MessageLevels, "words", words)
    return seen


@pytest.mark.parametrize("field", sorted(_BZ_SCAN_SHAPES), ids=lambda f: f"{f[0]}^{f[1]}")
def test_dual_scan_matches_split_table_reference(monkeypatch, bz_scan_spy, field):
    # localities and witnesses of every support coordinate, on the whole
    # support (loose), the loose classes (strict), random helper subsets and
    # an independent support (no kernel); over GF(2) also a sparse [70, 54]
    # code, whose 70 coordinates do not pack
    F = field_new(*field)
    rng = random.Random(f"bz-scan/{field}")
    codes = [_bz_scan_code(F, n, k, rng, density, coloop=density < 0.5 and k % 2 == 0)
             for n, k in _BZ_SCAN_SHAPES[field] for density in (0.5, 0.25)]
    if F.q == 2:
        codes.append(_sparse_check_code(70, 16, np.random.default_rng(70))[0])
    dims = set()
    for C in codes:
        n, full = C.n, tuple(range(C.n))
        loose = {}
        for t, (w, _) in dual_scan_reference(F, full, full, C.H.a, False).items():
            loose.setdefault(w, []).append(t)
        supports = [full] + [tuple(c) for w, c in loose.items() if w and len(c) > 1]
        supports += [tuple(sorted(rng.sample(full, n - rng.randint(1, 3)))) for _ in range(2)]
        supports.append(tuple(int(j) for j in mat_rref(C.G)[1]))  # independent
        for support in supports:
            R, piv = mat_rref(MatrixGF(F, C.G.a[:, list(support)]))
            K = linear_code._kernel_basis(F, R.a[: len(piv)], piv)
            dims.add(K.shape[0])
            for witnesses in (False, True):
                want = dual_scan_reference(F, support, support, K, witnesses)
                got = LinearCode(F, C.G.a)._dual_support_scan(support, support, K, witnesses)
                assert repr(got) == repr(want), (C.G.tolist(), support, witnesses)
    # profiles and their witnesses, every locality from the dual scan
    monkeypatch.setattr(linear_code, "_WORDS_PER_UNIT", 10**30)
    real = LinearCode._dual_support_scan
    for C in codes:
        answers = []
        for scan in (real, lambda self, *args: dual_scan_reference(self.field, *args)):
            monkeypatch.setattr(LinearCode, "_dual_support_scan", scan)
            D, out = LinearCode(F, C.G.a), []
            for mode in ("loose", "strict"):
                profile = _outcome(D.locality_profile, mode, keep_witnesses=mode == "loose")
                out.append(profile)
                if isinstance(profile, LocalityProfile):
                    out.append(repr(D.verify_profile(profile, mode)))
            answers.append(out)
        assert answers[0] == answers[1], C.G.tolist()
    # a kernel just inside one codebook (one block) and the walk ran
    assert 0 in dims and any(F.q ** d <= kernel._LOW_WORDS < F.q ** (d + 1) for d in dims)
    assert bz_scan_spy["levels"]
    assert {route for route, _ in bz_scan_spy["routes"]} == {"single", "walk"}


@pytest.mark.parametrize("field", [(2, 2), (257, 1)], ids=lambda f: f"{f[0]}^{f[1]}")
def test_dual_scan_reads_a_small_kernel_as_one_block(monkeypatch, bz_scan_spy, field):
    # kernels of the largest dimension a with q^a <= 4096 words (6 over
    # GF(4); 1 over GF(257), whose rows are uint16) are read as one block of
    # all their words.  With one-word codebooks GF(4) walks them instead,
    # with the same answers; GF(257) still reads one block, as a codebook
    # holds at least q words.
    F = field_new(*field)
    low = kernel._LOW_WORDS
    dim = kernel._low_rows(F.q, 64)
    assert F.q ** dim <= low < F.q ** (dim + 1)
    rng = random.Random(f"one-block/{field}")
    n = dim + 4
    full = tuple(range(n))
    for _ in range(3):
        C = _random_full_code(F, n, n - dim, rng)
        K = C.H.a
        for witnesses in (False, True):
            want = repr(dual_scan_reference(F, full, full, K, witnesses))
            for low_words, route in [(low, "single"),
                                     (1, "walk" if dim > 1 else "single")]:
                monkeypatch.setattr(kernel, "_LOW_WORDS", low_words)
                bz_scan_spy["routes"].clear()
                got = LinearCode(F, C.G.a)._dual_support_scan(full, full, K, witnesses)
                assert repr(got) == want, (C.G.tolist(), low_words, witnesses)
                assert bz_scan_spy["routes"] == {(route, False)}


@pytest.mark.parametrize("field", [(2, 1), (2, 2), (257, 1)], ids=lambda f: f"{f[0]}^{f[1]}")
def test_witness_scan_lists_a_small_kernel_once(monkeypatch, field):
    # a kernel read as one block gives its localities and witnesses from a
    # single listing of its words
    F = field_new(*field)
    listed = []
    real = kernel._all_words
    monkeypatch.setattr(kernel, "_all_words", lambda F, G: listed.append(len(G)) or real(F, G))
    dim = kernel._low_rows(F.q, 64)
    rng = random.Random(f"one-listing/{field}")
    n = dim + 4
    full = tuple(range(n))
    C = _random_full_code(F, n, n - dim, rng)
    got = LinearCode(F, C.G.a)._dual_support_scan(full, full, C.H.a, True)
    assert repr(got) == repr(dual_scan_reference(F, full, full, C.H.a, True))
    assert listed == [dim]


def test_unpacked_fallback_matches_packed(monkeypatch):
    # numpy 1.x has no np.bitwise_count: every binary pass then takes the
    # general path, with the same distances, profiles and witnesses
    F = field_new(2)
    rng = np.random.default_rng(24)
    codes = [construction2_binary_lrc(3, 0).G.a, construction2_binary_lrc(4, 0).G.a,
             _golay().G.a] + [_sparse_check_code(n, r, rng)[0].G.a
                              for n, r in [(20, 8), (30, 6), (64, 9)]]

    def answers(G):
        C = LinearCode(F, G)
        out = [C.min_distance(), C._distance_via_dual()]
        for mode in ("loose", "strict"):
            try:
                profile = C.locality_profile(mode, keep_witnesses=True)
            except PreconditionError as exc:
                out.append(str(exc))
                continue
            out += [profile, repr(C.verify_profile(profile, mode))]
        return out

    packed = [answers(G) for G in codes]
    assert kernel._SplitTable(F, codes[1]).packed == _PACKS
    assert (kernel._MessageLevels(F, codes[1]).rows.dtype == np.uint64) == _PACKS
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert not kernel._SplitTable(F, codes[1]).packed
    assert kernel._MessageLevels(F, codes[1]).rows.dtype != np.uint64
    assert [answers(G) for G in codes] == packed


def test_budget_edges_refuse_only_when_both_locality_routes_are_over():
    # distance: the [13,10]_3 Hamming code needs level 2 of its first
    # information set, C(10, 2) x 2 = 90 words, or 3^3 MacWilliams words
    F = field_new(3)
    C = _ternary_hamming()
    assert C.q ** (C.n - C.k) == 27
    with pytest.raises(BudgetError, match="needs 27 dual words or 90 information-set"):
        LinearCode(F, C.G.a).min_distance(budget=26)
    assert LinearCode(F, C.G.a).min_distance(budget=27) == C.min_distance() == 3
    # locality: every column of a [9,1]_3 code is parallel to the others, so
    # the level-1 lookup answers it under any budget; its dual scan would need
    # 3^8 words, which used to be refused at 3^8 - 1
    D = _random_full_code(F, 9, 1, random.Random(5))
    want = D.locality_profile()
    assert want.shape() == ((9, 1),)
    for budget in (1, 3**8 - 1, 3**8):
        fresh = LinearCode(F, D.G.a)
        assert fresh.locality_profile(budget=budget) == want
        assert _locality(fresh, 0, budget=budget) == _locality(D, 0)
    # no locality-1 coordinate: level 2 of span search costs 4 targets x
    # C(3, 2) tests x 2 * 3 units = 72, the dual scan 3^2 = 9 words
    E = LinearCode(F, [[1, 0, 1, 1], [0, 1, 1, 2]])
    want = E.locality_profile()
    assert want.shape() == ((4, 2),)
    for budget in (1, 8):
        with pytest.raises(BudgetError, match="needs 9 dual words or 72 span-test units"):
            LinearCode(F, E.G.a).locality_profile(budget=budget)
        with pytest.raises(BudgetError):
            _locality(LinearCode(F, E.G.a), 0, budget=budget)
    for budget in (9, 72, 10**8):
        assert LinearCode(F, E.G.a).locality_profile(budget=budget) == want
    # the span edge: the 14 points of the GF(13) projective line; the dual
    # scan (13^12 words) never fits, level 2 costs 14 x C(13, 2) x 6 units
    F13 = field_new(13)
    P = LinearCode(F13, [[1, 0] + [1] * 12, [0, 1] + list(range(1, 13))])
    with pytest.raises(BudgetError) as exc:
        P.locality_profile(budget=6551)
    assert str(exc.value) == (
        f"locality needs {13**12} dual words or 6552 span-test units; budget is 6551"
    )
    assert LinearCode(F13, P.G.a).locality_profile(budget=6552).shape() == ((14, 2),)
    assert P.locality_profile().shape() == ((14, 2),)
    # levels are charged cumulatively: [13,3]_13 Reed-Solomon needs levels 2
    # and 3, 13 x (C(12, 2) x 9 + C(12, 3) x 12) = 7722 + 34320 units
    RS = reed_solomon(F13, 13, 3)
    with pytest.raises(BudgetError, match="or 42042 span-test units; budget is 42041"):
        LinearCode(F13, RS.G.a).locality_profile(budget=42041)
    assert LinearCode(F13, RS.G.a).locality_profile(budget=42042).shape() == ((13, 3),)


def test_tamo_barg_16_15_8_profile_by_span_search():
    # the dual scan of this [15,8]_16 code needs 16^7 > 10^8 words
    C = tamo_barg(16, 15, 8, 4)
    assert C.q ** (C.n - C.k) > linear_code.DEFAULT_BUDGET
    assert C.locality_profile().shape() == ((15, 4),)
    ok, wit = C.verify_profile(C.locality_profile())
    assert ok and all(w.holds_for(C) and len(w.helpers) == 4 for w in wit.values())


# ---------------------------------------------------------------------------
# shortening
# ---------------------------------------------------------------------------


def test_spc_shortens_to_spc():
    F = field_new(2)
    spc4 = code_from_parity_check(F, [[1, 1, 1, 1]])
    s = spc4.shorten(0)
    assert (s.n, s.k, s.min_distance()) == (3, 2, 2)
    spc3 = code_from_parity_check(F, [[1, 1, 1]])
    assert not (s.G @ MatrixGF(F, spc3.H.a.T)).a.any()  # same code


def test_shorten_drops_n_k_and_never_distance():
    rng = np.random.default_rng(17)
    for q in (2, 3, 13):
        F = field_new(q)
        for _ in range(8):
            C = random_code(F, 7, 3, rng)
            d = C.min_distance()
            for i in range(C.n):
                if not C.G.a[:, i].any():
                    continue
                S = C.shorten(i)
                assert (S.n, S.k) == (C.n - 1, C.k - 1)
                assert S.min_distance() >= d


def shorten_reference(C, i):
    """LinearCode.shorten's generator as it was before integer-domain pivot
    steps: scale and clear column i through F.mul / F.inv / F.sub."""
    F, A = C.field, C.G.a.copy()
    piv = int(np.nonzero(A[:, i])[0][0])
    if A[piv, i] != 1:
        A[piv] = F.mul(A[piv], F.inv(int(A[piv, i])))
    others = np.nonzero(A[:, i])[0]
    others = others[others != piv]
    if others.size:
        A[others] = F.sub(A[others], F.mul(A[others, i][:, None], A[piv][None, :]))
    return np.delete(np.delete(A, piv, axis=0), i, axis=1)


@pytest.mark.parametrize("q", [2, 4, 9, 13, 256, 729, 65521])
def test_shorten_matches_field_method_reference(q):
    rng = np.random.default_rng(q)
    F = field_from_order(q)
    for n, k in [(6, 2), (9, 4), (8, 8)]:
        C = random_code(F, n, k, rng)
        for i in range(n):  # random_code leaves no zero column
            assert np.array_equal(C.shorten(i).G.a, shorten_reference(C, i))


def test_shorten_zero_column_handling():
    F = field_new(2)
    C = LinearCode(F, [[1, 0, 1], [0, 0, 1]])
    zero = ("the generator column is identically zero; shortening would not "
            "reduce the dimension")
    empty = "shortening a dimension-1 code would empty it"
    for code, at, message, failing in [
        (C, (1,), zero, 1),
        (LinearCode(F, [[1, 1]]), (0,), empty, 0),
        (C, (0, 2), empty, 0),  # 2 goes first, then 0 would empty the code
        (LinearCode(F, [[1, 1, 0], [0, 0, 1]]), (0, 1), zero, 0),  # zero once 1 is gone
        (C, (2, 2), zero, 2),  # a repeated position
    ]:
        with pytest.raises(PreconditionError) as exc:
            code.shorten(*at)
        assert (str(exc.value), exc.value.at) == (message, failing)
    with pytest.raises(PreconditionError, match=r"^coordinate 5 out of range \[0, 3\)$"):
        C.shorten(5)
    with pytest.raises(PreconditionError, match=r"^coordinate -1 out of range \[0, 3\)$"):
        C.shorten(0, -1)


def shorten_outcome(C, at):
    """C.shorten(*at) as generator bytes, or the error's text and position."""
    try:
        G = C.shorten(*at).G.a
    except PreconditionError as exc:
        return str(exc), exc.at
    return G.dtype, G.tobytes()


def shorten_one_at_a_time(C, at):
    """shorten_outcome from single-position calls, highest position first."""
    for i in sorted(at, reverse=True):
        try:
            C = C.shorten(i)
        except PreconditionError as exc:
            return str(exc), i
    return C.G.a.dtype, C.G.a.tobytes()


@pytest.mark.parametrize("q", [2, 13, 16])
def test_shorten_many_is_one_position_at_a_time(q):
    rng = np.random.default_rng(100 + q)
    pyrng = random.Random(q)
    F = field_from_order(q)
    C = random_code(F, 6, 3, rng)
    assert C.shorten() is C
    kinds = collections.Counter()
    for n, k in [(6, 3), (9, 5), (8, 8), (12, 6)]:
        C = random_code(F, n, k, rng)
        for _ in range(10):
            at = pyrng.sample(range(n), pyrng.randint(1, k))
            expect = shorten_one_at_a_time(C, at)
            assert shorten_outcome(C, at) == expect
            assert shorten_outcome(C, sorted(at)) == expect
            kinds[expect[0] if isinstance(expect[0], str) else "code"] += 1
    assert kinds["code"] >= 10 and len(kinds) == 3  # both refusals, too


# sha256 (first 16 hex digits) of construction2_binary_lrc(r, j).G.a.tobytes(),
# recorded when the outer code was shortened one position at a time
CONSTRUCTION2_GENERATORS = {
    (2, 0): "edbeb0aba596daea", (3, 0): "5a021b5cd0d272bf", (3, 1): "af4ed83ee2372e82",
    (4, 0): "1d349adb4b9e6656", (4, 1): "01f42bdec01a56cf", (4, 2): "d2d0aae14047967d",
    (4, 3): "3dcef79c26d66b83", (4, 4): "ed3659110a31b7dc",
}


@pytest.mark.parametrize("r,j", sorted(CONSTRUCTION2_GENERATORS))
def test_construction2_keeps_its_generator(r, j):
    G = construction2_binary_lrc(r, j).G.a
    assert G.dtype == np.int64
    assert hashlib.sha256(G.tobytes()).hexdigest()[:16] == CONSTRUCTION2_GENERATORS[r, j]


def test_shorten_dual_is_punctured_dual():
    rng = np.random.default_rng(23)
    F = field_new(3)
    for _ in range(10):
        C = random_code(F, 6, 3, rng)
        for i in range(C.n):
            if not C.G.a[:, i].any():
                continue
            lhs = C.shorten(i).dual()
            punctured = MatrixGF(F, np.delete(C.H.a, i, axis=1))
            assert mat_rank(punctured) == lhs.k
            assert mat_rank(MatrixGF(F, np.vstack([punctured.a, lhs.G.a]))) == lhs.k  # same row space


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_edges_and_monotonicity():
    rng = np.random.default_rng(29)
    C = random_code(field_new(2), 8, 4, rng)
    assert C.entropy([]) == 0
    assert C.entropy(range(C.n)) == C.k
    for _ in range(30):
        size_j = int(rng.integers(1, C.n + 1))
        J = sorted(rng.choice(C.n, size=size_j, replace=False).tolist())
        I = J[: int(rng.integers(0, len(J) + 1))]
        assert C.entropy(I) <= C.entropy(J) <= min(len(J), C.k)
    with pytest.raises(PreconditionError):
        C.entropy([99])


# ---------------------------------------------------------------------------
# locality
# ---------------------------------------------------------------------------


def test_spc_locality():
    F = field_new(2)
    spc = code_from_parity_check(F, [[1, 1, 1, 1]])
    for i in range(4):
        r, w = _locality(spc, i)
        assert r == 3
        assert w.helpers == tuple(sorted(set(range(4)) - {i}))
        assert w.holds_for(spc)
    prof = spc.locality_profile()
    assert prof.shape() == ((4, 3),)
    ok, wit = spc.verify_profile(prof)
    assert ok and all(wit[i] is not None for i in range(4))


def test_locality_witness_relation_random():
    rng = np.random.default_rng(31)
    for q in (2, 3):
        F = field_new(q)
        for _ in range(6):
            C = random_code(F, 7, 3, rng)
            prof = C.locality_profile()
            assert prof.covers(C.n)
            ok, wits = C.verify_profile(prof)
            assert ok
            for i in range(C.n):
                r, w = _locality(C, i)
                assert w.holds_for(C)
                assert len(w.helpers) == r
                # r is exact: the profile class containing i has locality r
                cls = next(c for c in prof.classes if i in c.coordinates)
                assert cls.locality == r


def test_locality_restricted_mode():
    F = field_new(2)
    # [6,3] two disjoint SPC triples: coordinate 0 repairable within {0,1,2}
    C = code_from_parity_check(F, [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])
    r_all, _ = _locality(C, 0)
    r_in, w = _locality(C, 0, (1, 2))
    assert r_all == r_in == 2
    assert set(w.helpers) <= {1, 2}
    # restricting to the wrong half leaves no repair relation
    assert _locality(C, 0, (3, 4, 5)) is None


def test_profile_detection_is_canonical():
    rng = np.random.default_rng(37)
    C = random_code(field_new(2), 8, 4, rng)
    p1 = C.locality_profile()
    p2 = C.locality_profile()
    assert p1 == p2
    assert str(p1) == str(p2)


def test_strict_profile_on_stable_code():
    F = field_new(2)
    C = code_from_parity_check(F, [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])
    loose = C.locality_profile("loose")
    strict = C.locality_profile("strict")
    assert loose == strict == LocalityProfile(
        (LocalityClass(2, tuple(range(6))),)
    )


def test_verify_profile_rejects_too_tight_claim():
    F = field_new(2)
    spc = code_from_parity_check(F, [[1, 1, 1, 1]])
    claim = LocalityProfile((LocalityClass(2, (0, 1, 2, 3)),))
    ok, wits = spc.verify_profile(claim)
    assert not ok
    assert all(w is None for w in wits.values())
    generous = LocalityProfile((LocalityClass(3, (0, 1, 2, 3)),))
    ok, _ = spc.verify_profile(generous)
    assert ok


# ---------------------------------------------------------------------------
# Lemma-style rank/size property (exhaustive on small codes)
# ---------------------------------------------------------------------------


def test_rank_deficient_column_sets_are_small():
    # every column set with rank < k has size <= n - d (exhaustive subsets)
    rng = np.random.default_rng(43)
    for q in (2, 3):
        F = field_new(q)
        for _ in range(5):
            C = random_code(F, 7, 3, rng)
            d = C.min_distance()
            for size in range(1, C.n + 1):
                for I in itertools.combinations(range(C.n), size):
                    if C.entropy(I) < C.k:
                        assert size <= C.n - d


# ---------------------------------------------------------------------------
# repair-set and profile data validation
# ---------------------------------------------------------------------------


def test_repair_set_validation():
    with pytest.raises(PreconditionError):
        RepairSet(0, (), ())
    with pytest.raises(PreconditionError):
        RepairSet(0, (0, 1), (1, 1))
    with pytest.raises(PreconditionError):
        RepairSet(0, (1, 2), (1,))


def test_profile_validation():
    with pytest.raises(PreconditionError):
        LocalityProfile(())
    with pytest.raises(PreconditionError):
        LocalityProfile((LocalityClass(2, (0, 1)), LocalityClass(2, (2, 3))))
    with pytest.raises(PreconditionError):
        LocalityProfile((LocalityClass(2, (0, 1)), LocalityClass(3, (1, 2))))


def test_profile_string_round_trip():
    assert parse_profile_shape("(3,2),(8,3)") == ((3, 2), (8, 3))
    assert parse_profile_shape(" (3, 2) , (8, 3) ") == ((3, 2), (8, 3))
    assert format_profile_shape(((3, 2), (8, 3))) == "(3,2),(8,3)"
    for bad in ["", "3,2", "(3,2)(8,3)", "(3,2),(8,2)", "(0,2)", "(3,2),junk"]:
        with pytest.raises(ParseError):
            parse_profile_shape(bad)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_code_file_round_trip(tmp_path):
    rng = np.random.default_rng(47)
    for q, m in [(13, 1), (2, 4), (3, 2)]:
        F = field_new(q, m)
        C = random_code(F, 6, 3, rng)
        path = tmp_path / f"code_{q}_{m}.txt"
        save_code(C, path)
        D = load_code(path)
        assert C == D
        # byte identity on re-save
        save_code(D, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_code_file_alternate_modulus(tmp_path):
    F = field_new(2, 3, modulus=(1, 0, 1, 1))
    C = LinearCode(F, [[1, 2, 3], [4, 5, 6]])
    path = tmp_path / "alt.txt"
    save_code(C, path)
    D = load_code(path)
    assert D.field.modulus == (1, 0, 1, 1)
    assert C == D


def test_code_file_rejects_malformed(tmp_path):
    good = "q=4 p=2 m=2 n=3 k=1\nmodulus=1,1,1\n1 2 3\n"
    cases = [
        "",  # empty
        "q=4 p=2 m=1 n=3 k=1\n1 2 3\n",  # q != p^m
        "q=4 p=2 m=2 n=3 k=1\n1 2 3\n1 2 3\n",  # wrong row count
        "q=4 p=2 m=2 n=3 k=1\n1 2\n",  # wrong row length
        "q=4 p=2 m=2 n=3 k=1\n1 2 9\n",  # out of range
        "q=2 p=2 m=1 n=3 k=1\nmodulus=1,1\n1 0 1\n",  # modulus on prime field
        "n=3 q=4 p=2 m=2 k=1\n1 2 3\n",  # wrong key order
        "q=4 p=2 m=2 n=3 k=1\nmodulus=1,0,1\n1 2 3\n",  # reducible modulus
    ]
    p = tmp_path / "code.txt"
    p.write_text(good)
    assert load_code(p).n == 3
    for text in cases:
        p.write_text(text)
        with pytest.raises(ParseError):
            load_code(p)
