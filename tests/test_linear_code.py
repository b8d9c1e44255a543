"""Code-level primitives against independent brute-force oracles.

The distance oracle here lists every codeword by plain itertools message
enumeration and takes the minimum Hamming weight in pure Python — a separate
code path from the library's block enumeration.  Frozen expectations for the
trivial cases (repetition, SPC) are asserted directly.
"""

import itertools
import random

import numpy as np
import pytest

import mllrc.linear_code as linear_code
from mllrc.errors import BudgetError, ParseError, PreconditionError
from mllrc.galois import MatrixGF, field_new, mat_rank
from mllrc.linear_code import (
    LinearCode,
    LocalityClass,
    LocalityProfile,
    RepairSet,
    code_from_generator,
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
    C = code_from_generator(F, np.eye(4, dtype=np.int64))
    assert (C.n, C.k) == (4, 4)
    assert C.H.shape == (0, 4)
    with pytest.raises(PreconditionError):
        C.dual()


def test_spc_from_parity_check():
    F = field_new(2)
    C = code_from_parity_check(F, [[1, 1, 1, 1]])
    assert (C.n, C.k) == (4, 3)
    assert C.min_distance() == 2
    prod = C.G @ C.H.transpose()
    assert not prod.a.any()


def test_dual_of_dual_same_row_space():
    rng = np.random.default_rng(41)
    for q, m in [(2, 1), (3, 1), (2, 2)]:
        F = field_new(q, m)
        C = random_code(F, 6, 3, rng)
        DD = C.dual().dual()
        assert DD.k == C.k
        # same row space: each generator of one is in the kernel of the other's H
        assert not (C.G @ DD.H.transpose()).a.any()
        assert not (DD.G @ C.H.transpose()).a.any()


def test_rank_deficient_generator_rejected():
    F = field_new(2)
    with pytest.raises(PreconditionError):
        LinearCode(F, [[1, 0, 1], [1, 0, 1]])
    with pytest.raises(PreconditionError):
        code_from_parity_check(F, [[1, 1, 0], [1, 1, 0]])


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


def test_dual_side_distance_path():
    # force the MacWilliams route by a budget between q^{n-k} and q^k
    rng = np.random.default_rng(13)
    for _ in range(10):
        C = random_code(field_new(2), 10, 7, rng)
        direct = LinearCode(C.field, C.G.a).min_distance()
        via_dual = LinearCode(C.field, C.G.a).min_distance(budget=2**9)
        assert via_dual == direct  # 2^7 > 2^9? no: 128 < 512 -> primal;
    # tighter: budget below q^k but at least q^{n-k}
    for _ in range(10):
        C = random_code(field_new(2), 12, 9, rng)
        direct = LinearCode(C.field, C.G.a).min_distance()
        via_dual = LinearCode(C.field, C.G.a).min_distance(budget=2**9 - 1)
        assert via_dual == direct


def test_budget_hard_error():
    # both q^k and q^(n-k) exceed the budget -> neither route is allowed
    C = LinearCode(
        field_new(2), [[1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1], [0, 0, 1, 0, 1, 1]]
    )
    with pytest.raises(BudgetError):
        C.min_distance(budget=5)
    with pytest.raises(PreconditionError):
        C.min_distance(budget=0)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("MLLRC_BUDGET", "3")
    C = LinearCode(field_new(2), [[1, 1, 0, 0], [0, 1, 1, 1]])
    with pytest.raises(BudgetError):
        C.min_distance()
    monkeypatch.delenv("MLLRC_BUDGET")
    assert C.min_distance() == 2


@pytest.mark.parametrize("value", ["abc", "0", "-4", "1.5"])
def test_budget_env_malformed(monkeypatch, value):
    monkeypatch.setenv("MLLRC_BUDGET", value)
    assert resolve_budget(7) == 7  # an explicit budget wins
    with pytest.raises(PreconditionError, match="MLLRC_BUDGET"):
        resolve_budget()
    C = LinearCode(field_new(2), [[1, 1, 0, 0], [0, 1, 1, 1]])
    with pytest.raises(PreconditionError):
        C.min_distance()


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
        assert any(k <= linear_code._low_rows(q, k) for _, k in shapes)
        assert any(k > linear_code._low_rows(q, k) for _, k in shapes)
    assert any(n - k > linear_code._low_rows(p**m, n - k)
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
        want = ref.repair(dual_words, i, helpers | {i})
        if want is None:
            with pytest.raises(PreconditionError):
                C.locality_of_coordinate(i, restrict_to=helpers)
        else:
            assert C.locality_of_coordinate(i, restrict_to=helpers) == want


@pytest.mark.parametrize("low_words", [1, 9, 1 << 12])
def test_split_table_visits_every_word_in_message_order(monkeypatch, low_words):
    # a small codebook bound forces several chunk levels on small inputs
    monkeypatch.setattr(linear_code, "_LOW_WORDS", low_words)
    rng = random.Random(low_words)
    for field, n, k in [((2, 1), 5, 7), ((3, 1), 4, 5), ((2, 2), 3, 4),
                        ((3, 2), 3, 3), ((257, 1), 2, 2)]:
        F = field_new(*field)
        G = [[rng.randrange(F.q) for _ in range(n)] for _ in range(k)]
        table = linear_code._SplitTable(F, np.array(G, dtype=np.int64))
        seen = [(0,) * n]  # the zero word is never yielded
        for first, neg_high, eq, zeros in table.blocks():
            for c in range(eq.shape[1]):
                w = table.word(first + c, neg_high)
                assert eq[:, c].tolist() == (w == 0).tolist()
                assert zeros[c] == n - np.count_nonzero(w)
                seen.append(tuple(w.tolist()))
        # message digit 0 is least significant; itertools varies the last
        # position fastest, so the reference lists the rows reversed
        assert seen == _Ref(F).words(G[::-1])


def test_kernel_budget_edge_is_still_refused():
    # the budget charges the nominal q^k / q^dim words before enumerating
    F = field_new(3)
    C = _random_full_code(F, 9, 8, random.Random(5))
    assert C.q ** (C.n - C.k) == 3
    with pytest.raises(BudgetError):
        LinearCode(F, C.G.a).min_distance(budget=2)
    assert LinearCode(F, C.G.a).min_distance(budget=3) == C.min_distance()
    D = _random_full_code(F, 9, 1, random.Random(5))  # dual dimension 8
    with pytest.raises(BudgetError):
        D.locality_profile(budget=3**8 - 1)
    with pytest.raises(BudgetError):
        D.locality_of_coordinate(0, budget=3**8 - 1)
    D.locality_profile(budget=3**8)


# ---------------------------------------------------------------------------
# shortening and puncturing
# ---------------------------------------------------------------------------


def test_spc_shortens_to_spc():
    F = field_new(2)
    spc4 = code_from_parity_check(F, [[1, 1, 1, 1]])
    s = spc4.shorten(0)
    assert (s.n, s.k, s.min_distance()) == (3, 2, 2)
    spc3 = code_from_parity_check(F, [[1, 1, 1]])
    assert not (s.G @ spc3.H.transpose()).a.any()  # same code


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


def test_shorten_zero_column_handling():
    F = field_new(2)
    C = LinearCode(F, [[1, 0, 1], [0, 0, 1]])
    with pytest.raises(PreconditionError):
        C.shorten(1)
    S = C.shorten(1, allow_zero_column=True)
    assert (S.n, S.k) == (2, 2)
    with pytest.raises(PreconditionError):
        LinearCode(F, [[1, 1]]).shorten(0)  # would empty the code
    with pytest.raises(PreconditionError):
        C.shorten(5)


def test_shorten_dual_is_punctured_dual():
    rng = np.random.default_rng(23)
    F = field_new(3)
    for _ in range(10):
        C = random_code(F, 6, 3, rng)
        for i in range(C.n):
            if not C.G.a[:, i].any():
                continue
            lhs = C.shorten(i).dual()
            rhs = C.dual().puncture(i)
            assert lhs.k == rhs.k
            assert not (lhs.G @ rhs.H.transpose()).a.any()


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
        r, w = spc.locality_of_coordinate(i)
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
                r, w = C.locality_of_coordinate(i)
                assert w.holds_for(C)
                assert len(w.helpers) == r
                # r is exact: the profile class containing i has locality r
                cls = next(c for c in prof.classes if i in c.coordinates)
                assert cls.locality == r


def test_locality_restricted_mode():
    F = field_new(2)
    # [6,3] two disjoint SPC triples: coordinate 0 repairable within {0,1,2}
    C = code_from_parity_check(F, [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])
    r_all, _ = C.locality_of_coordinate(0)
    r_in, w = C.locality_of_coordinate(0, restrict_to=(1, 2))
    assert r_all == r_in == 2
    assert set(w.helpers) <= {1, 2}
    # restricting to the wrong half leaves no repair relation
    with pytest.raises(PreconditionError):
        C.locality_of_coordinate(0, restrict_to=(3, 4, 5))


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


def test_sample_codewords_deterministic():
    C = LinearCode(field_new(5), [[1, 2, 3, 4], [0, 1, 2, 3]])
    a = C.sample_codewords(5, seed=99)
    b = C.sample_codewords(5, seed=99)
    assert np.array_equal(a, b)
    # every sample is a codeword: annihilated by H
    prod = (a @ C.H.a.T) % 5
    assert not prod.any()
