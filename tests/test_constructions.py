"""Tests for the construction module.

Oracle policy: distances tagged as derived facts are recomputed here by a
pure-Python codeword enumeration (`brute_distance`), written independently of
LinearCode.min_distance's ranked/transform implementation.  Locality values
are recomputed by direct subset scans over the generator columns
(`locality_by_rank_scan` for general fields, `binary_locality_scan` using
column XOR integers over GF(2)), independent of the dual-support scanner
inside LinearCode.  Expected values frozen below were produced by those
oracles and cross-checked by hand where small.
"""

import collections
import functools
import itertools
import random
import time
from math import comb

import numpy as np
import pytest

from mllrc import constructions, linear_code
from mllrc.bounds import griesmer_max_k, ml_alphabet, ml_singleton
from mllrc.constructions import (
    GccLevel,
    GccSpec,
    PyramidSpec,
    algorithm1_ml_lrc,
    algorithm3_ml_lrc,
    construction2_binary_lrc,
    construction2_gcc_spec,
    construction2_parameters,
    detect_repair_groups,
    entropy_set,
    extended_rs,
    gcc_generator,
    load_gcc_spec,
    load_pyramid_spec,
    ml_pyramid,
    predict_shortened_profile,
    pyramid_bound_shape,
    pyramid_profile,
    rate_dimension_limit,
    reed_solomon,
    save_gcc_spec,
    save_pyramid_spec,
    tamo_barg,
)
from mllrc.errors import BudgetError, ParseError, PreconditionError
from mllrc.galois import (
    MatrixGF,
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
)

F2 = field_new(2)
F4 = field_new(2, 2)
F7 = field_from_order(7)
F13 = field_from_order(13)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def brute_distance(code: LinearCode) -> int:
    """Minimum weight by plain message enumeration (independent oracle)."""
    F, G = code.field, code.G.a
    k, n = G.shape
    best = n
    for msg in itertools.product(range(F.q), repeat=k):
        if not any(msg):
            continue
        w = 0
        for j in range(n):
            acc = 0
            for i in range(k):
                if msg[i] and G[i, j]:
                    acc = int(F.add(acc, int(F.mul(msg[i], int(G[i, j])))))
            if acc:
                w += 1
        best = min(best, w)
    return best


def locality_by_rank_scan(code: LinearCode, i: int, r_max: int):
    """Smallest r <= r_max such that column i lies in the span of r other
    columns, by exhaustive subset ranks; None if no such r."""
    F, G = code.field, code.G.a
    others = [j for j in range(code.n) if j != i]
    for w in range(1, r_max + 1):
        for S in itertools.combinations(others, w):
            a = mat_rank(MatrixGF(F, G[:, list(S)]))
            b = mat_rank(MatrixGF(F, G[:, list(S) + [i]]))
            if a == b:
                return w
    return None


def column_ints(code: LinearCode) -> list[int]:
    G = code.G.a
    return [int("".join(str(v) for v in G[:, j]), 2) for j in range(code.n)]


def binary_locality_scan(code: LinearCode, i: int, r_max: int):
    """GF(2) locality by column-XOR subset scan: the smallest r <= r_max with
    some r columns XOR-ing to column i; None if no such r."""
    cols = column_ints(code)
    others = [cols[j] for j in range(code.n) if j != i]
    for w in range(1, r_max + 1):
        for S in itertools.combinations(others, w):
            acc = 0
            for v in S:
                acc ^= v
            if acc == cols[i]:
                return w
    return None


@functools.lru_cache(maxsize=None)
def _witness_cache(label: str):
    code = {
        "subgroup": lambda: tamo_barg(13, 12, 6, 3),
        "two-class": lambda: algorithm1_ml_lrc(tamo_barg(13, 12, 6, 3), 2, 3),
        "binary": lambda: construction2_binary_lrc(3, 0),
        "spc": lambda: LinearCode(
            F2,
            np.hstack([np.eye(3, dtype=np.int64), np.ones((3, 1), dtype=np.int64)]),
        ),
    }[label]()
    prof = code.locality_profile(mode="strict")
    ok, wit = code.verify_profile(prof, mode="strict")
    assert ok
    return code, prof, wit


def strict_witnesses(label: str):
    """Cached (code, strict profile, per-coordinate repair sets) triple."""
    return _witness_cache(label)


# ---------------------------------------------------------------------------
# evaluation base codes
# ---------------------------------------------------------------------------


class TestReedSolomon:
    def test_rs_is_mds(self):
        rs = reed_solomon(F7, 6, 3)
        assert (rs.n, rs.k) == (6, 3)
        assert brute_distance(rs) == 4  # n - k + 1

    @pytest.mark.parametrize("q", [2, 4, 7, 16, 17])
    def test_rows_are_powers_of_the_points(self, q):
        F = field_from_order(q)
        k = min(q, 4)
        expect = [[F.pow(x, i) for x in range(q)] for i in range(k)]
        assert reed_solomon(F, q, k).G.tolist() == expect

    def test_rs_rejects_bad_dims(self):
        with pytest.raises(PreconditionError):
            reed_solomon(F7, 8, 3)  # more points than field elements
        with pytest.raises(PreconditionError):
            reed_solomon(F7, 5, 0)
        with pytest.raises(PreconditionError):
            reed_solomon(F7, 5, 6)

    def test_extended_rs_is_mds(self):
        # [5, 2, 4] over GF(4): all 4 points plus the degree-1 coefficient.
        code = extended_rs(F4, 2)
        assert (code.n, code.k) == (5, 2)
        assert brute_distance(code) == 4
        assert code.G.tolist() == [[1, 1, 1, 1, 0], [0, 1, 2, 3, 1]]

    def test_extended_rs_binary_cases(self):
        rep = extended_rs(F2, 1)
        assert rep.G.tolist() == [[1, 1, 1]]  # [3, 1, 3] repetition
        spc = extended_rs(F2, 2)
        assert (spc.n, spc.k) == (3, 2)
        assert brute_distance(spc) == 2
        with pytest.raises(PreconditionError):
            extended_rs(F2, 3)


# ---------------------------------------------------------------------------
# subgroup evaluation codes
# ---------------------------------------------------------------------------


class TestTamoBarg:
    def test_main_instance_parameters(self):
        code = tamo_barg(13, 12, 6, 3)
        assert (code.n, code.k, code.q) == (12, 6, 13)
        assert code.min_distance() == 6

    def test_main_instance_localities_by_independent_scan(self):
        code = tamo_barg(13, 12, 6, 3)
        # every coordinate: no 2 other columns span it, some 3 do
        for i in range(12):
            assert locality_by_rank_scan(code, i, 3) == 3
        assert code.locality_profile(mode="strict").shape() == ((12, 3),)

    def test_repair_groups_are_point_cosets(self):
        code = tamo_barg(13, 12, 6, 3)
        assert detect_repair_groups(code, 3) == (
            (0, 1, 2, 3),
            (4, 5, 6, 7),
            (8, 9, 10, 11),
        )

    def test_small_instance_exact_generator(self):
        code = tamo_barg(5, 4, 2, 1)
        assert code.G.tolist() == [[1, 1, 1, 1], [1, 1, 4, 4]]
        assert brute_distance(code) == 2
        for i in range(4):
            assert locality_by_rank_scan(code, i, 1) == 1
        assert detect_repair_groups(code, 1) == ((0, 1), (2, 3))

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            tamo_barg(13, 8, 4, 3)  # n does not divide q-1
        with pytest.raises(PreconditionError):
            tamo_barg(13, 12, 4, 4)  # r+1 does not divide n
        with pytest.raises(PreconditionError):
            tamo_barg(13, 12, 5, 3)  # r does not divide k
        with pytest.raises(PreconditionError):
            tamo_barg(13, 12, 12, 3)  # dimension above the rate limit
        with pytest.raises(PreconditionError):
            tamo_barg(6, 5, 2, 1)  # not a prime power


# ---------------------------------------------------------------------------
# repair-group detection and validation
# ---------------------------------------------------------------------------


class TestRepairGroups:
    def test_detect_rejects_impossible_sizes(self):
        code = tamo_barg(13, 12, 6, 3)
        with pytest.raises(PreconditionError):
            detect_repair_groups(code, 4)  # 5 does not divide 12
        with pytest.raises(PreconditionError):
            detect_repair_groups(code, 0)

    def test_manual_groups_match_auto(self):
        code = tamo_barg(13, 12, 6, 3)
        auto = algorithm1_ml_lrc(code, 2, 3)
        manual = algorithm1_ml_lrc(
            code, 2, 3, repair_groups=[[3, 1, 0, 2], (8, 9, 10, 11), (5, 4, 7, 6)]
        )
        assert np.array_equal(auto.G.a, manual.G.a)

    def test_auto_detection_tries_group_sizes_beyond_n_minus_k(self):
        # two binary [5,4] single-parity blocks ([10,8]: r2 = 4 > n - k = 2)
        # and a [4,3] single-parity code (r2 = 3 > n - k = 1)
        blocks = code_from_parity_check(F2, [[1] * 5 + [0] * 5, [0] * 5 + [1] * 5])
        spc = code_from_parity_check(F2, [[1, 1, 1, 1]])
        for code, groups in ((blocks, [range(5), range(5, 10)]), (spc, [range(4)])):
            assert detect_repair_groups(code, code.n // len(groups) - 1) == tuple(
                tuple(g) for g in groups
            )
            auto = algorithm1_ml_lrc(code, 1, 2)
            manual = algorithm1_ml_lrc(code, 1, 2, repair_groups=groups)
            assert np.array_equal(auto.G.a, manual.G.a)
        assert algorithm1_ml_lrc(blocks, 1, 2).locality_profile().shape() == ((2, 1), (5, 4))

    @pytest.mark.parametrize("code,r,units", [
        (tamo_barg(13, 12, 6, 3), 3, 495 * 6 * 4),  # C(12, 4) rank tests of 6 x 4
        (construction2_binary_lrc(3, 0), 3, 4845),  # C(20, 4) XORs
    ])
    def test_detection_is_charged_before_any_subset(self, monkeypatch, code, r, units):
        monkeypatch.setattr(linear_code, "DEFAULT_BUDGET", units)
        assert detect_repair_groups(code, r)
        monkeypatch.setattr(linear_code, "DEFAULT_BUDGET", units - 1)
        monkeypatch.setattr(constructions, "_full_support_flags", None)  # never reached
        with pytest.raises(BudgetError) as exc:
            detect_repair_groups(code, r)
        assert str(exc.value) == (
            f"repair-group detection at r = {r} needs {units} units for "
            f"{comb(code.n, r + 1)} subsets; budget is {units - 1}"
        )

    def test_invalid_groups_rejected(self):
        code = tamo_barg(13, 12, 6, 3)
        cases = [
            ((0, 1, 2, 3), (4, 5, 6, 7)),  # does not cover
            ((0, 1, 2, 3), (3, 4, 5, 6), (7, 8, 9, 10), (2, 9, 10, 11)),  # overlap
            ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)),  # not repair groups
            ((0, 1, 2, 4), (3, 5, 6, 7), (8, 9, 10, 11)),  # no covering dual word
            ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 12)),  # out of range
            ((0, 1, 2, 2), (4, 5, 6, 7), (8, 9, 10, 11)),  # repeated coordinate
        ]
        for groups in cases:
            with pytest.raises(PreconditionError):
                algorithm1_ml_lrc(code, 2, 3, repair_groups=groups)


def full_support_reference(F, A, S) -> bool:
    """Some dual word has support exactly S: list every x in (F*)^S with
    itertools.product and test A[:, S] x = 0.  A kernel of more than 2^20
    words is refused with the library's BudgetError message."""
    cols = A[:, list(S)]
    dim = len(S) - mat_rank(MatrixGF(F, cols))
    if dim and F.q**dim > 1 << 20:
        raise BudgetError(
            f"kernel enumeration needs {F.q**dim} combinations (cap {1 << 20})"
        )
    X = np.array(list(itertools.product(range(1, F.q), repeat=len(S))))
    acc = np.zeros((A.shape[0], len(X)), dtype=np.int64)
    for j in range(len(S)):
        acc = F.add(acc, F.mul(cols[:, j][:, None], X[:, j][None, :]))
    return bool(np.any(np.all(acc == 0, axis=0)))


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (BudgetError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)


def _exact_cover(n: int, groups: list[tuple[int, ...]]):
    """Lexicographically smallest partition of range(n) into given groups."""
    groups = sorted(groups)
    by_coord: dict[int, list[tuple[int, ...]]] = {c: [] for c in range(n)}
    for g in groups:
        by_coord[g[0]].append(g)

    def dfs(covered: set, acc: list):
        if len(covered) == n:
            return tuple(acc)
        x = min(set(range(n)) - covered)
        for g in by_coord[x]:
            if covered & set(g):
                continue
            acc.append(g)
            res = dfs(covered | set(g), acc)
            if res is not None:
                return res
            acc.pop()
        return None

    return dfs(set(), [])


def detect_reference(code, r):
    """Eager detection: test every (r+1)-subset, then search for the cover."""
    cands = [
        S
        for S in itertools.combinations(range(code.n), r + 1)
        if full_support_reference(code.field, code.G.a, S)
    ]
    part = _exact_cover(code.n, cands)
    if part is None:
        raise PreconditionError(
            f"no partition of the {code.n} coordinates into disjoint repair "
            f"groups of size {r + 1}"
        )
    return part


def normalize_reference(code, groups):
    for i, g in enumerate(groups, 1):
        if not full_support_reference(code.field, code.G.a, g):
            raise PreconditionError(
                f"repair group {i} of {len(groups)} carries no dual word with "
                "full support"
            )
    return tuple(sorted(groups))


def random_columns(rng, F, k, n):
    """k x n matrix with some zero and some repeated columns."""
    A = np.array([[rng.randrange(F.q) for _ in range(n)] for _ in range(k)])
    for _ in range(rng.randrange(3)):
        A[:, rng.randrange(n)] = A[:, rng.randrange(n)]
    if rng.random() < 0.3:
        A[:, rng.randrange(n)] = 0
    return A


def grouped_code(rng, F, n, size):
    """A code whose coordinates fall into disjoint blocks of `size`, each of
    rank < size, mixed by random row operations and a random column
    permutation.  With probability 0.6 every block's rows are orthogonal to a
    random full-support vector, so the blocks are repair groups."""
    planted = rng.random() < 0.6
    blocks = []
    for _ in range(n // size):
        rank = rng.randint(1, size - 1)
        y = [rng.randrange(1, F.q) for _ in range(size)]
        block = np.zeros((rank, size), dtype=np.int64)
        while mat_rank(MatrixGF(F, block)) < rank:
            block = np.array(
                [[rng.randrange(F.q) for _ in range(size)] for _ in range(rank)]
            )
            if planted:  # solve for the last entry of each row: row . y = 0
                for row in block:
                    dot = 0
                    for a, b in zip(row[:-1], y[:-1]):
                        dot = F.add(dot, F.mul(int(a), b))
                    row[-1] = F.div(F.neg(dot), y[-1])
        blocks.append(block)
    k = sum(len(b) for b in blocks)
    G = np.zeros((k, n), dtype=np.int64)
    row = 0
    for i, b in enumerate(blocks):
        G[row : row + len(b), i * size : (i + 1) * size] = b
        row += len(b)
    for _ in range(2 * k if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        G[i] = F.add(G[i], F.mul(rng.randrange(F.q), G[j]))
    perm = list(range(n))
    rng.shuffle(perm)
    return LinearCode(F, G[:, perm])


# Largest subset size whose (q-1)^size full-support vectors the reference lists.
REFERENCE_SIZES = {2: 7, 3: 6, 4: 5, 9: 4, 13: 3, 16: 3}


class TestFullSupportFlags:
    @pytest.mark.parametrize("chunk", [1, 3, constructions._SUBSET_CHUNK])
    @pytest.mark.parametrize("q", sorted(REFERENCE_SIZES))
    def test_matches_brute_force(self, monkeypatch, q, chunk):
        monkeypatch.setattr(constructions, "_SUBSET_CHUNK", chunk)
        F = field_from_order(q)
        rng = random.Random(1000 * q + chunk)
        dims = set()
        for _ in range(20):
            n = rng.randint(2, 7)
            A = random_columns(rng, F, rng.randint(1, 4), n)
            size = rng.randint(2, min(n, REFERENCE_SIZES[q]))
            subsets = list(itertools.combinations(range(n), size))
            expect = [full_support_reference(F, A, S) for S in subsets]
            got = list(constructions._full_support_flags(F, A, subsets))
            assert got == expect, (q, A.tolist(), size)
            dims |= {
                min(size - mat_rank(MatrixGF(F, A[:, list(S)])), 2)
                for S in subsets
            }
        assert dims == {0, 1, 2}

    @pytest.mark.parametrize("chunk", [1, 3, constructions._SUBSET_CHUNK])
    def test_binary_xor_route_matches_elimination(self, monkeypatch, chunk):
        # k = 1..70 rows: partial bytes and more than 8 bytes per packed column
        monkeypatch.setattr(constructions, "_SUBSET_CHUNK", chunk)
        rng = random.Random(2000 + chunk)
        seen, zero_or_repeated = set(), 0
        for k in range(1, 71):
            n = rng.randint(2, 24)
            size = rng.randint(1, min(n, 20)) if k % 5 else min(n, 20)
            subsets = [
                tuple(sorted(rng.sample(range(n), size)))
                for _ in range(rng.randint(1, 40))
            ]
            A = random_columns(rng, F2, k, n)
            for S in subsets[::2]:  # make some subsets sum to zero
                A[:, S[-1]] = A[:, list(S[:-1])].sum(axis=1) % 2
            cols = {tuple(c) for c in A.T.tolist()}
            zero_or_repeated += len(cols) < n or (0,) * k in cols
            expect = list(constructions._elimination_flags(F2, A, np.array(subsets)))
            got = list(constructions._full_support_flags(F2, A, subsets))
            assert got == expect, (k, size, A.tolist(), subsets)
            seen |= set(got)
        assert seen == {False, True} and zero_or_repeated > 10

    def test_binary_subsets_up_to_the_cap_skip_elimination(self, monkeypatch):
        calls = []
        elimination = constructions._elimination_flags
        monkeypatch.setattr(
            constructions,
            "_elimination_flags",
            lambda F, A, S: calls.append(S.shape) or elimination(F, A, S),
        )
        A = np.zeros((1, 21), dtype=np.int64)
        assert list(constructions._full_support_flags(F2, A, [tuple(range(20))]))
        assert detect_repair_groups(construction2_binary_lrc(3, 0), 3)
        assert calls == []
        with pytest.raises(BudgetError):
            list(constructions._full_support_flags(F2, A, [tuple(range(21))]))
        assert calls == [(1, 21)]

    @pytest.mark.parametrize("seed", range(4))
    def test_binary_detect_and_normalize_match_reference(self, seed):
        rng = random.Random(300 + seed)
        found = 0
        for _ in range(5):
            size = rng.randint(2, 5)
            n = size * rng.randint(3, 16 // size)
            code = grouped_code(rng, F2, n, size)
            expect = outcome(detect_reference, code, size - 1)
            assert outcome(detect_repair_groups, code, size - 1) == expect
            found += isinstance(expect[0], tuple)
            perm = list(range(n))
            rng.shuffle(perm)
            groups = [tuple(sorted(perm[i : i + size])) for i in range(0, n, size)]
            if isinstance(expect[0], tuple) and rng.random() < 0.7:
                groups = list(expect)
                if rng.random() < 0.5:  # swap one coordinate of the last two
                    (*a, x), (y, *b) = groups[-2:]
                    groups[-2:] = [tuple(sorted(a + [y])), tuple(sorted(b + [x]))]
            assert outcome(constructions._normalize_groups, code, groups) == (
                outcome(normalize_reference, code, groups)
            )
        assert found

    def test_gcc2_r4_without_partition_is_refused_quickly(self):
        # C(45, 5) = 1,221,759 candidate subsets, none of which partition
        code = construction2_binary_lrc(4, 0)
        start = time.perf_counter()
        with pytest.raises(PreconditionError) as exc:
            detect_repair_groups(code, 4)
        assert time.perf_counter() - start < 5
        assert str(exc.value) == (
            "no partition of the 45 coordinates into disjoint repair groups of size 5"
        )

    @pytest.mark.parametrize("q,dim", [(2, 20), (16, 5)])
    def test_cap_edge(self, q, dim):
        F = field_from_order(q)
        A = np.zeros((1, dim + 1), dtype=np.int64)
        at_cap = tuple(range(dim))  # q^dim = 2^20 words: scanned
        assert list(constructions._full_support_flags(F, A, [at_cap])) == [True]
        with pytest.raises(BudgetError) as exc:
            list(constructions._full_support_flags(F, A, [tuple(range(dim + 1))]))
        assert str(exc.value) == (
            f"kernel enumeration needs {q ** (dim + 1)} combinations "
            f"(cap {1 << 20})"
        )

    @pytest.mark.parametrize("chunk", [1, 3, constructions._SUBSET_CHUNK])
    def test_budget_error_after_earlier_flags(self, monkeypatch, chunk):
        # GF(16), one row, columns 0 and 1 equal, 2..7 zero: the last 6-subset
        # has a 16^6-word kernel, every earlier one a 16^5 = 2^20-word kernel
        monkeypatch.setattr(constructions, "_SUBSET_CHUNK", chunk)
        F = field_from_order(16)
        A = np.zeros((1, 8), dtype=np.int64)
        A[0, :2] = 3
        subsets = list(itertools.combinations(range(8), 6))
        got = []
        with pytest.raises(BudgetError, match="needs 16777216 combinations"):
            for flag in constructions._full_support_flags(F, A, subsets):
                got.append(flag)
        assert got == [{0, 1} <= set(S) for S in subsets[:-1]]

    def test_detect_and_normalize_raise_in_order(self):
        F = field_from_order(16)
        over_cap = (
            "BudgetError",
            "kernel enumeration needs 16777216 combinations (cap 1048576)",
        )
        code = LinearCode(F, [[3, 0, 0, 0, 0, 0, 0]])  # a 16^6-word kernel
        assert outcome(detect_repair_groups, code, 6) == over_cap
        # columns 0..6 independent (no dual word), 7..13 a 16^6-word kernel
        G = np.zeros((7, 14), dtype=np.int64)
        G[:, :7] = np.eye(7, dtype=np.int64)
        G[0, 7] = 1
        code = LinearCode(F, G)
        first, second = tuple(range(7)), tuple(range(7, 14))
        assert outcome(constructions._normalize_groups, code, [first, second]) == (
            "PreconditionError",
            "repair group 1 of 2 carries no dual word with full support",
        )
        assert outcome(constructions._normalize_groups, code, [second, first]) == (
            over_cap
        )

    @pytest.mark.parametrize("chunk", [1, 3, constructions._SUBSET_CHUNK])
    @pytest.mark.parametrize("q", sorted(REFERENCE_SIZES))
    def test_detect_and_normalize_match_reference(self, monkeypatch, q, chunk):
        monkeypatch.setattr(constructions, "_SUBSET_CHUNK", chunk)
        F = field_from_order(q)
        rng = random.Random(7 * q + chunk)
        found = 0
        for _ in range(6):
            size = rng.randint(2, min(4, REFERENCE_SIZES[q]))
            n = size * rng.randint(1, 8 // size)
            code = grouped_code(rng, F, n, size)
            expect = outcome(detect_reference, code, size - 1)
            assert outcome(detect_repair_groups, code, size - 1) == expect
            found += isinstance(expect[0], tuple)
            perm = list(range(n))
            rng.shuffle(perm)
            groups = [tuple(sorted(perm[i : i + size])) for i in range(0, n, size)]
            assert outcome(constructions._normalize_groups, code, groups) == (
                outcome(normalize_reference, code, groups)
            )
        assert found


def walk_visits(n, cands) -> collections.Counter:
    """How often the cover search of _exact_cover branches on each coordinate."""
    by_coord: dict[int, list[tuple[int, ...]]] = {}
    for g in sorted(cands):
        by_coord.setdefault(g[0], []).append(g)
    visits = collections.Counter()

    def dfs(covered: set) -> bool:
        if len(covered) == n:
            return True
        x = min(set(range(n)) - covered)
        visits[x] += 1
        return any(
            not covered & set(g) and dfs(covered | set(g)) for g in by_coord.get(x, ())
        )

    dfs(set())
    return visits


def record_tested_subsets(monkeypatch) -> list:
    """Record every subset that _full_support_flags is asked about."""
    seen = []
    flags = constructions._full_support_flags

    def record(F, A, subsets):
        subsets = list(subsets)
        seen.extend(subsets)
        return flags(F, A, subsets)

    monkeypatch.setattr(constructions, "_full_support_flags", record)
    return seen


# (q, n, group size, seed): grouped_code(random.Random(seed), F, n, size) is a
# code whose cover search meets a dead end and then branches again on a
# coordinate it has branched on before.  The last column: a partition exists.
BACKTRACKING = [
    (2, 12, 4, 333, True), (2, 12, 4, 344, True), (2, 12, 4, 0, False),
    (3, 9, 3, 12, True), (3, 9, 3, 13, True), (3, 9, 3, 2, False),
    (16, 9, 3, 34, True), (16, 9, 3, 35, True), (16, 9, 3, 124, False),
    (17, 9, 3, 4, True), (17, 9, 3, 11, True), (17, 9, 3, 104, False),
]


class TestLazyDetection:
    @pytest.mark.parametrize("q,n,size,seed,partition", BACKTRACKING)
    def test_backtracking_reuses_each_batch(
        self, monkeypatch, q, n, size, seed, partition
    ):
        code = grouped_code(random.Random(seed), field_from_order(q), n, size)
        subsets = list(itertools.combinations(range(n), size))
        cands = [S for S in subsets if full_support_reference(code.field, code.G.a, S)]
        visits = walk_visits(n, cands)
        assert max(visits.values()) > 1
        expect = outcome(detect_reference, code, size - 1)
        assert isinstance(expect[0], tuple) == partition
        seen = record_tested_subsets(monkeypatch)
        assert outcome(detect_repair_groups, code, size - 1) == expect
        # one batch per coordinate branched on, each subset tested once
        assert len(seen) == len(set(seen))
        assert set(seen) == {S for S in subsets if S[0] in visits}

    @pytest.mark.parametrize("r,tested", [(3, 455 + 165 + 35 + 1), (1, 15)])
    def test_only_the_reached_subsets_are_tested(self, monkeypatch, r, tested):
        # [16,9]_17: groups (0..3), (4..7), ... at r = 3, so the walk branches
        # on 0, 4, 8, 12; at r = 1 no subset with least element 0 qualifies
        code = tamo_barg(17, 16, 9, 3)
        seen = record_tested_subsets(monkeypatch)
        if r == 3:
            assert detect_repair_groups(code, r) == tuple(
                tuple(range(i, i + 4)) for i in range(0, 16, 4)
            )
        else:
            with pytest.raises(PreconditionError, match="no partition"):
                detect_repair_groups(code, r)
        assert len(seen) == len(set(seen)) == tested < comb(16, r + 1)

    def test_unreached_subset_over_the_cap_is_never_tested(self):
        # GF(257), unit columns u, v, w: columns 1..4 are u, 2u, 3u, 4u, so
        # (1, 2, 3, 4) has a 257^3-word kernel, over the 2^20 cap.  The walk
        # places (0, 1, 2, 5), then (3, 4, 6, 7), and never branches on 1.
        F = field_from_order(257)
        u, v, w = np.eye(3, dtype=np.int64)
        code = LinearCode(F, np.array([v, u, 2 * u, 3 * u, 4 * u, v + u, w, w + u]).T)
        over_cap = "kernel enumeration needs 16974593 combinations (cap 1048576)"
        with pytest.raises(BudgetError) as exc:  # testing every subset
            list(constructions._full_support_flags(
                F, code.G.a, itertools.combinations(range(8), 4)
            ))
        assert str(exc.value) == over_cap
        groups = detect_repair_groups(code, 3)
        assert groups == ((0, 1, 2, 5), (3, 4, 6, 7))
        for g, y in zip(groups, ([-1, 1, -1, 1], [1, -1, -1, 1])):  # dual words
            assert not (code.G.a[:, list(g)] @ np.array(y) % 257).any()


# ---------------------------------------------------------------------------
# locality-splitting transforms
# ---------------------------------------------------------------------------


class TestAlgorithm1:
    def test_two_locality_code_from_subgroup_base(self):
        base = tamo_barg(13, 12, 6, 3)
        out = algorithm1_ml_lrc(base, 2, 3)
        assert (out.n, out.k) == (11, 5)
        assert out.min_distance() == 6
        # independent locality scan: coordinates 0-2 are 2-local, rest 3-local
        for i in range(3):
            assert locality_by_rank_scan(out, i, 3) == 2
        for i in range(3, 11):
            assert locality_by_rank_scan(out, i, 3) == 3
        assert out.locality_profile(mode="strict").shape() == ((3, 2), (8, 3))
        # distance matches the two-class size/locality bound exactly
        assert ml_singleton(((3, 2), (8, 3)), 5).bound_value == 6

    def test_equal_localities_is_identity(self):
        base = tamo_barg(13, 12, 6, 3)
        out = algorithm1_ml_lrc(base, 3, 4)
        assert np.array_equal(out.G.a, base.G.a)

    def test_binary_base_instance(self):
        base = construction2_binary_lrc(3, 0)
        out = algorithm1_ml_lrc(base, 2, 3)
        assert (out.n, out.k) == (19, 7)
        assert brute_distance(out) == 8
        for i in range(3):
            assert binary_locality_scan(out, i, 3) == 2
        for i in range(3, 19):
            assert binary_locality_scan(out, i, 3) == 3
        assert out.locality_profile(mode="strict").shape() == ((3, 2), (16, 3))

    def test_parameter_bookkeeping(self):
        # output length/dimension follow the deletion count exactly
        base = tamo_barg(13, 12, 6, 3)
        r1, n1, r2 = 2, 3, 3
        m = n1 // (r1 + 1)
        out = algorithm1_ml_lrc(base, r1, n1)
        assert out.n == base.n - m * (r2 - r1)
        assert out.k == base.k - m * (r2 - r1)
        n2 = base.n - m * (r2 + 1)
        assert out.n == n1 + n2

    def test_rate_restriction_holds(self):
        for out, shape in [
            (algorithm1_ml_lrc(tamo_barg(13, 12, 6, 3), 2, 3), ((3, 2), (8, 3))),
            (algorithm1_ml_lrc(construction2_binary_lrc(3, 0), 2, 3), ((3, 2), (16, 3))),
        ]:
            assert out.k <= rate_dimension_limit(shape)

    def test_preconditions(self):
        base = tamo_barg(13, 12, 6, 3)
        with pytest.raises(PreconditionError):
            algorithm1_ml_lrc(base, 2, 4)  # r1+1 does not divide n1
        with pytest.raises(PreconditionError):
            algorithm1_ml_lrc(base, 2, 12)  # needs 4 groups, only 3 exist
        with pytest.raises(PreconditionError):
            algorithm1_ml_lrc(base, 0, 0)


class TestAlgorithm3:
    def test_alpha_zero_is_identity(self):
        base = construction2_binary_lrc(3, 0)
        out = algorithm3_ml_lrc(base, 2, 0)
        assert np.array_equal(out.G.a, base.G.a)

    def test_alpha_one_matches_single_group_deletion(self):
        base = construction2_binary_lrc(3, 0)
        a3 = algorithm3_ml_lrc(base, 2, 1)
        a1 = algorithm1_ml_lrc(base, 2, 3)
        assert np.array_equal(a3.G.a, a1.G.a)
        # dimension meets the two-class alphabet-dependent bound exactly
        assert a3.k == 7
        assert ml_alphabet(((3, 2), (16, 3)), 8, 2).bound_value == 7

    def test_alpha_two_instance(self):
        base = construction2_binary_lrc(3, 0)
        out = algorithm3_ml_lrc(base, 2, 2)
        assert (out.n, out.k) == (18, 6)
        assert brute_distance(out) == 8
        # the guaranteed profile: 6 coordinates at locality <= 2, 12 at <= 3
        claim = LocalityProfile(
            (
                LocalityClass(2, tuple(range(6))),
                LocalityClass(3, tuple(range(6, 18))),
            )
        )
        ok, _ = out.verify_profile(claim, mode="loose")
        assert ok
        # on this binary instance the true localities beat the guarantee:
        # every coordinate has a weight-3 dual word through it
        for i in range(18):
            assert binary_locality_scan(out, i, 3) == 2
        assert out.locality_profile(mode="loose").shape() == ((18, 2),)

    def test_alpha_two_equals_shortening_the_alpha_one_code(self):
        base = construction2_binary_lrc(3, 0)
        a1 = algorithm3_ml_lrc(base, 2, 1)
        a2 = algorithm3_ml_lrc(base, 2, 2)
        # deleting the next group's smallest coordinate reaches the same code
        sh = a1.shorten(3)
        assert np.array_equal(mat_rref(sh.G)[0].a, mat_rref(a2.G)[0].a)

    def test_alpha_range_enforced(self):
        base = tamo_barg(13, 12, 6, 3)
        with pytest.raises(PreconditionError):
            algorithm3_ml_lrc(base, 2, 4)  # only 3 groups
        with pytest.raises(PreconditionError):
            algorithm3_ml_lrc(base, 2, -1)


# ---------------------------------------------------------------------------
# profile arithmetic for shortening
# ---------------------------------------------------------------------------


class TestPredictShortenedProfile:
    def test_single_class_splits(self):
        assert predict_shortened_profile(((12, 3),), 1) == ((3, 2), (8, 3))

    def test_adjacent_localities_merge(self):
        assert predict_shortened_profile(((3, 2), (8, 3)), 2) == ((6, 2), (4, 3))

    def test_gap_localities_insert(self):
        assert predict_shortened_profile(((2, 1), (8, 3)), 2) == (
            (2, 1),
            (3, 2),
            (4, 3),
        )

    def test_accepts_profile_objects(self):
        prof = LocalityProfile((LocalityClass(3, tuple(range(12))),))
        assert predict_shortened_profile(prof, 1) == ((3, 2), (8, 3))

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            predict_shortened_profile(((4, 3),), 1)  # class would not survive
        with pytest.raises(PreconditionError):
            predict_shortened_profile(((8, 1),), 1)  # split-off locality 0
        with pytest.raises(PreconditionError):
            predict_shortened_profile(((12, 3),), 2)  # class index out of range
        with pytest.raises(PreconditionError):
            predict_shortened_profile(((12, 3),), 0)

    def test_rate_limit_values(self):
        assert rate_dimension_limit(((12, 3),)) == 9
        assert rate_dimension_limit(((3, 2), (8, 3))) == 8

    @pytest.mark.parametrize("shape", [(), ((0, 2),), ((4, 0),), ((4, 3), (6, 2)),
                                       ((4, 2), (6, 2))],
                             ids=["empty", "size-0", "locality-0", "decreasing", "repeated"])
    def test_malformed_shapes_refused_as_by_the_bounds(self, shape):
        # one validator: the same PreconditionError text from all three
        messages = set()
        for check in (lambda: ml_singleton(shape, 1),
                      lambda: predict_shortened_profile(shape, 1),
                      lambda: rate_dimension_limit(shape)):
            with pytest.raises(PreconditionError) as exc:
                check()
            messages.add(str(exc.value))
        assert len(messages) == 1, messages


class TestShorteningRoundTrip:
    """Shortening a concrete code matches the profile predictor, and the
    distance still meets the size/locality bound."""

    def test_subgroup_code_first_shorten(self):
        base = tamo_barg(13, 12, 6, 3)
        sh = base.shorten(0)
        pred = predict_shortened_profile(((12, 3),), 1)
        assert sh.locality_profile(mode="loose").shape() == pred
        assert sh.min_distance() == 6 == ml_singleton(pred, 5).bound_value

    def test_two_class_code_second_shorten(self):
        code = algorithm1_ml_lrc(tamo_barg(13, 12, 6, 3), 2, 3)
        sh = code.shorten(3)  # first coordinate of the locality-3 class
        pred = predict_shortened_profile(((3, 2), (8, 3)), 2)
        assert pred == ((6, 2), (4, 3))
        assert sh.locality_profile(mode="loose").shape() == pred
        assert sh.min_distance() == 6 == ml_singleton(pred, 4).bound_value

    def test_binary_code_shorten_upper_bound_claim(self):
        # Over GF(2) extra short dual words appear, so the predictor's output
        # is verified as a guarantee (upper bounds), not as exact localities.
        code = algorithm1_ml_lrc(construction2_binary_lrc(3, 0), 2, 3)
        sh = code.shorten(3)
        pred = predict_shortened_profile(((3, 2), (16, 3)), 2)
        assert pred == ((6, 2), (12, 3))
        claim = LocalityProfile(
            (
                LocalityClass(2, tuple(range(6))),
                LocalityClass(3, tuple(range(6, 18))),
            )
        )
        ok, _ = sh.verify_profile(claim, mode="loose")
        assert ok
        d = brute_distance(sh)
        assert d == 8 <= ml_singleton(pred, 6).bound_value


# ---------------------------------------------------------------------------
# parity-splitting construction
# ---------------------------------------------------------------------------


class TestPyramid:
    def test_single_class_instance(self):
        spec = PyramidSpec(7, 4, ((4, 2),))
        code = ml_pyramid(spec)
        assert (code.n, code.k) == (8, 4)
        assert brute_distance(code) == 4
        # information and block-parity coordinates are 2-local
        for i in range(6):
            assert locality_by_rank_scan(code, i, 2) == 2
        prof = pyramid_profile(spec)
        assert [(c.locality, c.coordinates) for c in prof.classes] == [
            (2, (0, 1, 2, 3, 4, 5))
        ]
        # length bookkeeping: k + number of blocks + d - 2
        assert spec.n == 4 + 2 + 2

    def test_base_row_reduction_is_charged(self, monkeypatch):
        spec = PyramidSpec(7, 4, ((4, 2),))  # a 4 x 7 base: 4^2 * 7 units
        monkeypatch.setattr(linear_code, "DEFAULT_BUDGET", 112)
        assert ml_pyramid(spec).G.shape == (4, 8)
        monkeypatch.setattr(linear_code, "DEFAULT_BUDGET", 111)
        with pytest.raises(BudgetError) as exc:
            ml_pyramid(spec)
        assert str(exc.value) == (
            "pyramid construction needs 112 units for the 4 x 7 base; budget is 111"
        )
        # the spec's own checks come first: q = 7 < k + d - 1 = 9
        monkeypatch.setattr(linear_code, "DEFAULT_BUDGET", 1)
        with pytest.raises(PreconditionError, match="field size 7 too small"):
            ml_pyramid(PyramidSpec(7, 4, ((6, 2),)))

    def test_single_class_meets_size_bound(self):
        spec = PyramidSpec(7, 4, ((4, 2),))
        shape = pyramid_bound_shape(spec)
        assert shape == ((6, 2),)
        # declared-dimension evaluation: n - k + 2 - sum(ceil(k_i/r_i))
        assert spec.n - spec.k + 2 - 2 == 4

    def test_degenerates_to_mds_base(self):
        # one class with locality >= k: the single block parity is the first
        # systematic parity column, so the output is the systematic MDS base
        spec = PyramidSpec(7, 4, ((3, 4),))
        code = ml_pyramid(spec)
        base = reed_solomon(F7, 6, 3)
        R, piv = mat_rref(base.G)
        assert piv == (0, 1, 2)
        assert np.array_equal(code.G.a, R.a)

    def test_two_class_instance_meets_bound_with_equality(self):
        spec = PyramidSpec(7, 3, ((2, 1), (2, 2)))
        code = ml_pyramid(spec)
        assert code.n == 4 + 2 + 1 + 1 == 8
        d = brute_distance(code)
        assert d == 3
        shape = pyramid_bound_shape(spec)
        assert shape == ((4, 1), (3, 2))
        # declared-dimension evaluation: n - k + 2 - (kappa_1 + kappa_2)
        assert spec.n - spec.k + 2 - (2 + 1) == 3 == d
        # per-class information locality by independent scan
        for i in (0, 1):
            assert locality_by_rank_scan(code, i, 2) == 1
        for i in (2, 3):
            assert locality_by_rank_scan(code, i, 2) == 2
        prof = pyramid_profile(spec)
        assert [(c.locality, c.coordinates) for c in prof.classes] == [
            (1, (0, 1, 4, 5)),
            (2, (2, 3, 6)),
        ]

    def test_block_count_identity(self):
        # splitting one parity across ceil(k_i/r_i) blocks charges each class
        # exactly its information plus block-parity coordinates
        for dims in [((4, 2),), ((2, 1), (2, 2)), ((3, 2), (4, 3))]:
            spec = PyramidSpec(23, 3, dims)
            shape = pyramid_bound_shape(spec)
            for (k_i, r_i), (size, r_out) in zip(dims, shape):
                assert r_out == r_i
                assert size == k_i + -(-k_i // r_i)
            # the d-2 shared parities appear in the length but in no class
            assert spec.n == sum(size for size, _ in shape) + spec.d - 2

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            ml_pyramid(PyramidSpec(7, 5, ((4, 2),)))  # q < k+d-1
        with pytest.raises(PreconditionError):
            PyramidSpec(6, 4, ((4, 2),))  # not a prime power
        with pytest.raises(PreconditionError):
            PyramidSpec(7, 1, ((4, 2),))  # distance too small
        with pytest.raises(PreconditionError):
            PyramidSpec(7, 4, ((2, 2), (2, 2)))  # localities equal
        with pytest.raises(PreconditionError, match="class size must be >= 1"):
            PyramidSpec(7, 4, ((0, 2),))
        with pytest.raises(PreconditionError, match="locality must be >= 1"):
            PyramidSpec(7, 4, ((4, 0),))


# ---------------------------------------------------------------------------
# generalized concatenation
# ---------------------------------------------------------------------------


class TestGcc:
    def test_single_level_is_kronecker(self):
        F3 = field_new(3)
        A = LinearCode(F3, [[1, 2, 0], [0, 1, 1]])
        band = MatrixGF(F3, [[1, 1, 2]])
        code = gcc_generator(GccSpec(F3, (GccLevel(A, 1, band),)))
        assert np.array_equal(code.G.a, np.kron(A.G.a, band.a) % 3)

    def test_multiplicity_stacks_kronecker_blocks(self):
        A = LinearCode(F2, [[1, 0, 1, 1], [0, 1, 1, 0]])
        band = MatrixGF(F2, [[1, 0, 1], [0, 1, 1]])
        code = gcc_generator(GccSpec(F2, (GccLevel(A, 2, band),)))
        want = np.vstack([np.kron(A.G.a, band.a[:1]), np.kron(A.G.a, band.a[1:])]) % 2
        assert np.array_equal(code.G.a, want)

    def test_two_level_binary_parameters(self):
        spec = construction2_gcc_spec(3, 0)
        assert spec.s == 2 and spec.N == 5 and spec.n_b == 4
        assert (spec.n, spec.k) == (20, 8)
        # component codes
        A1, A2 = (lvl.outer for lvl in spec.levels)
        assert (A1.n, A1.k, A1.q) == (5, 2, 4)
        assert brute_distance(A1) == 4
        assert (A2.n, A2.k, A2.q) == (5, 4, 2)
        assert brute_distance(A2) == 2
        B1, B2 = spec.inner_chain()
        assert (B1.n, B1.k) == (4, 3) and brute_distance(B1) == 2
        assert (B2.n, B2.k) == (4, 1) and brute_distance(B2) == 4

    def test_random_two_level_distance_floor(self):
        # concatenated distance >= min over levels of (outer distance) times
        # (distance of the inner code spanned by that level's band onward)
        rng = np.random.default_rng(7)

        def rand_code(n, k):
            while True:
                Gm = rng.integers(0, 2, size=(k, n))
                if mat_rank(MatrixGF(F2, Gm)) == k:
                    return LinearCode(F2, Gm)

        checked = 0
        while checked < 30:
            lam1 = int(rng.integers(1, 3))
            stack = rng.integers(0, 2, size=(lam1 + 1, 3))
            if mat_rank(MatrixGF(F2, stack)) != lam1 + 1:
                continue
            A1 = rand_code(4, int(rng.integers(1, 4)))
            A2 = rand_code(4, int(rng.integers(1, 4)))
            spec = GccSpec(
                F2,
                (
                    GccLevel(A1, lam1, MatrixGF(F2, stack[:lam1])),
                    GccLevel(A2, 1, MatrixGF(F2, stack[lam1:])),
                ),
            )
            if spec.k > 8:
                continue
            code = gcc_generator(spec)
            assert (code.n, code.k) == (spec.n, spec.k)
            floor = min(
                outer.min_distance() * inner.min_distance()
                for outer, inner in zip((A1, A2), spec.inner_chain())
            )
            assert brute_distance(code) >= floor
            checked += 1

    def test_spec_validation(self):
        A = LinearCode(F2, [[1, 0, 1, 1]])
        band = MatrixGF(F2, [[1, 0, 1]])
        with pytest.raises(PreconditionError):
            GccSpec(F2, ())  # no levels
        with pytest.raises(PreconditionError):
            GccSpec(F2, (GccLevel(A, 0, band),))  # multiplicity < 1
        with pytest.raises(PreconditionError):
            GccSpec(F2, (GccLevel(A, 2, band),))  # band rows != multiplicity
        other = LinearCode(F2, [[1, 1, 0]])  # different outer length
        with pytest.raises(PreconditionError):
            GccSpec(
                F2,
                (GccLevel(A, 1, band), GccLevel(other, 1, MatrixGF(F2, [[1, 1, 1]]))),
            )
        with pytest.raises(PreconditionError):
            GccSpec(F4, (GccLevel(A, 1, band),))  # band not over the base field
        # rank-deficient stacked bands
        A2 = LinearCode(F2, [[1, 1, 1, 0]])
        with pytest.raises(PreconditionError):
            GccSpec(
                F2,
                (
                    GccLevel(A, 1, MatrixGF(F2, [[1, 0, 1]])),
                    GccLevel(A2, 1, MatrixGF(F2, [[1, 0, 1]])),
                ),
            )
        # extension of a non-prime base field is not supported
        F16 = field_new(2, 4)
        A16 = LinearCode(F16, [[1, 2, 4]])
        with pytest.raises(PreconditionError):
            GccSpec(F4, (GccLevel(A16, 1, MatrixGF(F4, [[1, 1]])),))


# ---------------------------------------------------------------------------
# the binary two-level family
# ---------------------------------------------------------------------------


class TestConstruction2:
    def test_parameter_formula(self):
        for r in (2, 3, 4):
            q1 = 2 ** (r - 1)
            for j in range(q1 - r + 1):
                n, k, d = construction2_parameters(r, j)
                assert n == (r + 1) * (q1 + 1 - j)
                assert k == r * (q1 - r + 2 - j) - 1
                assert d == 2 * (r + 1)

    def test_j_range(self):
        with pytest.raises(PreconditionError):
            construction2_parameters(2, 1)
        with pytest.raises(PreconditionError):
            construction2_parameters(3, 2)
        with pytest.raises(PreconditionError):
            construction2_parameters(4, -1)
        with pytest.raises(PreconditionError):
            construction2_parameters(1, 0)

    def test_r3_full_length(self):
        code = construction2_binary_lrc(3, 0)
        assert (code.n, code.k) == (20, 8)
        assert brute_distance(code) == 8 == construction2_parameters(3, 0)[2]
        # strict 3-locality by independent column-XOR scan
        for i in range(20):
            assert binary_locality_scan(code, i, 3) == 3
        assert code.locality_profile(mode="strict").shape() == ((20, 3),)
        assert detect_repair_groups(code, 3) == tuple(
            tuple(range(4 * b, 4 * b + 4)) for b in range(5)
        )

    def test_r3_shortened_once(self):
        code = construction2_binary_lrc(3, 1)
        assert (code.n, code.k) == (16, 5)
        assert brute_distance(code) == 8 == construction2_parameters(3, 1)[2]
        claim = LocalityProfile((LocalityClass(3, tuple(range(16))),))
        ok, _ = code.verify_profile(claim, mode="loose")
        assert ok

    def test_r2_distance_falls_short_of_stated_triple(self):
        # The stated triple is [9, 3, 6], but no binary [9, 3, 6] code exists:
        # the Griesmer length bound caps k at 2 for n = 9, d = 6.  The r = 2
        # inner pair is not nested (the all-ones row has odd length-3 weight),
        # and the assembled code's true distance is 4.
        assert construction2_parameters(2, 0) == (9, 3, 6)
        assert griesmer_max_k(2, 9, 6) == 2
        code = construction2_binary_lrc(2, 0)
        assert (code.n, code.k) == (9, 3)
        assert brute_distance(code) == 4
        assert griesmer_max_k(2, 9, 4) >= 3  # the actual code is feasible
        # 2-locality still holds (repeated columns pair coordinates up)
        for i in range(9):
            assert binary_locality_scan(code, i, 2) <= 2

    def test_r4_parameters_and_block_localities(self):
        # [45, 23]: parameter and per-block locality checks only.  The code is
        # not too large to enumerate (distance and loose profile take about
        # 15 ms on a 2-core x86-64 host: d = 6, profile (36,3),(9,8)), but
        # those values are not pinned here.
        code = construction2_binary_lrc(4, 0)
        assert (code.n, code.k) == construction2_parameters(4, 0)[:2]
        cols = column_ints(code)
        # within each 5-coordinate block, positions {0,1,2,4} carry a
        # weight-4 dual word (in-block pattern 1 1 1 0 1): 3-local coordinates
        for b in range(9):
            block = [5 * b + t for t in range(5)]
            assert cols[block[0]] ^ cols[block[1]] ^ cols[block[2]] ^ cols[block[4]] == 0
        # the skipped in-block position has NO dual word of weight <= 5
        # through it (meet-in-the-middle over column XORs), so its locality
        # exceeds the nominal 4: the even-r inner pair is not nested and the
        # stated r-locality fails at one position per block.
        target = cols[3]
        others = [(j, cols[j]) for j in range(45) if j != 3]
        assert all(v != target for _, v in others)  # no weight-2 word
        pair_x: dict[int, list[tuple[int, int]]] = {}
        found_small = False
        for (a, va), (bb, vb) in itertools.combinations(others, 2):
            if va ^ vb == target:
                found_small = True  # weight-3 word
            pair_x.setdefault(va ^ vb, []).append((a, bb))
        for j, v in others:  # weight-4 word: pair + single
            if found_small:
                break
            for a, bb in pair_x.get(v ^ target, ()):
                if j not in (a, bb):
                    found_small = True
                    break
        if not found_small:  # weight-5 word: two disjoint pairs
            for x, pairs in pair_x.items():
                for a, bb in pairs:
                    for c, dd in pair_x.get(x ^ target, ()):
                        if len({a, bb, c, dd}) == 4:
                            found_small = True
                            break
                    if found_small:
                        break
                if found_small:
                    break
        assert not found_small

    def test_shortening_happens_at_the_extension_column_first(self):
        spec0 = construction2_gcc_spec(3, 0)
        spec1 = construction2_gcc_spec(3, 1)
        A1_0, A1_1 = spec0.levels[0].outer, spec1.levels[0].outer
        assert (A1_1.n, A1_1.k) == (A1_0.n - 1, A1_0.k - 1)
        # the shortened outer code is the plain (unextended) evaluation code
        assert np.array_equal(A1_1.G.a, reed_solomon(F4, 4, 1).G.a)


# ---------------------------------------------------------------------------
# greedy coordinate sets for dimension certificates
# ---------------------------------------------------------------------------


class TestEntropySet:
    def test_single_group_level(self):
        code, prof, wit = strict_witnesses("subgroup")
        I = entropy_set(prof.classes[0], wit, 1)
        assert I == (0, 1, 2, 3)
        assert len(I) == 4
        assert code.entropy(I) <= 3

    def test_full_class_cap(self):
        code, prof, wit = strict_witnesses("two-class")
        cls = prof.classes[1]
        assert (len(cls.coordinates), cls.locality) == (8, 3)
        I = entropy_set(cls, wit, 2)
        assert len(I) == 8
        e = code.entropy(I)
        assert e <= 6 == -(-3 * 8 // 4)

    def test_parity_check_code_full_set(self):
        spc, prof, wit = strict_witnesses("spc")
        I = entropy_set(prof.classes[0], wit, 1)
        assert I == (0, 1, 2, 3)
        assert spc.entropy(I) == 3

    def test_postconditions_across_instances(self):
        for label in ("subgroup", "two-class", "binary"):
            code, prof, wit = strict_witnesses(label)
            for cls in prof.classes:
                n_i, r = len(cls.coordinates), cls.locality
                t_max = -(-n_i // (r + 1))
                for t in range(1, t_max + 1):
                    I = entropy_set(cls, wit, t)
                    assert len(I) == min(t * (r + 1), n_i)
                    e = code.entropy(I)
                    assert e <= t * r
                    assert e <= len(I) - t
                    if t == t_max:
                        assert e <= -(-r * n_i // (r + 1))

    def test_accepts_repair_set_iterables(self):
        code, prof, wit = strict_witnesses("subgroup")
        as_list = [rs for rs in wit.values()]
        assert entropy_set(prof.classes[0], as_list, 1) == entropy_set(
            prof.classes[0], wit, 1
        )

    def test_preconditions(self):
        code, prof, wit = strict_witnesses("subgroup")
        cls = prof.classes[0]
        with pytest.raises(PreconditionError):
            entropy_set(cls, wit, 0)
        with pytest.raises(PreconditionError):
            entropy_set(cls, wit, 4)  # t above ceil(12/4)
        partial = {c: wit[c] for c in range(11)}
        with pytest.raises(PreconditionError):
            entropy_set(cls, partial, 1)  # coordinate 11 lacks a repair set
        with pytest.raises(PreconditionError):
            entropy_set(cls, {**wit, 11: None}, 1)
        outside = {
            **wit,
            0: RepairSet(target=0, helpers=(1, 2, 12), coefficients=(1, 1, 1)),
        }
        with pytest.raises(PreconditionError):
            entropy_set(cls, outside, 1)  # helper 12 outside the class
        toobig = {
            **wit,
            0: RepairSet(target=0, helpers=(1, 2, 3, 4), coefficients=(1, 1, 1, 1)),
        }
        with pytest.raises(PreconditionError):
            entropy_set(cls, toobig, 1)  # more helpers than the locality


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------


class TestSpecFiles:
    def test_gcc_round_trip(self, tmp_path):
        spec = construction2_gcc_spec(3, 0)
        path = tmp_path / "two_level.gcc"
        save_gcc_spec(spec, path)
        loaded = load_gcc_spec(path)
        assert loaded.s == spec.s
        assert np.array_equal(
            gcc_generator(loaded).G.a, gcc_generator(spec).G.a
        )

    def test_gcc_round_trip_prime_field(self, tmp_path):
        F3 = field_new(3)
        spec = GccSpec(
            F3,
            (GccLevel(LinearCode(F3, [[1, 2, 0], [0, 1, 1]]), 1, MatrixGF(F3, [[1, 1, 2]])),),
        )
        path = tmp_path / "single.gcc"
        save_gcc_spec(spec, path)
        loaded = load_gcc_spec(path)
        assert np.array_equal(gcc_generator(loaded).G.a, gcc_generator(spec).G.a)

    def test_pyramid_round_trip(self, tmp_path):
        spec = PyramidSpec(7, 3, ((2, 1), (2, 2)))
        path = tmp_path / "split.pyramid"
        save_pyramid_spec(spec, path)
        assert load_pyramid_spec(path) == spec

    def test_gcc_malformed_files(self, tmp_path):
        good = tmp_path / "good.gcc"
        save_gcc_spec(construction2_gcc_spec(3, 0), good)
        text = good.read_text()
        cases = [
            ("stray", "q=2\n[gcc]\nlevels=1\n"),  # content before a section
            ("first", text.replace("[gcc]", "[outer 9]", 1)),
            ("unknown-key", text.replace("q=2", "q=2\nzz=1", 1)),
            ("mult-count", text.replace("multiplicities=1,1", "multiplicities=1", 1)),
            ("missing-band", text.replace("[band 2]", "[band 3]", 1)),
            ("bad-entry", text.replace("1 1 1 1", "1 x 1 1", 1)),
            ("unknown-section", text + "\n[extra]\nq=1\n"),
            ("dup-key", text.replace("q=2", "q=2\nq=2", 1)),
        ]
        for name, content in cases:
            p = tmp_path / f"{name}.gcc"
            p.write_text(content)
            with pytest.raises(ParseError):
                load_gcc_spec(p)

    def test_gcc_invalid_spec_content_becomes_parse_error(self, tmp_path):
        good = tmp_path / "good.gcc"
        save_gcc_spec(construction2_gcc_spec(3, 0), good)
        # make the two bands identical: stacked bands lose rank
        text = good.read_text().replace(
            "[band 2]\n1 1 1 1", "[band 2]\n1 0 0 1"
        )
        p = tmp_path / "rank.gcc"
        p.write_text(text)
        with pytest.raises(ParseError):
            load_gcc_spec(p)

    def test_pyramid_malformed_files(self, tmp_path):
        cases = [
            "[pyramid]\nd=3\nclasses=(2,1)\n",  # missing q
            "[pyramid]\nq=7\nd=3\n",  # missing classes
            "[pyramid]\nq=7\nd=3\nclasses=(2,1),(3,1)\n",  # duplicate locality
            "[pyramid]\nq=7\nd=3\nclasses=(2,1)\nzz=1\n",  # unknown key
            "[pyramid]\nq=6\nd=3\nclasses=(2,1)\n",  # not a prime power
            "[pyramid]\nq=7\nd=x\nclasses=(2,1)\n",  # non-integer
            "[pyramid]\nq=7\nd=3\nclasses=(2,1)\n[pyramid]\nq=7\nd=3\nclasses=(2,1)\n",
        ]
        # class order in the file is not significant: the profile grammar
        # canonicalizes by locality
        unsorted = tmp_path / "unsorted.pyramid"
        unsorted.write_text("[pyramid]\nq=7\nd=3\nclasses=(2,2),(2,1)\n")
        assert load_pyramid_spec(unsorted).dims == ((2, 1), (2, 2))
        for i, content in enumerate(cases):
            p = tmp_path / f"bad{i}.pyramid"
            p.write_text(content)
            with pytest.raises(ParseError):
                load_pyramid_spec(p)
