"""Acceptance suite: twelve numbered criteria, one test (and one pytest
pass/fail line under -v) per criterion.  All equalities are exact — no
tolerances anywhere.

Criterion 5 is implemented exactly as stated and is expected to FAIL
honestly at the (r, j) = (2, 0) leg: the stated family distance there is
2(r+1) = 6, but no [9, 3, 6] binary code exists (the Griesmer bound caps the
dimension of a length-9 distance-6 binary code at 2), and the assembled
code's true enumerated distance is 4.  See the r=2 tests in
test_constructions.py for the honest characterization of that instance.
"""

import itertools
import random

import numpy as np
import pytest

from mllrc import (
    GccLevel,
    GccSpec,
    KOptOracle,
    LinearCode,
    algorithm1_ml_lrc,
    algorithm3_ml_lrc,
    certify,
    check_dominance,
    cm_bound,
    construction2_binary_lrc,
    construction2_parameters,
    entropy_set,
    full_analysis,
    gcc_generator,
    ml_alphabet,
    ml_singleton,
    predict_shortened_profile,
    render_analysis_kv,
    render_certificate_kv,
    tamo_barg,
)
from mllrc.cli import run as cli_run
from mllrc.galois import MatrixGF, field_new, mat_rank
from mllrc.linear_code import load_code

F2 = field_new(2)


def _cli(capsys, *argv) -> tuple[int, str]:
    rc = cli_run(list(argv))
    return rc, capsys.readouterr().out


def test_ac01_tamo_barg_base_singleton_optimal(capsys, tmp_path):
    code_file = tmp_path / "tb.code"
    rc, _ = _cli(capsys, "construct", "tamo-barg", "--q", "13", "--n", "12",
                 "--k", "6", "--r", "3", "--out", str(code_file))
    assert rc == 0
    code = load_code(code_file)
    assert (code.n, code.k, code.q) == (12, 6, 13)
    assert code.min_distance() == 6  # exact, by Brouwer-Zimmermann
    assert code.locality_profile(mode="loose").shape() == ((12, 3),)
    assert ml_singleton(((12, 3),), 6).bound_value == 6
    cert = certify(code)
    assert cert.singleton_optimal is True


def test_ac02_shortened_code_singleton_optimal():
    code = tamo_barg(13, 12, 6, 3).shorten(0)
    assert (code.n, code.k) == (11, 5)
    assert code.min_distance() == 6
    assert code.locality_profile(mode="loose").shape() == ((3, 2), (8, 3))
    assert ml_singleton(((3, 2), (8, 3)), 5).bound_value == 6
    assert certify(code).singleton_optimal is True


def test_ac03_binary_concatenated_alphabet_optimal(capsys, tmp_path):
    code_file = tmp_path / "g20.code"
    rc, _ = _cli(capsys, "construct", "gcc2", "--r", "3", "--j", "0",
                 "--out", str(code_file))
    assert rc == 0
    code = load_code(code_file)
    assert (code.n, code.k, code.q) == (20, 8, 2)
    assert code.min_distance() == 8  # exact, by Brouwer-Zimmermann
    profile = code.locality_profile(mode="loose")
    assert profile.shape() == ((20, 3),)  # all 20 coordinates 3-local
    table = KOptOracle("table")
    report = cm_bound(20, 8, 3, 2, oracle=table)
    assert report.bound_value == 8
    assert report.witness == (2,)  # k_opt(2,12,8) = 2 enters at t = 2
    assert certify(code, oracle=table).alphabet_optimal is True


def test_ac04_shortened_binary_alphabet_optimal():
    code = construction2_binary_lrc(3, 0).shorten(0)
    assert (code.n, code.k) == (19, 7)
    assert code.min_distance() == 8
    assert code.locality_profile(mode="loose").shape() == ((3, 2), (16, 3))
    report = ml_alphabet(((3, 2), (16, 3)), 8, 2, oracle=KOptOracle("table"))
    assert report.bound_value == 7
    assert report.witness == (1, 1)
    cert = certify(code, oracle=KOptOracle("table"))
    assert cert.alphabet_optimal is True


def test_ac05_construction2_sweep_with_stated_distances():
    # EXPECTED RED at (2, 0): the stated distance 6 is unattainable at
    # length 9 and dimension 3 over GF(2); the honest distance is 4.
    for r, j in [(2, 0), (3, 0), (3, 1)]:
        n, k, d = construction2_parameters(r, j)
        assert (n, k, d) == (
            (r + 1) * (2 ** (r - 1) + 1 - j),
            r * (2 ** (r - 1) - r + 2 - j) - 1,
            2 * (r + 1),
        )
        code = construction2_binary_lrc(r, j)
        assert (code.n, code.k) == (n, k)
        enumerated = code.min_distance()
        assert enumerated == d, (
            f"(r,j)=({r},{j}): enumerated distance {enumerated} != stated {d}"
        )
    # unreachable while the (2,0) leg fails: certification of [9,3,6]
    cert = certify(construction2_binary_lrc(2, 0), oracle=KOptOracle("table"))
    assert cert.alphabet_optimal is True


def test_ac05_note_r4_parameters_and_locality_only():
    # the r = 4 member ([45, 23]): acceptance covers parameters and
    # per-block locality only.  Its certified d = 6 and profile
    # (36,3),(9,8) are pinned by test_construction2_ledger below
    # (test_constructions proves the full negative: the middle in-block
    # coordinate has no dual word of weight <= 5 anywhere in the code)
    code = construction2_binary_lrc(4, 0)
    assert (code.n, code.k) == construction2_parameters(4, 0)[:2]
    # column bit-patterns for XOR checks
    cols = [int("".join(str(int(v)) for v in code.G.a[:, i]), 2)
            for i in range(code.n)]
    for b in range(9):
        base = 5 * b
        assert cols[base] ^ cols[base + 1] ^ cols[base + 2] ^ cols[base + 4] == 0


# The paper's binary two-level family, member by member: every j at
# r = 2, 3 and 4, and r = 5 as far as the enumeration budget reaches.  Each
# row is (r, j), the stated [n, k, d], the certified d and the certified
# loose profile.  Every even-r member misses the stated distance 2(r + 1),
# and at r = 4 some localities exceed r.
_CONSTRUCTION2_LEDGER = [
    ((2, 0), (9, 3, 6), 4, ((6, 1), (3, 2))),
    ((3, 0), (20, 8, 8), 8, ((20, 3),)),
    ((3, 1), (16, 5, 8), 8, ((16, 3),)),
    ((4, 0), (45, 23, 10), 6, ((36, 3), (9, 8))),
    ((4, 1), (40, 19, 10), 8, ((32, 3), (8, 7))),
    ((4, 2), (35, 15, 10), 8, ((28, 3), (7, 6))),
    ((4, 3), (30, 11, 10), 8, ((24, 3), (6, 5))),
    ((4, 4), (25, 7, 10), 8, ((25, 3),)),
    ((5, 11), (36, 9, 12), 12, ((36, 3),)),
]


@pytest.mark.parametrize("rj,stated,d,profile", _CONSTRUCTION2_LEDGER,
                         ids=[f"r{r}j{j}" for (r, j), *_ in _CONSTRUCTION2_LEDGER])
def test_construction2_ledger(rj, stated, d, profile):
    assert construction2_parameters(*rj) == stated
    cert = certify(construction2_binary_lrc(*rj), oracle=KOptOracle("table"))
    assert (cert.n, cert.k, cert.d) == (*stated[:2], d)
    assert cert.profile.shape() == profile


def test_ac06_rank_deficient_sets_bounded_by_n_minus_d():
    rng = random.Random(106)
    caps = {2: 10, 3: 8, 13: 4}
    checked = 0
    while checked < 1000:
        q = rng.choice([2, 3, 13])
        F = field_new(q)
        n = rng.randint(2, 10)
        k = rng.randint(1, min(n, caps[q]))
        Gm = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if mat_rank(MatrixGF(F, Gm)) != k:
            continue
        code = LinearCode(F, Gm)
        d = code.min_distance()
        G = code.G
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                if mat_rank(MatrixGF(F, G.a[:, list(subset)])) < k:
                    assert size <= n - d, (q, n, k, d, subset)
        checked += 1


def test_ac07_shortening_profile_prediction_both_branches():
    # every Singleton-optimal code in the corpus, with the class index
    # (1-based) whose lexicographically smallest coordinate is deleted
    corpus = [
        (tamo_barg(13, 12, 6, 3), 1, 0),             # insert branch (s = 1)
        (algorithm1_ml_lrc(tamo_barg(13, 12, 6, 3), 2, 3), 2, 3),  # merge
    ]
    branches = set()
    for code, alpha, position in corpus:
        cert = certify(code)
        assert cert.singleton_optimal is True
        before = cert.profile.shape()
        predicted = predict_shortened_profile(before, alpha)
        r_alpha = before[alpha - 1][1]
        localities_before = [r for _, r in before]
        branches.add(
            "merge"
            if alpha >= 2 and localities_before[alpha - 2] == r_alpha - 1
            else "insert"
        )
        shortened = code.shorten(position)
        assert shortened.locality_profile(mode="loose").shape() == predicted
        d = shortened.min_distance()
        assert d == ml_singleton(predicted, shortened.k).bound_value
    assert branches == {"insert", "merge"}


def test_ac08_dominance_sweep_ten_thousand_tuples():
    rng = random.Random(108)
    for _ in range(10_000):
        s = rng.randint(1, 3)
        locs = sorted(rng.sample(range(1, 7), s))
        shape = tuple((rng.randint(1, 4) * (r + 1), r) for r in locs)
        n = sum(sz for sz, _ in shape)
        k = rng.randint(1, n - 1) if n > 1 else 1
        d = rng.randint(1, n)
        q = rng.choice([2, 3, 4, 5, 8, 13])
        rep = check_dominance(shape, k, d, q)
        assert rep.holds is True, (shape, k, d, q)


def test_ac09_gcc_distance_floor_hundred_instances():
    rng = np.random.default_rng(109)

    def rand_code(n, k):
        while True:
            Gm = rng.integers(0, 2, size=(k, n))
            if mat_rank(MatrixGF(F2, Gm)) == k:
                return LinearCode(F2, Gm)

    checked = 0
    while checked < 100:
        n_b = int(rng.integers(3, 6))
        lam1 = int(rng.integers(1, 3))
        rows = lam1 + 1
        if rows > n_b:
            continue
        stack = rng.integers(0, 2, size=(rows, n_b))
        if mat_rank(MatrixGF(F2, stack)) != rows:
            continue
        N = int(rng.integers(3, 7))
        A1 = rand_code(N, int(rng.integers(1, N)))
        A2 = rand_code(N, int(rng.integers(1, N)))
        spec = GccSpec(
            F2,
            (
                GccLevel(A1, lam1, MatrixGF(F2, stack[:lam1])),
                GccLevel(A2, 1, MatrixGF(F2, stack[lam1:])),
            ),
        )
        if spec.k > 18:  # <= 2^18 codewords
            continue
        code = gcc_generator(spec)
        floor = min(
            outer.min_distance() * inner.min_distance()
            for outer, inner in zip((A1, A2), spec.inner_chain())
        )
        assert code.min_distance() >= floor
        checked += 1


def test_ac10_entropy_sets_meet_guarantees_on_corpus():
    corpus = [
        tamo_barg(13, 12, 6, 3),
        algorithm1_ml_lrc(tamo_barg(13, 12, 6, 3), 2, 3),
        construction2_binary_lrc(3, 0),
    ]
    for code in corpus:
        profile = code.locality_profile(mode="strict")
        ok, witnesses = code.verify_profile(profile, mode="strict")
        assert ok
        for cls in profile.classes:
            n_i, r_i = len(cls.coordinates), cls.locality
            t_max = -(-n_i // (r_i + 1))
            for t in range(1, t_max + 1):
                I = entropy_set(cls, witnesses, t)
                assert len(I) == min(t * (r_i + 1), n_i)
                entropy = mat_rank(MatrixGF(code.field, code.G.a[:, list(I)]))
                assert entropy <= t * r_i          # case-a guarantee
                assert entropy <= len(I) - t       # case-b guarantee
                if t == t_max:
                    assert entropy <= -(-r_i * n_i // (r_i + 1))  # cap


def test_ac11_algorithm_outputs_match_direct_shortening():
    # named instance 1: [12,6,6]_13 -> [11,5,6]_13
    tb = tamo_barg(13, 12, 6, 3)
    via_alg1 = algorithm1_ml_lrc(tb, 2, 3)
    via_alg3 = algorithm3_ml_lrc(tb, 2, 1)
    direct = tb.shorten(0)
    assert np.array_equal(via_alg1.G.a, direct.G.a)
    assert np.array_equal(via_alg3.G.a, direct.G.a)
    assert via_alg1.locality_profile(mode="loose").shape() == ((3, 2), (8, 3))
    # rate inequality k <= r1 n1/(r1+1) + r2 n2/(r2+1)
    assert via_alg1.k <= 2 * 3 / 3 + 3 * 8 / 4
    # named instance 2: [20,8,8]_2 -> [19,7,8]_2
    g20 = construction2_binary_lrc(3, 0)
    via_alg1 = algorithm1_ml_lrc(g20, 2, 3)
    via_alg3 = algorithm3_ml_lrc(g20, 2, 1)
    direct = g20.shorten(0)
    assert np.array_equal(via_alg1.G.a, direct.G.a)
    assert np.array_equal(via_alg3.G.a, direct.G.a)
    assert via_alg1.locality_profile(mode="loose").shape() == ((3, 2), (16, 3))
    assert via_alg1.k <= 2 * 3 / 3 + 3 * 16 / 4


def test_ac12_repeated_runs_byte_identical(capsys, tmp_path):
    # library-level reports
    first = render_analysis_kv(full_analysis(construction2_binary_lrc(2, 0)))
    second = render_analysis_kv(full_analysis(construction2_binary_lrc(2, 0)))
    assert first == second
    table = KOptOracle("table")
    certs = [
        render_certificate_kv(certify(construction2_binary_lrc(3, 0), oracle=table))
        for _ in range(2)
    ]
    assert certs[0] == certs[1]
    # CLI pipeline: construct twice, certify twice, compare bytes
    files, outputs = [], []
    for i in range(2):
        code_file = tmp_path / f"run{i}.code"
        rc, _ = _cli(capsys, "construct", "gcc2", "--r", "3", "--j", "0",
                     "--out", str(code_file))
        assert rc == 0
        files.append(code_file.read_bytes())
        rc, out = _cli(capsys, "certify", "--in", str(code_file),
                       "--oracle", "table", "--format", "kv")
        assert rc == 0
        outputs.append(out)
    assert files[0] == files[1]
    assert outputs[0] == outputs[1]
