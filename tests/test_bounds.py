"""Bound evaluators against independent oracles.

Oracles used here, all implemented inside this file with no shared code:

- ``brute_kopt2``: max dimension by enumerating every binary generator
  matrix (row subsets) at tiny lengths.
- ``grid_min``: a direct re-implementation of the deletion-grid minimum for
  the multi-class alphabet bound.
- direct formula re-evaluation for the three-class Singleton-type bound,
  and ``ref_ml_singleton_two``: the paper's direct two-class formula.
- ``ref_exhaustive_max_dim_q2``, ``ref_ml_alphabet`` and
  ``ref_griesmer_max_k``: the candidate-by-candidate search, the
  cell-by-cell grid loop and the term-by-term Griesmer sum that the library
  versions replaced.  ``ref_ml_alphabet`` shares only ``_normalize_shape``
  with the library, so profile errors carry the same text.
"""

import dataclasses
import itertools
import random
from math import prod

import pytest

from mllrc.bounds import (
    BUNDLED_KOPT_TABLE,
    BoundReport,
    KOptOracle,
    KOptValue,
    _exhaustive_max_dim_q2,
    _normalize_shape,
    _singleton_relaxed,
    cm_bound,
    griesmer_max_k,
    load_kopt_table,
    ml_alphabet,
    ml_singleton,
    singleton_max_k,
    singleton_r_local,
)
import mllrc.bounds as bounds_module
from mllrc.errors import BudgetError, ParseError, PreconditionError


def ceil_div(a, b):
    return -(-a // b)


# ---------------------------------------------------------------------------
# oracle: brute-force k_opt over all binary matrices (tiny n)
# ---------------------------------------------------------------------------


def _span_min_weight(rows):
    best = None
    k = len(rows)
    for mask in range(1, 1 << k):
        w = 0
        acc = 0
        for i in range(k):
            if mask >> i & 1:
                acc ^= rows[i]
        w = bin(acc).count("1")
        best = w if best is None else min(best, w)
    return best


def _rank_ints(rows):
    basis = {}
    r = 0
    for v in rows:
        while v:
            lead = v.bit_length() - 1
            if lead in basis:
                v ^= basis[lead]
            else:
                basis[lead] = v
                r += 1
                break
    return r


def brute_kopt2(n, d):
    for k in range(n, 0, -1):
        for rows in itertools.combinations(range(1, 1 << n), k):
            if _rank_ints(rows) == k and _span_min_weight(rows) >= d:
                return k
    return 0


# ---------------------------------------------------------------------------
# k_opt oracle
# ---------------------------------------------------------------------------


def test_kopt_edges():
    o = KOptOracle()
    assert o.query(2, 5, 9).value == 0  # d > n
    assert o.query(2, 0, 3).value == 0
    assert o.query(2, -2, 3).value == 0  # negative residuals inside grids
    assert o.query(3, 7, 1).value == 7  # d = 1: full space
    with pytest.raises(PreconditionError):
        KOptOracle(mode="table,nonsense")
    with pytest.raises(PreconditionError):
        o.query(1, 5, 2)


def test_kopt_paper_values_table_and_exhaustive_agree():
    table = KOptOracle("table")
    exhaustive = KOptOracle("exhaustive")
    assert table.query(2, 12, 8).value == 2
    assert exhaustive.query(2, 12, 8).value == 2
    assert table.query(2, 6, 6).value == 1
    assert exhaustive.query(2, 6, 6).value == 1


def test_exhaustive_matches_full_matrix_bruteforce():
    o = KOptOracle("exhaustive")
    for n in range(1, 5):
        for d in range(1, n + 1):
            assert o.query(2, n, d).value == brute_kopt2(n, d), (n, d)


def test_exhaustive_within_analytic_and_griesmer_attained():
    ex = KOptOracle("exhaustive")
    an = KOptOracle("analytic")
    # small lengths exhaustively; larger lengths only where the analytic
    # ceiling is attained so the search exits early
    for n in range(1, 8):
        for d in range(2, n + 1):
            assert ex.query(2, n, d).value <= an.query(2, n, d).value
    # Griesmer ceiling attained exactly for the bundled length-8 distance-8
    # and length-11 distance-8 values
    assert ex.query(2, 8, 8).value == 1 == griesmer_max_k(2, 8, 8)
    assert ex.query(2, 11, 8).value == 1 == griesmer_max_k(2, 11, 8)


def test_kopt_strict_table_misses_and_exactness():
    o = KOptOracle("table")
    assert o.query(2, 9, 6) is None
    assert KOptOracle("analytic").query(2, 9, 6) == KOptValue(
        min(singleton_max_k(9, 6), griesmer_max_k(2, 9, 6)), False, "analytic"
    )


def test_bundled_table_sound_and_validated():
    for (q, n, d), (k, prov) in BUNDLED_KOPT_TABLE.items():
        assert k <= singleton_max_k(n, d)
        assert k <= griesmer_max_k(q, n, d)
        assert prov
    with pytest.raises(ParseError):
        KOptOracle(table={(2, 5, 5): (2, "violates Singleton")})
    with pytest.raises(ParseError):
        KOptOracle(table={(2, 12, 8): (3, "violates Griesmer")})


def test_kopt_table_file(tmp_path):
    p = tmp_path / "kopt.txt"
    p.write_text("# comment\n\n2 12 8 2 example entry\n13 10 4 7 singleton tight\n")
    table = load_kopt_table(p)
    assert table[(2, 12, 8)] == (2, "example entry")
    assert table[(13, 10, 4)] == (7, "singleton tight")
    o = KOptOracle("table", table=table)
    assert o.query(13, 10, 4).value == 7
    for bad in ["2 12 8 2", "2 12 8 x entry", "2 5 5 2 bad", "2 12 8 3 bad"]:
        p.write_text(bad + "\n")
        with pytest.raises(ParseError):
            load_kopt_table(p)


# ---------------------------------------------------------------------------
# single-locality Singleton bound
# ---------------------------------------------------------------------------


def test_singleton_r_local_values():
    assert singleton_r_local(12, 6, 3) == 6
    assert singleton_r_local(10, 4, 4) == 7 == 10 - 4 + 1  # r >= k: MDS
    assert singleton_r_local(20, 8, 3) == 11
    for n in range(2, 12):
        for k in range(1, n + 1):
            for r in range(k, n + 1):
                assert singleton_r_local(n, k, r) == n - k + 1
    with pytest.raises(PreconditionError):
        singleton_r_local(5, 6, 2)


# ---------------------------------------------------------------------------
# alphabet-dependent bound, single locality
# ---------------------------------------------------------------------------


def test_cm_bound_20_8_3():
    rep = cm_bound(20, 8, 3, 2, oracle=KOptOracle("table"))
    assert rep.bound_value == 8
    assert rep.witness == (2,)  # largest among tied minimizers
    assert not rep.exact  # t = 0 has no table entry for (2, 20, 8)
    assert (0,) in rep.skipped
    assert "table" in rep.mode_flags


def test_cm_bound_9_6_2_strict_table():
    # independent evaluation: k_t = 2t + kopt(2, 9-3t, 6) for t = 0..3;
    # t=0 lacks a table entry, t=1 uses (2,6,6)->1, t>=2 hit the d>n edge
    rep = cm_bound(9, 6, 2, 2, oracle=KOptOracle("table"))
    cells = {1: 2 * 1 + 1, 2: 2 * 2 + 0, 3: 2 * 3 + 0}
    assert rep.bound_value == min(cells.values()) == 3
    assert rep.witness == (1,)
    assert rep.skipped == ((0,),)
    assert not rep.exact


def test_cm_bound_degenerate_r_at_least_n():
    o = KOptOracle("analytic")
    for n in range(2, 9):
        for d in range(2, n + 1):
            for r in (n, n + 3):
                rep = cm_bound(n, d, r, 2, oracle=o)
                assert rep.bound_value == min(o.query(2, n, d).value, r)
                assert rep.bound_value <= singleton_max_k(n, d) + 0


def test_cm_bound_analytic_below_plain_singleton():
    o = KOptOracle("analytic")
    for n in range(3, 15):
        for d in range(2, n + 1):
            for r in range(1, 6):
                assert cm_bound(n, d, r, 2, oracle=o).bound_value <= n - d + 1


# ---------------------------------------------------------------------------
# multi-locality Singleton bound
# ---------------------------------------------------------------------------


def ref_ml_singleton_two(n1, r1, n2, r2, k):
    """Distance bound for a two-locality profile ((n1, r1), (n2, r2)).

    Direct formula n - k + 2 - ceil(n1/(r1+1)) - ceil((k - r1*ceil(n1/(r1+1)))/r2)
    when the first class cannot absorb the dimension; otherwise the profile
    degenerates and the single-locality bound at r1 applies.  r1 == r2 is
    permitted and reduces algebraically to the single-locality bound.
    """
    n = n1 + n2
    kappa1 = ceil_div(n1, r1 + 1)
    if r1 * kappa1 >= k - 1:
        return singleton_r_local(n, k, r1)
    return n - k + 2 - kappa1 - ceil_div(k - r1 * kappa1, r2)


def test_ml_singleton_two_paper_example():
    assert ref_ml_singleton_two(3, 2, 8, 3, k=5) == 6
    assert ml_singleton(((3, 2), (8, 3)), k=5).bound_value == 6


def test_ml_singleton_two_formula_arithmetic():
    # 12 - 5 + 2 - ceil(4/2) - ceil((5-2)/3) = 9 - 2 - 1 = 6
    assert ref_ml_singleton_two(4, 1, 8, 3, k=5) == 6
    assert ml_singleton(((4, 1), (8, 3)), k=5).bound_value == 6


def test_ml_singleton_two_equal_localities_reduce_to_single():
    # the reference formula at r1 == r2 is the single-locality bound, which
    # ml_singleton gives for the merged class
    for n1 in range(0, 6):
        for n2 in range(1, 7):
            for r in range(1, 5):
                for k in range(1, n1 + n2 + 1):
                    single = singleton_r_local(n1 + n2, k, r)
                    assert ref_ml_singleton_two(n1, r, n2, r, k) == single
                    assert ml_singleton(((n1 + n2, r),), k).bound_value == max(0, single)


def test_ml_singleton_two_fallback_branch():
    # first class absorbs the dimension: r1*ceil(n1/(r1+1)) >= k-1
    assert ref_ml_singleton_two(6, 2, 4, 3, k=3) == singleton_r_local(10, 3, 2)
    assert ml_singleton(((6, 2), (4, 3)), k=3).bound_value == singleton_r_local(10, 3, 2)


def test_ml_singleton_matches_two_class_form():
    for n1 in range(1, 6):
        for n2 in range(1, 7):
            for r1 in range(1, 4):
                for r2 in range(r1 + 1, 5):
                    for k in range(1, n1 + n2 + 1):
                        rep = ml_singleton(((n1, r1), (n2, r2)), k)
                        assert rep.bound_value == max(
                            0, ref_ml_singleton_two(n1, r1, n2, r2, k)
                        )


def test_ml_singleton_paper_and_derived_examples():
    rep = ml_singleton(((3, 2), (8, 3)), k=5)
    assert rep.bound_value == 6
    assert not rep.collapse_applied
    # three classes, direct formula re-evaluated independently:
    # n=13, k=6: 13-6+2 - ceil(2/2) - ceil(3/3) - ceil((6-1*1-2*1)/3)
    shape = ((2, 1), (3, 2), (8, 3))
    n, k = 13, 6
    kappas = [ceil_div(2, 2), ceil_div(3, 3)]
    used = 1 * kappas[0] + 2 * kappas[1]
    expected = n - k + 2 - sum(kappas) - ceil_div(k - used, 3)
    assert expected == 6
    rep3 = ml_singleton(shape, k)
    assert rep3.bound_value == expected
    assert rep3.witness == (1, 1, 1)
    assert not rep3.collapse_applied


def test_ml_singleton_collapse():
    # ((6,2),(4,3)), k=3: 2*ceil(6/3)=4 >= k-1=2 -> classes merge at r=2
    rep = ml_singleton(((6, 2), (4, 3)), k=3)
    assert rep.collapse_applied
    assert rep.effective_shape == ((10, 2),)
    assert rep.bound_value == singleton_r_local(10, 3, 2)
    # three classes collapsing at the middle step:
    # prefix r1*k1 = 1*1 = 1 < k-1=3; r2 adds 2*ceil(3/3)=2 -> 3 >= 3
    rep2 = ml_singleton(((2, 1), (3, 2), (4, 3)), k=4)
    assert rep2.collapse_applied
    assert rep2.effective_shape == ((2, 1), (7, 2))
    # collapse is idempotent towards a stable shape that evaluates directly
    direct = ml_singleton(((2, 1), (7, 2)), k=4)
    assert rep2.bound_value == direct.bound_value


def test_ml_singleton_monotone_in_k():
    shape = ((3, 2), (8, 3))
    values = [ml_singleton(shape, k).bound_value for k in range(1, 12)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_ml_singleton_single_class_is_thm1():
    for n in range(2, 12):
        for r in range(1, 6):
            for k in range(1, n + 1):
                rep = ml_singleton(((n, r),), k)
                assert rep.bound_value == max(0, singleton_r_local(n, k, r))


def ref_ml_singleton_loop(profile, k):
    """ml_singleton as it was with its collapse loop: merge at the first prefix
    reaching k - 1, then look again, until no prefix does."""
    shape = _normalize_shape(profile)
    n = sum(n_i for n_i, _ in shape)
    if not 1 <= k <= n:
        raise PreconditionError(f"need 1 <= k <= sum(n_i), got k={k}, n={n}")
    collapsed = False
    while True:
        j = None
        prefix = 0
        for idx in range(len(shape) - 1):
            n_i, r_i = shape[idx]
            prefix += r_i * ceil_div(n_i, r_i + 1)
            if prefix >= k - 1:
                j = idx
                break
        if j is None:
            break
        shape = shape[:j] + ((sum(n_i for n_i, _ in shape[j:]), shape[j][1]),)
        collapsed = True
    kappas = [ceil_div(n_i, r_i + 1) for n_i, r_i in shape[:-1]]
    used = sum(r_i * kap for (_, r_i), kap in zip(shape[:-1], kappas))
    last = ceil_div(k - used, shape[-1][1])
    return BoundReport(
        name="ml-singleton",
        bound_value=max(0, n - k + 2 - sum(kappas) - last),
        witness=tuple(kappas) + (last,),
        exact=True,
        collapse_applied=collapsed,
        effective_shape=shape,
    )


def test_ml_singleton_collapses_in_one_pass_as_the_loop_did():
    # the first merge leaves every earlier prefix below k - 1, so the loop's
    # second look never merges again; report or refusal text must agree
    rng = random.Random(24)
    draws = 100_000
    seen = dict.fromkeys(("collapsed", "direct", "error"), 0)
    for _ in range(draws):
        s = rng.randint(1, 6)
        locs = sorted(rng.sample(range(1, 10), s))
        shape = tuple((0 if rng.random() < 0.01 else rng.randint(1, 20), r) for r in locs)
        k = rng.randint(0, sum(n_i for n_i, _ in shape) + 1)
        got = _outcome(ml_singleton, shape, k)
        assert got == _outcome(ref_ml_singleton_loop, shape, k), (shape, k)
        if not isinstance(got, BoundReport):
            seen["error"] += 1
        else:
            seen["collapsed" if got.collapse_applied else "direct"] += 1
    assert seen["collapsed"] > draws // 3 and min(seen.values()) > 0, seen


# ---------------------------------------------------------------------------
# multi-locality alphabet bound
# ---------------------------------------------------------------------------


def grid_min(shape, d, q, oracle, k_hint=None, truncate=True):
    """Independent deletion-grid minimization (second implementation)."""
    n = sum(n_i for n_i, _ in shape)
    s = len(shape)
    caps = [ceil_div(n_i, r_i + 1) for n_i, r_i in shape]
    best = None
    best_t = None
    for t in itertools.product(*(range(c + 1) for c in caps[:-1]),
                               range(max(caps[-1], (k_hint or 1)) + 1)):
        used = sum(t_i * r_i for t_i, (_, r_i) in zip(t, shape))
        if k_hint is None:
            if t[-1] > caps[-1]:
                continue
        else:
            lim = (k_hint - 1 - sum(
                t_i * r_i for t_i, (_, r_i) in zip(t[:-1], shape[:-1]))) // shape[-1][1]
            if t[-1] > max(0, lim):
                continue
        if truncate:
            removed = sum(min(n_i, t_i * (r_i + 1)) for t_i, (n_i, r_i) in zip(t, shape))
        else:
            removed = sum(t_i * (r_i + 1) for t_i, (_, r_i) in zip(t, shape))
        kv = oracle.query(q, n - removed, d)
        if kv is None:
            continue
        val = used + kv.value
        if best is None or val < best or (val == best and t > best_t):
            best = val
            best_t = t
    return best, best_t


def test_ml_alphabet_two_paper_example():
    rep = ml_alphabet(((3, 2), (16, 3)), d=8, q=2, oracle=KOptOracle("table"), k_hint=7)
    assert rep.bound_value == 7
    assert rep.witness == (1, 1)
    assert (0, 0) in rep.skipped  # no table entry for (2, 19, 8)
    assert not rep.exact


def test_ml_alphabet_two_empty_first_class_is_cm():
    o = KOptOracle("analytic")
    for n2 in range(3, 10):
        for r2 in range(2, 5):
            for d in range(2, n2 + 1):
                two = ml_alphabet(((0, 1), (n2, r2)), d=d, q=2, oracle=o)
                cm = cm_bound(n2, d, r2, 2, oracle=o)
                assert two.bound_value == cm.bound_value
                assert two.witness[-1] == cm.witness[0]


def test_ml_alphabet_two_singleton_oracle_envelope():
    # clamp-free grid cells evaluate exactly to n - d + 1 - t1 - t2
    n1, r1, n2, r2, d, q = 4, 1, 8, 3, 6, 13
    n = n1 + n2
    o = KOptOracle("singleton")
    rep = ml_alphabet(((n1, r1), (n2, r2)), d=d, q=q, oracle=o)
    for t1 in range(ceil_div(n1, r1 + 1) + 1):
        for t2 in range(ceil_div(n2, r2 + 1) + 1):
            resid = n - min(n1, t1 * (r1 + 1)) - min(n2, t2 * (r2 + 1))
            if resid >= d - 1 and t1 * (r1 + 1) <= n1 and t2 * (r2 + 1) <= n2:
                cell = t1 * r1 + t2 * r2 + max(0, resid - d + 1)
                assert cell == n - d + 1 - t1 - t2
                assert rep.bound_value <= cell
    got, wit = grid_min(((n1, r1), (n2, r2)), d, q, o)
    assert rep.bound_value == got
    assert rep.witness == wit


def test_ml_alphabet_matches_two_class_form():
    o = KOptOracle("analytic")
    for n1, r1, n2, r2 in [(3, 2, 16, 3), (4, 1, 8, 3), (2, 1, 9, 2), (5, 3, 7, 4)]:
        shape = ((n1, r1), (n2, r2))
        for d in (2, 4, 6):
            for k_hint in (None, 5, 7):
                rep = ml_alphabet(shape, d=d, q=2, oracle=o, k_hint=k_hint)
                got, wit = grid_min(shape, d, 2, o, k_hint=k_hint)
                assert (rep.bound_value, rep.witness) == (got, wit)


def test_ml_alphabet_three_class_matches_independent_grid():
    shape = ((4, 1), (6, 2), (9, 3))
    o = KOptOracle("table")
    rep = ml_alphabet(shape, d=4, q=2, oracle=o)
    got, wit = grid_min(shape, 4, 2, o)
    assert rep.bound_value == got
    assert rep.witness == wit
    assert not rep.exact  # many cells skipped by the strict table
    # analytic oracle over the same grid
    o2 = KOptOracle("analytic")
    rep2 = ml_alphabet(shape, d=4, q=2, oracle=o2)
    got2, wit2 = grid_min(shape, 4, 2, o2)
    assert rep2.bound_value == got2
    assert rep2.witness == wit2
    # complete chain on a smaller shape where the search stays cheap
    small = ((2, 1), (3, 2), (4, 3))
    o3 = KOptOracle()
    rep3 = ml_alphabet(small, d=4, q=2, oracle=o3)
    got3, wit3 = grid_min(small, 4, 2, o3)
    assert rep3.bound_value == got3
    assert rep3.witness == wit3


def test_ml_alphabet_monotone_in_d():
    o = KOptOracle("analytic")
    shape = ((3, 2), (16, 3))
    vals = [ml_alphabet(shape, d=d, q=2, oracle=o).bound_value for d in range(1, 17)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_ml_alphabet_grid_budget(monkeypatch):
    monkeypatch.setattr(bounds_module, "_GRID_BUDGET", 10)
    with pytest.raises(BudgetError):
        ml_alphabet(((30, 1), (40, 2), (60, 3)), d=4, q=2,
                    oracle=KOptOracle("analytic"))


def _table_with_conflict(tmp_path):
    path = tmp_path / "conflict.table"
    path.write_text("2 6 6 1 repetition\n2 6 6 0 a second value\n")
    return path


def _table_over_singleton(tmp_path):
    path = tmp_path / "singleton.table"
    path.write_text("# k = 9 > n - d + 1 = 3\n2 5 3 9 too large\n")
    return path


@pytest.mark.parametrize("call, error, text", [
    (lambda tmp: griesmer_max_k(1, 5, 2), PreconditionError,
     "alphabet size must be >= 2, got 1"),
    (lambda tmp: load_kopt_table(_table_with_conflict(tmp)), ParseError,
     "{tmp}/conflict.table:2: conflicting duplicate entry (2, 6, 6)"),
    (lambda tmp: KOptOracle("table,analytic,table"), PreconditionError,
     "duplicate stage in oracle mode 'table,analytic,table'"),
    (lambda tmp: singleton_r_local(5, 3, 0), PreconditionError,
     "locality must be >= 1, got 0"),
    # a table file's entry refusals name the file and line, like its other errors
    (lambda tmp: load_kopt_table(_table_over_singleton(tmp)), ParseError,
     "{tmp}/singleton.table:2: table entry (q=2, n=5, d=3, k=9) violates the Singleton bound"),
    (lambda tmp: KOptOracle("table", table={(2, 5, 3): (9, "too large")}), ParseError,
     "table entry (q=2, n=5, d=3, k=9) violates the Singleton bound"),
], ids=["griesmer-q", "table-conflict", "oracle-duplicate-stage", "singleton-r",
        "table-file-entry", "table-dict-entry"])
def test_refusals_keep_their_type_and_text(tmp_path, call, error, text):
    with pytest.raises(error) as refused:
        call(tmp_path)
    assert type(refused.value) is error
    assert str(refused.value) == text.format(tmp=tmp_path)


def test_bound_report_validation():
    with pytest.raises(PreconditionError):
        BoundReport(name="x", bound_value=-1, witness=(0,), exact=True)


# ---------------------------------------------------------------------------
# dominance: the alphabet bound under the pure Singleton relaxation never
# certifies a profile/dimension/distance combination that the
# multi-locality Singleton bound already excludes
# ---------------------------------------------------------------------------


def test_singleton_relaxed_alphabet_bound_dominates_two_classes():
    for n1 in range(1, 5):
        for n2 in range(1, 6):
            for r1 in range(1, 3):
                for r2 in range(r1 + 1, 5):
                    n = n1 + n2
                    for k in range(1, n + 1):
                        dmax = ml_singleton(((n1, r1), (n2, r2)), k).bound_value
                        for d in range(dmax + 1, n + 1):
                            shape = _normalize_shape(((n1, r1), (n2, r2)),
                                                     allow_empty_class=True)
                            assert _singleton_relaxed(shape, d, 2, k) < k, (n1, r1, n2, r2, k, d)


def test_singleton_relaxed_alphabet_bound_dominates_three_classes():
    shapes = [((2, 1), (3, 2), (4, 3)), ((1, 1), (4, 2), (5, 4)),
              ((3, 1), (4, 2), (4, 4)), ((2, 2), (3, 3), (5, 5))]
    for shape in shapes:
        n = sum(a for a, _ in shape)
        for k in range(1, n + 1):
            dmax = ml_singleton(shape, k).bound_value
            for d in range(dmax + 1, n + 1):
                value = _singleton_relaxed(
                    _normalize_shape(shape, allow_empty_class=True), d, 3, k
                )
                assert value < k, (shape, k, d)


def _singleton_outcomes(shape, d, q, k):
    """(closed form, untruncated reference grid) outcomes of the
    singleton-relaxed bound's value.  The closed form walks no grid, so the
    reference grid runs with no grid budget."""
    want = _outcome(ref_ml_alphabet, shape, d, q, KOptOracle("singleton"), k_hint=k,
                    truncate=False, grid_budget=float("inf"))
    return (
        _outcome(lambda: _singleton_relaxed(
            _normalize_shape(shape, allow_empty_class=True), d, q, k)),
        want.bound_value if isinstance(want, BoundReport) else want,
    )


@pytest.mark.parametrize("seed", [108, 1])
def test_closed_form_singleton_bound_matches_the_grid_on_sweep_draws(seed):
    # seed 108 is the ac08 draw; seed 1 is another draw of the same kind, as
    # the benchmark's dominance sweep makes them
    rng = random.Random(seed)
    for _ in range(10_000):
        s = rng.randint(1, 3)
        locs = sorted(rng.sample(range(1, 7), s))
        shape = tuple((rng.randint(1, 4) * (r + 1), r) for r in locs)
        n = sum(sz for sz, _ in shape)
        k = rng.randint(1, n - 1) if n > 1 else 1
        d = rng.randint(1, n)
        q = rng.choice([2, 3, 4, 5, 8, 13])
        got, want = _singleton_outcomes(shape, d, q, k)
        assert got == want, (shape, k, d, q)


def test_closed_form_singleton_bound_matches_the_grid_on_edge_cases():
    rng = random.Random(20162)
    seen = dict.fromkeys(("value", "error", "empty", "four", "k<1", "cap0", "d<=1",
                          "d>n", "E<=0", "q1"), 0)
    for _ in range(3000):
        s = rng.randint(1, 4)
        locs = sorted(rng.sample(range(1, 8), s))
        shape = [(0 if rng.random() < 0.15 else rng.randint(1, 12), r) for r in locs]
        if rng.random() < 0.03:  # invalid profiles: same error text expected
            i = rng.randrange(s)
            shape[i] = rng.choice([(-1, shape[i][1]), (shape[i][0], 0),
                                   (shape[i][0], shape[-1][1])])
        shape = tuple(shape)
        n = sum(n_i for n_i, _ in shape)
        d = rng.choice([-1, 0, 1, 2, 2, n + rng.randint(1, 3)] + [rng.randint(1, max(1, n))] * 4)
        k = rng.randint(-1, n + 5)
        q = rng.choice([1, 2, 2, 13, 13])
        got, want = _singleton_outcomes(shape, d, q, k)
        assert got == want, (shape, d, q, k)
        if isinstance(got, int):
            seen["value"] += 1
            used = sum(ceil_div(n_i, r_i + 1) * r_i for n_i, r_i in shape[:-1])
            seen["cap0"] += k - 1 - used < shape[-1][1]
            seen["E<=0"] += n - d + 1 <= 0
        else:
            seen["error"] += 1
        seen["empty"] += any(n_i == 0 for n_i, _ in shape)
        seen["four"] += s == 4
        seen["k<1"] += k < 1
        seen["d<=1"] += d <= 1
        seen["d>n"] += d > n
        seen["q1"] += q == 1
    assert min(seen.values()) > 0, seen


def test_closed_form_singleton_bound_matches_the_grid_on_wide_draws():
    # up to five classes of up to 40 coordinates at localities up to 9; the
    # reference grid runs where the box has at most 5,000 cells, which keeps
    # it fast, and every draw must answer and reject each point that the
    # multi-locality Singleton bound rejects
    rng = random.Random(20163)
    seen = dict.fromkeys(("grid", "beyond the grid", "violating", "E<=0", "t_i<c_i"), 0)
    for _ in range(2500):
        s = rng.randint(1, 5)
        locs = sorted(rng.sample(range(1, 10), s))
        shape = tuple((0 if rng.random() < 0.1 else rng.randint(1, 40), r) for r in locs)
        n = sum(n_i for n_i, _ in shape)
        d = rng.randint(1, n + 2)
        k = rng.randint(1, n + 3)
        caps = [ceil_div(n_i, r_i + 1) for n_i, r_i in shape[:-1]]
        cells = prod(c + 1 for c in caps) * (1 + (k - 1) // shape[-1][1])
        if cells <= 5000:
            got, want = _singleton_outcomes(shape, d, 2, k)
            assert got == want, (shape, d, k)
            seen["grid"] += 1
        else:
            got = _singleton_relaxed(shape, d, 2, k)
            seen["beyond the grid"] += 1
        if all(n_i for n_i, _ in shape) and k <= n and ml_singleton(shape, k).bound_value < d:
            assert got < k, (shape, d, k)
            seen["violating"] += 1
        seen["E<=0"] += n - d + 1 <= 0
        # a least cell that stops short of a prefix cap (the greedy fill's
        # last packed class is not the first one)
        e, t_short = n - d + 1, False
        for c, (_, r) in zip(caps, shape):
            t = min(c, max(e, 0) // (r + 1))
            t_short |= t < c
            e -= t * (r + 1)
        seen["t_i<c_i"] += t_short
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("k, cells", [(7, 48), (1, 16)])
def test_closed_form_singleton_bound_answers_past_the_grid_budget(monkeypatch, k, cells):
    # prefix caps 3 and 3; the last cap is floor(6/3) = 2 at k 7 and 0 at
    # k 1.  The closed form walks no grid, so a budget one cell under the
    # box refuses ml_alphabet but not the closed form
    shape = ((5, 1), (7, 2), (9, 3))
    want = ref_ml_alphabet(shape, 4, 2, KOptOracle("singleton"), k_hint=k, truncate=False,
                           grid_budget=cells).bound_value
    monkeypatch.setattr(bounds_module, "_GRID_BUDGET", cells - 1)
    assert _singleton_relaxed(shape, 4, 2, k) == want
    with pytest.raises(PreconditionError) as refused:
        _singleton_relaxed(shape, 4, 1, k)
    assert str(refused.value) == "alphabet size must be >= 2, got 1"
    with pytest.raises(BudgetError) as refused:
        ml_alphabet(shape, 4, 2, KOptOracle("singleton"), k_hint=k)
    assert str(refused.value) == f"deletion grid has {cells} cells, above the budget {cells - 1}"


# ---------------------------------------------------------------------------
# reference copies of the candidate-by-candidate k_opt search, the
# cell-by-cell deletion grid and the term-by-term Griesmer sum; the library
# versions must give the same answers, reports and errors
# ---------------------------------------------------------------------------


class _RefSearchBudgetExceeded(Exception):
    pass


def ref_exhaustive_max_dim_q2(n, d, stop_at, budget):
    cands = [v for v in range(1, 1 << n) if v.bit_count() >= d]
    best = 0
    work = 0

    def extend(span, idx0, k):
        nonlocal best, work
        if k > best:
            best = k
            if best >= stop_at:
                return True
        for idx in range(idx0, len(cands)):
            v = cands[idx]
            ok = True
            work += len(span)
            if work > budget:
                raise _RefSearchBudgetExceeded
            for c in span:
                if c:
                    x = v ^ c
                    if x < v or x.bit_count() < d:
                        ok = False
                        break
            if ok:
                if extend(span + [v ^ c for c in span], idx + 1, k + 1):
                    return True
        return False

    try:
        extend([0], 0, 0)
    except _RefSearchBudgetExceeded:
        return best, False
    return best, True


def ref_ml_alphabet(profile, d, q, oracle=None, k_hint=None, truncate=True,
                    grid_budget=10**6):
    shape = _normalize_shape(profile, allow_empty_class=True)
    n = sum(n_i for n_i, _ in shape)
    if d < 1:
        raise PreconditionError(f"distance must be >= 1, got {d}")
    if k_hint is not None and k_hint < 1:
        raise PreconditionError(f"k_hint must be >= 1, got {k_hint}")
    if oracle is None:
        oracle = KOptOracle()
    n_last, r_last = shape[-1]
    prefix_caps = [ceil_div(n_i, r_i + 1) for n_i, r_i in shape[:-1]]
    kappa_last = ceil_div(n_last, r_last + 1)
    cap_last_max = kappa_last if k_hint is None else max(0, (k_hint - 1) // r_last)
    grid_size = prod(c + 1 for c in prefix_caps) * (cap_last_max + 1)
    if grid_size > grid_budget:
        raise BudgetError(
            f"deletion grid has {grid_size} cells, above the budget {grid_budget}"
        )
    best = None
    witness = None
    skipped = []
    sources = set()
    all_exact = True
    for t_prefix in itertools.product(*(range(c + 1) for c in prefix_caps)):
        used = sum(t_i * r_i for t_i, (_, r_i) in zip(t_prefix, shape[:-1]))
        if k_hint is None:
            cap_last = kappa_last
        else:
            cap_last = max(0, (k_hint - 1 - used) // r_last)
        for t_s in range(cap_last + 1):
            t = t_prefix + (t_s,)
            if truncate:
                removed = sum(
                    min(n_i, t_i * (r_i + 1)) for t_i, (n_i, r_i) in zip(t, shape)
                )
            else:
                removed = sum(t_i * (r_i + 1) for t_i, (_, r_i) in zip(t, shape))
            kv = oracle.query(q, n - removed, d)
            if kv is None:
                skipped.append(t)
                continue
            sources.add(kv.source)
            all_exact = all_exact and kv.exact
            value = used + t_s * r_last + kv.value
            if best is None or value <= best:
                best = value
                witness = t
    if best is None:
        raise PreconditionError(
            "oracle produced no value for any deletion tuple; extend the table "
            "or change mode"
        )
    return BoundReport(
        name="ml-alphabet",
        bound_value=best,
        witness=witness,
        exact=all_exact and not skipped,
        mode_flags=tuple(sorted(sources)),
        skipped=tuple(skipped),
        collapse_applied=False,
        effective_shape=shape,
    )


def ref_griesmer_max_k(q, n, d):
    k = 0
    total = 0
    power = 1
    while True:
        total += ceil_div(d, power)
        if total > n:
            return k
        k += 1
        if k > n:
            return n
        power *= q


def test_exhaustive_search_matches_reference():
    outcomes = set()
    for n in range(1, 15):
        for d in range(1, n + 2):
            ceiling = min(singleton_max_k(n, d), griesmer_max_k(2, n, d))
            for stop_at in {ceiling, ceiling + 1, 1}:
                for budget in (1, 777, 20_000, 200_000, 2_000_000):
                    # the search itself, not entries that earlier tests memoized
                    got = _exhaustive_max_dim_q2.__wrapped__(n, d, stop_at, budget)
                    assert got == ref_exhaustive_max_dim_q2(n, d, stop_at, budget), (
                        n, d, stop_at, budget)
                    outcomes.add(got[1])
    assert outcomes == {True, False}  # both the abort and the completed path ran


def test_fresh_oracles_share_the_exhaustive_search():
    KOptOracle().query(2, 12, 6)
    before = _exhaustive_max_dim_q2.cache_info()
    assert KOptOracle().query(2, 12, 6) == KOptValue(4, True, "exhaustive")
    after = _exhaustive_max_dim_q2.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 1)


def test_each_search_budget_has_its_own_memo_entry(monkeypatch):
    # k_opt(2, 10, 5) = 3: the search aborts at 777 coset checks and
    # completes at 2*10^6, whichever budget asks first
    for budgets in ((777, 2_000_000, 777), (2_000_000, 777, 2_000_000)):
        answers = []
        for budget in budgets:
            monkeypatch.setattr(bounds_module, "_SEARCH_BUDGET", budget)
            answers.append(KOptOracle("exhaustive").query(2, 10, 5))
        want = {777: None, 2_000_000: KOptValue(3, True, "exhaustive")}
        assert answers == [want[b] for b in budgets]
        monkeypatch.setattr(bounds_module, "_SEARCH_BUDGET", 777)
        assert KOptOracle().query(2, 10, 5) == KOptValue(3, False, "analytic")


def test_exhaustive_memo_holds_one_entry_per_cell_and_budget(monkeypatch):
    monkeypatch.setattr(bounds_module, "_SEARCH_BUDGET", 20_000)
    _exhaustive_max_dim_q2.cache_clear()
    for _ in range(2):
        oracle = KOptOracle("exhaustive")
        for n in range(-1, 18):
            for d in range(-1, n + 3):
                oracle.query(2, n, d)
                oracle.query(3, n, d)
        # 2 <= d <= n <= 14: sum of n - 1 over n = 2..14
        assert _exhaustive_max_dim_q2.cache_info().currsize == 91
    assert _exhaustive_max_dim_q2.cache_info().misses == 91


def _random_table(rng):
    table = {}
    for _ in range(40):
        q = rng.choice([2, 2, 3])
        n = rng.randint(2, 20)
        d = rng.randint(2, n)
        table[(q, n, d)] = (rng.randint(0, min(singleton_max_k(n, d),
                                                 griesmer_max_k(q, n, d))), "random")
    return table


_ORACLE_MODES = ("table", "exhaustive", "analytic", "singleton",
                 "table,exhaustive,analytic", "exhaustive,table", "table,singleton")


def _random_grid_call(rng, tables):
    """One seeded ml_alphabet call: (shape, d, q, kwargs, oracle key)."""
    big = rng.random() < 0.1  # large boxes under the cheap oracles
    s = rng.randint(1, 4)
    locs = sorted(rng.sample(range(1, 8), s))
    shape = [(0 if rng.random() < 0.15 else rng.randint(1, 40 if big else 9), r)
             for r in locs]
    if rng.random() < 0.04:  # invalid profiles: same error text expected
        i = rng.randrange(s)
        shape[i] = rng.choice([(-1, shape[i][1]), (shape[i][0], 0),
                               (shape[i][0], shape[-1][1])])
    n = sum(n_i for n_i, _ in shape)
    kwargs = {
        "k_hint": None if rng.random() < 0.4 else rng.randint(0 if rng.random() < 0.03 else 1,
                                                              max(1, n + 2)),
    }
    d = rng.randint(0 if rng.random() < 0.03 else 1, n + 2)
    q = rng.choice([2, 2, 2, 3, 4, 13])
    mode = rng.choice(("analytic", "singleton")) if big else rng.choice(_ORACLE_MODES)
    key = (mode, rng.randrange(len(tables)), rng.choice([777, 20_000]))
    if rng.random() < 0.1 and all(r_i >= 1 and n_i >= 0 for n_i, r_i in shape):
        caps = [ceil_div(n_i, r_i + 1) for n_i, r_i in shape]
        k_hint = kwargs["k_hint"]
        if k_hint is not None and k_hint >= 1:
            caps[-1] = max(0, (k_hint - 1) // shape[-1][1])
        kwargs["grid_budget"] = prod(c + 1 for c in caps) - rng.randint(0, 1)
    return tuple(shape), d, q, kwargs, key


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (BudgetError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)


def test_ml_alphabet_matches_reference_grid(monkeypatch):
    rng = random.Random(20161)
    tables = [None, _random_table(rng), _random_table(rng)]
    seen = {"skipped": 0, "error": 0, "budget": 0, "empty": 0, "four": 0, "at_budget": 0}
    for _ in range(2000):
        shape, d, q, kwargs, key = _random_grid_call(rng, tables)
        at_budget = "grid_budget" in kwargs
        grid_budget = kwargs.pop("grid_budget", 10**6)
        mode, table, search_budget = key
        oracle = KOptOracle(mode, table=tables[table])
        monkeypatch.setattr(bounds_module, "_GRID_BUDGET", grid_budget)
        monkeypatch.setattr(bounds_module, "_SEARCH_BUDGET", search_budget)
        got = _outcome(ml_alphabet, shape, d, q, oracle=oracle, **kwargs)
        want = _outcome(ref_ml_alphabet, shape, d, q, oracle=oracle,
                        grid_budget=grid_budget, **kwargs)
        assert got == want, (shape, d, q, kwargs, grid_budget, key)
        if isinstance(got, BoundReport):
            seen["skipped"] += bool(got.skipped)
            seen["at_budget"] += at_budget
        else:
            seen["error"] += 1
            seen["budget"] += got[0] == "BudgetError"
        seen["empty"] += any(n_i == 0 for n_i, _ in shape)
        seen["four"] += len(shape) == 4
    assert min(seen.values()) > 0, seen


def test_cm_bound_is_the_one_class_grid_truncated_or_not():
    # on one class the truncation min(n, t(r+1)) only lifts residuals below 0
    # to 0, which the oracle answers alike, so cm_bound (the untruncated
    # bound) is the truncated grid; a seeded sample of n <= 30, r <= 7,
    # d in [0, n+2], q in {1, 2, 3, 16} under five oracle chains
    rng = random.Random(20163)
    oracles = [KOptOracle(mode) for mode in _ORACLE_MODES[:5]]
    seen = {"report": 0, "error": 0, "edge": 0, "d<1": 0}
    for _ in range(2500):
        n, r = rng.randint(1, 30), rng.randint(1, 7)
        d, q = rng.randint(0, n + 2), rng.choice([1, 2, 3, 16])
        oracle = rng.choice(oracles)
        truncated = _outcome(ref_ml_alphabet, ((n, r),), d, q, oracle)
        assert _outcome(ref_ml_alphabet, ((n, r),), d, q, oracle, truncate=False) == (
            truncated), (n, r, d, q, oracle)
        if d < 1:
            want = ("PreconditionError", f"need n, d, r >= 1, got n={n}, d={d}, r={r}")
        elif isinstance(truncated, BoundReport):
            want = dataclasses.replace(truncated, name="cm")
        else:
            want = truncated
        assert _outcome(cm_bound, n, d, r, q, oracle) == want, (n, r, d, q, oracle)
        seen["report"] += isinstance(want, BoundReport)
        seen["error"] += not isinstance(want, BoundReport)
        seen["edge"] += isinstance(want, BoundReport) and "edge" in want.mode_flags
        seen["d<1"] += d < 1
    assert min(seen.values()) > 0, seen


def test_griesmer_matches_reference_sum():
    for q in range(2, 6):
        for n in range(-2, 50):
            for d in range(-3, 60):
                assert griesmer_max_k(q, n, d) == ref_griesmer_max_k(q, n, d), (q, n, d)
    # the closed form for the all-ones tail answers huge lengths at once
    assert griesmer_max_k(2, 10**12, 2) == 10**12 - 1


def test_default_oracles_share_the_import_validated_table(monkeypatch):
    def refuse(*entry):
        raise ParseError(f"validated again: {entry}")

    monkeypatch.setattr(bounds_module, "_validate_table_entry", refuse)
    oracle = KOptOracle("singleton")
    assert oracle.table == BUNDLED_KOPT_TABLE
    oracle.table[(2, 9, 6)] = (2, "local")
    assert (2, 9, 6) not in BUNDLED_KOPT_TABLE  # each oracle holds its own copy
    with pytest.raises(ParseError, match="validated again"):
        KOptOracle(table={(2, 12, 8): (2, "user entry")})
