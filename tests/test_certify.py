"""Tests for optimality certificates, dominance checks, and report rendering.

Expected distances for codes introduced here are frozen from the brute-force
message-enumeration oracle below; bound values reuse the hand-evaluated
constants already pinned in the bounds tests.
"""

import dataclasses
import functools
import itertools
import pickle
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from mllrc import (
    BoundReport,
    DominanceReport,
    KOptOracle,
    LinearCode,
    PyramidSpec,
    algorithm1_ml_lrc,
    certify,
    certify_pyramid,
    check_dominance,
    cm_bound,
    construction2_binary_lrc,
    full_analysis,
    ml_alphabet,
    ml_singleton,
    reed_solomon,
    render_analysis_kv,
    render_analysis_text,
    render_bound_kv,
    render_certificate_kv,
    render_certificate_text,
    render_dominance_text,
    tamo_barg,
)
from mllrc.errors import BudgetError, PreconditionError
from mllrc.galois import field_new
from test_bounds import _outcome, ref_ml_alphabet

F2 = field_new(2)
F13 = field_new(13)


def brute_distance(code: LinearCode) -> int:
    """Minimum weight by enumerating all q^k messages with scalar arithmetic."""
    F = code.field
    rows = [list(map(int, r)) for r in code.G.a]
    best = code.n
    for msg in itertools.product(range(F.q), repeat=code.k):
        if not any(msg):
            continue
        word = [0] * code.n
        for m, row in zip(msg, rows):
            if m:
                word = [F.add(w, F.mul(m, v)) for w, v in zip(word, row)]
        best = min(best, sum(1 for w in word if w))
    return best


@functools.lru_cache(maxsize=None)
def doubled_identity() -> LinearCode:
    """[8,2,4] binary code: two duplicated length-4 repetition patterns, so
    every coordinate has locality 1 and the dimension is far below what the
    alphabet-dependent bound allows for that profile."""
    return LinearCode(F2, [[1, 0] * 4, [0, 1] * 4])


class TestCertify:
    def test_subgroup_code_both_sides_optimal(self):
        cert = certify(tamo_barg(13, 12, 6, 3))
        assert (cert.n, cert.k, cert.d, cert.q) == (12, 6, 6, 13)
        assert cert.mode == "loose"
        assert cert.accounting == "all-symbol"
        assert cert.profile.shape() == ((12, 3),)
        assert cert.singleton_bound.bound_value == 6
        assert cert.singleton_optimal is True
        # the analytic chain gives the inexact upper bound 6 = k at t=1..2;
        # an attained upper bound certifies optimality even when inexact
        assert cert.alphabet_bound.bound_value == 6
        assert cert.alphabet_optimal is True
        assert cert.alphabet_bound.exact is False

    def test_two_class_shortened_code_singleton_optimal(self):
        code = algorithm1_ml_lrc(tamo_barg(13, 12, 6, 3), 2, 3)
        cert = certify(code)
        assert (cert.n, cert.k, cert.d) == (11, 5, 6)
        assert cert.profile.shape() == ((3, 2), (8, 3))
        assert cert.singleton_bound.bound_value == 6
        assert cert.singleton_optimal is True

    def test_binary_single_class_alphabet_optimal(self):
        cert = certify(
            construction2_binary_lrc(3, 0), oracle=KOptOracle("table")
        )
        assert (cert.n, cert.k, cert.d, cert.q) == (20, 8, 8, 2)
        assert cert.profile.shape() == ((20, 3),)
        assert cert.singleton_bound.bound_value == 11
        assert cert.singleton_optimal is False
        assert cert.alphabet_bound.bound_value == 8
        assert cert.alphabet_bound.witness == (2,)
        assert cert.alphabet_optimal is True

    def test_binary_two_class_alphabet_optimal(self):
        code = algorithm1_ml_lrc(construction2_binary_lrc(3, 0), 2, 3)
        cert = certify(code, oracle=KOptOracle("table"))
        assert (cert.n, cert.k, cert.d) == (19, 7, 8)
        assert cert.profile.shape() == ((3, 2), (16, 3))
        assert cert.singleton_bound.bound_value == 11
        assert cert.singleton_optimal is False
        assert cert.alphabet_bound.bound_value == 7
        assert cert.alphabet_bound.witness == (1, 1)
        assert cert.alphabet_optimal is True

    def test_false_verdict_under_exact_oracle(self):
        code = doubled_identity()
        assert brute_distance(code) == 4
        cert = certify(code)
        assert cert.profile.shape() == ((8, 1),)
        assert cert.singleton_bound.bound_value == 6
        assert cert.singleton_optimal is False
        # exhaustive oracle: k_opt(2, 8-2t, 4) = 4, 3, 1, 0 for t = 0..3,
        # so the bound is min(4, 1+3, 2+1, 3+0) = 3 > k = 2, all cells exact
        assert cert.alphabet_bound.bound_value == 3
        assert cert.alphabet_bound.witness == (3,)
        assert cert.alphabet_bound.exact is True
        assert cert.alphabet_optimal is False

    def test_unknown_verdict_under_inexact_oracle(self):
        cert = certify(doubled_identity(), oracle=KOptOracle("analytic"))
        assert cert.alphabet_bound.bound_value == 3
        assert cert.alphabet_bound.exact is False
        assert cert.alphabet_optimal is None

    def test_attained_inexact_bound_still_certifies(self):
        # the r=2 concatenated construction really is [9,3,4] with a mixed
        # profile; the bound cell at the witness is an exact edge case but
        # other consulted cells are analytic, and k attains the bound anyway
        cert = certify(construction2_binary_lrc(2, 0))
        assert (cert.n, cert.k, cert.d, cert.q) == (9, 3, 4, 2)
        assert cert.profile.shape() == ((6, 1), (3, 2))
        assert cert.singleton_bound.bound_value == 5
        assert cert.singleton_optimal is False
        assert cert.alphabet_bound.bound_value == 3
        assert cert.alphabet_bound.witness == (3, 0)
        assert cert.alphabet_bound.exact is False
        assert cert.alphabet_optimal is True

    def test_strict_mode_recorded(self):
        cert = certify(construction2_binary_lrc(2, 0), mode="strict")
        assert cert.mode == "strict"
        assert cert.profile.shape() == ((6, 1), (3, 2))

    def test_inconsistent_table_rejected(self):
        # a table claiming k_opt(2,12,8) = 1 passes the per-entry sanity
        # bounds but drives the evaluated dimension bound below the actual
        # dimension of a real code, which certify must refuse to certify
        bad = KOptOracle("table", table={(2, 12, 8): (1, "wrong-entry")})
        with pytest.raises(PreconditionError):
            certify(construction2_binary_lrc(3, 0), oracle=bad)

    def test_table_on_foreign_field_falls_back_to_edge_cells(self):
        # the bundled table has no GF(13) rows, so every cell needing the
        # oracle is skipped; cells whose residual length drops below d are
        # exact without any oracle and still give a valid (inexact) bound,
        # here attained by the dimension
        code = algorithm1_ml_lrc(tamo_barg(13, 12, 6, 3), 2, 3)
        cert = certify(code, oracle=KOptOracle("table"))
        ab = cert.alphabet_bound
        assert ab.bound_value == 5
        assert ab.witness == (1, 1)
        assert ab.exact is False
        assert ab.mode_flags == ("edge",)
        assert ab.skipped == ((0, 0), (0, 1), (1, 0))
        assert cert.alphabet_optimal is True

    def test_certify_deterministic(self):
        a = certify(construction2_binary_lrc(3, 0), oracle=KOptOracle("table"))
        b = certify(construction2_binary_lrc(3, 0), oracle=KOptOracle("table"))
        assert a == b
        assert render_certificate_kv(a) == render_certificate_kv(b)
        assert render_certificate_text(a) == render_certificate_text(b)


class TestLemmaPreservation:
    """Shortening a Singleton-optimal single-locality code preserves
    Singleton optimality (checked as recomputed certificates)."""

    def test_subgroup_code_chain(self):
        code = tamo_barg(13, 12, 6, 3)
        assert certify(code).singleton_optimal is True
        sh1 = code.shorten(0)
        c1 = certify(sh1)
        assert (sh1.n, sh1.k, c1.d) == (11, 5, 6)
        assert c1.profile.shape() == ((3, 2), (8, 3))
        assert c1.singleton_optimal is True
        # second shortening, deleting the lexicographically smallest
        # coordinate of the larger-locality class
        c2 = certify(sh1.shorten(3))
        assert c2.profile.shape() == ((6, 2), (4, 3))
        assert c2.singleton_bound.bound_value == 6 == c2.d
        assert c2.singleton_optimal is True

    def test_mds_code_chain(self):
        code = reed_solomon(F13, 12, 6)
        c0 = certify(code)
        assert (c0.d, c0.profile.shape(), c0.singleton_optimal) == (
            7,
            ((12, 6),),
            True,
        )
        c1 = certify(code.shorten(0))
        assert (c1.d, c1.profile.shape(), c1.singleton_optimal) == (
            7,
            ((11, 5),),
            True,
        )


class TestCertifyPyramid:
    def test_single_class_instance(self):
        cert = certify_pyramid(PyramidSpec(7, 4, ((4, 2),)))
        assert (cert.n, cert.k, cert.d, cert.q) == (8, 4, 4, 7)
        assert cert.mode == "declared"
        assert cert.accounting == "information-symbol"
        assert cert.singleton_bound.bound_value == 4
        assert cert.singleton_bound.witness == (2,)
        assert cert.singleton_bound.effective_shape == ((6, 2),)
        assert cert.singleton_optimal is True
        assert cert.alphabet_bound is None
        assert cert.alphabet_optimal is None

    def test_two_class_instance(self):
        cert = certify_pyramid(PyramidSpec(7, 3, ((2, 1), (2, 2))))
        assert (cert.n, cert.k, cert.d) == (8, 4, 3)
        assert cert.singleton_bound.bound_value == 3
        assert cert.singleton_bound.witness == (2, 1)
        assert cert.singleton_optimal is True

    def test_non_divisible_dimensions(self):
        # k_1 = 3 with r_1 = 2 leaves a slack block; the declared-dimension
        # evaluation must still match the distance exactly (a shape-based
        # allocation could shave the last ceiling and report 4)
        cert = certify_pyramid(PyramidSpec(23, 3, ((3, 2), (4, 3))))
        assert (cert.n, cert.k, cert.d) == (12, 7, 3)
        assert cert.singleton_bound.bound_value == 3
        assert cert.singleton_bound.witness == (2, 2)
        assert cert.singleton_optimal is True

    def test_optimality_across_instances(self):
        instances = [
            (7, 4, ((4, 2),)),
            (7, 3, ((2, 1), (2, 2))),
            (13, 5, ((6, 3),)),
            (23, 3, ((3, 2), (4, 3))),
            (23, 4, ((2, 1), (3, 2))),
            (23, 3, ((5, 2), (3, 4))),
            (23, 4, ((1, 1), (2, 2), (3, 3))),
        ]
        for q, d, dims in instances:
            cert = certify_pyramid(PyramidSpec(q, d, dims))
            assert cert.singleton_optimal is True, (q, d, dims)
            assert cert.d == d

    def test_render_marks_alphabet_not_applicable(self):
        cert = certify_pyramid(PyramidSpec(7, 4, ((4, 2),)))
        text = render_certificate_text(cert)
        assert "not applicable" in text
        assert "(declared, information-symbol)" in text
        kv = render_certificate_kv(cert)
        assert "alphabet.optimal=not-applicable" in kv.splitlines()


_CERTIFY = sys.modules["mllrc.certify"]


class TestRefusalsOnlyAWrongBoundReaches:
    """Refusals that a correct bound or scan never reaches, forced by
    patching the bound on both routes into the shared certificate tail, and
    the profile verification of full_analysis."""

    @pytest.mark.parametrize("route", ["certify", "full_analysis"])
    def test_all_symbol_route(self, monkeypatch, route):
        real = _CERTIFY.ml_singleton
        monkeypatch.setattr(_CERTIFY, "ml_singleton",
                            lambda shape, k: dataclasses.replace(real(shape, k), bound_value=5))
        with pytest.raises(PreconditionError) as refused:
            getattr(_CERTIFY, route)(tamo_barg(13, 12, 6, 3))
        assert type(refused.value) is PreconditionError
        assert str(refused.value) == (
            "recomputed distance 6 exceeds the Singleton-type bound 5; this "
            "cannot happen for a correct bound")

    def test_information_symbol_route(self, monkeypatch):
        def lowered(**fields):
            return BoundReport(**{**fields, "bound_value": fields["bound_value"] - 1})

        monkeypatch.setattr(_CERTIFY, "BoundReport", lowered)
        with pytest.raises(PreconditionError) as refused:
            certify_pyramid(PyramidSpec(7, 4, ((4, 2),)))
        assert type(refused.value) is PreconditionError
        assert str(refused.value) == (
            "recomputed distance 4 exceeds the Singleton-type bound 3; this "
            "cannot happen for a correct bound")

    @pytest.mark.parametrize("verified", [(False, {}), (True, {0: None})])
    def test_profile_that_fails_its_own_verification(self, monkeypatch, verified):
        monkeypatch.setattr(LinearCode, "verify_profile", lambda *args, **kwargs: verified)
        with pytest.raises(PreconditionError) as refused:
            full_analysis(tamo_barg(13, 12, 6, 3))
        assert type(refused.value) is PreconditionError
        assert str(refused.value) == (
            "recomputed profile failed its own verification; this cannot "
            "happen for a correct scan")


def _random_shape(rng: random.Random) -> tuple[tuple[int, int], ...]:
    s = rng.randint(1, 3)
    locs = sorted(rng.sample(range(1, 7), s))
    return tuple((rng.randint(1, 4) * (r + 1), r) for r in locs)


class TestCheckDominance:
    def test_singleton_violating_point_rejected(self):
        rep = check_dominance(((3, 2), (8, 3)), 5, 7, 13)
        assert rep.singleton_bound.bound_value == 6
        assert rep.singleton_feasible is False
        assert rep.alphabet_bound == 4
        assert rep.alphabet_rejects is True
        assert rep.holds is True

    def test_singleton_feasible_point_vacuous(self):
        rep = check_dominance(((3, 2), (8, 3)), 5, 6, 13)
        assert rep.singleton_feasible is True
        assert rep.alphabet_rejects is False
        assert rep.holds is True

    def test_random_sweep(self):
        rng = random.Random(20260815)
        for _ in range(500):
            shape = _random_shape(rng)
            n = sum(sz for sz, _ in shape)
            k = rng.randint(1, n - 1)
            d = rng.randint(1, n)
            q = rng.choice([2, 3, 4, 5, 13])
            rep = check_dominance(shape, k, d, q)
            assert rep.holds is True, (shape, k, d, q)

    def test_shared_oracle_gives_the_reports_of_a_fresh_one(self):
        # the dominance check reads the alphabet bound in closed form; every
        # field must be what ml_singleton and the untruncated reference grid
        # under a fresh singleton oracle give at the same point
        rng = random.Random(2000)
        points = []
        for _ in range(2000):
            shape = _random_shape(rng)
            n = sum(sz for sz, _ in shape)
            points.append((shape, rng.randint(1, n - 1), rng.randint(1, n),
                           rng.choice([2, 3, 4, 5, 8, 13])))
        for point in points:
            shape, k, d, q = point
            sb = ml_singleton(shape, k)
            ab = ref_ml_alphabet(shape, d, q, oracle=KOptOracle("singleton"), k_hint=k,
                                 truncate=False)
            want = DominanceReport(
                holds=d <= sb.bound_value or ab.bound_value < k, k=k, d=d, q=q,
                singleton_feasible=d <= sb.bound_value,
                alphabet_rejects=ab.bound_value < k,
                singleton_bound=sb, alphabet_bound=ab.bound_value,
            )
            rep = check_dominance(*point)
            for field in dataclasses.fields(rep):
                assert getattr(rep, field.name) == getattr(want, field.name), (
                    point, field.name)

    @pytest.mark.parametrize("shape, k, d, q, error, text", [
        (((3, 2), (8, 3)), 5, 7, 1, PreconditionError, "alphabet size must be >= 2, got 1"),
        (((3, 2), (8, 3)), 5, 0, 1, PreconditionError, "distance must be >= 1, got 0"),
        (((2, 1), (2000000, 2)), 1999999, 2, 1, PreconditionError,
         "alphabet size must be >= 2, got 1"),
        (((3, 2), (8, 3)), 0, 0, 1, PreconditionError,
         "need 1 <= k <= sum(n_i), got k=0, n=11"),
    ])
    def test_refusals_come_in_the_grid_order(self, shape, k, d, q, error, text):
        # k is checked by ml_singleton, then d and the alphabet; no grid
        # size refuses, not even a 2,000,000-cell box
        with pytest.raises(error) as got:
            check_dominance(shape, k, d, q)
        assert str(got.value) == text

    def test_profile_is_checked_once(self, monkeypatch):
        normalize = sys.modules["mllrc.linear_code"]._normalize_shape
        checks = []

        def counted(profile, *args, **kwargs):
            checks.append(profile)
            return normalize(profile, *args, **kwargs)

        for name in ("mllrc.certify", "mllrc.bounds"):
            monkeypatch.setattr(sys.modules[name], "_normalize_shape", counted)
        rep = check_dominance(((3, 2), (8, 3)), 5, 7, 13)
        assert len(checks) == 1
        assert type(rep.singleton_bound.effective_shape) is tuple

    @pytest.mark.parametrize("shape", [
        (), ((0, 1),), ((3, 0),), ((3, 2), (4, 2)), ((3, 3), (4, 2)),
    ])
    def test_invalid_profile_refused_as_by_the_singleton_bound(self, shape):
        with pytest.raises(PreconditionError) as want:
            ml_singleton(shape, 1)
        with pytest.raises(PreconditionError) as got:
            check_dominance(shape, 1, 2, 2)
        assert str(got.value) == str(want.value)

    def test_answers_past_the_grid_budget(self):
        # a 2,000,000-cell box: E = 2,000,001 packs one block of 2, then
        # 666,666 blocks of 3 under the cap (1,999,999 - 1 - 1) div 2, so the
        # bound is max(1 + 1,333,332, 2,000,001 - 666,667) = 1,333,334
        rep = check_dominance(((2, 1), (2000000, 2)), 1999999, 2, 2)
        assert (rep.alphabet_bound, rep.singleton_bound.bound_value) == (1333334, 0)
        assert (rep.holds, rep.singleton_feasible, rep.alphabet_rejects) == (True, False, True)

    def test_matches_the_public_bounds_on_wide_draws(self):
        # every report, or refusal type and text, is what public ml_singleton
        # and the untruncated reference grid give, bad profiles, k, d and q
        # included
        rng = random.Random(25)
        seen = dict.fromkeys(("shape", "order", "k", "d", "q", "feasible", "rejects",
                              "fails"), 0)
        for _ in range(20_000):
            point = _wide_point(rng)
            want = _outcome(_ref_check_dominance, *point)
            got = _outcome(check_dominance, *point)
            assert repr(got) == repr(want) and got == want, point
            if isinstance(want, DominanceReport):
                seen["feasible"] += want.singleton_feasible
                seen["rejects"] += want.alphabet_rejects
                seen["fails"] += not want.holds
            else:
                seen[_refusal_kind(want[1])] += 1
        assert seen["fails"] == 0
        del seen["fails"]
        assert all(seen.values()), seen


def _wide_point(rng: random.Random):
    """A (shape, k, d, q) point with class sizes <= 12, some of it invalid:
    empty profiles, n_i = 0, r_i = 0 and localities that do not increase."""
    s = rng.randint(0, 3) if rng.random() < 0.05 else rng.randint(1, 3)
    locs = sorted(rng.sample(range(1, 7), s))
    if s > 1 and rng.random() < 0.02:  # decreasing or equal localities
        locs = locs[::-1] if rng.random() < 0.5 else locs[:1] * s
    if s and rng.random() < 0.01:
        locs[0] = 0
    sizes = [0 if rng.random() < 0.01 else rng.randint(1, 12) for _ in locs]
    n = sum(sizes)
    return (tuple(zip(sizes, locs)), rng.randint(-1, n + 2), rng.randint(-1, n + 2),
            rng.choice([1, 2, 13]))


def _ref_check_dominance(shape, k, d, q):
    sb = ml_singleton(shape, k)
    ab = ref_ml_alphabet(shape, d, q, KOptOracle("singleton"), k_hint=k, truncate=False,
                         grid_budget=float("inf"))
    return DominanceReport(
        holds=d <= sb.bound_value or ab.bound_value < k, k=k, d=d, q=q,
        singleton_feasible=d <= sb.bound_value, alphabet_rejects=ab.bound_value < k,
        singleton_bound=sb, alphabet_bound=ab.bound_value,
    )


def _refusal_kind(text):
    for prefix, kind in (("need 1 <= k", "k"), ("distance", "d"), ("alphabet size", "q"),
                         ("localities must be", "order")):
        if text.startswith(prefix):
            return kind
    return "shape"


class TestSlottedReports:
    """BoundReport and DominanceReport are frozen, slotted dataclasses that
    the dominance check builds positionally; their public contract holds.
    A DominanceReport's alphabet_bound is a plain int."""

    FIELDS = {
        BoundReport: ("name", "bound_value", "witness", "exact", "mode_flags", "skipped",
                      "collapse_applied", "effective_shape"),
        DominanceReport: ("holds", "k", "d", "q", "singleton_feasible", "alphabet_rejects",
                          "singleton_bound", "alphabet_bound"),
    }

    @staticmethod
    def reports():
        rep = check_dominance(((3, 2), (8, 3)), 5, 7, 13)
        return [rep, rep.singleton_bound, cm_bound(10, 4, 2, 2)]

    def test_field_order_is_pinned(self):
        # the hot producers pass the fields by position
        for cls, names in self.FIELDS.items():
            assert tuple(f.name for f in dataclasses.fields(cls)) == names
            assert cls.__slots__ == names

    def test_pickle_round_trip_gives_an_equal_report(self):
        for rep in self.reports():
            copy = pickle.loads(pickle.dumps(rep))
            assert copy == rep and repr(copy) == repr(rep)

    def test_equal_reports_hash_equal(self):
        for rep, again in zip(self.reports(), self.reports()):
            assert rep is not again
            assert rep == again and hash(rep) == hash(again)

    def test_fields_are_frozen(self):
        for rep in self.reports():
            for name in self.FIELDS[type(rep)]:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(rep, name, getattr(rep, name))

    def test_replace_still_works(self):
        oracle = KOptOracle("analytic")
        rep = ml_alphabet(((10, 2),), 4, 2, oracle)
        assert dataclasses.replace(rep, name="cm") == cm_bound(10, 4, 2, 2, oracle)
        dom = self.reports()[0]
        assert dataclasses.replace(dom, holds=False).holds is False

    def test_negative_bound_value_is_refused(self):
        with pytest.raises(PreconditionError, match="bound_value must be >= 0"):
            BoundReport("x", -1, (0,), True)
        with pytest.raises(PreconditionError, match="bound_value must be >= 0"):
            dataclasses.replace(self.reports()[1], bound_value=-1)


class TestFullAnalysis:
    def test_small_subgroup_code(self):
        rep = full_analysis(tamo_barg(5, 4, 2, 1))
        cert = rep.certificate
        assert (cert.n, cert.k, cert.d, cert.q) == (4, 2, 2, 5)
        assert cert.profile.shape() == ((4, 1),)
        assert cert.singleton_optimal is True
        assert rep.rate_limit == Fraction(2)
        assert [c for c, _ in rep.witnesses] == [0, 1, 2, 3]
        # locality-1 witnesses: each coordinate repaired from its partner
        helpers = {c: rs.helpers for c, rs in rep.witnesses}
        assert helpers == {0: (1,), 1: (0,), 2: (3,), 3: (2,)}
        assert rep.dominance.holds is True

    def test_repetition_code(self):
        rep = full_analysis(LinearCode(F2, [[1, 1, 1, 1]]))
        cert = rep.certificate
        assert cert.profile.shape() == ((4, 1),)
        assert cert.singleton_bound.bound_value == 4 == cert.d
        assert cert.singleton_optimal is True
        assert cert.alphabet_bound.bound_value == 1
        assert cert.alphabet_optimal is True
        assert cert.alphabet_bound.exact is True

    def test_binary_concatenated_pipeline(self):
        rep = full_analysis(construction2_binary_lrc(2, 0))
        cert = rep.certificate
        assert (cert.n, cert.k, cert.d) == (9, 3, 4)
        assert cert.singleton_optimal is False
        assert cert.alphabet_optimal is True
        # every coordinate carries a verified repair set
        assert len(rep.witnesses) == 9

    def test_witnesses_verify_against_code(self):
        code = algorithm1_ml_lrc(tamo_barg(13, 12, 6, 3), 2, 3)
        rep = full_analysis(code)
        for c, rs in rep.witnesses:
            assert rs.target == c
            assert rs.holds_for(code)

    def test_deterministic_output(self):
        a = full_analysis(construction2_binary_lrc(2, 0))
        b = full_analysis(construction2_binary_lrc(2, 0))
        assert render_analysis_kv(a) == render_analysis_kv(b)
        assert render_analysis_text(a) == render_analysis_text(b)

    def test_budget_error_propagates(self):
        with pytest.raises(BudgetError):
            full_analysis(tamo_barg(13, 12, 6, 3), budget=1)

    @pytest.mark.parametrize("mode", ["loose", "strict"])
    @pytest.mark.parametrize("build,dual_route", [
        (lambda: tamo_barg(13, 12, 6, 3).shorten(0), False),
        (lambda: construction2_binary_lrc(3, 0), True),
    ])
    def test_witnesses_come_from_the_profile_scan(self, monkeypatch, build, dual_route,
                                                  mode):
        # the profile scan keeps the repair sets, so verify_profile scans
        # nothing more; the dual scan's witness pass runs only when asked
        scans, witness_passes = [], []
        real_scan, real_dual = LinearCode._locality_scan, LinearCode._dual_support_scan

        def scan(self, support, *args):
            scans.append(support)
            return real_scan(self, support, *args)

        def dual(self, support, targets, K, want_witnesses):
            witness_passes.append(want_witnesses)
            return real_dual(self, support, targets, K, want_witnesses)

        monkeypatch.setattr(LinearCode, "_locality_scan", scan)
        monkeypatch.setattr(LinearCode, "_dual_support_scan", dual)
        code = build()
        cert = certify(LinearCode(code.field, code.G.a), mode=mode)
        profile_scans = len(scans)
        assert not any(witness_passes)
        if mode == "loose":  # [11,5]_13 by span search, [20,8]_2 by the dual
            assert bool(witness_passes) == dual_route
        scans.clear()
        witness_passes.clear()
        report = full_analysis(code, mode=mode)
        assert report.certificate == cert
        assert len(scans) == profile_scans
        assert all(witness_passes)
        for c, rs in report.witnesses:
            assert rs.holds_for(code)


class TestConsistencyInvariant:
    """At every certified point the two bounds agree with the dominance
    relation: a real code is always Singleton-feasible, and a certificate
    can never pair singleton optimality with an alphabet rejection."""

    def test_certified_corpus(self):
        corpus = [
            (tamo_barg(13, 12, 6, 3), None),
            (algorithm1_ml_lrc(tamo_barg(13, 12, 6, 3), 2, 3), None),
            (construction2_binary_lrc(3, 0), KOptOracle("table")),
            (
                algorithm1_ml_lrc(construction2_binary_lrc(3, 0), 2, 3),
                KOptOracle("table"),
            ),
            (construction2_binary_lrc(2, 0), None),
            (doubled_identity(), None),
            (LinearCode(F2, [[1, 1, 1, 1]]), None),
        ]
        for code, oracle in corpus:
            cert = certify(code, oracle=oracle)
            dom = check_dominance(cert.profile.shape(), cert.k, cert.d, cert.q)
            assert dom.singleton_feasible is True
            assert dom.holds is True
            if cert.singleton_optimal and cert.alphabet_bound.exact:
                assert cert.alphabet_optimal is True


class TestRenderers:
    def test_certificate_kv_golden(self):
        cert = certify(
            construction2_binary_lrc(3, 0), oracle=KOptOracle("table")
        )
        assert render_certificate_kv(cert) == "\n".join(
            [
                "n=20",
                "k=8",
                "d=8",
                "q=2",
                "mode=loose",
                "accounting=all-symbol",
                "profile=(20,3)",
                "singleton.bound=11",
                "singleton.witness=3",
                "singleton.optimal=false",
                "alphabet.bound=8",
                "alphabet.witness=2",
                "alphabet.exact=false",
                "alphabet.flags=edge,table",
                "alphabet.skipped=0",
                "alphabet.optimal=true",
            ]
        )

    def test_certificate_text_headline(self):
        cert = certify(tamo_barg(13, 12, 6, 3))
        text = render_certificate_text(cert)
        lines = text.splitlines()
        assert lines[0] == "[12, 6, 6] code over GF(13)"
        assert lines[1] == "locality profile (loose, all-symbol): (12,3)"
        assert "Singleton-type distance bound: 6 -> optimal: true" in lines

    def test_bound_kv_fields(self):
        kv = render_bound_kv(ml_singleton(((3, 2), (8, 3)), 5))
        assert "name=ml-singleton" in kv.splitlines()
        assert "bound=6" in kv.splitlines()
        assert "exact=true" in kv.splitlines()

    def test_dominance_renders(self):
        rep = check_dominance(((3, 2), (8, 3)), 5, 7, 13)
        text = render_dominance_text(rep)
        assert "Singleton-type bound 6: violated" in text
        assert "alphabet-dependent bound (Singleton relaxation) 4: rejects k" in text
        assert text.endswith("consistency holds")

    def test_analysis_kv_structure(self):
        rep = full_analysis(tamo_barg(5, 4, 2, 1))
        lines = render_analysis_kv(rep).splitlines()
        assert "rate.limit=2" in lines
        assert "witness.1=2|1" in lines
        assert lines[-1] == "dominance.holds=true"
        text = render_analysis_text(rep)
        assert "rate limit: dimension <= 2 for this profile (attained)" in text
