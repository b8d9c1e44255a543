"""End-to-end tests of the command-line interface.

All invocations go through ``mllrc.cli.run`` in-process (same code path as
the installed ``mllrc`` script); one test exercises the real subprocess
entry.  Expected numbers reuse values independently frozen in the bounds and
constructions tests.
"""

import hashlib
import json
import os
import random
import re
import runpy
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mllrc import (
    LinearCode,
    PyramidSpec,
    algorithm1_ml_lrc,
    algorithm3_ml_lrc,
    construction2_binary_lrc,
    construction2_gcc_spec,
    load_code,
    save_code,
    save_gcc_spec,
    save_pyramid_spec,
    tamo_barg,
)
import mllrc.bounds as bounds_module
import mllrc.cli as cli_module
import mllrc.galois as galois_module
import mllrc.kernel as kernel_module
import mllrc.linear_code as linear_code_module
from mllrc.cli import run
from mllrc.errors import PreconditionError
from mllrc.galois import field_new
from mllrc.linear_code import code_from_parity_check

F2 = field_new(2)
# child interpreters import the package from src/, as the tests do
_CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


@pytest.fixture
def cli(capsys):
    def invoke(*argv):
        rc = run(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    return invoke


@pytest.fixture
def spc_file(tmp_path):
    path = tmp_path / "spc.code"
    save_code(
        LinearCode(F2, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]), path
    )
    return str(path)


class TestConstruct:
    def test_tamo_barg_round_trip(self, cli, tmp_path):
        out_file = tmp_path / "tb.code"
        rc, _, _ = cli(
            "construct", "tamo-barg", "--q", "13", "--n", "12", "--k", "6",
            "--r", "3", "--out", str(out_file),
        )
        assert rc == 0
        code = load_code(out_file)
        assert np.array_equal(code.G.a, tamo_barg(13, 12, 6, 3).G.a)
        # emitted file re-parses to an identical emission
        resaved = tmp_path / "tb2.code"
        save_code(code, resaved)
        assert out_file.read_text() == resaved.read_text()

    def test_gcc2_stdout(self, cli):
        rc, out, _ = cli("construct", "gcc2", "--r", "2", "--j", "0")
        assert rc == 0
        assert out.splitlines()[0] == "q=2 p=2 m=1 n=9 k=3"

    def test_alg1_with_and_without_groups(self, cli, tmp_path):
        tb_file = tmp_path / "tb.code"
        save_code(tamo_barg(13, 12, 6, 3), tb_file)
        auto, manual = tmp_path / "auto.code", tmp_path / "manual.code"
        assert cli("construct", "alg1", "--in", str(tb_file), "--r1", "2",
                   "--n1", "3", "--out", str(auto))[0] == 0
        assert cli("construct", "alg1", "--in", str(tb_file), "--r1", "2",
                   "--n1", "3", "--groups", "1,2,3,4;5,6,7,8;9,10,11,12",
                   "--out", str(manual))[0] == 0
        assert auto.read_text() == manual.read_text()
        expected = algorithm1_ml_lrc(tamo_barg(13, 12, 6, 3), 2, 3)
        assert np.array_equal(load_code(auto).G.a, expected.G.a)

    def test_alg1_detects_groups_larger_than_n_minus_k(self, cli, tmp_path):
        # two binary [5,4] single-parity blocks ([10,8]) and a [4,3] one
        codes = {
            "blocks": ([[1] * 5 + [0] * 5, [0] * 5 + [1] * 5], "1,2,3,4,5;6,7,8,9,10"),
            "spc": ([[1, 1, 1, 1]], "1,2,3,4"),
        }
        for name, (H, groups) in codes.items():
            base = tmp_path / f"{name}.code"
            save_code(code_from_parity_check(F2, H), base)
            argv = ("construct", "alg1", "--in", str(base), "--r1", "1", "--n1", "2")
            rc, auto, err = cli(*argv)
            assert (rc, err) == (0, "")
            assert cli(*argv, "--groups", groups) == (0, auto, "")

    def test_alg1_detection_over_budget_is_refused(self, cli, tmp_path):
        # gcc2 r = 4 ([45,23]_2): r2 = 4 has no partition, r2 = 8 would walk
        # C(45, 9) subsets
        base = tmp_path / "g45.code"
        save_code(construction2_binary_lrc(4, 0), base)
        start = time.perf_counter()
        rc, out, err = cli("construct", "alg1", "--in", str(base), "--r1", "3", "--n1", "4")
        assert time.perf_counter() - start < 5
        assert (rc, out) == (1, "")
        assert err == (
            "budget error: repair-group detection at r = 8 needs 886163135 units "
            "for 886163135 subsets; budget is 100000000\n"
        )

    def test_alg3_matches_library(self, cli, tmp_path):
        base_file = tmp_path / "g20.code"
        save_code(construction2_binary_lrc(3, 0), base_file)
        out_file = tmp_path / "a3.code"
        rc, _, _ = cli("construct", "alg3", "--in", str(base_file), "--r1", "2",
                       "--alpha", "1", "--out", str(out_file))
        assert rc == 0
        expected = algorithm3_ml_lrc(construction2_binary_lrc(3, 0), 2, 1)
        assert np.array_equal(load_code(out_file).G.a, expected.G.a)

    def test_group_errors_name_input_coordinates(self, cli, tmp_path):
        tb_file = tmp_path / "tb13.code"
        save_code(tamo_barg(13, 12, 6, 3), tb_file)
        argv = ("construct", "alg1", "--in", str(tb_file), "--r1", "2", "--n1", "3")
        assert cli(*argv, "--groups", "1,2,3,84") == (
            2, "", "usage error: position 84 outside 1..12\n")
        assert cli(*argv, "--groups", "1,2,3,4;5,6,7,7") == (
            2, "", "usage error: positions must be distinct: '5,6,7,7'\n")
        # a group with no full-support dual word is named by its place in the list
        for groups, i in (("1,2,3,5;4,6,7,8;9,10,11,12", 1),
                          ("1,2,3,4;5,6,7,9;8,10,11,12", 2)):
            assert cli(*argv, "--groups", groups) == (
                2, "", f"precondition error: repair group {i} of 3 carries no "
                "dual word with full support\n")

    def test_pyramid_over_budget_is_refused(self, cli, tmp_path):
        # k = 1000 over GF(1021): a 1000 x 1002 base
        spec_file = tmp_path / "big.spec"
        save_pyramid_spec(PyramidSpec(1021, 3, ((1000, 1),)), spec_file)
        err = (
            "budget error: pyramid construction needs 1002000000 units for the "
            "1000 x 1002 base; budget is 100000000\n"
        )
        for argv in (("construct", "pyramid", "--spec"), ("certify", "--pyramid")):
            start = time.perf_counter()
            assert cli(*argv, str(spec_file)) == (1, "", err)
            assert time.perf_counter() - start < 1

    def test_pyramid_spec(self, cli, tmp_path):
        spec_file = tmp_path / "pyr.spec"
        save_pyramid_spec(PyramidSpec(7, 4, ((4, 2),)), spec_file)
        rc, out, _ = cli("construct", "pyramid", "--spec", str(spec_file))
        assert rc == 0
        assert out.splitlines()[0] == "q=7 p=7 m=1 n=8 k=4"


class TestShorten:
    def test_spc_round_trips_through_analyze(self, cli, tmp_path, spc_file):
        short_file = tmp_path / "short.code"
        rc, _, _ = cli("shorten", "--in", spc_file, "--at", "1",
                       "--out", str(short_file))
        assert rc == 0
        code = load_code(short_file)
        assert (code.n, code.k, code.q) == (3, 2, 2)
        rc, out, _ = cli("analyze", "--in", str(short_file))
        assert rc == 0
        assert out.splitlines()[0] == "[3, 2, 2] code over GF(2)"
        assert "Singleton-type distance bound: 2 -> optimal: true" in out

    def test_multiple_positions_refer_to_input(self, cli, tmp_path, spc_file):
        # positions 1 and 2 of the original file, regardless of apply order
        out_file = tmp_path / "s2.code"
        rc, _, _ = cli("shorten", "--in", spc_file, "--at", "2,1",
                       "--out", str(out_file))
        assert rc == 0
        code = load_code(out_file)
        assert (code.n, code.k) == (2, 1)
        expected = LinearCode(
            F2, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
        ).shorten(1).shorten(0)
        assert np.array_equal(code.G.a, expected.G.a)

    def test_position_validation(self, cli, spc_file):
        assert cli("shorten", "--in", spc_file, "--at", "0")[0] == 2
        assert cli("shorten", "--in", spc_file, "--at", "5")[0] == 2
        assert cli("shorten", "--in", spc_file, "--at", "1,1")[0] == 2
        assert cli("shorten", "--in", spc_file, "--at", "x")[0] == 2

    def test_zero_column_is_a_precondition_error(self, cli, tmp_path):
        # shortening at 6..2 leaves position 1 identically zero
        tb_file = tmp_path / "tb13.code"
        save_code(tamo_barg(13, 12, 6, 3), tb_file)
        rc, out, err = cli("shorten", "--in", str(tb_file), "--at", "1,2,3,4,5,6")
        assert (rc, out) == (2, "")
        assert err == ("precondition error: cannot shorten at position 1: the generator "
                       "column is identically zero; shortening would not reduce the "
                       "dimension\n")


class TestBound:
    def test_ml_singleton_example(self, cli):
        rc, out, _ = cli("bound", "ml-singleton", "--profile", "(3,2),(8,3)",
                         "--k", "5", "--n", "11")
        assert rc == 0
        assert out.splitlines()[0] == "ml-singleton bound: 6"

    def test_profile_length_cross_check(self, cli):
        rc, _, err = cli("bound", "ml-singleton", "--profile", "(3,2),(8,3)",
                         "--k", "5", "--n", "12")
        assert rc == 2
        assert err.startswith("usage error:")

    def test_profile_string_canonicalized(self, cli):
        rc, out, _ = cli("bound", "ml-singleton", "--profile", "(8,3),(3,2)",
                         "--k", "5", "--format", "kv")
        assert rc == 0
        assert "shape=(3,2),(8,3)" in out.splitlines()
        assert "bound=6" in out.splitlines()

    def test_singleton(self, cli):
        rc, out, _ = cli("bound", "singleton", "--n", "12", "--k", "6", "--r", "3")
        assert rc == 0
        assert out == "singleton bound: 6\n"

    @pytest.mark.parametrize("r, rc, out, err", [
        ("3", 0, "name=singleton\nbound=6\n", ""),
        ("0", 2, "", "precondition error: locality must be >= 1, got 0\n"),
    ], ids=["answer", "refusal"])
    def test_singleton_kv(self, cli, r, rc, out, err):
        got = cli("bound", "singleton", "--n", "12", "--k", "6", "--r", r, "--format", "kv")
        assert got == (rc, out, err)

    def test_cm_with_table(self, cli):
        rc, out, _ = cli("bound", "cm", "--n", "20", "--d", "8", "--r", "3",
                         "--q", "2", "--oracle", "table", "--format", "kv")
        assert rc == 0
        lines = out.splitlines()
        assert "bound=8" in lines
        assert "witness=2" in lines

    def test_ml_alphabet_with_table(self, cli):
        rc, out, _ = cli("bound", "ml-alphabet", "--profile", "(3,2),(16,3)",
                         "--d", "8", "--q", "2", "--oracle", "table",
                         "--format", "kv")
        assert rc == 0
        lines = out.splitlines()
        assert "bound=7" in lines
        assert "witness=1,1" in lines

    def test_cm_aborted_exhaustive_searches_are_skipped(self, cli):
        # k_opt(2, 14, 4) and k_opt(2, 11, 4) need more than the 2*10^6 coset
        # checks of the exhaustive stage, so t = 0 and t = 1 get no value; the
        # second run reuses the memoized aborts, which stay aborts
        search = bounds_module._exhaustive_max_dim_q2
        misses = []
        for _ in range(2):
            rc, out, _ = cli("bound", "cm", "--n", "14", "--d", "4", "--r", "2",
                             "--q", "2", "--oracle", "exhaustive", "--format", "kv")
            assert rc == 0
            assert out.splitlines() == [
                "name=cm", "bound=7", "witness=3", "exact=false",
                "flags=edge,exhaustive", "skipped=0;1", "collapsed=false", "shape=(14,2)",
            ]
            misses.append(search.cache_info().misses)
        assert misses[0] == misses[1]

    def test_cm_grid_above_budget_is_refused_at_once(self, cli):
        # t runs over 0..5*10^8: refused before the oracle is asked once
        start = time.perf_counter()
        rc, out, err = cli("bound", "cm", "--n", "1000000000", "--d", "2", "--r", "1",
                           "--q", "2", "--oracle", "analytic")
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (1, "")
        assert err == ("budget error: deletion grid has 500000001 cells, above the "
                       "budget 1000000\n")

    def test_cm_grid_budget_edge(self, cli, monkeypatch):
        # the edge, at a budget of 10 cells: t in 0..9 is evaluated, 0..10 not
        monkeypatch.setattr(bounds_module, "_GRID_BUDGET", 10)
        rc, out, _ = cli("bound", "cm", "--n", "18", "--d", "2", "--r", "1",
                         "--q", "2", "--oracle", "analytic", "--format", "kv")
        assert rc == 0 and "witness=9" in out.splitlines()
        rc, out, err = cli("bound", "cm", "--n", "20", "--d", "2", "--r", "1",
                           "--q", "2", "--oracle", "analytic")
        assert (rc, out) == (1, "")
        assert err == "budget error: deletion grid has 11 cells, above the budget 10\n"


class TestCertify:
    def test_gcc2_pipeline_example(self, cli, tmp_path):
        code_file = tmp_path / "g20.code"
        assert cli("construct", "gcc2", "--r", "3", "--j", "0",
                   "--out", str(code_file))[0] == 0
        rc, out, _ = cli("certify", "--in", str(code_file), "--oracle", "table",
                         "--format", "kv", "--expect-optimal", "alphabet")
        assert rc == 0
        lines = out.splitlines()
        assert "n=20" in lines and "k=8" in lines and "d=8" in lines
        assert "alphabet.optimal=true" in lines

    def test_expect_optimal_failure_exits_1(self, cli, tmp_path):
        code_file = tmp_path / "g20.code"
        cli("construct", "gcc2", "--r", "3", "--out", str(code_file))
        rc, _, err = cli("certify", "--in", str(code_file), "--oracle", "table",
                         "--expect-optimal", "singleton")
        assert rc == 1
        assert err.startswith("verification failure:")

    def test_batch_order(self, cli, tmp_path):
        f1, f2 = tmp_path / "c1.code", tmp_path / "c2.code"
        cli("construct", "gcc2", "--r", "3", "--j", "0", "--out", str(f1))
        cli("construct", "gcc2", "--r", "3", "--j", "1", "--out", str(f2))
        rc, seq, _ = cli("certify", "--in", str(f1), str(f2), "--oracle",
                         "table", "--format", "kv")
        assert rc == 0
        # outputs serialized in input order
        assert seq.index("n=20") < seq.index("n=16")
        # repeating the flag accumulates files instead of replacing them
        rc, rep, _ = cli("certify", "--in", str(f1), "--in", str(f2),
                         "--oracle", "table", "--format", "kv")
        assert rc == 0
        assert rep == seq

    def test_batch_parse_error_names_the_file(self, cli, tmp_path):
        good, bad = tmp_path / "good.code", tmp_path / "bad.code"
        cli("construct", "gcc2", "--r", "3", "--j", "0", "--out", str(good))
        bad.write_text("q=2 p=2 m=1 n=4 k=2\n1 0 1\n")
        rc, _, err = cli("certify", "--in", str(good), str(bad), "--oracle", "table")
        assert rc == 2
        assert err.startswith(f"parse error: {bad}:")

    @pytest.mark.parametrize("cmd", ["certify", "analyze"])
    def test_generator_is_row_reduced_once(self, cli, tmp_path, monkeypatch, cmd):
        # the code keeps G's RREF from its rank check: the distance's first
        # information set, the loose locality scan and H read it, so a loaded
        # code's G is reduced in its own column order once (at load)
        code = construction2_binary_lrc(4, 0) if cmd == "certify" else tamo_barg(13, 12, 6, 3)
        path = tmp_path / "c.code"
        save_code(code, path)
        G = load_code(path).G.a
        own = []
        real = galois_module._rref

        def rref(F, A):
            own.append(A.shape == G.shape and bool(np.array_equal(A, G)))
            return real(F, A)

        for module in (galois_module, kernel_module, linear_code_module):
            monkeypatch.setattr(module, "_rref", rref)
        argv = ["--oracle", "table"] if cmd == "certify" else []
        rc, out, _ = cli(cmd, "--in", str(path), "--format", "kv", *argv)
        assert rc == 0 and "d=6" in out.splitlines()
        assert sum(own) == 1 and len(own) > 1

    def test_pyramid_certificate(self, cli, tmp_path):
        spec_file = tmp_path / "pyr.spec"
        save_pyramid_spec(PyramidSpec(7, 4, ((4, 2),)), spec_file)
        rc, out, _ = cli("certify", "--pyramid", str(spec_file))
        assert rc == 0
        assert "(declared, information-symbol)" in out
        assert "not applicable" in out

    def test_pyramid_profile_error_names_the_file(self, cli, tmp_path):
        spec_file = tmp_path / "dup.spec"
        spec_file.write_text("[pyramid]\nq=7\nd=3\nclasses=(3,1),(3,1)\n")
        assert cli("certify", "--pyramid", str(spec_file)) == (
            2, "", f"parse error: {spec_file} [pyramid]: profile localities must be "
            "distinct: '(3,1),(3,1)'\n")

    def test_pyramid_excludes_code_files(self, cli, tmp_path, spc_file):
        spec_file = tmp_path / "pyr.spec"
        save_pyramid_spec(PyramidSpec(7, 4, ((4, 2),)), spec_file)
        rc, _, err = cli("certify", "--pyramid", str(spec_file),
                         "--in", spc_file)
        assert rc == 2
        assert err.startswith("usage error:")


class TestErrorHandling:
    def test_argparse_usage_error(self, cli):
        assert cli("construct", "tamo-barg", "--q", "13")[0] == 2
        assert cli("nonsense")[0] == 2
        assert cli("certify")[0] == 2

    def test_precondition_error(self, cli):
        rc, _, err = cli("construct", "tamo-barg", "--q", "12", "--n", "12",
                         "--k", "6", "--r", "3")
        assert rc == 2
        assert err.startswith("precondition error:")

    def test_parse_error(self, cli, tmp_path):
        bad = tmp_path / "bad.code"
        bad.write_text("q=2 p=2 m=1 n=4 k=2\n1 0 1\n")
        rc, _, err = cli("analyze", "--in", str(bad))
        assert rc == 2
        assert err.startswith("parse error:")

    def test_missing_file_error(self, cli, tmp_path):
        rc, _, err = cli("analyze", "--in", str(tmp_path / "missing.code"))
        assert rc == 2
        assert err.startswith("file error:")

    def test_budget_error_exits_1(self, cli, tmp_path):
        code_file = tmp_path / "g20.code"
        cli("construct", "gcc2", "--r", "3", "--out", str(code_file))
        rc, _, err = cli("analyze", "--in", str(code_file), "--budget", "1")
        assert rc == 1
        assert err.startswith("budget error:")

    def test_flag_range_validation(self, cli, tmp_path, spc_file):
        for command in ("analyze", "certify"):
            rc, out, err = cli(command, "--in", spc_file, "--budget", "0")
            assert (rc, out) == (2, "")
            assert err.startswith("usage error:")

    @pytest.mark.parametrize("argv,name", [
        (("analyze", "--in"), "code.txt"),
        (("construct", "gcc", "--spec"), "gcc.spec"),
        (("construct", "pyramid", "--spec"), "pyr.spec"),
        (("bound", "cm", "--n", "20", "--d", "8", "--r", "4", "--q", "2",
          "--oracle", "table", "--table"), "kopt.txt"),
    ])
    def test_non_ascii_input_is_parse_error(self, cli, tmp_path, argv, name):
        bad = tmp_path / name
        bad.write_bytes("# caf\u00e9\n".encode("utf-8"))
        rc, out, err = cli(*argv, str(bad))
        assert (rc, out) == (2, "")
        assert err.startswith("parse error:") and "0xc3" in err

    def test_malformed_groups(self, cli, tmp_path):
        tb_file = tmp_path / "tb.code"
        save_code(tamo_barg(13, 12, 6, 3), tb_file)
        rc, _, err = cli("construct", "alg1", "--in", str(tb_file), "--r1", "2",
                         "--n1", "3", "--groups", "1,2;x")
        assert rc == 2
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("what, args", [("alg1", ("--n1", "3")), ("alg3", ("--alpha", "1"))])
    def test_empty_groups_is_a_usage_error(self, cli, tmp_path, what, args):
        # an empty --groups is malformed, as an empty shorten --at is, and
        # never falls back to auto-detection
        tb_file = tmp_path / "tb.code"
        save_code(tamo_barg(13, 12, 6, 3), tb_file)
        assert cli("construct", what, "--in", str(tb_file), "--r1", "2", *args,
                   "--groups", "") == (
            2, "", "usage error: positions must be comma-separated integers: ''\n")


class TestDeterminism:
    def test_repeated_reports_identical(self, cli, tmp_path):
        code_file = tmp_path / "g20.code"
        cli("construct", "gcc2", "--r", "3", "--out", str(code_file))
        runs = [
            cli("analyze", "--in", str(code_file), "--oracle", "table",
                "--format", "kv")
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_cli_import_loads_no_process_pool(self):
        # the CLI runs in one process; a process pool's import costs setup time
        result = subprocess.run(
            [sys.executable, "-c", "import sys, mllrc.cli; print([m for m in "
             "('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"],
            capture_output=True, text=True, env=_CHILD_ENV,
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")

    def test_subprocess_entry(self, tmp_path):
        # the installed entry point behaves like the in-process runner
        result = subprocess.run(
            [sys.executable, "-m", "mllrc.cli", "bound", "ml-singleton",
             "--profile", "(3,2),(8,3)", "--k", "5", "--n", "11"],
            capture_output=True, text=True, env=_CHILD_ENV,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "ml-singleton bound: 6"

    def test_package_runs_as_a_module(self, cli):
        # python -m mllrc runs the same command-line interface as cli.run
        argv = ("bound", "singleton", "--n", "5", "--k", "3", "--r", "2")
        result = subprocess.run([sys.executable, "-m", "mllrc", *argv],
                                capture_output=True, text=True, env=_CHILD_ENV)
        assert (result.returncode, result.stdout, result.stderr) == cli(*argv)
        assert result.returncode == 0


# ---------------------------------------------------------------------------
# seeded fuzzing of the bound readers: every failure is a documented prefix
# with its exit code, never an escaping exception
# ---------------------------------------------------------------------------

_EXIT_OF_PREFIX = {"usage error:": 2, "parse error:": 2, "precondition error:": 2,
                   "file error:": 2, "budget error:": 1}


def _assert_documented(result, argv):
    rc, out, err = result
    if rc == 0:
        assert out and not err, argv
        return
    prefixes = [p for p in _EXIT_OF_PREFIX if err.startswith(p)]
    assert prefixes and rc == _EXIT_OF_PREFIX[prefixes[0]], (argv, rc, err[:200])
    assert out == "" and "Traceback" not in err, argv


def _fuzz_number(rng, upper):
    if rng.random() < 0.85:
        return str(rng.randint(1, upper))
    return rng.choice(["0", str(10 ** rng.randint(3, 30)), "9" * 5000, "٣"])


def _mutate(rng, text, alphabet):
    for _ in range(rng.choice((0, 0, 0, 1, 2, 3))):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + rng.choice(alphabet) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1:]
        else:
            text = text + text[:i]
    return text


def _fuzz_profile(rng):
    pairs = [f"({_fuzz_number(rng, 12)},{r if rng.random() < 0.9 else _fuzz_number(rng, 6)})"
             for r in rng.sample(range(1, 7), rng.randint(1, 4))]
    text = rng.choice([",", ", ", " ,"]).join(pairs)
    return _mutate(rng, text, "(),-+ 0123456789x\t\n٣")


def _fuzz_table_line(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(["", "# comment", "   "])
    if kind == 1:  # a sound entry
        q, n = rng.choice([2, 3]), rng.randint(2, 16)
        d = rng.randint(2, n)
        return f"{q} {n} {d} {rng.randint(0, min(n - d + 1, 2))} fuzz entry"
    fields = [_fuzz_number(rng, 20) for _ in range(4)] + ["provenance"]
    if rng.random() < 0.3:
        fields[rng.randrange(4)] = "-" + fields[0]
    line = " ".join(fields[:rng.randint(3, 5)])
    return _mutate(rng, line, " 0123456789-x#\té")


class TestFuzz:
    def test_profile_strings(self, cli):
        rng = random.Random(5)
        for _ in range(300):
            text = _fuzz_profile(rng)
            if rng.random() < 0.5:
                argv = ("bound", "ml-singleton", f"--profile={text}",
                        "--k", str(rng.randint(1, 12)))
            else:
                argv = ("bound", "ml-alphabet", f"--profile={text}",
                        "--d", str(rng.randint(1, 12)), "--q", str(rng.choice([2, 3, 13])),
                        "--oracle", rng.choice(["analytic", "singleton", "table", "default"]))
            _assert_documented(cli(*argv), argv)

    def test_kopt_table_files(self, cli, tmp_path):
        rng = random.Random(6)
        for case in range(200):
            path = tmp_path / f"kopt{case}.txt"
            text = "\n".join(_fuzz_table_line(rng) for _ in range(rng.randint(0, 6)))
            path.write_bytes(text.encode("utf-8"))
            if rng.random() < 0.05:
                path = tmp_path / "missing.txt"
            if rng.random() < 0.5:
                argv = ("bound", "cm", "--n", str(rng.randint(1, 16)),
                        "--d", str(rng.randint(1, 10)), "--r", str(rng.randint(1, 4)),
                        "--q", str(rng.choice([2, 3])))
            else:
                argv = ("bound", "ml-alphabet", "--profile", "(3,2),(8,3)",
                        "--d", str(rng.randint(1, 10)), "--q", str(rng.choice([2, 3])))
            argv += ("--oracle", rng.choice(["table", "analytic"]), "--table", str(path))
            _assert_documented(cli(*argv), argv)

    def test_overlong_profile_number_is_parse_error(self, cli):
        rc, out, err = cli("bound", "ml-singleton", "--profile", f"({'9' * 5000},2)",
                           "--k", "3")
        assert (rc, out) == (2, "")
        assert err.startswith("parse error: malformed profile string")

    def test_huge_length_analytic_bound_is_immediate(self, cli):
        # one deletion cell at n = 10^12: the Griesmer sum is closed-form
        rc, out, _ = cli("bound", "ml-alphabet", "--profile", f"({10**12},{10**12})",
                         "--d", "2", "--q", "2", "--oracle", "analytic", "--format", "kv")
        assert rc == 0
        assert f"bound={10**12 - 1}" in out.splitlines()


def _fuzz_coordinates(rng, coords, n):
    """Comma-separated 1-based coordinates with a few mutations: an empty
    part, a huge or odd number, a repeat, zero, a position past n, a drop."""
    parts = [str(c) for c in coords]
    for _ in range(rng.choice((0, 1, 1, 2))):
        i = rng.randrange(len(parts)) if parts else 0
        kind = rng.randrange(6)
        if kind == 0:
            parts.insert(i, "")
        elif kind == 1:
            parts.insert(i, _fuzz_number(rng, n))
        elif kind == 2 and parts:
            parts.insert(i, parts[i])
        elif kind == 3:
            parts.insert(i, "0")
        elif kind == 4:
            parts.insert(i, str(n + rng.randint(1, 10 ** rng.randint(1, 20))))
        elif parts:
            del parts[i]
    return ",".join(parts)


def _fuzz_groups(rng, n):
    """Semicolon-separated repair groups of the tamo_barg(13, 12, 6, 3) code
    (its true groups are 1-4, 5-8, 9-12), valid or mutated."""
    if rng.random() < 0.7:
        groups = [list(range(start, start + 4)) for start in (1, 5, 9)]
    else:  # some other cover: groups of another size, or not a partition
        size = rng.choice((1, 2, 3, 4, 6))
        coords = rng.sample(range(1, n + 1), n) if rng.random() < 0.5 else list(range(1, n + 1))
        groups = [coords[i:i + size] for i in range(0, n, size)]
    hit = rng.randrange(len(groups))  # one group's list is mutated
    text = ";".join(_fuzz_coordinates(rng, g, n) if i == hit else ",".join(map(str, g))
                    for i, g in enumerate(groups))
    if rng.random() < 0.15:
        text = rng.choice((";", text + ";", ";" + text, text.replace(";", ";;", 1)))
    return _mutate(rng, text, ",;0123456789-+ x٣") if rng.random() < 0.2 else text


class TestCoordinateListFuzz:
    def test_groups_and_positions(self, cli, tmp_path):
        tb_file = tmp_path / "tb13.code"
        save_code(tamo_barg(13, 12, 6, 3), tb_file)
        rng = random.Random(9)
        seen = set()
        for _ in range(300):
            kind = rng.randrange(3)
            if kind == 0:
                coords = rng.sample(range(1, 13), rng.randint(1, 6))
                argv = ("shorten", "--in", str(tb_file),
                        f"--at={_fuzz_coordinates(rng, coords, 12)}")
            elif kind == 1:
                r1 = rng.randint(1, 3)
                argv = ("construct", "alg1", "--in", str(tb_file), "--r1", str(r1),
                        "--n1", str((r1 + 1) * rng.randint(0, 3)),
                        f"--groups={_fuzz_groups(rng, 12)}")
            else:
                argv = ("construct", "alg3", "--in", str(tb_file),
                        "--r1", str(rng.randint(1, 3)), "--alpha", str(rng.randint(0, 3)),
                        f"--groups={_fuzz_groups(rng, 12)}")
            result = cli(*argv)
            _assert_documented(result, argv)
            seen.add((argv[0], result[2].split(":")[0] if result[0] else "ok"))
        for command in ("shorten", "construct"):
            for outcome in ("ok", "usage error", "precondition error"):
                assert (command, outcome) in seen, seen


# ---------------------------------------------------------------------------
# the parser is built once and shared by every run() call
# ---------------------------------------------------------------------------


class TestSharedParser:
    def test_extend_lists_and_defaults_do_not_carry_over(self, cli, tmp_path, spc_file):
        other = tmp_path / "rep.code"
        save_code(LinearCode(F2, [[1, 1, 1]]), other)
        assert cli_module._parser() is cli_module._parser()
        rc, both, _ = cli("certify", "--in", spc_file, "--in", str(other),
                          "--format", "kv", "--mode", "strict")
        assert rc == 0 and both.count("n=") == 2
        rc, alone, _ = cli("certify", "--in", str(other))
        assert rc == 0
        assert alone.count("[3, 1, 3] code") == 1 and "n=4" not in alone
        assert "(strict," not in alone  # --mode and --format went back to defaults
        argv = ["analyze", "--in", spc_file]
        shared = cli_module._parser().parse_args(argv)
        assert vars(shared) == vars(cli_module.build_parser().parse_args(argv))


# ---------------------------------------------------------------------------
# the benchmark workloads' recorded outputs, replayed
# ---------------------------------------------------------------------------

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _replay_golden(cli, tmp_path, monkeypatch, workload):
    """Build a workload's inputs and compare every op's exit code and stdout
    with its recorded output; reads perfbench/ only."""
    setup = runpy.run_path(str(_PERFBENCH / "workloads.py"))["SETUP"][workload]
    golden = json.loads((_PERFBENCH / "golden" / f"{workload}.json").read_text())
    monkeypatch.chdir(tmp_path)
    for argv in setup:
        assert cli(*argv)[0] == 0, argv
    for name, digest in golden["setup_sha256"].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    assert golden["ops"]
    for op in golden["ops"]:
        rc, out, _ = cli(*op["argv"])
        assert (rc, out) == (op["rc"], op["stdout"]), op["id"]


def test_analyze_large_q_golden_outputs(cli, tmp_path, monkeypatch):
    _replay_golden(cli, tmp_path, monkeypatch, "analyze-large-q")


def test_certify_binary_golden_outputs(cli, tmp_path, monkeypatch):
    _replay_golden(cli, tmp_path, monkeypatch, "certify-binary")


def test_bounds_sweep_golden_outputs(cli, tmp_path, monkeypatch):
    # the second replay answers every binary k_opt cell from the search memo
    search = bounds_module._exhaustive_max_dim_q2
    _replay_golden(cli, tmp_path, monkeypatch, "bounds-sweep")
    before = search.cache_info()
    _replay_golden(cli, tmp_path, monkeypatch, "bounds-sweep")
    after = search.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


def test_construct_groups_golden_outputs(cli, tmp_path, monkeypatch):
    _replay_golden(cli, tmp_path, monkeypatch, "construct-groups")


def test_pyramid_golden_outputs(cli, tmp_path, monkeypatch):
    """construct pyramid and certify --pyramid (text and kv) on the demo's
    three specs and 30 seeded canonical ones, q <= 32, some of them refused:
    exit code, stdout and stderr as recorded before PyramidSpec was reduced
    to (q, d, dims)."""
    golden = json.loads((Path(__file__).parent / "pyramid_golden.json").read_text())
    monkeypatch.chdir(tmp_path)
    for name, text in golden["specs"].items():
        (tmp_path / name).write_text(text)
    assert len(golden["ops"]) == 3 * len(golden["specs"]) == 99
    for op in golden["ops"]:
        assert cli(*op["argv"]) == (op["rc"], op["stdout"], op["stderr"]), op["id"]


# ---------------------------------------------------------------------------
# seeded fuzzing of code files through analyze and certify
# ---------------------------------------------------------------------------


def _code_text(rng):
    """A valid code file for a small random code."""
    q, p, m, modulus = rng.choice([(2, 2, 1, None), (3, 3, 1, None), (5, 5, 1, None),
                                   (4, 2, 2, "1,1,1"), (9, 3, 2, "2,2,1")])
    while True:
        k = rng.randint(1, 3)
        n = rng.randint(k + 1, 6)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        F = field_new(p, m, modulus and tuple(map(int, modulus.split(","))))
        if all(any(r[j] for r in rows) for j in range(n)):
            try:
                LinearCode(F, rows)
            except PreconditionError:  # rank-deficient
                continue
            break
    lines = [f"q={q} p={p} m={m} n={n} k={k}"]
    if modulus:
        lines.append(f"modulus={modulus}")
    return lines + [" ".join(map(str, r)) for r in rows], (q, n, k, modulus is not None)


def _mutate_code(rng, lines, params):
    q, n, k, has_modulus = params
    lines = list(lines)
    body = 2 if has_modulus else 1
    rows = [ln.split() for ln in lines[body:]]
    kind = rng.randrange(8)
    if kind == 0:  # a header field
        fields = lines[0].split()
        i = rng.randrange(len(fields))
        key = fields[i].split("=")[0]
        fields[i] = f"{key}={_fuzz_number(rng, 12)}" if rng.random() < 0.8 else "x"
        if rng.random() < 0.2:
            del fields[rng.randrange(len(fields))]
        lines[0] = " ".join(fields)
    elif kind == 1:  # the modulus line
        choice = rng.randrange(4)
        if has_modulus and choice == 0:
            del lines[1]
        elif has_modulus and choice == 1:
            digits = [str(rng.randrange(4)) for _ in range(rng.randint(1, 4))]
            lines[1] = "modulus=" + ",".join(digits)
        else:
            lines.insert(1, rng.choice(["modulus=1,1,1", "modulus=", "modulus=a,b",
                                        "modulus=1,0,1"]))
    elif kind == 2 and rows:  # a row length
        row = rng.choice(rows)
        if row and rng.random() < 0.5:
            row.pop()
        else:
            row.append(str(rng.randrange(q)))
    elif kind == 3 and rows:  # an entry out of range or not an integer
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = rng.choice([str(q), "-1", str(10**20), "1.5", "x"])
    elif kind == 4 and rows:  # rank-deficient: a repeated row
        rows.append(list(rng.choice(rows)))
        lines[0] = lines[0].replace(f"k={k}", f"k={k + 1}")
    elif kind == 5 and rows:  # a zero column
        j = rng.randrange(n)
        for row in rows:
            row[j] = "0"
    elif kind == 6 and rows:  # a missing or an extra row
        if rng.random() < 0.5:
            rows.pop()
        else:
            rows.append([str(rng.randrange(q)) for _ in range(n)])
    if kind in (2, 3, 4, 5, 6):
        lines = lines[:body] + [" ".join(r) for r in rows]
    text = "\n".join(lines) + "\n"
    if kind == 7 or rng.random() < 0.2:
        text = _mutate(rng, text, " 0123456789=-,qpmnk\n\t")
    return text


class TestCodeFileFuzz:
    def test_analyze_and_certify(self, cli, tmp_path):
        rng = random.Random(8)
        seen = set()
        for case in range(300):
            lines, params = _code_text(rng)
            path = tmp_path / f"fuzz{case}.code"
            path.write_text(_mutate_code(rng, lines, params))
            argv = (rng.choice(["analyze", "certify"]), "--in", str(path),
                    "--mode", rng.choice(["loose", "strict"]), "--format", "kv")
            result = cli(*argv)
            _assert_documented(result, argv)
            seen.add(result[2].split(":")[0] if result[0] else "ok")
        assert {"ok", "parse error", "precondition error"} <= seen

    def test_huge_field_order_is_refused_at_once(self, cli, tmp_path):
        # the prime of q used to be found by trial division up to sqrt(q)
        q = "100000000000000000039"
        message = f"field size {q} exceeds supported maximum 65536"
        start = time.perf_counter()
        rc, out, err = cli("construct", "tamo-barg", "--q", q, "--n", "2", "--k", "1",
                           "--r", "1", "--out", str(tmp_path / "x.code"))
        assert time.perf_counter() - start < 1
        assert (rc, out, err) == (2, "", f"precondition error: {message}\n")
        spec = tmp_path / "huge.spec"
        spec.write_text(f"[gcc]\nq={q}\nlevels=1\nmultiplicities=1\n")
        rc, out, err = cli("construct", "gcc", "--spec", str(spec))
        assert (rc, out, err) == (2, "", f"parse error: {spec} [gcc]: {message}\n")

    @pytest.mark.parametrize("header,message", [
        ("q=4 p=2 m=100000000000 n=3 k=1", "q=4 is not p^m = 2^100000000000"),
        ("q=100000000000000000039 p=100000000000000000039 m=1 n=3 k=1",
         "field characteristic 100000000000000000039 exceeds supported maximum 65536"),
    ])
    def test_huge_header_numbers_are_parse_errors(self, cli, tmp_path, header, message):
        # both used to run for minutes: a 10^11-bit power, a trial division to 10^10
        path = tmp_path / "huge.code"
        path.write_text(header + "\n1 1 1\n")
        for command in ("analyze", "certify"):
            rc, out, err = cli(command, "--in", str(path))
            assert (rc, out, err) == (2, "", f"parse error: {path}: {message}\n")


# ---------------------------------------------------------------------------
# seeded fuzzing of pyramid and concatenation spec files
# ---------------------------------------------------------------------------


def _pyramid_lines(rng):
    """A well-formed pyramid spec, small enough to certify at once; some ask
    for a field smaller than k+d-1."""
    locs = sorted(rng.sample(range(1, 6), rng.randint(1, 3)))
    return ["[pyramid]", f"q={rng.choice([2, 3, 4, 5, 7, 8, 9, 11, 13])}",
            f"d={rng.randint(2, 5)}",
            "classes=" + ",".join(f"({rng.randint(1, 4)},{r})" for r in locs)]


def _mutate_spec(rng, lines):
    """One line-level mutation of a spec file, then maybe character edits."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    kind = rng.randrange(6)
    if kind == 0 and "=" in lines[i]:  # a value
        key = lines[i].split("=")[0]
        lines[i] = f"{key}={_fuzz_number(rng, 20) if rng.random() < 0.8 else 'x'}"
    elif kind == 1:  # some numbers of a line, a header, a class list or a row
        lines[i] = re.sub(r"\d+", lambda m: rng.choice(
            [m.group(), _fuzz_number(rng, 20), "-1"]), lines[i])
    elif kind == 2:
        del lines[i]
    elif kind == 3:  # a repeated key, row or section
        lines.insert(i, lines[i])
    elif kind == 4:
        lines.insert(i, rng.choice(["zz=1", "[extra]", "[band 9]", "1 1", "# note", ""]))
    text = "\n".join(lines) + "\n"
    return _mutate(rng, text, "[]()=,# 0123456789-x\n") if rng.random() < 0.3 else text


class TestSpecFileFuzz:
    @pytest.mark.parametrize("k1", [9999999, 99999999999999999999])
    def test_huge_pyramid_class_is_refused_at_once(self, cli, tmp_path, k1):
        # the class's blocks used to be laid out before the field-size check:
        # 26 s for 10^7 coordinates, an OverflowError traceback for 10^20
        spec = tmp_path / "huge.spec"
        spec.write_text(f"[pyramid]\nq=7\nd=2\nclasses=({k1},1)\n")
        message = (f"precondition error: field size 7 too small for a [{k1 + 1}, {k1}] "
                   "evaluation base (needs q >= k+d-1)\n")
        for argv in (("certify", "--pyramid", str(spec)),
                     ("construct", "pyramid", "--spec", str(spec))):
            start = time.perf_counter()
            assert cli(*argv) == (2, "", message)
            assert time.perf_counter() - start < 1

    def test_huge_band_entry_is_a_parse_error(self, cli, tmp_path):
        # used to overflow int64 in MatrixGF: a traceback and exit 1
        spec = tmp_path / "band.gcc"
        spec.write_text("[gcc]\nq=2\nlevels=1\nmultiplicities=1\n[outer 1]\n"
                        "q=2 p=2 m=1 n=2 k=1\n1 1\n[band 1]\n99999999999999999999 1\n")
        assert cli("construct", "gcc", "--spec", str(spec)) == (
            2, "", f"parse error: {spec} [band 1]: entry out of range [0, 2)\n")

    def test_overlong_numbers_are_parse_errors(self, cli, tmp_path):
        # int() refuses more than 4300 digits: both were ValueError tracebacks
        big = "9" * 5000
        spec = tmp_path / "big.gcc"
        head = "[gcc]\nq=2\nlevels=1\nmultiplicities=1\n"
        for text, where in ((f"{head}[outer {big}]\n", f"{spec}: malformed section header"),
                            (f"{head}[outer 1]\nq=2 p={big} m=1 n=2 k=1\n1 1\n",
                             f"{spec} [outer 1]: malformed header line")):
            spec.write_text(text)
            rc, out, err = cli("construct", "gcc", "--spec", str(spec))
            assert (rc, out) == (2, "") and err.startswith(f"parse error: {where}"), err

    def test_pyramid_and_gcc_specs(self, cli, tmp_path):
        gcc_texts = []
        for r, j in ((2, 0), (3, 0), (3, 1)):
            save_gcc_spec(construction2_gcc_spec(r, j), tmp_path / "base.gcc")
            gcc_texts.append((tmp_path / "base.gcc").read_text().splitlines())
        rng = random.Random(10)
        seen = set()
        for case in range(300):
            path = tmp_path / f"fuzz{case}.spec"
            kind = rng.randrange(3)
            if kind == 2:
                path.write_text(_mutate_spec(rng, rng.choice(gcc_texts)))
                argv = ("construct", "gcc", "--spec", str(path))
            else:
                path.write_text(_mutate_spec(rng, _pyramid_lines(rng)))
                argv = (("construct", "pyramid", "--spec", str(path)) if kind == 0 else
                        ("certify", "--pyramid", str(path), "--format",
                         rng.choice(["text", "kv"])))
            start = time.perf_counter()
            result = cli(*argv)
            assert time.perf_counter() - start < 5, argv
            _assert_documented(result, argv)
            seen.add((argv[1], result[2].split(":")[0] if result[0] else "ok"))
        for command in ("gcc", "pyramid", "--pyramid"):
            for outcome in ("ok", "parse error"):
                assert (command, outcome) in seen, seen
        assert ("--pyramid", "precondition error") in seen, seen
