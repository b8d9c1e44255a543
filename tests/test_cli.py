"""End-to-end tests of the command-line interface.

All invocations go through ``mllrc.cli.run`` in-process (same code path as
the installed ``mllrc`` script); one test exercises the real subprocess
entry.  Expected numbers reuse values independently frozen in the bounds and
constructions tests.
"""

import random
import subprocess
import sys

import numpy as np
import pytest

from mllrc import (
    LinearCode,
    PyramidSpec,
    algorithm1_ml_lrc,
    algorithm3_ml_lrc,
    construction2_binary_lrc,
    load_code,
    save_code,
    save_pyramid_spec,
    tamo_barg,
)
import mllrc.cli as cli_module
from mllrc.cli import run
from mllrc.galois import field_new

F2 = field_new(2)


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

    def test_alg3_matches_library(self, cli, tmp_path):
        base_file = tmp_path / "g20.code"
        save_code(construction2_binary_lrc(3, 0), base_file)
        out_file = tmp_path / "a3.code"
        rc, _, _ = cli("construct", "alg3", "--in", str(base_file), "--r1", "2",
                       "--alpha", "1", "--out", str(out_file))
        assert rc == 0
        expected = algorithm3_ml_lrc(construction2_binary_lrc(3, 0), 2, 1)
        assert np.array_equal(load_code(out_file).G.a, expected.G.a)

    def test_pyramid_spec(self, cli, tmp_path):
        spec_file = tmp_path / "pyr.spec"
        save_pyramid_spec(PyramidSpec.from_dims(7, 4, ((4, 2),)), spec_file)
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
        # checks of the exhaustive stage, so t = 0 and t = 1 get no value
        rc, out, _ = cli("bound", "cm", "--n", "14", "--d", "4", "--r", "2",
                         "--q", "2", "--oracle", "exhaustive", "--format", "kv")
        assert rc == 0
        assert out.splitlines() == [
            "name=cm", "bound=7", "witness=3", "exact=false",
            "flags=edge,exhaustive", "skipped=0;1", "collapsed=false", "shape=(14,2)",
        ]


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

    def test_batch_order_and_jobs(self, cli, tmp_path):
        f1, f2 = tmp_path / "c1.code", tmp_path / "c2.code"
        cli("construct", "gcc2", "--r", "3", "--j", "0", "--out", str(f1))
        cli("construct", "gcc2", "--r", "3", "--j", "1", "--out", str(f2))
        rc, seq, _ = cli("certify", "--in", str(f1), str(f2), "--oracle",
                         "table", "--format", "kv")
        assert rc == 0
        rc, par, _ = cli("certify", "--in", str(f1), str(f2), "--oracle",
                         "table", "--format", "kv", "--jobs", "2")
        assert rc == 0
        assert seq == par
        # outputs serialized in input order
        assert seq.index("n=20") < seq.index("n=16")
        # repeating the flag accumulates files instead of replacing them
        rc, rep, _ = cli("certify", "--in", str(f1), "--in", str(f2),
                         "--oracle", "table", "--format", "kv")
        assert rc == 0
        assert rep == seq

    def test_jobs_above_input_count_starts_one_worker_per_input(
        self, cli, tmp_path, monkeypatch
    ):
        f1, f2 = tmp_path / "c1.code", tmp_path / "c2.code"
        cli("construct", "gcc2", "--r", "3", "--j", "0", "--out", str(f1))
        cli("construct", "gcc2", "--r", "2", "--j", "0", "--out", str(f2))
        argv = ("certify", "--in", str(f1), str(f2), "--oracle", "table",
                "--format", "kv")
        rc, serial, _ = cli(*argv, "--jobs", "1")
        assert rc == 0
        sizes = []

        class Recording(cli_module.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(cli_module, "ProcessPoolExecutor", Recording)
        rc, parallel, _ = cli(*argv, "--jobs", "3")
        assert rc == 0
        assert parallel == serial
        assert sizes == [2]

    def test_jobs_worker_parse_error_names_the_file(self, cli, tmp_path):
        good, bad = tmp_path / "good.code", tmp_path / "bad.code"
        cli("construct", "gcc2", "--r", "3", "--j", "0", "--out", str(good))
        bad.write_text("q=2 p=2 m=1 n=4 k=2\n1 0 1\n")
        argv = ("certify", "--in", str(good), str(bad), "--oracle", "table")
        rc, _, serial_err = cli(*argv)
        assert rc == 2
        assert serial_err.startswith(f"parse error: {bad}:")
        assert cli(*argv, "--jobs", "2")[0::2] == (2, serial_err)

    def test_pyramid_certificate(self, cli, tmp_path):
        spec_file = tmp_path / "pyr.spec"
        save_pyramid_spec(PyramidSpec.from_dims(7, 4, ((4, 2),)), spec_file)
        rc, out, _ = cli("certify", "--pyramid", str(spec_file))
        assert rc == 0
        assert "(declared, information-symbol)" in out
        assert "not applicable" in out

    def test_pyramid_excludes_code_files(self, cli, tmp_path, spc_file):
        spec_file = tmp_path / "pyr.spec"
        save_pyramid_spec(PyramidSpec.from_dims(7, 4, ((4, 2),)), spec_file)
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
        assert cli("analyze", "--in", spc_file, "--budget", "0")[0] == 2
        assert cli("certify", "--in", spc_file, "--jobs", "0")[0] == 2

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

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_malformed_budget_env_is_usage_error(self, cli, monkeypatch,
                                                 spc_file, value):
        monkeypatch.setenv("MLLRC_BUDGET", value)
        for argv in (("analyze", "--in", spc_file), ("certify", "--in", spc_file)):
            rc, out, err = cli(*argv)
            assert (rc, out) == (2, "")
            assert err.startswith("usage error:") and "MLLRC_BUDGET" in err
        # an explicit --budget takes precedence over the variable
        assert cli("analyze", "--in", spc_file, "--budget", "100")[0] == 0

    def test_malformed_groups(self, cli, tmp_path):
        tb_file = tmp_path / "tb.code"
        save_code(tamo_barg(13, 12, 6, 3), tb_file)
        rc, _, err = cli("construct", "alg1", "--in", str(tb_file), "--r1", "2",
                         "--n1", "3", "--groups", "1,2;x")
        assert rc == 2
        assert err.startswith("usage error:")


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

    def test_subprocess_entry(self, tmp_path):
        # the installed entry point behaves like the in-process runner
        result = subprocess.run(
            [sys.executable, "-m", "mllrc.cli", "bound", "ml-singleton",
             "--profile", "(3,2),(8,3)", "--k", "5", "--n", "11"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "ml-singleton bound: 6"


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
