"""End-to-end benchmark of the mllrc CLI, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the package is imported from ``src/`` next to this
directory.  A run is a closed loop: one caller issues each op only after the
previous one returns, in a fresh child interpreter (``child.py``), one child
at a time.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics from a separate traced run.  The last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it are a readable summary.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from child import REF_SECONDS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"

# Set-ups measured per run (the work child's own included); setup_s is the
# median.  Extra set-ups run in children that exit once their inputs exist:
# at least SETUP_SAMPLES - 1 of them, more while they have taken less than
# SETUP_SECONDS, up to MAX_SETUP_SAMPLES in all.
SETUP_SAMPLES = 5
SETUP_SECONDS = 2.0
MAX_SETUP_SAMPLES = 15

# A run gives up (no result, non-zero exit) once this many seconds are gone.
TIME_LIMIT = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _clock() -> float:
    # System-wide monotonic clock: the child reports its "inputs ready"
    # instant on the same clock, so setup_s spans the child's start-up.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    """The parent's environment with single-threaded numpy, a fixed hash
    seed, and the package's own budget default (MLLRC_BUDGET removed)."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "MLLRC_BUDGET")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def build_job(workload: str, seed: int, seconds: float, trace: bool,
              quick: bool = False) -> dict:
    """Everything a child needs: inputs to build, ops with their expected
    output, probes, and the run's time budget."""
    golden = workloads.load_golden(workload)
    setup = []
    for argv in workloads.SETUP[workload]:
        out = argv[argv.index("--out") + 1]
        setup.append({"argv": argv, "file": out, "sha256": golden["setup_sha256"][out]})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "root": str(ROOT),
        "setup": setup,
        "ops": workloads.select_ops(golden, seed, quick),
        "probes": workloads.PROBES[workload],
    }


def _spawn(job: dict, mode: str, deadline: float) -> dict:
    start = _clock()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(BENCH / "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), text=True,
    )
    try:
        out, _ = proc.communicate(json.dumps(dict(job, mode=mode)),
                                  timeout=max(1.0, deadline - _clock()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} child passed the {TIME_LIMIT:.0f} s limit")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def _extra_setups(job: dict, deadline: float) -> list[float]:
    """Set-up times of the children that only set up (none when traced)."""
    if job["trace"]:
        return []
    if job["quick"]:
        return [_spawn(job, "setup", deadline)["setup_s"]]
    setups: list[float] = []
    while len(setups) < SETUP_SAMPLES - 1 or (
            sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUP_SAMPLES - 1):
        setups.append(_spawn(job, "setup", deadline)["setup_s"])
    return setups


def execute(job: dict) -> dict:
    """Run the set-up children and then the work child, one at a time."""
    deadline = _clock() + TIME_LIMIT
    workdir = WORK / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    job = dict(job, workdir=str(workdir),
               spans_path=str(WORK / f"trace-{job['workload']}.jsonl"))
    try:
        setups = _extra_setups(job, deadline)
        work = _spawn(job, "work", deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(work["setup_s"])
    work["setup_samples"] = setups
    return work


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _quartiles(values: list[float]) -> tuple[float, float]:
    """Lower and upper quartile, interpolated between the values seen."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(job: dict, work: dict) -> tuple[dict, list[str]]:
    """(final JSON object, readable summary lines) of one run."""
    verdicts = [(p["id"], workloads.judge_probe(p["check"], p["rc"], p["stdout"], p["stderr"]))
                for p in work["probes"]]
    failed = work["failed"] + sum(v == "failed" for _, v in verdicts)
    attempted = work["attempted"]
    refused = sum(v == "refused" for _, v in verdicts)
    untraced = work["untraced"]
    env = work["env"]
    lines = [
        f"perfbench workload={job['workload']} seed={job['seed']} trace={int(job['trace'])} "
        f"seconds={job['seconds']} quick={int(job['quick'])}",
        f"env nproc={os.cpu_count()} python={env['python']} numpy={env['numpy']} "
        f"budget={env['budget']} commit={_commit()} threads=1",
    ]
    if job["trace"]:
        metrics = dict(work["layers"])
        metrics.update(work["micro"])
        metrics["process.import_s"] = work["import_s"]
        metrics["trace.overhead_frac"] = (
            statistics.median(work["traced"]) / statistics.median(untraced) - 1)
        lines.append("op_seconds " + json.dumps(work["op_seconds"], sort_keys=True))
    else:
        q1, q3 = _quartiles(work["scaled"])
        r1, r3 = _quartiles(untraced)
        s1, s3 = _quartiles(work["setup_samples"])
        metrics = {
            "wall_s": statistics.median(work["scaled"]),
            "setup_s": statistics.median(work["setup_samples"]),
            "peak_rss_mb": work["peak_rss_mb"],
        }
        lines += [
            f"wall_s {metrics['wall_s']:.4f} s at reference host speed (median of "
            f"{len(untraced)} passes, quartiles {q1:.4f} {q3:.4f})",
            f"raw_wall_s {statistics.median(untraced):.4f} s (quartiles {r1:.4f} {r3:.4f}); "
            f"host speed {REF_SECONDS / statistics.median(work['host']):.3f} of reference",
            f"setup_s {metrics['setup_s']:.4f} s (median of {len(work['setup_samples'])} "
            f"set-ups, quartiles {s1:.4f} {s3:.4f})",
            f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MiB",
        ]
    lines += [
        f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} ops)",
        f"refused {refused} count "
        + " ".join(f"({pid}: {verdict})" for pid, verdict in verdicts),
    ]
    lines += [f"failure: {msg}" for msg in work["failures"]]
    lines += [f"failure: {pid}: probe output fails its acceptance check"
              for pid, v in verdicts if v == "failed"]
    units = {m["name"]: m["unit"] for m in _declared(job["trace"])}
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return final, lines


def _declared(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mllrc" / "__init__.py").is_file():
        print(f"error: no mllrc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        job = build_job(args.workload, args.seed, args.seconds, bool(args.trace))
        final, lines = summarize(job, execute(job))
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
