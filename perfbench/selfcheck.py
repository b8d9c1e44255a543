"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload once at reduced size (quick mode: quick ops only, one
pass), untraced and traced.  Each run must validate, emit exactly the
metrics BENCHMARK.json declares for its mode, and count its probes as
refused.  Then one expected output byte is corrupted and the run must report
that op as failed, and the probe acceptance checks must reject wrong
certificates, so validation cannot pass vacuously.
"""

from __future__ import annotations

import json
import math
import sys

import run
import workloads


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck failed: {message}")


def quick_run(workload: str, trace: bool, corrupt: bool = False):
    job = run.build_job(workload, seed=1, seconds=1, trace=trace, quick=True)
    if corrupt:
        op = next(op for op in job["ops"] if op["kind"] == "cli")
        op["stdout"] = chr(ord(op["stdout"][0]) ^ 1) + op["stdout"][1:]
    return run.summarize(job, run.execute(job))


def check_probe_acceptance() -> None:
    judge = workloads.judge_probe
    good = "d=7\nprofile=(15,4)\nsingleton.optimal=true\n"
    _check(judge("tamo-barg-15-8", 0, good, "") == "answered", "valid [15,8]_16 certificate")
    _check(judge("tamo-barg-15-8", 0, good.replace("(15,4)", "(15,3)"), "") == "failed",
           "[15,8]_16 certificate with locality 3 accepted")
    _check(judge("tamo-barg-15-8", 1, "", "budget error: too big") == "refused",
           "budget refusal not recognised")
    _check(judge("tamo-barg-15-8", 2, "", "precondition error: x") == "failed",
           "precondition error counted as a refusal")
    _check(judge("gcc2-r5", 0, "d=12\nprofile=(6,1),(96,5)\n", "") == "answered",
           "valid [102,64]_2 certificate")
    _check(judge("gcc2-r5", 0, "d=12\nprofile=(96,5),(6,6)\n", "") == "failed",
           "[102,64]_2 certificate with locality 6 accepted")
    _check(judge("gcc2-r5", 0, "d=10\nprofile=(102,5)\n", "") == "failed",
           "[102,64]_2 certificate with d=10 accepted")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    check_probe_acceptance()
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            final, lines = quick_run(workload, trace)
            names = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
            where = f"{workload} trace={int(trace)}"
            _check(set(final["metrics"]) == names, f"{where}: metric names differ")
            _check(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in final["metrics"].values()), f"{where}: non-numeric metric")
            _check(final["correct"] and final["failed"] == 0 and final["attempted"] >= 1,
                   f"{where}: outputs did not validate: {lines}")
            refused = len(workloads.PROBES[workload])
            _check(any(line.startswith(f"refused {refused} ") for line in lines),
                   f"{where}: expected {refused} refused probe(s)")
            print(f"ok {where}: {final['attempted']} ops validated")
    final, _ = quick_run("construct-groups", False, corrupt=True)
    _check(not final["correct"] and final["failed"] == 1,
           "a corrupted expected byte was not reported as one failed op")
    print("ok corrupted expected byte reported as a failed op")
    return 0


if __name__ == "__main__":
    sys.exit(main())
