"""One benchmark child process: set up inputs, run timed passes, report.

Reads a job (JSON, from run.py) on stdin and prints one JSON result line.
Every op goes through ``mllrc.cli.run`` in this process, except the
dominance sweep, which calls ``mllrc.certify.check_dominance``.  Each op's
exit code and stdout are compared with the expected output in the job.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time

# Failure messages kept per run; the count is always complete.
MAX_MESSAGES = 20

# Host speed reference: a pure-Python integer loop that does not touch
# mllrc, timed between passes.  REF_SECONDS is its time on an uncontended
# 2-core x86-64 VM with Python 3.11; wall_s is scaled to that speed.
REF_LOOP = 200_000
REF_SECONDS = 0.012


def host_sample() -> float:
    """Seconds the reference loop takes now, best of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best


def run_cli(cli, argv: list[str]) -> tuple[int | None, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one CLI call.

    An exception escaping run() is an undocumented error: its exit code is
    None, so it can never match an expected one.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception as exc:
        rc = None
        err.write(f"undocumented error: {type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def run_dominance(certify_mod, points) -> tuple[int, float]:
    """(points that do not hold, seconds) of a check_dominance sweep."""
    bad = 0
    start = time.perf_counter()
    for shape, k, d, q in points:
        try:
            rep = certify_mod.check_dominance(tuple(map(tuple, shape)), k, d, q)
        except Exception:
            bad += 1
            continue
        bad += rep.holds is not True
    return bad, time.perf_counter() - start


def _mismatch(op: dict, rc, out: str, err: str) -> str:
    if rc != op["rc"]:
        return f"{op['id']}: exit {rc}, expected {op['rc']}: {err.strip()[:200]}"
    at = next((i for i, (a, b) in enumerate(zip(out, op["stdout"])) if a != b),
              min(len(out), len(op["stdout"])))
    return f"{op['id']}: stdout differs from expected at byte {at}"


class Child:
    def __init__(self, job: dict, cli, certify_mod, tracer):
        self.job = job
        self.cli = cli
        self.certify_mod = certify_mod
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.failures) < MAX_MESSAGES:
            self.failures.append(message)

    def _tag(self, op_id: str) -> None:
        if self.tracer is not None:
            self.tracer.op = op_id

    def setup(self) -> None:
        for i, step in enumerate(self.job["setup"]):
            self._tag(f"setup/{i}")
            self.attempted += 1
            rc, _, err, _ = run_cli(self.cli, step["argv"])
            if rc != 0:
                self._fail(1, f"setup {' '.join(step['argv'])}: exit {rc}: {err.strip()[:200]}")
                continue
            with open(step["file"], "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            if digest != step["sha256"]:
                self._fail(1, f"setup {step['file']}: bytes differ from expected")

    def run_pass(self, label: str) -> tuple[float, dict[str, float]]:
        """Run every op once; returns (seconds, seconds per op)."""
        per_op: dict[str, float] = {}
        for op in self.job["ops"]:
            self._tag(f"{label}/{op['id']}")
            if op["kind"] == "dominance":
                bad, secs = run_dominance(self.certify_mod, op["points"])
                self.attempted += len(op["points"])
                if bad:
                    self._fail(bad, f"{op['id']}: {bad} points with holds != true")
            else:
                rc, out, err, secs = run_cli(self.cli, op["argv"])
                self.attempted += 1
                if rc != op["rc"] or out != op["stdout"]:
                    self._fail(1, _mismatch(op, rc, out, err))
            per_op[op["id"]] = secs
        return sum(per_op.values()), per_op

    def passes(self) -> dict:
        """Closed loop over the op list until the run's seconds are used.

        Another pass (or, traced, another untraced+traced pair in alternating
        order) starts only if one more fits by the average so far.  The host
        reference loop runs before every pass and after the last one; each
        untraced pass is also reported scaled by REF_SECONDS over the mean of
        the two samples around it.
        """
        tracer = self.tracer
        seconds = self.job["seconds"]
        untraced: list[float] = []
        traced: list[float] = []
        host: list[float] = []
        scaled_at: list[tuple[int, float]] = []  # (host sample before, pass seconds)
        op_seconds: dict[str, list[float]] = {}
        start = time.perf_counter()
        rounds = 0
        while True:
            order = (False,) if tracer is None else ((False, True) if rounds % 2 == 0 else (True, False))
            for with_trace in order:
                host.append(host_sample())
                if with_trace:
                    with tracer.active():
                        total, _ = self.run_pass(f"pass{len(traced)}")
                    traced.append(total)
                else:
                    total, per_op = self.run_pass("untraced")
                    untraced.append(total)
                    scaled_at.append((len(host) - 1, total))
                    for op_id, secs in per_op.items():
                        op_seconds.setdefault(op_id, []).append(secs)
            rounds += 1
            elapsed = time.perf_counter() - start
            if self.job["quick"] or elapsed + elapsed / rounds > seconds:
                break
        host.append(host_sample())
        return {
            "untraced": untraced,
            "scaled": [total * 2 * REF_SECONDS / (host[i] + host[i + 1])
                       for i, total in scaled_at],
            "host": host,
            "traced": traced,
            "op_seconds": {k: statistics.median(v) for k, v in op_seconds.items()},
        }

    def probes(self) -> list[dict]:
        out = []
        for probe in self.job["probes"]:
            self._tag(f"probe/{probe['id']}")
            self.attempted += 1
            rc, stdout, stderr, secs = run_cli(self.cli, probe["argv"])
            out.append({"id": probe["id"], "check": probe["check"], "rc": rc,
                        "stdout": stdout, "stderr": stderr, "seconds": secs})
        return out


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    try:
        cli = importlib.import_module("mllrc.cli")
    except ImportError as exc:
        print(f"error: cannot import mllrc from {src}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != os.path.abspath(src):
        print(f"error: mllrc was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    certify_mod = importlib.import_module("mllrc.certify")
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()

    def traced():
        return tracer.active() if tracer is not None else contextlib.nullcontext()

    os.chdir(job["workdir"])
    child = Child(job, cli, certify_mod, tracer)
    with traced():
        child.setup()
    result = {"ready": _clock(), "import_s": import_s}
    if job["mode"] == "work":
        result.update(child.passes())
        with traced():
            result["probes"] = child.probes()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["env"] = {
            "python": platform.python_version(),
            "numpy": importlib.import_module("numpy").__version__,
            "budget": importlib.import_module("mllrc.linear_code").resolve_budget(),
        }
        if tracer is not None:
            from micro import run_all
            from tracer import layer_metrics

            result["layers"] = layer_metrics(tracer, len(result["traced"]))
            result["micro"] = run_all()
            tracer.write(job["spans_path"], {"workload": job["workload"], "seed": job["seed"],
                                             "op_seconds": result["op_seconds"]})
    result["attempted"] = child.attempted
    result["failed"] = child.failed
    result["failures"] = child.failures
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
