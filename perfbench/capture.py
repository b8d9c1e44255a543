"""Record the expected output of every op each workload may run.

    python3 perfbench/capture.py [WORKLOAD ...]

Writes golden/<workload>.json: the sha256 of each set-up file and, for every
op in the workload's pool, its argv, exit code, stdout, stratum, and whether
the self-check's quick mode runs it.  Run it only on a commit whose outputs
are trusted: these files are the byte-identity reference for later changes.
Ops that fail are left out of the pool, so no op of a workload fails at the
commit that recorded it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import shutil
import sys
from collections import Counter
from math import prod

import workloads
from child import run_cli
from run import ROOT, WORK

KV = ["--format", "kv"]

# Ops per stratum, and timed runs whose minimum is an op's cost.
STRATUM_SIZE = 3
COST_RUNS = 3


def _op(family, argv, quick):
    return {"family": family, "argv": argv, "quick": quick}


def analyze_large_q():
    return [
        _op("an-tb13", ["analyze", "--in", "tb13.code", *KV], False),
        _op("an-tb13s", ["analyze", "--in", "tb13s.code", *KV], False),
        _op("an-tb13s-strict", ["analyze", "--in", "tb13s.code", *KV, "--mode", "strict"], True),
        _op("an-tb16", ["analyze", "--in", "tb16.code", *KV], False),
    ]


def certify_binary():
    table = ["certify", "--oracle", "table", *KV, "--in"]
    return [
        _op("ce-small", [*table, "g20.code", "g19.code", "g18.code"], True),
        _op("ce-g45", [*table, "g45.code"], False),
    ]


def _profile(shape) -> str:
    return ",".join(f"({size},{r})" for size, r in shape)


def _random_shape(rng, classes, locs, groups):
    loc = sorted(rng.sample(locs, rng.choice(classes)))
    return [(rng.randint(*groups) * (r + 1), r) for r in loc]


def _grid_cells(shape) -> int:
    return prod(-(-size // (r + 1)) + 1 for size, r in shape)


def bounds_sweep():
    rng = random.Random("bounds-sweep pool")
    ops = []
    for _ in range(120):  # binary profiles, default oracle (exhaustive k_opt)
        shape = [(99, 1)]
        while sum(size for size, _ in shape) > 24:
            shape = _random_shape(rng, (2, 3), range(1, 6), (1, 3))
        n = sum(size for size, _ in shape)
        ops.append(_op("mla", ["bound", "ml-alphabet", "--profile", _profile(shape),
                               "--d", str(rng.randint(2, min(8, n))), "--q", "2", *KV], False))
    for _ in range(6):  # large 3-4 class boxes, analytic oracle
        shape = [(1, 1)]
        while not 50_000 <= _grid_cells(shape) <= 200_000:
            shape = _random_shape(rng, (3, 4), range(1, 7), (8, 20))
        ops.append(_op("grid", ["bound", "ml-alphabet", "--profile", _profile(shape),
                                "--d", str(rng.randint(3, 12)),
                                "--q", str(rng.choice([2, 4, 8, 16])),
                                "--oracle", "analytic", *KV], False))
    for _ in range(15):
        r = rng.randint(1, 5)
        ops.append(_op("cm", ["bound", "cm", "--n", str(rng.randint(max(8, r + 2), 24)),
                              "--d", str(rng.randint(2, 8)), "--r", str(r),
                              "--q", str(rng.choice([2, 3, 4])), *KV], True))
    for _ in range(15):
        shape = _random_shape(rng, (1, 2, 3), range(1, 7), (1, 4))
        n = sum(size for size, _ in shape)
        ops.append(_op("mls", ["bound", "ml-singleton", "--profile", _profile(shape),
                               "--k", str(rng.randint(1, n - 1)), *KV], True))
    return ops


# Base codes of construct-groups: (file, n, repair-group locality r2).
BASES = (("tb13.code", 12, 3), ("tb17.code", 16, 3), ("tb16.code", 15, 2), ("g20.code", 20, 3))


def construct_groups():
    """alg1/alg3 over every valid (r1, n1 or alpha) and seeded multi-position
    shortenings, one family per base code so every pass covers each base."""
    rng = random.Random("construct-groups pool")
    ops = []
    for path, n, r2 in BASES:
        base = path.split(".")[0]
        groups = n // (r2 + 1)
        for r1 in range(1, r2):
            for m in range(1, groups):
                ops.append(_op(base, ["construct", "alg1", "--in", path, "--r1", str(r1),
                                      "--n1", str(m * (r1 + 1))], base == "tb16"))
            for alpha in range(1, groups + 1):
                ops.append(_op(base, ["construct", "alg3", "--in", path, "--r1", str(r1),
                                      "--alpha", str(alpha)], base == "tb16"))
        for _ in range(6):
            at = sorted(rng.sample(range(1, n + 1), rng.randint(2, 4)))
            ops.append(_op(base, ["shorten", "--in", path, "--at", ",".join(map(str, at))],
                           base == "tb16"))
    return ops


POOLS = {
    "analyze-large-q": analyze_large_q,
    "certify-binary": certify_binary,
    "bounds-sweep": bounds_sweep,
    "construct-groups": construct_groups,
}


def _stratify(ops: list[dict]) -> None:
    """Within each family, sort ops by cost and cut them into strata of
    STRATUM_SIZE near-equal ops."""
    families: dict[str, list[dict]] = {}
    for op in ops:
        families.setdefault(op["family"], []).append(op)
    for family, members in families.items():
        members.sort(key=lambda op: op["cost"])
        for i, op in enumerate(members):
            op["stratum"] = f"{family}-{i // STRATUM_SIZE:02d}"


def capture(workload: str, cli) -> dict:
    workdir = WORK / "capture"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        sha = {}
        for argv in workloads.SETUP[workload]:
            rc, _, err, _ = run_cli(cli, argv)
            if rc != 0:
                raise SystemExit(f"set-up {argv} failed: {err}")
            out = argv[argv.index("--out") + 1]
            with open(out, "rb") as fh:
                sha[out] = hashlib.sha256(fh.read()).hexdigest()
        pool = POOLS[workload]()
        family_size = Counter(op["family"] for op in pool)
        ops, seen = [], set()
        for op in pool:
            if tuple(op["argv"]) in seen:
                continue
            seen.add(tuple(op["argv"]))
            rc, out, err, secs = run_cli(cli, op["argv"])
            if rc != 0:
                print(f"  dropped (exit {rc}): {' '.join(op['argv'])}: {err.strip()}")
                continue
            if family_size[op["family"]] > 1:  # cost only orders ops within a family
                secs = min([secs] + [run_cli(cli, op["argv"])[3] for _ in range(COST_RUNS - 1)])
            ops.append(dict(op, rc=rc, stdout=out, cost=secs))
            print(f"  {secs:7.3f} s  {' '.join(op['argv'])}")
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    _stratify(ops)
    counters: dict[str, int] = {}
    for op in ops:
        j = counters[op["stratum"]] = counters.get(op["stratum"], -1) + 1
        op["id"] = f"{op['stratum']}.{j}"
        del op["cost"], op["family"]
    return {"workload": workload, "setup_sha256": sha, "ops": ops}


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("mllrc.cli")
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        print(workload)
        golden = capture(workload, cli)
        with open(workloads.GOLDEN_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
