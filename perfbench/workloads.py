"""The four benchmark workloads: set-up inputs, op selection and probes.

The timed ops of every workload come from its expected-output file
``golden/<workload>.json`` (written by ``capture.py``).  Each op there
belongs to a stratum; a run executes one op per stratum, picked with a
random generator seeded from ``--seed``.  The heavy corpora
(``analyze-large-q``, ``certify-binary``) put every op in a stratum of its
own, so they are fixed; ``bounds-sweep`` and ``construct-groups`` draw
their parameters from the seed.  Strata group ops of near-equal cost, so
runs with different seeds do near-equal work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

WORKLOADS = ("analyze-large-q", "certify-binary", "bounds-sweep", "construct-groups")

# Workloads whose op selection and order depend on the seed.
SEEDED = frozenset({"bounds-sweep", "construct-groups"})

# Points in the check_dominance sweep of bounds-sweep, per pass.
DOMINANCE_POINTS = 10_000
QUICK_DOMINANCE_POINTS = 200


def _tamo_barg(q, n, k, r, out):
    return ["construct", "tamo-barg", "--q", str(q), "--n", str(n), "--k", str(k),
            "--r", str(r), "--out", out]


def _gcc2(r, j, out):
    return ["construct", "gcc2", "--r", str(r), "--j", str(j), "--out", out]


# Input files each workload builds before its timed ops (part of setup_s).
SETUP = {
    "analyze-large-q": [
        _tamo_barg(13, 12, 6, 3, "tb13.code"),
        ["shorten", "--in", "tb13.code", "--at", "1", "--out", "tb13s.code"],
        _tamo_barg(16, 15, 10, 2, "tb16.code"),
        _tamo_barg(16, 15, 8, 4, "tb16p.code"),
    ],
    "certify-binary": [
        _gcc2(3, 0, "g20.code"),
        _gcc2(3, 1, "g19.code"),
        ["construct", "alg3", "--in", "g20.code", "--r1", "2", "--alpha", "2",
         "--out", "g18.code"],
        _gcc2(4, 0, "g45.code"),
        _gcc2(5, 0, "g102.code"),
    ],
    "bounds-sweep": [],
    "construct-groups": [
        _tamo_barg(13, 12, 6, 3, "tb13.code"),
        _tamo_barg(17, 16, 9, 3, "tb17.code"),
        _tamo_barg(16, 15, 10, 2, "tb16.code"),
        _gcc2(3, 0, "g20.code"),
    ],
}

# Capability probes: codes at or past the enumeration budget.  They run after
# the timed passes and count in `refused`, never in wall_s.
PROBES = {
    "analyze-large-q": [
        {"id": "probe-tb16-15-8", "check": "tamo-barg-15-8",
         "argv": ["certify", "--in", "tb16p.code", "--format", "kv"]},
    ],
    "certify-binary": [
        {"id": "probe-gcc2-r5", "check": "gcc2-r5",
         "argv": ["certify", "--oracle", "table", "--format", "kv",
                  "--in", "g102.code"]},
    ],
    "bounds-sweep": [],
    "construct-groups": [],
}


def _kv(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _localities(profile: str) -> list[int]:
    """Class localities of a rendered profile such as "(36,3),(9,8)"."""
    return [int(cls.split(",")[1]) for cls in profile.strip("()").split("),(")]


def judge_probe(check: str, rc: int | None, out: str, err: str) -> str:
    """"refused", "answered" or "failed" by acceptance fixed by theory.

    tamo-barg-15-8 is tamo_barg(16,15,8,4), a [15,8]_16 code meeting the
    Singleton-type bound: d = 15 - 8 + 2 - 2 = 7 with every coordinate
    4-local (any smaller locality would violate the bound).  gcc2-r5 is the
    binary [102,64]_2 member of the concatenated family: its distance floor
    is 12, attained by a weight-2 parity word times 111111, and every class
    has locality at most 5.
    """
    if rc == 1 and err.startswith("budget error:"):
        return "refused"
    if rc != 0:
        return "failed"
    kv = _kv(out)
    if check == "tamo-barg-15-8":
        ok = (kv.get("d") == "7" and kv.get("profile") == "(15,4)"
              and kv.get("singleton.optimal") == "true")
    elif check == "gcc2-r5":
        ok = kv.get("d") == "12" and "profile" in kv and max(_localities(kv["profile"])) <= 5
    else:
        raise ValueError(f"unknown probe check {check!r}")
    return "answered" if ok else "failed"


def load_golden(workload: str, golden_dir: Path = GOLDEN_DIR) -> dict:
    with open(golden_dir / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def dominance_points(rng: random.Random, count: int) -> list:
    """(profile, k, d, q) points drawn like acceptance criterion ac08."""
    points = []
    for _ in range(count):
        s = rng.randint(1, 3)
        locs = sorted(rng.sample(range(1, 7), s))
        shape = [[rng.randint(1, 4) * (r + 1), r] for r in locs]
        n = sum(size for size, _ in shape)
        k = rng.randint(1, n - 1) if n > 1 else 1
        d = rng.randint(1, n)
        q = rng.choice([2, 3, 4, 5, 8, 13])
        points.append([shape, k, d, q])
    return points


def select_ops(golden: dict, seed: int, quick: bool) -> list[dict]:
    """One op per stratum, plus the dominance sweep for bounds-sweep.

    Quick mode (the self-check) keeps only ops marked quick and a short
    dominance sweep.
    """
    workload = golden["workload"]
    rng = random.Random(f"{workload}/{seed}")
    strata: dict[str, list[dict]] = {}
    for op in golden["ops"]:
        if quick and not op["quick"]:
            continue
        strata.setdefault(op["stratum"], []).append(op)
    ops = [dict(rng.choice(group), kind="cli") for group in strata.values()]
    if workload == "bounds-sweep":
        count = QUICK_DOMINANCE_POINTS if quick else DOMINANCE_POINTS
        ops.append({"id": "dominance", "kind": "dominance",
                    "points": dominance_points(rng, count)})
    if workload in SEEDED:
        rng.shuffle(ops)
    return ops
