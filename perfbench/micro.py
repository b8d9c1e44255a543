"""Per-layer microbenchmarks on fixed inputs, run untraced in the traced run.

Each figure is the median of several timed repeats in one process.
"""

from __future__ import annotations

import statistics
import time
from math import prod

import numpy as np

REPEATS = 5


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def mat_rank_us(q: int) -> float:
    """Microseconds per mat_rank call on fixed random 6x5 matrices over GF(q)."""
    from mllrc.galois import MatrixGF, field_from_order, mat_rank

    F = field_from_order(q)
    rng = np.random.default_rng(q)
    mats = [MatrixGF(F, rng.integers(0, q, size=(6, 5))) for _ in range(200)]

    def batch():
        for M in mats:
            mat_rank(M)

    return _median_time(batch) / len(mats) * 1e6


def mul_elems_per_s(q: int) -> float:
    """Element products per second of FiniteField.mul on 2^20-element arrays."""
    from mllrc.galois import field_from_order

    F = field_from_order(q)
    rng = np.random.default_rng(q)
    a = rng.integers(0, q, size=1 << 20)
    b = rng.integers(0, q, size=1 << 20)
    return a.size / _median_time(lambda: F.mul(a, b))


def _distance_codes():
    from mllrc.constructions import construction2_binary_lrc, tamo_barg

    g = construction2_binary_lrc(4, 0)  # [45,23]_2
    for i in (40, 30, 20, 10, 0):
        g = g.shorten(i)  # -> [40,18]_2
    return {
        "q2": g,
        "q13": tamo_barg(13, 12, 6, 3).shorten(0),  # [11,5]_13
        "q16": tamo_barg(16, 15, 4, 4),  # [15,4]_16
    }


def min_distance_words_per_s() -> dict[str, float]:
    """Nominal min(q^k, q^(n-k)) words per second of min_distance per field.

    A fresh LinearCode is built for every repeat because min_distance
    caches its answer on the instance.
    """
    from mllrc.linear_code import LinearCode

    out = {}
    for label, code in _distance_codes().items():
        words = min(code.q**code.k, code.q ** (code.n - code.k))
        secs = _median_time(lambda: LinearCode(code.field, code.G.a).min_distance(), 3)
        out[f"linear_code.min_distance.words_per_s.{label}"] = words / secs
    return out


# A 4-class profile; its deletion box, by the ml_alphabet docstring, has
# t_i in [0, ceil(n_i/(r_i+1))], so 11^4 = 14641 cells.
GRID_PROFILE = ((20, 1), (30, 2), (40, 3), (50, 4))
GRID_CELLS = prod(-(-n // (r + 1)) + 1 for n, r in GRID_PROFILE)


def ml_alphabet_cells_per_s() -> float:
    from mllrc.bounds import KOptOracle, ml_alphabet

    return GRID_CELLS / _median_time(
        lambda: ml_alphabet(GRID_PROFILE, 5, 2, oracle=KOptOracle.analytic_only())
    )


def run_all() -> dict[str, float]:
    out = {f"galois.mat_rank.us.q{q}": mat_rank_us(q) for q in (2, 13, 16)}
    out["galois.mul.elems_per_s.q16"] = mul_elems_per_s(16)
    out.update(min_distance_words_per_s())
    out["bounds.ml_alphabet.cells_per_s"] = ml_alphabet_cells_per_s()
    return out
