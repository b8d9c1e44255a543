"""Upper bounds for codes with one or several repair localities.

Provides:

- ``singleton_r_local``: the locality-aware Singleton bound
  d <= n - k + 2 - ceil(k/r).
- ``ml_singleton`` / ``ml_singleton_two``: its generalization to profiles
  with several strictly increasing localities, including the degenerate
  collapse (when a prefix of classes already exhausts the dimension, the
  remaining classes merge into one class at the prefix locality).
- ``cm_bound``: the alphabet-dependent (Cadambe-Mazumdar style) dimension
  bound k <= min_t [t*r + k_opt(n - t(r+1), d)].
- ``ml_alphabet`` / ``ml_alphabet_two``: its multiple-locality
  generalization minimized over a box of deletion counts (t_1, ..., t_s).
- ``KOptOracle``: the k_opt(q, n, d) oracle the alphabet bounds consume,
  with table / exhaustive / analytic / singleton modes.

Conventions shared by all grid bounds: deletion counts include t_i = 0, the
reported witness is the lexicographically largest minimizing tuple, and grid
cells whose k_opt value is unavailable (strict table mode) are skipped and
recorded — the minimum over the remaining cells is still a valid upper
bound, merely flagged non-exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import prod

import numpy as np

from .errors import BudgetError, ParseError, PreconditionError
from .linear_code import LocalityProfile, _read_ascii

__all__ = [
    "BoundReport",
    "KOptOracle",
    "KOptValue",
    "BUNDLED_KOPT_TABLE",
    "load_kopt_table",
    "kopt",
    "griesmer_max_k",
    "singleton_max_k",
    "singleton_r_local",
    "cm_bound",
    "ml_singleton_two",
    "ml_singleton",
    "ml_alphabet_two",
    "ml_alphabet",
]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# classical dimension bounds used to sanity-check and seed the oracle
# ---------------------------------------------------------------------------


def singleton_max_k(n: int, d: int) -> int:
    """Largest dimension allowed by the Singleton bound, clamped at 0."""
    return max(0, n - d + 1)


def griesmer_max_k(q: int, n: int, d: int) -> int:
    """Largest k with sum_{i=0}^{k-1} ceil(d / q^i) <= n (0 if none)."""
    if q < 2:
        raise PreconditionError(f"alphabet size must be >= 2, got {q}")
    k = 0
    total = 0
    power = 1
    while True:
        if 1 <= d <= power:  # every remaining term is 1
            return k + max(0, n - total)
        total += _ceil_div(d, power)
        if total > n:
            return k
        k += 1
        if k > n:  # every term is >= 1, so k can never exceed n
            return n
        power *= q


# ---------------------------------------------------------------------------
# k_opt oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KOptValue:
    """One oracle answer: the dimension value, exactness, and its source."""

    value: int
    exact: bool
    source: str  # "edge" | "table" | "exhaustive" | "analytic" | "singleton"


def _validate_table_entry(q: int, n: int, d: int, k: int) -> None:
    if q < 2 or n < 1 or d < 1 or k < 0:
        raise ParseError(f"invalid table entry (q={q}, n={n}, d={d}, k={k})")
    if d > n:
        raise ParseError(
            f"table entry (q={q}, n={n}, d={d}) has d > n; no such code exists"
        )
    if k > singleton_max_k(n, d):
        raise ParseError(
            f"table entry (q={q}, n={n}, d={d}, k={k}) violates the Singleton bound"
        )
    if k > griesmer_max_k(q, n, d):
        raise ParseError(
            f"table entry (q={q}, n={n}, d={d}, k={k}) violates the Griesmer bound"
        )


# Every bundled entry is forced: the Griesmer bound gives the ceiling and a
# classical code attains it.
_BUNDLED_ROWS = (
    (2, 6, 6, 1, "Griesmer maximum; attained by the length-6 repetition code"),
    (2, 8, 8, 1, "Griesmer maximum; attained by the length-8 repetition code"),
    (2, 11, 8, 1, "Griesmer maximum; attained by the length-11 repetition code"),
    (2, 12, 8, 2, "Griesmer maximum; attained by two weight-8 words overlapping in 4 positions"),
    (2, 15, 8, 4, "Griesmer maximum; attained by the shortened first-order Reed-Muller code"),
    (2, 16, 8, 5, "Griesmer maximum; attained by the first-order Reed-Muller code of length 16"),
)

BUNDLED_KOPT_TABLE: dict[tuple[int, int, int], tuple[int, str]] = {
    (q, n, d): (k, prov) for q, n, d, k, prov in _BUNDLED_ROWS
}
for (_q, _n, _d), (_k, _p) in BUNDLED_KOPT_TABLE.items():
    _validate_table_entry(_q, _n, _d, _k)


def load_kopt_table(path) -> dict[tuple[int, int, int], tuple[int, str]]:
    """Read a table file of lines ``q n d k provenance...``.

    Blank lines and lines starting with '#' are ignored.  Entries violating
    the Singleton or Griesmer bound are rejected.
    """
    table: dict[tuple[int, int, int], tuple[int, str]] = {}
    text = _read_ascii(path)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(None, 4)
        if len(parts) < 5:
            raise ParseError(
                f"{path}:{lineno}: expected 'q n d k provenance', got {stripped!r}"
            )
        try:
            q, n, d, k = (int(x) for x in parts[:4])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer field: {exc}") from exc
        _validate_table_entry(q, n, d, k)
        key = (q, n, d)
        if key in table and table[key][0] != k:
            raise ParseError(f"{path}:{lineno}: conflicting duplicate entry {key}")
        table[key] = (k, parts[4])
    return table


class _SearchBudgetExceeded(Exception):
    pass


def _exhaustive_max_dim_q2(n: int, d: int, stop_at: int, budget: int) -> tuple[int, bool]:
    """Largest k such that a binary linear [n, k, >=d] code exists.

    Depth-first search over canonical generator bases: basis vectors are
    strictly increasing integers, each minimal in its coset modulo the span
    so far, and every new codeword is weight-checked.  Stops early once
    ``stop_at`` (a proven upper bound) is reached.  ``budget`` caps the
    number of primitive coset checks: a node with span S charges |S| for
    every candidate it examines, and the search aborts at the first charge
    that takes the total above ``budget``.  Returns (best_found, completed),
    where completed=False means the search aborted and best_found is only a
    lower bound.

    The chosen basis vectors have distinct leading bits, so a candidate is
    least in its coset exactly when it is 0 at every leading bit.  A node
    therefore keeps only its passing candidates: a child's are the parent's
    later ones that are 0 at the new leading bit and keep weight >= d on
    the new coset, found by one array filter.  Candidates that fail are
    charged in bulk, in the same visit order, so every search returns what
    the candidate-by-candidate scan returns.
    """
    weight = np.zeros(1, dtype=np.uint8)
    for _ in range(n):  # weight[w] = popcount(w) for every n-bit word w
        weight = np.concatenate((weight, weight + 1))
    cands = (np.flatnonzero(weight[1:] >= d) + 1).astype(np.min_scalar_type((1 << n) - 1))
    total = len(cands)
    best = 0
    work = 0

    def extend(span: np.ndarray, vals: np.ndarray, idxs: np.ndarray, idx0: int,
               k: int) -> bool:
        nonlocal best, work
        if k > best:
            best = k
            if best >= stop_at:
                return True
        size = len(span)
        last = idx0
        for j in range(len(idxs)):
            idx = int(idxs[j])
            work += (idx - last + 1) * size
            if work > budget:
                raise _SearchBudgetExceeded
            last = idx + 1
            v = vals[j]
            coset = span ^ v
            later = vals[j + 1:]
            free = (later & (1 << (int(v).bit_length() - 1))) == 0
            later = later[free]
            ok = weight[later[:, None] ^ coset].min(axis=1) >= d
            if extend(np.concatenate((span, coset)), later[ok], idxs[j + 1:][free][ok],
                      idx + 1, k + 1):
                return True
        work += (total - last) * size
        if work > budget:
            raise _SearchBudgetExceeded
        return False

    try:
        extend(np.zeros(1, dtype=cands.dtype), cands, np.arange(total, dtype=cands.dtype), 0, 0)
    except _SearchBudgetExceeded:
        return best, False
    return best, True


_MODE_NAMES = ("table", "exhaustive", "analytic", "singleton")


class KOptOracle:
    """Resolver for k_opt(q, n, d), the largest dimension at length n and
    minimum distance >= d over alphabet size q.

    mode is a comma-separated resolution chain over {table, exhaustive,
    analytic, singleton}; the first stage that produces a value wins.  A
    pure "table" oracle returns nothing for missing entries (callers skip
    that grid cell).  Universal edge cases (n <= 0, d <= 1, d > n) are
    answered exactly before the chain runs.

    The exhaustive stage (q = 2, n <= cap) searches binary *linear* codes
    only; it is flagged exact, with the caveat that a non-linear code could
    in principle exceed the best linear one.  Searches that would exceed
    ``search_budget`` primitive coset checks (2*10^6 unless given; the
    enumeration budget ``budget=`` / MLLRC_BUDGET does not apply) abort
    deterministically, raise nothing and produce no value, so the chain
    falls through.  A user ``table`` is validated entry by entry; the
    bundled table was validated at import.  The analytic stage returns
    min(Singleton, Griesmer) and is flagged non-exact: always a valid upper
    bound, unusable for optimality certification.  The singleton stage
    returns n - d + 1 and exists so bounds can be evaluated in pure
    Singleton-relaxation form.
    """

    def __init__(self, mode: str = "table,exhaustive,analytic", table=None, cap: int = 14,
                 search_budget: int = 2_000_000):
        chain = tuple(m.strip() for m in str(mode).split(","))
        if not chain or any(m not in _MODE_NAMES for m in chain):
            raise PreconditionError(
                f"oracle mode must be a comma-separated chain over {_MODE_NAMES}, got {mode!r}"
            )
        if len(set(chain)) != len(chain):
            raise PreconditionError(f"duplicate stage in oracle mode {mode!r}")
        if cap < 0:
            raise PreconditionError(f"exhaustive cap must be >= 0, got {cap}")
        if search_budget < 1:
            raise PreconditionError(f"search budget must be >= 1, got {search_budget}")
        self.search_budget = search_budget
        self.mode = ",".join(chain)
        self._chain = chain
        self.table: dict[tuple[int, int, int], tuple[int, str]] = {}
        if table is None:  # the bundled table is validated once, at import
            self.table.update(BUNDLED_KOPT_TABLE)
        else:
            for (q, n, d), (k, prov) in table.items():
                _validate_table_entry(q, n, d, k)
                self.table[(q, n, d)] = (k, str(prov))
        self.cap = cap
        self._memo: dict[tuple[int, int, int], KOptValue | None] = {}

    @classmethod
    def default(cls, table=None, cap: int = 14) -> "KOptOracle":
        return cls("table,exhaustive,analytic", table=table, cap=cap)

    @classmethod
    def table_only(cls, table=None) -> "KOptOracle":
        return cls("table", table=table)

    @classmethod
    def analytic_only(cls) -> "KOptOracle":
        return cls("analytic")

    @classmethod
    def exhaustive_only(cls, cap: int = 14) -> "KOptOracle":
        return cls("exhaustive", cap=cap)

    @classmethod
    def singleton_only(cls) -> "KOptOracle":
        return cls("singleton")

    def __repr__(self) -> str:
        return f"KOptOracle(mode={self.mode!r}, entries={len(self.table)}, cap={self.cap})"

    def query(self, q: int, n: int, d: int) -> KOptValue | None:
        if q < 2:
            raise PreconditionError(f"alphabet size must be >= 2, got {q}")
        key = (q, n, d)
        if key in self._memo:
            return self._memo[key]
        result = self._resolve(q, n, d)
        self._memo[key] = result
        return result

    def _resolve(self, q: int, n: int, d: int) -> KOptValue | None:
        if n <= 0:
            return KOptValue(0, True, "edge")
        if d <= 1:
            return KOptValue(n, True, "edge")
        if d > n:
            return KOptValue(0, True, "edge")
        for stage in self._chain:
            if stage == "table":
                hit = self.table.get((q, n, d))
                if hit is not None:
                    return KOptValue(hit[0], True, "table")
            elif stage == "exhaustive":
                if q == 2 and n <= self.cap:
                    ceiling = min(singleton_max_k(n, d), griesmer_max_k(q, n, d))
                    value, completed = _exhaustive_max_dim_q2(
                        n, d, ceiling, self.search_budget
                    )
                    if completed:
                        return KOptValue(value, True, "exhaustive")
                    # aborted search: no value from this stage, fall through
            elif stage == "analytic":
                value = min(singleton_max_k(n, d), griesmer_max_k(q, n, d))
                return KOptValue(value, False, "analytic")
            elif stage == "singleton":
                return KOptValue(singleton_max_k(n, d), False, "singleton")
        return None


def kopt(oracle: KOptOracle, q: int, n: int, d: int, require_exact: bool = False) -> int:
    """k_opt(q, n, d) as a plain integer via the given oracle."""
    if n < 0 or d < 0:
        raise PreconditionError(f"n and d must be >= 0, got n={n}, d={d}")
    kv = oracle.query(q, n, d)
    if kv is None:
        raise PreconditionError(
            f"oracle {oracle.mode!r} has no value for (q={q}, n={n}, d={d}); "
            "extend the table or add a fallback stage"
        )
    if require_exact and not kv.exact:
        raise PreconditionError(
            f"exact k_opt required but (q={q}, n={n}, d={d}) resolved via "
            f"non-exact stage {kv.source!r}"
        )
    return kv.value


# ---------------------------------------------------------------------------
# bound reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound evaluation.

    bound_value: the bound (a max dimension for alphabet bounds, a max
      distance for the multi-locality Singleton bound), never negative.
    witness: the minimizing deletion tuple (t,) / (t_1, ..., t_s) —
      lexicographically largest among ties — or the per-class ceiling terms
      for the Singleton-type bound.
    exact: True when every grid cell was evaluated and every oracle answer
      was exact; the value is a valid upper bound regardless.
    mode_flags: sorted sources that contributed ("table", "edge", ...).
    skipped: grid cells left out because the oracle had no value.
    collapse_applied / effective_shape: whether the degenerate-profile
      collapse fired, and the (n_i, r_i) shape actually evaluated.
    """

    name: str
    bound_value: int
    witness: tuple[int, ...]
    exact: bool
    mode_flags: tuple[str, ...] = ()
    skipped: tuple[tuple[int, ...], ...] = ()
    collapse_applied: bool = False
    effective_shape: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.bound_value < 0:
            raise PreconditionError("bound_value must be >= 0")


# ---------------------------------------------------------------------------
# Singleton-type bounds
# ---------------------------------------------------------------------------


def singleton_r_local(n: int, k: int, r: int) -> int:
    """d <= n - k + 2 - ceil(k/r); equals n - k + 1 (MDS) once r >= k."""
    if not 1 <= k <= n:
        raise PreconditionError(f"need 1 <= k <= n, got k={k}, n={n}")
    if r < 1:
        raise PreconditionError(f"locality must be >= 1, got {r}")
    return n - k + 2 - _ceil_div(k, r)


def _normalize_shape(profile, allow_empty_class: bool = False):
    if isinstance(profile, LocalityProfile):
        shape = profile.shape()
    else:
        shape = tuple((int(n_i), int(r_i)) for n_i, r_i in profile)
    if not shape:
        raise PreconditionError("profile must have at least one class")
    for n_i, r_i in shape:
        if r_i < 1:
            raise PreconditionError(f"locality must be >= 1, got {r_i}")
        if n_i < 0 or (n_i == 0 and not allow_empty_class):
            raise PreconditionError(f"class size must be >= 1, got {n_i}")
    locs = [r_i for _, r_i in shape]
    if any(a >= b for a, b in zip(locs, locs[1:])):
        raise PreconditionError(f"localities must be strictly increasing, got {locs}")
    return shape


def ml_singleton_two(n1: int, r1: int, n2: int, r2: int, k: int) -> int:
    """Distance bound for a two-locality profile ((n1, r1), (n2, r2)).

    Direct formula n - k + 2 - ceil(n1/(r1+1)) - ceil((k - r1*ceil(n1/(r1+1)))/r2)
    when the first class cannot absorb the dimension; otherwise the profile
    degenerates and the single-locality bound at r1 applies.  r1 == r2 is
    permitted and reduces algebraically to the single-locality bound.
    """
    if r1 < 1 or r2 < r1 or n1 < 0 or n2 < 0:
        raise PreconditionError(
            f"need 1 <= r1 <= r2 and n1, n2 >= 0, got ({n1},{r1}),({n2},{r2})"
        )
    n = n1 + n2
    if not 1 <= k <= n:
        raise PreconditionError(f"need 1 <= k <= n1 + n2, got k={k}, n={n}")
    kappa1 = _ceil_div(n1, r1 + 1)
    if r1 * kappa1 >= k - 1:
        return singleton_r_local(n, k, r1)
    return n - k + 2 - kappa1 - _ceil_div(k - r1 * kappa1, r2)


def ml_singleton(profile, k: int) -> BoundReport:
    """Distance bound for a multi-locality profile, with degenerate collapse.

    While some prefix of classes j satisfies
    sum_{i<=j} r_i * ceil(n_i/(r_i+1)) >= k - 1, classes j..s merge into a
    single class at locality r_j; the direct formula is evaluated on the
    stable shape.  The report records whether a collapse fired and the
    shape actually used.
    """
    shape = _normalize_shape(profile)
    n = sum(n_i for n_i, _ in shape)
    if not 1 <= k <= n:
        raise PreconditionError(f"need 1 <= k <= sum(n_i), got k={k}, n={n}")
    collapsed = False
    while True:
        s = len(shape)
        j = None
        prefix = 0
        for idx in range(s - 1):
            n_i, r_i = shape[idx]
            prefix += r_i * _ceil_div(n_i, r_i + 1)
            if prefix >= k - 1:
                j = idx
                break
        if j is None:
            break
        merged_n = sum(n_i for n_i, _ in shape[j:])
        shape = shape[:j] + ((merged_n, shape[j][1]),)
        collapsed = True
    kappas = [_ceil_div(n_i, r_i + 1) for n_i, r_i in shape[:-1]]
    used = sum(r_i * kap for (_, r_i), kap in zip(shape[:-1], kappas))
    last = _ceil_div(k - used, shape[-1][1])
    value = n - k + 2 - sum(kappas) - last
    return BoundReport(
        name="ml-singleton",
        bound_value=max(0, value),
        witness=tuple(kappas) + (last,),
        exact=True,
        mode_flags=(),
        skipped=(),
        collapse_applied=collapsed,
        effective_shape=shape,
    )


# ---------------------------------------------------------------------------
# alphabet-dependent bounds
# ---------------------------------------------------------------------------


def cm_bound(n: int, d: int, r: int, q: int, oracle: KOptOracle | None = None,
             k_hint: int | None = None) -> BoundReport:
    """k <= min_t [t*r + k_opt(q, n - t(r+1), d)] over t in [0, t*].

    t* = ceil(n/(r+1)), additionally capped at ceil(k_hint/r) when a
    candidate dimension is supplied.  Reports the largest minimizing t.
    """
    if n < 1 or d < 1 or r < 1:
        raise PreconditionError(f"need n, d, r >= 1, got n={n}, d={d}, r={r}")
    if k_hint is not None and k_hint < 1:
        raise PreconditionError(f"k_hint must be >= 1, got {k_hint}")
    if oracle is None:
        oracle = KOptOracle.default()
    cap = _ceil_div(n, r + 1)
    if k_hint is not None:
        cap = min(cap, _ceil_div(k_hint, r))
    best = None
    witness = None
    skipped: list[tuple[int, ...]] = []
    sources: set[str] = set()
    all_exact = True
    for t in range(cap + 1):
        kv = oracle.query(q, n - t * (r + 1), d)
        if kv is None:
            skipped.append((t,))
            continue
        sources.add(kv.source)
        all_exact = all_exact and kv.exact
        value = t * r + kv.value
        if best is None or value <= best:
            best = value
            witness = (t,)
    if best is None:
        raise PreconditionError(
            "oracle produced no value for any t; extend the table or change mode"
        )
    return BoundReport(
        name="cm",
        bound_value=best,
        witness=witness,
        exact=all_exact and not skipped,
        mode_flags=tuple(sorted(sources)),
        skipped=tuple(skipped),
        collapse_applied=False,
        effective_shape=((n, r),),
    )


def ml_alphabet(profile, d: int, q: int, oracle: KOptOracle | None = None,
                k_hint: int | None = None, truncate: bool = True,
                grid_budget: int = 10**6) -> BoundReport:
    """k <= min over the deletion box of
    sum_i t_i r_i + k_opt(q, n - sum_i min(n_i, t_i(r_i+1)), d).

    Box: t_i in [0, ceil(n_i/(r_i+1))] for i < s; the last class is capped
    at floor((k_hint - 1 - sum_{i<s} t_i r_i)/r_s) when k_hint is given
    (clamped at 0), else at ceil(n_s/(r_s+1)).  truncate=False replaces the
    per-class truncation min(n_i, t_i(r_i+1)) by the raw t_i(r_i+1) —
    a weaker but still valid relaxation used for dominance analysis.

    A box of more than ``grid_budget`` cells raises BudgetError before any
    cell is evaluated.  The scan over t_s is computed once per (length left
    by the prefix, cap on t_s) pair and the oracle once per residual
    length; the result, witness and skipped order are those of the
    cell-by-cell scan in C order.
    """
    shape = _normalize_shape(profile, allow_empty_class=True)
    n = sum(n_i for n_i, _ in shape)
    if d < 1:
        raise PreconditionError(f"distance must be >= 1, got {d}")
    if k_hint is not None and k_hint < 1:
        raise PreconditionError(f"k_hint must be >= 1, got {k_hint}")
    if oracle is None:
        oracle = KOptOracle.default()
    head = shape[:-1]
    n_last, r_last = shape[-1]
    prefix_caps = [_ceil_div(n_i, r_i + 1) for n_i, r_i in head]
    kappa_last = _ceil_div(n_last, r_last + 1)
    cap_last_max = kappa_last if k_hint is None else max(0, (k_hint - 1) // r_last)
    grid_size = prod(c + 1 for c in prefix_caps) * (cap_last_max + 1)
    if grid_size > grid_budget:
        raise BudgetError(
            f"deletion grid has {grid_size} cells, above the budget {grid_budget}"
        )
    best = None
    witness = None
    skipped: list[tuple[int, ...]] = []
    sources: set[str] = set()
    all_exact = True
    # The last-axis scan depends only on the length the prefix leaves and on
    # cap_last: memo[(rest, cap_last)] = (least value, largest t_s reaching
    # it, skipped t_s in order).  answers holds one oracle query per residual.
    memo: dict[tuple[int, int], tuple[int | None, int, tuple[int, ...]]] = {}
    answers: dict[int, KOptValue | None] = {}
    for t_prefix in itertools.product(*(range(c + 1) for c in prefix_caps)):
        used = 0
        rest = n
        for t_i, (n_i, r_i) in zip(t_prefix, head):
            used += t_i * r_i
            rest -= min(n_i, t_i * (r_i + 1)) if truncate else t_i * (r_i + 1)
        if k_hint is None:
            cap_last = kappa_last
        else:
            cap_last = max(0, (k_hint - 1 - used) // r_last)
        scan = memo.get((rest, cap_last))
        if scan is None:
            low = None
            arg = 0
            missing = []
            for t_s in range(cap_last + 1):
                gone = t_s * (r_last + 1)
                resid = rest - (min(n_last, gone) if truncate else gone)
                if resid in answers:
                    kv = answers[resid]
                else:
                    kv = answers[resid] = oracle.query(q, resid, d)
                if kv is None:
                    missing.append(t_s)
                    continue
                sources.add(kv.source)
                all_exact = all_exact and kv.exact
                value = t_s * r_last + kv.value
                if low is None or value <= low:
                    low = value
                    arg = t_s
            scan = memo[rest, cap_last] = (low, arg, tuple(missing))
        low, arg, missing = scan
        if missing:
            skipped.extend(t_prefix + (t_s,) for t_s in missing)
        if low is not None and (best is None or used + low <= best):
            best = used + low
            witness = t_prefix + (arg,)
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


def ml_alphabet_two(n1: int, r1: int, n2: int, r2: int, d: int, q: int,
                    oracle: KOptOracle | None = None,
                    k_hint: int | None = None, truncate: bool = True) -> BoundReport:
    """Two-class alphabet-dependent bound; same box as ml_alphabet at s=2."""
    report = ml_alphabet(
        ((n1, r1), (n2, r2)), d, q, oracle=oracle, k_hint=k_hint, truncate=truncate
    )
    return replace(report, name="ml-alphabet-two")
