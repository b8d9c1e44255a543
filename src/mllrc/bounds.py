"""Upper bounds for codes with one or several repair localities.

Provides:

- ``singleton_r_local``: the locality-aware Singleton bound
  d <= n - k + 2 - ceil(k/r).
- ``ml_singleton``: its generalization to profiles with several strictly
  increasing localities, including the degenerate collapse (when a prefix
  of classes already exhausts the dimension, the remaining classes merge
  into one class at the prefix locality).
- ``ml_alphabet``: the alphabet-dependent dimension bound for several
  localities, minimized over a box of deletion counts (t_1, ..., t_s).
- ``cm_bound``: its one-class case, the Cadambe-Mazumdar style bound
  k <= min_t [t*r + k_opt(n - t(r+1), d)].
- ``KOptOracle``: the k_opt(q, n, d) oracle the alphabet bounds consume,
  with table / exhaustive / analytic / singleton modes.

Conventions shared by all grid bounds: deletion counts include t_i = 0, the
reported witness is the lexicographically largest minimizing tuple, and grid
cells whose k_opt value is unavailable (strict table mode) are skipped and
recorded — the minimum over the remaining cells is still a valid upper
bound, merely flagged non-exact.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from math import prod

import numpy as np

from .errors import BudgetError, ParseError, PreconditionError
from .linear_code import _normalize_shape, _read_ascii

__all__ = [
    "BoundReport",
    "KOptOracle",
    "KOptValue",
    "BUNDLED_KOPT_TABLE",
    "load_kopt_table",
    "griesmer_max_k",
    "singleton_max_k",
    "singleton_r_local",
    "cm_bound",
    "ml_singleton",
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


@dataclass(frozen=True, slots=True)
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


@functools.cache
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

    Memoized for the process under all four arguments, so every oracle
    shares completed and aborted searches and each budget has its own
    entries.  Through the oracle 2 <= d <= n <= _EXHAUSTIVE_MAX_N and
    stop_at follows from (n, d): at most 91 entries per budget.
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

# The longest binary code the exhaustive stage searches.
_EXHAUSTIVE_MAX_N = 14
# The most primitive coset checks one exhaustive search may make; a search
# that needs more aborts and the chain falls through.
_SEARCH_BUDGET = 2_000_000
# The most answers one oracle's query memo holds; a full memo is emptied
# before the next answer is stored, so a long-lived oracle stays bounded.
_QUERY_MEMO_CAP = 1 << 15


class KOptOracle:
    """Resolver for k_opt(q, n, d), the largest dimension at length n and
    minimum distance >= d over alphabet size q.

    mode is a comma-separated resolution chain over {table, exhaustive,
    analytic, singleton}; the first stage that produces a value wins.  A
    pure "table" oracle returns nothing for missing entries (callers skip
    that grid cell).  Universal edge cases (n <= 0, d <= 1, d > n) are
    answered exactly before the chain runs.

    The exhaustive stage (q = 2, n <= _EXHAUSTIVE_MAX_N = 14) searches
    binary *linear* codes only; it is flagged exact, with the caveat that a
    non-linear code could in principle exceed the best linear one.  Searches
    that would exceed _SEARCH_BUDGET primitive coset checks (the enumeration
    budget ``budget=`` does not apply) abort deterministically,
    raise nothing and produce no value, so the chain falls through.  Each
    search, completed or aborted, runs once per process and budget: the
    memo of ``_exhaustive_max_dim_q2`` is shared by every oracle, while
    ``query``'s own memo belongs to this instance and is emptied whenever it
    reaches _QUERY_MEMO_CAP answers.  A user ``table`` is
    validated entry by entry; the bundled table was validated at import.
    The analytic stage returns min(Singleton, Griesmer) and is flagged
    non-exact: always a valid upper bound, unusable for optimality
    certification.  The singleton stage returns n - d + 1 and exists so
    bounds can be evaluated in pure Singleton-relaxation form.
    """

    def __init__(self, mode: str = "table,exhaustive,analytic", table=None):
        chain = tuple(m.strip() for m in str(mode).split(","))
        if not chain or any(m not in _MODE_NAMES for m in chain):
            raise PreconditionError(
                f"oracle mode must be a comma-separated chain over {_MODE_NAMES}, got {mode!r}"
            )
        if len(set(chain)) != len(chain):
            raise PreconditionError(f"duplicate stage in oracle mode {mode!r}")
        self.mode = ",".join(chain)
        self._chain = chain
        self.table: dict[tuple[int, int, int], tuple[int, str]] = {}
        if table is None:  # the bundled table is validated once, at import
            self.table.update(BUNDLED_KOPT_TABLE)
        else:
            for (q, n, d), (k, prov) in table.items():
                _validate_table_entry(q, n, d, k)
                self.table[(q, n, d)] = (k, str(prov))
        self._memo: dict[tuple[int, int, int], KOptValue | None] = {}

    @classmethod
    def analytic_only(cls) -> "KOptOracle":
        return cls("analytic")

    def __repr__(self) -> str:
        return f"KOptOracle(mode={self.mode!r}, entries={len(self.table)})"

    def query(self, q: int, n: int, d: int) -> KOptValue | None:
        if q < 2:
            raise PreconditionError(f"alphabet size must be >= 2, got {q}")
        key = (q, n, d)
        if key in self._memo:
            return self._memo[key]
        result = self._resolve(q, n, d)
        if len(self._memo) >= _QUERY_MEMO_CAP:
            self._memo.clear()
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
                if q == 2 and n <= _EXHAUSTIVE_MAX_N:
                    ceiling = min(singleton_max_k(n, d), griesmer_max_k(q, n, d))
                    value, completed = _exhaustive_max_dim_q2(
                        n, d, ceiling, _SEARCH_BUDGET
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


# The most cells a deletion grid may have; a larger one refuses the bound.
_GRID_BUDGET = 10**6


def _deletion_box(profile, d: int, k_hint: int | None):
    """The checked shape, the prefix caps and ceil(n_s/(r_s+1)) of a deletion
    box, refused in this order: shape, d >= 1, k_hint >= 1, _GRID_BUDGET."""
    shape = _normalize_shape(profile, allow_empty_class=True)
    if d < 1:
        raise PreconditionError(f"distance must be >= 1, got {d}")
    if k_hint is not None and k_hint < 1:
        raise PreconditionError(f"k_hint must be >= 1, got {k_hint}")
    n_last, r_last = shape[-1]
    prefix_caps = [_ceil_div(n_i, r_i + 1) for n_i, r_i in shape[:-1]]
    kappa_last = _ceil_div(n_last, r_last + 1)
    cap_last_max = kappa_last if k_hint is None else max(0, (k_hint - 1) // r_last)
    grid_size = prod(c + 1 for c in prefix_caps) * (cap_last_max + 1)
    if grid_size > _GRID_BUDGET:
        raise BudgetError(
            f"deletion grid has {grid_size} cells, above the budget {_GRID_BUDGET}"
        )
    return shape, prefix_caps, kappa_last


def ml_alphabet(profile, d: int, q: int, oracle: KOptOracle | None = None,
                k_hint: int | None = None, truncate: bool = True) -> BoundReport:
    """k <= min over the deletion box of
    sum_i t_i r_i + k_opt(q, n - sum_i min(n_i, t_i(r_i+1)), d).

    Box: t_i in [0, ceil(n_i/(r_i+1))] for i < s; the last class is capped
    at floor((k_hint - 1 - sum_{i<s} t_i r_i)/r_s) when k_hint is given
    (clamped at 0), else at ceil(n_s/(r_s+1)).  truncate=False replaces the
    per-class truncation min(n_i, t_i(r_i+1)) by the raw t_i(r_i+1) —
    a weaker but still valid relaxation, which cm_bound uses.  Under the
    pure "singleton" oracle and truncate=False, _ml_alphabet_singleton
    gives the same report in closed form.

    A box of more than _GRID_BUDGET cells raises BudgetError before any
    cell is evaluated.  The scan over t_s is computed once per (length left
    by the prefix, cap on t_s) pair and the oracle once per residual
    length; the result, witness and skipped order are those of the
    cell-by-cell scan in C order.
    """
    shape, prefix_caps, kappa_last = _deletion_box(profile, d, k_hint)
    if oracle is None:
        oracle = KOptOracle()
    n = sum(n_i for n_i, _ in shape)
    head = shape[:-1]
    n_last, r_last = shape[-1]
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


def _ml_alphabet_singleton(profile, d: int, q: int, k_hint: int | None = None) -> BoundReport:
    """ml_alphabet(profile, d, q, KOptOracle("singleton"), k_hint,
    truncate=False) without the grid: the same report, field for field, and
    the same refusals in the same order.

    The singleton oracle gives every cell max(0, m - d + 1), m the residual
    length.  For a fixed prefix the last axis therefore reads
    f(t) = t r_s + max(0, e - t(r_s+1)) with e = rest - d + 1, which falls
    by 1 a step up to u = e div (r_s+1) and rises by r_s after it.  Its least
    value on [0, cap] is at t = min(cap, u); when e mod (r_s+1) = r_s, t = u + 1
    ties with u and is kept, as the grid keeps the largest t_s.  The prefixes
    run in C order under the grid's <= rule, so the witness is the grid's
    C-order-last minimiser.  A cell is "edge" when its residual is below d,
    which the last axis reaches at t = cap, and "singleton" otherwise.
    """
    shape, prefix_caps, kappa_last = _deletion_box(profile, d, k_hint)
    if q < 2:  # the grid's first oracle query refuses it here
        raise PreconditionError(f"alphabet size must be >= 2, got {q}")
    n = sum(n_i for n_i, _ in shape)
    head = shape[:-1]
    r_last = shape[-1][1]
    step = r_last + 1
    best = None
    witness = None
    edge = d <= 1
    for t_prefix in itertools.product(*(range(c + 1) for c in prefix_caps)):
        used = 0
        rest = n
        for t_i, (_, r_i) in zip(t_prefix, head):
            used += t_i * r_i
            rest -= t_i * (r_i + 1)
        if k_hint is None:
            cap_last = kappa_last
        else:
            cap_last = max(0, (k_hint - 1 - used) // r_last)
        edge = edge or rest - cap_last * step < d
        e = rest - d + 1
        if e <= 0:
            low, arg = 0, 0
        else:
            u, m = divmod(e, step)
            if cap_last <= u:
                low, arg = e - cap_last, cap_last
            else:
                low, arg = u * r_last + m, u + (m == r_last)
        if best is None or used + low <= best:
            best = used + low
            witness = t_prefix + (arg,)
    flags = ("edge",) * edge + ("singleton",) * (2 <= d <= n)
    return BoundReport(
        name="ml-alphabet",
        bound_value=best,
        witness=witness,
        exact="singleton" not in flags,
        mode_flags=flags,
        skipped=(),
        collapse_applied=False,
        effective_shape=shape,
    )


def cm_bound(n: int, d: int, r: int, q: int, oracle: KOptOracle | None = None) -> BoundReport:
    """k <= min_t [t*r + k_opt(q, n - t(r+1), d)] over t in [0, ceil(n/(r+1))]:
    ml_alphabet on the one class (n, r), without the per-class truncation.

    Reports the largest minimizing t.  More than _GRID_BUDGET values of t
    raise BudgetError before any is evaluated.
    """
    if n < 1 or d < 1 or r < 1:
        raise PreconditionError(f"need n, d, r >= 1, got n={n}, d={d}, r={r}")
    report = ml_alphabet(((n, r),), d, q, oracle, truncate=False)
    return replace(report, name="cm")
