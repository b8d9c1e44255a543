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
    memo of ``_exhaustive_max_dim_q2`` is shared by every oracle.  The
    oracle itself keeps no memo; ``query`` resolves every call, and
    ml_alphabet asks each residual length once per evaluation.  A user
    ``table`` is validated entry by entry; the bundled table was validated
    at import.
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

    @classmethod
    def analytic_only(cls) -> "KOptOracle":
        return cls("analytic")

    def __repr__(self) -> str:
        return f"KOptOracle(mode={self.mode!r}, entries={len(self.table)})"

    def query(self, q: int, n: int, d: int) -> KOptValue | None:
        if q < 2:
            raise PreconditionError(f"alphabet size must be >= 2, got {q}")
        return self._resolve(q, n, d)

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
    """Distance bound for a multi-locality profile, with degenerate collapse:
    at the first prefix j < s with sum_{i<=j} r_i * ceil(n_i/(r_i+1)) >= k - 1,
    classes j..s merge into one class at locality r_j, and the direct formula
    is evaluated on that shape.  One pass suffices, as the prefixes before j
    stay below k - 1.  The report records whether a collapse fired and the
    shape actually used."""
    shape = _normalize_shape(profile)
    n = sum([n_i for n_i, _ in shape])
    if not 1 <= k <= n:
        raise PreconditionError(f"need 1 <= k <= sum(n_i), got k={k}, n={n}")
    collapsed = False
    terms = []  # ceil(n_i/(r_i+1)) of the classes before the last one
    used = before = 0  # the sums of r_i times those terms and of their n_i
    for j in range(len(shape) - 1):
        n_j, r_j = shape[j]
        kappa = -(-n_j // (r_j + 1))
        if used + r_j * kappa >= k - 1:
            shape = shape[:j] + ((n - before, r_j),)
            collapsed = True
            break
        terms.append(kappa)
        used += r_j * kappa
        before += n_j
    terms.append(-(-(k - used) // shape[-1][1]))
    return BoundReport(
        name="ml-singleton",
        bound_value=max(0, n - k + 2 - sum(terms)),
        witness=tuple(terms),
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
    """The checked shape, n, the prefix caps and ceil(n_s/(r_s+1)) of a deletion
    box, refused in this order: shape, d >= 1, k_hint >= 1, _GRID_BUDGET."""
    shape = _normalize_shape(profile, allow_empty_class=True)
    if d < 1:
        raise PreconditionError(f"distance must be >= 1, got {d}")
    if k_hint is not None and k_hint < 1:
        raise PreconditionError(f"k_hint must be >= 1, got {k_hint}")
    n_last, r_last = shape[-1]
    n, prefix_caps, grid_size = n_last, [], 1
    for n_i, r_i in shape[:-1]:
        n += n_i
        prefix_caps.append(-(-n_i // (r_i + 1)))
        grid_size *= prefix_caps[-1] + 1
    kappa_last = -(-n_last // (r_last + 1))
    grid_size *= 1 + (kappa_last if k_hint is None else max(0, (k_hint - 1) // r_last))
    if grid_size > _GRID_BUDGET:
        raise BudgetError(
            f"deletion grid has {grid_size} cells, above the budget {_GRID_BUDGET}"
        )
    return shape, n, prefix_caps, kappa_last


def ml_alphabet(profile, d: int, q: int, oracle: KOptOracle | None = None,
                k_hint: int | None = None) -> BoundReport:
    """k <= min over the deletion box of
    sum_i t_i r_i + k_opt(q, n - sum_i min(n_i, t_i(r_i+1)), d).

    Box: t_i in [0, ceil(n_i/(r_i+1))] for i < s; the last class is capped
    at floor((k_hint - 1 - sum_{i<s} t_i r_i)/r_s) when k_hint is given
    (clamped at 0), else at ceil(n_s/(r_s+1)).  On one class the per-class
    truncation min(n_i, t_i(r_i+1)) changes nothing: it only lifts residual
    lengths below 0 to 0, and the oracle answers every length <= 0 with the
    same edge value 0.  So cm_bound, the untruncated one-class bound, is
    this grid on ((n, r),).

    A box of more than _GRID_BUDGET cells raises BudgetError before any
    cell is evaluated.  The scan over t_s is computed once per (length left
    by the prefix, cap on t_s) pair and the oracle once per residual
    length; the result, witness and skipped order are those of the
    cell-by-cell scan in C order.
    """
    shape, n, prefix_caps, kappa_last = _deletion_box(profile, d, k_hint)
    if oracle is None:
        oracle = KOptOracle()
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
            rest -= min(n_i, t_i * (r_i + 1))
        cap_last = kappa_last if k_hint is None else max(0, (k_hint - 1 - used) // r_last)
        scan = memo.get((rest, cap_last))
        if scan is None:
            low = None
            arg = 0
            missing = []
            for t_s in range(cap_last + 1):
                resid = rest - min(n_last, t_s * (r_last + 1))
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
    """The alphabet bound under the pure Singleton relaxation, untruncated:
    ml_alphabet's deletion box and refusals, with the per-class truncation
    min(n_i, t_i(r_i+1)) replaced by the raw t_i(r_i+1) (a weaker but still
    valid relaxation) and k_opt by the singleton stage.  It walks no grid
    and asks no oracle, and gives the report that grid gives, field for
    field, and the same refusals in the same order.

    A cell t leaves m = n - U - T, with U = sum_i t_i r_i and T = sum_i t_i,
    and the singleton stage gives it max(0, m - d + 1).  With E = n - d + 1
    every cell is therefore worth max(U, E - T), and the bound is the least
    V with V + maxT(V) >= E, maxT(V) the most items of a cell with U <= V.
    Filling the classes in increasing locality,
    t_i = min(cap_i, (V - U_{<i}) div r_i), reaches maxT(V): localities
    strictly increase, so one more item of a cheaper class costs the later
    classes (the coupled cap on t_s included) at most one item, and the
    best count reachable after it never falls.  The minimisers are the
    cells with U <= V and T >= E - V, so by the same argument the fill at V
    is their C-order-last, the grid's witness.  V + maxT(V) grows by r_i + 1
    per item of class i and by 1 per unit of V left over, so the fill at V
    packs max(E, 0) with blocks of r_i + 1, class by class, taking one block
    more where exactly r_i is left, and V is that cell's own worth.

    The cell t = 0 is "singleton" when 2 <= d <= n; a cell with U + T >= E,
    i.e. m < d, is "edge".  Unhinted, the all-caps cell reaches n >= E.
    With K = k_hint - 1, the all-caps cell may hit, and K + maxT(K) bounds
    every cell with t_s > 0 from above; when neither decides, a prefix scan
    runs to its first edge cell.
    """
    shape, n, prefix_caps, kappa_last = _deletion_box(profile, d, k_hint)
    if q < 2:  # the grid's first oracle query refuses it here
        raise PreconditionError(f"alphabet size must be >= 2, got {q}")
    r_last = shape[-1][1]
    e = n - d + 1
    fill = max(e, 0) + 1  # the + 1: one block more where exactly r_i is left
    witness = []
    used = total = full = 0  # full: U of the all-caps prefix
    for (_, r_i), cap in zip(shape, prefix_caps):
        witness.append(min(cap, (fill - used - total) // (r_i + 1)))
        used += witness[-1] * r_i
        total += witness[-1]
        full += cap * r_i
    cap = kappa_last if k_hint is None else max(0, (k_hint - 1 - used) // r_last)
    witness.append(min(cap, (fill - used - total) // (r_last + 1)))
    value = max(used + witness[-1] * r_last, e - total - witness[-1])
    t_s = 0 if k_hint is None else max(0, (k_hint - 1 - full) // r_last)  # of the all-caps cell
    edge = k_hint is None or d <= 1 or full + sum(prefix_caps) + t_s * (r_last + 1) >= e
    if not edge:
        used = total = 0  # the fill at budget K
        for (_, r_i), cap in zip(shape, prefix_caps):
            t_i = min(cap, (k_hint - 1 - used) // r_i)
            used += t_i * r_i
            total += t_i
        if k_hint - 1 + total + (k_hint - 1 - used) // r_last >= e:  # K + maxT(K)
            for t_prefix in itertools.product(*(range(c + 1) for c in prefix_caps)):
                used = sum(t_i * r_i for t_i, (_, r_i) in zip(t_prefix, shape))
                t_s = max(0, (k_hint - 1 - used) // r_last)
                if used + sum(t_prefix) + t_s * (r_last + 1) >= e:
                    edge = True
                    break
    flags = ("edge",) * edge + ("singleton",) * (2 <= d <= n)
    return BoundReport(
        name="ml-alphabet",
        bound_value=value,
        witness=tuple(witness),
        exact="singleton" not in flags,
        mode_flags=flags,
        skipped=(),
        collapse_applied=False,
        effective_shape=shape,
    )


def cm_bound(n: int, d: int, r: int, q: int, oracle: KOptOracle | None = None) -> BoundReport:
    """k <= min_t [t*r + k_opt(q, n - t(r+1), d)] over t in [0, ceil(n/(r+1))]:
    ml_alphabet on the one class (n, r), where the per-class truncation
    changes no cell (see ml_alphabet).

    Reports the largest minimizing t.  More than _GRID_BUDGET values of t
    raise BudgetError before any is evaluated.
    """
    if n < 1 or d < 1 or r < 1:
        raise PreconditionError(f"need n, d, r >= 1, got n={n}, d={d}, r={r}")
    report = ml_alphabet(((n, r),), d, q, oracle)
    return replace(report, name="cm")
