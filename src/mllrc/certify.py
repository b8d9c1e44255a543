"""Optimality certificates for locally repairable codes.

A Certificate records, for one concrete code, the recomputed minimum distance
and locality profile together with two bound evaluations: the size/locality
Singleton-type bound on the distance and the alphabet-dependent bound on the
dimension.  Nothing declared by the caller is trusted — distance and profile
are always recomputed from the generator matrix.

Verdicts: singleton_optimal is a plain boolean (the bound is an exact
formula).  alphabet_optimal is tri-state — True when the dimension attains
the evaluated bound (any valid upper bound that is attained proves
optimality, even if some oracle cells were inexact or skipped), False when
the dimension falls short of an exactly-evaluated bound, and None (unknown)
when it falls short of an inexact one.

Pyramid-construction certificates use information-symbol accounting: the
class sizes count information plus block-parity coordinates and the d-2
shared parities are charged to the total length only.  Such certificates
carry accounting="information-symbol", certify only the Singleton side, and
mark the alphabet side as not applicable.

Report renderers emit a human-readable text block and a line-oriented
``key=value`` machine format with stable keys (documented on the renderers).
Coordinates in rendered output are 1-based; the library API is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bounds import BoundReport, KOptOracle, _ml_alphabet_singleton, ml_alphabet, ml_singleton
from .constructions import (
    PyramidSpec,
    ml_pyramid,
    pyramid_bound_shape,
    pyramid_profile,
    rate_dimension_limit,
)
from .errors import PreconditionError
from .linear_code import (
    LinearCode,
    LocalityProfile,
    RepairSet,
    _CheckedShape,
    _normalize_shape,
    format_profile_shape,
)

__all__ = [
    "AnalysisReport",
    "Certificate",
    "DominanceReport",
    "certify",
    "certify_pyramid",
    "check_dominance",
    "full_analysis",
    "render_analysis_kv",
    "render_analysis_text",
    "render_bound_kv",
    "render_bound_text",
    "render_certificate_kv",
    "render_certificate_text",
    "render_dominance_kv",
    "render_dominance_text",
]


@dataclass(frozen=True)
class Certificate:
    """Recomputed parameters, profile, and optimality verdicts of one code.

    alphabet_optimal is True / False / None (= unknown under an inexact
    oracle); alphabet_exact records whether every consulted oracle value was
    exact.  accounting is "all-symbol" for plain certificates and
    "information-symbol" for parity-splitting constructions, whose alphabet
    side is not applicable (alphabet_bound None).
    """

    n: int
    k: int
    d: int
    q: int
    mode: str
    accounting: str
    profile: LocalityProfile
    singleton_bound: BoundReport
    singleton_optimal: bool
    alphabet_bound: BoundReport | None
    alphabet_optimal: bool | None
    alphabet_exact: bool


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of the bound-consistency check at one (profile, k, d, q) point.

    holds is True when the point is either Singleton-feasible (d does not
    exceed the Singleton-type bound) or rejected by the alphabet-dependent
    bound evaluated in pure Singleton relaxation (bound < k): every
    Singleton-violating point must be alphabet-rejected.
    """

    holds: bool
    k: int
    d: int
    q: int
    singleton_feasible: bool
    alphabet_rejects: bool
    singleton_bound: BoundReport
    alphabet_bound: BoundReport


@dataclass(frozen=True)
class AnalysisReport:
    """Everything certify computes plus repair-set witnesses and rate data."""

    certificate: Certificate
    witnesses: tuple[tuple[int, RepairSet], ...]
    rate_limit: Fraction
    dominance: DominanceReport


def certify(
    code: LinearCode,
    oracle: KOptOracle | None = None,
    mode: str = "loose",
    budget: int | None = None,
) -> Certificate:
    """Recompute distance and profile, evaluate both bounds, emit verdicts.

    mode selects the profile scan ("loose": helpers anywhere; "strict":
    helpers confined to each class).  oracle feeds the alphabet-dependent
    bound (default: table, then exhaustive search, then analytic).
    """
    return _certify(code, oracle, mode, budget, witnesses=False)


def _certify(code, oracle, mode, budget, witnesses: bool) -> Certificate:
    """certify; with witnesses=True the profile scan also keeps the repair
    sets, for code.verify_profile to return without another scan."""
    d = code.min_distance(budget)
    profile = code.locality_profile(mode=mode, budget=budget, keep_witnesses=witnesses)
    shape = profile.shape()
    sb = ml_singleton(shape, code.k)
    if d > sb.bound_value:
        raise PreconditionError(
            f"recomputed distance {d} exceeds the Singleton-type bound "
            f"{sb.bound_value}; this cannot happen for a correct bound"
        )
    ab = ml_alphabet(shape, d, code.q, oracle=oracle)
    if code.k > ab.bound_value:
        raise PreconditionError(
            f"alphabet-dependent bound {ab.bound_value} is below the code's "
            f"actual dimension {code.k}; an oracle table entry is wrong"
        )
    if code.k == ab.bound_value:
        a_opt: bool | None = True
    elif ab.exact:
        a_opt = False
    else:
        a_opt = None
    return Certificate(
        n=code.n,
        k=code.k,
        d=d,
        q=code.q,
        mode=mode,
        accounting="all-symbol",
        profile=profile,
        singleton_bound=sb,
        singleton_optimal=(d == sb.bound_value),
        alphabet_bound=ab,
        alphabet_optimal=a_opt,
        alphabet_exact=ab.exact,
    )


def certify_pyramid(
    spec: PyramidSpec, budget: int | None = None
) -> Certificate:
    """Certificate for a parity-splitting construction, under
    information-symbol accounting: class i counts its information and
    block-parity coordinates (size k_i + ceil(k_i/r_i)), the d-2 shared
    parities are charged to the total length only, and only the Singleton
    side is certified (the construction guarantees information-symbol
    locality only, so the alphabet-dependent bound's premises are not met).

    The distance bound is evaluated with the declared per-class dimensions:
    d <= n - k + 2 - sum_i ceil(k_i/r_i).  The generic shape-based bound
    could only be looser here, because it may shave the last ceiling term by
    over-assigning dimension to small-locality classes."""
    code = ml_pyramid(spec)
    d = code.min_distance(budget)
    sb = BoundReport(
        name="ml-singleton-information",
        bound_value=code.n - code.k + 2 - sum(spec.kappas),
        witness=spec.kappas,
        exact=True,
        mode_flags=(),
        skipped=(),
        collapse_applied=False,
        effective_shape=pyramid_bound_shape(spec),
    )
    if d > sb.bound_value:
        raise PreconditionError(
            f"recomputed distance {d} exceeds the Singleton-type bound "
            f"{sb.bound_value}; this cannot happen for a correct bound"
        )
    return Certificate(
        n=code.n,
        k=code.k,
        d=d,
        q=code.q,
        mode="declared",
        accounting="information-symbol",
        profile=pyramid_profile(spec),
        singleton_bound=sb,
        singleton_optimal=(d == sb.bound_value),
        alphabet_bound=None,
        alphabet_optimal=None,
        alphabet_exact=False,
    )


def check_dominance(profile, k: int, d: int, q: int) -> DominanceReport:
    """Verify that a Singleton-violating point is also alphabet-rejected.

    The alphabet-dependent bound is evaluated untruncated under the pure
    Singleton relaxation, the combination under which rejection of every
    Singleton-violating (profile, k, d, q) point is provable.  There every
    deletion cell is worth max(U, E - T), U = sum_i t_i r_i, T = sum_i t_i
    and E = n - d + 1, so bounds._ml_alphabet_singleton reads the least
    value and the grid's witness off one greedy fill in increasing locality,
    in O(s), with no grid walked and no oracle asked.  The profile is
    checked once, here; ml_singleton collapses it in one pass.
    """
    profile = _CheckedShape(_normalize_shape(profile))  # checked once, here
    sb = ml_singleton(profile, k)
    singleton_feasible = d <= sb.bound_value
    ab = _ml_alphabet_singleton(profile, d, q, k_hint=k)
    alphabet_rejects = ab.bound_value < k
    return DominanceReport(
        holds=singleton_feasible or alphabet_rejects,
        k=k,
        d=d,
        q=q,
        singleton_feasible=singleton_feasible,
        alphabet_rejects=alphabet_rejects,
        singleton_bound=sb,
        alphabet_bound=ab,
    )


def full_analysis(
    code: LinearCode,
    oracle: KOptOracle | None = None,
    mode: str = "loose",
    budget: int | None = None,
) -> AnalysisReport:
    """Certificate plus per-coordinate repair-set witnesses, the rate-limit
    value for the profile, and the bound-consistency check at the certified
    point.  Output ordering is deterministic (coordinates ascending)."""
    cert = _certify(code, oracle, mode, budget, witnesses=True)
    ok, wit = code.verify_profile(cert.profile, mode=mode, budget=budget)
    if not ok or any(w is None for w in wit.values()):
        raise PreconditionError(
            "recomputed profile failed its own verification; this cannot "
            "happen for a correct scan"
        )
    witnesses = tuple(sorted(wit.items()))
    return AnalysisReport(
        certificate=cert,
        witnesses=witnesses,
        rate_limit=rate_dimension_limit(cert.profile.shape()),
        dominance=check_dominance(cert.profile.shape(), cert.k, cert.d, cert.q),
    )


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------


def _fmt_tuple(t) -> str:
    return ",".join(str(v) for v in t)


def _fmt_skipped(cells) -> str:
    return ";".join(_fmt_tuple(c) for c in cells)


def _fmt_verdict(v: bool | None) -> str:
    return "unknown" if v is None else ("true" if v else "false")


def _coords_1based(coords) -> str:
    return ",".join(str(c + 1) for c in coords)


def render_bound_kv(report: BoundReport) -> str:
    """Machine format for one bound evaluation.  Keys: name, bound, witness,
    exact, flags, skipped, collapsed, shape."""
    lines = [
        f"name={report.name}",
        f"bound={report.bound_value}",
        f"witness={_fmt_tuple(report.witness)}",
        f"exact={'true' if report.exact else 'false'}",
        f"flags={_fmt_tuple(report.mode_flags)}",
        f"skipped={_fmt_skipped(report.skipped)}",
        f"collapsed={'true' if report.collapse_applied else 'false'}",
    ]
    if report.effective_shape is not None:
        lines.append(f"shape={format_profile_shape(report.effective_shape)}")
    return "\n".join(lines)


def render_bound_text(report: BoundReport) -> str:
    parts = [f"{report.name} bound: {report.bound_value}"]
    parts.append(f"  witness: ({_fmt_tuple(report.witness)})")
    parts.append(f"  exact: {'yes' if report.exact else 'no'}")
    if report.mode_flags:
        parts.append(f"  value sources: {', '.join(report.mode_flags)}")
    if report.skipped:
        parts.append(
            f"  skipped cells (no oracle value): {_fmt_skipped(report.skipped)}"
        )
    if report.collapse_applied:
        parts.append(
            "  degenerate classes collapsed; evaluated shape "
            f"{format_profile_shape(report.effective_shape)}"
        )
    return "\n".join(parts)


def render_certificate_kv(cert: Certificate) -> str:
    """Machine format.  Keys: n, k, d, q, mode, accounting, profile,
    singleton.bound, singleton.witness, singleton.optimal, and — when the
    alphabet side applies — alphabet.bound, alphabet.witness, alphabet.exact,
    alphabet.flags, alphabet.skipped, alphabet.optimal."""
    lines = [
        f"n={cert.n}",
        f"k={cert.k}",
        f"d={cert.d}",
        f"q={cert.q}",
        f"mode={cert.mode}",
        f"accounting={cert.accounting}",
        f"profile={format_profile_shape(cert.profile.shape())}",
        f"singleton.bound={cert.singleton_bound.bound_value}",
        f"singleton.witness={_fmt_tuple(cert.singleton_bound.witness)}",
        f"singleton.optimal={_fmt_verdict(cert.singleton_optimal)}",
    ]
    if cert.alphabet_bound is None:
        lines.append("alphabet.optimal=not-applicable")
    else:
        ab = cert.alphabet_bound
        lines.extend(
            [
                f"alphabet.bound={ab.bound_value}",
                f"alphabet.witness={_fmt_tuple(ab.witness)}",
                f"alphabet.exact={'true' if ab.exact else 'false'}",
                f"alphabet.flags={_fmt_tuple(ab.mode_flags)}",
                f"alphabet.skipped={_fmt_skipped(ab.skipped)}",
                f"alphabet.optimal={_fmt_verdict(cert.alphabet_optimal)}",
            ]
        )
    return "\n".join(lines)


def render_certificate_text(cert: Certificate) -> str:
    head = f"[{cert.n}, {cert.k}, {cert.d}] code over GF({cert.q})"
    lines = [
        head,
        f"locality profile ({cert.mode}, {cert.accounting}): "
        f"{format_profile_shape(cert.profile.shape())}",
    ]
    for cls in cert.profile.classes:
        lines.append(
            f"  locality {cls.locality}: coordinates "
            f"{_coords_1based(cls.coordinates)}"
        )
    sb = cert.singleton_bound
    lines.append(
        f"Singleton-type distance bound: {sb.bound_value}"
        f" -> optimal: {_fmt_verdict(cert.singleton_optimal)}"
    )
    if cert.alphabet_bound is None:
        lines.append(
            "alphabet-dependent bound: not applicable under "
            "information-symbol accounting"
        )
    else:
        ab = cert.alphabet_bound
        detail = f"witness ({_fmt_tuple(ab.witness)})"
        if not ab.exact:
            detail += ", inexact oracle"
        lines.append(
            f"alphabet-dependent dimension bound: {ab.bound_value} ({detail})"
            f" -> optimal: {_fmt_verdict(cert.alphabet_optimal)}"
        )
    return "\n".join(lines)


def render_dominance_kv(rep: DominanceReport) -> str:
    """Machine format.  Keys: k, d, q, profile, singleton.bound,
    singleton.feasible, alphabet.bound, alphabet.rejects, holds."""
    return "\n".join(
        [
            f"k={rep.k}",
            f"d={rep.d}",
            f"q={rep.q}",
            f"profile={format_profile_shape(rep.singleton_bound.effective_shape)}",
            f"singleton.bound={rep.singleton_bound.bound_value}",
            f"singleton.feasible={'true' if rep.singleton_feasible else 'false'}",
            f"alphabet.bound={rep.alphabet_bound.bound_value}",
            f"alphabet.rejects={'true' if rep.alphabet_rejects else 'false'}",
            f"holds={'true' if rep.holds else 'false'}",
        ]
    )


def render_dominance_text(rep: DominanceReport) -> str:
    lines = [
        f"point: k={rep.k}, d={rep.d}, q={rep.q}, profile "
        f"{format_profile_shape(rep.singleton_bound.effective_shape)}",
        f"Singleton-type bound {rep.singleton_bound.bound_value}: "
        + ("feasible" if rep.singleton_feasible else "violated"),
        f"alphabet-dependent bound (Singleton relaxation) "
        f"{rep.alphabet_bound.bound_value}: "
        + ("rejects k" if rep.alphabet_rejects else "admits k"),
        "consistency holds" if rep.holds else "CONSISTENCY VIOLATED",
    ]
    return "\n".join(lines)


def render_analysis_kv(rep: AnalysisReport) -> str:
    """Machine format: certificate keys, then rate.limit, then one
    witness.<coordinate>=helpers|coefficients line per coordinate (1-based),
    then dominance.holds."""
    lines = [render_certificate_kv(rep.certificate)]
    lines.append(f"rate.limit={rep.rate_limit}")
    for c, rs in rep.witnesses:
        helpers = _coords_1based(rs.helpers)
        coeffs = _fmt_tuple(rs.coefficients)
        lines.append(f"witness.{c + 1}={helpers}|{coeffs}")
    lines.append(f"dominance.holds={'true' if rep.dominance.holds else 'false'}")
    return "\n".join(lines)


def render_analysis_text(rep: AnalysisReport) -> str:
    cert = rep.certificate
    lines = [render_certificate_text(cert)]
    lines.append(
        f"rate limit: dimension <= {rep.rate_limit} for this profile"
        + (" (attained)" if rep.rate_limit == cert.k else "")
    )
    lines.append("repair sets (coordinate <- helpers):")
    for c, rs in rep.witnesses:
        lines.append(
            f"  {c + 1} <- {_coords_1based(rs.helpers)}"
            f" (coefficients {_fmt_tuple(rs.coefficients)})"
        )
    lines.append(
        "bound consistency at this point: "
        + ("holds" if rep.dominance.holds else "VIOLATED")
    )
    return "\n".join(lines)
