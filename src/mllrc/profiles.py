"""Locality profiles, repair sets and the profile-string grammar."""

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, PreconditionError


@dataclass(frozen=True)
class RepairSet:
    """c[target] = sum coefficients[j] * c[helpers[j]] for every codeword."""

    target: int
    helpers: tuple[int, ...]
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if len(self.helpers) < 1:
            raise PreconditionError("repair set needs at least one helper")
        if self.target in self.helpers:
            raise PreconditionError("repair target cannot be its own helper")
        if len(self.helpers) != len(self.coefficients):
            raise PreconditionError("helpers and coefficients must align")

    def holds_for(self, code: "LinearCode") -> bool:
        """Exact check of the repair relation on every generator row."""
        F = code.field
        G = code.G.a
        rhs = np.zeros(code.k, dtype=np.int64)
        for j, c in zip(self.helpers, self.coefficients):
            rhs = F.add(rhs, F.mul(c, G[:, j]))
        return bool(np.array_equal(rhs, G[:, self.target]))


@dataclass(frozen=True)
class LocalityClass:
    locality: int
    coordinates: tuple[int, ...]

    def __post_init__(self):
        if self.locality < 1:
            raise PreconditionError(f"locality must be >= 1, got {self.locality}")
        if not self.coordinates:
            raise PreconditionError("locality class cannot be empty")
        if tuple(sorted(set(self.coordinates))) != self.coordinates:
            raise PreconditionError("class coordinates must be sorted and distinct")

    @property
    def size(self) -> int:
        return len(self.coordinates)


@dataclass(frozen=True)
class LocalityProfile:
    """Coordinate classes with strictly increasing localities r_1 < ... < r_s."""

    classes: tuple[LocalityClass, ...]

    def __post_init__(self):
        if not self.classes:
            raise PreconditionError("profile needs at least one class")
        locs = [c.locality for c in self.classes]
        if locs != sorted(set(locs)):
            raise PreconditionError("class localities must be strictly increasing")
        seen: set[int] = set()
        for c in self.classes:
            if seen & set(c.coordinates):
                raise PreconditionError("classes must be pairwise disjoint")
            seen |= set(c.coordinates)

    def shape(self) -> tuple[tuple[int, int], ...]:
        """((n_1, r_1), ..., (n_s, r_s))."""
        return tuple((c.size, c.locality) for c in self.classes)

    def covers(self, n: int) -> bool:
        return set().union(*(c.coordinates for c in self.classes)) == set(range(n))

    def __str__(self) -> str:
        return format_profile_shape(self.shape())


def _normalize_shape(profile, allow_empty_class: bool = False):
    """The ((n_1, r_1), ..., (n_s, r_s)) shape of a LocalityProfile or of a
    sequence of pairs, checked: at least one class, every r_i >= 1 and
    n_i >= 1 (n_i = 0 too with allow_empty_class), r_i strictly increasing."""
    if isinstance(profile, LocalityProfile):
        shape = profile.shape()
    else:
        shape = tuple([(int(n_i), int(r_i)) for n_i, r_i in profile])
    if not shape:
        raise PreconditionError("profile must have at least one class")
    increasing = True
    prev = 0
    for n_i, r_i in shape:
        if r_i < 1:
            raise PreconditionError(f"locality must be >= 1, got {r_i}")
        if n_i < 0 or (n_i == 0 and not allow_empty_class):
            raise PreconditionError(f"class size must be >= 1, got {n_i}")
        increasing = increasing and prev < r_i
        prev = r_i
    if not increasing:
        locs = [r_i for _, r_i in shape]
        raise PreconditionError(f"localities must be strictly increasing, got {locs}")
    return shape


_PROFILE_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_profile_shape(text: str) -> tuple[tuple[int, int], ...]:
    """Parse "(n1,r1),(n2,r2),..." into a shape tuple, validating the grammar.

    Classes may appear in any order; the result is canonical (sorted by
    locality).  Duplicate localities are rejected."""
    pairs = _PROFILE_RE.findall(text)
    canonical = ",".join(f"({a},{b})" for a, b in pairs)
    stripped = re.sub(r"\s+", "", text)
    if not pairs or stripped != canonical:
        raise ParseError(f"malformed profile string: {text!r}")
    try:
        shape = tuple(sorted(((int(a), int(b)) for a, b in pairs), key=lambda p: p[1]))
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"malformed profile string: {exc}") from exc
    locs = [r for _, r in shape]
    if len(locs) != len(set(locs)):
        raise ParseError(f"profile localities must be distinct: {text!r}")
    if any(n < 1 or r < 1 for n, r in shape):
        raise ParseError(f"profile entries must be positive: {text!r}")
    return shape


def format_profile_shape(shape) -> str:
    return ",".join(f"({n},{r})" for n, r in shape)


def _profile_from_localities(locs: dict[int, int]) -> LocalityProfile:
    by_r: dict[int, list[int]] = {}
    for coord, r in locs.items():
        by_r.setdefault(r, []).append(coord)
    classes = tuple(
        LocalityClass(r, tuple(sorted(by_r[r]))) for r in sorted(by_r)
    )
    return LocalityProfile(classes)
