"""Exact data model for approval-based committee elections.

Everything that can influence a verdict is computed in exact rational
arithmetic: ballot weights, scores and swap deltas are `fractions.Fraction`,
candidate sets are immutable bitmasks. Floating point never appears in any
value returned from this module.

Candidates are 0-indexed internally and rendered 1-indexed (``c1``, ``c2``,
...) in reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Union

#: The universal numeric type of the package. Always in lowest terms,
#: denominator positive, arithmetic exact.
Rational = Fraction

RationalLike = Union[Rational, int, str]


class EnumerationLimitError(RuntimeError):
    """An exhaustive enumeration would exceed its configured size budget."""


class CandidateSet:
    """An immutable set of candidates, stored as a bitmask over ``0..m-1``.

    Supports the usual set algebra (``&``, ``|``, ``-``, ``in``, ``<=``,
    ``len``) and iteration in ascending index order. Instances are hashable
    and can be used as dictionary keys.
    """

    __slots__ = ("mask", "m")

    def __init__(self, mask: int, m: int):
        if m < 0:
            raise ValueError("candidate count must be nonnegative")
        if not 0 <= mask < (1 << m):
            raise ValueError(f"mask {mask:#x} has bits outside 0..{m - 1}")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("CandidateSet is immutable")

    @classmethod
    def from_indices(cls, indices: Iterable[int], m: int) -> "CandidateSet":
        mask = 0
        for i in indices:
            if not 0 <= i < m:
                raise ValueError(f"candidate index {i} out of range 0..{m - 1}")
            mask |= 1 << i
        return cls(mask, m)

    @classmethod
    def full(cls, m: int) -> "CandidateSet":
        return cls((1 << m) - 1, m)

    @classmethod
    def empty(cls, m: int) -> "CandidateSet":
        return cls(0, m)

    def indices(self) -> tuple[int, ...]:
        return tuple(self)

    def _check_same_universe(self, other: "CandidateSet") -> None:
        if self.m != other.m:
            raise ValueError("candidate sets live in different universes")

    def __and__(self, other: "CandidateSet") -> "CandidateSet":
        self._check_same_universe(other)
        return CandidateSet(self.mask & other.mask, self.m)

    def __or__(self, other: "CandidateSet") -> "CandidateSet":
        self._check_same_universe(other)
        return CandidateSet(self.mask | other.mask, self.m)

    def __sub__(self, other: "CandidateSet") -> "CandidateSet":
        self._check_same_universe(other)
        return CandidateSet(self.mask & ~other.mask, self.m)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.m and (self.mask >> index) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __le__(self, other: "CandidateSet") -> bool:
        self._check_same_universe(other)
        return self.mask & ~other.mask == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CandidateSet)
            and self.mask == other.mask
            and self.m == other.m
        )

    def __hash__(self) -> int:
        return hash((self.mask, self.m))

    def __repr__(self) -> str:
        return f"CandidateSet({{{', '.join(self.labels())}}}, m={self.m})"

    def labels(self) -> tuple[str, ...]:
        """1-indexed candidate names, e.g. ``('c1', 'c5')``."""
        return tuple(f"c{i + 1}" for i in self)


def _as_mask(ballot: Union[CandidateSet, int], m: int) -> int:
    if isinstance(ballot, CandidateSet):
        if ballot.m != m:
            raise ValueError("ballot universe does not match profile")
        return ballot.mask
    mask = int(ballot)
    if not 0 <= mask < (1 << m):
        raise ValueError(f"ballot mask {mask:#x} out of range for m={m}")
    return mask


class Profile:
    """A map from approval ballots to fractional voter weights.

    Ballots are nonempty candidate sets; weights are positive rationals that
    sum to exactly 1. Zero-weight entries are dropped on construction, and
    any other violation raises ``ValueError``.
    """

    __slots__ = ("m", "_weights")

    def __init__(
        self,
        m: int,
        entries: Mapping[Union[CandidateSet, int], RationalLike],
    ):
        if m < 1:
            raise ValueError("need at least one candidate")
        weights: dict[int, Fraction] = {}
        for ballot, raw in entries.items():
            mask = _as_mask(ballot, m)
            if mask == 0:
                raise ValueError("ballots must be nonempty")
            w = Fraction(raw)
            if w < 0:
                raise ValueError("ballot weights must be nonnegative")
            if w == 0:
                continue
            weights[mask] = weights.get(mask, Fraction(0)) + w
        total = sum(weights.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"ballot weights must sum to 1, got {total}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_weights", dict(sorted(weights.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Profile is immutable")

    @classmethod
    def from_counts(
        cls, m: int, counts: Mapping[Union[CandidateSet, int], int]
    ) -> "Profile":
        """Build a profile from integer voter counts (weight = count/n)."""
        merged: dict[int, int] = {}
        for ballot, count in counts.items():
            mask = _as_mask(ballot, m)
            if count < 0:
                raise ValueError("voter counts must be nonnegative")
            merged[mask] = merged.get(mask, 0) + int(count)
        total = sum(merged.values())
        if total == 0:
            raise ValueError("profile needs at least one voter")
        return cls(m, {mask: Fraction(c, total) for mask, c in merged.items()})

    def ballots(self) -> tuple[CandidateSet, ...]:
        return tuple(CandidateSet(mask, self.m) for mask in self._weights)

    def items(self) -> Iterator[tuple[CandidateSet, Fraction]]:
        for mask, w in self._weights.items():
            yield CandidateSet(mask, self.m), w

    def mask_items(self) -> tuple[tuple[int, Fraction], ...]:
        """(bitmask, weight) pairs in ascending mask order, for hot loops."""
        return tuple(self._weights.items())

    def weight(self, ballot: Union[CandidateSet, int]) -> Fraction:
        return self._weights.get(_as_mask(ballot, self.m), Fraction(0))

    def __len__(self) -> int:
        return len(self._weights)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Profile)
            and self.m == other.m
            and self._weights == other._weights
        )

    def __hash__(self) -> int:
        return hash((self.m, tuple(self._weights.items())))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{{{','.join(CandidateSet(mask, self.m).labels())}}}: {w}"
            for mask, w in self._weights.items()
        )
        return f"Profile(m={self.m}, {{{parts}}})"


@dataclass(frozen=True)
class ElectionInstance:
    """A profile together with the committee size ``k``."""

    profile: Profile
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.profile.m:
            raise ValueError(f"committee size {self.k} not in 1..{self.profile.m}")

    @property
    def m(self) -> int:
        return self.profile.m


@lru_cache(maxsize=None)
def harmonic(n: int) -> Fraction:
    """The n-th harmonic number ``1 + 1/2 + ... + 1/n`` (``harmonic(0) == 0``)."""
    if n < 0:
        raise ValueError("harmonic numbers are defined for n >= 0")
    if n == 0:
        return Fraction(0)
    return harmonic(n - 1) + Fraction(1, n)


def utility(ballot: CandidateSet, committee: CandidateSet) -> int:
    """Number of committee members the ballot approves, ``|A ∩ W|``."""
    ballot._check_same_universe(committee)
    return (ballot.mask & committee.mask).bit_count()


def _active_masks(profile_like, active) -> Optional[frozenset[int]]:
    if active is None:
        return None
    return frozenset(_as_mask(ballot, profile_like.m) for ballot in active)


def pav_score(
    profile,
    active: Optional[Iterable[Union[CandidateSet, int]]],
    committee: CandidateSet,
) -> Fraction:
    """Exact PAV score of a committee, optionally restricted to active ballots.

    The score is ``sum of weight(A) * H(|A ∩ W|)`` over the active ballots;
    pass ``active=None`` to score over the whole profile. Works on `Profile`
    and on the unnormalized result of `restrict_profile`.
    """
    if committee.m != profile.m:
        raise ValueError("committee universe does not match profile")
    keep = _active_masks(profile, active)
    w_mask = committee.mask
    score = Fraction(0)
    for mask, weight in profile.mask_items():
        if keep is not None and mask not in keep:
            continue
        score += weight * harmonic((mask & w_mask).bit_count())
    return score


def swap_delta(
    profile,
    active: Optional[Iterable[Union[CandidateSet, int]]],
    committee: CandidateSet,
    x: int,
    y: int,
) -> Fraction:
    """Exact change in PAV score when committee member ``x`` is swapped for ``y``.

    Requires ``x in committee`` and ``y not in committee``. Per ballot the
    contribution is ``1/(u+1)`` if the ballot approves ``y`` but not ``x``,
    ``-1/u`` if it approves ``x`` but not ``y``, and 0 otherwise, where ``u``
    is the ballot's utility for the unmodified committee.
    """
    if committee.m != profile.m:
        raise ValueError("committee universe does not match profile")
    if x not in committee:
        raise ValueError(f"swap source c{x + 1} is not in the committee")
    if y in committee or not 0 <= y < committee.m:
        raise ValueError(f"swap target c{y + 1} must be a non-member")
    keep = _active_masks(profile, active)
    items = profile.mask_items()
    if keep is not None:
        items = [(mask, w) for mask, w in items if mask in keep]
    return mask_swap_delta(items, committee.mask, x, y)


def mask_swap_delta(
    items: Iterable[tuple[int, Fraction]], w_mask: int, x: int, y: int
) -> Fraction:
    """`swap_delta` on (ballot mask, weight) pairs and a committee mask,
    without checks: the one swap kernel of the package's hot loops."""
    x_bit, y_bit = 1 << x, 1 << y
    delta = Fraction(0)
    for mask, weight in items:
        has_x, has_y = mask & x_bit, mask & y_bit
        if has_x and not has_y:
            delta -= weight / (mask & w_mask).bit_count()
        elif has_y and not has_x:
            delta += weight / ((mask & w_mask).bit_count() + 1)
    return delta


@dataclass(frozen=True)
class RestrictedProfile:
    """Result of deleting candidates from a profile, without renormalizing.

    ``weights`` maps surviving (re-indexed) ballots to their original weights;
    they sum to ``1 - inactive_mass``. Ballots whose intersection with the
    kept set is empty are dropped and their weight accumulates in
    ``inactive_mass``; if everything is dropped, ``weights`` is empty and
    ``inactive_mass == 1``. ``index_map`` sends old candidate indices to the
    new dense indices.
    """

    m: int
    weights: Mapping[CandidateSet, Fraction]
    inactive_mass: Fraction
    index_map: Mapping[int, int]

    def mask_items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(
            sorted((ballot.mask, w) for ballot, w in self.weights.items())
        )

    def ballots(self) -> tuple[CandidateSet, ...]:
        return tuple(sorted(self.weights, key=lambda b: b.mask))

    def renormalized(self) -> Profile:
        """Rescale the surviving weights into a proper profile."""
        live = 1 - self.inactive_mass
        if live == 0:
            raise ValueError("no surviving ballots to renormalize")
        return Profile(
            self.m, {ballot: w / live for ballot, w in self.weights.items()}
        )


def restrict_profile(profile: Profile, keep: CandidateSet) -> RestrictedProfile:
    """Intersect every ballot with ``keep`` and re-index candidates densely.

    The surviving weights are deliberately not rescaled back to mass 1;
    callers that need a probability profile must renormalize explicitly.
    """
    if keep.m != profile.m:
        raise ValueError("keep-set universe does not match profile")
    if not keep:
        raise ValueError("keep-set must be nonempty")
    old_indices = list(keep)
    index_map = {old: new for new, old in enumerate(old_indices)}
    new_m = len(old_indices)
    weights: dict[CandidateSet, Fraction] = {}
    inactive = Fraction(0)
    for mask, weight in profile.mask_items():
        inter = mask & keep.mask
        if inter == 0:
            inactive += weight
            continue
        new_mask = 0
        rest = inter
        while rest:
            low = rest & -rest
            new_mask |= 1 << index_map[low.bit_length() - 1]
            rest ^= low
        ballot = CandidateSet(new_mask, new_m)
        weights[ballot] = weights.get(ballot, Fraction(0)) + weight
    return RestrictedProfile(
        m=new_m, weights=weights, inactive_mass=inactive, index_map=index_map
    )
