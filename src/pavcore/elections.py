"""Exact data model for approval-based committee elections.

Everything that can influence a verdict is computed exactly: ballot
weights are `fractions.Fraction`, candidate sets are immutable bitmasks.
PAV scores are ints over the one denominator D · lcm(1..k), where D is the
lcm of the ballot weights' denominators (`Profile.scaled_mask_items`) and k
the committee size (`harmonic_table`): `mask_pav_score` sums them and
`first_improving_swap` compares them; `pav_score` returns an exact
`Fraction`. Floating point never appears in any value returned from
this module.

Candidates are 0-indexed internally and rendered 1-indexed (``c1``, ``c2``,
...) in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union


class EnumerationLimitError(RuntimeError):
    """An exhaustive enumeration would exceed its configured size budget."""


class CandidateSet:
    """An immutable set of candidates, stored as a bitmask over ``0..m-1``.

    Supports the usual set algebra (``&``, ``|``, ``-``, ``in``, ``<=``,
    ``len``) and iteration in ascending index order. Instances are hashable,
    so they can be dictionary keys, and they pickle and copy by value.
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

    def __reduce__(self):
        return CandidateSet, (self.mask, self.m)

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
    any other violation raises ``ValueError``. Profiles pickle and copy by
    value.
    """

    __slots__ = ("m", "_weights")

    def __init__(
        self,
        m: int,
        entries: Mapping[Union[CandidateSet, int], Union[Fraction, int, str]],
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

    def __reduce__(self):
        return Profile, (self.m, self._weights)

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

    def items(self) -> Iterator[tuple[CandidateSet, Fraction]]:
        for mask, w in self._weights.items():
            yield CandidateSet(mask, self.m), w

    def mask_items(self) -> tuple[tuple[int, Fraction], ...]:
        """(bitmask, weight) pairs in ascending mask order, for hot loops."""
        return tuple(self._weights.items())

    def scaled_mask_items(self) -> tuple[int, list[tuple[int, int]]]:
        """``(D, [(mask, weight * D)])`` in `mask_items` order, where D is
        the lcm of the weight denominators, so every scaled weight is an int
        and they sum to D."""
        scale = math.lcm(*(w.denominator for w in self._weights.values()))
        return scale, [
            (mask, w.numerator * (scale // w.denominator))
            for mask, w in self._weights.items()
        ]

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


@lru_cache(maxsize=None)
def harmonic_table(n: int) -> tuple[int, tuple[int, ...]]:
    """``(L, h)`` with ``L = lcm(1..n)`` and ``h[u] = L * harmonic(u)`` for
    ``u = 0..n``: the harmonic numbers up to n as ints over one denominator."""
    scale = math.lcm(*range(1, n + 1))
    return scale, tuple(int(harmonic(u) * scale) for u in range(n + 1))


def pav_score(profile: Profile, committee: CandidateSet) -> Fraction:
    """Exact PAV score of a committee, ``sum of weight(A) * H(|A ∩ W|)``
    over the ballots of the profile."""
    if committee.m != profile.m:
        raise ValueError("committee universe does not match profile")
    scale, items = profile.scaled_mask_items()
    lcm_k, h = harmonic_table(len(committee))
    return Fraction(mask_pav_score(items, committee.mask, h), scale * lcm_k)


def mask_pav_score(items: Iterable[tuple[int, int]], w_mask: int, h) -> int:
    """`pav_score` times D * L, without checks, on the scaled (ballot mask,
    weight) pairs of `Profile.scaled_mask_items` and the table ``h`` of
    `harmonic_table` (L) for at least the committee size: the one score
    kernel of the package's hot loops."""
    return sum(weight * h[(mask & w_mask).bit_count()] for mask, weight in items)


def first_improving_swap(
    items: Sequence[tuple[int, int]], w_mask: int, movable: int, m: int, h
) -> Optional[tuple[int, int]]:
    """The first (x, y) in lexicographic order, x a member in the mask
    ``movable`` and y a non-member of ``range(m)``, whose swap raises
    `mask_pav_score` over ``items``; None if the committee is swap-optimal.
    The one swap test of the package."""
    base = mask_pav_score(items, w_mask, h)
    outside = [y for y in range(m) if not (w_mask >> y) & 1]
    for x in range(m):
        if (movable >> x) & 1:
            rest = w_mask & ~(1 << x)
            for y in outside:
                if mask_pav_score(items, rest | (1 << y), h) > base:
                    return x, y
    return None
