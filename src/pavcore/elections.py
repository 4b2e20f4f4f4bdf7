"""Exact data model for approval-based committee elections.

Everything that can influence a verdict is computed exactly: ballot
weights are `fractions.Fraction`, candidate sets are immutable bitmasks.
PAV scores are ints over the one denominator D · lcm(1..k), where D is the
lcm of the ballot weights' denominators (`Profile.scaled_mask_items`) and k
the committee size (`harmonic_table`): the array kernel `pav_scores` sums
them for many committees at once, `first_improving_swap` compares them and
`pav_score` returns an exact `Fraction`. `_subset_masks` enumerates the
k-subsets as one array. Floating point never appears in any value returned
from this module.

Candidates are 0-indexed internally and rendered 1-indexed (``c1``, ``c2``,
...) in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

#: The most (committee, ballot) pairs that `pav_scores` counts at once, so
#: that each int64 array of a block takes 128 KB.
PAV_BLOCK = 1 << 14


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

    __slots__ = ("m", "_weights", "_scaled")

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
            weights[mask] = weights[mask] + w if mask in weights else w
        weights = dict(sorted(weights.items()))
        scale = math.lcm(*(w.denominator for w in weights.values()))
        scaled = tuple((b, w.numerator * (scale // w.denominator)) for b, w in weights.items())
        total = sum(w for _, w in scaled)
        if total != scale:
            raise ValueError(f"ballot weights must sum to 1, got {Fraction(total, scale)}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_scaled", (scale, scaled))

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

    def scaled_mask_items(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """``(D, ((mask, weight * D), ...))`` in `mask_items` order, where D
        is the lcm of the weight denominators, so every scaled weight is an
        int and they sum to D. Made once, when the profile is validated."""
        return self._scaled

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


def _mask_array(masks, m: int) -> np.ndarray:
    """Bitmasks over ``range(m)`` as int64, or as Python ints above m = 62."""
    return np.array(masks, dtype=np.int64 if m <= 62 else object)


@lru_cache(maxsize=None)
def _subset_masks(m: int, size: int) -> np.ndarray:
    """The bitmasks of the ``size``-subsets of ``range(m)`` as a read-only
    `_mask_array`, in `itertools.combinations` order: the one k-subset
    enumerator of the package. Round r turns the (r - 1)-subsets of
    ``range(size - r + 1, m)`` into the r-subsets of ``range(size - r, m)``:
    those whose least member is c are c joined to a suffix of the last table."""
    masks = _mask_array([0], m)
    for r in range(1, size + 1):
        masks = np.concatenate([
            masks[len(masks) - math.comb(m - c - 1, r - 1):] | (1 << c)
            for c in range(size - r, m - r + 1)
        ])
    masks.setflags(write=False)
    return masks


def pav_score(profile: Profile, committee: CandidateSet) -> Fraction:
    """Exact PAV score of a committee, ``sum of weight(A) * H(|A ∩ W|)``
    over the ballots of the profile."""
    if committee.m != profile.m:
        raise ValueError("committee universe does not match profile")
    scale, items = profile.scaled_mask_items()
    lcm_k, h = harmonic_table(len(committee))
    score = pav_scores(items, _mask_array([committee.mask], profile.m), h)[0]
    return Fraction(int(score), scale * lcm_k)


def pav_scores(items: Sequence[tuple[int, int]], w_masks: np.ndarray, h) -> np.ndarray:
    """`pav_score` times D * L of each committee in the `_mask_array`
    ``w_masks``, without checks, on the scaled (ballot mask, weight) pairs of
    `Profile.scaled_mask_items` and the table ``h`` of `harmonic_table` (L)
    for at least the committee size: the one score kernel of the package.
    Blocks of at most `PAV_BLOCK` (committee, ballot) pairs are popcounted,
    looked up in ``h`` and dotted with the weights, in int64 while the
    weights' sum times ``h[-1]`` (each at least 1) is below 2**62 and in
    Python ints above."""
    ballots = np.array([mask for mask, _ in items], dtype=w_masks.dtype)
    weights = [weight for _, weight in items]
    dtype = np.int64 if max(1, sum(weights)) * max(1, h[-1]) < 1 << 62 else object
    table, weights = np.array(h, dtype=dtype), np.array(weights, dtype=dtype)
    wide = w_masks.dtype == object
    popcount = np.vectorize(int.bit_count, otypes=[np.intp]) if wide else np.bitwise_count
    scores = np.empty(len(w_masks), dtype=dtype)
    step = max(1, PAV_BLOCK // max(1, len(ballots)))
    for start in range(0, len(w_masks), step):
        counts = popcount(w_masks[start:start + step, None] & ballots)
        scores[start:start + step] = table[counts] @ weights
    return scores


def first_improving_swap(
    items: Sequence[tuple[int, int]], w_mask: int, movable: int, m: int, h
) -> Optional[tuple[int, int]]:
    """The first (x, y) in lexicographic order, x a member in the mask
    ``movable`` and y a non-member of ``range(m)``, whose swap raises the
    `pav_scores` score over ``items``; None if the committee is
    swap-optimal. The one swap test of the package: it scores the committee
    and all those swaps in one call."""
    outside = [y for y in range(m) if not (w_mask >> y) & 1]
    swaps = [(x, y) for x in range(m) if (movable >> x) & 1 for y in outside]
    masks = [w_mask] + [w_mask ^ (1 << x) ^ (1 << y) for x, y in swaps]
    scores = pav_scores(items, _mask_array(masks, m), h)
    better = np.flatnonzero(scores[1:] > scores[0])
    return swaps[better[0]] if better.size else None
