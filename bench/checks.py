"""Independent checks of pavcore outputs.

Nothing here imports pavcore. The systems are rebuilt from the row order
documented in ``pavcore.proofs``: the normalization pair, the swap rows of
each step ordered by (x, y), one negated deviation row per step, then one
nonnegativity row per ballot. Variables are the nonempty ballots over the
candidates in ascending bitmask order, so column ``j`` is ballot ``j + 1``.

All arithmetic is exact: rows are scaled by ``lcm(1..k+1)`` into integers
and weights by their common denominator. Candidate sets are bitmasks over
``0..m-1``; files and reports use 1-based candidate numbers.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

#: Above this magnitude int64 sums could overflow; use Python integers.
_INT64_SAFE = 2**62


def lcm_upto(n: int) -> int:
    out = 1
    for i in range(1, n + 1):
        out = out * i // math.gcd(out, i)
    return out


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def mask_of(numbers, m: int) -> int:
    """Bitmask of 1-based candidate numbers; rejects anything else."""
    mask = 0
    for c in numbers:
        if type(c) is not int or not 1 <= c <= m:
            raise ValueError(f"candidate {c!r} is not in 1..{m}")
        mask |= 1 << (c - 1)
    return mask


def popcount(array: np.ndarray) -> np.ndarray:
    return np.bitwise_count(array).astype(np.int64)


# ---------------------------------------------------------------------------
# Histories and their systems.


def check_history(m: int, k: int, steps) -> None:
    """Raise ValueError unless the (W, T) steps form a valid history."""
    fixed = 0
    for w_mask, t_mask in steps:
        if w_mask.bit_count() != k:
            raise ValueError("a committee does not have k members")
        if not 1 <= t_mask.bit_count() <= k:
            raise ValueError("a deviation is empty or larger than k")
        if (w_mask | t_mask) >> m:
            raise ValueError("a set leaves the candidate range")
        if fixed & ~w_mask:
            raise ValueError("a committee drops an earlier deviation")
        fixed |= t_mask


def _supporters(ballots: np.ndarray, w_mask: int, t_mask: int) -> np.ndarray:
    return popcount(ballots & t_mask) > popcount(ballots & w_mask)


def _kinds(m: int, sets) -> list[tuple]:
    """For each candidate, which of ``sets`` hold it."""
    return [tuple((s >> c) & 1 for s in sets) for c in range(m)]


def orbit_key(m: int, steps, w_mask: int, t_mask: int) -> tuple:
    """The orbit of the continuation (W, T) of a history under the
    relabelings that keep every set of the history: how many candidates
    there are of each kind (which earlier sets hold them, and whether W and
    T do)."""
    prior = [s for step in steps for s in step]
    return tuple(sorted(Counter(_kinds(m, prior + [w_mask, t_mask])).items()))


def continuation_orbits(m: int, k: int, steps) -> set[tuple]:
    """The orbit keys of every continuation (W, T) of a history that can
    deviate: |W| = k, W holds every earlier deviation, 1 <= |T| <= k and T
    has a member outside W (no ballot prefers a subset of W to W)."""
    check_history(m, k, steps)
    prior = [s for step in steps for s in step]
    fixed = 0
    for _, t_mask in steps:
        fixed |= t_mask
    kinds = Counter(_kinds(m, prior))
    options = []  # per kind: (kind, size, [(in W, in W and T, in T only)])
    for kind, size in kinds.items():
        # Every earlier deviation stays in W; its kinds are all inside it.
        in_fixed = any(kind[i] for i in range(1, len(prior), 2))
        choices = [
            (w, wt, ot)
            for w in ([size] if in_fixed else range(size + 1))
            for wt in range(w + 1)
            for ot in range(size - w + 1)
        ]
        options.append((kind, size, choices))
    orbits = set()
    for pick in itertools.product(*(choices for _, _, choices in options)):
        outside = sum(ot for _, _, ot in pick)
        size_t = sum(wt for _, wt, _ in pick) + outside
        if sum(w for w, _, _ in pick) != k or outside == 0 or size_t > k:
            continue
        counts = Counter()
        for (kind, size, _), (w, wt, ot) in zip(options, pick):
            counts[kind + (1, 1)] += wt
            counts[kind + (1, 0)] += w - wt
            counts[kind + (0, 1)] += ot
            counts[kind + (0, 0)] += size - w - ot
        orbits.add(tuple(sorted((kd, n) for kd, n in counts.items() if n)))
    return orbits


class HistorySystem:
    """The canonical system of a history, row by row, scaled to integers.

    ``row(i)`` returns ``(coefficients over all ballots, rhs)`` for general
    row ``i``; both are the exact row times ``scale``.
    """

    def __init__(self, m: int, k: int, steps):
        check_history(m, k, steps)
        self.m, self.k, self.steps = m, k, list(steps)
        self.scale = lcm_upto(k + 1)
        self.ballots = np.arange(1, 1 << m, dtype=np.int64)
        full = (1 << m) - 1
        self.swaps = []  # (step, x, y, active ballots at that step)
        active = np.ones(len(self.ballots), dtype=bool)
        fixed = 0
        for t, (w_mask, t_mask) in enumerate(self.steps):
            for x in bits(w_mask & ~fixed):
                for y in bits(full & ~w_mask):
                    self.swaps.append((t, x, y, active))
            active = active & ~_supporters(self.ballots, w_mask, t_mask)
            fixed |= t_mask
        self.n_general = 2 + len(self.swaps) + len(self.steps)

    def row(self, i: int) -> tuple[np.ndarray, int]:
        L, n = self.scale, len(self.ballots)
        if i == 0:
            return np.full(n, L, dtype=np.int64), L
        if i == 1:
            return np.full(n, -L, dtype=np.int64), -L
        i -= 2
        if i < len(self.swaps):
            t, x, y, active = self.swaps[i]
            w_mask = self.steps[t][0]
            u = popcount(self.ballots & w_mask)
            has_x = (self.ballots >> x) & 1 == 1
            has_y = (self.ballots >> y) & 1 == 1
            coef = np.zeros(n, dtype=np.int64)
            gain = active & has_y & ~has_x
            loss = active & has_x & ~has_y
            coef[gain] = L // (u[gain] + 1)
            coef[loss] = -(L // u[loss])
            return coef, 0
        t = i - len(self.swaps)
        w_mask, t_mask = self.steps[t]
        supp = _supporters(self.ballots, w_mask, t_mask)
        # k divides L, so the scaled right-hand side -|T| L / k is whole.
        return np.where(supp, -L, 0).astype(np.int64), -t_mask.bit_count() * L // self.k


def farkas_holds(system: HistorySystem, multipliers) -> bool:
    """True iff the multipliers over the general rows prove infeasibility.

    The nonnegativity rows carry multiplier 0 in the compact file format,
    so the certificate holds when every multiplier is a nonnegative
    integer, ``y.b < 0`` and every column of ``A^T y`` is nonnegative.
    """
    if len(multipliers) != system.n_general:
        return False
    if any(type(v) is not int or v < 0 for v in multipliers):
        return False
    nonzero = [(i, v) for i, v in enumerate(multipliers) if v]
    wide = sum(v for _, v in nonzero) * system.scale >= _INT64_SAFE
    dtype = object if wide else np.int64
    totals = np.zeros(len(system.ballots), dtype=dtype)
    yb = 0
    for i, v in nonzero:
        coef, rhs = system.row(i)
        totals += coef.astype(dtype) * v
        yb += rhs * v
    return yb < 0 and bool(np.all(totals >= 0))


def program3_steps(k: int, size: int, overlap: int) -> tuple[int, list]:
    """(m, steps) of the one-step system for a deviation shape: W is the
    first k candidates, T the first ``overlap`` of them plus the
    ``size - overlap`` candidates right after W."""
    outside = size - overlap
    if not (1 <= size <= k and 0 <= overlap < size):
        raise ValueError(f"no program for shape ({size}, {overlap}) at k={k}")
    w_mask = (1 << k) - 1
    t_mask = ((1 << overlap) - 1) | (((1 << outside) - 1) << k)
    return k + outside, [(w_mask, t_mask)]


def certificate_system(payload: dict) -> HistorySystem:
    """Rebuild the system a certificate file describes."""
    m, k, kind = payload["m"], payload["k"], payload["kind"]
    if kind == "history":
        steps = [
            (mask_of(s["W"], m), mask_of(s["T"], m)) for s in payload["history"]
        ]
        return HistorySystem(m, k, steps)
    if kind == "shape":
        shape = payload["shape"]
        m3, steps = program3_steps(k, shape["size"], shape["overlap"])
        if m3 != m:
            raise ValueError("shape does not match the candidate count")
        return HistorySystem(m, k, steps)
    raise ValueError(f"unknown certificate kind {kind!r}")


def certificate_holds(payload: dict) -> bool:
    """Rebuild the system of a certificate file and check its multipliers."""
    try:
        system = certificate_system(payload)
        raw = payload["multipliers"]
        multipliers = [int(v) for v in raw if isinstance(v, str)]
    except (KeyError, TypeError, ValueError):
        return False
    if len(multipliers) != len(raw):
        return False
    return farkas_holds(system, multipliers)


# ---------------------------------------------------------------------------
# Election semantics.


class Election:
    """A profile as integer ballot weights over a common denominator."""

    def __init__(self, m: int, k: int, weights: dict[int, Fraction]):
        if not 1 <= k <= m:
            raise ValueError("need 1 <= k <= m")
        if any(w <= 0 for w in weights.values()) or sum(weights.values()) != 1:
            raise ValueError("weights must be positive and sum to 1")
        if any(not 0 < mask < 1 << m for mask in weights):
            raise ValueError("a ballot is empty or leaves the candidate range")
        self.m, self.k = m, k
        self.masks = sorted(weights)
        self.denominator = math.lcm(*(w.denominator for w in weights.values()))
        self.counts = [int(weights[b] * self.denominator) for b in self.masks]
        # Witness profiles can have huge denominators: then sum in Python ints.
        wide = self.denominator * lcm_upto(k + 1) * (k + 1) >= _INT64_SAFE
        self._dtype = object if wide else np.int64

    @classmethod
    def from_file_dict(cls, data: dict) -> "Election":
        """Read the profile file format: ballots with weights or counts."""
        m, k = data["m"], data["k"]
        raw: dict[int, Fraction] = {}
        for entry in data["ballots"]:
            mask = mask_of(entry["approve"], m)
            w = Fraction(entry["weight"]) if "weight" in entry else entry["count"]
            raw[mask] = raw.get(mask, 0) + Fraction(w)
        total = sum(raw.values())
        return cls(m, k, {b: w / total for b, w in raw.items() if w})

    def support(self, w_mask: int, t_mask: int) -> Fraction:
        """Weight of the ballots approving more of T than of W."""
        total = sum(
            c
            for b, c in zip(self.masks, self.counts)
            if (b & t_mask).bit_count() > (b & w_mask).bit_count()
        )
        return Fraction(total, self.denominator)

    def deviations(self, w_mask: int) -> list[int]:
        """Every T with 1 <= |T| <= k whose support reaches |T|/k."""
        sizes = popcount(np.arange(1 << self.m, dtype=np.int64))
        ts = np.flatnonzero((sizes >= 1) & (sizes <= self.k)).astype(np.int64)
        support = np.zeros(len(ts), dtype=self._dtype)
        for b, c in zip(self.masks, self.counts):
            strict = popcount(ts & b) > (b & w_mask).bit_count()
            support += np.where(strict, c, 0).astype(self._dtype)
        ok = support * self.k >= sizes[ts] * self.denominator
        return [int(t) for t in ts[ok]]

    def scores(self, committees: np.ndarray) -> np.ndarray:
        """PAV scores times ``denominator * lcm(1..k)``, exact integers."""
        L = lcm_upto(self.k)
        harmonic = np.array(
            [sum(L // i for i in range(1, u + 1)) for u in range(self.k + 1)],
            dtype=np.int64,
        ).astype(self._dtype)
        total = np.zeros(len(committees), dtype=self._dtype)
        for b, c in zip(self.masks, self.counts):
            total += c * harmonic[popcount(committees & b)]
        return total

    def score(self, w_mask: int) -> Fraction:
        value = self.scores(np.array([w_mask], dtype=np.int64))[0]
        return Fraction(int(value), self.denominator * lcm_upto(self.k))

    def best_committees(self) -> tuple[Fraction, set[int]]:
        """The maximal PAV score and every committee attaining it."""
        committees = np.array(
            [sum(1 << i for i in c) for c in itertools.combinations(range(self.m), self.k)],
            dtype=np.int64,
        )
        values = self.scores(committees)
        best = values.max()
        top = {int(w) for w in committees[values == best]}
        return Fraction(int(best), self.denominator * lcm_upto(self.k)), top

    def improving_swap(self, w_mask: int, active=None, movable=None) -> bool:
        """Whether swapping some x in W (within ``movable``) for some y
        outside W raises the PAV score over the ``active`` ballots."""
        keep = [
            (b, c)
            for b, c in zip(self.masks, self.counts)
            if active is None or b in active
        ]
        movable = w_mask if movable is None else movable
        L = lcm_upto(self.k + 1)
        for x in bits(movable & w_mask):
            for y in bits(((1 << self.m) - 1) & ~w_mask):
                delta = 0
                for b, c in keep:
                    has_x, has_y = (b >> x) & 1, (b >> y) & 1
                    u = (b & w_mask).bit_count()
                    if has_y and not has_x:
                        delta += c * (L // (u + 1))
                    elif has_x and not has_y:
                        delta -= c * (L // u)
                if delta > 0:
                    return True
        return False

    def realizes(self, steps) -> bool:
        """Whether this profile realizes the history: every committee is
        swap-stable over the ballots still active at its step, and every
        deviation has support at least |T|/k over the whole profile."""
        check_history(self.m, self.k, steps)
        active = set(self.masks)
        fixed = 0
        for w_mask, t_mask in steps:
            if self.support(w_mask, t_mask) < Fraction(t_mask.bit_count(), self.k):
                return False
            if self.improving_swap(w_mask, active, movable=w_mask & ~fixed):
                return False
            fixed |= t_mask
            active = {
                b
                for b in active
                if (b & t_mask).bit_count() <= (b & w_mask).bit_count()
            }
        return True
