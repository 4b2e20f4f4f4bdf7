"""LP families and exhaustive searches behind the stability guarantees.

The paper's argument is one family of exact linear systems: the system of a
history of the recursive rule. This module decides them and produces
machine-checkable evidence either way:

* the per-ballot inequality scan over deviation shapes (`inequality_scan`),
  with matching analytically constructed Farkas certificates
  (`farkas_from_theorem1`);
* the counterexample program for a deviation shape, which is the system of
  its canonical one-step history (`build_program3` materializes it), and
  the optimality suite pinning down the structure of the k = 8
  counterexamples (`lemma2_suite`), whose optima carry exact LP-duality
  certificates;
* the breadth-first enumeration of execution traces of the recursive rule
  (`enumerate_histories`), with candidate-relabeling symmetry broken by
  canonical count vectors (`canonical_continuations`).

Every LP goes one way: integer-scaled rows (`_HistoryRows`), the
symmetry-collapsed quotient (`_Quotient`), the exact simplex, the lift back
to the full system, and an exact check of the lifted witness or
certificate. `_build_rows` is the pure-Python reference builder that the
certificate checker uses, so the checker shares no row code with the
solver.

All systems share one canonical row order: the normalization pair, swap
rows grouped by step and ordered by (x, y), negated deviation rows by step,
then one nonnegativity row per ballot in ascending bitmask order. Variables
are the nonempty ballots over the candidate universe, in ascending bitmask
order. Certificates refer to rows by that order, so they can be re-checked
from a compact description of the system.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .elections import CandidateSet, Profile, mask_swap_delta
from .exactlp import (
    FarkasCertificate,
    Feasible,
    LinearSystem,
    Optimal,
    Row,
    _maximize_problem,
    _Problem,
    _ScaledRows,
    _solve_problem,
    verify_optimum,
)

#: Hard cap on the candidate count for history enumeration.
MAX_HISTORY_M = 16


# ---------------------------------------------------------------------------
# Deviation shapes and the per-ballot swap-sum inequality.


@dataclass(frozen=True)
class DeviationShape:
    """Size profile of a potential deviation: |T| and |T ∩ W|."""

    size: int
    overlap: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("deviation size must be at least 1")
        if not 0 <= self.overlap <= self.size:
            raise ValueError("overlap must be between 0 and the size")

    @property
    def outside(self) -> int:
        """|T \\ W|."""
        return self.size - self.overlap

    def validate_for(self, k: int) -> None:
        if self.size > k:
            raise ValueError(f"deviation size {self.size} exceeds k={k}")
        if self.overlap > k:
            raise ValueError("overlap cannot exceed the committee size")


def delta_formula(
    shape: DeviationShape, k: int, a: int, b: int, c: int
) -> Fraction:
    """Summed swap effect on one ballot, as a function of its type.

    For a ballot A, ``a = |(W\\T) ∩ A|``, ``b = |(W∩T) ∩ A|``,
    ``c = |(T\\W) ∩ A|``. Summing the per-swap score changes over all
    ``x in W\\T`` and ``y in T\\W`` gives

        (|W\\T| - a) * c / (a + b + 1)  -  a * (|T\\W| - c) / (a + b),

    where the second term is 0 when ``a = 0`` (its numerator vanishes, and
    no decrease-counting pair has x approved).
    """
    shape.validate_for(k)
    w_out = k - shape.overlap
    t_out = shape.outside
    if not 0 <= a <= w_out:
        raise ValueError(f"a={a} out of range 0..{w_out}")
    if not 0 <= b <= shape.overlap:
        raise ValueError(f"b={b} out of range 0..{shape.overlap}")
    if not 0 <= c <= t_out:
        raise ValueError(f"c={c} out of range 0..{t_out}")
    gain = Fraction((w_out - a) * c, a + b + 1)
    if a == 0:
        return gain
    return gain - Fraction(a * (t_out - c), a + b)


@dataclass(frozen=True)
class InequalityViolation:
    """A ballot type whose swap sum fails to exceed the supporter bound."""

    shape: DeviationShape
    a: int
    b: int
    c: int
    delta: Fraction
    bound: Fraction


def supporter_bound(shape: DeviationShape, k: int) -> Fraction:
    """The bound ``(k/|T| - 1) * |T\\W|`` that supporters must exceed."""
    return (Fraction(k, shape.size) - 1) * shape.outside


def min_supporter_delta(shape: DeviationShape, k: int) -> Fraction:
    """Minimum of `delta_formula` over ballot types preferring T to W."""
    w_out = k - shape.overlap
    best: Optional[Fraction] = None
    for a in range(w_out + 1):
        for b in range(shape.overlap + 1):
            for c in range(a + 1, shape.outside + 1):
                d = delta_formula(shape, k, a, b, c)
                if best is None or d < best:
                    best = d
    assert best is not None, "c = a + 1 <= |T\\W| always yields a supporter"
    return best


def iter_shapes(k: int) -> Iterable[DeviationShape]:
    """All deviation shapes with at least one candidate outside W."""
    for size in range(1, k + 1):
        for overlap in range(0, size):
            yield DeviationShape(size, overlap)


def inequality_scan(k: int) -> list[InequalityViolation]:
    """Exhaustively test the supporter bound for every shape and ballot type.

    Returns the ballot types where the swap sum fails to exceed the bound
    strictly. An empty result proves that every locally swap-optimal
    committee of size k is core stable.
    """
    if k < 1:
        raise ValueError("k must be positive")
    violations = []
    for shape in iter_shapes(k):
        bound = supporter_bound(shape, k)
        w_out = k - shape.overlap
        for a in range(w_out + 1):
            for b in range(shape.overlap + 1):
                for c in range(a + 1, shape.outside + 1):
                    d = delta_formula(shape, k, a, b, c)
                    if d <= bound:
                        violations.append(
                            InequalityViolation(shape, a, b, c, d, bound)
                        )
    return violations


# ---------------------------------------------------------------------------
# Canonical system construction (reference implementation).


def _swap_coefficient(mask: int, w_mask: int, x: int, y: int) -> Fraction:
    has_x = (mask >> x) & 1
    has_y = (mask >> y) & 1
    if has_y and not has_x:
        return Fraction(1, (mask & w_mask).bit_count() + 1)
    if has_x and not has_y:
        return Fraction(-1, (mask & w_mask).bit_count())
    return Fraction(0)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _build_rows(
    m: int, k: int, steps: Sequence[tuple[int, int]]
) -> tuple[list[Row], list[tuple[int, int, int]]]:
    """Head rows of the canonical system for a sequence of (W, T) masks.

    Returns the rows plus the (step, x, y) index of each swap row. Pure
    Python reference implementation; the enumeration uses a vectorized
    equivalent that is tested against this one.
    """
    n = (1 << m) - 1
    full = n
    ones = {j: Fraction(1) for j in range(n)}
    neg_ones = {j: Fraction(-1) for j in range(n)}
    rows = [
        Row(ones, Fraction(1), ("norm_upper",)),
        Row(neg_ones, Fraction(-1), ("norm_lower",)),
    ]
    swap_meta: list[tuple[int, int, int]] = []
    active = [True] * (n + 1)  # indexed by mask
    fixed = 0
    for t, (w_mask, t_mask) in enumerate(steps, start=1):
        for x in _bits(w_mask & ~fixed):
            for y in _bits(full & ~w_mask):
                coeffs = {}
                for mask in range(1, n + 1):
                    if not active[mask]:
                        continue
                    coef = _swap_coefficient(mask, w_mask, x, y)
                    if coef:
                        coeffs[mask - 1] = coef
                rows.append(Row(coeffs, Fraction(0), ("swap", t, x, y)))
                swap_meta.append((t, x, y))
        fixed |= t_mask
        for mask in range(1, n + 1):
            if (mask & t_mask).bit_count() > (mask & w_mask).bit_count():
                active[mask] = False
    for t, (w_mask, t_mask) in enumerate(steps, start=1):
        coeffs = {}
        for mask in range(1, n + 1):
            if (mask & t_mask).bit_count() > (mask & w_mask).bit_count():
                coeffs[mask - 1] = Fraction(-1)
        rows.append(
            Row(coeffs, Fraction(-t_mask.bit_count(), k), ("deviation", t))
        )
    return rows, swap_meta


def canonical_program3_sets(
    k: int, shape: DeviationShape
) -> tuple[CandidateSet, CandidateSet]:
    """The canonical committee and deviation for a shape: W is the first k
    candidates, T takes the first ``overlap`` of them plus the candidates
    immediately after W."""
    shape.validate_for(k)
    if shape.outside < 1:
        raise ValueError("the deviation must leave the committee")
    m = k + shape.outside
    w_mask = (1 << k) - 1
    t_mask = ((1 << shape.overlap) - 1) | (((1 << shape.outside) - 1) << k)
    return CandidateSet(w_mask, m), CandidateSet(t_mask, m)


def build_program3(k: int, shape: DeviationShape) -> LinearSystem:
    """The counterexample system for one deviation shape, materialized.

    Over the candidate set W ∪ T, a profile variable per nonempty ballot;
    the committee must be swap-optimal (all swap rows), and the deviation
    must be supported by weight at least |T|/k. Feasibility means a locally
    optimal committee of size k can fail the core via this shape. It is
    the system of `program3_history`, which is how the proof modes solve it.
    """
    return history_system(program3_history(k, shape))


# ---------------------------------------------------------------------------
# Analytic certificates for the swap-sum proof.


def _theorem1_nonzero(
    k: int,
    w_mask: int,
    t_mask: int,
    swap_index: Mapping[tuple[int, int], int],
    deviation_index: int,
) -> dict[int, int]:
    shape = DeviationShape(
        t_mask.bit_count(), (t_mask & w_mask).bit_count()
    )
    alpha = shape.outside
    gamma = alpha + min_supporter_delta(shape, k)
    scale = gamma.denominator
    nonzero = {0: alpha * scale, deviation_index: int(gamma * scale)}
    for x in _bits(w_mask & ~t_mask):
        for y in _bits(t_mask & ~w_mask):
            nonzero[swap_index[(x, y)]] = scale
    return nonzero


def farkas_from_theorem1(k: int, shape: DeviationShape) -> FarkasCertificate:
    """The analytic infeasibility certificate for `build_program3`.

    Multipliers: |T\\W| on the upper normalization row, 1 on every swap row
    with x in W\\T and y in T\\W, and |T\\W| plus the minimal supporter swap
    sum on the deviation row, all scaled to integers. The certificate
    verifies exactly when every supporter ballot type beats the bound
    (k/|T| - 1)|T\\W| strictly, so it fails for shapes with scan violations.
    """
    committee, deviation = canonical_program3_sets(k, shape)
    m = committee.m
    w_mask, t_mask = committee.mask, deviation.mask
    outside = _bits(((1 << m) - 1) & ~w_mask)
    swap_index = {}
    pos = 2
    for x in range(k):
        for y in outside:
            swap_index[(x, y)] = pos
            pos += 1
    deviation_index = pos
    n_rows = deviation_index + 1 + ((1 << m) - 1)
    nonzero = _theorem1_nonzero(k, w_mask, t_mask, swap_index, deviation_index)
    return FarkasCertificate(n_rows, nonzero)


# ---------------------------------------------------------------------------
# Histories of the recursive rule.


@dataclass(frozen=True)
class History:
    """A potential execution trace: committees with their fixed deviations.

    Validity (checked on construction): every committee has size k, every
    deviation is nonempty with at most k members, and each committee
    contains all deviations fixed before it.
    """

    m: int
    k: int
    steps: tuple[tuple[CandidateSet, CandidateSet], ...]

    def __post_init__(self):
        if not 1 <= self.k <= self.m:
            raise ValueError("need 1 <= k <= m")
        fixed = 0
        for committee, deviation in self.steps:
            if committee.m != self.m or deviation.m != self.m:
                raise ValueError("step universe does not match the history")
            if len(committee) != self.k:
                raise ValueError("every committee must have size k")
            if not deviation or len(deviation) > self.k:
                raise ValueError("deviations must be nonempty with size <= k")
            if fixed & ~committee.mask:
                raise ValueError(
                    "each committee must contain all earlier deviations"
                )
            fixed |= deviation.mask
        object.__setattr__(self, "steps", tuple(self.steps))

    @classmethod
    def from_masks(
        cls, m: int, k: int, steps: Iterable[tuple[int, int]]
    ) -> "History":
        return cls(
            m,
            k,
            tuple(
                (CandidateSet(w, m), CandidateSet(t, m)) for w, t in steps
            ),
        )

    def mask_steps(self) -> tuple[tuple[int, int], ...]:
        return tuple((w.mask, t.mask) for w, t in self.steps)

    def extended(self, committee: CandidateSet, deviation: CandidateSet) -> "History":
        return History(self.m, self.k, self.steps + ((committee, deviation),))

    def prefix(self, length: int) -> "History":
        return History(self.m, self.k, self.steps[:length])

    def total_deviation_size(self) -> int:
        return sum(len(t) for _, t in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class HistoryVerdict:
    """Realizability of a potential history: a witness profile or a refutation."""

    history: History
    witness: Optional[Profile]
    certificate: Optional[FarkasCertificate]

    @property
    def is_history(self) -> bool:
        return self.witness is not None


def program3_history(k: int, shape: DeviationShape) -> History:
    """The one-step history (W, T) of `canonical_program3_sets`."""
    committee, deviation = canonical_program3_sets(k, shape)
    return History(committee.m, k, ((committee, deviation),))


def history_system(history: History) -> LinearSystem:
    """The canonical feasibility system deciding whether a profile realizes
    the history: swap rows over the still-active ballots for every step,
    one supported-deviation row per step, over all ballots of the full
    candidate set. Built by the reference builder `_build_rows`."""
    rows, _ = _build_rows(history.m, history.k, history.mask_steps())
    return LinearSystem(list(range(1, 1 << history.m)), rows, nonneg_block=True)


def check_proposition1(histories: Iterable[History], k: int) -> bool:
    """True iff every history fixes at most k candidates in total, which
    guarantees the recursive rule terminates with a stable committee."""
    return all(h.total_deviation_size() <= k for h in histories)


# ---------------------------------------------------------------------------
# Vectorized construction of history systems (exact, integer-scaled).


def _swap_scale(k: int) -> int:
    scale = 1
    for i in range(1, k + 2):
        scale = scale * i // math.gcd(scale, i)
    return scale


class _HistoryRows:
    """Incrementally built integer-scaled rows for one history.

    Each instance extends its parent by one (W, T) step; blocks are shared
    between siblings through the parent reference. Coefficients are the
    canonical rationals times ``L = lcm(1..k+1)``, so they are exact int64.
    """

    __slots__ = (
        "m", "k", "steps", "scale", "ballots", "swap_blocks", "swap_meta",
        "dev_rows", "dev_rhs", "active", "fixed",
    )

    def __init__(self, m: int, k: int):
        self.m, self.k = m, k
        self.steps: tuple[tuple[int, int], ...] = ()
        self.scale = _swap_scale(k)
        n = (1 << m) - 1
        self.ballots = np.arange(1, 1 << m, dtype=np.int64)
        self.swap_blocks: list[np.ndarray] = []
        self.swap_meta: list[tuple[int, int, int]] = []
        self.dev_rows: list[np.ndarray] = []
        self.dev_rhs: list[Fraction] = []
        self.active = np.ones(n, dtype=bool)
        self.fixed = 0

    def child(self, w_mask: int, t_mask: int) -> "_HistoryRows":
        out = _HistoryRows.__new__(_HistoryRows)
        out.m, out.k, out.scale = self.m, self.k, self.scale
        out.ballots = self.ballots
        out.steps = self.steps + ((w_mask, t_mask),)
        t = len(out.steps)
        L = self.scale
        ballots = self.ballots
        u = np.bitwise_count(ballots & w_mask).astype(np.int64)
        block_rows = []
        meta = []
        act = self.active
        full = (1 << self.m) - 1
        for x in _bits(w_mask & ~self.fixed):
            has_x = (ballots >> x) & 1 == 1
            for y in _bits(full & ~w_mask):
                has_y = (ballots >> y) & 1 == 1
                row = np.zeros(len(ballots), dtype=np.int64)
                inc = np.flatnonzero(act & has_y & ~has_x)
                dec = np.flatnonzero(act & has_x & ~has_y)
                if inc.size:
                    row[inc] = L // (u[inc] + 1)
                if dec.size:
                    row[dec] = -(L // u[dec])
                block_rows.append(row)
                meta.append((t, x, y))
        supp = np.bitwise_count(ballots & t_mask).astype(np.int64) > u
        dev = np.where(supp, np.int64(-L), np.int64(0))
        out.swap_blocks = self.swap_blocks + [
            np.vstack(block_rows) if block_rows else np.zeros((0, len(ballots)), np.int64)
        ]
        out.swap_meta = self.swap_meta + meta
        out.dev_rows = self.dev_rows + [dev]
        out.dev_rhs = self.dev_rhs + [Fraction(-t_mask.bit_count(), self.k)]
        out.active = act & ~supp
        out.fixed = self.fixed | t_mask
        return out

    def assemble(self):
        """(int64 matrix, exact rhs list, swap row index map, n_general)."""
        n = len(self.ballots)
        L = self.scale
        parts = [
            np.full((1, n), L, dtype=np.int64),
            np.full((1, n), -L, dtype=np.int64),
        ]
        parts.extend(self.swap_blocks)
        parts.extend(row.reshape(1, n) for row in self.dev_rows)
        matrix = np.vstack(parts)
        n_swaps = sum(b.shape[0] for b in self.swap_blocks)
        rhs = [Fraction(1), Fraction(-1)]
        rhs.extend([Fraction(0)] * n_swaps)
        rhs.extend(self.dev_rhs)
        swap_index = {
            (t, x, y): 2 + pos for pos, (t, x, y) in enumerate(self.swap_meta)
        }
        return matrix, rhs, swap_index, matrix.shape[0]

    def problem(self) -> _Problem:
        matrix, rhs, _, n_general = self.assemble()
        n = len(self.ballots)
        scaled = _ScaledRows.from_dense_int(
            matrix, [self.scale] * n_general, rhs, n
        )
        return _Problem(
            variables=range(1, n + 1),
            n_rows_total=n_general + n,
            general_row_ids=range(n_general),
            free=(),
            scaled=scaled,
        )


def _rows_for_steps(m: int, k: int, steps: Sequence[tuple[int, int]]) -> _HistoryRows:
    rows = _HistoryRows(m, k)
    for w_mask, t_mask in steps:
        rows = rows.child(w_mask, t_mask)
    return rows


def _signature_classes(m: int, sets: Sequence[int]) -> list[list[int]]:
    """Partition candidates by membership pattern in the given masks,
    classes ordered by their smallest member."""
    groups: dict[tuple, list[int]] = {}
    for i in range(m):
        key = tuple((s >> i) & 1 for s in sets)
        groups.setdefault(key, []).append(i)
    return sorted(groups.values(), key=lambda c: c[0])


def _prefix_mask(members: Sequence[int], count: int) -> int:
    mask = 0
    for i in members[:count]:
        mask |= 1 << i
    return mask


def _seed_positions(m: int, k: int, sets: Sequence[int], extra: Iterable[int] = ()) -> list[int]:
    """Ballot columns likely to matter: prefix-unions of the signature
    classes of the sets seen so far, plus caller-provided masks."""
    classes = _signature_classes(m, sets)
    sizes = [len(c) for c in classes]
    depths = list(sizes)
    budget = 140
    while True:
        product = 1
        for d in depths:
            product *= d + 1
        if product <= budget or all(d <= 1 for d in depths):
            break
        depths[depths.index(max(depths))] -= 1
    seeds = set(int(x) - 1 for x in extra if x)
    for counts in itertools.product(*(range(d + 1) for d in depths)):
        mask = 0
        for cls, cnt in zip(classes, counts):
            mask |= _prefix_mask(cls, cnt)
        if mask:
            seeds.add(mask - 1)
    return sorted(seeds)


class _Quotient:
    """The history system collapsed by candidate-relabeling symmetry.

    Candidates in the same signature class (with respect to every set of
    the history) are interchangeable, so a ballot matters only through its
    type: how many members it takes from each class. The quotient LP has
    one nonnegative variable per type (the total weight of the orbit) and
    one row per orbit of rows; a feasible quotient solution spreads into a
    symmetric full solution, and a quotient ray, divided by the row-orbit
    sizes, is a full-system Farkas ray. Both lifts are re-verified exactly
    against the full system, so correctness never rests on this reduction.
    """

    def __init__(self, m: int, k: int, steps: Sequence[tuple[int, int]]):
        self.m, self.k, self.steps = m, k, tuple(steps)
        sets = [s for step in steps for s in step]
        self.classes = _signature_classes(m, sets)
        self.class_masks = [_prefix_mask(cls, len(cls)) for cls in self.classes]
        self.sizes = [len(cls) for cls in self.classes]
        q = len(self.classes)
        grid = np.array(
            list(itertools.product(*(range(s + 1) for s in self.sizes))),
            dtype=np.int64,
        )
        self.types = grid[1:]  # drop the empty type
        n_types = self.types.shape[0]
        L = _swap_scale(k)
        scaled_rows: list[np.ndarray] = [
            np.full(n_types, 1, dtype=np.int64),
            np.full(n_types, -1, dtype=np.int64),
        ]
        scales: list[int] = [1, 1]
        rhs: list[Fraction] = [Fraction(1), Fraction(-1)]
        self.lift_info: list[tuple] = [("norm",), ("norm",)]
        dev_rows: list[np.ndarray] = []
        dev_rhs: list[Fraction] = []
        dev_info: list[tuple] = []
        active = np.ones(n_types, dtype=bool)
        fixed = 0
        for t, (w_mask, t_mask) in enumerate(self.steps, start=1):
            in_w = np.array(
                [1 if cm & w_mask == cm else 0 for cm in self.class_masks],
                dtype=np.int64,
            )
            in_t = np.array(
                [1 if cm & t_mask == cm else 0 for cm in self.class_masks],
                dtype=np.int64,
            )
            u = self.types @ in_w
            x_classes = [
                i
                for i, cm in enumerate(self.class_masks)
                if cm & w_mask == cm and cm & fixed == 0
            ]
            y_classes = [
                i for i, cm in enumerate(self.class_masks) if cm & w_mask == 0
            ]
            for ci in x_classes:
                sx = self.sizes[ci]
                tx = self.types[:, ci]
                for cj in y_classes:
                    sy = self.sizes[cj]
                    ty = self.types[:, cj]
                    inc = (sx - tx) * ty * (L // (u + 1))
                    dec = tx * (sy - ty) * np.where(u > 0, L // np.maximum(u, 1), 0)
                    row = np.where(active, inc - dec, 0)
                    scaled_rows.append(row)
                    scales.append(L * sx * sy)
                    rhs.append(Fraction(0))
                    self.lift_info.append(("swap", t, ci, cj))
            supp = (self.types @ in_t) > u
            dev_rows.append(np.where(supp, np.int64(-1), np.int64(0)))
            dev_rhs.append(Fraction(-t_mask.bit_count(), k))
            dev_info.append(("dev", t))
            active &= ~supp
            fixed |= t_mask
        scaled_rows.extend(dev_rows)
        scales.extend([1] * len(dev_rows))
        rhs.extend(dev_rhs)
        self.lift_info.extend(dev_info)
        matrix = np.vstack([r.reshape(1, n_types) for r in scaled_rows])
        self.scaled = _ScaledRows.from_dense_int(matrix, scales, rhs, n_types)
        self.n_general = matrix.shape[0]

    def problem(self) -> _Problem:
        n_types = self.types.shape[0]
        return _Problem(
            variables=range(n_types),
            n_rows_total=self.n_general + n_types,
            general_row_ids=range(self.n_general),
            free=(),
            scaled=self.scaled,
        )

    def orbit_size(self, type_row) -> int:
        size = 1
        for s, t in zip(self.sizes, type_row):
            size *= math.comb(s, int(t))
        return size

    def expand_type(self, type_row) -> list[int]:
        """All ballot masks of one type."""
        per_class = []
        for cls, t in zip(self.classes, type_row):
            per_class.append(
                [sum(1 << i for i in combo) for combo in itertools.combinations(cls, int(t))]
            )
        masks = []
        for pieces in itertools.product(*per_class):
            mask = 0
            for p in pieces:
                mask |= p
            masks.append(mask)
        return masks

    def lift_assignment(self, assignment: Mapping[int, Fraction]) -> dict[int, Fraction]:
        full: dict[int, Fraction] = {}
        for label, total in assignment.items():
            type_row = self.types[label]
            share = total / self.orbit_size(type_row)
            for mask in self.expand_type(type_row):
                full[mask] = share
        return full

    def lift_certificate(
        self, certificate: FarkasCertificate, swap_index: Mapping[tuple[int, int, int], int],
        n_rows_total: int, n_swaps: int,
    ) -> FarkasCertificate:
        """Spread quotient multipliers uniformly over each row orbit."""
        raw: dict[int, Fraction] = {}
        for row_idx, value in certificate.nonzero.items():
            info = self.lift_info[row_idx]
            if info[0] == "norm":
                raw[row_idx] = raw.get(row_idx, Fraction(0)) + value
            elif info[0] == "swap":
                _, t, ci, cj = info
                sx, sy = self.sizes[ci], self.sizes[cj]
                share = Fraction(value, sx * sy)
                for x in self.classes[ci]:
                    for y in self.classes[cj]:
                        idx = swap_index[(t, x, y)]
                        raw[idx] = raw.get(idx, Fraction(0)) + share
            else:
                _, t = info
                # Deviation rows sit after all swap rows in the full order.
                idx = 2 + n_swaps + (t - 1)
                raw[idx] = raw.get(idx, Fraction(0)) + value
        denom = 1
        for v in raw.values():
            denom = denom * v.denominator // math.gcd(denom, v.denominator)
        nonzero = {idx: int(v * denom) for idx, v in raw.items() if v}
        return FarkasCertificate(n_rows_total, nonzero)


def _verify_certificate_fast(problem: _Problem, certificate: FarkasCertificate) -> bool:
    """Exact certificate check against the integer-scaled rows."""
    if any(v < 0 for v in certificate.nonzero.values()):
        return False
    multipliers = [Fraction(0)] * len(problem.general_row_ids)
    yb = Fraction(0)
    for row_idx, value in certificate.nonzero.items():
        if row_idx >= len(problem.general_row_ids):
            return False  # nonnegativity rows never carry weight here
        multipliers[row_idx] = Fraction(value)
        yb += value * problem.scaled.rhs_fraction(row_idx)
    if not yb < 0:
        return False
    totals, _ = problem.scaled.price(multipliers)
    return bool(np.all(np.asarray(totals) >= 0)) if isinstance(totals, np.ndarray) else all(
        t >= 0 for t in totals
    )


def _verify_witness_fast(problem: _Problem, assignment: Mapping[int, Fraction]) -> bool:
    """Exact row check of a feasible assignment (labels are ballot masks)."""
    return problem.satisfied_by(assignment)


def _witness_realizes(
    witness: Mapping[int, Fraction], m: int, k: int, steps: Sequence[tuple[int, int]]
) -> bool:
    """Directly re-check that a profile realizes a history, using election
    semantics only: each deviation gathers support at least |T|/k from the
    full profile, and each committee admits no improving swap over the
    ballots still active at its step."""
    if sum(witness.values(), Fraction(0)) != 1:
        return False
    if any(w < 0 for w in witness.values()):
        return False
    active = {mask: w for mask, w in witness.items() if w}
    fixed = 0
    full = (1 << m) - 1
    for w_mask, t_mask in steps:
        support = Fraction(0)
        for mask, weight in witness.items():
            if (mask & t_mask).bit_count() > (mask & w_mask).bit_count():
                support += weight
        if support < Fraction(t_mask.bit_count(), k):
            return False
        for x in _bits(w_mask & ~fixed):
            for y in _bits(full & ~w_mask):
                if mask_swap_delta(active.items(), w_mask, x, y) > 0:
                    return False
        fixed |= t_mask
        active = {
            mask: w
            for mask, w in active.items()
            if (mask & t_mask).bit_count() <= (mask & w_mask).bit_count()
        }
    return True


def canonical_continuations(
    history: History,
) -> list[tuple[CandidateSet, CandidateSet]]:
    """One (W, T) continuation per orbit of the relabeling symmetry.

    Candidates are equivalent when every set fixed so far contains both or
    neither; a continuation is determined up to relabeling by how many
    members it takes from each equivalence class. The canonical
    representative takes the lexicographically first members: the committee
    is canonicalized first, the deviation against the refinement by the
    committee. Deviations inside the committee are omitted (no ballot can
    strictly prefer a subset of the committee).
    """
    m, k = history.m, history.k
    prior = [s for w, t in history.mask_steps() for s in (w, t)]
    classes = _signature_classes(m, prior)
    fixed = 0
    for _, t_mask in history.mask_steps():
        fixed |= t_mask
    if fixed.bit_count() > k:
        return []
    for cls in classes:
        inside = [(fixed >> i) & 1 for i in cls]
        assert all(inside) or not any(inside), "fixed set must respect classes"
    free_classes = [cls for cls in classes if not (fixed >> cls[0]) & 1]
    need = k - fixed.bit_count()
    out: list[tuple[CandidateSet, CandidateSet]] = []
    for counts in itertools.product(*(range(len(c) + 1) for c in free_classes)):
        if sum(counts) != need:
            continue
        w_mask = fixed
        for cls, cnt in zip(free_classes, counts):
            w_mask |= _prefix_mask(cls, cnt)
        refined = _signature_classes(m, prior + [w_mask])
        inside_w = [bool((w_mask >> cls[0]) & 1) for cls in refined]
        sizes = [len(cls) for cls in refined]
        for t_counts in itertools.product(*(range(s + 1) for s in sizes)):
            total = sum(t_counts)
            if not 1 <= total <= k:
                continue
            if not any(
                cnt and not ins for cnt, ins in zip(t_counts, inside_w)
            ):
                continue
            t_mask = 0
            for cls, cnt in zip(refined, t_counts):
                t_mask |= _prefix_mask(cls, cnt)
            out.append((CandidateSet(w_mask, m), CandidateSet(t_mask, m)))
    return out


def _is_lemma1_shape(w_mask: int, t_mask: int) -> bool:
    return t_mask & w_mask == 0 or (t_mask & ~w_mask).bit_count() <= 1


def _analytic_step1_certificate(
    child_rows: _HistoryRows,
) -> FarkasCertificate:
    """Certificate for a first-step continuation of a provably hopeless
    shape (deviation disjoint from the committee, or adding at most one
    outsider); valid for every k at those shapes."""
    (w_mask, t_mask) = child_rows.steps[0]
    swap_index = {
        (x, y): 2 + pos for pos, (_, x, y) in enumerate(child_rows.swap_meta)
    }
    deviation_index = 2 + len(child_rows.swap_meta)
    n_general = deviation_index + 1
    n_rows_total = n_general + len(child_rows.ballots)
    nonzero = _theorem1_nonzero(
        child_rows.k, w_mask, t_mask, swap_index, deviation_index
    )
    return FarkasCertificate(n_rows_total, nonzero)


def _finish_feasible(problem, assignment, m, k, steps):
    if not _verify_witness_fast(problem, assignment):
        return None
    if not _witness_realizes(assignment, m, k, steps):
        return None
    items = tuple(
        (mask, w.numerator, w.denominator)
        for mask, w in sorted(assignment.items())
    )
    return ("feasible", items)


def _finish_infeasible(problem, certificate):
    if not _verify_certificate_fast(problem, certificate):
        return None
    items = tuple(sorted(certificate.nonzero.items()))
    return ("infeasible", (certificate.n_rows, items))


def _solve_child_quotient(child_rows: _HistoryRows) -> Optional[tuple[str, object]]:
    """Solve the orbit-quotient LP and lift the witness or certificate.

    The lift is verified exactly against the full system; a failed
    verification returns None so the caller falls back to the direct solve.
    """
    m, k = child_rows.m, child_rows.k
    quotient = _Quotient(m, k, child_rows.steps)
    if quotient.types.shape[0] >= (1 << m) - 1:
        return None  # no symmetry to exploit
    verdict, _ = _solve_problem(quotient.problem(), None)
    problem = child_rows.problem()
    if isinstance(verdict, Feasible):
        assignment = quotient.lift_assignment(verdict.assignment)
        return _finish_feasible(problem, assignment, m, k, child_rows.steps)
    swap_index = {
        (t, x, y): 2 + pos
        for pos, (t, x, y) in enumerate(child_rows.swap_meta)
    }
    lifted = quotient.lift_certificate(
        verdict.certificate,
        swap_index,
        problem.n_rows_total,
        len(child_rows.swap_meta),
    )
    return _finish_infeasible(problem, lifted)


def _solve_child(
    child_rows: _HistoryRows, seed_extra: Iterable[int]
) -> tuple[str, object]:
    """Solve one continuation; returns ("feasible", witness items) or
    ("infeasible", certificate items). Both outcomes are verified exactly
    against the integer-scaled rows of the full system before returning.

    The symmetry-collapsed system is tried first; since its lifted outcome
    is verified like any other, the direct solve only runs when the lift
    fails (which would indicate a bug, not an input condition).
    """
    m, k = child_rows.m, child_rows.k
    result = _solve_child_quotient(child_rows)
    if result is not None:
        return result
    problem = child_rows.problem()
    sets = [s for step in child_rows.steps for s in step]
    seeds = _seed_positions(m, k, sets, extra=seed_extra)
    verdict, _ = _solve_problem(problem, seeds)
    if isinstance(verdict, Feasible):
        assignment = dict(verdict.assignment)
        result = _finish_feasible(problem, assignment, m, k, child_rows.steps)
        if result is None:
            raise RuntimeError("witness failed exact verification")
        return result
    result = _finish_infeasible(problem, verdict.certificate)
    if result is None:
        raise RuntimeError("certificate failed exact verification")
    return result


def _bfs_worker(task):
    """Decide one continuation of one history: ("feasible", witness items)
    or ("infeasible", certificate items), both verified exactly.

    The prefix rows are rebuilt from the steps, which is cheap, so a task
    carries only masks. First steps of provably hopeless shapes get their
    analytic certificate instead of an LP solve.
    """
    m, k, parent_steps, (w_mask, t_mask), seeds = task
    child = _rows_for_steps(m, k, parent_steps + ((w_mask, t_mask),))
    if not parent_steps and _is_lemma1_shape(w_mask, t_mask):
        result = _finish_infeasible(
            child.problem(), _analytic_step1_certificate(child)
        )
        if result is None:
            raise RuntimeError("analytic certificate failed verification")
        return result
    return _solve_child(child, seeds)


@dataclass
class HistorySearchResult:
    """Everything the breadth-first trace search found."""

    m: int
    k: int
    histories: list[History]
    certificates: dict[History, FarkasCertificate]
    witnesses: dict[History, Profile]
    complete: bool

    def max_total_deviation(self) -> int:
        return max(
            (h.total_deviation_size() for h in self.histories), default=0
        )


def enumerate_histories(
    m: int,
    k: int,
    threads: int = 1,
    budget_seconds: Optional[float] = None,
) -> HistorySearchResult:
    """Breadth-first search over canonical continuations.

    Feasible continuations become histories and are expanded further;
    infeasible ones are recorded with a verified Farkas certificate. At the
    first level, shapes that provably cannot support a deviation from a
    swap-optimal committee receive their analytic certificate instead of an
    LP solve. The result includes the empty history.

    Each (history, continuation) pair is one `_bfs_worker` task, run inline
    or, with ``threads > 1``, on a process pool; results are taken in task
    order, so both give the same result. The time budget is checked after
    every task: when it runs out, the search stops and the result is
    flagged incomplete.
    """
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    if m > MAX_HISTORY_M:
        from .elections import EnumerationLimitError

        raise EnumerationLimitError(
            f"history enumeration supports at most m={MAX_HISTORY_M}"
        )
    start = time.monotonic()

    def out_of_budget() -> bool:
        return (
            budget_seconds is not None
            and time.monotonic() - start > budget_seconds
        )

    root = History(m, k, ())
    histories = [root]
    certificates: dict[History, FarkasCertificate] = {}
    witnesses: dict[History, Profile] = {}
    frontier = [root]
    complete = True
    pool = None
    if threads > 1:
        import multiprocessing as mp

        pool = mp.Pool(threads)
    try:
        while frontier and complete:
            children = []
            tasks = []
            for parent in frontier:
                seeds = (
                    tuple(mask for mask, _ in witnesses[parent].mask_items())
                    if parent.steps
                    else ()
                )
                for committee, deviation in canonical_continuations(parent):
                    children.append(parent.extended(committee, deviation))
                    tasks.append(
                        (m, k, parent.mask_steps(), (committee.mask, deviation.mask), seeds)
                    )
            outcomes = (
                map(_bfs_worker, tasks)
                if pool is None
                else pool.imap(_bfs_worker, tasks)
            )
            frontier = []
            for done, (child, (kind, payload)) in enumerate(
                zip(children, outcomes), start=1
            ):
                if kind == "feasible":
                    witnesses[child] = Profile(
                        m, {mask: Fraction(nu, de) for mask, nu, de in payload}
                    )
                    histories.append(child)
                    frontier.append(child)
                else:
                    n_rows, items = payload
                    certificates[child] = FarkasCertificate(n_rows, dict(items))
                if out_of_budget() and (done < len(tasks) or frontier):
                    complete = False
                    break
    finally:
        if pool is not None:
            # Every result read has been used; stop whatever still runs.
            pool.terminate()
            pool.join()
    return HistorySearchResult(
        m=m,
        k=k,
        histories=histories,
        certificates=certificates,
        witnesses=witnesses,
        complete=complete,
    )


def history_verdict(history: History) -> HistoryVerdict:
    """Decide whether a potential history is realizable by some profile.

    Feasible systems yield an exact witness profile (re-checked directly
    against the election semantics); infeasible ones yield a verified
    Farkas certificate for the canonical system.
    """
    rows = _rows_for_steps(history.m, history.k, history.mask_steps())
    kind, payload = _solve_child(rows, ())
    if kind == "feasible":
        profile = Profile(
            history.m, {mask: Fraction(nu, de) for mask, nu, de in payload}
        )
        return HistoryVerdict(history, profile, None)
    n_rows, items = payload
    return HistoryVerdict(history, None, FarkasCertificate(n_rows, dict(items)))


# ---------------------------------------------------------------------------
# The k = 8 structure suite.


@dataclass(frozen=True)
class OptimalityRecord:
    """An LP optimum with its exact certificate.

    ``objective`` (per ballot mask) is optimized in direction ``sense``;
    ``certificate`` is the `Optimal` of maximizing ``objective`` (``max``)
    or its negation (``min``): a point attaining the optimum and LP-duality
    multipliers that bound every feasible point by it. Checking it needs no
    solver (`verify`).
    """

    label: str
    sense: str
    optimum: Fraction
    objective: Mapping[int, Fraction]
    certificate: Optimal

    def verify(self, problem: _Problem) -> bool:
        sign = 1 if self.sense == "max" else -1
        maximized = {mask: sign * c for mask, c in self.objective.items()}
        return sign * self.certificate.value == self.optimum and verify_optimum(
            problem, maximized, self.certificate
        )


def _certified_optimum(
    problem: _Problem,
    objective: Mapping[int, Fraction],
    sense: str,
    label: str,
    seeds: Sequence[int],
) -> OptimalityRecord:
    sign = 1 if sense == "max" else -1
    result = _maximize_problem(
        problem, {mask: sign * c for mask, c in objective.items()}, seeds
    )
    if not isinstance(result, Optimal):
        raise RuntimeError(f"{label}: expected a bounded optimum, got {result}")
    record = OptimalityRecord(label, sense, sign * result.value, dict(objective), result)
    if not record.verify(problem):
        raise RuntimeError(f"{label}: optimality certificate failed")
    return record


def verify_lemma2_structure(
    profile: Profile, committee: CandidateSet, deviation: CandidateSet
) -> bool:
    """Check the forced structure of a k = 8 core failure.

    With T = {a, b, x, y} (a, b in W; x, y outside W): a quarter of the
    weight sits on ballots meeting W ∪ T in exactly {a, b, x}, a quarter on
    {a, b, y}, the remaining half is disjoint from T, and removing any
    committee member other than a, b lowers the committee's score by
    exactly 1/12.
    """
    if len(committee) != 8:
        raise ValueError("the structure check applies to committees of size 8")
    inter = deviation & committee
    outs = deviation - committee
    if len(deviation) != 4 or len(inter) != 2 or len(outs) != 2:
        raise ValueError("deviation must have two members inside W and two outside")
    a, b = sorted(inter)
    x, y = sorted(outs)
    wt_mask = committee.mask | deviation.mask
    mask_abx = (1 << a) | (1 << b) | (1 << x)
    mask_aby = (1 << a) | (1 << b) | (1 << y)
    quarter_x = Fraction(0)
    quarter_y = Fraction(0)
    disjoint = Fraction(0)
    for mask, weight in profile.mask_items():
        inter_mask = mask & wt_mask
        if inter_mask == mask_abx:
            quarter_x += weight
        if inter_mask == mask_aby:
            quarter_y += weight
        if mask & deviation.mask == 0:
            disjoint += weight
    if quarter_x != Fraction(1, 4) or quarter_y != Fraction(1, 4):
        return False
    if disjoint != Fraction(1, 2):
        return False
    for c in committee:
        if c in (a, b):
            continue
        drop = Fraction(0)
        for mask, weight in profile.mask_items():
            if (mask >> c) & 1:
                drop += weight / (mask & committee.mask).bit_count()
        if drop != Fraction(1, 12):
            return False
    return True


@dataclass(frozen=True)
class Lemma2Report:
    """All optima of the k = 8 structure suite, each certified."""

    committee: CandidateSet
    deviation: CandidateSet
    witness: Profile
    structure_ok: bool
    quarter_records: tuple[OptimalityRecord, ...]
    aggregate_zero_record: OptimalityRecord
    zero_records: tuple[OptimalityRecord, ...]
    drop_records: tuple[OptimalityRecord, ...]

    def all_optima_as_expected(self) -> bool:
        return (
            all(r.optimum == Fraction(1, 4) for r in self.quarter_records)
            and len(self.quarter_records) == 4
            and self.aggregate_zero_record.optimum == 0
            and all(r.optimum == 0 for r in self.zero_records)
            and all(r.optimum == Fraction(-1, 12) for r in self.drop_records)
            and len(self.drop_records) == 12
        )

    def all_certified(self) -> bool:
        """Re-check every record against freshly built rows."""
        problem = _rows_for_steps(
            self.committee.m, len(self.committee),
            [(self.committee.mask, self.deviation.mask)],
        ).problem()
        records = (
            self.quarter_records
            + (self.aggregate_zero_record,)
            + self.zero_records
            + self.drop_records
        )
        return all(r.verify(problem) for r in records)


def lemma2_suite() -> Lemma2Report:
    """Solve and certify the programs pinning down k = 8 core failures.

    All programs live on the rows of the (4, 2) shape's one-step history.
    The two special ballots each carry weight exactly 1/4 (four programs);
    every other ballot meeting the deviation carries weight exactly 0
    (one aggregate program, whose point and duals also certify each
    single-ballot maximum); and removing any of the six unnamed committee
    members changes the score by exactly -1/12 (twelve programs). Every
    optimum is certified by exact LP duality.
    """
    k = 8
    history = program3_history(k, DeviationShape(4, 2))
    ((committee, deviation),) = history.steps
    m = history.m
    verdict = history_verdict(history)
    if verdict.witness is None:
        raise RuntimeError("the k = 8 counterexample system must be feasible")
    witness = verdict.witness
    structure_ok = verify_lemma2_structure(witness, committee, deviation)
    problem = _rows_for_steps(m, k, history.mask_steps()).problem()
    # Column activation starts from the witness's ballots, a feasible point.
    seeds = [mask - 1 for mask, _ in witness.mask_items()]

    a, b = sorted(deviation & committee)
    x, y = sorted(deviation - committee)
    mask_abx = (1 << a) | (1 << b) | (1 << x)
    mask_aby = (1 << a) | (1 << b) | (1 << y)

    quarter_records = [
        _certified_optimum(
            problem, {mask: Fraction(1)}, sense, f"{sense} weight of {who}", seeds
        )
        for mask, who in ((mask_abx, "abx"), (mask_aby, "aby"))
        for sense in ("max", "min")
    ]

    bad_masks = [
        mask
        for mask in range(1, 1 << m)
        if mask & deviation.mask and mask not in (mask_abx, mask_aby)
    ]
    aggregate_record = _certified_optimum(
        problem,
        {mask: Fraction(1) for mask in bad_masks},
        "max",
        "max total weight of other deviation-meeting ballots",
        seeds,
    )
    # Weights are nonnegative, so the aggregate optimum bounds each single
    # weight, and its duals (G^T y >= the aggregate objective >= each unit
    # objective) certify each single maximum with the same point.
    zero_records = []
    for mask in bad_masks:
        record = OptimalityRecord(
            f"max weight of ballot {mask:#x}",
            "max",
            aggregate_record.optimum,
            {mask: Fraction(1)},
            aggregate_record.certificate,
        )
        if not record.verify(problem):
            raise RuntimeError(f"{record.label}: optimality certificate failed")
        zero_records.append(record)

    drop_records = [
        _certified_optimum(
            problem,
            {
                mask: Fraction(-1, (mask & committee.mask).bit_count())
                for mask in range(1, 1 << m)
                if (mask >> c) & 1
            },
            sense,
            f"{sense} score change when removing c{c + 1}",
            seeds,
        )
        for c in sorted(committee - deviation)
        for sense in ("max", "min")
    ]

    return Lemma2Report(
        committee=committee,
        deviation=deviation,
        witness=witness,
        structure_ok=structure_ok,
        quarter_records=tuple(quarter_records),
        aggregate_zero_record=aggregate_record,
        zero_records=tuple(zero_records),
        drop_records=tuple(drop_records),
    )
