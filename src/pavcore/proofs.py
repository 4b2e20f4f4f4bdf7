"""LP families and exhaustive searches behind the stability guarantees.

The paper's argument is one family of exact linear systems: the system of a
history of the recursive rule. This module decides them and produces
machine-checkable evidence either way:

* the per-ballot inequality scan over deviation shapes (`inequality_scan`),
  with matching analytically constructed Farkas certificates
  (`farkas_from_theorem1`);
* the counterexample program for a deviation shape, which is the system of
  its canonical one-step history (`program3_history`), and the optimality
  suite pinning down the structure of the k = 8
  counterexamples (`lemma2_suite`), whose optima carry exact LP-duality
  certificates;
* the breadth-first enumeration of execution traces of the recursive rule
  (`enumerate_histories`), with candidate-relabeling symmetry broken by
  canonical count vectors (`canonical_continuations`).

A history is one value, `History`: the search extends it by one step
(`History.child`) and keys the verdict by it. Every history system is
decided one way (`history_verdict`), whichever mode asks, unless an
earlier sibling's certificate covers it (below). The shortcut rule: a
history of exactly one step of a
Lemma 1 shape (`_is_lemma1_shape`) gets its Theorem 1 certificate with no
LP. Every other system goes through the symmetry-collapsed quotient
(`_Quotient`), the revised exact simplex (`exactlp`) and the lift back to
the full system. Either way the result is checked exactly, and a failed
check raises. A witness is checked on the solver's full system
(`History.problem`) and against the election semantics. A certificate is
checked by the solver-free checker (`checker`), as `check-certificates`
checks a file. Every batch of work runs through one `Runner`, which owns
the process pool and the time budget.

Siblings are the continuations of one parent that share a committee W.
Their systems differ in the last row alone, the deviation row of the new
step, so one sibling's certificate often refutes another's system. The
search hands the pool one task per group of siblings (`_decide_group`),
which decides them in canonical order. Each certificate it finds becomes a
record (`_Covers`), which tells exactly, with one boolean gather, whether
that certificate also refutes a later sibling's system. Only a
continuation that no record covers reaches `history_verdict`. A covering
certificate is only a proposal: the checker checks it on the
continuation's own rows, as it checks every certificate. A group runs
whole in one process and in one order, so the thread count changes no
result, and each process builds the group's swap rows for the check once.

One function builds the solver's rows (`_type_rows`): over ballot types
for the quotient, and over singleton classes, where each ballot is its own
type, for the full system. Every row carries a tag. The tags follow from
the masks alone (`History.tags`), and lifts and analytic certificates find
rows by them, so a certificate exists before any row is built for its
check. All systems share the checker's canonical row order.

Padding: a profile on m - 1 candidates is a profile on m candidates whose
extra candidate nobody approves, and swapping that candidate in gains no
ballot. So every history realizable at (m - 1, k) is realizable at (m, k)
with the same masks, and Proposition 1 at (15, k) covers every (m, k)
with k <= m <= 15.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .checker import (
    FarkasCertificate,
    FarkasSums,
    Row,
    _build_rows,  # history_system calls it by this name, where bench/layers.py times it
    _supporting,
    clear_row_caches,
    farkas_sums,
)
from .elections import (
    CandidateSet,
    EnumerationLimitError,
    Profile,
    first_improving_swap,
    harmonic_table,
    pav_score,
)
from .exactlp import Feasible, Optimal, _Problem, _solve_problem, maximize, verify_optimum
from .stability import Quota, _supporters

#: Hard cap on the candidate count of a history system.
MAX_HISTORY_M = 16


def _check_history_m(m: int) -> None:
    if m > MAX_HISTORY_M:
        raise EnumerationLimitError(
            f"history systems support at most m={MAX_HISTORY_M}, got m={m}"
        )


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


def _supporter_deltas(shape: DeviationShape, k: int):
    """``(a, b, c, delta_formula(shape, k, a, b, c))`` for every ballot type
    that prefers T to W (c > a)."""
    for a in range(k - shape.overlap + 1):
        for b in range(shape.overlap + 1):
            for c in range(a + 1, shape.outside + 1):
                yield a, b, c, delta_formula(shape, k, a, b, c)


def min_supporter_delta(shape: DeviationShape, k: int) -> Fraction:
    """Minimum of `delta_formula` over ballot types preferring T to W."""
    best = min((d for *_, d in _supporter_deltas(shape, k)), default=None)
    assert best is not None, "c = a + 1 <= |T\\W| always yields a supporter"
    return best


def iter_shapes(k: int) -> Iterable[DeviationShape]:
    """All deviation shapes with at least one candidate outside W."""
    for size in range(1, k + 1):
        for overlap in range(0, size):
            yield DeviationShape(size, overlap)


def shape_violations(k: int, shape: DeviationShape) -> list[InequalityViolation]:
    """The ballot types of one shape whose swap sum fails to exceed the
    supporter bound strictly."""
    bound = supporter_bound(shape, k)
    return [
        InequalityViolation(shape, a, b, c, d, bound)
        for a, b, c, d in _supporter_deltas(shape, k)
        if d <= bound
    ]


def inequality_scan(k: int) -> list[InequalityViolation]:
    """Exhaustively test the supporter bound for every shape and ballot type.

    Returns the ballot types where the swap sum fails to exceed the bound
    strictly. An empty result proves that every locally swap-optimal
    committee of size k is core stable.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return [v for shape in iter_shapes(k) for v in shape_violations(k, shape)]


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


# ---------------------------------------------------------------------------
# Analytic certificates for the swap-sum proof.


def farkas_from_theorem1(k: int, shape: DeviationShape) -> FarkasCertificate:
    """The analytic infeasibility certificate for the system of
    `program3_history`.

    Multipliers: |T\\W| on the upper normalization row, 1 on every swap row
    with x in W\\T and y in T\\W, and |T\\W| plus the minimal supporter swap
    sum on the deviation row, all scaled to integers. The certificate
    verifies exactly when every supporter ballot type beats the bound
    (k/|T| - 1)|T\\W| strictly, so it fails for shapes with scan violations.
    """
    history = program3_history(k, shape)
    return _analytic_step1_certificate(history.tags(), k, *history.mask_steps()[0])


def _analytic_step1_certificate(
    tags: Sequence[tuple], k: int, w_mask: int, t_mask: int
) -> FarkasCertificate:
    """The Theorem 1 certificate (`farkas_from_theorem1`) of the one-step
    history (W, T), from the tags of its full system's rows
    (`History.tags`). It is valid for every k when the deviation is
    disjoint from the committee or adds exactly one outsider
    (`_is_lemma1_shape`)."""
    shape = DeviationShape(t_mask.bit_count(), (t_mask & w_mask).bit_count())
    alpha = shape.outside
    gamma = alpha + min_supporter_delta(shape, k)
    scale = gamma.denominator
    nonzero = {}
    for i, tag in enumerate(tags):
        if tag == ("norm_upper",):
            nonzero[i] = alpha * scale
        elif tag == ("deviation", 1):
            nonzero[i] = int(gamma * scale)
        elif tag[0] == "swap":
            _, _, x, y = tag
            if (w_mask & ~t_mask) >> x & 1 and (t_mask & ~w_mask) >> y & 1:
                nonzero[i] = scale
    return FarkasCertificate(len(tags), nonzero)


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

    def child(self, committee: CandidateSet, deviation: CandidateSet) -> "History":
        """This history extended by one (W, T) step. An invalid step raises
        `ValueError` here, before the child goes anywhere."""
        return History(self.m, self.k, self.steps + ((committee, deviation),))

    def problem(self) -> _Problem:
        """The full system for the solver: the type rows (`_type_rows`)
        over singleton classes, so each ballot is its own type, in
        ascending bitmask order, and column j is ballot j + 1, the
        canonical variables, with the rows and their tags in the canonical
        order. A witness and the Lemma 2 programs are checked on it; a
        certificate is checked on the checker's rows (`history_system`)."""
        m = self.m
        # One byte per ballot bit: the system's matrix is the only array of
        # its size that the build holds.
        return _type_rows([[i] for i in range(m)], _ballot_bits(m).T, self.k, self.mask_steps())

    def tags(self) -> list[tuple]:
        """The tags of the full system's rows, in the canonical order, from
        the masks alone: ``problem().tags`` without building a row."""
        _, tags = _row_layout([1 << i for i in range(self.m)], self.mask_steps())
        return tags

    def total_deviation_size(self) -> int:
        return sum(len(t) for _, t in self.steps)


@dataclass(frozen=True)
class HistoryVerdict:
    """Realizability of a potential history: a witness profile or a
    refutation. A plain value: it pickles, so it crosses a process pool."""

    history: History
    witness: Optional[Profile]
    certificate: Optional[FarkasCertificate]


def program3_history(k: int, shape: DeviationShape) -> History:
    """The counterexample history for one deviation shape: the one step
    (W, T) of `canonical_program3_sets`.

    Over the candidate set W ∪ T, its system has a profile variable per
    nonempty ballot; the committee must be swap-optimal (all swap rows),
    and the deviation must be supported by weight at least |T|/k.
    Feasibility means a locally optimal committee of size k can fail the
    core via this shape.
    """
    committee, deviation = canonical_program3_sets(k, shape)
    return History(committee.m, k, ((committee, deviation),))


def history_system(
    history: History, rows: Optional[Iterable[int]] = None
) -> list[Optional[Row]]:
    """The rows of the canonical feasibility system deciding whether a
    profile realizes the history: swap rows over the still-active ballots
    for every step, one supported-deviation row per step, over all ballots
    of the full candidate set (column j is ballot mask j + 1). Built by the
    reference builder `_build_rows`: every row, or only the rows ``rows``,
    with None in the place of every other, so that a certificate is checked
    on the rows it uses."""
    built, _ = _build_rows(history.m, history.k, history.mask_steps(), rows)
    return built


def check_proposition1(histories: Iterable[History], k: int) -> bool:
    """True iff every history fixes at most k candidates in total, which
    guarantees the recursive rule terminates with a stable committee."""
    return all(h.total_deviation_size() <= k for h in histories)


# ---------------------------------------------------------------------------
# Vectorized construction of history systems (exact, integer-scaled).


def _row_layout(class_masks: Sequence[int], steps: Sequence[tuple[int, int]]):
    """The swap blocks of a history system over candidate classes and its
    row tags in the canonical order, from the masks alone. A step's block
    is its classes of W not fixed before it and its classes outside W; its
    swap rows pair each of the first with each of the second."""
    blocks, fixed = [], 0
    tags = [("norm_upper",), ("norm_lower",)]
    for t, (w_mask, t_mask) in enumerate(steps, start=1):
        xs = [i for i, cm in enumerate(class_masks) if cm & w_mask and not cm & fixed]
        ys = [j for j, cm in enumerate(class_masks) if not cm & w_mask]
        blocks.append((xs, ys))
        tags += [("swap", t, i, j) for i in xs for j in ys]
        fixed |= t_mask
    return blocks, tags + [("deviation", t) for t in range(1, len(steps) + 1)]


def _ballot_bits(m: int) -> np.ndarray:
    """``bits[i, j]``: whether ballot j + 1 of m candidates holds i, as int8."""
    ballots = np.arange(1, 1 << m, dtype=np.int64)
    return ((ballots >> np.arange(m)[:, None]) & 1).astype(np.int8)


def _type_rows(
    classes: Sequence[Sequence[int]],
    types: np.ndarray,
    k: int,
    steps: Sequence[tuple[int, int]],
) -> _Problem:
    """The system of a history over ballot types, as one `_Problem`.

    ``classes`` partitions the candidates into classes that every set of
    the history contains whole or not at all; ``types[j, i]`` is how many
    members of class i the ballots of type j approve, and column j is the
    total weight of those ballots. Row ``("swap", t, i, j)`` is the sum of
    the step-t swap rows over x in class i and y in class j, divided by the
    number of those rows. With singleton classes the types are the ballots
    and these are the full system's rows (`History.problem`), tagged as
    `_build_rows` tags them. The rows, scaled to integers by
    ``L = lcm(1..k+1)`` (`harmonic_table`), and their tags are in the
    canonical row order; they fill one preallocated int64 matrix, so the
    system is held once.
    """
    L, _ = harmonic_table(k + 1)
    sizes = [len(members) for members in classes]
    class_masks = [_prefix_mask(members, len(members)) for members in classes]
    blocks, tags = _row_layout(class_masks, steps)
    scales = [L * sizes[tag[2]] * sizes[tag[3]] if tag[0] == "swap" else 1 for tag in tags]
    rhs = [1, -1] + [0] * (len(tags) - 2 - len(steps))
    rhs += [Fraction(-t_mask.bit_count(), k) for _, t_mask in steps]

    taken = np.ascontiguousarray(types.T)  # taken[i]: members of class i
    left = np.array(sizes, dtype=taken.dtype)[:, None] - taken
    matrix = np.empty((len(tags), types.shape[0]), dtype=np.int64)
    matrix[0], matrix[1] = 1, -1
    row, deviation_row = 2, len(tags) - len(steps)
    active = np.ones(types.shape[0], dtype=bool)
    for (w_mask, t_mask), (xs, ys) in zip(steps, blocks):
        u = taken[[i for i, cm in enumerate(class_masks) if cm & w_mask]].sum(axis=0)
        # Ballot types with a y but no x gain L/(u+1); with an x but no y
        # they lose L/u (u > 0 there).
        gain = np.where(active, L // (u + 1), 0)
        loss = np.where(active & (u > 0), L // np.maximum(u, 1), 0)
        for i in xs:
            gain_i, loss_i = left[i] * gain, taken[i] * loss
            for j in ys:
                matrix[row] = gain_i * taken[j] - loss_i * left[j]
                row += 1
        supp = taken[[i for i, cm in enumerate(class_masks) if cm & t_mask]].sum(axis=0) > u
        matrix[deviation_row] = -supp.astype(np.int64)
        deviation_row += 1
        active &= ~supp
    return _Problem(matrix, scales, rhs, tags)


# bench/layers.py times `History.child` and `History.problem` by this name.
_HistoryRows = History


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


class _Quotient:
    """The history system collapsed by candidate-relabeling symmetry.

    Candidates in the same signature class (with respect to every set of
    the history) are interchangeable, so a ballot matters only through its
    type: how many members it takes from each class. The quotient LP has
    one nonnegative variable per type (the total weight of the orbit) and
    one row per orbit of rows, both from `_type_rows`, which builds the
    full system too (`History.problem`, singleton classes). A feasible
    quotient solution spreads into a symmetric full solution, and a
    quotient ray, divided by the row-orbit sizes, is a full-system Farkas
    ray. Both lifts are re-verified exactly, a ray by the checker on the
    reference rows that it uses, so correctness never rests on this
    reduction. It is built from the history's masks (`History.mask_steps`).
    """

    def __init__(self, m: int, k: int, steps: Sequence[tuple[int, int]]):
        self.classes = _signature_classes(m, [s for step in steps for s in step])
        self.sizes = [len(members) for members in self.classes]
        # Every count vector in itertools.product order, less the empty type.
        grid = np.indices([s + 1 for s in self.sizes], dtype=np.int64)
        self.types = grid.reshape(len(self.sizes), -1).T[1:]
        self._problem = _type_rows(self.classes, self.types, k, steps)

    def problem(self) -> _Problem:
        return self._problem

    def expand_type(self, type_row) -> list[int]:
        """All ballot masks of one type: a choice of ``t`` members of each
        class, for its entry ``t`` of the type."""
        choices = (itertools.combinations(c, int(t)) for c, t in zip(self.classes, type_row))
        return [
            sum(1 << i for combo in pieces for i in combo)
            for pieces in itertools.product(*choices)
        ]

    def lift_assignment(self, assignment: Mapping[int, Fraction]) -> dict[int, Fraction]:
        full: dict[int, Fraction] = {}
        for j, total in assignment.items():
            masks = self.expand_type(self.types[j])
            full.update(dict.fromkeys(masks, total / len(masks)))
        return full

    def lift_certificate(
        self, certificate: FarkasCertificate, tags: Sequence[tuple]
    ) -> FarkasCertificate:
        """Spread each quotient multiplier uniformly over the rows of its
        orbit in the full system, found by their tags (`History.tags`).
        Each of the n rows of an orbit with multiplier v gets ``v / n``
        times S, the lcm of the denominators ``n / gcd(v, n)`` over the
        orbits used, so every multiplier is an integer."""
        orbits = []
        for row, value in certificate.nonzero.items():
            tag = self._problem.tags[row]
            orbit = [tag]
            if tag[0] == "swap":
                _, t, ci, cj = tag
                orbit = [("swap", t, x, y) for x in self.classes[ci] for y in self.classes[cj]]
            orbits.append((value, orbit))
        S = math.lcm(1, *(len(orbit) // math.gcd(v, len(orbit)) for v, orbit in orbits))
        index = {tag: i for i, tag in enumerate(tags)}
        nonzero = {index[tag]: v * S // len(orbit) for v, orbit in orbits for tag in orbit}
        return FarkasCertificate(len(tags), dict(sorted(nonzero.items())))


def _verify_certificate_fast(
    history: History, certificate: FarkasCertificate
) -> Optional[FarkasSums]:
    """The checker's own test of a certificate for the system of
    ``history``, as `check-certificates` runs it on a file. A certificate
    with another row count fails. Returns the sums of the check
    (`farkas_sums`) when it passes, so that the search keeps a record of
    them (`_Covers`) with no second sum, else None."""
    rows = history_system(history, certificate.nonzero)
    if certificate.n_rows != len(rows):
        return None
    return farkas_sums(rows, certificate)


def _verify_witness_fast(problem: _Problem, assignment: Mapping[int, Fraction]) -> bool:
    """Exact row check of a feasible assignment over ballot masks, on a
    full system, whose column j is ballot j + 1."""
    return problem.satisfied_by({mask - 1: w for mask, w in assignment.items()})


def _witness_realizes(
    witness: Mapping[int, Fraction], m: int, k: int, steps: Sequence[tuple[int, int]]
) -> bool:
    """Directly re-check that a profile realizes a history, using election
    semantics only, by replaying the steps of `rules.recursive_pav`: the
    witness must be a `Profile`, each deviation must succeed under the Hare
    quota on the full profile, each committee must admit no improving swap
    of a non-fixed member over the ballots still active at its step, and
    each deviation's supporters then leave the active ballots."""
    try:
        profile = Profile(m, witness)
    except ValueError:
        return False
    _, items = profile.scaled_mask_items()
    fixed = 0
    for w_mask, t_mask in steps:
        support, backers = _supporters(profile, w_mask, t_mask)
        if not Quota.HARE.succeeds(support, t_mask.bit_count(), k):
            return False
        _, h = harmonic_table(w_mask.bit_count())
        if first_improving_swap(items, w_mask, w_mask & ~fixed, m, h):
            return False
        fixed |= t_mask
        gone = set(backers)
        items = [(mask, w) for mask, w in items if mask not in gone]
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
    """Whether Lemma 1 rules the deviation out against a swap-optimal
    committee: T leaves W and is disjoint from it, or adds one outsider."""
    outside = (t_mask & ~w_mask).bit_count()
    return outside == 1 or (outside > 1 and not t_mask & w_mask)


def _has_shortcut(steps: Sequence[tuple[int, int]]) -> bool:
    """The shortcut rule: one step, of a Lemma 1 shape."""
    return len(steps) == 1 and _is_lemma1_shape(*steps[0])


def history_verdict(history: History) -> HistoryVerdict:
    """Decide whether a potential history is realizable by some profile:
    its `HistoryVerdict`, which carries an exact witness `Profile` or a
    Farkas certificate for the canonical system.

    After the shortcut rule of the module docstring, the orbit quotient is
    solved and its result lifted. The certificate follows from the row
    tags alone (`History.tags`), and the checker checks it, as
    `check-certificates` checks its file (`_verify_certificate_fast`): on
    the reference rows with a nonzero multiplier, after any LP. A witness
    is checked on the solver's full system (`History.problem`) and against
    the election semantics. A failed check raises `RuntimeError`, since it
    means a bug. Over `MAX_HISTORY_M` candidates raises
    `EnumerationLimitError`.
    """
    return _decide(history)[0]


def _decide(history: History) -> tuple[HistoryVerdict, Optional[FarkasSums]]:
    """`history_verdict`, with the sums of its certificate's check, or None
    for a witness."""
    m, k, steps = history.m, history.k, history.mask_steps()
    _check_history_m(m)
    tags = history.tags()
    if _has_shortcut(steps):
        certificate = _analytic_step1_certificate(tags, k, *steps[0])
    else:
        quotient = _Quotient(m, k, steps)
        verdict, _ = _solve_problem(quotient.problem())
        if isinstance(verdict, Feasible):
            witness = quotient.lift_assignment(verdict.assignment)
            if not _verify_witness_fast(history.problem(), witness):
                raise RuntimeError("witness failed exact verification")
            if not _witness_realizes(witness, m, k, steps):
                raise RuntimeError("witness does not realize the history")
            return HistoryVerdict(history, Profile(m, witness), None), None
        certificate = quotient.lift_certificate(verdict.certificate, tags)
    held = _verify_certificate_fast(history, certificate)
    if held is None:
        raise RuntimeError("certificate failed exact verification")
    return HistoryVerdict(history, None, certificate), held


class _Covers:
    """The certificates of one group of siblings, each kept as a record
    that proposes it for the later siblings.

    Siblings are the continuations of one parent that share a committee W.
    Their reference systems hold the same rows in the same order but for
    the last, the deviation row ``-sum_{b in S(T)} x_b <= -|T|/k``, where
    S(T) holds the ballots with more of T than of W (`_supporting`). Let a
    certificate y of sibling A put y_d on that row, and leave that row out
    of its sums: ``base = A^T y + y_d 1_{S(T_A)}`` and
    ``r = y.b + y_d |T_A| / k``. Then y also certifies sibling B exactly
    when ``base_b >= y_d`` on every ballot b in S(T_B) and
    ``r < y_d |T_B| / k``. A record holds the ballots that fail the first
    test, as one row of bits packed eight to a byte, and the least |T_B|
    that passes the second. The rows are stacked in one array, which
    doubles when full, and one AND of S(T_B)'s bits with every row finds
    the first record, in the order they were added, that covers a sibling.
    Packed, the rows take an eighth of the bytes that one bool per ballot
    would take, and so does that AND.
    """

    def __init__(self, m: int, k: int):
        self.k = k
        self.masks = np.arange(1, 1 << m, dtype=np.int64)
        self.fails = np.zeros((8, (self.masks.size + 7) // 8), dtype=np.uint8)
        self.least = np.zeros(8, dtype=np.int64)
        self.certificates: list[FarkasCertificate] = []

    def find(self, supports: np.ndarray, size: int) -> Optional[FarkasCertificate]:
        """The certificate of the first record that covers the sibling
        whose deviation has the ballots ``supports`` and ``size`` members."""
        n = len(self.certificates)
        clear = ~(self.fails[:n] & np.packbits(supports)).any(axis=1)
        covers = np.flatnonzero(clear & (self.least[:n] <= size))
        return self.certificates[covers[0]] if covers.size else None

    def add(
        self, certificate: FarkasCertificate, held: FarkasSums, supports: np.ndarray, size: int
    ) -> None:
        """Keep the record of a certificate, from the sums of its check, for
        the sibling whose deviation has the ballots ``supports`` and
        ``size`` members."""
        n = len(self.certificates)
        if n == len(self.least):
            self.fails = np.concatenate([self.fails, np.zeros_like(self.fails)])
            self.least = np.concatenate([self.least, np.zeros_like(self.least)])
        y_d = certificate.multiplier(certificate.n_rows - 1)
        # base_b = sums_b / scale off S(T_A), and at least y_d on it.
        sums, passes = held.sums, np.full(self.masks.size, y_d == 0)
        passes[: sums.size] = sums >= y_d * held.scale
        self.fails[n] = np.packbits(~(passes | supports))
        # r < y_d t / k holds for every t when y_d = 0, as then r = y.b < 0,
        # and for every t >= 1 when the least t is below 1.
        r = held.value + Fraction(y_d * size, self.k)
        self.least[n] = 0 if y_d == 0 else max(0, math.floor(r * self.k / y_d) + 1)
        self.certificates.append(certificate)


def _decide_group(
    group: tuple[History, CandidateSet, Sequence[CandidateSet]],
    deadline: Optional[float] = None,
) -> tuple[list[HistoryVerdict], bool]:
    """The verdicts of a group of siblings: a parent, its committee W and
    the deviations of its continuations with that W, decided in order; and
    whether every one was decided before ``deadline`` (`time.monotonic`).

    The shortcut rule comes first. Next comes the first record of an
    earlier sibling's certificate that covers the continuation
    (`_Covers`), and the checker checks that certificate on the
    continuation's own reference rows (`_verify_certificate_fast`). Only
    when no record covers it, or the check refuses the proposal,
    `history_verdict` decides it, and a certificate it finds becomes a
    record.
    """
    parent, committee, deviations = group
    covers = _Covers(parent.m, parent.k)
    verdicts = []
    for deviation in deviations:
        if deadline is not None and time.monotonic() >= deadline:
            return verdicts, False
        child = parent.child(committee, deviation)
        supports = _supporting(covers.masks, committee.mask, deviation.mask)
        proposed = None
        if not _has_shortcut(child.mask_steps()):
            proposed = covers.find(supports, len(deviation))
        if proposed is not None and _verify_certificate_fast(child, proposed) is not None:
            verdicts.append(HistoryVerdict(child, None, proposed))
            continue
        verdict, held = _decide(child)
        if held is not None:
            covers.add(verdict.certificate, held, supports, len(deviation))
        verdicts.append(verdict)
    return verdicts, True


class Runner:
    """Runs the batches of tasks of a proof mode or a check.

    With one thread each batch runs inline. With more, one process pool of
    at most ``os.cpu_count()`` processes starts at the first batch of two
    or more tasks and stops when the runner closes. Results come back in
    task order either way, and only while the time budget, counted from
    the runner's creation, lasts; a batch it cuts short sets ``complete``
    to False. A task that runs long can check ``deadline``
    (`time.monotonic`) itself.
    """

    def __init__(self, threads: int = 1, budget_seconds: Optional[float] = None):
        self.threads = threads
        self.deadline = (
            None if budget_seconds is None else time.monotonic() + budget_seconds
        )
        self.complete = True
        self._pool = None

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            # Every result taken has been used; stop whatever still runs.
            self._pool.terminate()
            self._pool.join()

    def map(self, func, tasks: Iterable) -> Iterator:
        """``func(task)`` for each task in order, while the budget lasts."""
        tasks = list(tasks)
        if self.threads > 1 and len(tasks) > 1 and self._pool is None:
            import multiprocessing

            # Spawned, not forked: the parent may hold threads (numpy's).
            processes = min(self.threads, os.cpu_count() or 1)
            self._pool = multiprocessing.get_context("spawn").Pool(processes)
        results = map(func, tasks) if self._pool is None else self._pool.imap(func, tasks)
        for _ in tasks:
            if self.deadline is not None and time.monotonic() >= self.deadline:
                self.complete = False
                return
            yield next(results)


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
    infeasible ones are recorded with a verified Farkas certificate. The
    result includes the empty history.

    Each level is one batch of tasks on one `Runner` for the whole search,
    one task per group of siblings: a parent, one committee W and the
    deviations of its canonical continuations with that W, in their
    canonical order (`_decide_group`). A task decides its continuations
    one by one: by the shortcut rule, else by the certificate of the first
    earlier sibling whose record covers it (`_Covers`), else by
    `history_verdict`. Every certificate is checked by the checker on the
    continuation's own reference rows. The runner's deadline goes into
    each task, which checks it before each continuation; when the budget
    runs out with work left, inside a group or between groups, the search
    stops and the result is flagged incomplete. The search starts with
    empty row caches, and each process builds the reference rows that a
    group's certificates check once (`_build_rows`).
    """
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    _check_history_m(m)
    clear_row_caches()
    root = History(m, k, ())
    histories = [root]
    certificates: dict[History, FarkasCertificate] = {}
    witnesses: dict[History, Profile] = {}
    frontier = [root]
    complete = True
    with Runner(threads, budget_seconds) as runner:
        decide = partial(_decide_group, deadline=runner.deadline)
        while frontier and complete:
            groups = [
                (parent, committee, [deviation for _, deviation in siblings])
                for parent in frontier
                for committee, siblings in itertools.groupby(
                    canonical_continuations(parent), key=lambda step: step[0]
                )
            ]
            frontier = []
            for verdicts, done in runner.map(decide, groups):
                complete = complete and done
                for verdict in verdicts:
                    if verdict.witness is not None:
                        witnesses[verdict.history] = verdict.witness
                        histories.append(verdict.history)
                        frontier.append(verdict.history)
                    else:
                        certificates[verdict.history] = verdict.certificate
            complete = complete and runner.complete
    return HistorySearchResult(
        m=m,
        k=k,
        histories=histories,
        certificates=certificates,
        witnesses=witnesses,
        complete=complete,
    )


# ---------------------------------------------------------------------------
# The k = 8 structure suite.


@dataclass(frozen=True)
class OptimalityRecord:
    """An LP optimum with its exact certificate.

    ``objective`` (per column) is optimized in direction ``sense``;
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
        maximized = {j: sign * c for j, c in self.objective.items()}
        return sign * self.certificate.value == self.optimum and verify_optimum(
            problem, maximized, self.certificate
        )


def _certified_optimum(
    problem: _Problem,
    objective: Mapping[int, Fraction],
    sense: str,
    label: str,
) -> OptimalityRecord:
    sign = 1 if sense == "max" else -1
    result = maximize(problem, {j: sign * c for j, c in objective.items()})
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
    score = pav_score(profile, committee)
    return all(
        score - pav_score(profile, committee - CandidateSet.from_indices([c], committee.m))
        == Fraction(1, 12)
        for c in committee
        if c not in (a, b)
    )


@dataclass(frozen=True)
class Lemma2Report:
    """All 17 optima of the k = 8 structure suite, each certified: four
    quarter-weight records, one aggregate zero record over every other
    ballot meeting the deviation, and twelve score-drop records."""

    committee: CandidateSet
    deviation: CandidateSet
    witness: Profile
    structure_ok: bool
    quarter_records: tuple[OptimalityRecord, ...]
    aggregate_zero_record: OptimalityRecord
    drop_records: tuple[OptimalityRecord, ...]

    def all_optima_as_expected(self) -> bool:
        return (
            all(r.optimum == Fraction(1, 4) for r in self.quarter_records)
            and len(self.quarter_records) == 4
            and self.aggregate_zero_record.optimum == 0
            and all(r.optimum == Fraction(-1, 12) for r in self.drop_records)
            and len(self.drop_records) == 12
        )

    def all_certified(self) -> bool:
        """Re-check every record against freshly built rows."""
        step = (self.committee, self.deviation)
        problem = History(self.committee.m, len(self.committee), (step,)).problem()
        records = (
            self.quarter_records
            + (self.aggregate_zero_record,)
            + self.drop_records
        )
        return all(r.verify(problem) for r in records)


def lemma2_suite() -> Lemma2Report:
    """Solve and certify the programs pinning down k = 8 core failures.

    All programs live on the rows of the (4, 2) shape's one-step history.
    The two special ballots each carry weight exactly 1/4 (four programs);
    every other ballot meeting the deviation carries weight exactly 0
    (one aggregate program, whose optimum bounds each of them); and
    removing any of the six unnamed committee members changes the score by
    exactly -1/12 (twelve programs). Every optimum is certified by exact LP
    duality.
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
    # Each program is solved over all 2^m - 1 ballots, by the exact
    # tableau from the slack basis, with no float pass (`maximize`).
    problem = history.problem()

    a, b = sorted(deviation & committee)
    x, y = sorted(deviation - committee)
    mask_abx = (1 << a) | (1 << b) | (1 << x)
    mask_aby = (1 << a) | (1 << b) | (1 << y)

    quarter_records = [
        _certified_optimum(
            problem, {mask - 1: Fraction(1)}, sense, f"{sense} weight of {who}"
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
        {mask - 1: Fraction(1) for mask in bad_masks},
        "max",
        "max total weight of other deviation-meeting ballots",
    )
    # Weights are nonnegative, so an aggregate optimum of 0 puts each of
    # these ballots at weight 0: it certifies every single-ballot maximum.

    drop_records = [
        _certified_optimum(
            problem,
            {
                mask - 1: Fraction(-1, (mask & committee.mask).bit_count())
                for mask in range(1, 1 << m)
                if (mask >> c) & 1
            },
            sense,
            f"{sense} score change when removing c{c + 1}",
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
        drop_records=tuple(drop_records),
    )
