"""The full-tableau simplex with column activation, kept as a test oracle.

This is the exact LP solver `pavcore.exactlp` used before its revised
simplex: a dense fraction-free tableau over a subset of the columns (every
structural column of the subset, the slacks, the artificials and the
right-hand side), and a column-activation loop that re-solves from scratch
with the columns that price negative against the last verdict. It shares
only `_Problem` (pricing, certificates) with the solver under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from pavcore.checker import FarkasCertificate
from pavcore.exactlp import _DEGENERACY_LIMIT, Feasible, Infeasible, _Problem


class Master:
    """Dense exact phase-1 tableau for ``Gx <= h, x >= 0`` over the columns
    ``keys`` of a problem."""

    def __init__(self, problem: _Problem, keys):
        self.keys = list(keys)
        self.block = problem.matrix[:, self.keys]
        self.scales = problem.scales
        self.rhs = problem.rhs
        self.n_rows, self.n_struct = self.block.shape

    def solve(self):
        R, S = self.n_rows, self.n_struct
        h = [b * s for b, s in zip(self.rhs, self.scales)]
        sigma = [1 if b >= 0 else -1 for b in h]
        art_rows = [i for i in range(R) if sigma[i] < 0]
        width = S + R + len(art_rows)
        tab = np.zeros((R + 1, width + 1), dtype=object)
        mult = np.array([si * b.denominator for si, b in zip(sigma, h)], dtype=object)
        tab[:R, :S] = self.block.astype(object) * mult[:, None]
        den = [b.denominator * s for b, s in zip(h, self.scales)] + [1]
        for i in range(R):
            tab[i, S + i] = sigma[i] * den[i]
            tab[i, width] = sigma[i] * h[i].numerator
        basis = [S + i for i in range(R)]
        for a, i in enumerate(art_rows):
            tab[i, S + R + a] = den[i]
            basis[i] = S + R + a
        for i in range(R):
            _lowest_terms(tab, den, i, den[i])

        tab[R, S + R : width] = 1
        for i in art_rows:
            _eliminate(tab, den, R, i, basis[i])
        self._pivot_loop(tab, den, basis)
        if tab[R, width] < 0:
            return ("infeasible", [Fraction(tab[R, S + i], den[R]) for i in range(R)])
        return ("feasible", self._extract(tab, den, basis))

    def _pivot_loop(self, tab, den, basis):
        R = self.n_rows
        bland = False
        stall = 0
        while True:
            costs = tab[R, :-1]
            if bland:
                negative = np.flatnonzero(costs < 0)
                enter = int(negative[0]) if negative.size else -1
            else:
                enter = int(np.argmin(costs))
                if not costs[enter] < 0:
                    enter = -1
            if enter < 0:
                return
            leave = -1
            for i in np.flatnonzero(tab[:R, enter] > 0):
                a, b = tab[i, enter], tab[i, -1]
                if leave >= 0:
                    mine, best = b * best_a, best_b * a
                    if mine > best or (mine == best and basis[i] > basis[leave]):
                        continue
                leave, best_a, best_b = i, a, b
            assert leave >= 0, "phase 1 is bounded below by 0"
            if not bland:
                stall = stall + 1 if best_b == 0 else 0
                if stall > _DEGENERACY_LIMIT:
                    bland = True
            self._pivot(tab, den, basis, int(leave), enter)

    @staticmethod
    def _pivot(tab, den, basis, pivot_row, pivot_col):
        row = tab[pivot_row]
        if row[pivot_col] < 0:
            np.negative(row, out=row)
        _lowest_terms(tab, den, pivot_row, row[pivot_col])
        for i in np.flatnonzero(tab[:, pivot_col]):
            if i != pivot_row:
                _eliminate(tab, den, i, pivot_row, pivot_col)
        basis[pivot_row] = pivot_col

    def _extract(self, tab, den, basis):
        return {
            self.keys[b]: Fraction(tab[i, -1], den[i])
            for i, b in enumerate(basis)
            if b < self.n_struct and tab[i, -1]
        }


def _eliminate(tab, den, i, r, c):
    q = tab[r, c]
    tab[i] = q * tab[i] - tab[i, c] * tab[r]
    _lowest_terms(tab, den, i, den[i] * q)


def _lowest_terms(tab, den, i, d):
    g = math.gcd(d, *tab[i])
    if g > 1:
        tab[i] //= g
        d //= g
    den[i] = d


def activate(problem: _Problem, dense_limit=280, batch=64):
    """Column activation: solve on the active columns (all of them up to
    ``dense_limit``, else the first ``batch``), price every column against
    an infeasibility verdict's ray, add the ``batch`` worst violated ones,
    and re-solve until none is left."""
    n = problem.n_vars
    active = list(range(n if n <= dense_limit else min(n, batch)))
    while True:
        result = Master(problem, active).solve()
        if len(active) == n or result[0] == "feasible":
            return result
        violated = problem.violations(result[1])
        if not violated:
            return result
        active = sorted(set(active).union(violated[:batch]))


def ray_certificate(ray) -> FarkasCertificate:
    """The certificate of a rational ray, one entry per row, scaled to
    integers by the lcm of its denominators."""
    denom = math.lcm(1, *(u.denominator for u in ray))
    return FarkasCertificate(len(ray), {i: int(u * denom) for i, u in enumerate(ray) if u})


def solve_feasibility(problem: _Problem, **knobs):
    result = activate(problem, **knobs)
    if result[0] == "infeasible":
        return Infeasible(ray_certificate(result[1]))
    return Feasible(result[1])
