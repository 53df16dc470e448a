"""Exact rational linear programming.

Primal simplex with Bland's rule.  The starting basis comes either from
phase 1 on artificial columns or, when a feasible point is already known,
from a crash start: the point's nonzero columns are pivoted in directly
(Bixby 1992), so no phase 1 runs.  Constraint rows use Edmonds-style
integer pivoting: the tableau carries one shared positive determinant
denominator and every pivot update divides exactly, so all constraint
arithmetic stays in Python ints.  The objective row is carried separately
in Fractions (it is re-priced for warm restarts and does not share the
minor structure that makes integer division exact).

Problems are equality-form:  optimize c.x  s.t.  A x = b,  x >= 0.
Rational inputs (Fraction / int) are scaled row-wise to integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

MAX_PIVOTS = 200_000

_ZERO = Fraction(0)


class LPError(RuntimeError):
    """Internal solver failure (iteration cap, division residue, ...)."""


class Infeasible(LPError):
    """The constraint system A x = b, x >= 0 has no solution."""


class Unbounded(LPError):
    """The objective is unbounded over the feasible region."""


def _row_lcm(vals) -> int:
    m = 1
    for v in vals:
        if isinstance(v, Fraction):
            d = v.denominator
            m = m * d // gcd(m, d)
    return m


def _scale_row(vals, m: int) -> list[int]:
    out = []
    for v in vals:
        if isinstance(v, Fraction):
            out.append(int(v * m))
        else:
            out.append(int(v) * m)
    return out


class Tableau:
    """Feasible simplex tableau for A x = b, x >= 0.

    Without ``start``, construction runs phase 1 and raises Infeasible when
    the region is empty.  ``start`` is a known feasible point; the starting
    basis is then built from it and phase 1 is skipped.  ``maximize(c)``
    optimizes any rational objective from the current basis; repeated calls
    warm-start, which is how the polytope support detection uses it.
    """

    def __init__(self, A: Sequence[Sequence], b: Sequence,
                 start: Sequence | None = None):
        m = len(A)
        self.n = n = len(A[0]) if m else 0
        rows: list[list[int]] = []
        for i in range(m):
            if len(A[i]) != n:
                raise LPError("ragged constraint matrix")
            mult = _row_lcm(list(A[i]) + [b[i]])
            row = _scale_row(A[i], mult)
            rhs = b[i]
            rhs = int(rhs * mult) if isinstance(rhs, Fraction) else int(rhs) * mult
            if rhs < 0:
                row = [-v for v in row]
                rhs = -rhs
            rows.append(row + [rhs])
        self.m = m
        self.art0 = n  # first artificial column
        self.den = 1
        self.obj: list[Fraction] | None = None  # reduced costs + [-value]
        self.allowed = n
        self.rows = rows
        if start is not None:
            self.width = n + 1
            self.basis = [-1] * m
            self._crash(start)
        else:
            for i, row in enumerate(rows):
                rows[i] = row[:n] + [0] * m + [row[n]]
                rows[i][n + i] = 1
            self.width = n + m + 1
            self.basis = list(range(n, n + m))
            self._phase1()

    # -- pivoting core ---------------------------------------------------

    def _pivot(self, r: int, c: int) -> None:
        rows = self.rows
        prow = rows[r]
        p = prow[c]
        if p <= 0:
            raise LPError("pivot element must be positive")
        den = self.den
        width = self.width
        for i in range(self.m):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if f == 0:
                if p != den:
                    for j in range(width):
                        q, rem = divmod(row[j] * p, den)
                        if rem:
                            raise LPError("integer pivot residue")
                        row[j] = q
            else:
                for j in range(width):
                    q, rem = divmod(row[j] * p - f * prow[j], den)
                    if rem:
                        raise LPError("integer pivot residue")
                    row[j] = q
        obj = self.obj
        if obj is not None:
            f = obj[c]
            if f:
                fp = f / p
                for j in range(width):
                    if prow[j]:
                        obj[j] = obj[j] - fp * prow[j]
        self.den = p
        self.basis[r] = c

    def _price_objective(self, c_frac: list[Fraction]) -> None:
        """Reduced-cost row for maximizing c.x from the current basis.

        obj[j] = c_j - sum_i c_{B(i)} T[i][j] / den for columns, and
        obj[-1] = -(current objective value).
        """
        den = self.den
        width = self.width
        acc = [_ZERO] * width
        for i in range(self.m):
            cb = c_frac[self.basis[i]]
            if cb:
                row = self.rows[i]
                for j in range(width):
                    if row[j]:
                        acc[j] += cb * row[j]
        obj = [_ZERO] * width
        for j in range(width - 1):
            obj[j] = c_frac[j] - acc[j] / den
        obj[width - 1] = -acc[width - 1] / den
        self.obj = obj

    def _bland_step(self) -> bool:
        """One Bland pivot; False at optimality."""
        obj = self.obj
        enter = -1
        for j in range(self.allowed):
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            return False
        rows = self.rows
        width = self.width
        best = -1
        for i in range(self.m):
            a = rows[i][enter]
            if a > 0:
                if best < 0:
                    best = i
                else:
                    lhs = rows[i][width - 1] * rows[best][enter]
                    rhs = rows[best][width - 1] * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[best]):
                        best = i
        if best < 0:
            raise Unbounded("improving direction with no positive entries")
        self._pivot(best, enter)
        return True

    def _run(self) -> None:
        for _ in range(MAX_PIVOTS):
            if not self._bland_step():
                return
        raise LPError("pivot limit exceeded")

    # -- starting bases ----------------------------------------------------

    def _crash(self, x: Sequence) -> None:
        """Basis through the known feasible point x, without artificials.

        The columns where x is nonzero are pivoted in first, then the other
        columns in index order while a row is unassigned.  Rows left
        all-zero are dependent and dropped.  The basic solution must equal
        x exactly, which also certifies that x is feasible; anything else
        raises LPError.
        """
        n = self.art0
        if len(x) != n:
            raise LPError("start point length differs from the variable count")
        rows = self.rows
        free = list(range(self.m))
        support = [j for j in range(n) if x[j] != 0]
        others = [j for j in range(n) if x[j] == 0]
        for c in support + others:
            if not free and x[c] == 0:
                break
            r = next((i for i in free if rows[i][c]), -1)
            if r < 0:
                if x[c] != 0:
                    raise LPError("start point has dependent nonzero columns")
                continue
            if rows[r][c] < 0:
                rows[r] = [-v for v in rows[r]]
            self._pivot(r, c)
            free.remove(r)
        # an unassigned row is zero in every column now: pivots only ever
        # combined it with rows that were zero where it was
        if any(rows[i][n] != 0 for i in free):
            raise LPError("start point violates a dependent row")
        keep = [i for i in range(self.m) if self.basis[i] >= 0]
        self.rows = [rows[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]
        self.m = len(keep)
        den = self.den
        for row, j in zip(self.rows, self.basis):
            if row[n] < 0 or Fraction(row[n], den) != x[j]:
                raise LPError("start point is not the basic solution of its columns")

    def _phase1(self) -> None:
        c = [_ZERO] * self.art0 + [Fraction(-1)] * self.m
        self.allowed = self.art0 + self.m
        self._price_objective(c)
        self._run()
        if self.obj[self.width - 1] != 0:
            raise Infeasible("phase 1 optimum is nonzero")
        self.obj = None
        for i in range(self.m):
            if self.basis[i] >= self.art0:
                row = self.rows[i]
                for j in range(self.art0):
                    if row[j] != 0:
                        if row[j] < 0:
                            self.rows[i] = row = [-v for v in row]
                        self._pivot(i, j)
                        break
                # all-zero row: redundant constraint, artificial stays
                # basic at 0 and its column can never re-enter
        self.allowed = self.art0

    # -- public API ----------------------------------------------------------

    def maximize(self, c: Sequence) -> Fraction:
        """Maximize c.x from the current basis; returns the optimum."""
        c_frac = [v if isinstance(v, Fraction) else Fraction(v) for v in c]
        if len(c_frac) > self.art0:
            raise LPError("objective longer than variable count")
        c_frac += [_ZERO] * (self.width - 1 - len(c_frac))
        self.allowed = self.art0
        self._price_objective(c_frac)
        self._run()
        return -self.obj[self.width - 1]

    def solution(self) -> list[Fraction]:
        x = [_ZERO] * self.art0
        den = self.den
        for i in range(self.m):
            bi = self.basis[i]
            if bi < self.art0:
                x[bi] = Fraction(self.rows[i][self.width - 1], den)
        return x


def solve_lp(A: Sequence[Sequence], b: Sequence, c: Sequence,
             maximize: bool = True) -> tuple[Fraction, list[Fraction]]:
    """Optimize c.x subject to A x = b, x >= 0 (exact, vertex solution)."""
    t = Tableau(A, b)
    if maximize:
        val = t.maximize(list(c))
    else:
        val = -t.maximize([-(v if isinstance(v, Fraction) else Fraction(v)) for v in c])
    return val, t.solution()


def positive_coordinates(tableau: Tableau, coords: Sequence[int],
                         seeds: Sequence[Sequence[Fraction]] = (),
                         ) -> tuple[set[int], dict[int, list[Fraction]]]:
    """Which of the given coordinates can be strictly positive over the region.

    Iteratively maximizes the sum of still-undetermined coordinates; a zero
    optimum certifies the remainder is identically zero over the polytope
    (coordinates are nonnegative and feasible points average).  Returns the
    positive set and a feasible witness solution for each member.  ``seeds``
    are known feasible points used to mark coordinates without LP work.
    """
    coords = list(coords)
    positive: set[int] = set()
    witness: dict[int, list[Fraction]] = {}
    for sol in seeds:
        for j in coords:
            if j not in positive and sol[j] > 0:
                positive.add(j)
                witness[j] = list(sol)
    remaining = [j for j in coords if j not in positive]
    one = Fraction(1)
    while remaining:
        c = [_ZERO] * tableau.art0
        for j in remaining:
            c[j] = one
        val = tableau.maximize(c)
        if val == 0:
            break
        sol = tableau.solution()
        newly = [j for j in remaining if sol[j] > 0]
        if not newly:
            raise LPError("positive optimum without positive coordinates")
        for j in newly:
            positive.add(j)
            witness[j] = sol
        remaining = [j for j in remaining if j not in positive]
    return positive, witness
