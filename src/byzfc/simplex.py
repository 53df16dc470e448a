"""Exact rational linear programming.

Primal simplex with Bland's rule.  The starting basis comes either from
phase 1 on artificial columns or, when a feasible point is already known,
from a crash start: the point's nonzero columns are pivoted in directly
(Bixby 1992), so no phase 1 runs.  All tableau arithmetic stays in Python
ints through Edmonds-style integer pivoting (Bareiss 1968): the tableau
carries one shared positive determinant denominator and every pivot update
divides exactly.  The objective rides along as one more integer row, its
reduced costs scaled by that denominator, so Fractions appear only in the
values returned.

Problems are equality-form:  optimize c.x  s.t.  A x = b,  x >= 0.  Each
row of A is a sparse ``{column: coefficient}`` dict; rational inputs
(Fraction / int) are scaled row-wise to integers.  ``unique_point``
decides, without a tableau, when a known solution is the only one.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

MAX_PIVOTS = 200_000
RANK_PRIME = 2_147_483_647  # 2**31 - 1

_ZERO = Fraction(0)


class LPError(RuntimeError):
    """Internal solver failure (iteration cap, division residue, ...)."""


class Infeasible(LPError):
    """The constraint system A x = b, x >= 0 has no solution."""


class Unbounded(LPError):
    """The objective is unbounded over the feasible region."""


def _integers(vals: list) -> tuple[list[int], int]:
    """Rational vals times the least common multiple of their denominators."""
    mult = lcm(*(v.denominator for v in vals if isinstance(v, Fraction)))
    return [v.numerator * (mult // v.denominator) if isinstance(v, Fraction)
            else int(v) * mult for v in vals], mult


def unique_point(A: Sequence[dict], b: Sequence, x: Sequence) -> bool:
    """Whether x is the only solution of A x = b, certified by a rank mod a prime.

    Checks in integers that x satisfies every row, raising LPError if not,
    and eliminates the rows mod ``RANK_PRIME``.  The rank of an integer
    matrix mod a prime is at most its rank over Q (Dixon 1982), so a rank
    of ``len(x)`` proves full column rank; False proves nothing.
    """
    n = len(x)
    xs, xm = _integers(list(x))
    # pivot rows keyed by their least column, normalized to 1 there
    pivots: dict[int, dict[int, int]] = {}
    for a, rhs in zip(A, b):
        vals, _ = _integers([*a.values(), rhs])
        if sum(v * xs[j] for j, v in zip(a, vals)) != vals[-1] * xm:
            raise LPError("point violates a constraint row")
        if len(pivots) == n:
            continue
        row = {j: r for j, v in zip(a, vals) if (r := v % RANK_PRIME)}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], -1, RANK_PRIME)
                pivots[c] = {j: v * inv % RANK_PRIME for j, v in row.items()}
                break
            f = row[c]
            for j, v in piv.items():
                if r := (row.get(j, 0) - f * v) % RANK_PRIME:
                    row[j] = r
                else:
                    row.pop(j, None)
    return len(pivots) == n


class Tableau:
    """Feasible simplex tableau for A x = b, x >= 0 over ``n`` columns.

    Without ``start``, construction runs phase 1 and raises Infeasible when
    the region is empty.  ``start`` is a known feasible point; the starting
    basis is then built from it and phase 1 is skipped.  ``maximize(c)``
    optimizes any rational objective from the current basis; repeated calls
    warm-start, which is how the polytope support detection uses it.
    """

    def __init__(self, A: Sequence[dict], b: Sequence, n: int,
                 start: Sequence | None = None):
        m = len(A)
        if len(b) != m:
            raise LPError("constraint rows and right-hand sides differ in count")
        phase1 = start is None
        self.width = width = n + 1 + (m if phase1 else 0)
        rows: list[list[int]] = []
        for i, (a, rhs) in enumerate(zip(A, b)):
            vals, _ = _integers([*a.values(), rhs])
            sign = -1 if vals[-1] < 0 else 1
            row = [0] * width
            for j, v in zip(a, vals):
                if not 0 <= j < n:
                    raise LPError(f"column {j} outside the {n} variables")
                row[j] = sign * v
            row[-1] = sign * vals[-1]
            if phase1:
                row[n + i] = 1
            rows.append(row)
        self.m = m
        self.art0 = n  # first artificial column
        self.den = 1
        self.allowed = n
        self.rows = rows
        if phase1:
            self.basis = list(range(n, n + m))
            self._phase1()
        else:
            self.basis = [-1] * m
            self._crash(start)

    # -- pivoting core ---------------------------------------------------

    def _pivot(self, r: int, c: int) -> None:
        """Pivot on (r, c), updating every row, the objective's included."""
        rows = self.rows
        prow = rows[r]
        p = prow[c]
        if p <= 0:
            raise LPError("pivot element must be positive")
        den = self.den
        width = self.width
        for i, row in enumerate(rows):
            if i == r:
                continue
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
        self.den = p
        self.basis[r] = c

    def _bland_step(self) -> bool:
        """One Bland pivot; False at optimality."""
        rows = self.rows
        obj = rows[self.m]
        enter = -1
        for j in range(self.allowed):
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            return False
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

    def _optimize(self, c: list[int]) -> Fraction:
        """Maximize c.x for integer costs c over every column but the last.

        The objective is priced as one more row, den*c_j - sum_i
        c_B(i)*T[i][j]: den times the reduced cost of column j, and minus
        den times the objective value in the last column.  Pivots keep it
        integral like a constraint row; it is dropped again on return.
        """
        z = [self.den * v for v in c] + [0]
        for i in range(self.m):
            cb = c[self.basis[i]]
            if cb:
                for j, v in enumerate(self.rows[i]):
                    if v:
                        z[j] -= cb * v
        self.rows.append(z)
        try:
            for _ in range(MAX_PIVOTS):
                if not self._bland_step():
                    return Fraction(-z[-1], self.den)
            raise LPError("pivot limit exceeded")
        finally:
            self.rows.pop()

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
        self.allowed = self.art0 + self.m
        if self._optimize([0] * self.art0 + [-1] * self.m) != 0:
            raise Infeasible("phase 1 optimum is nonzero")
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
        if len(c) > self.art0:
            raise LPError("objective longer than variable count")
        ints, mult = _integers(list(c))
        self.allowed = self.art0
        return self._optimize(ints + [0] * (self.width - 1 - len(ints))) / mult

    def solution(self) -> list[Fraction]:
        x = [_ZERO] * self.art0
        den = self.den
        for i in range(self.m):
            bi = self.basis[i]
            if bi < self.art0:
                x[bi] = Fraction(self.rows[i][-1], den)
        return x


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
    while remaining:
        c = [0] * tableau.art0
        for j in remaining:
            c[j] = 1
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
