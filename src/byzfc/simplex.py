"""Exact rational linear programming.

Primal simplex with Bland's rule.  The starting basis comes either from
phase 1 on artificial columns or, when a feasible point is already known,
from a crash start: the point's nonzero columns are pivoted in directly
(Bixby 1992), so no phase 1 runs.  All tableau arithmetic stays in Python
ints.  Each tableau row is a sparse ``{column: int}`` dict of its nonzeros
with a scale of its own: it stands for itself divided by its positive
entry at its basic column, and it is kept primitive, the gcd of its
entries 1.  So a pivot touches only the rows that hold the pivot column,
and no entry outgrows the determinants of integer pivoting (Edmonds 1967;
Bareiss 1968), which carry every row over one shared denominator.  The
objective rides along as one more sparse integer row with its own scale,
so Fractions appear only in the values returned.

Problems are equality-form:  optimize c.x  s.t.  A x = b,  x >= 0.  Each
row of A is a sparse ``{column: coefficient}`` dict of ints or other
``numbers.Rational`` values, scaled row-wise to integers; an all-int row
is taken as it is, and anything else (a float, say) raises LPError.
``unique_point`` decides, without a tableau, when a known solution is the
only one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Sequence

MAX_PIVOTS = 200_000
RANK_PRIME = 2_147_483_647  # 2**31 - 1


class LPError(RuntimeError):
    """Internal solver failure (iteration cap, non-positive pivot, ...)."""


class Infeasible(LPError):
    """The constraint system A x = b, x >= 0 has no solution."""


class Unbounded(LPError):
    """The objective is unbounded over the feasible region."""


def _integers(vals: list) -> tuple[list[int], int]:
    """Rational vals times the least common multiple of their denominators.

    Anything that is not ``numbers.Rational`` (a float, say) raises LPError.
    """
    if all(type(v) is int for v in vals):
        return vals, 1
    if not all(isinstance(v, Rational) for v in vals):
        raise LPError("coefficients must be rational")
    mult = lcm(*(v.denominator for v in vals))
    return [v.numerator * (mult // v.denominator) for v in vals], mult


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

    ``rows`` holds one ``{column: int}`` dict of nonzeros per basic row, the
    right-hand side at column ``width - 1``.  Row i stands for
    ``rows[i]`` divided by ``rows[i][basis[i]]``, which is positive, and the
    gcd of its entries is 1.
    """

    def __init__(self, A: Sequence[dict], b: Sequence, n: int,
                 start: Sequence | None = None):
        m = len(A)
        if len(b) != m:
            raise LPError("constraint rows and right-hand sides differ in count")
        phase1 = start is None
        self.width = width = n + 1 + (m if phase1 else 0)
        rhs_col = width - 1
        rows: list[dict[int, int]] = []
        for i, (a, rhs) in enumerate(zip(A, b)):
            vals, _ = _integers([*a.values(), rhs])
            sign = -1 if vals[-1] < 0 else 1
            row = {}
            for j, v in zip(a, vals):
                if not 0 <= j < n:
                    raise LPError(f"column {j} outside the {n} variables")
                if v:
                    row[j] = sign * v
            if vals[-1]:
                row[rhs_col] = sign * vals[-1]
            if phase1:
                row[n + i] = 1
            elif (g := gcd(*row.values())) > 1:
                row = {j: v // g for j, v in row.items()}
            rows.append(row)
        self.m = m
        self.art0 = n  # first artificial column
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
        """Pivot on (r, c): each other row holding column c, at f, becomes
        p * row - f * pivot row for the pivot p, divided by the gcd of its
        entries; entries that cancel are dropped.  No other row changes."""
        rows = self.rows
        prow = rows[r]
        p = prow.get(c, 0)
        if p <= 0:
            raise LPError("pivot element must be positive")
        for i, row in enumerate(rows):
            f = row.get(c)
            if f is None or i == r:
                continue
            if p != 1:
                for j, v in row.items():
                    row[j] = v * p
            for j, pv in prow.items():
                if v := row.get(j, 0) - f * pv:
                    row[j] = v
                else:
                    del row[j]
            if (g := gcd(*row.values())) > 1:
                for j, v in row.items():
                    row[j] = v // g
        self.basis[r] = c

    def _bland_step(self) -> bool:
        """One Bland pivot; False at optimality."""
        rows = self.rows
        allowed = self.allowed
        enter = min((j for j, v in rows[self.m].items() if v > 0 and j < allowed), default=-1)
        if enter < 0:
            return False
        rhs_col = self.width - 1
        basis = self.basis
        best = -1
        best_a = best_rhs = 0
        for i in range(self.m):
            row = rows[i]
            a = row.get(enter, 0)
            if a > 0:
                rhs = row.get(rhs_col, 0)
                if best >= 0:
                    lhs, cur = rhs * best_a, best_rhs * a
                    if lhs > cur or (lhs == cur and basis[i] > basis[best]):
                        continue
                best, best_a, best_rhs = i, a, rhs
        if best < 0:
            raise Unbounded("improving direction with no positive entries")
        self._pivot(best, enter)
        return True

    def _optimize(self, c: list[int]) -> Fraction:
        """Maximize c.x for integer costs c over every column but the last.

        The objective is priced as one more row with a positive scale s in
        column ``width``, s*c_j - sum_i c_B(i)*s*T[i][j]/T[i][B(i)]: s times
        the reduced cost of column j, and minus s times the objective value
        in the last column.  s starts as the lcm of the T[i][B(i)] priced.
        Pivots update the row like a constraint row; it is dropped on return.
        """
        rows = self.rows
        priced = [(row, c[bi], row[bi]) for row, bi in zip(rows, self.basis) if c[bi]]
        s = lcm(*(d for *_, d in priced))
        z = {j: s * v for j, v in enumerate(c) if v}
        for row, cb, d in priced:
            for j, v in row.items():
                z[j] = z.get(j, 0) - cb * (s // d) * v
        z = {j: v for j, v in z.items() if v}
        z[self.width] = s
        rows.append(z)
        try:
            for _ in range(MAX_PIVOTS):
                if not self._bland_step():
                    return Fraction(-z.get(self.width - 1, 0), z[self.width])
            raise LPError("pivot limit exceeded")
        finally:
            rows.pop()

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
        for c in sorted(range(n), key=lambda j: x[j] == 0):  # the support first
            if not free and x[c] == 0:
                break
            r = next((i for i in free if c in rows[i]), -1)
            if r < 0:
                if x[c] != 0:
                    raise LPError("start point has dependent nonzero columns")
                continue
            if rows[r][c] < 0:
                rows[r] = {j: -v for j, v in rows[r].items()}
            self._pivot(r, c)
            free.remove(r)
        # an unassigned row is zero in every column now: pivots only ever
        # combined it with rows that were zero where it was
        if any(n in rows[i] for i in free):
            raise LPError("start point violates a dependent row")
        keep = [i for i in range(self.m) if self.basis[i] >= 0]
        self.rows = [rows[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]
        self.m = len(keep)
        for row, j in zip(self.rows, self.basis):
            rhs = row.get(n, 0)
            if rhs < 0 or Fraction(rhs, row[j]) != x[j]:
                raise LPError("start point is not the basic solution of its columns")

    def _phase1(self) -> None:
        art0 = self.art0
        self.allowed = art0 + self.m
        if self._optimize([0] * art0 + [-1] * self.m) != 0:
            raise Infeasible("phase 1 optimum is nonzero")
        for i in range(self.m):
            if self.basis[i] >= art0:
                row = self.rows[i]
                j = min((j for j in row if j < art0), default=-1)
                # no such column: redundant constraint, the artificial stays
                # basic at 0 and its column can never re-enter
                if j >= 0:
                    if row[j] < 0:
                        self.rows[i] = {jj: -v for jj, v in row.items()}
                    self._pivot(i, j)
        self.allowed = art0

    # -- public API ----------------------------------------------------------

    def maximize(self, c: Sequence) -> Fraction:
        """Maximize c.x from the current basis; returns the optimum."""
        if len(c) > self.art0:
            raise LPError("objective longer than variable count")
        ints, mult = _integers(list(c))
        self.allowed = self.art0
        return self._optimize(ints + [0] * (self.width - 1 - len(ints))) / mult

    def solution(self) -> list[Fraction]:
        x: list = [0] * self.art0
        rhs_col = self.width - 1
        for row, bi in zip(self.rows, self.basis):
            if bi < self.art0:
                x[bi] = Fraction(row.get(rhs_col, 0), row[bi])
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
