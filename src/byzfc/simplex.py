"""Exact rational linear programming.

Primal simplex with Bland's rule.  The starting basis comes either from
phase 1 on artificial columns or, when a feasible point is already known,
from a crash start: the point's nonzero columns are pivoted in directly
(Bixby 1992), so no phase 1 runs.  The tableau is one 2-D numpy array of
integers, a row per basic variable and one column per variable, then the
right-hand side, then the objective's scale.  Each row has a scale of its
own: it stands for itself divided by its positive entry at its basic
column, and it is kept primitive, the gcd of its entries 1.  So a pivot
updates only the rows that hold the pivot column, and no entry outgrows
the determinants of integer pivoting (Edmonds 1967; Bareiss 1968), which
carry every row over one shared denominator.  The array is int64 while
every entry is at most ``ENTRY_BOUND`` in absolute value, which keeps each
product of a pivot exact, and Python ints (``object``) from the first
pivot that leaves a larger entry.  The objective rides along as one more
integer row with its own scale, so Fractions appear only in the values
returned.

Problems are equality-form:  optimize c.x  s.t.  A x = b,  x >= 0.  Each
row of A is a sparse ``{column: coefficient}`` dict of ints or other
``numbers.Rational`` values, scaled row-wise to integers; an all-int row
is taken as it is, and anything else (a float, say) raises LPError.
``unique_point`` decides, without a tableau, when a known solution is the
only one, and ``full_rank_mod_2`` proves full column rank on rows packed
into the bits of Python ints.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import lcm
from numbers import Rational
from operator import mul, neg
from typing import Iterable, Sequence

import numpy as np

MAX_PIVOTS = 200_000
RANK_PRIME = 2_147_483_647  # 2**31 - 1
# a pivot forms p * v - f * w from entries of at most this size, which is
# at most 2 * (2**31 - 1)**2 < 2**63 in absolute value: exact in int64
ENTRY_BOUND = 2**31 - 1


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
    if set(map(type, vals)) <= {int}:
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

    The rank does not depend on the order of elimination, so the columns
    go in the order that keeps the pivot rows short: fewest nonzeros in A
    first, the point's nonzero columns first among equals.  Each row is
    swept as a dense list against the pivot rows found so far, each stored
    as the sparse tail after its pivot, normalized to 1 there.
    """
    n = len(x)
    xs, xm = _integers(list(x))
    rows = []
    for a, rhs in zip(A, b):
        vals, _ = _integers([*a.values(), rhs])
        if sum(map(mul, vals, map(xs.__getitem__, a))) != vals[-1] * xm:
            raise LPError("point violates a constraint row")
        rows.append((a, vals))
    count = Counter(chain.from_iterable(A))
    prime = RANK_PRIME
    pos = [0] * n
    for k, j in enumerate(sorted(range(n), key=lambda j: (count[j], not xs[j]))):
        pos[j] = k
    tails: list[list[tuple[int, int]] | None] = [None] * n  # by position
    pivots: list[int] = []  # positions, ascending
    for a, vals in rows:
        if len(pivots) == n:
            break
        at = list(map(pos.__getitem__, a))
        if not at:
            continue
        row = [0] * n
        for q, v in zip(at, vals):
            row[q] = v
        lo = min(at)
        for k in pivots[bisect_left(pivots, lo):]:
            if (f := row[k]) and (f := f % prime):
                row[k] = 0
                for j, t in tails[k]:
                    row[j] -= f * t
        for q in range(lo, n):
            if (r := row[q]) and (r := r % prime) and tails[q] is None:
                inv = pow(r, -1, prime)
                tails[q] = [(j, v * inv % prime)
                            for j, v in enumerate(row[q + 1:], q + 1) if v and v % prime]
                insort(pivots, q)
                break
    return len(pivots) == n


def full_rank_mod_2(rows: Iterable[int], cols: int) -> bool:
    """Whether bit rows, read on the columns set in ``cols``, have rank
    ``cols.bit_count()`` mod 2.

    Bit j of a row is column j's entry mod 2.  An integer matrix's rank
    mod 2 is at most its rank over Q (Dixon 1982), so True proves full
    column rank on ``cols`` when each row holds the odd entries of an
    integer row.  Each pivot row is kept at its lowest column, so XOR with
    it clears that column and sets none below it.
    """
    need = cols.bit_count()
    pivots: dict[int, int] = {}
    for row in rows:
        row &= cols
        while row:
            low = row & -row
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                break
            row ^= pivot
        if len(pivots) == need:
            break
    return len(pivots) == need


def _fitted(T: np.ndarray) -> np.ndarray:
    """T as int64 when every entry is within ``ENTRY_BOUND``, else as Python ints."""
    fits = not T.size or max(int(T.max()), -int(T.min())) <= ENTRY_BOUND
    return T.astype(np.int64 if fits else object, copy=False)


class Tableau:
    """Feasible simplex tableau for A x = b, x >= 0 over ``n`` columns.

    Without ``start``, construction runs phase 1 and raises Infeasible when
    the region is empty.  ``start`` is a known feasible point; the starting
    basis is then built from it and phase 1 is skipped.  ``maximize(c)``
    optimizes any rational objective from the current basis; repeated calls
    warm-start, which is how the polytope support detection uses it.

    ``rows`` is an ``m`` by ``width + 1`` integer array, one row per basic
    row: the columns, the right-hand side at column ``width - 1``, and a
    zero at column ``width``, where the objective row keeps its scale.  Row
    i stands for ``rows[i]`` divided by ``rows[i, basis[i]]``, which is
    positive, and the gcd of its entries is 1.
    """

    def __init__(self, A: Sequence[dict], b: Sequence, n: int,
                 start: Sequence | None = None):
        m = len(A)
        if len(b) != m:
            raise LPError("constraint rows and right-hand sides differ in count")
        phase1 = start is None
        self.width = width = n + 1 + (m if phase1 else 0)
        cells: list[int] = []  # flat positions of the nonzero entries
        vals_all: list[int] = []
        for i, (a, rhs) in enumerate(zip(A, b)):
            vals, _ = _integers([*a.values(), rhs])
            if a and (min(a) < 0 or max(a) >= n):
                raise LPError(f"a column of {sorted(a)} is outside the {n} variables")
            at = i * (width + 1)
            cells.extend(map(at.__add__, a))
            cells.append(at + width - 1)
            vals_all.extend(map(neg, vals) if vals[-1] < 0 else vals)
        big = max(map(abs, vals_all), default=0) > ENTRY_BOUND
        rows = np.zeros((m, width + 1), dtype=object if big else np.int64)
        rows.flat[cells] = vals_all
        if phase1:
            rows[range(m), range(n, n + m)] = 1
        elif m and (g := np.gcd.reduce(rows, axis=1)).max() > 1:
            rows //= np.maximum(g, 1)[:, None]
        self.m = m
        self.art0 = n  # first artificial column
        self.allowed = n
        self.rows = _fitted(rows) if big else rows
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
        entries.  No other row changes."""
        rows = self.rows
        col = rows[:, c].tolist()
        p = col[r]
        if p <= 0:
            raise LPError("pivot element must be positive")
        hit = np.array([i for i, f in enumerate(col) if f and i != r], dtype=np.intp)
        if hit.size:
            sub = rows.take(hit, axis=0)
            f = sub[:, c:c + 1].copy()
            if p != 1:
                sub *= p
            sub -= f * rows[r]
            g = np.gcd.reduce(sub, axis=1)
            if g.max() > 1:
                sub //= np.maximum(g, 1)[:, None]
            rows[hit] = sub
            if rows.dtype != object and np.abs(sub).max() > ENTRY_BOUND:
                self.rows = rows.astype(object)
        self.basis[r] = c

    def _bland_step(self) -> bool:
        """One Bland pivot; False at optimality."""
        rows, m = self.rows, self.m
        improving = np.flatnonzero(rows[m, :self.allowed] > 0)
        if not improving.size:
            return False
        enter = int(improving[0])
        basis = self.basis
        best = -1
        best_a = best_rhs = 0
        for i, (a, rhs) in enumerate(rows[:m, [enter, self.width - 1]].tolist()):
            if a <= 0:
                continue
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
        m, rows = self.m, self.rows
        priced = [i for i, bi in enumerate(self.basis) if c[bi]]
        basic = [self.basis[i] for i in priced]
        d = rows[priced, basic].tolist()
        s = lcm(*d)
        w = [c[bi] * (s // di) for bi, di in zip(basic, d)]
        z = [s * v for v in c] + [0, s]
        # each entry is z_j - sum_i w_i T[i][j]: within int64 when this is
        dtype = np.int64 if rows.dtype != object and \
            max(map(abs, z)) + sum(map(abs, w)) * ENTRY_BOUND < 2**63 else object
        z = np.array(z, dtype=dtype) - np.array(w, dtype=dtype) @ rows[priced]
        rows = np.concatenate([rows, z[None]])
        if dtype is object or np.abs(z).max() > ENTRY_BOUND:
            rows = _fitted(rows.astype(object))
        self.rows = rows
        try:
            for _ in range(MAX_PIVOTS):
                if not self._bland_step():
                    z = self.rows[m]
                    return Fraction(-int(z[self.width - 1]), int(z[self.width]))
            raise LPError("pivot limit exceeded")
        finally:
            self.rows = self.rows[:m]

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
        free = list(range(self.m))
        for c in sorted(range(n), key=lambda j: x[j] == 0):  # the support first
            if not free and x[c] == 0:
                break
            col = self.rows[:, c].tolist()
            r = next((i for i in free if col[i]), -1)
            if r < 0:
                if x[c] != 0:
                    raise LPError("start point has dependent nonzero columns")
                continue
            free.remove(r)
            if col[r] < 0:
                self.rows[r] *= -1
            self._pivot(r, c)
        # an unassigned row is zero in every column now: pivots only ever
        # combined it with rows that were zero where it was
        if self.rows[free, n].any():
            raise LPError("start point violates a dependent row")
        keep = [i for i in range(self.m) if self.basis[i] >= 0]
        self.rows = self.rows[keep]
        self.basis = [self.basis[i] for i in keep]
        self.m = len(keep)
        rhs = self.rows[:, n].tolist()
        for i, j in enumerate(self.basis):
            # rhs / T[i][j] == x[j], the basic entry T[i][j] being positive
            if rhs[i] < 0 or rhs[i] != x[j] * int(self.rows[i, j]):
                raise LPError("start point is not the basic solution of its columns")

    def _phase1(self) -> None:
        art0 = self.art0
        self.allowed = art0 + self.m
        if self._optimize([0] * art0 + [-1] * self.m) != 0:
            raise Infeasible("phase 1 optimum is nonzero")
        for i in range(self.m):
            if self.basis[i] >= art0:
                nonzero = np.flatnonzero(self.rows[i, :art0])
                # no such column: redundant constraint, the artificial stays
                # basic at 0 and its column can never re-enter
                if nonzero.size:
                    j = int(nonzero[0])
                    if self.rows[i, j] < 0:
                        self.rows[i] *= -1
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
        rhs = self.rows[:, self.width - 1].tolist()
        for i, bi in enumerate(self.basis):
            if bi < self.art0:
                x[bi] = Fraction(rhs[i], int(self.rows[i, bi]))
        return x


def positive_coordinates(tableau: Tableau, coords: Sequence[int],
                         seeds: Sequence[Sequence[Fraction]] = ()) -> set[int]:
    """Which of the given coordinates can be strictly positive over the region.

    Iteratively maximizes the sum of still-undetermined coordinates; a zero
    optimum certifies the remainder is identically zero over the polytope
    (coordinates are nonnegative and feasible points average).  ``seeds``
    are known feasible points whose positive coordinates are marked
    without LP work.
    """
    coords = list(coords)
    positive = {j for sol in seeds for j in coords if sol[j] > 0}
    remaining = [j for j in coords if j not in positive]
    while remaining:
        c = [0] * tableau.art0
        for j in remaining:
            c[j] = 1
        if tableau.maximize(c) == 0:
            break
        sol = tableau.solution()
        newly = {j for j in remaining if sol[j] > 0}
        if not newly:
            raise LPError("positive optimum without positive coordinates")
        positive |= newly
        remaining = [j for j in remaining if j not in newly]
    return positive
