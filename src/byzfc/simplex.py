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
product of a pivot exact, and Python ints (``object``) only from a pivot
that leaves a larger entry until one leaves every entry within the bound
again.  The objective rides along as one more integer row with its own
scale, so Fractions appear only in the values returned.

Problems are equality-form:  optimize c.x  s.t.  A x = b,  x >= 0.  A is
one 2-D integer numpy array, int64 or Python ints, and anything else (a
float, say) raises LPError; b is rational, and a row whose right-hand side
is a fraction is scaled by its denominator.
``full_rank_mod_2`` proves full column rank on bit rows, and
``dual_certificate`` finds the integer multipliers that prove a known
solution the only one, by a least-distance search in floats whose
rounded candidates are checked exactly; neither builds a tableau.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_PIVOTS = 200_000
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


# OpenBLAS runs a LAPACK solve of at most this order on one thread; above
# it, threads start, and on a loaded host one solve can take 100 times longer
BLOCK = 64


def _dot(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x by ``einsum``, which calls no BLAS and so starts no threads."""
    return np.einsum("ij,j->i", A, x)


def _solve(G: np.ndarray, t: np.ndarray) -> np.ndarray:
    """y with G y = t for a positive definite G: LAPACK on a leading block of
    ``BLOCK`` columns, the rest on its Schur complement, formed by ``einsum``."""
    if len(G) <= BLOCK:
        return np.linalg.solve(G, t)
    X = np.linalg.solve(G[:BLOCK, :BLOCK], np.column_stack([G[:BLOCK, BLOCK:], t[:BLOCK]]))
    low = G[BLOCK:, :BLOCK]
    y = _solve(G[BLOCK:, BLOCK:] - np.einsum("ij,jk->ik", low, X[:, :-1]),
               t[BLOCK:] - _dot(low, X[:, -1]))
    return np.concatenate([X[:, -1] - _dot(X[:, :-1], y), y])


def dual_certificate(M: np.ndarray) -> np.ndarray | None:
    """An integer w with w.M_j > 0 at every column j of the integer matrix
    M, or None when M has columns but no rows or no float candidate of
    ``_least_distance`` is one; anything but integers in M (a float, say)
    raises LPError.  Each candidate is rounded, and only one that
    ``certifies`` is trusted.
    """
    if M.dtype.kind != "i" and not all(type(v) is int for v in M.flat):
        raise LPError("coefficients must be integers")
    if not M.shape[1]:
        return np.zeros(len(M), dtype=np.int64)
    if not len(M):
        return None
    try:
        F = M.astype(float)
    except OverflowError:  # an entry past float range
        return None
    with np.errstate(all="ignore"):  # a candidate that is not finite is refused below
        try:
            for w in _least_distance(F):
                w = np.rint(w)
                if not np.isfinite(w).all() or np.abs(w).max() >= 2**53:
                    return None
                w = w.astype(np.int64)
                if certifies(M, w):
                    return w
        except np.linalg.LinAlgError:
            return None
    return None


# block exchanges allowed without fewer wrong signs before Lawson-Hanson
# takes over (Kim & Park 2011), and float solves per column of a search
BACKUPS = 3
SOLVES_PER_COLUMN = 3


def _least_distance(F: np.ndarray) -> Iterator[np.ndarray]:
    """Float candidates w for F^T w >= s * 1, s the largest column sum of
    |F|, twice what rounding w can move a w.F_j by.

    The least-distance problem min |w| s.t. F^T w >= s * 1 is solved through
    its dual, min 1/2 l.G l - s * 1.l over l >= 0, G = F^T F plus a ridge of
    a 1e-9 share of its mean diagonal, w = F l.  The first candidate frees
    every column: ridge normal equations for F^T w = s * 1.  Then columns
    whose l or slack G l - s has the wrong sign are exchanged as one block
    (Kim & Park, SIAM J. Sci. Comput. 33(6), 2011) while that lowers their
    count or ``BACKUPS`` allow; after that Lawson-Hanson NNLS on
    E = [F; 1^T], f = e_last, whose zero residual says no w exists (Lawson
    & Hanson 1974, ch. 23), started from the positive part of the block
    iterate with the fewest wrong signs, its nonpositive columns dropped
    until a solve is positive.  The search stops at an optimum, after
    ``SOLVES_PER_COLUMN`` solves per column, and at an iterate whose
    positive part l+ is nearly a nonnegative null direction,
    |F l+| <= 1e-6 |F|_F |l+|: a free direction that rules out any w.
    """
    n = F.shape[1]
    s = np.abs(F).sum(axis=0).max()
    G = np.einsum("ij,ik->jk", F, F)  # calls no BLAS, so starts no threads
    trace = G.trace()
    scale = 1e-6 * np.sqrt(trace)
    G.flat[::n + 1] += 1e-9 * trace / n
    budget = SOLVES_PER_COLUMN * n

    def solved(H: np.ndarray, on: np.ndarray, t: float) -> np.ndarray:
        nonlocal budget
        budget -= 1
        if on.all():
            return _solve(H, np.full(n, t))
        x = np.zeros(n)
        if on.any():
            x[on] = _solve(H[np.ix_(on, on)], np.full(int(on.sum()), t))
        return x

    def null(x: np.ndarray) -> bool:
        x = np.maximum(x, 0)
        return x.any() and np.linalg.norm(_dot(F, x)) <= scale * np.linalg.norm(x)

    free = np.ones(n, dtype=bool)
    fewest, backups = n + 1, BACKUPS
    while budget:
        lam = solved(G, free, s)
        yield _dot(F, lam)
        if null(lam):
            return
        wrong = free & (lam < 0) | ~free & (_dot(G, lam) < (1 - 1e-9) * s)
        count = int(wrong.sum())
        if not count:
            return
        if count < fewest:
            fewest, backups = count, BACKUPS
            passive = free & (lam > 0)
        elif not backups:
            break
        else:
            backups -= 1
        free ^= wrong
    # Lawson-Hanson on min |E u - f|, u >= 0: E^T E = G + 1 1^T, E^T f = 1
    H = G + 1
    u = np.zeros(n)
    while budget and passive.any():
        z = solved(H, passive, 1.0)
        if (z[passive] > 0).all():
            u = z
            break
        passive &= z > 0
    while budget:
        gain = np.where(passive, -np.inf, 1 - _dot(H, u))
        if gain.max() <= 1e-12:
            break
        passive[gain.argmax()] = True
        while budget:
            z = solved(H, passive, 1.0)
            if (z[passive] > 0).all():
                u = z
                break
            cut = passive & ~(z > 0)
            u += (u[cut] / (u[cut] - z[cut])).min() * (z - u)
            passive &= u > 1e-15
            u[~passive] = 0
        if null(u):
            return
    # the residual's last entry 1 - 1.u is |E u - f|^2 at the optimum
    if 1 - u.sum() > 1e-12:
        yield s * _dot(F, u) / (1 - u.sum())


def certifies(M: np.ndarray, w: np.ndarray) -> bool:
    """Whether w.M_j > 0 at every column j of the integer matrix M, for
    integers w: in int64 while rows * max |M| * max |w| < 2**63, else in ints."""
    if not M.shape[1]:
        return True
    if not len(M):
        return False
    small = M.dtype != object and len(M) * int(np.abs(M).max()) * int(np.abs(w).max()) < 2**63
    z = w @ M if small else w.astype(object) @ M.astype(object)
    return bool((z > 0).all())


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
    """Feasible simplex tableau for A x = b, x >= 0 over A's columns.

    Without ``start``, construction runs phase 1 and raises Infeasible when
    the region is empty.  ``start`` is a known feasible point; the starting
    basis is then built from it and phase 1 is skipped.  ``maximize(c)``
    optimizes any rational objective from the current basis; repeated calls
    warm-start, which is how the polytope support detection uses it.

    ``rows`` is an ``m`` by ``width + 1`` integer array, one row per basic
    row: the columns, the right-hand side at column ``width - 1``, and a
    zero at column ``width``, where the objective row keeps its scale.  Row
    i stands for ``rows[i]`` divided by ``rows[i, basis[i]]``, which is
    positive, and the gcd of its entries is 1.  The array is int64 while
    every entry is within ``ENTRY_BOUND``, Python ints only until a pivot
    leaves every entry within it again.
    """

    def __init__(self, A: np.ndarray, b: Sequence, start: Sequence | None = None):
        m, n = A.shape
        if len(b) != m:
            raise LPError("constraint rows and right-hand sides differ in count")
        if A.dtype.kind != "i" and not all(type(v) is int for v in A.flat):
            raise LPError("coefficients must be integers")
        if not all(isinstance(v, Rational) for v in b):
            raise LPError("right-hand sides must be rational")
        # each row times its right-hand side's denominator, negated where that is negative
        scale = [-v.denominator if v < 0 else v.denominator for v in b]
        if any(s != 1 for s in scale):
            A = A.astype(object) * np.array(scale, dtype=object)[:, None]
        A, rhs = _fitted(A), _fitted(np.array([abs(int(v.numerator)) for v in b], dtype=object))
        phase1 = start is None
        self.width = width = n + 1 + (m if phase1 else 0)
        rows = np.zeros((m, width + 1), dtype=np.result_type(A, rhs))
        rows[:, :n], rows[:, width - 1] = A, rhs
        if phase1:
            rows[range(m), range(n, n + m)] = 1
        elif m and (g := np.gcd.reduce(rows, axis=1)).max() > 1:
            rows //= np.maximum(g, 1)[:, None]
        self.m = m
        self.art0 = n  # first artificial column
        self.allowed = n
        self.rows = _fitted(rows) if rows.dtype == object else rows
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
            # the updated rows decide a turn to Python ints; only when they
            # fit is the whole array scanned for a return to int64
            if np.abs(sub).max() > ENTRY_BOUND:
                if rows.dtype != object:
                    self.rows = rows.astype(object)
            elif rows.dtype == object:
                self.rows = _fitted(rows)
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
