"""The integer simplex kernel against the dense one it replaced.

``DenseTableau`` is the dense Bareiss tableau, kept here as the reference:
every row a full list of ints and every pivot an update of every entry.
``simplex.Tableau`` keeps each row of its int64 (or Python-int) array
primitive over a scale of its own, and a pivot updates only the rows that
hold the pivot column.  Both kernels run the same problems, and each run
is logged: the (r, c) pivot list, the basis and ``solution()`` after
construction and after every ``maximize``, each optimum, and the class of
any exception.  The logs must be equal.  The problems are the random and
fuzz LPs of ``test_simplex.py`` (phase 1 and crash-started), LPs over the
common denominator 2**61 + 1, LPs whose entries pass the int64 bound in
mid-run, every fallback region of the verdict ladder through
``positive_coordinates``, ``conflict_vertex`` on every non-viable instance
of the ladder and on the worked example's ``uvw``, and the exact
view-distance LP on the worked example's queries and on n=5000 types.  The
pivot list of the benchmark's seed-1 ``verdict-random`` pass is pinned, as
is the route (bits, dual or tableau) that settles each of its regions, and
every pivot of that pass must keep each row primitive, each basic row
positive at its basic column, and each row without the pivot column as it
was.
"""

import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from byzfc import viability, viewsets
from byzfc.probability import Alphabet, JointPmf, derive_seed, empirical_type, sample_iid
from byzfc.simplex import (ENTRY_BOUND, MAX_PIVOTS, Infeasible, LPError, Tableau, Unbounded,
                           _integers, positive_coordinates)
from byzfc.structures import nonintersecting_collections
from byzfc.viability import Regions, _needs_solving, _Region, check_viability
from byzfc.viewsets import ViewSetHandle

from test_crash_start import _identity_start, _ladder, distance_queries
from test_simplex import fuzz_lps, random_lps, sparse

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

import workloads  # noqa: E402

_ZERO = Fraction(0)


class DenseTableau:
    """The dense Bareiss tableau that ``simplex.Tableau`` replaced: every
    row a full list of ``width`` ints, every pivot updating every entry."""

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




def logged(kernel, log: list):
    """``kernel`` with every pivot, start and ``maximize`` appended to ``log``."""

    class Logged(kernel):
        def __init__(self, *args, **kwargs):
            try:
                super().__init__(*args, **kwargs)
            except LPError as exc:
                log.append(("init", type(exc)))
                raise
            log.append(("init", list(self.basis), self.solution()))

        def _pivot(self, r, c):
            log.append((r, c))
            super()._pivot(r, c)

        def maximize(self, c):
            try:
                val = super().maximize(c)
            except LPError as exc:
                log.append(("max", type(exc)))
                raise
            log.append(("max", val, list(self.basis), self.solution()))
            return val

    return Logged


def both_logs(run):
    """``run(kernel)`` once per kernel; the two logs and results."""
    out = []
    for kernel in (Tableau, DenseTableau):
        log: list = []
        try:
            result = run(logged(kernel, log))
        except LPError as exc:
            result = type(exc)
        out.append((log, result))
    return out


def same_run(run):
    """Both kernels log the same run and return the same; returns that."""
    (array_log, array_out), (dense_log, dense_out) = both_logs(run)
    assert array_log == dense_log
    assert array_out == dense_out
    return array_out


def _lp_run(A, b, c):
    def run(kernel):
        t = kernel(A, b, len(c))
        opt = t.maximize(c)
        crashed = kernel(A, b, len(c), start=t.solution())
        return opt, crashed.maximize(c), positive_coordinates(crashed, range(len(c)))
    return run


@pytest.mark.parametrize("lps", [random_lps, fuzz_lps])
def test_simplex_lps(lps):
    for A, b, c in lps():
        for sign in (1, -1):
            same_run(_lp_run(sparse(A), b, [sign * v for v in c]))


HUGE_DEN = 2**61 + 1


def huge_denominator_lps():
    """Bounded LPs with coefficients over 2**61 + 1, as (A, b, c) lists."""
    rng = np.random.default_rng(2**61 + 1)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, 7))
        nums = rng.integers(-2**62, 2**62, size=(m + 1, n)) * (rng.random((m + 1, n)) > 0.3)
        A = [[Fraction(int(v), HUGE_DEN) for v in row] for row in nums[:m]]
        x0 = [Fraction(int(v), 2) for v in rng.integers(0, 5, size=n)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
        # cap the total through a slack column so the optimum stays finite
        A = [row + [0] for row in A] + [[1] * (n + 1)]
        b.append(sum(x0) + 3)
        yield A, b, [Fraction(int(v), HUGE_DEN) for v in nums[m]] + [0]


def test_huge_denominator_lps():
    for A, b, c in huge_denominator_lps():
        for sign in (1, -1):
            same_run(_lp_run(sparse(A), b, [sign * v for v in c]))


def growing_lps():
    """Bounded LPs with entries below 2**16 whose pivots soon make entries
    past ``ENTRY_BOUND``, as (A, b, c) lists."""
    rng = np.random.default_rng(2**31)
    for _ in range(30):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m + 1, 8))
        A = rng.integers(-2**16, 2**16, size=(m, n))
        x0 = rng.integers(0, 3, size=n)
        A2 = [[int(v) for v in row] + [0] for row in A] + [[1] * (n + 1)]
        b = [int(v) for v in A @ x0] + [int(x0.sum()) + 3]
        yield A2, b, [int(v) for v in rng.integers(-2**16, 2**16, size=n)] + [0]


def test_entries_past_the_int64_bound(monkeypatch):
    # the array starts as int64 and turns to Python ints at the first pivot
    # that leaves an entry past ENTRY_BOUND; the log is the dense kernel's
    pivot = Tableau._pivot
    kinds: list = []

    def watched(self, r, c):
        kinds.append(self.rows.dtype)
        pivot(self, r, c)

    monkeypatch.setattr(Tableau, "_pivot", watched)
    switched = 0
    for A, b, c in growing_lps():
        assert max(abs(v) for row in A for v in row) <= ENTRY_BOUND
        for sign in (1, -1):
            kinds.clear()
            same_run(_lp_run(sparse(A), b, [sign * v for v in c]))
            switched += kinds[0] == np.int64 and object in kinds
    assert switched == 60, switched


def _distance_run(h, q, monkeypatch):
    def run(kernel):
        with monkeypatch.context() as m:
            m.setattr(viewsets, "Tableau", kernel)
            res = viewsets._distance_exact(h, q)
        return res.lower, res.upper, res.nearest_channel.rows.tolist()
    return run


def test_exact_view_distance(erasure_pmf, monkeypatch):
    cases = distance_queries(erasure_pmf)
    pf = erasure_pmf.to_float()
    for seed in range(3):
        q = empirical_type(sample_iid(pf, 5000, seed=derive_seed(19, seed)))
        cases += [(ViewSetHandle(erasure_pmf, frozenset(aset)), q) for aset in ({0}, {1, 2})]
    for h, q in cases:
        same_run(_distance_run(h, q, monkeypatch))


def test_exact_view_distance_over_a_huge_denominator(monkeypatch):
    # P's common denominator is 2**61 + 1, and so is every view row's scale
    nums = [HUGE_DEN // 8] * 7
    mass = np.array([Fraction(v, HUGE_DEN) for v in nums + [HUGE_DEN - sum(nums)]], dtype=object)
    a = Alphabet.binary()
    base = JointPmf((a, a, a), mass.reshape(2, 2, 2))
    for seed in range(3):
        q = empirical_type(sample_iid(base.to_float(), 500, seed=derive_seed(61, seed)))
        for aset in ({0}, {1}, {0, 1}):
            same_run(_distance_run(ViewSetHandle(base, frozenset(aset)), q, monkeypatch))


def test_fallback_regions_of_the_ladder():
    fallbacks = 0
    for p, _, structure in _ladder():
        for col in filter(_needs_solving, nonintersecting_collections(structure)):
            region = Regions(p)[col]
            if region.pinned:
                continue
            start = _identity_start(region)

            def run(kernel):
                t = kernel(region.A, region.b, len(start), start=start)
                return positive_coordinates(t, range(len(start)), seeds=[start])

            same_run(run)
            fallbacks += 1
    assert fallbacks == 56


def _conflict_vertices(p, f, structure, kernel, monkeypatch):
    calls = []
    vertex = _Region.conflict_vertex

    def recorded(self, var_a, var_b):
        calls.append(vertex(self, var_a, var_b))
        return calls[-1]

    with monkeypatch.context() as m:
        m.setattr(viability, "Tableau", kernel)
        m.setattr(_Region, "conflict_vertex", recorded)
        report = check_viability(p, f, structure)
    return report.viable, calls


def test_conflict_vertices_on_the_nonviable_instances(monkeypatch, erasure_pmf,
                                                      erasure_f_uvw, threshold_3_2):
    instances = [*_ladder(), (erasure_pmf, erasure_f_uvw, threshold_3_2)]
    refuted = 0
    for p, f, structure in instances:
        viable = check_viability(p, f, structure).viable
        if viable:
            continue
        viable, vertices = same_run(
            lambda kernel: _conflict_vertices(p, f, structure, kernel, monkeypatch))
        assert not viable and len(vertices) == 1
        refuted += 1
    assert refuted == 20


def _seed_1_verdict_random_pass():
    wl = workloads.VerdictRandom(workloads.DEFAULT_SEED, workloads.load_expected())
    wl.setup()
    for op in wl.pass_ops(0):
        assert op.check(op.run()) is None


def test_pivots_touch_only_the_rows_with_the_pivot_column(monkeypatch):
    """Every pivot of the seed-1 ``verdict-random`` pass (its fallback regions
    and conflict vertices) leaves each row without the pivot column, and the
    pivot row, as they were; each row, the objective's included, stays
    primitive, and each basic row positive at its basic column."""
    pivot = Tableau._pivot
    pivots = []

    def checked(self, r, c):
        before = self.rows.copy()
        pivot(self, r, c)
        for i, (old, row) in enumerate(zip(before, self.rows, strict=True)):
            if i == r or not old[c]:
                assert np.array_equal(row, old)
            assert not row.any() or gcd(*row.tolist()) == 1
        for row, bi in zip(self.rows, self.basis):
            assert bi < 0 or row[bi] > 0
        pivots.append((r, c))

    monkeypatch.setattr(Tableau, "_pivot", checked)
    _seed_1_verdict_random_pass()
    assert len(pivots) == 456


PASS_PIVOTS = "02a8a60238a8974442433de79fba2e46cb82401844e11a185dce34658a08e981"


def test_seed_1_verdict_random_pass_pivots(monkeypatch):
    pivots = []
    pivot = Tableau._pivot

    def counted(self, r, c):
        pivots.append((r, c))
        pivot(self, r, c)

    monkeypatch.setattr(Tableau, "_pivot", counted)
    _seed_1_verdict_random_pass()
    # the (r, c) list of the tableaux left where the dual pins no region:
    # each pivots as the dense kernel did when the region rows were
    # Fractions, so integer rows must not move a pivot
    assert len(pivots) == 456
    assert workloads.digest(pivots) == PASS_PIVOTS


def test_seed_1_verdict_random_pass_routes(monkeypatch):
    # each region is settled by its rank mod 2 on bit rows, else by an
    # integer dual on its reduced rows, neither building a dict row, else by
    # the crash-started tableau, one per region; the dual pins every single
    # point, so only regions with free directions, their reach past the
    # identity's entries, reach the tableau
    routes = Counter()
    built = []
    tableaus = []

    class Routed(_Region):
        def __init__(self, *args):
            before = len(tableaus)
            super().__init__(*args)
            self.tableaus = len(tableaus) - before
            built.append(self)

    class Counted(Tableau):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tableaus.append(self)

    monkeypatch.setattr(viability, "_Region", Routed)
    monkeypatch.setattr(viability, "Tableau", Counted)
    _seed_1_verdict_random_pass()
    for region in built:
        route = region._route
        routes[route] += 1
        assert region.pinned == (route != "tableau") == ("A" not in vars(region))
        assert region.tableaus == (route == "tableau")
        ident = sum(w.identity_bits << off for w, off in zip(region.members, region.offsets))
        identity = {v for v in range(region.nvar) if ident >> v & 1}
        assert region.reach > identity if route == "tableau" else region.reach == identity
    assert routes == {"bits": 202, "dual": 119, "tableau": 4}
