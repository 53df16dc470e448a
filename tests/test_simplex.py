"""Exact LP engine, cross-checked against scipy's HiGGS on random
equality-form instances and on known hand-solvable programs."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from byzfc.simplex import (Infeasible, LPError, Tableau, Unbounded, positive_coordinates,
                           unique_point)


def sparse(A):
    """Dense test matrix -> the solver's {column: coefficient} rows."""
    return [{j: v for j, v in enumerate(row) if v} for row in A]


def solve_lp(A, b, c, maximize=True):
    """Optimum and vertex of c.x subject to A x = b, x >= 0, from phase 1."""
    t = Tableau(A, b, len(c))
    sign = 1 if maximize else -1
    return sign * t.maximize([sign * v for v in c]), t.solution()


def test_known_small_lp():
    # max x + y  s.t.  x + 2y + s1 = 4, 3x + y + s2 = 6  ->  (8/5, 6/5), 14/5
    val, x = solve_lp(sparse([[1, 2, 1, 0], [3, 1, 0, 1]]), [4, 6], [1, 1, 0, 0])
    assert val == Fraction(14, 5)
    assert x[0] == Fraction(8, 5) and x[1] == Fraction(6, 5)


def test_minimization():
    val, x = solve_lp(sparse([[1, 1, -1]]), [2], [1, 0, 0], maximize=False)
    assert val == 0 and x[0] == 0


def test_infeasible_detected():
    with pytest.raises(Infeasible):
        solve_lp(sparse([[1, 1], [1, 1]]), [1, 2], [1, 0])


def test_rational_coefficients():
    A = [[Fraction(1, 3), Fraction(1, 6)]]
    val, x = solve_lp(sparse(A), [Fraction(1, 2)], [1, 0])
    assert val == Fraction(3, 2) and x[0] == Fraction(3, 2)


def test_degenerate_bland_terminates():
    # classic cycling-prone instance (Beale); Bland must terminate
    A = [
        [Fraction(1, 4), -60, Fraction(-1, 25), 9, 1, 0, 0],
        [Fraction(1, 2), -90, Fraction(-1, 50), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    b = [0, 0, 1]
    c = [Fraction(3, 4), -150, Fraction(1, 50), -6, 0, 0, 0]
    val, _ = solve_lp(sparse(A), b, c)
    assert val == Fraction(1, 20)


def random_lps():
    """Bounded integer LPs: a random system through a known point, plus a
    row capping the total through one slack column, as (A, b, c) lists."""
    rng = np.random.default_rng(123)
    for _ in range(150):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 8))
        A = rng.integers(-3, 4, size=(m, n))
        x0 = rng.integers(0, 3, size=n)
        b = A @ x0
        c = rng.integers(-4, 5, size=n)
        # bound the region so the maximum is finite
        A2 = np.vstack([np.hstack([A, np.zeros((m, 1), dtype=int)]),
                        np.ones((1, n + 1), dtype=int)])
        b2 = np.concatenate([b, [int(x0.sum()) + 4]])
        c2 = np.concatenate([c, [0]])
        yield ([[int(v) for v in row] for row in A2], [int(v) for v in b2],
               [int(v) for v in c2])


def fuzz_lps():
    """Bounded LPs with Fraction coefficients, as (A, b, c) lists."""
    rng = np.random.default_rng(321)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, 7))
        num = rng.integers(-6, 7, size=(m, n))
        den = rng.integers(1, 5, size=(m, n))
        A = [[Fraction(int(num[i, j]), int(den[i, j])) for j in range(n)]
             for i in range(m)]
        x0 = [Fraction(int(v), 2) for v in rng.integers(0, 5, size=n)]
        b = [sum(A[i][j] * x0[j] for j in range(n)) for i in range(m)]
        # cap the total through a slack column so the optimum stays finite
        A = [row + [Fraction(0)] for row in A]
        A.append([Fraction(1)] * n + [Fraction(1)])
        b.append(sum(x0) + 3)
        c = [Fraction(int(v), 3) for v in rng.integers(-6, 7, size=n)] + [Fraction(0)]
        yield A, b, c


def test_random_lps_match_scipy():
    for trial, (A, b, c) in enumerate(random_lps()):
        ref = linprog(-np.array(c), A_eq=np.array(A), b_eq=np.array(b),
                      bounds=[(0, None)] * len(c), method="highs")
        assert ref.status == 0
        val, x = solve_lp(sparse(A), b, c)
        assert abs(float(val) + ref.fun) < 1e-7, trial
        # vertex must satisfy the constraints exactly
        for row, rhs in zip(A, b):
            assert sum(Fraction(v) * xj for v, xj in zip(row, x)) == rhs
        assert all(v >= 0 for v in x)


def test_warm_restart_multiple_objectives():
    t = Tableau(sparse([[1, 1, 1]]), [1], 3)
    assert t.maximize([1, 0, 0]) == 1
    assert t.maximize([0, 1, 0]) == 1
    assert t.maximize([0, 0, -1]) == 0
    assert t.maximize([2, 2, 2]) == 2


def test_positive_coordinates_forced_zero():
    # x3 = 0 forced; x1, x2 free over the simplex
    t = Tableau(sparse([[1, 1, 0], [0, 0, 1]]), [1, 0], 3)
    assert positive_coordinates(t, [0, 1, 2]) == {0, 1}


def test_positive_coordinates_seeds_short_circuit():
    t = Tableau(sparse([[1, 1]]), [1], 2)
    seed = [Fraction(1, 2), Fraction(1, 2)]
    calls = []
    maximize = t.maximize
    t.maximize = lambda c: calls.append(c) or maximize(c)
    assert positive_coordinates(t, [0, 1], seeds=[seed]) == {0, 1} and calls == []


def test_redundant_rows_handled():
    # duplicated constraint leaves a basic artificial at zero
    val, x = solve_lp(sparse([[1, 1], [1, 1], [2, 2]]), [1, 1, 2], [1, 0])
    assert val == 1 and x[0] == 1


def test_unbounded_detected():
    with pytest.raises(Unbounded):
        solve_lp(sparse([[1, -1]]), [1], [0, 1])


def test_unbounded_leaves_the_tableau_usable():
    # x = y grow together without bound; s + t = 1 caps s
    t = Tableau(sparse([[1, -1, 0, 0], [0, 0, 1, 1]]), [0, 1], 4)
    with pytest.raises(Unbounded):
        t.maximize([0, 1, 0, 0])
    assert len(t.rows) == t.m
    assert t.maximize([0, 0, 1, 0]) == 1
    assert t.maximize([-1, 0, Fraction(1, 2), 0]) == Fraction(1, 2)
    x = t.solution()
    assert x[0] == x[1] == 0 and x[2] == 1 and x[3] == 0


def test_a_float_entry_is_refused():
    # a float is not truncated to an int: max 2 at x = (2, 0) is not lost
    with pytest.raises(LPError, match="rational"):
        Tableau([{0: 0.5, 1: 1}], [1], 2).maximize([1, 0])
    with pytest.raises(LPError, match="rational"):
        unique_point([{0: 0.5}], [1], [2])
    with pytest.raises(LPError, match="rational"):
        Tableau([{0: 1}], [1], 1).maximize([0.5])


@pytest.mark.parametrize("A, b, n", [
    ([{0: 1, 2: 1}], [1], 2),      # column past the last variable
    ([{-1: 1}], [1], 2),           # negative column
    ([{0: 1}], [1, 2], 2),         # more right-hand sides than rows
    ([{0: 1}, {1: 1}], [1], 2),    # more rows than right-hand sides
])
def test_malformed_rows_rejected(A, b, n):
    with pytest.raises(LPError):
        Tableau(A, b, n)


def test_rational_coefficient_fuzz_vs_scipy():
    for trial, (A, b, c) in enumerate(fuzz_lps()):
        val, x = solve_lp(sparse(A), b, c)
        Af = np.array([[float(v) for v in row] for row in A])
        bf = np.array([float(v) for v in b])
        cf = np.array([float(v) for v in c])
        ref = linprog(-cf, A_eq=Af, b_eq=bf, bounds=[(0, None)] * len(c),
                      method="highs")
        assert ref.status == 0, trial
        assert abs(float(val) + ref.fun) < 1e-6, trial
        for row, rhs in zip(A, b):
            assert sum(v * xj for v, xj in zip(row, x)) == rhs, trial


def test_degenerate_rhs_zero_blocks():
    # many zero right-hand sides: heavy degeneracy, Bland must cope
    rng = np.random.default_rng(654)
    for trial in range(40):
        n = 6
        A = [[int(v) for v in rng.integers(0, 3, size=n)] for _ in range(3)]
        b = [0, 0, 0]
        A.append([1] * n)
        b.append(1)
        try:
            val, x = solve_lp(sparse(A), b, [int(v) for v in rng.integers(-3, 4, size=n)])
        except Infeasible:
            continue
        for i in range(4):
            assert sum(Fraction(A[i][j]) * x[j] for j in range(n)) == b[i]


# -- crash start from a known feasible point ----------------------------------

def test_crash_start_basic_solution_is_the_start():
    A = [[1, 2, 1, 0], [3, 1, 0, 1]]
    x = [Fraction(2), Fraction(0), Fraction(2), Fraction(0)]
    t = Tableau(sparse(A), [4, 6], 4, start=x)
    assert t.solution() == x
    assert t.maximize([1, 1, 0, 0]) == Fraction(14, 5)


@pytest.mark.parametrize("A, b, x", [
    ([[1, 1]], [1], [2, 0]),                          # A x != b
    ([[1, 0, 0], [0, 1, 1]], [1, 1], [1, -1, 2]),     # a negative coordinate
    ([[1, 1, 0], [0, 0, 1]], [2, 0], [1, 1, 0]),      # dependent nonzero columns
    ([[1, 1], [1, 1]], [1, 2], [1, 0]),               # inconsistent dependent row
    ([[1, 1]], [1], [1, 0, 0]),                       # wrong length
])
def test_crash_start_rejects_a_bad_point(A, b, x):
    with pytest.raises(LPError):
        Tableau(sparse(A), b, len(A[0]), start=x)


def test_crash_start_drops_dependent_rows():
    t = Tableau(sparse([[1, 1], [1, 1], [2, 2]]), [1, 1, 2], 2, start=[1, 0])
    assert t.m == 1
    assert t.maximize([0, 1]) == 1


def test_crash_start_full_column_rank_needs_no_pivots(monkeypatch):
    # the start is the region's only point; the last row is dependent
    A = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, -1, 0], [0, 1, 0, 0], [1, 1, 1, 1]]
    x = [Fraction(1), Fraction(0), Fraction(1), Fraction(0)]
    t = Tableau(sparse(A), [1, 1, 0, 0, 2], 4, start=x)
    assert t.m == 4
    calls = []
    monkeypatch.setattr(Tableau, "_pivot", lambda self, r, c: calls.append((r, c)))
    assert positive_coordinates(t, range(4), seeds=[x]) == {0, 2} and calls == []


def test_crash_start_matches_phase1_on_random_lps():
    # start at the vertex phase 1 reaches, then compare both tableaux on
    # support detection and on random rational objectives
    rng = np.random.default_rng(77)
    for trial in range(120):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 8))
        A = [[int(v) for v in row] for row in rng.integers(-3, 4, size=(m, n))]
        x0 = rng.integers(0, 3, size=n)
        b = [sum(A[i][j] * int(x0[j]) for j in range(n)) for i in range(m)]
        A = sparse([row + [0] for row in A] + [[1] * (n + 1)])
        b = b + [int(x0.sum()) + 2]
        vertex = Tableau(A, b, n + 1).solution()
        crashed = Tableau(A, b, n + 1, start=vertex)
        assert crashed.solution() == vertex, trial
        phase1 = Tableau(A, b, n + 1)
        pos_c = positive_coordinates(crashed, range(n + 1))
        assert pos_c == positive_coordinates(phase1, range(n + 1)), trial
        for _ in range(3):
            c = [Fraction(int(v), int(d)) for v, d in
                 zip(rng.integers(-5, 6, n + 1), rng.integers(1, 4, n + 1))]
            assert crashed.maximize(c) == phase1.maximize(c), trial
