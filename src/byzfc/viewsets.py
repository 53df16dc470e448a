"""Adversary-inducible view distributions and membership tests.

For an adversary set A, the view set is every joint law on the reported
observations and side information reachable by some per-letter channel on
the A coordinates of the source law.  Membership of an observed type is
decided through the minimum total-variation distance to the view set,
computed by one linear program whose optimum serves every radius delta.
Two certified bounds bracket that distance without any LP, and
``DistanceScreen`` compares them with the radius in integers, in either
mode; the decoder solves the LP only when the radius falls between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .polytope import ChannelVars
from .probability import Channel, JointPmf, ProbabilityError, apply_channel, integer_mass
from .simplex import LPError, Tableau

INT64_MAX = np.iinfo(np.int64).max


def induce_view(p: JointPmf, adversary_set: Iterable[int], w: Channel | None) -> JointPmf:
    """View law induced when the adversary set reports through channel w."""
    coords = tuple(sorted(adversary_set))
    if not coords:
        return p
    if w is None:
        raise ProbabilityError("non-empty adversary set needs a channel")
    return apply_channel(p, coords, w)


@dataclass(frozen=True)
class ViewSetHandle:
    """The view set of one adversary set over an exact base law.

    What does not depend on the query is built once per handle, on first
    use: the view-distance LP, and its float matrix for float queries.
    """

    base: JointPmf
    adversary_set: frozenset[int]

    def __post_init__(self):
        self.base.require_exact("a view-set handle")
        for c in self.adversary_set:
            if not 0 <= c < self.base.k - 1:
                raise ProbabilityError(f"adversary coordinate {c} out of range")

    @property
    def coords(self) -> tuple[int, ...]:
        return tuple(sorted(self.adversary_set))

    @cached_property
    def _exact_lp(self):
        """The exact LP: channel table, sparse rows, view points, start, objective.

        Variables are the channel's entries, then the view slacks below q and
        the view slacks above q, one each per view point.  Rows: ``den`` times
        the induced view minus q at each view point, that is P's numerators on
        the channel entries and -den, den on the slacks (right-hand side den
        times q there, in ``product`` order, which is q's flat order), then the
        channel's row sums (right-hand side 1).
        """
        w = ChannelVars(self.base, self.coords)
        views = list(w.at)
        nv = len(views)
        rows = []
        for vi, v in enumerate(views):
            row = w.view_row(v)
            row[w.size + vi] = -w.den
            row[w.size + nv + vi] = w.den
            rows.append(row)
        rows.extend(w.sum_rows())
        start = [0] * (w.size + 2 * nv)
        w.set_identity(start)
        c = (0,) * w.size + (Fraction(-1, 2),) * (2 * nv)
        return w, rows, views, tuple(start), c

    @cached_property
    def _float_lp(self):
        """The same LP for HiGHS: view rows over ``den``, row sums as they are."""
        w, rows, views, _, _ = self._exact_lp
        A = np.zeros((len(rows), w.size + 2 * len(views)))
        for i, row in enumerate(rows):
            den = w.den if i < len(views) else 1
            for j, num in row.items():
                A[i, j] = num / den
        c = np.zeros(A.shape[1])
        c[w.size:] = 0.5
        return w, A, c, np.ones(len(rows) - len(views))


@dataclass(frozen=True)
class MembershipResult:
    distance: float | Fraction
    nearest_channel: Channel | None

    def verify(self, handle: ViewSetHandle, q: JointPmf) -> None:
        """Re-check that the nearest channel induces a view within distance."""
        if handle.coords:
            w = self.nearest_channel
            assert w is not None
            base = handle.base if w.exact else handle.base.to_float()
            view = induce_view(base, handle.adversary_set, w)
        else:
            view = handle.base
        gap = view.tv_distance(q)
        if isinstance(self.distance, Fraction) and isinstance(gap, Fraction):
            assert gap <= self.distance
        else:
            assert float(gap) <= float(self.distance) + 1e-7  # float solver tolerance


class DistanceScreen:
    """Certified bounds on each view set's distance, decided against one threshold in integers.

    Built once from an exact law P, the adversary sets and a threshold,
    taken exactly.  Upper: TV(P, type), the distance at the identity
    channel.  Lower, per set A: the TV gap between the marginals outside A,
    which no channel on A can move (data processing); for A = {} it is the
    distance.  The marginal cells of every set outside A, then all cells
    (the upper bound), are numbered in segments at ``starts``; ``cells``
    lists each marginal cell's cells, grouped at ``cuts``, so
    ``_marginals`` sums counts into them by one gather.  ``pm`` holds P's
    numerators there, over its common denominator ``pd``.  A bound is a
    segment's sum of ``|pm * n - marginal counts * pd|`` over ``2 * pd * n``.
    Every term and every segment sum is at most ``2 * pd * n`` in absolute
    value, so the differences are taken in int64 when that fits and in
    Python ints otherwise: either way the sums are exact.
    """

    def __init__(self, p: JointPmf, sets: Sequence[frozenset[int]], thresh):
        p.require_exact("the distance screen")
        shape, grid, cols, widths = p.mass.shape, np.indices(p.mass.shape).reshape(p.k, -1), [], []
        for s in (*sets, frozenset()):
            rest = [c for c in range(p.k) if c not in s]
            sizes = [shape[c] for c in rest]
            cols.append(sum(widths) + np.ravel_multi_index(grid[rest], sizes))
            widths.append(math.prod(sizes))
        col = np.concatenate(cols)
        order = np.argsort(col, kind="stable")
        self.size, self.cells = p.mass.size, order % p.mass.size
        self.cuts = np.searchsorted(col[order], np.arange(sum(widths)))
        self.starts = np.cumsum([0] + widths[:-1])
        pn, self.pd = integer_mass(p.mass)
        self.pm, self.thresh = self._marginals(pn.reshape(-1)), thresh
        # pm <= pd, so P's numerators fit int64 whenever 2 * pd * n does
        self.pm64 = self.pm.astype(np.int64) if 2 * self.pd <= INT64_MAX else None
        self.tn, self.td = Fraction(thresh).as_integer_ratio()

    def _marginals(self, cell_values: np.ndarray) -> np.ndarray:
        """Per-cell values summed into every segment's marginal cells."""
        return np.add.reduceat(cell_values[self.cells], self.cuts)

    def _numerators(self, counts: np.ndarray) -> tuple[list[int], int]:
        """Per set the lower bound's numerator, then the upper bound's, and
        their denominator, for the block with row-major cell ``counts``."""
        n = int(counts.sum())
        if counts.size != self.size or n < 1:
            raise ProbabilityError(
                f"{counts.size} counts summing to {n}: need one per cell, n >= 1")
        den, marg = 2 * self.pd * n, self._marginals(counts)
        if den <= INT64_MAX:
            gap = self.pm64 * n - marg.astype(np.int64, copy=False) * self.pd
        else:
            gap = self.pm * n - marg.astype(object) * self.pd
        return np.add.reduceat(np.abs(gap), self.starts).tolist(), den

    def bounds(self, counts: np.ndarray) -> list[tuple[Fraction, Fraction]]:
        """``(lower, upper)`` around each set's view distance of the block's type."""
        (*lower, upper), den = self._numerators(counts)
        return [(Fraction(v, den), Fraction(upper, den)) for v in lower]

    def decide(self, counts: np.ndarray) -> list[bool | None]:
        """Per set: False if the lower bound exceeds the threshold, True if the
        upper bound is at or below it, else None (only the LP can tell)."""
        (*lower, upper), den = self._numerators(counts)
        cut = self.tn * den
        accept = True if upper * self.td <= cut else None
        return [False if v * self.td > cut else accept for v in lower]


def distance_to_viewset(handle: ViewSetHandle, q: JointPmf) -> MembershipResult:
    """min over channels W of TV(view(W), q), with an optimal channel.

    q's arithmetic picks the engine, both reading the handle's exact rows:
    the rational simplex if q is exact, else scipy's HiGHS.  One solve
    serves every radius.
    """
    if handle.base.axes != q.axes:
        raise ProbabilityError("query pmf axes do not match the base law")
    if not handle.coords:
        return MembershipResult(distance=handle.base.tv_distance(q), nearest_channel=None)
    if q.exact:
        return _distance_exact(handle, q)
    return _distance_float(handle, q)


def _distance_exact(handle: ViewSetHandle, q: JointPmf) -> MembershipResult:
    p = handle.base
    w, rows, views, identity, c = handle._exact_lp
    nv = len(views)
    b = [w.den * q.mass[v] for v in views] + [1] * (len(rows) - nv)
    # start at the identity channel, whose view is P, with slacks P - q split
    # by sign; each identity column is alone in its row-sum row and each
    # slack alone in its view row, so the start columns are independent
    start = list(identity)
    for vi, v in enumerate(views):
        gap = p.mass[v] - q.mass[v]
        start[w.size + vi if gap > 0 else w.size + nv + vi] = abs(gap)
    t = Tableau(rows, b, len(start), start=start)
    dist = -t.maximize(c)
    return MembershipResult(distance=dist, nearest_channel=w.channel(t.solution()))


def _distance_float(handle: ViewSetHandle, q: JointPmf) -> MembershipResult:
    from scipy.optimize import linprog

    w, A, c, ones = handle._float_lp
    b = np.concatenate([q.mass.reshape(-1), ones])
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if not res.success:
        raise LPError(f"view-distance LP failed: {res.message}")
    dist = max(float(res.fun), 0.0)
    return MembershipResult(distance=dist, nearest_channel=w.channel(res.x))
