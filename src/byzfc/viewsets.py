"""Adversary-inducible view distributions and membership tests.

For an adversary set A, the view set is every joint law on the reported
observations and side information reachable by some per-letter channel on
the A coordinates of the source law.  Membership of an observed type is
decided through the minimum total-variation distance to the view set,
computed by one linear program whose optimum serves every radius delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable

import numpy as np

from .polytope import ChannelVars
from .probability import Channel, JointPmf, ProbabilityError, apply_channel
from .simplex import LPError, Tableau

_ZERO = Fraction(0)


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
    """The view set of one adversary set over a base law."""

    base: JointPmf
    adversary_set: frozenset[int]

    def __post_init__(self):
        for c in self.adversary_set:
            if not 0 <= c < self.base.k - 1:
                raise ProbabilityError(f"adversary coordinate {c} out of range")

    @property
    def coords(self) -> tuple[int, ...]:
        return tuple(sorted(self.adversary_set))

    def induce(self, w: Channel | None) -> JointPmf:
        return induce_view(self.base, self.adversary_set, w)


@dataclass(frozen=True)
class MembershipResult:
    distance: float | Fraction
    nearest_channel: Channel | None

    def verify(self, handle: ViewSetHandle, q: JointPmf, tol: float = 1e-7) -> None:
        """Re-check that the nearest channel induces a view within distance."""
        if handle.coords:
            assert self.nearest_channel is not None
            view = induce_view(handle.base, handle.adversary_set, self.nearest_channel)
        else:
            view = handle.base
        gap = view.tv_distance(q)
        if isinstance(self.distance, Fraction) and isinstance(gap, Fraction):
            assert gap <= self.distance
        else:
            assert float(gap) <= float(self.distance) + tol


def distance_to_viewset(handle: ViewSetHandle, q: JointPmf,
                        mode: str = "auto") -> MembershipResult:
    """min over channels W of TV(view(W), q), with an optimal channel.

    ``mode`` is "exact" (rational simplex), "float" (scipy HiGHS) or
    "auto" (exact iff both pmfs are exact).  One solve serves every
    radius.
    """
    if handle.base.axes != q.axes:
        raise ProbabilityError("query pmf axes do not match the base law")
    if mode == "auto":
        mode = "exact" if (handle.base.exact and q.exact) else "float"
    if not handle.coords:
        dist = handle.base.tv_distance(q) if mode == "exact" and handle.base.exact and q.exact \
            else handle.base.to_float().tv_distance(q.to_float())
        return MembershipResult(distance=dist, nearest_channel=None)
    if mode == "exact":
        return _distance_exact(handle, q)
    return _distance_float(handle, q)


def _distance_rows(w: ChannelVars, q: JointPmf):
    """Sparse rows and right-hand sides of the view-distance LP.

    Variables are the channel's entries, then the view slacks below q and
    the view slacks above q, one each per view point.  Rows: the induced
    view minus q at each view point, then the channel's row sums.
    """
    views = list(product(*(range(a.size) for a in q.axes)))
    nv = len(views)
    rows, rhs = [], []
    for vi, v in enumerate(views):
        row = w.view_row(v)
        row[w.size + vi] = -1
        row[w.size + nv + vi] = 1
        rows.append(row)
        rhs.append(q.mass[v])
    for row in w.sum_rows():
        rows.append(row)
        rhs.append(1)
    return rows, rhs, views


def _distance_exact(handle: ViewSetHandle, q: JointPmf) -> MembershipResult:
    handle.base.require_exact("exact view distance")
    q.require_exact("exact view distance")
    p = handle.base
    w = ChannelVars(p, handle.coords)
    rows, b, views = _distance_rows(w, q)
    nv = len(views)
    nvar = w.size + 2 * nv
    A = []
    for row in rows:
        dense = [_ZERO] * nvar
        for j, c in row.items():
            dense[j] = c
        A.append(dense)
    # start at the identity channel, whose view is P, with slacks P - q split
    # by sign; each identity column is alone in its row-sum row and each
    # slack alone in its view row, so the start columns are independent
    start = [_ZERO] * nvar
    w.set_identity(start)
    for vi, v in enumerate(views):
        gap = p.mass[v] - q.mass[v]
        start[w.size + vi if gap > 0 else w.size + nv + vi] = abs(gap)
    t = Tableau(A, b, start=start)
    c = [_ZERO] * w.size + [Fraction(-1, 2)] * (2 * nv)
    dist = -t.maximize(c)
    return MembershipResult(distance=dist, nearest_channel=w.channel(t.solution(), exact=True))


def _distance_float(handle: ViewSetHandle, q: JointPmf) -> MembershipResult:
    from scipy.optimize import linprog

    qf = q.to_float()
    w = ChannelVars(handle.base.to_float(), handle.coords)
    rows, rhs, views = _distance_rows(w, qf)
    nvar = w.size + 2 * len(views)
    A = np.zeros((len(rows), nvar))
    for i, row in enumerate(rows):
        for j, c in row.items():
            A[i, j] = c
    b = np.array(rhs, dtype=float)
    c = np.zeros(nvar)
    c[w.size:] = 0.5
    res = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * nvar, method="highs")
    if not res.success:
        raise LPError(f"view-distance LP failed: {res.message}")
    dist = max(float(res.fun), 0.0)
    return MembershipResult(distance=dist, nearest_channel=w.channel(res.x, exact=False))
