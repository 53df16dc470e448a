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
from typing import Iterable, Sequence

import numpy as np

from .probability import Channel, JointPmf, ProbabilityError, apply_channel
from .simplex import LPError, Tableau

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    delta: float | Fraction
    nearest_channel: Channel | None

    @property
    def member_at_delta(self) -> bool:
        return self.distance <= self.delta

    def member_at(self, delta, slack: float = 0.0) -> bool:
        """Closed-ball membership at any radius; one solve serves all."""
        if isinstance(self.distance, Fraction):
            return self.distance <= delta
        return self.distance <= float(delta) + slack

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


def _lp_data(handle: ViewSetHandle, q: JointPmf, exact: bool):
    p = handle.base
    coords = handle.coords
    sizes = tuple(a.size for a in p.axes)
    marg = p.marginalize(coords)
    rows = [tx for tx in product(*(range(sizes[c]) for c in coords)) if marg.mass[tx] > 0]
    outs = list(product(*(range(sizes[c]) for c in coords)))
    nw = len(rows) * len(outs)
    views = list(product(*(range(s) for s in sizes)))
    nv = len(views)
    wvar = {(tx, ux): i for i, (tx, ux) in enumerate(product(rows, outs))}

    def p_at(v, tx):
        full = list(v)
        for pos, c in enumerate(coords):
            full[c] = tx[pos]
        return p.mass[tuple(full)]

    return p, coords, rows, outs, nw, views, nv, wvar, p_at


def distance_to_viewset(handle: ViewSetHandle, q: JointPmf,
                        mode: str = "auto", delta=0) -> MembershipResult:
    """min over channels W of TV(view(W), q), with an optimal channel.

    ``mode`` is "exact" (rational simplex), "float" (scipy HiGHS) or
    "auto" (exact iff both pmfs are exact).  One solve serves every
    radius; ``delta`` only seeds the result's member_at_delta flag.
    """
    if handle.base.axes != q.axes:
        raise ProbabilityError("query pmf axes do not match the base law")
    if mode == "auto":
        mode = "exact" if (handle.base.exact and q.exact) else "float"
    if not handle.coords:
        dist = handle.base.tv_distance(q) if mode == "exact" and handle.base.exact and q.exact \
            else handle.base.to_float().tv_distance(q.to_float())
        return MembershipResult(distance=dist, delta=delta, nearest_channel=None)
    if mode == "exact":
        return _distance_exact(handle, q, delta)
    return _distance_float(handle, q, delta)


def _distance_exact(handle: ViewSetHandle, q: JointPmf, delta=0) -> MembershipResult:
    handle.base.require_exact("exact view distance")
    q.require_exact("exact view distance")
    p, coords, rows, outs, nw, views, nv, wvar, p_at = _lp_data(handle, q, True)
    nvar = nw + 2 * nv
    A: list[list[Fraction]] = []
    b: list[Fraction] = []
    for vi, v in enumerate(views):
        row = [_ZERO] * nvar
        ux = tuple(v[c] for c in coords)
        for tx in rows:
            coef = p_at(v, tx)
            if coef > 0:
                row[wvar[(tx, ux)]] += coef
        row[nw + vi] = -_ONE
        row[nw + nv + vi] = _ONE
        A.append(row)
        b.append(q.mass[v])
    for tx in rows:
        row = [_ZERO] * nvar
        for ux in outs:
            row[wvar[(tx, ux)]] = _ONE
        A.append(row)
        b.append(_ONE)
    # start at the identity channel, whose view is P, with slacks P - q split
    # by sign; each identity column is alone in its row-sum row and each
    # slack alone in its view row, so the start columns are independent
    start = [_ZERO] * nvar
    for tx in rows:
        start[wvar[(tx, tx)]] = _ONE
    for vi, v in enumerate(views):
        gap = p.mass[v] - q.mass[v]
        start[nw + vi if gap > 0 else nw + nv + vi] = abs(gap)
    t = Tableau(A, b, start=start)
    c = [_ZERO] * nw + [Fraction(-1, 2)] * (2 * nv)
    dist = -t.maximize(c)
    sol = t.solution()
    chan = _channel_from_solution(handle, rows, outs, wvar, sol, exact=True)
    return MembershipResult(distance=dist, delta=delta, nearest_channel=chan)


def _distance_float(handle: ViewSetHandle, q: JointPmf, delta=0) -> MembershipResult:
    from scipy.optimize import linprog

    base = handle.base.to_float()
    qf = q.to_float()
    fh = ViewSetHandle(base, handle.adversary_set)
    p, coords, rows, outs, nw, views, nv, wvar, p_at = _lp_data(fh, qf, False)
    nvar = nw + 2 * nv
    A = np.zeros((nv + len(rows), nvar))
    b = np.zeros(nv + len(rows))
    for vi, v in enumerate(views):
        ux = tuple(v[c] for c in coords)
        for tx in rows:
            coef = p_at(v, tx)
            if coef > 0:
                A[vi, wvar[(tx, ux)]] += coef
        A[vi, nw + vi] = -1.0
        A[vi, nw + nv + vi] = 1.0
        b[vi] = qf.mass[v]
    for ri, tx in enumerate(rows):
        for ux in outs:
            A[nv + ri, wvar[(tx, ux)]] = 1.0
        b[nv + ri] = 1.0
    c = np.zeros(nvar)
    c[nw:] = 0.5
    res = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * nvar, method="highs")
    if not res.success:
        raise LPError(f"view-distance LP failed: {res.message}")
    dist = max(float(res.fun), 0.0)
    chan = _channel_from_solution(fh, rows, outs, wvar, res.x, exact=False)
    return MembershipResult(distance=dist, delta=delta, nearest_channel=chan)


def _channel_from_solution(handle: ViewSetHandle, rows, outs, wvar, sol, exact: bool) -> Channel:
    axes = tuple(handle.base.axes[c] for c in handle.coords)
    sizes = tuple(a.size for a in axes)
    n = int(np.prod(sizes))
    rowset = set(rows)
    if exact:
        mat = np.empty((n, n), dtype=object)
        mat[:] = _ZERO
    else:
        mat = np.zeros((n, n))
    for i, tx in enumerate(product(*(range(s) for s in sizes))):
        if tx in rowset:
            total = _ZERO if exact else 0.0
            for j, ux in enumerate(product(*(range(s) for s in sizes))):
                v = sol[wvar[(tx, ux)]]
                if not exact and v < 0:
                    v = 0.0  # solver round-off below the bound
                mat[i, j] = v
                total = total + v
            if not exact:
                # absorb solver round-off so the row is stochastic
                if total <= 0:
                    mat[i, i] = 1.0
                else:
                    mat[i] = mat[i] / total
        else:
            mat[i, i] = _ONE if exact else 1.0
    return Channel(axes, axes, mat.reshape(sizes + sizes))


def in_all_viewsets(handles: Sequence[ViewSetHandle], q: JointPmf,
                    delta: float | Fraction, mode: str = "auto",
                    slack: float = 0.0) -> list[int]:
    """Indices whose view set contains q within radius delta (closed balls)."""
    out = []
    for i, h in enumerate(handles):
        res = distance_to_viewset(h, q, mode=mode)
        thresh = delta if isinstance(res.distance, Fraction) else float(delta) + slack
        if res.distance <= thresh:
            out.append(i)
    return out
