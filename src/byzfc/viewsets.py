"""Adversary-inducible view distributions and membership tests.

For an adversary set A, the view set is every joint law on the reported
observations and side information reachable by some per-letter channel on
the A coordinates of the source law.  An observed type is a member when
its minimum total-variation distance to the view set is at most a radius
delta, decided exactly.  Two certified bounds bracket that distance
without any LP, and ``DistanceScreen`` compares them with the radius in
integers; the decoder solves the LP only when the radius falls between
them, and ``distance_to_viewset`` certifies the LP's answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .polytope import INT64_MAX, ChannelVars
from .probability import Channel, JointPmf, ProbabilityError, apply_channel, integer_mass
from .simplex import Tableau

CERT_BITS = 24     # the certificate's duals and channel are multiples of 2**-CERT_BITS


def induce_view(p: JointPmf, adversary_set: Iterable[int], w: Channel | None) -> JointPmf:
    """View law induced when the adversary set reports through channel w."""
    coords = tuple(sorted(adversary_set))
    if not coords:
        return p
    if w is None:
        raise ProbabilityError("non-empty adversary set needs a channel")
    return apply_channel(p, coords, w)


@dataclass(frozen=True)
class MembershipResult:
    """Exact bounds ``lower <= distance <= upper`` on a view-set distance; the
    view of the rational ``nearest_channel`` (None for A = {}) is at ``upper``.

    The channel is kept as the LP's solution, its entries over ``den`` on
    the variables of ``table``, and built only when asked for.
    """

    lower: Fraction
    upper: Fraction
    table: ChannelVars | None = None
    solution: Sequence = ()
    den: int = 1

    @property
    def nearest_channel(self) -> Channel | None:
        if self.table is None:
            return None
        return self.table.channel([Fraction(v, self.den) for v in self.solution])

    def verify(self, w: ChannelVars, q: JointPmf) -> None:
        """Re-check exactly that the nearest channel's view, through the
        table ``w`` of its set, lies at ``upper``."""
        view = induce_view(w.p, w.coords, self.nearest_channel)
        if not self.lower <= self.upper == view.tv_distance(q):
            raise AssertionError("the nearest channel's view is not at the upper bound")


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


def distance_to_viewset(w: ChannelVars, q: JointPmf, thresh) -> MembershipResult:
    """Exact bounds on min over channels W of TV(view(W), q), for an exact q
    and the channel table ``w`` of A's coordinates, that decide it against
    thresh: the lower one exceeds it or the upper one does not.  HiGHS
    solves the LP, and ``_certificate`` turns its duals and its channel,
    rounded to multiples of 2**-CERT_BITS, into the bounds; when thresh lies
    between them, or HiGHS fails, the rational simplex decides.
    """
    if w.p.axes != q.axes:
        raise ProbabilityError("query pmf axes do not match the base law")
    if not w.coords:
        dist = w.p.tv_distance(q)
        return MembershipResult(dist, dist)
    from scipy.optimize import linprog   # lazy: scipy's import costs more memory than decoding

    A, c, ones = w._float_lp
    b = np.concatenate([q.mass.reshape(-1).astype(np.float64), ones])
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if res.success:
        one, no = 1 << CERT_BITS, len(w.outs)
        chan = np.floor(np.clip(res.x[:w.size], 0, 1) * one).astype(np.int64).reshape(-1, no)
        top = chan.argmax(axis=1)
        chan[np.arange(len(chan)), top] += one - chan.sum(axis=1)
        g = np.clip(np.rint(res.eqlin.marginals[:len(w.view_rows)] * one), -one // 2, one // 2)
        if (chan >= 0).all():
            result = _certificate(w, q, chan.reshape(-1).tolist(), g.astype(np.int64).tolist())
            if result.lower > thresh or result.upper <= thresh:
                return result
    return _distance_exact(w, q)


def _certificate(w: ChannelVars, q: JointPmf, chan: list[int], g: list[int]) -> MembershipResult:
    """Bounds from integer view duals g, |g| <= 2**CERT_BITS / 2, and a channel
    whose rows sum to 2**CERT_BITS, both over 2**CERT_BITS; by weak duality
    sum_v g(v) q(v) - sum_tx max_ux sum_rest P(tx, rest) g(ux, rest) is at
    most the distance, and the channel's view is at least it.  The sums are
    taken in integers: P over ``w.den``, q over its common denominator.
    Every row and column sum of ``view_rows`` is at most ``den``, so g and
    the channel meet it in int64 when ``den << CERT_BITS`` fits, and in
    Python ints otherwise."""
    qn, qd = integer_mass(q.mass)
    one, no = 1 << CERT_BITS, len(w.outs)
    wide = np.int64 if w.den << CERT_BITS <= INT64_MAX else object
    rows, qs = w.view_rows.astype(wide, copy=False), qn.reshape(-1).tolist()
    worst = np.array(g, dtype=wide) @ rows
    view = (rows @ np.array(chan, dtype=wide)).tolist()
    gq = sum(gv * qv for gv, qv in zip(g, qs))
    gap = sum(abs(qd * x - w.den * one * qv) for x, qv in zip(view, qs))
    best = sum(worst.reshape(-1, no).max(axis=1).tolist())
    lower = Fraction(w.den * gq - qd * best, one * w.den * qd)
    upper = Fraction(gap, 2 * one * w.den * qd)
    return MembershipResult(lower, upper, w, chan, one)


def _distance_exact(w: ChannelVars, q: JointPmf) -> MembershipResult:
    A, identity, c = w._exact_lp
    nv = len(w.view_rows)
    qs, ps = q.mass.reshape(-1).tolist(), w.p.mass.reshape(-1).tolist()
    b = [w.den * x for x in qs] + [1] * len(w.rows)
    # start at the identity channel, whose view is P, with slacks P - q split
    # by sign; each identity column is alone in its row-sum row and each
    # slack alone in its view row, so the start columns are independent
    start = list(identity)
    for vi, (pv, qv) in enumerate(zip(ps, qs)):
        gap = pv - qv
        start[w.size + vi if gap > 0 else w.size + nv + vi] = abs(gap)
    t = Tableau(A, b, start=start)
    dist = -t.maximize(c)
    return MembershipResult(dist, dist, w, t.solution())
