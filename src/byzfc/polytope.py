"""Channel variables shared by the viability regions and the view-distance LPs.

Both LPs are built from per-letter adversary channels W(ux | tx) on the
coordinates of one adversary set.  ``ChannelVars`` numbers the entries of
one such channel, reads P's coefficients on them from one table of P's
numerators over a denominator shared by the whole law, builds their mod-2
bit rows at once and their integer view rows, the one table of those
coefficients, when read, as well as the view-distance LP on them, and
turns a solution back into a ``Channel``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Sequence

import numpy as np

from .probability import Channel, JointPmf, ProbabilityError, integer_mass, is_integer, zero_mass

INT64_MAX = np.iinfo(np.int64).max


def law_ints(p: JointPmf) -> tuple[np.ndarray, int]:
    """P's numerators as ints over their least common denominator; ValueError
    unless the identity channel's view, those numerators over it, is P."""
    nums, den = integer_mass(p.mass)
    if any(n * d != m * den for n, (m, d) in
           zip(nums.reshape(-1).tolist(), map(Fraction.as_integer_ratio, p.mass.flat))):
        raise ValueError("the identity channel's view is not the law")
    return nums, den


class ChannelVars:
    """The entries W(ux | tx) of one channel on ``coords``, as LP variables.

    ``coords`` are users of P, ints or numpy integers below ``p.k - 1``
    (the side information is no user's): any other raises ProbabilityError.
    Inputs tx range over the support of P's marginal on ``coords``
    (``rows``), outputs ux over every symbol tuple (``outs``).  Variables
    are numbered from 0 in (tx, ux) lexicographic order; a system holding
    several channels places this one at an ``offset`` that the row and
    channel methods add.  P must be exact, its numerators ints over
    ``den``, its least common denominator: ``ints``, from ``law_ints``
    (which checks them, once per law), when the caller has them.

    W(ux | tx)'s coefficient at view point v is P(v with ``coords``
    replaced by tx): it depends on tx and v's rest (its other coordinates)
    only, so one table by (tx, rest) serves every view.  Built at
    construction, as bits of Python ints (bit var for variable var):
    ``view_bits`` and ``odd_bits``, in ``product`` order over P's axes,
    hold each view's variables and those of them with an odd numerator;
    ``sum_bits`` each input's variables in ``rows`` order and
    ``identity_bits`` the identity's; ``inputs`` is each variable's tx.
    ``view_rows``, the coefficients as one integer array, is built on first
    read: row v's nonzero entries are the inputs of positive coefficient, at
    most one each, in ``rows`` order.
    """

    def __init__(self, p: JointPmf, coords: tuple[int, ...],
                 ints: tuple[np.ndarray, int] | None = None):
        for c in coords:
            if not (is_integer(c) and 0 <= c < p.k - 1):
                raise ProbabilityError(f"adversary coordinate {c!r} out of range")
        self.p = p
        self.coords = coords
        nums, self.den = law_ints(p) if ints is None else ints
        sizes = [a.size for a in p.axes]
        self.outs = list(product(*(range(sizes[c]) for c in coords)))
        width = len(self.outs)
        # P(v with coords <- tx) is table[tx's index, index of v's rest] / den;
        # entries are >= 0, so tx has marginal mass iff one is > 0
        order = [*coords, *(c for c in range(p.k) if c not in coords)]
        table = nums.transpose(order).reshape(width, -1)
        live = (table > 0).any(axis=1)
        self.rows = [tx for tx, on in zip(self.outs, live.tolist()) if on]
        self.var = {key: i for i, key in enumerate(product(self.rows, self.outs))}
        self.size = len(self.var)
        self.inputs = [tx for tx in self.rows for _ in self.outs]
        # each rest's numerators on the inputs in rows, and their variables'
        # bits at ux's index 0; view v, at table index i in product order,
        # has ux's index i // nrest and the rest's i % nrest
        self._rests = table[live].T.tolist()
        self._views = np.arange(table.size).reshape([sizes[c] for c in order]).transpose(
            [order.index(c) for c in range(p.k)]).reshape(-1).tolist()
        firsts, nrest = range(0, self.size, width), len(self._rests)
        bits = [sum(1 << f for f, n in zip(firsts, col) if n > 0) for col in self._rests]
        odd = [sum(1 << f for f, n in zip(firsts, col) if n & 1) for col in self._rests]
        self.view_bits = [bits[i % nrest] << i // nrest for i in self._views]
        self.odd_bits = [odd[i % nrest] << i // nrest for i in self._views]
        self.sum_bits = [((1 << width) - 1) << f for f in firsts]
        self.identity_bits = sum(1 << self.var[(tx, tx)] for tx in self.rows)

    @cached_property
    def view_rows(self) -> np.ndarray:
        """``den`` times each view's mass over the ``size`` variables, one row
        per view point in ``product`` order, as an integer array."""
        rests = np.array(self._rests)
        # by (v's index a in outs, rest r, input t, output u): rests[r, t] if u is a
        view = rests[None, :, :, None] * np.eye(len(self.outs), dtype=rests.dtype)[:, None, None]
        return view.reshape(-1, self.size)[self._views]

    @cached_property
    def _exact_lp(self):
        """The view-distance LP: integer matrix, start, objective.

        Variables are the channel's entries, then the view slacks below q and
        the view slacks above q, one each per view point.  Rows: ``den`` times
        the induced view minus q at each view point, that is ``view_rows`` on
        the channel entries and -den, den on the slacks (right-hand side den
        times q there, in ``product`` order, which is q's flat order), then the
        channel's row sums (right-hand side 1).
        """
        nv, size = len(self.view_rows), self.size
        # every numerator is at most den
        A = np.zeros((nv + len(self.rows), size + 2 * nv),
                     dtype=object if self.den > INT64_MAX else np.int64)
        A[:nv, :size] = self.view_rows
        A[range(nv), range(size, size + nv)] = -self.den
        A[range(nv), range(size + nv, size + 2 * nv)] = self.den
        A[nv:, :size] = np.repeat(np.eye(len(self.rows), dtype=np.int64), len(self.outs), axis=1)
        start = [self.identity_bits >> j & 1 for j in range(size)] + [0] * (2 * nv)
        return A, tuple(start), (0,) * size + (Fraction(-1, 2),) * (2 * nv)

    @cached_property
    def _float_lp(self):
        """The same LP for HiGHS: view rows over ``den``, row sums as they are;
        objective, then the row sums' right-hand side."""
        rows, nv = self._exact_lp[0].tolist(), len(self.view_rows)
        F = np.array([[num / self.den for num in row] for row in rows[:nv]] + rows[nv:],
                     dtype=np.float64)
        c = np.zeros(F.shape[1])
        c[self.size:] = 0.5
        return F, c, np.ones(len(self.rows))

    def channel(self, sol: Sequence, offset: int = 0) -> Channel:
        """The exact channel at a rational solution; inputs off P's support
        map to themselves."""
        axes = tuple(self.p.axes[c] for c in self.coords)
        n = len(self.outs)
        joint = zero_mass((n, n))
        rowset = set(self.rows)
        for i, tx in enumerate(self.outs):
            if tx in rowset:
                joint[i] = [sol[offset + self.var[(tx, ux)]] for ux in self.outs]
        return Channel.from_joint(axes, axes, joint)
