"""Channel variables shared by the viability regions and the view-distance LPs.

Both LPs are built from per-letter adversary channels W(ux | tx) on the
coordinates of one adversary set.  ``ChannelVars`` numbers the entries of
one such channel, emits its sparse constraint rows and turns a solution
back into a ``Channel``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np

from .probability import Channel, JointPmf

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ChannelVars:
    """The entries W(ux | tx) of one channel on ``coords``, as LP variables.

    Inputs tx range over the support of P's marginal on ``coords``
    (``rows``), outputs ux over every symbol tuple (``outs``).  Variables
    are numbered from ``offset`` in (tx, ux) lexicographic order.
    """

    def __init__(self, p: JointPmf, coords: tuple[int, ...], offset: int = 0):
        self.p = p
        self.coords = coords
        marg = p.marginalize(coords)
        self.outs = list(product(*(range(p.axes[c].size) for c in coords)))
        self.rows = [tx for tx in self.outs if marg.mass[tx] > 0]
        self.var = {key: offset + i for i, key in enumerate(product(self.rows, self.outs))}
        self.size = len(self.var)

    def p_at(self, v: tuple[int, ...], tx: tuple[int, ...]):
        """P at the view point v with the channel's coordinates replaced by tx."""
        full = list(v)
        for pos, c in enumerate(self.coords):
            full[c] = tx[pos]
        return self.p.mass[tuple(full)]

    def view_row(self, v: tuple[int, ...], sign: int = 1) -> dict:
        """The induced view's mass at v, ``sign`` times, as ``{var: coef}``."""
        ux = tuple(v[c] for c in self.coords)
        row = {}
        for tx in self.rows:
            coef = self.p_at(v, tx)
            if coef > 0:
                row[self.var[(tx, ux)]] = sign * coef
        return row

    def sum_rows(self) -> list[dict]:
        """One row per input: its outputs' entries sum to one."""
        return [{self.var[(tx, ux)]: 1 for ux in self.outs} for tx in self.rows]

    def set_identity(self, x: list) -> None:
        """Write the identity channel into the solution vector x."""
        for tx in self.rows:
            x[self.var[(tx, tx)]] = _ONE

    def channel(self, sol: Sequence, exact: bool) -> Channel:
        """The channel at a solution; inputs off P's support map to themselves.

        Float solutions are clipped at zero and their rows renormalized,
        absorbing solver round-off.
        """
        axes = tuple(self.p.axes[c] for c in self.coords)
        sizes = tuple(a.size for a in axes)
        n = len(self.outs)
        if exact:
            mat = np.empty((n, n), dtype=object)
            mat[:] = _ZERO
        else:
            mat = np.zeros((n, n))
        rowset = set(self.rows)
        for i, tx in enumerate(self.outs):
            if tx not in rowset:
                mat[i, i] = _ONE if exact else 1.0
                continue
            vals = [sol[self.var[(tx, ux)]] for ux in self.outs]
            if exact:
                mat[i] = vals
                continue
            mat[i] = [0.0 if v < 0 else v for v in vals]
            total = sum(mat[i].tolist())
            if total <= 0:
                mat[i, i] = 1.0
            else:
                mat[i] = mat[i] / total
        return Channel(axes, axes, mat.reshape(sizes + sizes))
