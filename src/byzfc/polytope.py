"""Channel variables shared by the viability regions and the view-distance LPs.

Both LPs are built from per-letter adversary channels W(ux | tx) on the
coordinates of one adversary set.  ``ChannelVars`` numbers the entries of
one such channel, tabulates P's coefficient on each variable at each view
point as one numerator over a denominator shared by the whole law, emits
its sparse constraint rows and their mod-2 bit rows, and turns a solution
back into a ``Channel``.
``ChannelTables`` builds the tables of one law on first use.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

import numpy as np

from .probability import Channel, JointPmf, integer_mass, zero_mass


class ChannelVars:
    """The entries W(ux | tx) of one channel on ``coords``, as LP variables.

    Inputs tx range over the support of P's marginal on ``coords``
    (``rows``), outputs ux over every symbol tuple (``outs``).  Variables
    are numbered from 0 in (tx, ux) lexicographic order; a system holding
    several channels places this one at an ``offset`` that the row,
    identity and channel methods add.

    ``at[v]``, for each view point v in ``product`` order over P's axes,
    holds one ``(tx, var, num)`` per input in ``rows`` order with
    num / ``den`` = P(v with ``coords`` replaced by tx) > 0; var is
    W(v's ``coords`` | tx).  P must be exact: num is an int and den the
    least common denominator of P (``ints``, from ``integer_mass``, when
    the caller has it).  The identity channel's view at each v, its one
    entry with tx = v's ``coords``, must be P(v) over den, or ValueError.

    The same rows as bits of Python ints, bit var for variable var, for
    mod-2 work without dicts: ``view_bits`` and ``odd_bits``, in ``at``
    order, hold each view's variables and those of them with an odd num;
    ``sum_bits`` holds each input's variables in ``rows`` order and
    ``identity_bits`` the identity's.
    """

    def __init__(self, p: JointPmf, coords: tuple[int, ...],
                 ints: tuple[np.ndarray, int] | None = None):
        self.p = p
        self.coords = coords
        nums, self.den = integer_mass(p.mass) if ints is None else ints
        # P(v with coords <- tx) is moved[tx + rest] / den, rest being v's
        # other coordinates; entries are >= 0, so tx has marginal mass iff
        # one is > 0
        moved = np.moveaxis(nums, coords, range(len(coords)))
        pos = moved > 0
        self.outs = list(product(*(range(p.axes[c].size) for c in coords)))
        self.rows = [tx for tx in self.outs if pos[tx].any()]
        self.var = {key: i for i, key in enumerate(product(self.rows, self.outs))}
        self.size = len(self.var)
        others = [c for c in range(p.k) if c not in coords]
        # W(ux | tx) is variable first[tx] + out[ux]; the inputs with mass at
        # each rest, with their variables' bits at ux's index 0, are shared
        # by the view points that differ from one another only in ux
        width = len(self.outs)
        first = {tx: i * width for i, tx in enumerate(self.rows)}
        out = {ux: i for i, ux in enumerate(self.outs)}
        live: dict[tuple[int, ...], tuple[list, int, int]] = {}
        self.at: dict[tuple[int, ...], list] = {}
        self.view_bits: list[int] = []
        self.odd_bits: list[int] = []
        # P in product order, the order of v below
        law = p.mass.reshape(-1).tolist()
        for v, mass in zip(product(*(range(a.size) for a in p.axes)), law):
            rest = tuple(v[c] for c in others)
            if rest not in live:
                group = [(tx, first[tx], moved[tx + rest]) for tx in self.rows if pos[tx + rest]]
                live[rest] = (group, sum(1 << var for _, var, _ in group),
                              sum(1 << var for _, var, num in group if num & 1))
            group, bits, odd = live[rest]
            ux = tuple(v[c] for c in coords)
            shift = out[ux]
            self.at[v] = [(tx, var + shift, num) for tx, var, num in group]
            self.view_bits.append(bits << shift)
            self.odd_bits.append(odd << shift)
            ident = sum(num for tx, _, num in group if tx == ux)
            if ident * mass.denominator != mass.numerator * self.den:
                raise ValueError("the identity channel's view is not the law")
        self.sum_bits = [((1 << width) - 1) << var for var in first.values()]
        self.identity_bits = sum(1 << self.var[(tx, tx)] for tx in self.rows)

    def view_row(self, v: tuple[int, ...], sign: int = 1, offset: int = 0) -> dict:
        """``den`` times the induced view's mass at v, ``sign`` (1 or -1)
        times, as ``{var: num}``."""
        return {offset + var: sign * num for _, var, num in self.at[v]}

    def sum_rows(self, offset: int = 0) -> list[dict]:
        """One row per input: its outputs' entries sum to one."""
        return [{offset + self.var[(tx, ux)]: 1 for ux in self.outs} for tx in self.rows]

    def set_identity(self, x: list, offset: int = 0) -> None:
        """Write the identity channel into the solution vector x."""
        for tx in self.rows:
            x[offset + self.var[(tx, tx)]] = 1

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


class ChannelTables(dict):
    """The channel tables of one exact law, by coordinates, built on first use.

    P's integer numerators are computed once, for all of its tables.
    """

    def __init__(self, p: JointPmf):
        super().__init__()
        self.p = p
        self._ints: tuple[np.ndarray, int] | None = None

    def __missing__(self, coords: tuple[int, ...]) -> ChannelVars:
        if self._ints is None:
            self._ints = integer_mass(self.p.mass)
        table = self[coords] = ChannelVars(self.p, coords, self._ints)
        return table
