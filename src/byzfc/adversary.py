"""Attack strategies: how a corrupted user set rewrites its reports.

An attack maps the true block to a reported block, altering only the
coordinates the adversary controls; honest coordinates and the decoder's
side information pass through bit-identical.  Strategies include the
identity, arbitrary per-letter channels, channels extracted from
viability violation witnesses (the converse construction), the worked
example's erasure-pattern resampler, and a two-regime splice for stressing
decoders that must not assume memoryless attacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import product
from typing import Union

import numpy as np

from .probability import (Alphabet, Channel, SampleBlock, cell_table, derive_seed,
                          flat_cells, json_number, philox, zero_mass)
from .viability import ViolationWitness


class AttackError(ValueError):
    """Strategy incompatible with the adversary set or alphabets."""


@dataclass(frozen=True)
class Honest:
    pass


@dataclass(frozen=True)
class MemorylessChannel:
    channel: Channel

    @cached_property
    def cdf(self) -> "_ChannelCdf":
        """The channel's cumulative tables, built on the first attack."""
        return _ChannelCdf.of(self.channel)


@dataclass(frozen=True)
class WitnessDMC:
    """Replay a violation witness's scenario channel as a memoryless attack."""

    witness: ViolationWitness
    scenario: int

    def __post_init__(self):
        if not 0 <= self.scenario < len(self.witness.collection):
            raise AttackError(f"witness scenario {self.scenario} out of range")

    @cached_property
    def channel(self) -> Channel:
        """The scenario channel, extracted from the witness joint once."""
        return witness_to_dmc(self.witness, self.scenario)

    @cached_property
    def cdf(self) -> "_ChannelCdf":
        """The channel's cumulative tables, built on the first attack."""
        return _ChannelCdf.of(self.channel)


@dataclass(frozen=True)
class ResampleW:
    """Erasure-pattern resampler for a two-coordinate adversary.

    When exactly one of the pair is an erasure, the unerased value u is
    kept and the pair is redrawn as (erase-first, u) or (u, erase-second)
    with probability 1/2 each; other inputs pass unchanged.
    """


@dataclass(frozen=True)
class BlockSplit:
    """Apply ``first`` to the initial floor(fraction*n) letters, ``second``
    to the rest.  The canonical non-memoryless stress attack."""

    first: "AttackStrategy"
    second: "AttackStrategy"
    fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise AttackError("split fraction must be in [0, 1]")


AttackStrategy = Union[Honest, MemorylessChannel, WitnessDMC, ResampleW, BlockSplit]


def witness_to_dmc(witness: ViolationWitness, scenario: int) -> Channel:
    """Scenario channel Q(reported | true) extracted from a witness joint.

    Rows at zero-probability inputs default to identity.
    """
    if not 0 <= scenario < len(witness.collection):
        raise AttackError("scenario index outside the witness collection")
    coords = witness.member_coords(scenario)
    block = witness.member_block(scenario)
    marg = witness.joint.marginalize(tuple(block) + coords)  # (tx..., ux...)
    axes = tuple(witness.joint.axes[c] for c in coords)
    n = int(np.prod([a.size for a in axes]))
    return Channel.from_joint(axes, axes, marg.mass.reshape(n, n))


def _erasure_symbol(axis: Alphabet) -> int:
    non_bits = [i for i, s in enumerate(axis.symbols) if s not in (0, 1, "0", "1")]
    if len(non_bits) != 1:
        raise AttackError("resampler needs one erasure symbol per coordinate")
    return non_bits[0]


def resample_w_channel(axes: tuple[Alphabet, Alphabet], exact: bool = True) -> Channel:
    """The erasure-pattern resampling channel on a coordinate pair."""
    if len(axes) != 2:
        raise AttackError("resampler acts on exactly two coordinates")
    # every symbol but the erasure is a bit, whose label the partner's axis
    # must also carry
    e1, e2 = _erasure_symbol(axes[0]), _erasure_symbol(axes[1])
    n1, n2 = axes[0].size, axes[1].size
    half = Fraction(1, 2)  # stored as 0.5 in a float array
    rows = zero_mass((n1, n2, n1, n2), exact)
    for a, b in product(range(n1), range(n2)):
        if a == e1 and b != e2:
            rows[a, b, e1, b] = half
            rows[a, b, axes[0].index(axes[1].symbols[b]), e2] = half
        elif b == e2 and a != e1:
            rows[a, b, e1, axes[1].index(axes[0].symbols[a])] = half
            rows[a, b, a, e2] = half
        else:
            rows[a, b, a, b] = 1
    return Channel(axes, axes, rows)


@dataclass(frozen=True)
class _ChannelCdf:
    """A channel's inverse-CDF tables, built once per channel.

    ``cums[i, j]``, input i's cumulative mass up to output cell j, is
    pinned to 1.0 from the row's last positive entry on, so no uniform
    lands on a zero-mass cell after it.  A 0 entry counts for every
    uniform in [0, 1) and a 1 for none, so only the output cells with an
    entry strictly between depend on the draw: ``columns`` holds their
    entries, one row per output cell, and ``base[i]`` counts input i's
    zero entries among the other cells.
    """

    in_sizes: tuple[int, ...]
    base: np.ndarray
    columns: np.ndarray
    out_cells: np.ndarray

    @staticmethod
    def of(chan: Channel) -> "_ChannelCdf":
        in_sizes = tuple(a.size for a in chan.input_axes)
        rows = np.asarray(chan.rows, dtype=np.float64).reshape(math.prod(in_sizes), -1)
        cums = np.cumsum(rows, axis=1)
        last = rows.shape[1] - 1 - np.argmax(rows[:, ::-1] > 0, axis=1)
        cums[np.arange(rows.shape[1]) >= last[:, None]] = 1.0
        drawn = ((cums > 0) & (cums < 1)).any(axis=0)
        return _ChannelCdf(in_sizes, (cums[:, ~drawn] == 0).sum(axis=1),
                           np.ascontiguousarray(cums[:, drawn].T),
                           cell_table(tuple(a.size for a in chan.output_axes)))


@cache
def _resample_cdf(axes: tuple[Alphabet, Alphabet]) -> _ChannelCdf:
    return _ChannelCdf.of(resample_w_channel(axes, exact=False))


def _apply_memoryless(cdf: _ChannelCdf, coords: tuple[int, ...], block: SampleBlock,
                      seed: int) -> SampleBlock:
    """Pass the coordinates through the channel letter by letter.

    Inverse CDF per letter: the reported output cell is the first whose
    cumulative mass in the true input's row exceeds the letter's
    ``philox(seed)`` uniform, which is the number of the row's entries
    <= that uniform.  The count is ``base`` plus one compare per output
    column that depends on the draw; it equals the count over the whole
    row, so each letter is the one a search of its input's row gives.
    Blocks are a pure function of (channel, block, seed), bit-for-bit.
    """
    in_seq = flat_cells([block.user_seqs[c] for c in coords], cdf.in_sizes)
    u = philox(seed).random(block.n)
    out_flat = np.take(cdf.base, in_seq)
    for col in cdf.columns:
        out_flat += np.take(col, in_seq) <= u
    out_idx = np.take(cdf.out_cells, out_flat, axis=1)
    return block.replace_users(dict(zip(coords, out_idx)))


def attack(strategy: AttackStrategy, adversary_set, true_block: SampleBlock,
           seed: int) -> SampleBlock:
    """Reported block under the strategy; deterministic given the seed.

    Coordinates outside the adversary set (and the side information) are
    returned bit-identical.
    """
    coords = tuple(sorted(adversary_set))
    for c in coords:
        if not 0 <= c < true_block.k:
            raise AttackError(f"adversary coordinate {c} out of range")
    if isinstance(strategy, Honest) or not coords:
        return true_block
    if isinstance(strategy, MemorylessChannel):
        chan = strategy.channel
        if tuple(chan.input_axes) != tuple(true_block.axes[c] for c in coords):
            raise AttackError("channel input axes do not match the adversary set")
        return _apply_memoryless(strategy.cdf, coords, true_block, seed)
    if isinstance(strategy, WitnessDMC):
        member_set = strategy.witness.collection[strategy.scenario]
        if frozenset(adversary_set) != member_set:
            raise AttackError("adversary set differs from the witness scenario")
        return _apply_memoryless(strategy.cdf, coords, true_block, seed)
    if isinstance(strategy, ResampleW):
        if len(coords) != 2:
            raise AttackError("resampler needs a two-coordinate adversary set")
        axes = (true_block.axes[coords[0]], true_block.axes[coords[1]])
        return _apply_memoryless(_resample_cdf(axes), coords, true_block, seed)
    if isinstance(strategy, BlockSplit):
        n1 = int(np.floor(strategy.fraction * true_block.n))
        first = SampleBlock(true_block.axes, true_block.user_seqs[:, :n1],
                            true_block.side_seq[:n1]) if n1 else None
        second = SampleBlock(true_block.axes, true_block.user_seqs[:, n1:],
                             true_block.side_seq[n1:]) if n1 < true_block.n else None
        parts = []
        if first is not None:
            parts.append(attack(strategy.first, adversary_set, first,
                                derive_seed(seed, "split", 0)))
        if second is not None:
            parts.append(attack(strategy.second, adversary_set, second,
                                derive_seed(seed, "split", 1)))
        users = np.concatenate([p.user_seqs for p in parts], axis=1)
        side = np.concatenate([p.side_seq for p in parts])
        return SampleBlock(true_block.axes, users, side)
    raise AttackError(f"unknown strategy {strategy!r}")


def strategy_from_json(d: dict, witness_lookup=None) -> AttackStrategy:
    """Parse a strategy spec; channels inline, witnesses via a resolver."""
    kind = d.get("kind")
    if kind == "honest":
        return Honest()
    if kind == "memoryless":
        return MemorylessChannel(Channel.from_json_dict(d["channel"]))
    if kind == "resample_w":
        return ResampleW()
    if kind == "witness_dmc":
        if witness_lookup is None:
            raise AttackError("witness_dmc needs a witness resolver")
        scenario = json_number(d, "scenario", integer=True, error=AttackError)
        return WitnessDMC(witness_lookup(d), scenario)
    if kind == "block_split":
        return BlockSplit(strategy_from_json(d["first"], witness_lookup),
                          strategy_from_json(d["second"], witness_lookup),
                          json_number(d, "fraction", 0.5, error=AttackError))
    raise AttackError(f"unknown strategy kind {kind!r}")
