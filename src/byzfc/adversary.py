"""Attack strategies: how a corrupted user set rewrites its reports.

An attack rewrites the coordinates the adversary controls and nothing
else: honest coordinates and the decoder's side information pass through
bit-identical.  It works on the block's flat cells: each cell's
adversary input is read off a table, and the reported cell is the cell
moved by the output's offset minus the input's; a channel's output is
drawn per letter from its float form, ``Channel.to_float()``, the
``CdfTable`` type that laws are sampled from too.  Strategies include the
identity, arbitrary per-letter channels, channels extracted from
viability violation witnesses (the converse construction), the worked
example's erasure-pattern resampler, and a two-regime splice for
stressing decoders that must not assume memoryless attacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import product
from typing import Union

import numpy as np

from .examples_lib import resolve_example
from .probability import (MALFORMED, Alphabet, CdfTable, Channel, SampleBlock, cell_table,
                          derive_seed, json_number, philox, zero_mass)
from .viability import ViolationWitness, check_viability


class AttackError(ValueError):
    """Strategy incompatible with the adversary set or alphabets."""


@dataclass(frozen=True)
class Honest:
    pass


@dataclass(frozen=True)
class MemorylessChannel:
    channel: Channel

    @cached_property
    def cdf(self) -> CdfTable:
        """The channel's cumulative tables, built on the first attack."""
        return self.channel.to_float()


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
    def cdf(self) -> CdfTable:
        """The channel's cumulative tables, built on the first attack."""
        return self.channel.to_float()


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


def resample_w_channel(axes: tuple[Alphabet, Alphabet]) -> Channel:
    """The erasure-pattern resampling channel on a coordinate pair."""
    if len(axes) != 2:
        raise AttackError("resampler acts on exactly two coordinates")
    # every symbol but the erasure is a bit, whose label the partner's axis
    # must also carry
    e1, e2 = _erasure_symbol(axes[0]), _erasure_symbol(axes[1])
    n1, n2 = axes[0].size, axes[1].size
    half = Fraction(1, 2)
    rows = zero_mass((n1, n2, n1, n2))
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


@cache
def _resample_cdf(axes: tuple[Alphabet, Alphabet]) -> CdfTable:
    return resample_w_channel(axes).to_float()


def _reported(strategy: AttackStrategy, adversary_set: frozenset,
              axes: tuple[Alphabet, ...], in_seq: np.ndarray, seed: int) -> np.ndarray:
    """The adversary's reported flat cells over ``axes``.  A split recurses on
    both letter ranges, an empty one included; every other strategy but the
    identity plays a channel on exactly ``axes``: a letter's output cell is
    the first whose cumulative mass in the true input's row exceeds the
    letter's ``philox(seed)`` uniform, found by ``CdfTable.draw``.  Output
    cells are a pure function of (channel, in_seq, seed), bit-for-bit.
    """
    if isinstance(strategy, Honest):
        return in_seq
    if isinstance(strategy, BlockSplit):
        n1 = int(np.floor(strategy.fraction * in_seq.shape[0]))
        halves = ((strategy.first, in_seq[:n1]), (strategy.second, in_seq[n1:]))
        return np.concatenate([_reported(sub, adversary_set, axes, half,
                                         derive_seed(seed, "split", i))
                               for i, (sub, half) in enumerate(halves)])
    if (isinstance(strategy, WitnessDMC)
            and adversary_set != strategy.witness.collection[strategy.scenario]):
        raise AttackError("adversary set differs from the witness scenario")
    if isinstance(strategy, (MemorylessChannel, WitnessDMC)):
        if (strategy.channel.input_axes, strategy.channel.output_axes) != (axes, axes):
            raise AttackError("channel axes do not match the adversary set")
        cdf = strategy.cdf
    elif isinstance(strategy, ResampleW):
        cdf = _resample_cdf(axes)  # raises AttackError unless two coordinates
    else:
        raise AttackError(f"unknown strategy {strategy!r}")
    return cdf.draw(philox(seed).random(in_seq.shape[0]), in_seq)


@cache
def _rewrite_tables(sizes: tuple[int, ...], coords: tuple[int, ...]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """``(in_of, off)`` for blocks over ``sizes`` and an adversary on ``coords``.

    ``in_of[cell]`` is the cell's row-major index over the adversary's
    coordinates, and ``off[a]`` the part of a block cell that adversary
    index a contributes: sum of x_c * stride_c over the coordinates, x
    the unravelled a.  A cell whose adversary input is replaced by a is
    ``cell + off[a] - off[in_of[cell]]``.
    """
    adv_sizes = [sizes[c] for c in coords]
    strides = [math.prod(sizes[c + 1:]) for c in coords]
    in_of = np.ravel_multi_index(cell_table(sizes)[list(coords)], adv_sizes)
    off = np.asarray(strides, dtype=np.int64) @ cell_table(adv_sizes)
    for table in (in_of, off):
        table.setflags(write=False)
    return in_of, off


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
    in_of, off = _rewrite_tables(tuple(a.size for a in true_block.axes), coords)
    in_seq = np.take(in_of, true_block.cells)
    out_seq = _reported(strategy, frozenset(coords), tuple(true_block.axes[c] for c in coords),
                        in_seq, seed)
    moved = np.take(off, out_seq) - np.take(off, in_seq)
    return SampleBlock.from_cells(true_block.axes, true_block.cells + moved)


def _example_witness(ref) -> ViolationWitness:
    """The violation witness of the example function ``ref`` ('name:function').

    The verdict runs while a strategy is parsed but is not parsing, so a
    type fault inside it is re-raised as an internal error: it keeps its
    traceback instead of reading as malformed input.
    """
    if not ref:
        raise AttackError("witness_dmc needs from_example: 'name:function'")
    pmf, f, structure = resolve_example(ref)
    try:
        report = check_viability(pmf, f, structure)
    except MALFORMED as e:
        raise RuntimeError(f"checking {ref} failed") from e
    if report.viable:
        raise AttackError(f"{ref} is viable; no witness to extract")
    return report.witness


def strategy_from_json(d: dict) -> AttackStrategy:
    """Parse a strategy spec; channels inline, witnesses from their example."""
    kind = d.get("kind")
    if kind == "honest":
        return Honest()
    if kind == "memoryless":
        return MemorylessChannel(Channel.from_json_dict(d["channel"]))
    if kind == "resample_w":
        return ResampleW()
    if kind == "witness_dmc":
        scenario = json_number(d, "scenario", integer=True, error=AttackError)
        return WitnessDMC(_example_witness(d.get("from_example")), scenario)
    if kind == "block_split":
        return BlockSplit(strategy_from_json(d["first"]), strategy_from_json(d["second"]),
                          json_number(d, "fraction", 0.5, error=AttackError))
    raise AttackError(f"unknown strategy kind {kind!r}")
