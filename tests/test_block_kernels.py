"""The per-trial block kernels against the formulas they replaced.

The references below are the earlier kernels, kept as oracles:

* ``sample_iid``: ``np.searchsorted`` over every cell's cumulative mass,
  then ``np.unravel_index`` and ``np.stack``;
* the memoryless channel: each letter's uniform compared with its input's
  whole cumulative row, an n x n_out array, then ``np.unravel_index``;
* a block's cells: ``np.ravel_multi_index``;
* ``apply_pointwise``: tuple indexing of the table;
* an attack: the adversary's coordinate rows, split by columns and passed
  through the memoryless reference, over blocks built from rows.

Each reference pins its cumulative sums to 1.0 from the row's last
positive entry on, as the kernels do, so the two must agree draw for
draw.  The zero-mass draws that pin rules out are tested on their own.
"""

from fractions import Fraction

import numpy as np
import pytest

from byzfc import adversary, probability
from byzfc.adversary import (BlockSplit, Honest, MemorylessChannel, ResampleW, WitnessDMC,
                             attack, resample_w_channel, witness_to_dmc)
from byzfc.examples_lib import random_function, random_pmf
from byzfc.probability import (Alphabet, Channel, JointPmf, SampleBlock, apply_pointwise,
                               derive_seed, philox, sample_iid)
from byzfc.viability import check_s_viability


def _pinned_cumsum(rows: np.ndarray) -> np.ndarray:
    cums = np.cumsum(rows, axis=1)
    for cum, row in zip(cums, rows):
        cum[np.flatnonzero(row > 0)[-1]:] = 1.0
    return cums


def ref_sample(p: JointPmf, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    cum = _pinned_cumsum(p.mass.astype(np.float64).reshape(1, -1))[0]
    flat_idx = np.searchsorted(cum, philox(seed).random(n), side="right")
    idx = np.unravel_index(flat_idx, p.mass.shape)
    k = p.k - 1
    return np.stack([idx[i].astype(np.int64) for i in range(k)]), idx[k].astype(np.int64)


def ref_memoryless(chan: Channel, coords, block: SampleBlock, seed: int) -> np.ndarray:
    sizes_in = tuple(a.size for a in chan.input_axes)
    sizes_out = tuple(a.size for a in chan.output_axes)
    rows = chan.to_float().rows.reshape(int(np.prod(sizes_in)), int(np.prod(sizes_out)))
    cums = _pinned_cumsum(rows)
    in_seq = np.ravel_multi_index(tuple(block.user_seqs[c] for c in coords), sizes_in)
    u = philox(seed).random(block.n)
    out_flat = (cums[in_seq] <= u[:, None]).sum(axis=1)
    out_idx = np.unravel_index(out_flat, sizes_out)
    users = block.user_seqs.copy()
    for pos, c in enumerate(coords):
        users[c] = out_idx[pos].astype(np.int64)
    return users


def ref_cells(block: SampleBlock) -> np.ndarray:
    return np.ravel_multi_index(tuple(block.user_seqs) + (block.side_seq,),
                                tuple(a.size for a in block.axes))


def ref_pointwise(fn, block: SampleBlock) -> np.ndarray:
    return fn.table[tuple(block.user_seqs) + (block.side_seq,)]


def _assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def mixed_laws(count: int, master: int):
    """(law, seed) pairs: k = 1..4 users, axis sizes 1..4, some cells zero."""
    rng = philox(master)
    for t in range(count):
        k = 1 + t % 4
        sizes = tuple(int(s) for s in rng.integers(1, 5, size=k + 1))
        law = random_pmf(sizes, seed=derive_seed(master, t), zero_frac=0.4)
        yield law, derive_seed(master, "s", t)


def random_zero_channel(axes, rng, exact: bool) -> Channel:
    """Rows with some zero entries and some all-zero (identity) rows."""
    n = int(np.prod([a.size for a in axes]))
    weights = rng.integers(0, 4, size=(n, n))
    weights[rng.random((n, n)) < 0.4] = 0
    if exact:
        joint = np.array([[Fraction(int(w)) for w in row] for row in weights],
                         dtype=object)
    else:
        joint = weights.astype(np.float64)
    return Channel.from_joint(axes, axes, joint)


class TestSampling:
    def test_blocks_match_the_unravel_formula(self):
        for p, seed in mixed_laws(60, 501):
            n = int(philox(seed).integers(1, 3000))
            blk = sample_iid(p.to_float(), n, seed)
            users, side = ref_sample(p, n, seed)
            _assert_same(blk.user_seqs, users)
            _assert_same(blk.side_seq, side)

    def test_cells_and_pointwise_match_the_index_formulas(self):
        for p, seed in mixed_laws(60, 502):
            blk = sample_iid(p.to_float(), 700, seed)
            _assert_same(blk.cells, ref_cells(blk))
            fn = random_function(p, 3, seed=derive_seed(seed, "f"))
            _assert_same(apply_pointwise(fn, blk), ref_pointwise(fn, blk))


class TestMemoryless:
    @pytest.mark.parametrize("exact", [False, True])
    def test_random_channels_match_the_row_compare(self, exact):
        rng = philox(503 + exact)
        for p, seed in mixed_laws(40, 504 + exact):
            blk = sample_iid(p.to_float(), 900, seed)
            k = blk.k
            width = int(rng.integers(1, min(k, 2) + 1))
            coords = tuple(sorted(int(c) for c in rng.choice(k, size=width, replace=False)))
            chan = random_zero_channel(tuple(blk.axes[c] for c in coords), rng, exact)
            got = attack(MemorylessChannel(chan), frozenset(coords), blk, seed + 1)
            _assert_same(got.user_seqs, ref_memoryless(chan, coords, blk, seed + 1))
            _assert_same(got.cells, ref_cells(got))

    def test_witness_channels_match_the_row_compare(self):
        checked = 0
        for t in range(40):
            sizes = (2 + (t % 2), 2 + ((t // 2) % 2), 2 + ((t // 4) % 2))
            p = random_pmf(sizes, seed=derive_seed(3000, t), zero_frac=0.45, max_weight=1)
            f = random_function(p, 2, seed=derive_seed(4000, t))
            rep = check_s_viability(p, f, 1)
            if rep.viable:
                continue
            w = rep.witness
            blk = sample_iid(p.to_float(), 1500, derive_seed(505, t))
            for m, member in enumerate(w.collection):
                coords = tuple(sorted(member))
                chan = witness_to_dmc(w, m)
                got = attack(WitnessDMC(w, m), member, blk, derive_seed(506, t, m))
                _assert_same(got.user_seqs,
                             ref_memoryless(chan, coords, blk, derive_seed(506, t, m)))
            checked += 1
        assert checked >= 3

    def test_resample_channel_matches_the_row_compare(self, erasure_pmf):
        reordered = (Alphabet((1, "e", 0)), Alphabet(("x", 0, 1)), Alphabet.binary())
        laws = [erasure_pmf,
                JointPmf(reordered, random_pmf((3, 3, 2), seed=510, zero_frac=0.3).mass)]
        for t, p in enumerate(laws):
            pair = (p.k - 3, p.k - 2)
            chan = resample_w_channel((p.axes[pair[0]], p.axes[pair[1]])).to_float()
            for seed in range(5):
                blk = sample_iid(p.to_float(), 2000, derive_seed(507, t, seed))
                got = attack(ResampleW(), frozenset(pair), blk, derive_seed(508, t, seed))
                _assert_same(got.user_seqs,
                             ref_memoryless(chan, pair, blk, derive_seed(508, t, seed)))


def ref_attack(strategy, aset, block: SampleBlock, seed: int) -> np.ndarray:
    """The reported user rows, by the row formulas: a split cuts the
    columns, every channel is the memoryless reference on the rows."""
    coords = tuple(sorted(aset))
    if isinstance(strategy, Honest) or not coords:
        return block.user_seqs
    if isinstance(strategy, BlockSplit):
        n1 = int(np.floor(strategy.fraction * block.n))
        parts = []
        for i, (sub, cols) in enumerate(((strategy.first, slice(None, n1)),
                                         (strategy.second, slice(n1, None)))):
            half = SampleBlock(block.axes, block.user_seqs[:, cols], block.side_seq[cols])
            parts.append(ref_attack(sub, aset, half, derive_seed(seed, "split", i)))
        return np.concatenate(parts, axis=1)
    if isinstance(strategy, WitnessDMC):
        chan = witness_to_dmc(strategy.witness, strategy.scenario)
    elif isinstance(strategy, ResampleW):
        chan = resample_w_channel(tuple(block.axes[c] for c in coords))
    else:
        chan = strategy.channel
    return ref_memoryless(chan, coords, block, seed)


ERASURE_AXIS = Alphabet((0, 1, "e"))


def cell_path_laws(master: int):
    """(law, pair, witness) for k = 2..4 users and axis sizes 1..3, some cells
    zero: the resampler's pair of user axes carries (0, 1, "e").  Per k, three
    laws, the first non-viable one at threshold 1 with its witness, else None."""
    rng = philox(master)
    for k in (2, 3, 4):
        kept, witnessed = 0, False
        for t in range(400):
            sizes = [int(s) for s in rng.integers(1, 4, size=k + 1)]
            pair = tuple(sorted(int(c) for c in rng.choice(k, size=2, replace=False)))
            for c in pair:
                sizes[c] = 3
            mass = random_pmf(tuple(sizes), seed=derive_seed(master, k, t), zero_frac=0.4).mass
            axes = [ERASURE_AXIS if c in pair else Alphabet.of_size(s)
                    for c, s in enumerate(sizes)]
            law = JointPmf(axes, mass)
            witness = None
            if not witnessed:
                f = random_function(law, 3, seed=derive_seed(master, "f", k, t))
                witness = check_s_viability(law, f, 1).witness
            if witness is None and kept >= 2:
                continue
            witnessed = witnessed or witness is not None
            kept += 1
            yield law, pair, witness
            if kept == 3 and witnessed:
                break


class TestCellPath:
    """Every strategy rewrites cells as the row formulas rewrite rows."""

    def strategies(self, law, pair, witness, rng):
        k = law.k - 1
        width = int(rng.integers(1, k + 1))
        wide = frozenset(int(c) for c in rng.choice(k, size=width, replace=False))
        both = frozenset(pair)
        mem_wide = MemorylessChannel(random_zero_channel(
            tuple(law.axes[c] for c in sorted(wide)), rng, exact=False))
        mem_pair = MemorylessChannel(random_zero_channel((ERASURE_AXIS, ERASURE_AXIS), rng,
                                                         exact=True))
        yield frozenset(), Honest()
        yield wide, Honest()
        yield wide, mem_wide
        yield both, ResampleW()
        yield both, BlockSplit(BlockSplit(ResampleW(), mem_pair, 0.0),
                               BlockSplit(Honest(), ResampleW(), 1.0), 0.37)
        yield both, BlockSplit(mem_pair, BlockSplit(ResampleW(), Honest(), 1.0), 1.0)
        if witness is not None:
            for m, member in enumerate(witness.collection):
                dmc = WitnessDMC(witness, m)
                yield member, dmc
                yield member, BlockSplit(BlockSplit(dmc, Honest(), 0.0), dmc, 0.5)

    def test_reported_blocks_match_the_row_formulas(self):
        rng, witnesses = philox(521), 0
        for t, (law, pair, witness) in enumerate(cell_path_laws(520)):
            witnesses += witness is not None
            pf, sizes = law.to_float(), tuple(a.size for a in law.axes)
            for s, (aset, strategy) in enumerate(self.strategies(law, pair, witness, rng)):
                blk = sample_iid(pf, int(rng.integers(1, 600)), derive_seed(522, t, s))
                got = attack(strategy, aset, blk, derive_seed(523, t, s))
                users = ref_attack(strategy, aset, blk, derive_seed(523, t, s))
                _assert_same(got.user_seqs, users)
                _assert_same(got.side_seq, blk.side_seq)
                _assert_same(got.cells,
                             np.ravel_multi_index(tuple(users) + (blk.side_seq,), sizes))
        assert witnesses == 3


# cells whose floats sum to 1 - 2**-53, then a zero-mass cell
SHORT_LAW = [Fraction(w, 27) for w in (7, 5, 6, 3, 6, 0)]
TOP_U = np.nextafter(1.0, 0.0)   # the largest value Generator.random returns


class _Uniforms:
    """Stands in for ``philox(seed)``: ``random(n)`` repeats fixed values."""

    def __init__(self, *values):
        self.values = np.array(values)

    def random(self, n):
        return np.resize(self.values, n)


def _sample_at(monkeypatch, mass, *uniforms) -> np.ndarray:
    monkeypatch.setattr(probability, "philox", lambda seed: _Uniforms(*uniforms))
    p = JointPmf((Alphabet.of_size(len(mass)), Alphabet.of_size(1)), mass)
    return sample_iid(p.to_float(), len(uniforms), seed=0).user_seqs[0]


def _channel_at(monkeypatch, mass, *uniforms) -> np.ndarray:
    """Each uniform drives a letter at every input, all rows of the channel ``mass``."""
    monkeypatch.setattr(adversary, "philox", lambda seed: _Uniforms(*uniforms))
    a, side = Alphabet.of_size(len(mass)), Alphabet.of_size(1)
    chan = Channel((a,), (a,), np.tile(np.asarray(mass, dtype=np.float64), (len(mass), 1)))
    users = np.repeat(np.arange(len(mass)), len(uniforms)).reshape(1, -1)
    blk = SampleBlock((a, side), users, np.zeros(users.size, dtype=np.int64))
    out = attack(MemorylessChannel(chan), frozenset({0}), blk, seed=0).user_seqs[0]
    return out.reshape(len(mass), len(uniforms))


class TestInverseCdfRule:
    def test_the_short_law_sums_short(self):
        cum = np.cumsum(np.asarray(SHORT_LAW, dtype=np.float64))
        assert cum[-1] == 1 - 2**-53 and cum[-1] <= TOP_U
        # the pin on the last entry alone hands TOP_U to the zero-mass cell
        cum[-1] = 1.0
        assert np.searchsorted(cum, TOP_U, side="right") == 5

    def test_sample_iid_never_draws_the_zero_mass_cell(self, monkeypatch):
        assert np.all(_sample_at(monkeypatch, SHORT_LAW, TOP_U) == 4)

    def test_memoryless_channel_never_draws_the_zero_mass_output(self, monkeypatch):
        assert np.all(_channel_at(monkeypatch, SHORT_LAW, TOP_U) == 4)

    def test_a_uniform_on_a_cumulative_sum_takes_the_next_cell(self, monkeypatch):
        # the first cell whose cumulative mass exceeds u; zero-mass cells never
        quarter = Fraction(1, 4)
        mass, uniforms = [0, quarter, 0, quarter, 2 * quarter], (0.0, 0.25, 0.5, TOP_U)
        want = [1, 3, 4, 4]
        assert list(_sample_at(monkeypatch, mass, *uniforms)) == want
        assert np.all(_channel_at(monkeypatch, mass, *uniforms) == want)
