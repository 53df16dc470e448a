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

Laws and channels draw through one guide-table routine,
``probability.CdfTable.draw``.  It is tested against
``np.searchsorted(row, u, side="right")`` on its own: on rows with runs
of equal entries and entries on the guide's bucket edges, and on rows
whose every entry is on an edge, where the guide alone is the count, at
the uniforms on and next to every edge and entry.  A law of 4000 cells of
mass 10^-9 puts thousands of cells in one bucket; its blocks must equal
the reference, and a draw must search each row at most once.
"""

import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzfc import adversary, probability
from byzfc.adversary import (BlockSplit, Honest, MemorylessChannel, ResampleW, WitnessDMC,
                             attack, resample_w_channel, witness_to_dmc)
from byzfc.examples_lib import random_function, random_pmf
from byzfc.probability import (Alphabet, CdfTable, Channel, JointPmf, SampleBlock,
                               apply_pointwise, derive_seed, philox, sample_iid)
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
    rows = chan.rows.astype(np.float64).reshape(int(np.prod(sizes_in)), int(np.prod(sizes_out)))
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


def random_zero_channel(axes, rng) -> Channel:
    """Rows with some zero entries and some all-zero (identity) rows."""
    n = int(np.prod([a.size for a in axes]))
    weights = rng.integers(0, 4, size=(n, n))
    weights[rng.random((n, n)) < 0.4] = 0
    joint = np.array([[Fraction(int(w)) for w in row] for row in weights], dtype=object)
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
    def test_random_channels_match_the_row_compare(self):
        rng = philox(504)
        for p, seed in mixed_laws(40, 505):
            blk = sample_iid(p.to_float(), 900, seed)
            k = blk.k
            width = int(rng.integers(1, min(k, 2) + 1))
            coords = tuple(sorted(int(c) for c in rng.choice(k, size=width, replace=False)))
            chan = random_zero_channel(tuple(blk.axes[c] for c in coords), rng)
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
            chan = resample_w_channel((p.axes[pair[0]], p.axes[pair[1]]))
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
            tuple(law.axes[c] for c in sorted(wide)), rng))
        mem_pair = MemorylessChannel(random_zero_channel((ERASURE_AXIS, ERASURE_AXIS), rng))
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
    chan = Channel((a,), (a,), np.tile(np.array(mass, dtype=object), (len(mass), 1)))
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


@st.composite
def cumulative_rows(draw, count: int):
    """``count`` nondecreasing rows pinned to 1.0, of one width 1, 2, 2^j or
    2^j + 1, with runs of equal entries and entries on the guide's edges;
    in about half the draws every entry is on an edge (on the grid)."""
    j = draw(st.integers(1, 6))
    width = draw(st.sampled_from([1, 2, 2**j, 2**j + 1]))
    buckets = 1 << (width - 1).bit_length()
    edges = [b / buckets for b in range(buckets + 1)]
    entry = st.sampled_from(edges)
    if not draw(st.booleans()):
        entry = st.one_of(st.floats(0.0, 1.0), entry)
    rows = []
    for _ in range(count):
        inner = sorted(draw(st.lists(entry, min_size=width - 1, max_size=width - 1)))
        if inner and draw(st.booleans()):
            # a zero-mass run: one entry repeated
            at, run = sorted(draw(st.lists(st.integers(0, width - 2), min_size=2, max_size=2)))
            inner[at:run + 1] = [inner[at]] * (run + 1 - at)
        rows.append(inner + [1.0])
    return np.array(rows)


def edge_uniforms(cums: np.ndarray) -> np.ndarray:
    """0.0, every guide edge b/K, every entry and its float neighbours, and
    ``TOP_U``: all of them in [0, 1)."""
    buckets = 1 << (cums.shape[-1] - 1).bit_length()
    entries = np.unique(cums)
    u = np.concatenate([[0.0, TOP_U], np.arange(buckets) / buckets, entries,
                        np.nextafter(entries, 0.0), np.nextafter(entries, 1.0)])
    return u[(u >= 0.0) & (u < 1.0)]


def both_ways(table: CdfTable) -> list[CdfTable]:
    """The table, and when it is on the grid also a copy flagged off the
    grid, whose draw takes the compare-and-search path."""
    if not table.on_grid:
        return [table]
    off = copy.copy(table)
    object.__setattr__(off, "on_grid", False)
    return [off, table]


class TestGuideDraw:
    """``CdfTable.draw`` against ``np.searchsorted(row, u, side="right")``."""

    @settings(max_examples=150, deadline=None)
    @given(cumulative_rows(1), st.lists(st.floats(0.0, TOP_U), max_size=20))
    def test_a_law_row_counts_as_the_search(self, cums, extra):
        cum = cums[0]
        table = CdfTable(cum)
        guide = table.guide
        buckets = guide.shape[0]
        assert buckets >= cum.size and buckets & (buckets - 1) == 0 and buckets < 2 * cum.size
        assert np.array_equal(guide, np.searchsorted(cum, np.arange(buckets) / buckets,
                                                     side="right"))
        u = np.concatenate([edge_uniforms(cums), extra])
        want = np.searchsorted(cum, u, side="right")
        assert table.on_grid == (set((cum * buckets).tolist()) <= set(range(buckets + 1)))
        for way in both_ways(table):
            _assert_same(way.draw(u), want)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(cumulative_rows), st.data())
    def test_channel_rows_count_as_the_search(self, cums, data):
        table = CdfTable(cums)
        u = edge_uniforms(cums)
        rows = np.array(data.draw(st.lists(st.integers(0, len(cums) - 1), min_size=u.size,
                                           max_size=u.size)), dtype=np.int64)
        want = np.array([np.searchsorted(cums[r], x, side="right") for r, x in zip(rows, u)],
                        dtype=np.intp)
        buckets = table.guide.shape[-1]
        assert np.array_equal(table.guide, [np.searchsorted(row, np.arange(buckets) / buckets,
                                                            side="right") for row in cums])
        assert table.on_grid == (set((cums * buckets).reshape(-1).tolist())
                                 <= set(range(buckets + 1)))
        for way in both_ways(table):
            _assert_same(way.draw(u, rows), want)
            # every uniform in every row
            every = np.repeat(np.arange(len(cums)), u.size)
            _assert_same(way.draw(np.tile(u, len(cums)), every),
                         np.concatenate([np.searchsorted(row, u, side="right") for row in cums]))
            # an empty half of a split draws nothing (TestCellPath plays the
            # splits at fractions 0 and 1 end to end)
            _assert_same(way.draw(u[:0], rows[:0]), np.zeros(0, dtype=np.intp))


@st.composite
def decimal_rows(draw):
    """A channel's JSON rows: short decimals (digits 1 to 4) that sum to 1."""
    width, scale = draw(st.integers(1, 6)), 10 ** draw(st.integers(1, 4))
    rows = []
    for _ in range(width):
        cuts = sorted(draw(st.lists(st.integers(0, scale), min_size=width - 1,
                                    max_size=width - 1)))
        rows.append([(b - a) / scale for a, b in zip([0, *cuts], [*cuts, scale])])
    return rows


class TestExactChannelTables:
    """An exact channel's float form is the float64 table of its decimals."""

    @settings(max_examples=150, deadline=None)
    @given(decimal_rows())
    def test_tables_equal_the_float_rows(self, rows):
        axis = Alphabet.of_size(len(rows))
        chan = Channel.from_json_dict({"input_axes": [axis.symbols], "output_axes": [axis.symbols],
                                       "rows": [x for row in rows for x in row]})
        cdf = chan.to_float()
        cums = _pinned_cumsum(np.array(rows, dtype=np.float64))
        buckets = 1 << (len(rows) - 1).bit_length()
        guide = np.array([np.searchsorted(row, np.arange(buckets) / buckets, side="right")
                          for row in cums])
        for got, want in ((cdf.cums, cums), (cdf.guide, guide)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def clustered_law(big: int) -> JointPmf:
    """4000 cells of mass 10^-9 and, at index ``big``, one cell of the rest."""
    mass = [Fraction(1, 10**9)] * 4000
    mass.insert(big, 1 - sum(mass))
    return JointPmf((Alphabet.of_size(4001), Alphabet.of_size(1)), mass)


class _CountingSearch:
    """Stands in for ``np.searchsorted`` and counts its calls."""

    def __init__(self):
        self.calls, self.search = 0, np.searchsorted

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.search(*args, **kwargs)


class TestClusteredLaw:
    """Thousands of cells in one bucket: each draw is still exact, and the
    cells past the guide are searched once, not walked one entry a pass."""

    @pytest.mark.parametrize("big", [0, 2000, 4000])
    def test_blocks_match_the_reference(self, big):
        p = clustered_law(big)
        table = p.to_float()
        for seed in range(5):
            users, side = ref_sample(p, 5000, derive_seed(540, big, seed))
            blk = sample_iid(table, 5000, derive_seed(540, big, seed))
            _assert_same(blk.user_seqs, users)
            _assert_same(blk.side_seq, side)

    @pytest.mark.parametrize("big", [0, 4000])
    def test_the_crowded_bucket_takes_one_search(self, monkeypatch, big):
        p = clustered_law(big)
        cum = _pinned_cumsum(p.mass.astype(np.float64).reshape(1, -1))[0]
        # every letter in the bucket of the 4000 small cells
        lo = 0.0 if big == 4000 else cum[0]
        u = np.linspace(lo, min(lo + 4.1e-6, TOP_U), 5000)
        want = np.searchsorted(cum, u, side="right")
        table = p.to_float()
        search = _CountingSearch()
        monkeypatch.setattr(np, "searchsorted", search)
        monkeypatch.setattr(probability, "philox", lambda seed: _Uniforms(*u))
        _assert_same(sample_iid(table, u.size, seed=0).user_seqs[0], want)
        assert search.calls == 1

    def test_channel_rows_take_one_search_per_row(self, monkeypatch):
        rows = np.array([clustered_law(big).mass.astype(np.float64).reshape(-1)
                         for big in (0, 4000, 0)])
        cums = _pinned_cumsum(rows)
        table = CdfTable(cums)
        # row 1's small cells sit in its first bucket, row 0's in its last;
        # row 2's letters all stop at its first entry, past no guide
        u = np.concatenate([np.linspace(0.0, 4.1e-6, 100), np.linspace(cums[0, 0], TOP_U, 100),
                            np.linspace(0.0, 0.5, 100)])
        in_rows = np.repeat([1, 0, 2], 100)
        want = np.array([np.searchsorted(cums[r], x, side="right") for r, x in zip(in_rows, u)])
        search = _CountingSearch()
        monkeypatch.setattr(np, "searchsorted", search)
        _assert_same(table.draw(u, in_rows), want)
        assert search.calls == 2
