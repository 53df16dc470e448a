"""Attack strategies: immutability of honest coordinates, law preservation,
witness channel extraction and converse indistinguishability."""

from fractions import Fraction

import numpy as np
import pytest

from byzfc import adversary
from byzfc.adversary import (AttackError, BlockSplit, Honest, MemorylessChannel,
                             ResampleW, WitnessDMC, attack, resample_w_channel,
                             strategy_from_json, witness_to_dmc)
from byzfc.examples_lib import random_function, random_pmf
from byzfc.probability import (Alphabet, Channel, JointPmf, ProbabilityError, SampleBlock,
                               apply_channel, derive_seed, empirical_type, philox, sample_iid,
                               tv_distance)
from byzfc.viability import ViolationWitness, check_s_viability
from byzfc.viewsets import induce_view

from test_viewsets import random_channel


@pytest.fixture(scope="module")
def uvw_witness(erasure_pmf, erasure_f_uvw):
    report = check_s_viability(erasure_pmf, erasure_f_uvw, 2)
    assert not report.viable
    return report.witness


def honest_block(erasure_pmf, n=2000, seed=0):
    return sample_iid(erasure_pmf.to_float(), n, seed=seed)


def uniform_channel(input_axes, output_axes):
    shape = tuple(a.size for a in input_axes + output_axes)
    out_cells = int(np.prod([a.size for a in output_axes]))
    return Channel(input_axes, output_axes, np.full(shape, Fraction(1, out_cells), dtype=object))


class TestBasicStrategies:
    def test_honest_identity(self, erasure_pmf):
        blk = honest_block(erasure_pmf)
        out = attack(Honest(), frozenset({1, 2}), blk, seed=1)
        assert out is blk

    def test_memoryless_identity_channel(self, erasure_pmf):
        blk = honest_block(erasure_pmf)
        w = Channel.identity((erasure_pmf.axes[1], erasure_pmf.axes[2]))
        out = attack(MemorylessChannel(w), frozenset({1, 2}), blk, seed=2)
        assert np.array_equal(out.user_seqs, blk.user_seqs)
        assert np.array_equal(out.side_seq, blk.side_seq)

    def test_deterministic_given_seed(self, erasure_pmf):
        blk = honest_block(erasure_pmf)
        a = attack(ResampleW(), frozenset({1, 2}), blk, seed=3)
        b = attack(ResampleW(), frozenset({1, 2}), blk, seed=3)
        c = attack(ResampleW(), frozenset({1, 2}), blk, seed=4)
        assert np.array_equal(a.user_seqs, b.user_seqs)
        assert not np.array_equal(a.user_seqs, c.user_seqs)

    def test_honest_coordinates_never_mutated(self, erasure_pmf):
        blk = honest_block(erasure_pmf, n=500)
        strategies = [ResampleW(), MemorylessChannel(
            Channel.identity((erasure_pmf.axes[1], erasure_pmf.axes[2])))]
        for s in strategies:
            for seed in range(25):
                out = attack(s, frozenset({1, 2}), blk, seed=seed)
                assert np.array_equal(out.user_seqs[0], blk.user_seqs[0])
                assert np.array_equal(out.side_seq, blk.side_seq)

    def test_channel_axis_mismatch(self, erasure_pmf):
        blk = honest_block(erasure_pmf, n=10)
        w = Channel.identity((erasure_pmf.axes[0],))
        with pytest.raises(AttackError):
            attack(MemorylessChannel(w), frozenset({1}), blk, seed=0)

    @pytest.mark.parametrize("sizes", [(3, 3), (3, 4)])
    def test_channel_output_axes_must_match(self, erasure_pmf, sizes):
        # a foreign output alphabet is refused, whether or not its size
        # matches the adversary's own
        blk = honest_block(erasure_pmf, n=10)
        ins = (erasure_pmf.axes[1], erasure_pmf.axes[2])
        w = uniform_channel(ins, tuple(Alphabet.of_size(s) for s in sizes))
        with pytest.raises(AttackError, match="axes"):
            attack(MemorylessChannel(w), frozenset({1, 2}), blk, seed=0)


class TestResampleW:
    def test_single_letter_law_preserved_exactly(self, erasure_pmf):
        w = resample_w_channel((erasure_pmf.axes[1], erasure_pmf.axes[2]))
        assert apply_channel(erasure_pmf, (1, 2), w) == erasure_pmf

    def test_empirical_type_stays_near_base(self, erasure_pmf):
        pf = erasure_pmf.to_float()
        fails = 0
        for seed in range(50):
            blk = sample_iid(pf, 10_000, seed=derive_seed(11, seed))
            rep = attack(ResampleW(), frozenset({1, 2}), blk, seed=derive_seed(12, seed))
            if tv_distance(empirical_type(rep), erasure_pmf) > 0.05:
                fails += 1
        assert fails == 0

    @pytest.mark.parametrize("strings", [True, False])
    def test_erasure_axes_channel(self, erasure_pmf, strings):
        # (u, w) with exactly one erasure goes to (erase-first, bit) or
        # (bit, erase-second), half each; every other pair stays put.  The
        # channel reads back from its JSON rows as "n/d" strings or as reals
        u_axis, w_axis = erasure_pmf.axes[1], erasure_pmf.axes[2]
        d = resample_w_channel((u_axis, w_axis)).to_json_dict()
        rows = d["rows"] if strings else [float(Fraction(v)) for v in d["rows"]]
        chan = Channel.from_json_dict({**d, "rows": rows})
        moves = {(0, "e3"): [(0, "e3"), ("e2", 0)], (1, "e3"): [(1, "e3"), ("e2", 1)],
                 ("e2", 0): [("e2", 0), (0, "e3")], ("e2", 1): [("e2", 1), (1, "e3")]}
        want = np.zeros((3, 3, 3, 3), dtype=object)
        for a, b in np.ndindex(3, 3):
            pair = (u_axis.symbols[a], w_axis.symbols[b])
            for x, y in moves.get(pair, [pair]):
                want[a, b, u_axis.index(x), w_axis.index(y)] = \
                    Fraction(1, 2) if pair in moves else 1
        assert chan.rows.tolist() == want.tolist()
        assert all(isinstance(v, Fraction) for v in chan.rows.reshape(-1))

    def test_cdf_tables_do_not_depend_on_the_arithmetic(self, erasure_pmf):
        # the attack's tables from the exact rows are those of their float64
        # rows: the cumulative sum pinned to 1.0 from the last positive entry
        chan = resample_w_channel(erasure_pmf.axes[1:3])
        rows = chan.rows.astype(np.float64).reshape(9, 9)
        cums = np.cumsum(rows, axis=1)
        for cum, row in zip(cums, rows):
            cum[np.flatnonzero(row > 0)[-1]:] = 1.0
        got = adversary._resample_cdf(tuple(erasure_pmf.axes[1:3]))
        assert got.cums.tobytes() == cums.tobytes()
        guide = [np.searchsorted(cum, np.arange(16) / 16, side="right") for cum in cums]
        assert np.array_equal(got.guide, guide)

    def test_bit_missing_from_the_partner_axis(self):
        with pytest.raises(ProbabilityError):
            resample_w_channel((Alphabet((0, "e")), Alphabet((0, 1, "e"))))

    def test_needs_two_coordinates(self, erasure_pmf):
        blk = honest_block(erasure_pmf, n=10)
        with pytest.raises(AttackError):
            attack(ResampleW(), frozenset({1}), blk, seed=0)


class TestMemorylessTypeConvergence:
    def test_joint_type_converges_to_pushforward(self, erasure_pmf):
        rng = philox(21)
        axes = (erasure_pmf.axes[1], erasure_pmf.axes[2])
        n9 = 9
        # exact rows push the law forward; the attack draws from their floats
        weights = rng.integers(1, 21, size=(n9, n9))
        rows = np.array([[Fraction(int(x), int(row.sum())) for x in row] for row in weights])
        w = Channel(axes, axes, rows.reshape(3, 3, 3, 3))
        target = apply_channel(erasure_pmf, (1, 2), w)
        table = erasure_pmf.to_float()
        fails = 0
        for seed in range(50):
            blk = sample_iid(table, 10_000, seed=derive_seed(31, seed))
            rep = attack(MemorylessChannel(w), frozenset({1, 2}), blk,
                         seed=derive_seed(32, seed))
            if tv_distance(empirical_type(rep), target) > 0.05:
                fails += 1
        assert fails == 0


class TestWitnessDMC:
    def test_extracted_channel_resamples_w(self, uvw_witness):
        m = list(uvw_witness.collection).index(frozenset({1, 2}))
        ch = witness_to_dmc(uvw_witness, m)
        a2, a3 = ch.input_axes
        e2, e3 = a2.index("e2"), a3.index("e3")
        flips = Fraction(0)
        for u in (0, 1):
            row_w0 = ch.rows[e2, a3.index(u)]          # true pattern W=0
            flips += row_w0[a2.index(u), e3]           # reported as W=1
            row_w1 = ch.rows[a2.index(u), e3]          # true pattern W=1
            flips += row_w1[e2, a3.index(u)]           # reported as W=0
        assert flips > 0

    def test_views_match_witness_view(self, uvw_witness, erasure_pmf):
        # re-verification oracle: the extracted channel's induced view must
        # equal the witness joint's view marginal, for every scenario
        k = uvw_witness.k
        view_marg = uvw_witness.joint.marginalize(tuple(range(k + 1)))
        for m in range(len(uvw_witness.collection)):
            ch = witness_to_dmc(uvw_witness, m)
            view = induce_view(erasure_pmf, uvw_witness.collection[m], ch)
            assert view == view_marg

    def test_identity_joint_gives_identity_channel(self, erasure_pmf):
        # fabricate a witness-like joint with tX = uX almost surely
        k = 3
        axes = tuple(erasure_pmf.axes) + (erasure_pmf.axes[0],)
        mass = np.empty(tuple(a.size for a in axes), dtype=object)
        mass[:] = Fraction(0)
        for idx in erasure_pmf.support_idx():
            mass[idx + (idx[0],)] = erasure_pmf.mass[idx]
        joint = JointPmf(axes, mass)
        w = ViolationWitness(collection=(frozenset({0}),), joint=joint,
                             point=(0, 0, 0, 0, 0), pair=(0, 0),
                             f_values=("x", "y"), k=k)
        ch = witness_to_dmc(w, 0)
        assert np.array_equal(ch.rows, Channel.identity((erasure_pmf.axes[0],)).rows)

    def test_scenario_set_must_match(self, uvw_witness, erasure_pmf):
        blk = honest_block(erasure_pmf, n=16)
        with pytest.raises(AttackError):
            attack(WitnessDMC(uvw_witness, 0), frozenset({1, 2}), blk, seed=0)

    def test_channel_axes_must_match_the_block(self, uvw_witness):
        # the witness's {1, 2} channel reads erasure symbols; this block's
        # coordinates 1 and 2 are ternary over other labels
        m = list(uvw_witness.collection).index(frozenset({1, 2}))
        blk = sample_iid(random_pmf((2, 3, 3, 3), seed=3).to_float(), 1000, seed=0)
        with pytest.raises(AttackError, match="axes"):
            attack(WitnessDMC(uvw_witness, m), frozenset({1, 2}), blk, seed=0)

    def test_channel_extracted_once(self, uvw_witness, erasure_pmf):
        m = list(uvw_witness.collection).index(frozenset({1, 2}))
        strategy = WitnessDMC(uvw_witness, m)
        ch, want = strategy.channel, witness_to_dmc(uvw_witness, m)
        assert strategy.channel is ch
        assert (ch.input_axes, ch.output_axes) == (want.input_axes, want.output_axes)
        assert np.array_equal(ch.rows, want.rows)
        blk = honest_block(erasure_pmf, n=500, seed=3)
        first = attack(strategy, frozenset({1, 2}), blk, seed=9)
        second = attack(strategy, frozenset({1, 2}), blk, seed=9)
        assert np.array_equal(first.user_seqs, second.user_seqs)
        # the same as replaying the freshly extracted channel
        fresh = attack(MemorylessChannel(want), frozenset({1, 2}), blk, seed=9)
        assert np.array_equal(first.user_seqs, fresh.user_seqs)

    @pytest.mark.parametrize("scenario", [-1, 2, 7])
    def test_scenario_index_out_of_range(self, uvw_witness, scenario):
        assert len(uvw_witness.collection) == 2
        with pytest.raises(AttackError, match="out of range"):
            WitnessDMC(uvw_witness, scenario)

    def test_indistinguishability_across_random_witnesses(self):
        # Figure-2 property on random non-viable threshold-1 instances
        checked = 0
        for t in range(60):
            sizes = (2 + (t % 2), 2 + ((t // 2) % 2), 2 + ((t // 4) % 2))
            p = random_pmf(sizes, seed=derive_seed(3000, t), zero_frac=0.45, max_weight=1)
            f = random_function(p, 2, seed=derive_seed(4000, t))
            rep = check_s_viability(p, f, 1)
            if rep.viable:
                continue
            w = rep.witness
            views = [induce_view(p, w.collection[m], witness_to_dmc(w, m))
                     for m in range(len(w.collection))]
            for v in views[1:]:
                assert v == views[0]
            checked += 1
        assert checked >= 3


class TestConverseAttackOnViableFunction:
    def test_matching_g_keeps_distortion_small(self, erasure_pmf, erasure_f_uv,
                                               uvw_witness, erasure_config):
        # the pattern-resampling converse channel breaks (U,V,W) but must
        # leave a viable target recoverable at honest-case rates
        from byzfc.decoder import decode
        from byzfc.probability import apply_pointwise, hamming_distortion
        m = list(uvw_witness.collection).index(frozenset({1, 2}))
        pf = erasure_pmf.to_float()
        ok = 0
        for seed in range(30):
            blk = sample_iid(pf, 4000, seed=derive_seed(950, seed))
            rep = attack(WitnessDMC(uvw_witness, m), frozenset({1, 2}), blk,
                         seed=derive_seed(951, seed))
            v = decode(erasure_config, rep)
            truth = apply_pointwise(erasure_f_uv, blk)
            if v.kind == "estimate" and hamming_distortion(v.estimate, truth) <= 0.05:
                ok += 1
            elif v.kind == "blame" and v.user in (1, 2):
                ok += 1
        assert ok >= 29


def per_half_reference(strategy, aset, blk, seed):
    """A split assembled from ``attack`` on each non-empty half block, with
    the seeds derived for its halves."""
    if not isinstance(strategy, BlockSplit):
        return attack(strategy, aset, blk, seed)
    n1 = int(np.floor(strategy.fraction * blk.n))
    parts = []
    for i, (sub, cols) in enumerate(((strategy.first, slice(None, n1)),
                                     (strategy.second, slice(n1, None)))):
        half = SampleBlock(blk.axes, blk.user_seqs[:, cols], blk.side_seq[cols])
        parts.append(per_half_reference(sub, aset, half, derive_seed(seed, "split", i))
                     if half.n else half)
    return SampleBlock(blk.axes, np.concatenate([p.user_seqs for p in parts], axis=1),
                       np.concatenate([p.side_seq for p in parts]))


class TestBlockSplit:
    def test_honest_halves_identical(self, erasure_pmf):
        blk = honest_block(erasure_pmf, n=101)
        out = attack(BlockSplit(Honest(), Honest(), 0.5), frozenset({1, 2}), blk, seed=0)
        assert np.array_equal(out.user_seqs, blk.user_seqs)

    def test_split_point_respected(self, erasure_pmf, uvw_witness):
        m = list(uvw_witness.collection).index(frozenset({1, 2}))
        blk = honest_block(erasure_pmf, n=1000, seed=13)
        strat = BlockSplit(Honest(), WitnessDMC(uvw_witness, m), 0.5)
        out = attack(strat, frozenset({1, 2}), blk, seed=5)
        assert np.array_equal(out.user_seqs[:, :500], blk.user_seqs[:, :500])
        assert np.array_equal(out.user_seqs[0], blk.user_seqs[0])
        assert np.array_equal(out.side_seq, blk.side_seq)

    def test_fraction_bounds(self):
        with pytest.raises(AttackError):
            BlockSplit(Honest(), Honest(), 1.5)

    @pytest.mark.parametrize("shape", ["0", "0.3", "1", "nested"])
    def test_matches_per_half_attacks(self, erasure_pmf, uvw_witness, shape):
        m = list(uvw_witness.collection).index(frozenset({1, 2}))
        axes = (erasure_pmf.axes[1], erasure_pmf.axes[2])
        dmc, mem = WitnessDMC(uvw_witness, m), MemorylessChannel(random_channel(axes, 41))
        if shape == "nested":
            strategy = BlockSplit(BlockSplit(ResampleW(), mem, 0.4),
                                  BlockSplit(Honest(), dmc, 0.7), 0.3)
        else:
            strategy = BlockSplit(dmc, ResampleW(), float(shape))
        for seed in range(4):
            blk = honest_block(erasure_pmf, n=1001, seed=derive_seed(42, seed))
            out = attack(strategy, frozenset({1, 2}), blk, seed=seed)
            want = per_half_reference(strategy, frozenset({1, 2}), blk, seed)
            for got, ref in ((out.user_seqs, want.user_seqs), (out.side_seq, want.side_seq)):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
            assert np.array_equal(out.user_seqs[0], blk.user_seqs[0])

    def test_empty_half_is_validated(self, erasure_pmf):
        blk = honest_block(erasure_pmf, n=10)
        foreign = uniform_channel((erasure_pmf.axes[0],), (erasure_pmf.axes[0],))
        for strategy in (BlockSplit(MemorylessChannel(foreign), Honest(), 0.0),
                         BlockSplit(Honest(), MemorylessChannel(foreign), 1.0)):
            with pytest.raises(AttackError, match="axes"):
                attack(strategy, frozenset({1}), blk, seed=0)

    def test_one_block_per_attack(self, erasure_pmf, uvw_witness, monkeypatch):
        # the acceptance strategies, and a nested split: the reported block
        # is the only block an attack checks, from rows or from cells, the
        # true block returned as is
        m = list(uvw_witness.collection).index(frozenset({1, 2}))
        dmc, both = WitnessDMC(uvw_witness, m), frozenset({1, 2})
        blk = honest_block(erasure_pmf, n=300)
        built, from_rows, from_cells = [], SampleBlock.__init__, SampleBlock.from_cells

        def counted_rows(block, *args):
            built.append(block)
            from_rows(block, *args)

        def counted_cells(axes, cells):
            built.append(from_cells(axes, cells))
            return built[-1]

        monkeypatch.setattr(SampleBlock, "__init__", counted_rows)
        monkeypatch.setattr(SampleBlock, "from_cells", counted_cells)
        for aset, strategy in ((frozenset(), Honest()), (both, ResampleW()),
                               (both, BlockSplit(Honest(), dmc, 0.5)),
                               (both, BlockSplit(BlockSplit(ResampleW(), dmc), Honest(), 0.3))):
            built.clear()
            out = attack(strategy, aset, blk, seed=1)
            assert len(built) <= 1 and (out is blk or built == [out])


class TestStrategyJson:
    HONEST = {"kind": "honest"}
    UVW = "example-3-2-erasure:uvw"

    def test_numbers_parse(self, uvw_witness):
        split = strategy_from_json({"kind": "block_split", "first": self.HONEST,
                                    "second": self.HONEST, "fraction": 0.25})
        assert split.fraction == 0.25 and type(split.fraction) is float
        assert strategy_from_json({"kind": "block_split", "first": self.HONEST,
                                   "second": self.HONEST}).fraction == 0.5
        dmc = strategy_from_json({"kind": "witness_dmc", "from_example": self.UVW,
                                  "scenario": 1})
        assert dmc.scenario == 1 and dmc.witness == uvw_witness

    @pytest.mark.parametrize("scenario", [1.7, 1.0, True, "1"])
    def test_scenario_must_be_an_integer(self, scenario, monkeypatch):
        # the scenario is checked before the verdict runs
        monkeypatch.setattr(adversary, "check_viability", None)
        with pytest.raises(AttackError):
            strategy_from_json({"kind": "witness_dmc", "from_example": self.UVW,
                                "scenario": scenario})

    @pytest.mark.parametrize("ref", [None, "", "example-3-2-erasure:uv"])
    def test_witness_needs_a_non_viable_example(self, ref):
        with pytest.raises(AttackError):
            strategy_from_json({"kind": "witness_dmc", "from_example": ref, "scenario": 1})

    @pytest.mark.parametrize("fraction", ["0.25", True, None])
    def test_fraction_must_be_a_number(self, fraction):
        with pytest.raises(AttackError):
            strategy_from_json({"kind": "block_split", "first": self.HONEST,
                                "second": self.HONEST, "fraction": fraction})
