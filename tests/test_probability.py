"""Probability backbone: marginals, channels, types, sampling, distances.

Derived expected values are computed by independent brute-force oracles
inside the tests (double loops over index tuples), never by the code
paths under test.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from byzfc.adversary import resample_w_channel
from byzfc.probability import (Alphabet, CellSampler, Channel, JointPmf, ProbabilityError,
                               SampleBlock, apply_channel, apply_pointwise,
                               derive_seed, empirical_type, hamming_distortion,
                               integer_mass, philox, pmf_from_dict, sample_iid,
                               tv_distance, type_counts, uniform_pmf, zero_mass)


def random_exact_pmf(sizes, seed, max_weight=6):
    rng = philox(seed)
    n = int(np.prod(sizes))
    w = rng.integers(0, max_weight + 1, size=n)
    if w.sum() == 0:
        w[0] = 1
    total = int(w.sum())
    flat = np.empty(n, dtype=object)
    for i in range(n):
        flat[i] = Fraction(int(w[i]), total)
    return JointPmf([Alphabet.of_size(s) for s in sizes], flat.reshape(sizes))


class TestAlphabet:
    def test_distinct_labels_required(self):
        with pytest.raises(ProbabilityError):
            Alphabet((0, 0))

    def test_index_roundtrip(self):
        a = Alphabet(("x", "y", "z"))
        assert [a.index(s) for s in a.symbols] == [0, 1, 2]
        with pytest.raises(ProbabilityError):
            a.index("w")


class TestConstruction:
    def test_float_normalization_tolerance(self):
        # there is none: a row of decimals sums to 1 exactly or is refused
        d = {"input_axes": [[0, 1]], "output_axes": [[0, 1]]}
        Channel.from_json_dict({**d, "rows": [0.5, 0.5, 1.0, 0.0]})
        with pytest.raises(ProbabilityError,
                           match="channel row 0 sums to 10000000001/10000000000, not 1"):
            Channel.from_json_dict({**d, "rows": [0.5, 0.5 + 1e-10, 1.0, 0.0]})
        with pytest.raises(ProbabilityError, match="channel row 0 sums to 11/10, not 1"):
            Channel.from_json_dict({**d, "rows": [0.5, 0.6, 1.0, 0.0]})

    def test_exact_must_sum_to_one(self):
        a = Alphabet.binary()
        with pytest.raises(ProbabilityError):
            pmf_from_dict((a,), {(0,): Fraction(1, 3), (1,): Fraction(1, 3)})

    def test_negative_rejected(self):
        a = Alphabet.binary()
        with pytest.raises(ProbabilityError, match="negative pmf entry"):
            JointPmf((a,), [Fraction(-1, 10), Fraction(11, 10)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pmf_rejected(self, bad):
        # float mass is refused before any sum, a NaN included
        a = Alphabet.binary()
        with pytest.raises(ProbabilityError, match="a pmf must be exact"):
            JointPmf((a, a), [bad, 1.0, 0.0, 0.0])
        with pytest.raises(ProbabilityError, match="a pmf must be exact"):
            JointPmf((a, a), np.array([0.25, 0.25, 0.25, 0.25]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_channel_rejected(self, bad):
        # a float array is refused whole; a non-finite JSON real is named
        a = Alphabet.binary()
        with pytest.raises(ProbabilityError, match="a channel must be exact"):
            Channel((a,), (a,), np.array([[bad, 1.0], [0.0, 1.0]]))
        d = {"input_axes": [[0, 1]], "output_axes": [[0, 1]], "rows": [bad, 1.0, 0.0, 1.0]}
        with pytest.raises(ProbabilityError, match=f"cannot interpret {bad!r} as an exact "
                                                   "channel entry"):
            Channel.from_json_dict(d)


class TestChannelFromJoint:
    def test_zero_row_maps_to_its_own_input(self):
        a = Alphabet.of_size(3)
        joint = zero_mass((3, 3))
        joint[0, 2] = joint[2, 0] = Fraction(1, 2)
        w = Channel.from_joint((a,), (a,), joint)
        assert w.rows[1].tolist() == [0, 1, 0]
        assert w.rows[0].tolist() == [0, 0, 1] and w.rows[2].tolist() == [1, 0, 0]

    def test_exact_rows_equal_the_conditional(self):
        for seed in range(20):
            p = random_exact_pmf((4, 4), seed=seed, max_weight=2)
            w = Channel.from_joint(p.axes[:1], p.axes[1:], p.mass)
            for i in range(4):
                total = sum(p.mass[i, j] for j in range(4))
                for j in range(4):
                    want = p.mass[i, j] / total if total else Fraction(int(i == j))
                    assert w.rows[i, j] == want and isinstance(w.rows[i, j], Fraction)

    def test_input_left_unchanged(self):
        joint = zero_mass((2, 2))
        joint[0, 0] = Fraction(2)
        Channel.from_joint((Alphabet.binary(),), (Alphabet.binary(),), joint)
        assert joint.tolist() == [[2, 0], [0, 0]]

    def test_identity_is_the_identity_matrix(self):
        axes = (Alphabet.binary(), Alphabet.of_size(3))
        flat = Channel.identity(axes).rows.reshape(6, 6)
        for i, j in product(range(6), range(6)):
            assert flat[i, j] == int(i == j)
            assert isinstance(flat[i, j], Fraction)


class TestMarginalize:
    def test_uniform_two_bits_keep_first(self):
        p = uniform_pmf([Alphabet.binary(), Alphabet.binary()])
        m = p.marginalize((0,))
        assert m.mass[0] == Fraction(1, 2) and m.mass[1] == Fraction(1, 2)

    def test_erasure_example_x2_marginal(self, erasure_pmf):
        # the worked example pins P(X2 = e2) = 1/4
        m = erasure_pmf.marginalize((1,))
        assert m.prob(("e2",)) == Fraction(1, 4)

    def test_against_double_loop_oracle(self):
        p = random_exact_pmf((3, 4, 2), seed=3)
        m = p.marginalize((0, 2))
        expect = zero_mass((3, 2))
        for i, j, k in product(range(3), range(4), range(2)):
            expect[i, k] += p.mass[i, j, k]
        assert m.mass.tolist() == expect.tolist()

    def test_keep_order_respected(self):
        p = random_exact_pmf((3, 4, 2), seed=4)
        a = p.marginalize((2, 0))
        b = p.marginalize((0, 2))
        assert a.mass.tolist() == b.mass.T.tolist()

    def test_composition_law_exact(self):
        for seed in range(25):
            p = random_exact_pmf((2, 3, 2, 2), seed=seed)
            once = p.marginalize((0, 1, 3)).marginalize((0, 2))
            direct = p.marginalize((0, 3))
            assert once == direct

    def test_empty_keep_rejected(self):
        p = uniform_pmf([Alphabet.binary()])
        with pytest.raises(ProbabilityError):
            p.marginalize(())
        with pytest.raises(ProbabilityError):
            p.marginalize((5,))


class TestApplyChannel:
    def test_identity_channel(self):
        p = random_exact_pmf((2, 3), seed=9)
        w = Channel.identity((p.axes[0],))
        assert apply_channel(p, (0,), w) == p

    def test_resample_preserves_untouched_marginal(self, erasure_pmf):
        # enumeration oracle: both sides of the (X1, Y) marginal
        w = resample_w_channel((erasure_pmf.axes[1], erasure_pmf.axes[2]))
        out = apply_channel(erasure_pmf, (1, 2), w)
        assert out.marginalize((0, 3)) == erasure_pmf.marginalize((0, 3))
        expect = zero_mass((2, 3))
        for idx in product(range(2), range(3), range(3), range(3)):
            expect[idx[0], idx[3]] += erasure_pmf.mass[idx]
        assert out.marginalize((0, 3)).mass.tolist() == expect.tolist()

    def test_bsc_half_on_uniform_bit(self):
        a = Alphabet.binary()
        p = uniform_pmf([a, a])
        w = Channel((a,), (a,), np.full((2, 2), Fraction(1, 2)))
        out = apply_channel(p, (0,), w)
        assert out.mass.tolist() == [[Fraction(1, 4)] * 2] * 2

    def test_untouched_marginal_preserved_exact(self):
        rng = philox(77)
        for seed in range(20):
            p = random_exact_pmf((2, 2, 3), seed=seed + 50)
            rows = np.empty((2, 2), dtype=object)
            x = Fraction(int(rng.integers(0, 5)), 5)
            rows[0, 0], rows[0, 1] = x, 1 - x
            y = Fraction(int(rng.integers(0, 5)), 5)
            rows[1, 0], rows[1, 1] = y, 1 - y
            w = Channel((p.axes[1],), (p.axes[1],), rows)
            out = apply_channel(p, (1,), w)
            assert out.marginalize((0, 2)) == p.marginalize((0, 2))

    def test_axis_mismatch(self):
        p = uniform_pmf([Alphabet.binary(), Alphabet.of_size(3)])
        w = Channel.identity((Alphabet.binary(),))
        with pytest.raises(ProbabilityError):
            apply_channel(p, (1,), w)


class TestTVDistance:
    def test_self_distance_zero(self):
        p = random_exact_pmf((2, 3), seed=1)
        assert p.tv_distance(p) == 0

    def test_disjoint_point_masses(self):
        a = Alphabet.of_size(3)
        p = pmf_from_dict((a,), {(0,): 1})
        q = pmf_from_dict((a,), {(2,): 1})
        assert p.tv_distance(q) == 1

    def test_half_l1_oracle(self):
        p = random_exact_pmf((4, 3), seed=5)
        q = random_exact_pmf((4, 3), seed=6)
        direct = Fraction(0)
        for i, j in product(range(4), range(3)):
            direct += abs(p.mass[i, j] - q.mass[i, j])
        assert tv_distance(p, q) == direct / 2

    def test_triangle_inequality(self):
        for seed in range(40):
            p = random_exact_pmf((3, 3), seed=seed)
            q = random_exact_pmf((3, 3), seed=seed + 100)
            r = random_exact_pmf((3, 3), seed=seed + 200)
            assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r)

    def test_axis_mismatch(self):
        p = uniform_pmf([Alphabet.binary()])
        q = uniform_pmf([Alphabet.of_size(3)])
        with pytest.raises(ProbabilityError):
            tv_distance(p, q)

    def test_integer_mass_over_least_common_denominator(self):
        p = random_exact_pmf((2, 3, 2), seed=3)
        nums, den = integer_mass(p.mass)
        flat = p.mass.reshape(-1)
        assert nums.shape == p.mass.shape
        assert den == math.lcm(*(v.denominator for v in flat))
        assert [Fraction(a, den) for a in nums.reshape(-1)] == list(flat)


def block_of(axes, users, side):
    return SampleBlock(tuple(axes), np.asarray(users, dtype=np.int64),
                       np.asarray(side, dtype=np.int64))


class TestSampleBlockChecks:
    @pytest.mark.parametrize("users, side, message", [
        ([[0, 1, 2], [0, 1, 1]], [0, 0, 1], "user 0 sequence"),
        ([[0, 1, 1], [0, -1, 1]], [0, 0, 1], "user 1 sequence"),
        ([[0, 3, 1], [0, 1, 2]], [0, 0, 1], "user 0 sequence"),
        ([[0, 1, 1], [0, 1, 1]], [0, 2, 1], "side sequence"),
        ([[0, 1, 1], [0, 1, 1]], [-1, 0, 1], "side sequence"),
    ])
    def test_out_of_range_symbols(self, users, side, message):
        axes = [Alphabet.binary(), Alphabet.binary(), Alphabet.binary()]
        with pytest.raises(ProbabilityError, match=f"{message} has out-of-range symbols"):
            block_of(axes, users, side)

    def test_shape_checks(self):
        a = Alphabet.binary()
        with pytest.raises(ProbabilityError, match="at least one user axis"):
            block_of([a], np.zeros((0, 2)), [0, 0])
        with pytest.raises(ProbabilityError, match="wrong number of users"):
            block_of([a, a, a], [[0, 1]], [0, 1])
        with pytest.raises(ProbabilityError, match="side_seq length mismatch"):
            block_of([a, a], [[0, 1]], [0, 1, 1])

    def test_empty_block_passes_the_checks(self):
        a = Alphabet.binary()
        assert block_of([a, a], np.zeros((1, 0)), []).n == 0
        empty = SampleBlock.from_cells((a, a), np.zeros(0, dtype=np.int64))
        assert empty.n == 0 and empty.user_seqs.shape == (1, 0) and empty.side_seq.shape == (0,)

    @pytest.mark.parametrize("cells", [[0, 6], [-1, 2], [2**62, 0]])
    def test_out_of_range_cells(self, cells):
        a, b = Alphabet.binary(), Alphabet.of_size(3)
        with pytest.raises(ProbabilityError, match="out-of-range cells"):
            SampleBlock.from_cells((a, b), np.array(cells))

    def test_cell_shape_checks(self):
        a = Alphabet.binary()
        with pytest.raises(ProbabilityError, match="at least one user axis"):
            SampleBlock.from_cells((a,), np.zeros(2, dtype=np.int64))
        with pytest.raises(ProbabilityError, match="one flat index per observation"):
            SampleBlock.from_cells((a, a), np.zeros((1, 2), dtype=np.int64))

    def test_rows_and_cells_are_one_block(self):
        # cells are row-major over the axes; the rows come back from them
        axes = (Alphabet.of_size(3), Alphabet.binary(), Alphabet.of_size(3))
        users, side = [[2, 0, 1, 2], [1, 0, 0, 1]], [0, 2, 1, 2]
        blk = block_of(axes, users, side)
        assert blk.cells.dtype == np.int64
        assert blk.cells.tolist() == [15, 2, 7, 17]
        again = SampleBlock.from_cells(axes, blk.cells)
        for got in (blk, again):
            assert got.user_seqs.dtype == np.int64 and got.user_seqs.tolist() == users
            assert got.side_seq.dtype == np.int64 and got.side_seq.tolist() == side
            assert got.column(2) == (1, 0, 1)

    @pytest.mark.parametrize("users, side", [
        (np.array([[0.7, 1.2]]), np.array([0, 1])),
        (np.array([[0.7, 1.2], [0.0, 1.0]]), np.array([0, 1])),
        (np.array([[0, 1]]), np.array([0.0, 1.0])),
        (np.array([[True, False]]), np.array([0, 1])),
    ])
    def test_non_integer_rows_rejected(self, users, side):
        # float rows were truncated to symbols, or failed in numpy's casting
        axes = [Alphabet.binary()] * (len(users) + 1)
        with pytest.raises(ProbabilityError, match="integer symbol indices"):
            SampleBlock(axes, users, side)


class TestEmpiricalType:
    def test_half_half(self):
        a = Alphabet.binary()
        blk = block_of([a, a], [[0, 0, 1, 1]], [0, 0, 0, 0])
        ty = empirical_type(blk)
        assert ty.mass[0, 0] == Fraction(1, 2) and ty.mass[1, 0] == Fraction(1, 2)

    def test_constant_sequence_point_mass(self):
        a = Alphabet.of_size(3)
        blk = block_of([a, a], [[2, 2, 2]], [1, 1, 1])
        ty = empirical_type(blk)
        assert ty.mass[2, 1] == 1

    def test_against_counting_oracle(self):
        rng = philox(8)
        a = Alphabet.of_size(3)
        users = rng.integers(0, 3, size=(2, 200))
        side = rng.integers(0, 3, size=200)
        blk = block_of([a, a, a], users, side)
        ty = empirical_type(blk)
        for i, j, k in product(range(3), repeat=3):
            count = int(np.sum((users[0] == i) & (users[1] == j) & (side == k)))
            assert ty.mass[i, j, k] == Fraction(count, 200)

    def test_entries_multiples_of_one_over_n(self):
        rng = philox(9)
        a = Alphabet.binary()
        blk = block_of([a, a], [rng.integers(0, 2, 7)], rng.integers(0, 2, 7))
        for v in empirical_type(blk).mass.reshape(-1):
            assert (v * 7).denominator == 1

    def test_counts_over_n_equal_converted_exact_type(self):
        # the float membership bounds read counts / n as the float type;
        # k = 1..4 users over mixed alphabet sizes 1..5
        rng = philox(10)
        for t in range(80):
            sizes = [int(s) for s in rng.integers(1, 6, size=2 + t % 4)]
            n = int(rng.integers(1, 3000))
            users = np.stack([rng.integers(0, s, n) for s in sizes[:-1]])
            blk = block_of([Alphabet.of_size(s) for s in sizes], users,
                           rng.integers(0, sizes[-1], n))
            counts = type_counts(blk)
            assert counts.shape == (math.prod(sizes),) and counts.sum() == n
            assert np.array_equal(counts / n,
                                  empirical_type(blk).mass.reshape(-1).astype(np.float64))

    def test_empty_block_has_no_type(self):
        a = Alphabet.binary()
        with pytest.raises(ProbabilityError, match="empty block has no type"):
            type_counts(block_of([a, a], np.zeros((1, 0)), []))

    def test_count_over_n_is_the_rounded_fraction(self):
        # counts / n against float(Fraction), which rounds the same ratio
        rng = philox(11)
        n = rng.integers(1, 10**7, size=16_000)
        c = rng.integers(0, n + 1)
        assert np.array_equal(c / n, [float(Fraction(int(a), int(b))) for a, b in zip(c, n)])


class TestSampleIid:
    def test_point_mass_constant_block(self):
        a = Alphabet.of_size(3)
        p = pmf_from_dict((a, a), {(2, 1): 1})
        blk = sample_iid(p.to_float(), 50, seed=0)
        assert np.all(blk.user_seqs[0] == 2) and np.all(blk.side_seq == 1)

    def test_deterministic_given_seed(self):
        p = random_exact_pmf((2, 3), seed=2).to_float()
        b1 = sample_iid(p, 100, seed=123)
        b2 = sample_iid(p, 100, seed=123)
        assert np.array_equal(b1.user_seqs, b2.user_seqs)
        assert np.array_equal(b1.side_seq, b2.side_seq)
        b3 = sample_iid(p, 100, seed=124)
        assert not np.array_equal(b1.user_seqs, b3.user_seqs)

    def test_exact_mode_rejected(self):
        p = random_exact_pmf((2, 2), seed=0)
        with pytest.raises(ProbabilityError, match="call to_float"):
            sample_iid(p, 10, seed=0)

    def test_table_is_the_support_and_its_pinned_cumulative_sum(self):
        # ten cells of 1/10 sum to 0.9999999999999999 in float; the last
        # entry is pinned to 1.0 and zero cells are left out
        a = Alphabet.of_size(11)
        mass = zero_mass((11, 2))
        mass[1:, 0] = Fraction(1, 10)
        table = JointPmf((a, Alphabet.binary()), mass).to_float()
        assert isinstance(table, CellSampler) and table.axes[0] is a
        assert table.support.tolist() == list(range(2, 22, 2))
        assert table.cdf.cums.tolist() == np.cumsum([0.1] * 9).tolist() + [1.0]
        assert np.cumsum([0.1] * 10)[-1] < 1.0

    def test_uniform_bit_type_concentrates(self):
        a = Alphabet.binary()
        p = uniform_pmf([a, a])
        table = p.to_float()
        fails = 0
        for seed in range(200):
            blk = sample_iid(table, 10_000, seed=derive_seed(42, seed))
            if tv_distance(empirical_type(blk), p) > 0.05:
                fails += 1
        assert fails <= 2  # >= 99% of seeds

    def test_erasure_marginal_near_quarter(self, erasure_pmf):
        # target value 1/4 from the worked example; 0.02 tolerance is ~4.6
        # binomial standard deviations at n = 10^4
        pf = erasure_pmf.to_float()
        fails = 0
        for seed in range(100):
            blk = sample_iid(pf, 10_000, seed=derive_seed(7, seed))
            frac = float(np.mean(blk.user_seqs[1] == erasure_pmf.axes[1].index("e2")))
            if abs(frac - 0.25) > 0.02:
                fails += 1
        assert fails <= 1


class TestApplyPointwise:
    def test_constant_function(self, erasure_pmf, erasure_f_uv):
        from byzfc.structures import constant_function
        f = constant_function(erasure_pmf.axes, Alphabet(("c",)), "c")
        blk = sample_iid(erasure_pmf.to_float(), 64, seed=1)
        assert np.all(apply_pointwise(f, blk) == 0)

    def test_identity_on_first_coordinate(self, erasure_pmf):
        from byzfc.structures import TargetFunction
        f = TargetFunction.from_callable(erasure_pmf.axes, Alphabet((0, 1)),
                                         lambda x1, x2, x3, y: x1)
        blk = sample_iid(erasure_pmf.to_float(), 64, seed=2)
        assert np.array_equal(apply_pointwise(f, blk), blk.user_seqs[0])

    def test_uv_map_per_letter_oracle(self, erasure_pmf, erasure_f_uv):
        blk = sample_iid(erasure_pmf.to_float(), 128, seed=3)
        out = apply_pointwise(erasure_f_uv, blk)
        for t in range(blk.n):
            labels = tuple(erasure_pmf.axes[i].symbols[blk.column(t)[i]] for i in range(4))
            assert erasure_f_uv.codomain.symbols[out[t]] == erasure_f_uv.value(labels)

    def test_domain_mismatch(self):
        from byzfc.structures import TargetFunction
        a = Alphabet.binary()
        f = TargetFunction.from_callable((a, a), a, lambda x, y: x)
        blk = block_of([a, a, a], [[0], [1]], [0])
        with pytest.raises(ProbabilityError):
            apply_pointwise(f, blk)


class TestHamming:
    def test_equal_sequences(self):
        assert hamming_distortion([1, 2, 3], [1, 2, 3]) == 0.0

    def test_complementary_binary(self):
        assert hamming_distortion([0, 1, 0], [1, 0, 1]) == 1.0

    def test_counting_oracle(self):
        rng = philox(10)
        a = rng.integers(0, 4, size=500)
        b = rng.integers(0, 4, size=500)
        direct = sum(1 for x, y in zip(a, b) if x != y) / 500
        assert hamming_distortion(a, b) == direct

    def test_the_count_over_n_is_the_mean(self):
        # an integer count divided by n is the double np.mean rounds to
        rng = philox(11)
        for t in range(2000):
            n = int(rng.integers(1, 6000))
            a, b = rng.integers(0, 3, size=n), rng.integers(0, 3, size=n)
            assert hamming_distortion(a, b) == float(np.mean(a != b))

    def test_pointwise_self_distortion_zero(self, erasure_pmf, erasure_f_uv):
        blk = sample_iid(erasure_pmf.to_float(), 64, seed=4)
        out = apply_pointwise(erasure_f_uv, blk)
        assert hamming_distortion(out, out) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ProbabilityError):
            hamming_distortion([1], [1, 2])


class TestSerialization:
    def test_exact_roundtrip(self, erasure_pmf):
        again = JointPmf.loads(erasure_pmf.dumps())
        assert again == erasure_pmf and again.mass.dtype == object

    def test_rationals_as_strings(self, erasure_pmf):
        d = erasure_pmf.to_json_dict()
        assert d["mode"] == "exact"
        assert "1/8" in d["mass"]

    def test_channel_roundtrip(self, erasure_pmf):
        w = resample_w_channel((erasure_pmf.axes[1], erasure_pmf.axes[2]))
        again = Channel.from_json_dict(w.to_json_dict())
        assert np.array_equal(again.rows, w.rows)

    def test_absent_mode_means_exact(self):
        p = JointPmf.from_json_dict({"axes": [[0, 1]], "mass": ["1/2", "1/2"]})
        assert p == uniform_pmf((Alphabet.binary(),))
        w = Channel.from_json_dict({"input_axes": [[0, 1]], "output_axes": [[0, 1]],
                                    "rows": ["9/10", "1/10", "1/10", "9/10"]})
        assert w.rows.tolist() == [[Fraction(9, 10), Fraction(1, 10)],
                                   [Fraction(1, 10), Fraction(9, 10)]]
        with pytest.raises(ProbabilityError, match="a pmf must be exact"):
            JointPmf.from_json_dict({"axes": [[0, 1]], "mass": [0.5, 0.5], "mode": "float"})
        with pytest.raises(ProbabilityError, match="a channel must be exact"):
            Channel.from_json_dict({**w.to_json_dict(), "mode": "float"})

    def test_reals_are_read_as_their_decimals(self):
        # 0.9 is 9/10, and its float is 0.9 again: a pmf and a channel of
        # JSON reals are the exact law and channel those decimals write
        p = JointPmf.from_json_dict({"axes": [[0, 1], [0, 1]], "mass": [0.5, 0, 0, 0.5]})
        assert p.mass.tolist() == [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
        d = {"input_axes": [[0, 1]], "output_axes": [[0, 1]], "rows": [0.9, 0.1, "1/10", 0.9]}
        w = Channel.from_json_dict(d)
        assert w.rows.tolist() == [[Fraction(9, 10), Fraction(1, 10)],
                                   [Fraction(1, 10), Fraction(9, 10)]]
        assert w.rows.astype(np.float64).tolist() == [[0.9, 0.1], [0.1, 0.9]]
        assert Channel.from_json_dict(w.to_json_dict()).rows.tolist() == w.rows.tolist()

    @pytest.mark.parametrize("mode", ["exakt", "Exact", None, 1])
    def test_unknown_mode_rejected(self, erasure_pmf, mode):
        d = {**uniform_pmf((Alphabet.binary(),)).to_json_dict(), "mode": mode}
        with pytest.raises(ProbabilityError, match="unknown mode"):
            JointPmf.from_json_dict(d)
        w = resample_w_channel((erasure_pmf.axes[1], erasure_pmf.axes[2]))
        with pytest.raises(ProbabilityError, match="unknown mode"):
            Channel.from_json_dict({**w.to_json_dict(), "mode": mode})

    @pytest.mark.parametrize("mass, mode, match", [
        ([True, False], "float", "must be exact: unknown mode 'float'"),
        (["0.5", "0.5"], "float", "must be exact: unknown mode 'float'"),
        ([True, False], "exact", "cannot interpret True"),
        ([[0.5, 0], [0.5]], "float", "must be exact: unknown mode 'float'"),
        ([["1/2", 0], ["1/2"]], "exact", "cannot interpret"),
        ("1", "exact", "must be a list"),
        (["1/0", "1"], "exact", "'1/0' has a zero denominator"),
        ([float("nan"), 1], "exact", "cannot interpret nan as an exact"),
        ([float("inf"), 0], "exact", "cannot interpret inf as an exact"),
        ([float("-inf"), 1], "exact", "cannot interpret -inf as an exact"),
        ([[0.5], 0.5], "exact", r"cannot interpret \[0.5\] as an exact"),
        (["1//2", "1/2"], "exact", "cannot interpret '1//2' as an exact"),
        (["nan", 1], "exact", "cannot interpret 'nan' as an exact"),
        ([None, 1], "exact", "cannot interpret None as an exact"),
        # a sum of over 4300 digits, which str() refuses, is not printed
        (["1e-5000", 1], "exact", "row 0 does not sum to 1"),
    ], ids=["float-bools", "float-strings", "exact-bools", "float-ragged", "exact-ragged",
            "exact-string", "exact-zero-denominator", "nan", "inf", "-inf", "nested",
            "bad-string", "nan-string", "null", "long-sum"])
    def test_malformed_mass_values_rejected(self, mass, mode, match):
        # one entry rule for laws and channels, which names a refused entry
        with pytest.raises(ProbabilityError, match=match):
            JointPmf.from_json_dict({"axes": [[0, 1]], "mass": mass, "mode": mode})
        w = {"input_axes": [[0, 1]], "output_axes": [[0, 1]], "rows": mass * 2, "mode": mode}
        with pytest.raises(ProbabilityError, match=match):
            Channel.from_json_dict(w)

    def test_equality_compares_every_entry(self, erasure_pmf):
        same = JointPmf(erasure_pmf.axes, erasure_pmf.mass.copy())
        assert same == erasure_pmf and same.mass[0, 0, 0, 0] is erasure_pmf.mass[0, 0, 0, 0]
        moved = erasure_pmf.mass.reshape(-1).copy()
        moved[[0, 1]] = moved[[1, 0]]     # 1/4 and 0 trade places
        assert moved[1] > 0
        assert JointPmf(erasure_pmf.axes, moved.reshape(erasure_pmf.mass.shape)) != erasure_pmf

    @pytest.mark.parametrize("exact", [True, False])
    def test_short_mass_rejected(self, erasure_pmf, exact):
        # exact: "n/d" strings; not exact: the integer numerators over 8
        d = erasure_pmf.to_json_dict()
        mass = d["mass"] if exact else [int(v * 8) for v in erasure_pmf.mass.reshape(-1)]
        with pytest.raises(ProbabilityError, match="pmf has 53 entries, not 54"):
            JointPmf.from_json_dict({**d, "mass": mass[:-1]})

    @pytest.mark.parametrize("strings", [True, False])
    def test_short_channel_rows_rejected(self, erasure_pmf, strings):
        # "n/d" strings, or the same rows as JSON reals (0, 0.5 and 1)
        d = resample_w_channel(erasure_pmf.axes[1:3]).to_json_dict()
        rows = d["rows"] if strings else [float(Fraction(v)) for v in d["rows"]]
        with pytest.raises(ProbabilityError, match="channel has 80 entries, not 81"):
            Channel.from_json_dict({**d, "rows": rows[:-1]})

    def test_ragged_block_users_rejected(self, erasure_pmf):
        d = sample_iid(erasure_pmf.to_float(), 32, seed=5).to_json_dict()
        users = [d["users"][0], d["users"][1][:-1], d["users"][2]]
        with pytest.raises(ProbabilityError, match="as long as the side sequence"):
            SampleBlock.from_json_dict({**d, "users": users})

    def test_block_roundtrip(self, erasure_pmf):
        blk = sample_iid(erasure_pmf.to_float(), 32, seed=5)
        again = SampleBlock.from_json_dict(blk.to_json_dict())
        assert np.array_equal(again.user_seqs, blk.user_seqs)
        assert np.array_equal(again.side_seq, blk.side_seq)
