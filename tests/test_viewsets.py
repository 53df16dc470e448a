"""View sets, membership LPs and their invariants.

Derived oracles: brute-force channel application by explicit summation,
and a grid search over binary channels for the minimum-distance value.
"""

import dataclasses
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from byzfc import decoder
from byzfc.adversary import (BlockSplit, Honest, MemorylessChannel, ResampleW, WitnessDMC,
                             attack)
from byzfc.decoder import DecoderConfig, explanation_set
from byzfc.examples_lib import random_pmf
from byzfc.polytope import ChannelVars
from byzfc.probability import (Alphabet, Channel, JointPmf, ProbabilityError, SampleBlock,
                               derive_seed, empirical_type, philox, pmf_from_dict, sample_iid,
                               tv_distance, type_counts, uniform_pmf)
from byzfc.simplex import Tableau
from byzfc.viability import check_s_viability
from byzfc.viewsets import DistanceScreen, ViewSetHandle, distance_to_viewset, induce_view

from test_decoder import exact_type_block


def random_channel(axes, seed, exact=False):
    rng = philox(seed)
    n = int(np.prod([a.size for a in axes]))
    if exact:
        rows = np.empty((n, n), dtype=object)
        for i in range(n):
            w = [int(v) for v in rng.integers(1, 6, size=n)]
            tot = sum(w)
            for j in range(n):
                rows[i, j] = Fraction(w[j], tot)
    else:
        rows = rng.random((n, n)) + 0.05
        rows = rows / rows.sum(axis=1, keepdims=True)
    shape = tuple(a.size for a in axes)
    return Channel(axes, axes, rows.reshape(shape + shape))


class TestInduceView:
    def test_identity_gives_base_law(self, erasure_pmf):
        for aset in ({0}, {1, 2}, {0, 2}):
            axes = tuple(erasure_pmf.axes[c] for c in sorted(aset))
            w = Channel.identity(axes)
            assert induce_view(erasure_pmf, aset, w) == erasure_pmf

    def test_constant_channel_point_mass_marginal(self, erasure_pmf):
        ax = (erasure_pmf.axes[0],)
        rows = np.empty((2, 2), dtype=object)
        rows[:] = Fraction(0)
        rows[0, 1] = rows[1, 1] = Fraction(1)
        w = Channel(ax, ax, rows)
        view = induce_view(erasure_pmf, {0}, w)
        marg = view.marginalize((0,))
        assert marg.mass[1] == 1

    def test_against_brute_force_sum(self, erasure_pmf):
        aset = frozenset({1, 2})
        axes = (erasure_pmf.axes[1], erasure_pmf.axes[2])
        w = random_channel(axes, seed=3, exact=True)
        view = induce_view(erasure_pmf, aset, w)
        pf = erasure_pmf
        for u in product(range(2), range(3), range(3), range(3)):
            total = Fraction(0)
            for t2, t3 in product(range(3), range(3)):
                total += pf.mass[u[0], t2, t3, u[3]] * w.rows[t2, t3, u[1], u[2]]
            assert view.mass[u] == total

    def test_empty_set_returns_base(self, erasure_pmf):
        assert induce_view(erasure_pmf, frozenset(), None) == erasure_pmf


class TestDistance:
    def test_base_law_distance_zero(self, erasure_pmf):
        for aset in ({0}, {1}, {1, 2}, frozenset()):
            h = ViewSetHandle(erasure_pmf, frozenset(aset))
            res = distance_to_viewset(h, erasure_pmf)
            assert res.distance == 0
            res.verify(h, erasure_pmf)

    def test_altered_untouched_marginal_equals_gap(self):
        # adversary on coordinate 0 cannot move the (X2, Y) marginal, so the
        # distance equals that marginal's TV gap exactly
        b = Alphabet.binary()
        p = pmf_from_dict((b, b, b), {
            (0, 0, 0): Fraction(1, 2), (1, 1, 1): Fraction(1, 2)})
        q = pmf_from_dict((b, b, b), {
            (0, 0, 0): Fraction(3, 8), (1, 1, 1): Fraction(3, 8),
            (0, 1, 0): Fraction(1, 8), (1, 0, 1): Fraction(1, 8)})
        h = ViewSetHandle(p, frozenset({0}))
        res = distance_to_viewset(h, q)
        gap = p.marginalize((1, 2)).tv_distance(q.marginalize((1, 2)))
        assert gap > 0
        assert res.distance == gap
        # grid oracle over binary channels upper-bounds and approaches it
        best = 1.0
        pf, qf = p.to_float(), q.to_float()
        for a00 in np.linspace(0, 1, 21):
            for a10 in np.linspace(0, 1, 21):
                w = Channel((b,), (b,), np.array([[a00, 1 - a00], [a10, 1 - a10]]))
                view = induce_view(pf, {0}, w)
                best = min(best, tv_distance(view, qf))
        assert best >= float(res.distance) - 1e-9
        assert best <= float(res.distance) + 0.05

    def test_induced_views_have_distance_zero(self, erasure_pmf):
        for seed in range(6):
            for aset in ({0}, {1, 2}):
                axes = tuple(erasure_pmf.axes[c] for c in sorted(aset))
                w = random_channel(axes, seed=seed, exact=True)
                q = induce_view(erasure_pmf, aset, w)
                h = ViewSetHandle(erasure_pmf, frozenset(aset))
                res = distance_to_viewset(h, q)
                assert res.distance == 0
                res.verify(h, q)

    def test_float_matches_exact(self, erasure_pmf):
        q = induce_view(erasure_pmf, {1, 2},
                        random_channel((erasure_pmf.axes[1], erasure_pmf.axes[2]),
                                       seed=9, exact=True))
        # perturb toward uniform to get a positive distance
        from byzfc.probability import uniform_pmf
        u = uniform_pmf(q.axes).to_float()
        qm = JointPmf(q.axes, 0.7 * q.to_float().mass + 0.3 * u.mass)
        h = ViewSetHandle(erasure_pmf, frozenset({1, 2}))
        qm_exact = JointPmf.from_json_dict(
            {"axes": [list(a.symbols) for a in q.axes],
             "mass": [f"{Fraction(v).limit_denominator(10**6)}" for v in qm.mass.reshape(-1)],
             "mode": "exact"})
        # normalize exactly
        total = qm_exact.mass.sum()
        qm_exact = JointPmf(q.axes, qm_exact.mass / total)
        # one exact handle: the query's arithmetic picks the engine
        res_f = distance_to_viewset(h, qm)
        res_e = distance_to_viewset(h, qm_exact)
        assert isinstance(res_f.distance, float) and not res_f.nearest_channel.exact
        assert isinstance(res_e.distance, Fraction) and res_e.nearest_channel.exact
        assert abs(float(res_e.distance) - res_f.distance) < 1e-6
        res_f.verify(h, qm)
        res_e.verify(h, qm_exact)

    def test_marginal_gap_lower_bound_exact(self, erasure_pmf):
        # distance >= TV gap of the untouched-coordinate marginal, always
        rng = philox(31)
        for seed in range(10):
            q = JointPmf(erasure_pmf.axes,
                         (lambda m: m / m.sum())(rng.random(erasure_pmf.mass.shape) + 0.01))
            for aset in ({0}, {2}, {1, 2}):
                h = ViewSetHandle(erasure_pmf, frozenset(aset))
                res = distance_to_viewset(h, q)
                untouched = tuple(c for c in range(4) if c not in aset)
                gap = erasure_pmf.to_float().marginalize(untouched).tv_distance(
                    q.marginalize(untouched))
                assert res.distance >= gap - 1e-7


class TestHandleCache:
    @pytest.mark.parametrize("exact", [True, False])
    def test_reused_handle_matches_a_fresh_one(self, erasure_pmf, exact):
        # the LP's rows and matrix are built once per handle; only q changes,
        # and its arithmetic picks the engine
        rng = philox(21)
        for aset in ({0}, {1, 2}):
            shared = ViewSetHandle(erasure_pmf, frozenset(aset))
            for seed in range(3):
                law = JointPmf(erasure_pmf.axes,
                               (lambda m: m / m.sum())(rng.random(erasure_pmf.mass.shape)))
                q = empirical_type(sample_iid(law, 300, seed=seed))
                q = q if exact else q.to_float()
                got = distance_to_viewset(shared, q)
                want = distance_to_viewset(ViewSetHandle(erasure_pmf, frozenset(aset)), q)
                assert got.distance == want.distance > 0
                assert np.array_equal(got.nearest_channel.rows, want.nearest_channel.rows)


def _fraction_distance_lp(handle: ViewSetHandle):
    """The view-distance LP with P-valued Fraction rows: P(v with A <- tx)
    on W(ux | tx), -1 and 1 on the view slacks, then the row sums."""
    w = ChannelVars(handle.base, handle.coords)
    nv = len(w.at)
    rows = []
    for vi, v in enumerate(w.at):
        row = {var: Fraction(num, w.den) for _, var, num in w.at[v]}
        row[w.size + vi], row[w.size + nv + vi] = -1, 1
        rows.append(row)
    return w, rows + w.sum_rows()


def _fraction_distance(handle: ViewSetHandle, q: JointPmf):
    """Distance and nearest channel from the Fraction rows (right-hand side
    q), started at the identity channel with slacks P - q split by sign."""
    p = handle.base
    w, rows = _fraction_distance_lp(handle)
    views = list(w.at)
    nv = len(views)
    start = [Fraction(0)] * (w.size + 2 * nv)
    w.set_identity(start)
    for vi, v in enumerate(views):
        gap = p.mass[v] - q.mass[v]
        start[w.size + vi if gap > 0 else w.size + nv + vi] = abs(gap)
    b = [q.mass[v] for v in views] + [1] * len(w.rows)
    t = Tableau(rows, b, len(start), start=start)
    dist = -t.maximize([0] * w.size + [Fraction(-1, 2)] * (2 * nv))
    return dist, w.channel(t.solution())


def test_integer_distance_rows_match_the_fraction_rows(erasure_pmf, threshold_3_2):
    # each exact row is den times its Fraction row, which moves neither the
    # crash basis nor Bland's choices: same distance, same nearest channel;
    # the float matrix is the Fraction rows' floats
    laws = [erasure_pmf] + [random_pmf((2, 2, 2, 2), seed=seed) for seed in range(4)]
    lps = 0
    for li, law in enumerate(laws):
        types = [empirical_type(sample_iid(law.to_float(), 60, seed=derive_seed(41, li, t)))
                 for t in range(3)]
        for aset in threshold_3_2.sets:
            handle = ViewSetHandle(law, aset)
            if aset:
                _, rows = _fraction_distance_lp(handle)
                _, A, _, _ = handle._float_lp
                want = np.zeros(A.shape)
                for i, row in enumerate(rows):
                    for j, v in row.items():
                        want[i, j] = float(v)
                assert np.array_equal(A, want)
            for q in types:
                assert q.exact
                got = distance_to_viewset(handle, q)
                if aset:
                    dist, chan = _fraction_distance(handle, q)
                    assert got.distance == dist
                    assert got.nearest_channel.to_json_dict() == chan.to_json_dict()
                else:
                    assert got.distance == law.tv_distance(q)
                lps += 1
    assert lps == 105


def _float_law_lp(law: JointPmf, aset: frozenset):
    """The float view-distance LP as a table of the float law built it: the
    float mass P(v with A <- tx) on W(ux | tx) for inputs tx in the float
    marginal's support, -1 and 1 on the view slacks, then the row sums.
    Returns the matrix and a solve of it: HiGHS's distance, and its channel
    with entries clipped at zero and rows divided by their sums."""
    from scipy.optimize import linprog

    pf, coords = law.to_float(), tuple(sorted(aset))
    axes = tuple(pf.axes[c] for c in coords)
    outs = list(product(*(range(a.size) for a in axes)))
    marg = pf.marginalize(coords)
    ins = [tx for tx in outs if marg.mass[tx] > 0]
    views = list(product(*(range(a.size) for a in pf.axes)))
    no, nv = len(outs), len(views)
    nw = len(ins) * no
    A = np.zeros((nv + len(ins), nw + 2 * nv))
    for vi, v in enumerate(views):
        ux = tuple(v[c] for c in coords)
        for ti, tx in enumerate(ins):
            full = list(v)
            for pos, c in enumerate(coords):
                full[c] = tx[pos]
            A[vi, ti * no + outs.index(ux)] = pf.mass[tuple(full)]
        A[vi, nw + vi], A[vi, nw + nv + vi] = -1, 1
    for ti in range(len(ins)):
        A[nv + ti, ti * no:(ti + 1) * no] = 1

    def solve(q: JointPmf):
        c = np.concatenate([np.zeros(nw), np.full(2 * nv, 0.5)])
        b = np.concatenate([q.mass.reshape(-1), np.ones(len(ins))])
        res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        joint = np.zeros((no, no))
        for ti, tx in enumerate(ins):
            joint[outs.index(tx)] = [0 if v < 0 else v for v in res.x[ti * no:(ti + 1) * no]]
        return max(float(res.fun), 0.0), Channel.from_joint(axes, axes, joint)

    return A, solve


def test_float_lp_matrix_is_the_float_laws(erasure_pmf, threshold_3_2):
    # num / den in float and the float law's mass are both P's entry
    # correctly rounded, so reading the exact table moves no bit
    laws = [erasure_pmf] + [random_pmf(sizes, seed=seed, max_weight=top)
                            for sizes in ((2, 2, 2, 2), (3, 3, 3, 2), (2, 3, 3, 2))
                            for seed in range(3) for top in (3, 1000003)]
    handles = 0
    for law in laws:
        for aset in threshold_3_2.sets:
            if aset:
                want, _ = _float_law_lp(law, aset)
                got = ViewSetHandle(law, aset)._float_lp[1]
                assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
                handles += 1
    assert handles == 114


def test_float_lp_keeps_the_float_laws_answers(screen_blocks, erasure_pmf, threshold_3_2):
    # on the types the bounds leave to the LP at delta = 0.1, the exact
    # handle's float LP gives the float law's distance and nearest channel
    law = random_pmf((2, 2, 2, 2), seed=0)
    blocks = []
    for aset in threshold_3_2.sets[1:]:
        axes = tuple(law.axes[c] for c in sorted(aset))
        for t in range(3):
            blk = sample_iid(law.to_float(), 1000, seed=derive_seed(43, sorted(aset), t))
            blocks.append(attack(MemorylessChannel(random_channel(axes, t)), aset, blk,
                                 seed=derive_seed(44, sorted(aset), t)))
    lps = 0
    for p, blks in ((erasure_pmf, screen_blocks), (law, blocks)):
        screen = DistanceScreen(p, threshold_3_2.sets, 0.1)
        for blk in blks:
            q = empirical_type(blk).to_float()
            for aset, inside in zip(threshold_3_2.sets, screen.decide(type_counts(blk))):
                if inside is None:
                    dist, chan = _float_law_lp(p, aset)[1](q)
                    got = distance_to_viewset(ViewSetHandle(p, aset), q)
                    assert got.distance == dist
                    assert got.nearest_channel.rows.tobytes() == chan.rows.tobytes()
                    lps += 1
    assert lps == 65


class TestMembership:
    """View-set membership as the decoder computes it, one set at a time."""

    def test_base_in_all(self, erasure_pmf, erasure_f_uv, threshold_3_2, erasure_config):
        # the source law is in every view set at distance exactly zero
        cfg = DecoderConfig(base=erasure_pmf, structure=threshold_3_2, f=erasure_f_uv,
                            delta=1e-12, g_tables=erasure_config.g_tables, mode="exact")
        blk = exact_type_block(erasure_pmf)
        assert explanation_set(cfg, blk) == list(range(len(threshold_3_2.sets)))

    def test_delta_one_contains_everything(self, erasure_pmf, erasure_f_uv, threshold_3_2,
                                           erasure_config):
        rng = philox(4)
        q = JointPmf(erasure_pmf.axes,
                     (lambda m: m / m.sum())(rng.random(erasure_pmf.mass.shape)))
        cfg = DecoderConfig(base=erasure_pmf, structure=threshold_3_2, f=erasure_f_uv,
                            delta=1.0, g_tables=erasure_config.g_tables)
        blk = sample_iid(q, 500, seed=4)
        assert explanation_set(cfg, blk) == list(range(len(threshold_3_2.sets)))

    def test_honest_type_in_all_viewsets(self, erasure_pmf, threshold_3_2, erasure_config,
                                         monkeypatch):
        # the bounds settle every honest block, so no LP runs
        lps = []
        monkeypatch.setattr(decoder, "distance_to_viewset",
                            lambda h, q: lps.append(h) or distance_to_viewset(h, q))
        pf = erasure_pmf.to_float()
        fails = 0
        for seed in range(25):
            blk = sample_iid(pf, 5000, seed=derive_seed(77, seed))
            if explanation_set(erasure_config, blk) != list(range(len(threshold_3_2.sets))):
                fails += 1
        assert fails == 0
        assert lps == []

    def test_triangle_consistency(self, erasure_pmf):
        rng = philox(6)
        h = ViewSetHandle(erasure_pmf, frozenset({1}))
        for seed in range(8):
            q1 = JointPmf(erasure_pmf.axes,
                          (lambda m: m / m.sum())(rng.random(erasure_pmf.mass.shape) + .01))
            q2 = JointPmf(erasure_pmf.axes,
                          (lambda m: m / m.sum())(rng.random(erasure_pmf.mass.shape) + .01))
            d1 = distance_to_viewset(h, q1).distance
            d2 = distance_to_viewset(h, q2).distance
            assert d1 <= d2 + tv_distance(q1, q2) + 1e-7


def splice(a: SampleBlock, b: SampleBlock, m: int) -> SampleBlock:
    """The first a.n - m letters of a, then the first m letters of b."""
    keep = a.n - m
    return SampleBlock(a.axes,
                       np.concatenate([a.user_seqs[:, :keep], b.user_seqs[:, :m]], axis=1),
                       np.concatenate([a.side_seq[:keep], b.side_seq[:m]]))


@pytest.fixture(scope="module")
def screen_blocks(erasure_pmf, erasure_f_uvw):
    """Honest, resample_w and split blocks, then honest blocks spliced with
    a growing share t of a far block: the type moves from P toward that
    block's law R as (1 - t) P + t R.

    A far law in a view set (a channel on {0} or on {1, 2}) sweeps the upper
    bound past delta while the lower bound and the distance stay below it.
    Flipping user 1's bit exactly when Y is erased keeps the others'
    marginal, so the lower bound for {0} stays near 0, but no channel on
    user 1 alone does it: the distance crosses delta with the upper bound.
    The uniform law pushes the lower bounds past delta.
    """
    n = 1000
    pf = erasure_pmf.to_float()
    axes = erasure_pmf.axes
    both = frozenset({1, 2})
    witness = check_s_viability(erasure_pmf, erasure_f_uvw, 2).witness
    m = list(witness.collection).index(both)

    def attacked(name, aset, strategy, law=pf):
        blk = sample_iid(law, n, seed=derive_seed(13, "sample", name))
        return attack(strategy, aset, blk, seed=derive_seed(13, "attack", name))

    honest = attacked("honest", frozenset(), Honest())
    flip = attacked("flip", frozenset(), Honest())
    bits, erased = flip.user_seqs[0], flip.side_seq == axes[3].index("e")
    flip = flip.replace_users({0: np.where(erased, 1 - bits, bits)})
    blocks = [honest, attacked("resample", both, ResampleW()),
              attacked("split", both, BlockSplit(Honest(), WitnessDMC(witness, m)))]
    far = [attacked("w0", frozenset({0}), MemorylessChannel(random_channel(axes[:1], 1))),
           attacked("w12", both, MemorylessChannel(random_channel(axes[1:3], 2))),
           flip, attacked("uniform", frozenset(), Honest(), uniform_pmf(axes, exact=False))]
    for r in far:
        blocks += [splice(honest, r, int(t * n)) for t in (0.25, 0.5, 1.0)]
    return blocks


class TestScreen:
    """The decoder's bound screen against the view-distance LP it skips."""

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_bounds_bracket_the_lp_and_keep_every_decision(
            self, mode, screen_blocks, erasure_pmf, erasure_f_uv, threshold_3_2,
            erasure_config):
        cfg = DecoderConfig(base=erasure_pmf, structure=threshold_3_2, f=erasure_f_uv,
                            delta=0.1, g_tables=erasure_config.g_tables, mode=mode)
        thresh = cfg.delta if mode == "exact" else cfg.delta + cfg.slack
        tol = 0 if mode == "exact" else 1e-9    # float LP round-off; the bounds are exact
        seen = {"reject": 0, "accept": 0, "band, in": 0, "band, out": 0}
        for blk in screen_blocks:
            ty = empirical_type(blk)
            ty = ty if mode == "exact" else ty.to_float()
            lp_only = []
            bounds = cfg.screen.bounds(type_counts(blk))
            for i, h in enumerate(cfg.handles):
                lower, upper = bounds[i]
                dist = distance_to_viewset(h, ty).distance
                assert lower - tol <= dist <= upper + tol
                if dist <= thresh:
                    lp_only.append(i)
                seen["reject" if lower > thresh else "accept" if upper <= thresh
                     else "band, in" if dist <= thresh else "band, out"] += 1
            assert explanation_set(cfg, blk) == lp_only
        assert all(seen.values()), seen

    def test_both_modes_explain_alike(self, screen_blocks, erasure_config):
        # both modes hold the same exact handles; only the LP engine differs
        exact = dataclasses.replace(erasure_config, mode="exact")
        assert exact.handles == erasure_config.handles
        for blk in screen_blocks:
            assert explanation_set(exact, blk) == explanation_set(erasure_config, blk)

    def test_screen_needs_an_exact_law(self, erasure_pmf):
        counts = type_counts(exact_type_block(erasure_pmf))
        sets = [frozenset(s) for s in ({0}, {1, 2})]
        assert DistanceScreen(erasure_pmf, sets, 0.1).bounds(counts) == [(0, 0), (0, 0)]
        assert DistanceScreen(erasure_pmf, [], 0.1).bounds(counts) == []
        with pytest.raises(ProbabilityError, match="requires an exact-mode pmf"):
            DistanceScreen(erasure_pmf.to_float(), sets, 0.1)

    @pytest.mark.parametrize("counts", [np.arange(53), np.zeros(54, dtype=np.int64)],
                             ids=["one-short", "empty"])
    def test_counts_must_be_a_type_of_the_law(self, counts, erasure_pmf):
        screen = DistanceScreen(erasure_pmf, [frozenset({0})], 0.1)
        for read in (screen.bounds, screen.decide):
            with pytest.raises(ProbabilityError, match="need one per cell, n >= 1"):
                read(counts)

    def test_decisions_at_a_bound_are_exact(self, screen_blocks, erasure_pmf, threshold_3_2):
        # a threshold equal to a bound accepts at the upper bound and keeps
        # the set at the lower one; one unit of 10**-30 below flips both
        sets = threshold_3_2.sets
        for blk in screen_blocks[-3:]:
            counts = type_counts(blk)
            bounds = DistanceScreen(erasure_pmf, sets, 0.1).bounds(counts)
            upper = bounds[0][1]
            assert DistanceScreen(erasure_pmf, sets, upper).decide(counts) == [True] * len(sets)
            below = DistanceScreen(erasure_pmf, sets, upper - Fraction(1, 10**30))
            assert below.decide(counts) == [False if lo == upper else None for lo, _ in bounds]
            for i, (lower, _) in enumerate(bounds):
                assert DistanceScreen(erasure_pmf, sets, lower).decide(counts)[i] is not False
                below = DistanceScreen(erasure_pmf, sets, lower - Fraction(1, 10**30))
                assert below.decide(counts)[i] is False

    def test_float_mode_rejects_just_above_the_threshold_without_an_lp(
            self, screen_blocks, erasure_pmf, erasure_f_uv, threshold_3_2, monkeypatch):
        # every lower bound exceeds delta + slack, the nearest by less than
        # 1e-9: the exact bounds reject every set, and no LP is asked
        blk = screen_blocks[-1]
        counts = type_counts(blk)
        nearest = min(lo for lo, _ in DistanceScreen(erasure_pmf, threshold_3_2.sets, 0.1)
                      .bounds(counts))
        slack = 1e-7
        delta = float(nearest) - slack - 5e-10
        thresh = Fraction(delta + slack)
        assert 0 < nearest - thresh < Fraction(1, 10**9)

        def no_lp(h, q):
            raise AssertionError("the screen should settle every set")

        monkeypatch.setattr(decoder, "distance_to_viewset", no_lp)
        cfg = DecoderConfig(base=erasure_pmf, structure=threshold_3_2, f=erasure_f_uv,
                            delta=delta, slack=slack)
        assert cfg.screen.decide(counts) == [False] * len(threshold_3_2.sets)
        assert explanation_set(cfg, blk) == []


def reference_bounds(base: JointPmf, q: JointPmf, aset) -> tuple:
    """TV(P, Q) outside the adversary set, and TV(P, Q), by the pmf methods."""
    rest = [c for c in range(base.k) if c not in aset]
    return base.marginalize(rest).tv_distance(q.marginalize(rest)), base.tv_distance(q)


class TestBoundsReference:
    """The screen's bounds on counts against an independent computation on the type."""

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_screen_blocks(self, mode, screen_blocks, erasure_pmf, threshold_3_2,
                           erasure_config):
        # a float config screens with the exact law too: its bounds are exact
        cfg = dataclasses.replace(erasure_config, mode=mode)
        for blk in screen_blocks:
            q = empirical_type(blk)
            bounds = cfg.screen.bounds(type_counts(blk))
            for s, got in zip(threshold_3_2.sets, bounds, strict=True):
                assert got == reference_bounds(erasure_pmf, q, s)

    def test_huge_common_denominator(self):
        # pd = 2**61 + 1 times a count of 4 or more overflows int64
        den = 2**61 + 1
        nums = [den // 8] * 7
        mass = np.array([Fraction(v, den) for v in nums + [den - sum(nums)]], dtype=object)
        a = Alphabet.binary()
        base = JointPmf((a, a, a), mass.reshape(2, 2, 2))
        blk = SampleBlock((a, a, a), np.array([[0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 1]]),
                          np.array([0, 0, 0, 0, 1, 0]))
        assert type_counts(blk).max() >= 4
        sets = [frozenset(s) for s in ((), (0,), (1,))]
        q = empirical_type(blk)
        counts = type_counts(blk)
        bounds = DistanceScreen(base, sets, 0.1).bounds(counts)
        for s, got in zip(sets, bounds):
            assert got == reference_bounds(base, q, s)
        upper = bounds[0][1]        # the empty set's bounds coincide
        assert DistanceScreen(base, sets, upper).decide(counts) == [True] * 3
        below = DistanceScreen(base, sets, upper - Fraction(1, den**2)).decide(counts)
        assert below == [False] + [None if lo < upper else False for lo, _ in bounds[1:]]
