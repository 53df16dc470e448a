"""View sets, membership LPs and their invariants.

Derived oracles: brute-force channel application by explicit summation,
and a grid search over binary channels for the minimum-distance value.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from byzfc.decoder import DecoderConfig, explanation_set
from byzfc.probability import (Alphabet, Channel, JointPmf, derive_seed, philox,
                               pmf_from_dict, sample_iid, tv_distance)
from byzfc.viewsets import ViewSetHandle, distance_to_viewset, induce_view

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
            res = distance_to_viewset(h, erasure_pmf, mode="exact")
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
        res = distance_to_viewset(h, q, mode="exact")
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
                res = distance_to_viewset(h, q, mode="exact")
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
        res_f = distance_to_viewset(ViewSetHandle(erasure_pmf.to_float(), frozenset({1, 2})),
                                    qm, mode="float")
        res_e = distance_to_viewset(h, qm_exact, mode="exact")
        assert abs(float(res_e.distance) - res_f.distance) < 1e-6
        res_f.verify(ViewSetHandle(erasure_pmf.to_float(), frozenset({1, 2})), qm)

    def test_marginal_gap_lower_bound_exact(self, erasure_pmf):
        # distance >= TV gap of the untouched-coordinate marginal, always
        rng = philox(31)
        for seed in range(10):
            q = JointPmf(erasure_pmf.axes,
                         (lambda m: m / m.sum())(rng.random(erasure_pmf.mass.shape) + 0.01))
            for aset in ({0}, {2}, {1, 2}):
                h = ViewSetHandle(erasure_pmf.to_float(), frozenset(aset))
                res = distance_to_viewset(h, q, mode="float")
                untouched = tuple(c for c in range(4) if c not in aset)
                gap = erasure_pmf.to_float().marginalize(untouched).tv_distance(
                    q.marginalize(untouched))
                assert res.distance >= gap - 1e-7


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

    def test_honest_type_in_all_viewsets(self, erasure_pmf, threshold_3_2, erasure_config):
        pf = erasure_pmf.to_float()
        fails = 0
        for seed in range(25):
            blk = sample_iid(pf, 5000, seed=derive_seed(77, seed))
            if explanation_set(erasure_config, blk) != list(range(len(threshold_3_2.sets))):
                fails += 1
        assert fails == 0

    def test_triangle_consistency(self, erasure_pmf):
        rng = philox(6)
        h = ViewSetHandle(erasure_pmf.to_float(), frozenset({1}))
        for seed in range(8):
            q1 = JointPmf(erasure_pmf.axes,
                          (lambda m: m / m.sum())(rng.random(erasure_pmf.mass.shape) + .01))
            q2 = JointPmf(erasure_pmf.axes,
                          (lambda m: m / m.sum())(rng.random(erasure_pmf.mass.shape) + .01))
            d1 = distance_to_viewset(h, q1, mode="float").distance
            d2 = distance_to_viewset(h, q2, mode="float").distance
            assert d1 <= d2 + tv_distance(q1, q2) + 1e-7
