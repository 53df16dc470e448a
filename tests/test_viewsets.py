"""View sets, membership LPs and their invariants.

Derived oracles: brute-force channel application by explicit summation,
and a grid search over binary channels for the minimum-distance value.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from byzfc import decoder, viewsets
from byzfc.adversary import (BlockSplit, Honest, MemorylessChannel, ResampleW, WitnessDMC,
                             attack)
from byzfc.decoder import DecoderConfig, build_decoder_config, explanation_set
from byzfc.examples_lib import random_pmf
from byzfc.polytope import ChannelVars
from byzfc.probability import (Alphabet, Channel, JointPmf, ProbabilityError, SampleBlock,
                               derive_seed, empirical_type, philox, pmf_from_dict, sample_iid,
                               tv_distance, type_counts, uniform_pmf)
from byzfc.simplex import Tableau
from byzfc.structures import AdversaryStructure
from byzfc.viability import check_s_viability
from byzfc.viewsets import (CERT_BITS, DistanceScreen, ViewSetHandle, _certificate,
                            _distance_exact, distance_to_viewset, induce_view)

from test_decoder import exact_type_block
from test_simplex import integer_rows


def random_channel(axes, seed, small=False):
    """A random channel with positive rows: small integer weights over their
    sum, or random floats taken exactly, each row's last entry closing it to
    1, so that an attack's cumulative table is the float rows'."""
    rng = philox(seed)
    n = int(np.prod([a.size for a in axes]))
    if small:
        rows = np.empty((n, n), dtype=object)
        for i in range(n):
            w = [int(v) for v in rng.integers(1, 6, size=n)]
            tot = sum(w)
            for j in range(n):
                rows[i, j] = Fraction(w[j], tot)
    else:
        rows = rng.random((n, n)) + 0.05
        rows = rows / rows.sum(axis=1, keepdims=True)
        head = np.array([[Fraction(x) for x in row[:-1]] for row in rows], dtype=object)
        rows = np.concatenate([head, 1 - head.sum(axis=1, keepdims=True)], axis=1)
    shape = tuple(a.size for a in axes)
    return Channel(axes, axes, rows.reshape(shape + shape))


def rational_pmf(axes, rng) -> JointPmf:
    """A random exact law on axes with full support."""
    w = rng.integers(1, 1001, size=[a.size for a in axes])
    mass = np.array([Fraction(int(v), int(w.sum())) for v in w.reshape(-1)], dtype=object)
    return JointPmf(axes, mass.reshape(w.shape))


def coefficients(w: ChannelVars, v) -> list[tuple[tuple[int, ...], int, int]]:
    """View v's ``(tx, var, num)`` read off P by index: one per input tx in
    ``w.rows`` with num / den = P(v with w's coords <- tx) > 0, in that
    order; var is W(v's coords | tx)."""
    ux, out = tuple(v[c] for c in w.coords), []
    for tx in w.rows:
        full = list(v)
        for pos, c in enumerate(w.coords):
            full[c] = tx[pos]
        num = Fraction(w.p.mass[tuple(full)]) * w.den
        assert num.denominator == 1
        if num > 0:
            out.append((tx, w.var[(tx, ux)], num.numerator))
    return out


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
        w = random_channel(axes, seed=3, small=True)
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
            res = distance_to_viewset(h, erasure_pmf, 0)
            assert res.upper == 0
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
        gap = p.marginalize((1, 2)).tv_distance(q.marginalize((1, 2)))
        res = distance_to_viewset(h, q, gap)
        assert gap > 0
        assert res.upper == gap
        # grid oracle over binary channels upper-bounds and approaches it
        best = 1
        grid = [Fraction(i, 20) for i in range(21)]
        for a00 in grid:
            for a10 in grid:
                w = Channel((b,), (b,), np.array([[a00, 1 - a00], [a10, 1 - a10]]))
                best = min(best, tv_distance(induce_view(p, {0}, w), q))
        assert res.upper <= best <= res.upper + Fraction(1, 20)

    def test_induced_views_have_distance_zero(self, erasure_pmf):
        for seed in range(6):
            for aset in ({0}, {1, 2}):
                axes = tuple(erasure_pmf.axes[c] for c in sorted(aset))
                w = random_channel(axes, seed=seed, small=True)
                q = induce_view(erasure_pmf, aset, w)
                h = ViewSetHandle(erasure_pmf, frozenset(aset))
                res = distance_to_viewset(h, q, 0)
                assert res.upper == 0
                res.verify(h, q)

    def test_float_matches_exact(self, erasure_pmf):
        # HiGHS's bounds, made exact, bracket the simplex's distance closely
        q = induce_view(erasure_pmf, {1, 2},
                        random_channel((erasure_pmf.axes[1], erasure_pmf.axes[2]),
                                       seed=9, small=True))
        # mix toward uniform to get a positive distance
        u = uniform_pmf(q.axes)
        q = JointPmf(q.axes, Fraction(7, 10) * q.mass + Fraction(3, 10) * u.mass)
        h = ViewSetHandle(erasure_pmf, frozenset({1, 2}))
        exact = _distance_exact(h, q)
        assert exact.lower == exact.upper > 0 and exact.nearest_channel is not None
        exact.verify(h, q)
        for thresh in (exact.lower / 2, 2 * exact.lower):
            res = distance_to_viewset(h, q, thresh)
            assert res.lower <= exact.lower <= res.upper < res.lower + Fraction(1, 10**6)
            res.verify(h, q)

    def test_marginal_gap_lower_bound_exact(self, erasure_pmf):
        # distance >= TV gap of the untouched-coordinate marginal, always:
        # a radius just below the gap never admits the type
        rng = philox(31)
        for seed in range(10):
            q = rational_pmf(erasure_pmf.axes, rng)
            for aset in ({0}, {2}, {1, 2}):
                untouched = tuple(c for c in range(4) if c not in aset)
                gap = erasure_pmf.marginalize(untouched).tv_distance(q.marginalize(untouched))
                h = ViewSetHandle(erasure_pmf, frozenset(aset))
                thresh = gap - Fraction(1, 10**12)
                res = distance_to_viewset(h, q, thresh)
                assert res.lower <= res.upper and res.upper > thresh


class TestHandleCache:
    @pytest.mark.parametrize("exact", [True, False])
    def test_reused_handle_matches_a_fresh_one(self, erasure_pmf, exact):
        # the LP's rows and matrix are built once per handle; only q changes.
        # exact: the rational simplex; else the certified HiGHS bounds
        rng = philox(21)
        for aset in ({0}, {1, 2}):
            shared = ViewSetHandle(erasure_pmf, frozenset(aset))
            for seed in range(3):
                law = rational_pmf(erasure_pmf.axes, rng)
                q = empirical_type(sample_iid(law.to_float(), 300, seed=seed))

                def solve(h):
                    return _distance_exact(h, q) if exact else distance_to_viewset(h, q, 1)

                got, want = solve(shared), solve(ViewSetHandle(erasure_pmf, frozenset(aset)))
                assert (got.lower, got.upper) == (want.lower, want.upper) and got.upper > 0
                assert np.array_equal(got.nearest_channel.rows, want.nearest_channel.rows)


def _fraction_distance_lp(handle: ViewSetHandle):
    """The view-distance LP with P-valued Fraction rows: P(v with A <- tx)
    on W(ux | tx), -1 and 1 on the view slacks, then the row sums."""
    w = ChannelVars(handle.base, handle.coords)
    views = list(np.ndindex(handle.base.mass.shape))
    nv = len(views)
    rows = [[Fraction(0)] * (w.size + 2 * nv) for _ in range(nv + len(w.rows))]
    for vi, v in enumerate(views):
        for _, var, num in coefficients(w, v):
            rows[vi][var] = Fraction(num, w.den)
        rows[vi][w.size + vi], rows[vi][w.size + nv + vi] = -1, 1
    for ti, tx in enumerate(w.rows):
        for ux in w.outs:
            rows[nv + ti][w.var[(tx, ux)]] = 1
    return w, rows


def _fraction_distance(handle: ViewSetHandle, q: JointPmf):
    """Distance and nearest channel from the Fraction rows (right-hand side
    q), started at the identity channel with slacks P - q split by sign."""
    p = handle.base
    w, rows = _fraction_distance_lp(handle)
    views = list(np.ndindex(p.mass.shape))
    nv = len(views)
    start = [Fraction(0)] * (w.size + 2 * nv)
    for tx in w.rows:
        start[w.var[(tx, tx)]] = Fraction(1)
    for vi, v in enumerate(views):
        gap = p.mass[v] - q.mass[v]
        start[w.size + vi if gap > 0 else w.size + nv + vi] = abs(gap)
    b = [q.mass[v] for v in views] + [1] * len(w.rows)
    t = Tableau(*integer_rows(rows, b), start=start)
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
                assert np.array_equal(A, np.array(rows, dtype=float))
            for q in types:
                if aset:
                    got = _distance_exact(handle, q)
                    dist, chan = _fraction_distance(handle, q)
                    assert got.lower == got.upper == dist
                    assert got.nearest_channel.to_json_dict() == chan.to_json_dict()
                else:
                    got = distance_to_viewset(handle, q, 0)
                    assert got.lower == got.upper == law.tv_distance(q)
                lps += 1
    assert lps == 105


def _float_law_lp(law: JointPmf, aset: frozenset) -> np.ndarray:
    """The float view-distance LP's matrix as a table of the law's float mass
    built it: the float mass P(v with A <- tx) on W(ux | tx) for inputs tx in
    the float marginal's support, -1 and 1 on the view slacks, then the row sums."""
    pf, coords = law.mass.astype(np.float64), tuple(sorted(aset))
    axes = tuple(law.axes[c] for c in coords)
    outs = list(product(*(range(a.size) for a in axes)))
    marg = pf.sum(axis=tuple(c for c in range(law.k) if c not in coords))
    ins = [tx for tx in outs if marg[tx] > 0]
    views = list(product(*(range(a.size) for a in law.axes)))
    no, nv = len(outs), len(views)
    nw = len(ins) * no
    A = np.zeros((nv + len(ins), nw + 2 * nv))
    for vi, v in enumerate(views):
        ux = tuple(v[c] for c in coords)
        for ti, tx in enumerate(ins):
            full = list(v)
            for pos, c in enumerate(coords):
                full[c] = tx[pos]
            A[vi, ti * no + outs.index(ux)] = pf[tuple(full)]
        A[vi, nw + vi], A[vi, nw + nv + vi] = -1, 1
    for ti in range(len(ins)):
        A[nv + ti, ti * no:(ti + 1) * no] = 1
    return A


def test_float_lp_matrix_is_the_float_laws(erasure_pmf, threshold_3_2):
    # num / den in float and the law's float mass are both P's entry
    # correctly rounded, so reading the exact table moves no bit
    laws = [erasure_pmf] + [random_pmf(sizes, seed=seed, max_weight=top)
                            for sizes in ((2, 2, 2, 2), (3, 3, 3, 2), (2, 3, 3, 2))
                            for seed in range(3) for top in (3, 1000003)]
    handles = 0
    for law in laws:
        for aset in threshold_3_2.sets:
            if aset:
                want = _float_law_lp(law, aset)
                got = ViewSetHandle(law, aset)._float_lp[1]
                assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
                handles += 1
    assert handles == 114


@pytest.fixture(scope="module")
def band_types(screen_blocks, erasure_pmf, threshold_3_2):
    """(handle, type) pairs that the bounds leave to the LP at delta = 0.1:
    the erasure law's screen blocks, and memoryless attacks on every set of
    random_pmf (2,2,2,2) at threshold 2 of 3 and (2,2,2,2,2) at 2 of 4."""
    laws = [(erasure_pmf, threshold_3_2, screen_blocks)]
    for sizes in ((2, 2, 2, 2), (2, 2, 2, 2, 2)):
        law = random_pmf(sizes, seed=0)
        structure = AdversaryStructure.threshold(len(sizes) - 1, 2)
        blocks = []
        for aset in structure.sets[1:]:
            axes = tuple(law.axes[c] for c in sorted(aset))
            for t in range(3):
                blk = sample_iid(law.to_float(), 1000, seed=derive_seed(43, sorted(aset), t))
                blocks.append(attack(MemorylessChannel(random_channel(axes, t)), aset, blk,
                                     seed=derive_seed(44, sorted(aset), t)))
        laws.append((law, structure, blocks))
    out = []
    for p, structure, blks in laws:
        screen = DistanceScreen(p, structure.sets, 0.1)
        for blk in blks:
            for aset, inside in zip(structure.sets, screen.decide(type_counts(blk))):
                if inside is None:
                    out.append((ViewSetHandle(p, aset), empirical_type(blk)))
    return out


def simplex_only(h, q, thresh):
    """``distance_to_viewset`` with the rational simplex deciding alone."""
    return _distance_exact(h, q)


def no_fallback(h, q):
    raise AssertionError("the certificate should decide")


class TestCertificate:
    """The exact bounds that ``distance_to_viewset`` reads off a HiGHS solve."""

    def test_certificate_brackets_the_exact_distance(self, band_types, monkeypatch):
        # a threshold of 1 is decided by any upper bound, so each call returns
        # the certificate itself; its gap is float round-off
        widest = 0
        for h, q in band_types:
            dist = _distance_exact(h, q).lower
            with monkeypatch.context() as m:
                m.setattr(viewsets, "_distance_exact", no_fallback)
                res = distance_to_viewset(h, q, 1)
            assert res.lower <= dist <= res.upper
            res.verify(h, q)
            widest = max(widest, res.upper - res.lower)
        assert len(band_types) == 157 and widest < Fraction(1, 10**6)

    def test_clipped_duals_and_rounded_channels_bound_the_distance(self, band_types):
        # any duals within 1/2 and any rational channel give valid bounds;
        # the integer bounds match Fraction sums over the pmf methods
        from scipy.optimize import linprog

        one, rng = 1 << CERT_BITS, philox(45)
        for h, q in band_types[::6]:
            w, A, c, ones = h._float_lp
            res = linprog(c, A_eq=A, b_eq=np.concatenate([q.mass.reshape(-1).astype(float), ones]),
                          bounds=(0, None), method="highs")
            duals = res.eqlin.marginals[:q.mass.size] + rng.normal(0, 0.3, q.mass.size)
            g = np.clip(np.rint(duals * one), -one // 2, one // 2).astype(np.int64).tolist()
            chan = rng.multinomial(one, np.full(len(w.outs), 1 / len(w.outs)), size=len(w.rows))
            got = _certificate(w, q, chan.reshape(-1).tolist(), g)
            dist = _distance_exact(h, q).lower
            assert got.lower == reference_lower(w, q, g) <= dist <= got.upper
            got.verify(h, q)

    @pytest.mark.parametrize("law", ["huge", "ternary"])
    def test_bounds_past_int64_match_the_fractions(self, law):
        # den << CERT_BITS passes 2**63 - 1 on the 2**61 + 1 law, so the duals
        # and the channel meet the view rows in Python ints; on the ternary
        # law they fit int64.  Lower: the Fraction sums; upper: half the L1
        # gap between the rational channel's view and q
        if law == "huge":
            den = 2**61 + 1
            nums = [den // 8] * 7
            mass = np.array([Fraction(v, den) for v in nums + [den - sum(nums)]], dtype=object)
            p, sets = JointPmf((Alphabet.binary(),) * 3, mass.reshape(2, 2, 2)), ({0}, {1}, {0, 1})
        else:
            p, sets = random_pmf((3, 3, 3, 3), seed=11), ({0}, {2}, {0, 1}, {1, 2})
        one, rng = 1 << CERT_BITS, philox(47)
        for aset in sets:
            w = ViewSetHandle(p, frozenset(aset))._exact_lp[0]
            assert (w.den << CERT_BITS > viewsets.INT64_MAX) == (law == "huge")
            for seed in range(3):
                q = empirical_type(sample_iid(p.to_float(), 500, seed=derive_seed(48, seed)))
                g = np.clip(np.rint(rng.normal(0, 0.3, q.mass.size) * one), -one // 2, one // 2)
                g = g.astype(np.int64).tolist()
                chan = rng.multinomial(one, np.full(len(w.outs), 1 / len(w.outs)),
                                       size=len(w.rows)).reshape(-1).tolist()
                got = _certificate(w, q, chan, g)
                view = induce_view(p, aset, w.channel([Fraction(c, one) for c in chan]))
                assert got.lower == reference_lower(w, q, g)
                assert got.upper == view.tv_distance(q)

    def test_threshold_at_the_distance_reaches_the_fallback(self, band_types, monkeypatch):
        exact = []
        monkeypatch.setattr(viewsets, "_distance_exact",
                            lambda h, q: exact.append(h) or _distance_exact(h, q))
        for h, q in band_types[::4]:
            dist = _distance_exact(h, q).lower
            exact.clear()
            res = distance_to_viewset(h, q, dist)
            assert exact == [h] and res.lower == res.upper == dist

    def test_a_failed_solve_falls_back(self, band_types, monkeypatch):
        import scipy.optimize

        failed = type("Failed", (), {"success": False, "message": "synthetic failure"})()
        monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: failed)
        for h, q in band_types[:5]:
            res, want = distance_to_viewset(h, q, 0.1), _distance_exact(h, q)
            assert (res.lower, res.upper) == (want.lower, want.upper)
            assert np.array_equal(res.nearest_channel.rows, want.nearest_channel.rows)


def reference_lower(w: ChannelVars, q: JointPmf, g: list[int]) -> Fraction:
    """sum_v g(v) q(v) - sum_tx max_ux sum_rest P(tx, rest) g(ux, rest), in Fractions."""
    gv = [Fraction(x, 2**CERT_BITS) for x in g]
    worst = {key: Fraction(0) for key in w.var}
    views = list(np.ndindex(q.mass.shape))
    for vi, v in enumerate(views):
        for tx, _, num in coefficients(w, v):
            worst[(tx, tuple(v[c] for c in w.coords))] += Fraction(num, w.den) * gv[vi]
    return (sum(gv[vi] * q.mass[v] for vi, v in enumerate(views))
            - sum(max(worst[(tx, ux)] for ux in w.outs) for tx in w.rows))


class TestMembership:
    """View-set membership as the decoder computes it, one set at a time."""

    def test_base_in_all(self, erasure_pmf, erasure_f_uv, threshold_3_2, erasure_config):
        # the source law is in every view set at distance exactly zero
        cfg = DecoderConfig(base=erasure_pmf, structure=threshold_3_2, f=erasure_f_uv,
                            delta=1e-12, g_tables=erasure_config.g_tables)
        blk = exact_type_block(erasure_pmf)
        assert explanation_set(cfg, blk) == list(range(len(threshold_3_2.sets)))

    def test_delta_one_contains_everything(self, erasure_pmf, erasure_f_uv, threshold_3_2,
                                           erasure_config):
        q = rational_pmf(erasure_pmf.axes, philox(4))
        cfg = DecoderConfig(base=erasure_pmf, structure=threshold_3_2, f=erasure_f_uv,
                            delta=1.0, g_tables=erasure_config.g_tables)
        blk = sample_iid(q.to_float(), 500, seed=4)
        assert explanation_set(cfg, blk) == list(range(len(threshold_3_2.sets)))

    def test_honest_type_in_all_viewsets(self, erasure_pmf, threshold_3_2, erasure_config,
                                         monkeypatch):
        # the bounds settle every honest block, so no LP runs
        lps = []
        monkeypatch.setattr(decoder, "distance_to_viewset",
                            lambda h, q, t: lps.append(h) or distance_to_viewset(h, q, t))
        pf = erasure_pmf.to_float()
        fails = 0
        for seed in range(25):
            blk = sample_iid(pf, 5000, seed=derive_seed(77, seed))
            if explanation_set(erasure_config, blk) != list(range(len(threshold_3_2.sets))):
                fails += 1
        assert fails == 0
        assert lps == []

    def test_triangle_consistency(self, erasure_pmf):
        # d1 <= d2 + TV(q1, q2) holds between the exact bounds as well
        rng = philox(6)
        h = ViewSetHandle(erasure_pmf, frozenset({1}))
        for seed in range(8):
            q1, q2 = rational_pmf(erasure_pmf.axes, rng), rational_pmf(erasure_pmf.axes, rng)
            r1, r2 = distance_to_viewset(h, q1, 1), distance_to_viewset(h, q2, 1)
            assert r1.lower <= r2.upper + tv_distance(q1, q2)


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
           flip, attacked("uniform", frozenset(), Honest(), uniform_pmf(axes).to_float())]
    for r in far:
        blocks += [splice(honest, r, int(t * n)) for t in (0.25, 0.5, 1.0)]
    return blocks


class TestScreen:
    """The decoder's bound screen against the view-distance LP it skips."""

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_bounds_bracket_the_lp_and_keep_every_decision(
            self, mode, screen_blocks, erasure_config, monkeypatch):
        # exact: the rational simplex decides every set the screen leaves;
        # float: HiGHS's certified bounds do, falling back to the simplex
        if mode == "exact":
            monkeypatch.setattr(decoder, "distance_to_viewset", simplex_only)
        seen = {"reject": 0, "accept": 0, "band, in": 0, "band, out": 0}
        for blk in screen_blocks:
            ty, lp_only = empirical_type(blk), []
            bounds = erasure_config.screen.bounds(type_counts(blk))
            for i, h in enumerate(erasure_config.handles):
                lower, upper = bounds[i]
                dist = _distance_exact(h, ty).lower if h.coords else h.base.tv_distance(ty)
                assert lower <= dist <= upper
                if dist <= 0.1:
                    lp_only.append(i)
                seen["reject" if lower > 0.1 else "accept" if upper <= 0.1
                     else "band, in" if dist <= 0.1 else "band, out"] += 1
            assert explanation_set(erasure_config, blk) == lp_only
        assert all(seen.values()), seen

    def test_both_modes_explain_alike(self, screen_blocks, erasure_config, monkeypatch):
        # the certified HiGHS bounds and the rational simplex alone decide alike
        certified = [explanation_set(erasure_config, blk) for blk in screen_blocks]
        monkeypatch.setattr(decoder, "distance_to_viewset", simplex_only)
        assert [explanation_set(erasure_config, blk) for blk in screen_blocks] == certified

    def test_screen_needs_an_exact_law(self, erasure_pmf):
        counts = type_counts(exact_type_block(erasure_pmf))
        sets = [frozenset(s) for s in ({0}, {1, 2})]
        assert DistanceScreen(erasure_pmf, sets, 0.1).bounds(counts) == [(0, 0), (0, 0)]
        assert DistanceScreen(erasure_pmf, [], 0.1).bounds(counts) == []
        with pytest.raises(ProbabilityError, match="a pmf must be exact"):
            JointPmf(erasure_pmf.axes, erasure_pmf.mass.astype(np.float64))

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

    def test_rejects_just_above_the_threshold_without_an_lp(
            self, screen_blocks, erasure_pmf, erasure_f_uv, threshold_3_2, monkeypatch):
        # every lower bound exceeds delta, the nearest by less than 1e-9:
        # the exact bounds reject every set, and no LP is asked
        blk = screen_blocks[-1]
        counts = type_counts(blk)
        nearest = min(lo for lo, _ in DistanceScreen(erasure_pmf, threshold_3_2.sets, 0.1)
                      .bounds(counts))
        delta = float(nearest) - 5e-10
        assert 0 < nearest - Fraction(delta) < Fraction(1, 10**9)

        def no_lp(h, q, thresh):
            raise AssertionError("the screen should settle every set")

        monkeypatch.setattr(decoder, "distance_to_viewset", no_lp)
        cfg = DecoderConfig(base=erasure_pmf, structure=threshold_3_2, f=erasure_f_uv,
                            delta=delta)
        assert cfg.screen.decide(counts) == [False] * len(threshold_3_2.sets)
        assert explanation_set(cfg, blk) == []


def reference_bounds(base: JointPmf, q: JointPmf, aset) -> tuple:
    """TV(P, Q) outside the adversary set, and TV(P, Q), by the pmf methods."""
    rest = [c for c in range(base.k) if c not in aset]
    return base.marginalize(rest).tv_distance(q.marginalize(rest)), base.tv_distance(q)


class TestBoundsReference:
    """The screen's bounds on counts against an independent computation on the type."""

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_screen_blocks(self, mode, screen_blocks, erasure_pmf, erasure_f_uv,
                           threshold_3_2):
        # either mode build_decoder_config accepts gives the same exact screen
        cfg = build_decoder_config(erasure_pmf, erasure_f_uv, threshold_3_2, 0.1, mode=mode)
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


def law_over(den: int, seed: int) -> JointPmf:
    """A law on three binary axes whose numerators have common denominator
    den, the first cell's numerator 1."""
    rng = philox(seed)
    nums = [1] + [int(v) for v in rng.integers(1, den // 8, size=6)]
    mass = np.array([Fraction(v, den) for v in nums + [den - sum(nums)]], dtype=object)
    a = Alphabet.binary()
    return JointPmf((a, a, a), mass.reshape(2, 2, 2))


def python_int_numerators(screen: DistanceScreen, counts: np.ndarray):
    """``DistanceScreen._numerators`` with every product in Python ints."""
    n = int(counts.sum())
    marg = np.array(screen._marginals(counts).tolist(), dtype=object)
    gap = np.array(screen.pm.tolist(), dtype=object) * n - marg * screen.pd
    return np.add.reduceat(np.abs(gap), screen.starts).tolist(), 2 * screen.pd * n


class TestScreenArithmetic:
    """The int64 differences against the Python-int ones, on random counts."""

    SETS = [frozenset(s) for s in ((), (0,), (1,), (0, 1))]
    # 2 * pd * n fits int64 up to n = 4194303 at pd = 2**40 + 3
    BOUNDARY = (2**63 - 1) // (2 * (2**40 + 3))

    def check(self, screen, counts, int64: bool):
        want = python_int_numerators(screen, counts)
        assert (want[1] <= np.iinfo(np.int64).max) == int64
        assert screen._numerators(counts) == want

    def test_random_counts(self, erasure_pmf, threshold_3_2):
        rng = philox(530)
        screens = [(DistanceScreen(erasure_pmf, threshold_3_2.sets, 0.1), erasure_pmf)]
        screens += [(DistanceScreen(law_over(den, den), self.SETS, 0.1), law_over(den, den))
                    for den in (8 * 9 * 5, 2**31 - 1, 2**40 + 3)]
        for screen, law in screens:
            p = law.mass.reshape(-1).astype(np.float64)
            for n in (1, 7, 5000, int(rng.integers(1, 10**6))):
                self.check(screen, rng.multinomial(n, p), int64=True)
                # counts unlike the law's: some cells empty, others crowded
                skew = rng.integers(0, 3, size=p.size) * rng.integers(0, n + 1, size=p.size)
                skew[int(rng.integers(p.size))] += 1
                self.check(screen, skew, int64=2 * screen.pd * int(skew.sum()) < 2**63)

    def test_the_int64_path_ends_where_2_pd_n_overflows(self):
        # all counts on the first cell: the upper bound's sum 2 * n * (pd - 1)
        # overflows int64 from BOUNDARY + 1 on
        law = law_over(2**40 + 3, 531)
        screen, rng = DistanceScreen(law, self.SETS, 0.1), philox(532)
        p = law.mass.reshape(-1).astype(np.float64)
        for n in range(self.BOUNDARY - 2, self.BOUNDARY + 3):
            point = np.zeros(p.size, dtype=np.int64)
            point[0] = n
            for counts in (rng.multinomial(n, p), point):
                self.check(screen, counts, int64=n <= self.BOUNDARY)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_huge_denominator_falls_back(self, seed):
        # every product overflows int64 here, so only the fallback matches
        law = law_over(2**61 + 1, seed)
        screen, rng = DistanceScreen(law, self.SETS, 0.1), philox(533 + seed)
        for n in (4, 5000):
            self.check(screen, rng.multinomial(n, law.mass.reshape(-1).astype(np.float64)),
                       int64=False)
