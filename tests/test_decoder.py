"""Decoder branch logic, scoring, and decoding-quality Monte Carlo."""

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from byzfc import decoder, viability
from byzfc.decoder import (DecoderConfig, DecoderConfigError, TrialTruth, Verdict,
                           build_decoder_config, classify_error,
                           config_from_json_dict, config_to_json_dict, decode,
                           explanation_set)
from byzfc.polytope import ChannelVars
from byzfc.probability import (Alphabet, Channel, SampleBlock, apply_pointwise,
                               derive_seed, empirical_type, hamming_distortion,
                               philox, pmf_from_dict, sample_iid)
from byzfc.structures import AdversaryStructure, TargetFunction, nonintersecting_collections

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

import workloads  # noqa: E402


def exact_type_block(erasure_pmf):
    """n=8 block whose empirical type equals the example law exactly."""
    a = erasure_pmf.axes
    cols = []
    for u in (0, 1):
        cols += [(u, u, u, u)] * 2
        cols += [(u, "e2", u, "e"), (u, u, "e3", "e")]
    users = np.array([[a[i].index(c[i]) for c in cols] for i in range(3)], dtype=np.int64)
    side = np.array([a[3].index(c[3]) for c in cols], dtype=np.int64)
    return SampleBlock(a, users, side)


class TestBranches:
    def test_exact_type_gives_f_pointwise(self, erasure_pmf, erasure_f_uv,
                                          erasure_config):
        blk = exact_type_block(erasure_pmf)
        assert empirical_type(blk) == erasure_pmf
        explain = explanation_set(erasure_config, blk)
        # every set explains, including the honest (empty) one
        assert explain == list(range(len(erasure_config.structure.sets)))
        v = decode(erasure_config, blk)
        assert v.kind == "estimate"
        assert np.array_equal(v.estimate, apply_pointwise(erasure_f_uv, blk))

    def test_no_explanation_with_tiny_delta(self, erasure_pmf, erasure_f_uv,
                                            threshold_3_2, erasure_config):
        # a block supported on a single impossible-ish tuple with delta tiny
        cfg = DecoderConfig(base=erasure_config.base, structure=threshold_3_2,
                            f=erasure_f_uv, delta=1e-4,
                            g_tables=erasure_config.g_tables)
        a = erasure_pmf.axes
        users = np.array([[a[0].index(0)], [a[1].index("e2")], [a[2].index("e3")]],
                         dtype=np.int64)
        side = np.array([a[3].index(0)], dtype=np.int64)
        blk = SampleBlock(a, users, side)
        assert decode(cfg, blk).kind == "no_explanation"

    def test_blame_smallest_in_intersection(self):
        # two users, Y pins both: a corrupted user 0 must be blamed as 0
        b = Alphabet.binary()
        p = pmf_from_dict((b, b, b), {(0, 0, 0): Fraction(1, 2),
                                      (1, 1, 1): Fraction(1, 2)})
        f = TargetFunction.from_callable(p.axes, b, lambda x1, x2, y: y)
        st = AdversaryStructure.threshold(2, 1)
        cfg = build_decoder_config(p, f, st, delta=0.1)
        blk = sample_iid(p.to_float(), 2000, seed=3)
        rng = philox(4)
        fresh = rng.integers(0, 2, 2000).astype(np.int64)
        rep = blk.replace_users({0: fresh})
        v = decode(cfg, rep)
        assert v.kind == "blame" and v.user == 0

    def test_fresh_attacker_never_blames_honest(self):
        b = Alphabet.binary()
        p = pmf_from_dict((b, b, b), {(0, 0, 0): Fraction(1, 2),
                                      (1, 1, 1): Fraction(1, 2)})
        f = TargetFunction.from_callable(p.axes, b, lambda x1, x2, y: y)
        cfg = build_decoder_config(p, f, AdversaryStructure.threshold(2, 1), delta=0.1)
        pf = p.to_float()
        for seed in range(30):
            blk = sample_iid(pf, 3000, seed=derive_seed(900, seed))
            rng = philox(derive_seed(901, seed))
            rep = blk.replace_users({0: rng.integers(0, 2, 3000).astype(np.int64)})
            v = decode(cfg, rep)
            assert not (v.kind == "blame" and v.user == 1)

    def test_missing_gtable_is_built_from_the_law(self, erasure_pmf, erasure_config):
        d = config_to_json_dict(erasure_config)
        partial = {**d, "g_tables": d["g_tables"][1:]}
        cfg = config_from_json_dict(partial)
        assert len(cfg.g_tables) == len(d["g_tables"]) - 1
        blk = sample_iid(erasure_pmf.to_float(), 500, seed=41)
        v1, v2 = decode(erasure_config, blk), decode(cfg, blk)
        assert v1.kind == v2.kind
        if v1.kind == "estimate":
            assert np.array_equal(v1.estimate, v2.estimate)
        assert workloads.digest(config_to_json_dict(cfg)) == workloads.digest(d)

    def test_block_axes_validated(self, erasure_config):
        b = Alphabet.binary()
        blk = SampleBlock((b, b, b), np.zeros((2, 4), dtype=np.int64),
                          np.zeros(4, dtype=np.int64))
        with pytest.raises(DecoderConfigError):
            decode(erasure_config, blk)


class TestMonteCarlo:
    def test_honest_low_distortion(self, erasure_pmf, erasure_f_uv, erasure_config):
        pf = erasure_pmf.to_float()
        ok = 0
        for seed in range(30):
            blk = sample_iid(pf, 5000, seed=derive_seed(910, seed))
            v = decode(erasure_config, blk)
            if v.kind == "estimate":
                truth = apply_pointwise(erasure_f_uv, blk)
                if hamming_distortion(v.estimate, truth) <= 0.02:
                    ok += 1
        assert ok >= 29

    def test_success_nondecreasing_in_n(self, erasure_pmf, erasure_f_uv,
                                        erasure_config):
        pf = erasure_pmf.to_float()
        rates = []
        for n in (500, 2000, 8000):
            ok = 0
            for seed in range(15):
                blk = sample_iid(pf, n, seed=derive_seed(920, seed))
                v = decode(erasure_config, blk)
                if v.kind == "estimate":
                    truth = apply_pointwise(erasure_f_uv, blk)
                    ok += hamming_distortion(v.estimate, truth) <= 0.05
            rates.append(ok / 15)
        slack = 2 / 15  # Monte Carlo error bars at this sample count
        assert rates[1] >= rates[0] - slack
        assert rates[2] >= rates[1] - slack


class TestInvariants:
    def test_permutation_invariance(self, erasure_pmf, erasure_config):
        pf = erasure_pmf.to_float()
        blk = sample_iid(pf, 1000, seed=21)
        rng = philox(22)
        perm = rng.permutation(1000)
        pblk = SampleBlock(blk.axes, blk.user_seqs[:, perm], blk.side_seq[perm])
        v1 = decode(erasure_config, blk)
        v2 = decode(erasure_config, pblk)
        assert v1.kind == v2.kind
        if v1.kind == "estimate":
            assert np.array_equal(v1.estimate[perm], v2.estimate)

    def test_explanations_monotone_in_delta(self, erasure_pmf, erasure_f_uv,
                                            threshold_3_2, erasure_config):
        pf = erasure_pmf.to_float()
        blk = sample_iid(pf, 400, seed=23)
        prev: set = set()
        for delta in (0.005, 0.02, 0.1, 0.5):
            cfg = DecoderConfig(base=erasure_pmf, structure=threshold_3_2, f=erasure_f_uv,
                                delta=delta, g_tables=erasure_config.g_tables)
            got = set(explanation_set(cfg, blk))
            assert prev <= got
            prev = got


class TestClassify:
    def truth(self, erasure_pmf, erasure_f_uv, aset, seed=31):
        blk = sample_iid(erasure_pmf.to_float(), 100, seed=seed)
        return TrialTruth(true_block=blk, adversary_set=frozenset(aset),
                          true_z=apply_pointwise(erasure_f_uv, blk))

    def test_blame_in_set_ok(self, erasure_pmf, erasure_f_uv):
        t = self.truth(erasure_pmf, erasure_f_uv, {1})
        assert classify_error(Verdict(kind="blame", user=1), t, 0.05) == "ok"

    def test_blame_outside_set_is_e1(self, erasure_pmf, erasure_f_uv):
        t = self.truth(erasure_pmf, erasure_f_uv, {1, 2})
        assert classify_error(Verdict(kind="blame", user=0), t, 0.05) == "E1"

    def test_zero_distortion_estimate_ok(self, erasure_pmf, erasure_f_uv):
        t = self.truth(erasure_pmf, erasure_f_uv, set())
        v = Verdict(kind="estimate", estimate=t.true_z.copy())
        assert classify_error(v, t, 0.01) == "ok"

    def test_bad_estimate_is_e2(self, erasure_pmf, erasure_f_uv):
        t = self.truth(erasure_pmf, erasure_f_uv, set())
        wrong = (t.true_z + 1) % len(erasure_f_uv.codomain.symbols)
        v = Verdict(kind="estimate", estimate=wrong)
        assert classify_error(v, t, 0.5) == "E2"

    def test_no_explanation_is_e2(self, erasure_pmf, erasure_f_uv):
        for aset in (set(), {1}, {1, 2}):
            t = self.truth(erasure_pmf, erasure_f_uv, aset)
            assert classify_error(Verdict(kind="no_explanation"), t, 0.05) == "E2"


class TestConfigSerialization:
    def test_roundtrip_preserves_tables(self, erasure_config):
        d = config_to_json_dict(erasure_config)
        again = config_from_json_dict(d)
        assert set(again.g_tables) == set(erasure_config.g_tables)
        for key, g in erasure_config.g_tables.items():
            assert np.array_equal(again.g_tables[key].table, g.table)
            assert np.array_equal(again.g_tables[key].defined_mask, g.defined_mask)

    @pytest.mark.parametrize("field", ["codomain", "axes"])
    def test_gtable_off_the_law_or_function_rejected(self, field, erasure_config):
        # decode reads a table through the law's axes and f's codomain, so a
        # table listing either in another order would decode wrong labels
        d = config_to_json_dict(erasure_config)
        g = d["g_tables"][0]
        g[field] = g[field][::-1] if field == "codomain" else [g["axes"][0][::-1], *g["axes"][1:]]
        with pytest.raises(DecoderConfigError, match="does not match"):
            config_from_json_dict(d)

    @pytest.mark.parametrize("case", ["table-short", "defined-long", "defined-string",
                                      "viable-string", "collection-twice", "delta-string",
                                      "slack-bool"])
    def test_malformed_gtables_rejected(self, case, erasure_config):
        d = config_to_json_dict(erasure_config)
        g0 = d["g_tables"][0]
        if case == "table-short":
            g0["table"] = g0["table"][:-1]
        elif case == "defined-long":
            g0["defined"] = g0["defined"] + [False]
        elif case == "defined-string":
            g0["defined"] = ["false", *g0["defined"][1:]]
        elif case == "viable-string":
            d["viable"] = "false"
        elif case == "delta-string":
            d["delta"] = "0.1"
        elif case == "slack-bool":
            d["slack"] = True
        else:
            d["g_tables"].append({**g0, "collection": g0["collection"][::-1]})
        with pytest.raises(DecoderConfigError):
            config_from_json_dict(d)

    def test_roundtrip_decodes_identically(self, erasure_pmf, erasure_config):
        again = config_from_json_dict(config_to_json_dict(erasure_config))
        blk = sample_iid(erasure_pmf.to_float(), 500, seed=41)
        v1, v2 = decode(erasure_config, blk), decode(again, blk)
        assert v1.kind == v2.kind
        if v1.kind == "estimate":
            assert np.array_equal(v1.estimate, v2.estimate)


def _fresh_tables(p, f, structure):
    """Every collection's table from its own build_g call and fresh channel
    tables, with the config's conflict fallback, and whether none conflicted."""
    tables, viable = {}, True
    for col in nonintersecting_collections(structure):
        try:
            tables[frozenset(col)] = viability.build_g(p, f, col)
        except viability.GBuildConflict:
            viable = False
            tables[frozenset(col)] = viability.GTable(
                collection=col, domain_axes=tuple(p.axes), codomain=f.codomain,
                table=f.table, defined_mask=np.zeros(f.table.shape, dtype=bool))
    return tables, viable


class TestSharedChannelTables:
    """The config's tables, built on first use on one channel table per
    adversary set, and its viable flag match independent per-collection
    builds."""

    @pytest.mark.parametrize("instance", ["uv", "uvw", *range(12)])
    def test_config_matches_fresh_builds(self, instance, erasure_pmf, erasure_f_uv,
                                         erasure_f_uvw, threshold_3_2):
        # uvw conflicts, so it checks the fallback tables; the integers are
        # the benchmark's k=3 verdict instances
        if isinstance(instance, int):
            p, f = workloads.k3_instance(instance)
        else:
            p, f = erasure_pmf, {"uv": erasure_f_uv, "uvw": erasure_f_uvw}[instance]
        cfg = build_decoder_config(p, f, threshold_3_2, delta=0.1)
        want, viable = _fresh_tables(p, f, threshold_3_2)
        assert cfg.viable == viable
        if not isinstance(instance, int):
            assert viable == (instance == "uv")
        for col in nonintersecting_collections(threshold_3_2):
            g = cfg.g_table(col)
            assert g.collection == want[frozenset(col)].collection
            assert np.array_equal(g.table, want[frozenset(col)].table)
            assert np.array_equal(g.defined_mask, want[frozenset(col)].defined_mask)
        assert set(cfg.g_tables) == set(want)

    def test_uv_config_builds_one_table_per_set(self, erasure_pmf, erasure_f_uv,
                                                threshold_3_2, monkeypatch):
        cfg = build_decoder_config(erasure_pmf, erasure_f_uv, threshold_3_2, delta=0.1)
        built = []
        init = ChannelVars.__init__

        def counted(self, p, coords):
            built.append(coords)
            init(self, p, coords)

        monkeypatch.setattr(ChannelVars, "__init__", counted)
        config_to_json_dict(cfg)       # builds all 45 g-tables
        assert len(built) == len(set(built)) == 6


class TestExactModeDecode:
    def test_exact_membership_on_exact_type(self, erasure_pmf, erasure_f_uv,
                                            threshold_3_2, erasure_config):
        cfg = DecoderConfig(base=erasure_pmf, structure=threshold_3_2,
                            f=erasure_f_uv, delta=0.1,
                            g_tables=erasure_config.g_tables, mode="exact")
        blk = exact_type_block(erasure_pmf)
        v = decode(cfg, blk)
        assert v.kind == "estimate"
        assert np.array_equal(v.estimate, apply_pointwise(erasure_f_uv, blk))

    def test_replaced_mode_rebuilds_handles(self, erasure_pmf, erasure_f_uv,
                                            erasure_config):
        # the view handles follow the mode of a config derived by replace
        cfg = dataclasses.replace(erasure_config, mode="exact")
        assert all(h.base.exact for h in cfg.handles)
        blk = exact_type_block(erasure_pmf)
        v = decode(cfg, blk)
        assert v.kind == "estimate"
        assert np.array_equal(v.estimate, apply_pointwise(erasure_f_uv, blk))

    @pytest.mark.parametrize("mode, float_law", [("bogus", False), ("exact", True)])
    def test_bad_mode_rejected_at_construction(self, mode, float_law, erasure_pmf,
                                               erasure_config):
        base = erasure_pmf.to_float() if float_law else erasure_pmf
        with pytest.raises(DecoderConfigError):
            dataclasses.replace(erasure_config, base=base, mode=mode)

    @pytest.mark.parametrize("name, value", [("delta", math.nan), ("slack", math.nan),
                                             ("slack", -1e-7)])
    def test_bad_radius_rejected_at_construction(self, name, value, erasure_config):
        # NaN fails every comparison, so a `<= 0` test lets it through
        with pytest.raises(DecoderConfigError):
            dataclasses.replace(erasure_config, **{name: value})

    def test_exact_and_float_agree_on_samples(self, erasure_pmf, erasure_f_uv,
                                              threshold_3_2, erasure_config):
        exact_cfg = DecoderConfig(base=erasure_pmf, structure=threshold_3_2,
                                  f=erasure_f_uv, delta=0.1,
                                  g_tables=erasure_config.g_tables, mode="exact")
        for seed in range(5):
            blk = sample_iid(erasure_pmf.to_float(), 600, seed=derive_seed(990, seed))
            ve = decode(exact_cfg, blk)
            vf = decode(erasure_config, blk)
            assert ve.kind == vf.kind
            if ve.kind == "estimate":
                assert np.array_equal(ve.estimate, vf.estimate)


class TestRepairedTableApplied:
    """End-to-end repair path: an ambiguous off-support view must decode
    through the repaired table, not through raw f.

    The seeded instance has a law supported on three triples with constant
    side info; a matched pair of single-user attacks reaches the
    off-support view (0,2,1), whose only admissible truths (scenario {0}:
    (1,2,1); scenario {1}: (0,0,1)) share one f-value while raw f at the
    view differs.  A block whose type equals that induced view must yield
    an estimate with the shared truth value at those letters.
    """

    def build_instance(self):
        from byzfc.examples_lib import random_function, random_pmf
        from byzfc.viability import _Region, build_g
        from byzfc.viewsets import induce_view

        t = 178
        p = random_pmf((2, 3, 2), seed=derive_seed(3000, t), zero_frac=0.45,
                       max_weight=1)
        f = random_function(p, 2, seed=derive_seed(4000, t))
        col = (frozenset({0}), frozenset({1}))
        g = build_g(p, f, col)
        target = (0, 2, 1)
        assert g.defined_mask[target] and g.table[target] != f.table[target]
        region = _Region(p, col)
        m, tx = region.explanations(target)[0]
        # a feasible point with W_m(target's coordinates | tx) > 0
        ux = tuple(target[c] for c in region.members[m].coords)
        alive = region._sols[region.var(m, tx, ux)]
        sol = [Fraction(0)] * region.nvar
        for v, i in region.alive_index.items():
            sol[v] = alive[i]
        chans = region.channels_from(sol)
        view = induce_view(p, col[0], chans[0])
        assert view == induce_view(p, col[1], chans[1])
        assert view.mass[target] > 0
        return p, f, g, view, target

    def repair_block(self, p, view):
        """n=600 block whose empirical type is exactly the induced view,
        and its columns."""
        n = 600
        cols = []
        for idx in view.support_idx():
            count = view.mass[idx] * n
            assert count.denominator == 1
            cols += [idx] * int(count)
        users = np.array([[c[0] for c in cols], [c[1] for c in cols]],
                         dtype=np.int64)
        side = np.array([c[2] for c in cols], dtype=np.int64)
        blk = SampleBlock(p.axes, users, side)
        assert empirical_type(blk) == view
        return blk, cols

    def test_decoder_applies_repair(self):
        p, f, g, view, target = self.build_instance()
        st = AdversaryStructure.threshold(2, 1)
        cfg = build_decoder_config(p, f, st, delta=0.1)
        blk, cols = self.repair_block(p, view)

        explain = [st.sets[i] for i in explanation_set(cfg, blk)]
        assert frozenset() not in explain
        assert frozenset({0}) in explain and frozenset({1}) in explain

        v = decode(cfg, blk)
        assert v.kind == "estimate"
        assert np.array_equal(v.estimate, apply_pointwise(g, blk))
        at_target = [i for i, c in enumerate(cols) if c == target]
        assert at_target
        for i in at_target:
            assert v.estimate[i] == g.table[target] != f.table[target]
        # both admissible truths carry the repaired value
        assert f.table[1, 2, 1] == f.table[0, 0, 1] == g.table[target]

    def test_decode_builds_only_the_table_it_reads(self, monkeypatch):
        p, f, g, view, target = self.build_instance()
        built = []

        def counted(p, f, collection, **kwargs):
            built.append(collection)
            return viability.build_g(p, f, collection, **kwargs)

        monkeypatch.setattr(decoder, "build_g", counted)
        cfg = build_decoder_config(p, f, AdversaryStructure.threshold(2, 1), delta=0.1)
        assert built == []
        blk, _ = self.repair_block(p, view)
        decode(cfg, blk)
        assert built == [(frozenset({0}), frozenset({1}))]
        got = cfg.g_tables[frozenset(built[0])]
        assert got.collection == g.collection
        assert np.array_equal(got.table, g.table)
        assert np.array_equal(got.defined_mask, g.defined_mask)
        decode(cfg, blk)
        assert len(built) == 1

    def test_concurrent_decodes_build_the_table_once(self, monkeypatch):
        p, f, g, view, target = self.build_instance()
        built = []

        def counted(p, f, collection, **kwargs):
            built.append(collection)
            return viability.build_g(p, f, collection, **kwargs)

        monkeypatch.setattr(decoder, "build_g", counted)
        cfg = build_decoder_config(p, f, AdversaryStructure.threshold(2, 1), delta=0.1)
        blk, _ = self.repair_block(p, view)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(decode, cfg, blk) for _ in range(8)]
                verdicts = [fut.result(timeout=120) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(built) == 1
        for v in verdicts:
            assert np.array_equal(v.estimate, apply_pointwise(g, blk))
