"""Decoder branch logic, scoring, and decoding-quality Monte Carlo."""

import dataclasses
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from byzfc import decoder, viability, viewsets
from byzfc.adversary import (BlockSplit, Honest, MemorylessChannel, ResampleW, WitnessDMC,
                             attack)
from byzfc.decoder import (DecoderConfig, DecoderConfigError, TrialTruth, Verdict,
                           build_decoder_config, classify_error,
                           config_from_json_dict, config_to_json_dict, decode,
                           explanation_set)
from byzfc.polytope import ChannelVars
from byzfc.probability import (Alphabet, Channel, JointPmf, ProbabilityError, SampleBlock,
                               apply_pointwise, derive_seed, empirical_type,
                               hamming_distortion, philox, pmf_from_dict, sample_iid)
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

    def test_gtable_json_roundtrip(self, erasure_config):
        g = erasure_config.g_table(nonintersecting_collections(erasure_config.structure)[0])
        again = viability.GTable.from_json_dict(g.to_json_dict())
        assert isinstance(again, TargetFunction) and again == g
        assert again.collection == g.collection and np.array_equal(again.table, g.table)
        assert np.array_equal(again.defined_mask, g.defined_mask) and g.defined_mask.any()
        assert again != viability.GTable(g.domain_axes, g.codomain, g.table, g.collection,
                                         ~g.defined_mask)

    def test_absent_viable_is_computed(self, erasure_pmf, erasure_f_uvw, threshold_3_2):
        d = config_to_json_dict(build_decoder_config(erasure_pmf, erasure_f_uvw,
                                                     threshold_3_2, delta=0.1))
        del d["viable"]
        assert config_from_json_dict(d).viable is False

    @pytest.mark.parametrize("field", ["codomain", "axes"])
    def test_gtable_off_the_law_or_function_rejected(self, field, erasure_config):
        # decode reads a table through the law's axes and f's codomain, so a
        # table listing either in another order would decode wrong labels
        d = config_to_json_dict(erasure_config)
        g = d["g_tables"][0]
        g[field] = g[field][::-1] if field == "codomain" else [g["axes"][0][::-1], *g["axes"][1:]]
        with pytest.raises(DecoderConfigError, match="does not match"):
            config_from_json_dict(d)

    @pytest.mark.parametrize("collection", [
        [[0]],              # one set
        [[0], [0]],         # a set listed twice
        [[], [0]],          # the empty set is no member
        [[0, 1], [0, 2]],   # a common user
        [[0], [1, 2, 3]],   # user 3 is outside the structure
        [["x"], [7, 9]],    # not sets of the structure at all
        "01",               # a string is not a list of sets: refused as it is parsed
    ])
    def test_gtable_for_a_foreign_collection_rejected(self, collection, erasure_config):
        # no decode ever reads such a table, and config_to_json_dict would drop it
        d = config_to_json_dict(erasure_config)
        d["g_tables"][0]["collection"] = collection
        refusal = ("must be a list, not str" if isinstance(collection, str)
                   else "non-intersecting collection")
        with pytest.raises(DecoderConfigError, match=refusal):
            config_from_json_dict(d)

    @pytest.mark.parametrize("collection, kind", [(["0", "12"], "str"), ([[0], "12"], "str"),
                                                  ([0, [1, 2]], "int")])
    def test_gtable_members_must_be_lists(self, collection, kind, erasure_config):
        # a string member is not read as a set of its characters
        d = config_to_json_dict(erasure_config)
        d["g_tables"][0]["collection"] = collection
        with pytest.raises(DecoderConfigError, match=f"adversary set must be a list, not {kind}"):
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

    @pytest.mark.parametrize("case", ["k-2", "k-4", "side-axis"])
    def test_structure_or_function_off_the_law_rejected(self, case, erasure_config):
        # a config that carries its verdict is not re-checked against the law,
        # so the config itself must refuse a structure over the wrong number
        # of users or a function over other axes
        d = {**config_to_json_dict(erasure_config), "g_tables": []}
        if case == "side-axis":
            d["function"]["axes"][-1] = [0, 1, "z"]
        else:
            d["structure"] = {"k": int(case[-1]), "threshold": 1}
        with pytest.raises(DecoderConfigError, match="users or axes"):
            config_from_json_dict(d)

    def test_a_direct_config_decides_its_verdict(self, erasure_pmf, erasure_f_uv,
                                                 erasure_f_uvw, threshold_3_2, monkeypatch):
        cfg = DecoderConfig(base=erasure_pmf, structure=threshold_3_2, f=erasure_f_uvw,
                            delta=0.1)
        assert cfg.viable is False
        assert DecoderConfig(base=erasure_pmf, structure=threshold_3_2, f=erasure_f_uv,
                             delta=0.1).viable is True
        # a replaced config carries its verdict, decided once
        monkeypatch.setattr(decoder, "check_viability", None)
        assert dataclasses.replace(cfg, delta=0.2).viable is False

    def test_a_table_filed_under_another_collection_rejected(self, erasure_config):
        # g_table would return it for the key's collection, and the config's
        # JSON would list the table's own collection twice
        g = erasure_config.g_table([[2], [0, 1]])
        key = frozenset(map(frozenset, ([0], [1, 2])))
        with pytest.raises(DecoderConfigError, match="filed under"):
            dataclasses.replace(erasure_config, g_tables={key: g})
        assert dataclasses.replace(erasure_config, g_tables={frozenset(g.collection): g})

    def test_g_table_refuses_a_collection_off_the_structure(self, erasure_pmf, erasure_f_uv,
                                                            monkeypatch):
        cfg = DecoderConfig(base=erasure_pmf, structure=AdversaryStructure.threshold(3, 1),
                            f=erasure_f_uv, delta=0.1)
        for col in ([[0, 1], [2]], [[0], [0]], [[0]]):
            with pytest.raises(DecoderConfigError, match="non-intersecting collection"):
                cfg.g_table(col)
        assert not cfg.g_tables
        g = cfg.g_table([[0], [1]])
        # a cached table is returned without checking its collection again
        monkeypatch.setattr(decoder, "is_nonintersecting", None)
        assert cfg.g_table([[1], [0]]) is g

    def test_replaced_structure_or_function_rejected(self, erasure_config):
        f = erasure_config.f
        axes = (*f.domain_axes[:-1], Alphabet((0, 1, "z")))
        for changes in ({"structure": AdversaryStructure.threshold(2, 1)},
                        {"f": TargetFunction(axes, f.codomain, f.table)}):
            with pytest.raises(DecoderConfigError, match="users or axes"):
                dataclasses.replace(erasure_config, **changes)

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
    """The config's tables, built on first use from its one region store
    (one region per collection, one channel table per adversary set), and
    its viable flag match independent per-collection builds."""

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

    @staticmethod
    def _builds(p, f, structure, monkeypatch):
        """The collections of the regions and the coordinates of the channel
        tables built from a config's build through its serialization, which
        builds every collection's g-table and so drops every region."""
        regions, tables = [], []

        class Recorded(viability._Region):
            def __init__(self, *args):
                super().__init__(*args)
                regions.append(self.collection)

        init = ChannelVars.__init__

        def counted(self, p, coords, *args):
            tables.append(coords)
            init(self, p, coords, *args)

        monkeypatch.setattr(viability, "_Region", Recorded)
        monkeypatch.setattr(ChannelVars, "__init__", counted)
        cfg = build_decoder_config(p, f, structure, delta=0.1)
        config_to_json_dict(cfg)
        # a region is dropped once its table is built
        assert not cfg._regions and len(cfg._regions.channels) == len(set(tables))
        return regions, tables

    def test_uv_config_builds_one_table_per_set(self, erasure_pmf, erasure_f_uv,
                                                threshold_3_2, monkeypatch):
        # the verdict's 22 regions are among the 45 the g-tables read
        regions, tables = self._builds(erasure_pmf, erasure_f_uv, threshold_3_2, monkeypatch)
        assert len(regions) == len(set(regions)) == 45
        assert len(tables) == len(set(tables)) == 6

    def test_k4_config_settles_each_collection_once(self, monkeypatch):
        # the verdict's 115 regions are among the 969 the g-tables read
        p, f = workloads.k4_instance()
        regions, tables = self._builds(p, f, AdversaryStructure.threshold(4, 2), monkeypatch)
        assert len(regions) == len(set(regions)) == 969
        assert len(tables) == len(set(tables)) == 10


class TestExactModeDecode:
    def test_exact_membership_on_exact_type(self, erasure_pmf, erasure_f_uv,
                                            threshold_3_2, erasure_config):
        cfg = DecoderConfig(base=erasure_pmf, structure=threshold_3_2,
                            f=erasure_f_uv, delta=0.1,
                            g_tables=erasure_config.g_tables)
        blk = exact_type_block(erasure_pmf)
        v = decode(cfg, blk)
        assert v.kind == "estimate"
        assert np.array_equal(v.estimate, apply_pointwise(erasure_f_uv, blk))

    def test_replaced_delta_rebuilds_the_screen(self, erasure_pmf, erasure_f_uv,
                                                erasure_config):
        # a config derived by replace screens at its new radius, on the same
        # exact view handles and with the tables built so far
        cfg = dataclasses.replace(erasure_config, delta=0.2)
        assert cfg.handles == erasure_config.handles and cfg.screen.thresh == 0.2
        assert all(h.base is erasure_pmf for h in cfg.handles)
        assert cfg.g_tables == erasure_config.g_tables
        blk = exact_type_block(erasure_pmf)
        v = decode(cfg, blk)
        assert v.kind == "estimate"
        assert np.array_equal(v.estimate, apply_pointwise(erasure_f_uv, blk))

    @pytest.mark.parametrize("mode, float_law", [("bogus", False), ("exact", True)])
    def test_bad_mode_rejected_at_construction(self, mode, float_law, erasure_pmf,
                                               erasure_f_uv, threshold_3_2, erasure_config):
        # build_decoder_config checks the mode it otherwise ignores; a law
        # with float mass is refused before it reaches a config
        with pytest.raises(ProbabilityError if float_law else DecoderConfigError):
            if float_law:
                dataclasses.replace(erasure_config, base=JointPmf(
                    erasure_pmf.axes, erasure_pmf.mass.astype(np.float64)))
            else:
                build_decoder_config(erasure_pmf, erasure_f_uv, threshold_3_2, 0.1, mode=mode)

    @pytest.mark.parametrize("name, value", [("delta", math.nan), ("slack", math.nan),
                                             ("slack", -1e-7)])
    def test_bad_radius_rejected_at_construction(self, name, value, erasure_config):
        # NaN fails every comparison, so a `<= 0` test lets it through; a
        # config's slack is checked when read, though nothing uses it
        with pytest.raises(DecoderConfigError):
            config_from_json_dict({**config_to_json_dict(erasure_config), name: value})

    def test_exact_and_float_agree_on_samples(self, erasure_pmf, erasure_config,
                                              monkeypatch):
        # the certified HiGHS bounds decide as the rational simplex alone
        # does; at n = 100 the screen leaves some sets to them
        blocks = [sample_iid(erasure_pmf.to_float(), n, seed=derive_seed(990, seed))
                  for n in (100, 600) for seed in range(5)]
        certified = [decode(erasure_config, blk) for blk in blocks]
        monkeypatch.setattr(decoder, "distance_to_viewset",
                            lambda h, q, thresh: viewsets._distance_exact(h, q))
        for blk, vf in zip(blocks, certified):
            ve = decode(erasure_config, blk)
            assert ve.kind == vf.kind
            if ve.kind == "estimate":
                assert np.array_equal(ve.estimate, vf.estimate)


@pytest.fixture(scope="module")
def flipped_blocks(erasure_pmf):
    """Eight n=5000 erasure blocks in which user 0 flips its bit at rate 0.18."""
    a = erasure_pmf.axes[0]
    rows = np.array([[Fraction(41, 50), Fraction(9, 50)], [Fraction(9, 50), Fraction(41, 50)]])
    flip = MemorylessChannel(Channel((a,), (a,), rows))
    return [attack(flip, frozenset({0}),
                   sample_iid(erasure_pmf.to_float(), 5000, derive_seed(47, "sample", t)),
                   derive_seed(47, "attack", t)) for t in range(8)]


class TestCertifiedDecode:
    def test_user0_flips_reach_the_lp_and_a_gtable(self, flipped_blocks, erasure_config,
                                                  monkeypatch):
        # user 0 flipping its bit at rate 0.18 lands each block's type in the
        # screen's band for some sets: the LP decides them, as the simplex
        # alone would, and the explaining collection's g-table decodes
        blocks = flipped_blocks
        lps, tables = [], []
        monkeypatch.setattr(decoder, "distance_to_viewset",
                            lambda h, q, t: lps.append(h) or viewsets.distance_to_viewset(h, q, t))
        read = DecoderConfig.g_table
        monkeypatch.setattr(DecoderConfig, "g_table",
                            lambda self, col: tables.append(col) or read(self, col))
        certified, kinds = [], []
        for blk in blocks:
            lps.clear()
            tables.clear()
            certified.append(explanation_set(erasure_config, blk))
            assert lps
            kinds.append(decode(erasure_config, blk).kind)
            assert tables or kinds[-1] != "estimate"
        assert "estimate" in kinds
        monkeypatch.setattr(decoder, "distance_to_viewset",
                            lambda h, q, thresh: viewsets._distance_exact(h, q))
        assert [explanation_set(erasure_config, blk) for blk in blocks] == certified

    def test_decoding_builds_no_channel(self, flipped_blocks, erasure_config, monkeypatch):
        # the nearest channel is built only when asked for: decoding reads
        # the bounds alone, and every LP's channel still verifies
        results, built = [], []

        def solve(h, q, thresh):
            res = viewsets.distance_to_viewset(h, q, thresh)
            results.append((h, q, res))
            return res

        init = Channel.__init__
        monkeypatch.setattr(decoder, "distance_to_viewset", solve)
        monkeypatch.setattr(Channel, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        for blk in flipped_blocks:
            decode(erasure_config, blk)
        assert results and not built
        for h, q, res in results:
            res.verify(h, q)
        assert len(built) == len(results)


@pytest.fixture(scope="module")
def acceptance_blocks(erasure_pmf):
    """20 reported blocks at n=5000 from each acceptance scenario: honest,
    resample_w on {1, 2}, and the honest/witness split on {1, 2}."""
    w, m = workloads.erasure_witness()
    both = frozenset({1, 2})
    scenarios = [("honest", frozenset(), Honest()), ("resample", both, ResampleW()),
                 ("split", both, BlockSplit(Honest(), WitnessDMC(w, m), 0.5))]
    pf = erasure_pmf.to_float()
    return [attack(strat, aset, sample_iid(pf, 5000, derive_seed(31, "sample", name, i)),
                   derive_seed(31, "attack", name, i))
            for name, aset, strat in scenarios for i in range(20)]


class TestScreenedDecode:
    # either mode that build_decoder_config accepts decodes alike

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_acceptance_blocks_build_no_type(self, mode, monkeypatch, acceptance_blocks,
                                             erasure_pmf, erasure_f_uv, threshold_3_2):
        # the bounds settle every set here, so no block needs a type
        cfg = build_decoder_config(erasure_pmf, erasure_f_uv, threshold_3_2, 0.1, mode=mode)
        built = []
        init = JointPmf.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(JointPmf, "__init__", counting_init)
        kinds = {decode(cfg, blk).kind for blk in acceptance_blocks}
        assert kinds == {"estimate"} and built == []

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_screen_tables_are_built_once_per_config(self, mode, monkeypatch,
                                                     acceptance_blocks, erasure_pmf,
                                                     erasure_f_uv, threshold_3_2):
        # P's integer numerators are read once, when the config is built;
        # a decode only multiplies counts into the stored tables
        calls = []
        real = viewsets.integer_mass
        monkeypatch.setattr(viewsets, "integer_mass", lambda mass: calls.append(1) or real(mass))
        cfg = build_decoder_config(erasure_pmf, erasure_f_uv, threshold_3_2, 0.1, mode=mode)
        blocks = (acceptance_blocks * 2)[:100]
        assert {decode(cfg, blk).kind for blk in blocks} == {"estimate"}
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_empty_block_raises(self, mode, erasure_pmf, erasure_f_uv, threshold_3_2):
        cfg = build_decoder_config(erasure_pmf, erasure_f_uv, threshold_3_2, 0.1, mode=mode)
        empty = SampleBlock(erasure_pmf.axes, np.zeros((3, 0), dtype=np.int64),
                            np.zeros(0, dtype=np.int64))
        with pytest.raises(ProbabilityError, match="empty block has no type"):
            decode(cfg, empty)


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
        from byzfc.viability import Regions, build_g
        from byzfc.viewsets import induce_view
        from test_crash_start import _explanations

        t = 178
        p = random_pmf((2, 3, 2), seed=derive_seed(3000, t), zero_frac=0.45,
                       max_weight=1)
        f = random_function(p, 2, seed=derive_seed(4000, t))
        col = (frozenset({0}), frozenset({1}))
        g = build_g(p, f, col)
        target = (0, 2, 1)
        assert g.defined_mask[target] and g.table[target] != f.table[target]
        region = Regions(p)[col]
        m, tx = _explanations(region, target)[0]
        # a feasible point with W_m(target's coordinates | tx) > 0
        ux = tuple(target[c] for c in region.members[m].coords)
        var = region.var(m, tx, ux)
        sol = region.conflict_vertex(var, var)
        chans = [w.channel(sol, off) for w, off in zip(region.members, region.offsets)]
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
