"""Scenario runner: determinism, aggregation, catalog values, sweeps."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest
from scipy.stats import binomtest

from byzfc import decoder, harness
from byzfc.adversary import Honest, ResampleW
from byzfc.examples_lib import (builtin_examples, resolve_example,
                                three_user_erasure_self_check)
from byzfc.harness import (Scenario, ScenarioError, cached_decoder_config, run_scenario,
                           scenario_from_json_dict, sweep, wilson_interval)
from byzfc.mss import upgrade_to_saturation
from byzfc.viability import check_viability


class TestCatalog:
    def test_self_check_passes(self):
        three_user_erasure_self_check()

    def test_pinned_example_masses(self):
        pmf, f, st = resolve_example("example-3-2-erasure")
        for x in (0, 1):
            assert pmf.prob((x, "e2", x, "e")) == Fraction(1, 8)
        assert pmf.marginalize((1,)).prob(("e2",)) == Fraction(1, 4)

    def test_two_user_copy_ystar_identity(self):
        pmf, f, st = resolve_example("two-user-copy")
        up = upgrade_to_saturation(pmf)
        assert up.ystar_labels[0, 0, 0] != up.ystar_labels[1, 1, 1]

    def test_catalog_contents(self):
        cat = builtin_examples()
        assert {"example-3-2-erasure", "single-user-erasure", "two-user-copy"} <= set(cat)
        assert set(cat["example-3-2-erasure"].functions) == {"uv", "uvw"}

    def test_unknown_reference(self):
        with pytest.raises(KeyError):
            resolve_example("no-such-example")


class TestWilson:
    def test_against_scipy(self):
        from scipy.stats import norm
        # z = 1.96 is the quantile of this confidence level, a hair above 95%
        level = float(2 * norm.cdf(1.96) - 1)
        for errors, n in ((0, 100), (3, 100), (17, 400), (400, 400)):
            lo, hi = wilson_interval(errors, n)
            ref = binomtest(errors, n).proportion_ci(confidence_level=level,
                                                     method="wilson")
            assert abs(lo - ref.low) < 1e-9
            assert abs(hi - ref.high) < 1e-9
            at95 = binomtest(errors, n).proportion_ci(confidence_level=0.95,
                                                      method="wilson")
            assert abs(at95.low - lo) < 1e-4 and abs(at95.high - hi) < 1e-4

    def test_bounds_within_unit_interval(self):
        lo, hi = wilson_interval(0, 10)
        assert 0.0 <= lo <= hi <= 1.0


def tiny_scenario(name="t", trials=5, strategy=None, aset=frozenset(), seed=7, n=800):
    pmf, f, st = resolve_example("example-3-2-erasure")
    return Scenario(pmf=pmf, f=f, structure=st, adversary_set=aset,
                    strategy=strategy or Honest(), n=n, trials=trials,
                    delta=0.1, gamma=0.05, seed=seed, name=name)


class TestRunScenario:
    def test_reports_reproducible(self):
        s = tiny_scenario(trials=1)
        r1, r2 = run_scenario(s), run_scenario(s)
        assert r1.core_dict() == r2.core_dict()

    def test_counts_sum_to_trials(self):
        r = run_scenario(tiny_scenario(trials=8))
        assert sum(r.counts.values()) == 8
        assert len(r.records) == 8
        for rec in r.records:
            assert rec.outcome in ("ok", "E1", "E2")

    def test_threads_keyword_must_be_one(self):
        # trials run serially; the keyword stays for callers that pass 1
        with pytest.raises(ScenarioError, match="threads must be 1"):
            run_scenario(tiny_scenario(trials=1), threads=3)

    def test_honest_eta_small(self):
        r = run_scenario(tiny_scenario(trials=20, n=3000))
        assert r.eta_hat <= 0.05
        assert r.viable_precheck

    def test_resample_attack_scenario(self):
        r = run_scenario(tiny_scenario(trials=10, n=3000, strategy=ResampleW(),
                                       aset=frozenset({1, 2})))
        assert r.counts["E1"] == 0

    def test_nonviable_precheck_reported_not_fatal(self):
        pmf, _, st = resolve_example("example-3-2-erasure")
        _, fuvw, _ = resolve_example("example-3-2-erasure:uvw")
        s = Scenario(pmf=pmf, f=fuvw, structure=st, adversary_set=frozenset(),
                     strategy=Honest(), n=400, trials=3, delta=0.1, gamma=0.05,
                     seed=1, name="neg")
        r = run_scenario(s)
        assert not r.viable_precheck
        assert sum(r.counts.values()) == 3

    def test_adversary_set_must_be_in_structure(self):
        pmf, f, st = resolve_example("example-3-2-erasure")
        with pytest.raises(ScenarioError):
            Scenario(pmf=pmf, f=f, structure=st, adversary_set=frozenset({0, 1, 2}),
                     strategy=Honest(), n=10, trials=1, delta=0.1, gamma=0.05, seed=0)

    def test_csv_has_one_row_per_trial(self):
        r = run_scenario(tiny_scenario(trials=4))
        lines = r.records_csv().strip().splitlines()
        assert len(lines) == 5 and lines[0].startswith("trial,")


class TestConfigCache:
    def test_equal_inputs_share_a_config(self):
        pmf, f, st = resolve_example("example-3-2-erasure")
        config = cached_decoder_config(pmf, f, st, 0.1)
        pmf2, f2, st2 = resolve_example("example-3-2-erasure")
        assert pmf2 is not pmf and f2 is not f
        assert cached_decoder_config(pmf2, f2, st2, 0.1) is config
        assert cached_decoder_config(pmf, f, st, 0.2) is not config

    def test_changed_in_place_gets_a_fresh_config(self):
        pmf, f, st = resolve_example("example-3-2-erasure")
        before = cached_decoder_config(pmf, f, st, 0.1)
        # swap the masses at two support points of different weight
        a, b = (0, 0, 0, 0), (0, 0, 0, 1)
        assert pmf.mass[a] != pmf.mass[b]
        pmf.mass[a], pmf.mass[b] = pmf.mass[b], pmf.mass[a]
        after = cached_decoder_config(pmf, f, st, 0.1)
        assert after is not before and after.base == pmf and before.base != pmf
        f.table[a] = (f.table[a] + 1) % f.codomain.size
        assert cached_decoder_config(pmf, f, st, 0.1) is not after


class TestConverseDemonstration:
    def test_witness_dmc_on_nonviable_forces_errors(self):
        # replaying the violation channel against the non-viable target
        # function must make the naive-g decoder's estimates wrong a
        # constant fraction of the time, under every scenario of the
        # witness collection (the views are indistinguishable, the true
        # function values are not)
        from byzfc.adversary import WitnessDMC
        from byzfc.viability import check_s_viability

        pmf, _, st = resolve_example("example-3-2-erasure")
        _, fuvw, _ = resolve_example("example-3-2-erasure:uvw")
        rep = check_s_viability(pmf, fuvw, 2)
        assert not rep.viable
        w = rep.witness
        e2_rates = []
        for m, aset in enumerate(w.collection):
            s = Scenario(pmf=pmf, f=fuvw, structure=st, adversary_set=aset,
                         strategy=WitnessDMC(w, m), n=3000, trials=30,
                         delta=0.1, gamma=0.05, seed=23, name=f"converse-{m}")
            r = run_scenario(s)
            assert not r.viable_precheck
            assert r.counts["E1"] == 0
            e2_rates.append(r.counts["E2"] / r.trials)
        # the scenario that actually resamples the pattern breaks recovery
        assert max(e2_rates) >= 0.5


class TestScenarioJson:
    def test_example_reference(self):
        s = scenario_from_json_dict({
            "example": "example-3-2-erasure:uv", "n": 100, "trials": 2,
            "adversary_set": [1, 2], "strategy": {"kind": "resample_w"},
            "seed": 5})
        assert s.adversary_set == frozenset({1, 2})
        assert s.n == 100

    def test_inline_objects(self):
        pmf, f, st = resolve_example("two-user-copy")
        s = scenario_from_json_dict({
            "pmf": pmf.to_json_dict(), "function": f.to_json_dict(),
            "structure": st.to_json_dict(), "n": 10, "trials": 1})
        assert s.structure == st

    @pytest.mark.parametrize("radii", [{"delta": True, "gamma": "0.5"}, {"delta": "0.1"},
                                       {"gamma": False}, {"delta": None}])
    def test_radius_must_be_a_json_number(self, radii):
        # float() would read true as 1.0 and "0.5" as 0.5
        with pytest.raises(ScenarioError, match="must be a number"):
            scenario_from_json_dict({"example": "example-3-2-erasure:uv", "n": 100,
                                     "trials": 1, **radii})

    def test_witness_scenario_parses_without_a_resolver(self):
        s = scenario_from_json_dict({
            "example": "example-3-2-erasure:uv", "adversary_set": [1, 2], "n": 100,
            "trials": 1, "strategy": {"kind": "witness_dmc",
                                      "from_example": "example-3-2-erasure:uvw",
                                      "scenario": 1}})
        pmf, f, st = resolve_example("example-3-2-erasure:uvw")
        assert s.strategy.scenario == 1
        assert s.strategy.witness == check_viability(pmf, f, st).witness

    def test_integer_radius_accepted(self):
        s = scenario_from_json_dict({"example": "example-3-2-erasure:uv", "n": 100,
                                     "trials": 1, "delta": 1, "gamma": 0.5})
        assert (s.delta, s.gamma) == (1.0, 0.5) and isinstance(s.delta, float)


class TestSweep:
    def test_empty_values_rejected(self):
        with pytest.raises(ScenarioError):
            sweep(tiny_scenario(), "n", [])

    def test_unknown_axis_rejected(self):
        with pytest.raises(ScenarioError):
            sweep(tiny_scenario(), "zeta", [1])

    def test_n_sweep_monotone_within_error_bars(self):
        reports = sweep(tiny_scenario(trials=12), "n", [500, 2000, 8000])
        slack = 2 / 12
        for a, b in zip(reports, reports[1:]):
            assert b.eta_hat <= a.eta_hat + slack

    def test_delta_sweep_blame_rate_nonincreasing(self):
        # enlarging delta can only grow the explanation set, hence shrink
        # the blame intersection
        base = tiny_scenario(trials=10, n=1500, strategy=ResampleW(),
                             aset=frozenset({1, 2}))
        reports = sweep(base, "delta", [0.02, 0.1, 0.5])
        blames = [sum(r.blame_histogram.values()) for r in reports]
        for a, b in zip(blames, blames[1:]):
            assert b <= a

    def test_delta_sweep_computes_one_verdict(self, monkeypatch):
        # the verdict does not depend on delta: one per (law, function,
        # structure), and each report is the one a fresh verdict gives
        calls = []
        real = decoder.check_viability
        monkeypatch.setattr(decoder, "check_viability",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        monkeypatch.setattr(harness, "_CONFIG_CACHE", [])
        base = tiny_scenario(trials=3, n=400, strategy=ResampleW(), aset=frozenset({1, 2}))
        values = [0.02, 0.05, 0.1, 0.2, 0.5]
        reports = sweep(base, "delta", values)
        assert len(calls) == 1
        for v, r in zip(values, reports):
            harness._CONFIG_CACHE.clear()
            assert r.core_dict() == run_scenario(replace(base, delta=v, name=r.name)).core_dict()
        assert len(calls) == 1 + len(values)


class TestRandomInstancePipeline:
    """The full source -> attack -> decode -> score loop on a seeded
    random law rather than the curated catalog."""

    def build(self):
        from byzfc.examples_lib import random_pmf
        from byzfc.mss import upgrade_to_saturation
        from byzfc.structures import AdversaryStructure, TargetFunction
        from byzfc.probability import Alphabet

        p = random_pmf((2, 3, 3), seed=424242, zero_frac=0.3, max_weight=4)
        up = upgrade_to_saturation(p)
        # the maximum upgrade itself is always recoverable at threshold 1
        f = TargetFunction(p.axes, Alphabet.of_size(up.ystar_count),
                           up.ystar_labels)
        st = AdversaryStructure.threshold(2, 1)
        return p, f, st

    def test_honest_and_attacked(self):
        from byzfc.adversary import MemorylessChannel
        from byzfc.probability import Channel, philox
        import numpy as np

        p, f, st = self.build()
        honest = Scenario(pmf=p, f=f, structure=st, adversary_set=frozenset(),
                          strategy=Honest(), n=3000, trials=20, delta=0.1,
                          gamma=0.05, seed=5, name="rand-honest")
        r = run_scenario(honest)
        assert r.viable_precheck
        assert r.eta_hat <= 0.1

        # user 0 reports through a fixed random channel
        rng = philox(31)
        rows = rng.random((2, 2)) + 0.1
        rows = rows / rows.sum(axis=1, keepdims=True)
        # exact rows with those first entries: the attack's whole table
        rows = np.array([[Fraction(a), 1 - Fraction(a)] for a in rows[:, 0]], dtype=object)
        attacked = Scenario(pmf=p, f=f, structure=st,
                            adversary_set=frozenset({0}),
                            strategy=MemorylessChannel(Channel(
                                (p.axes[0],), (p.axes[0],), rows)),
                            n=3000, trials=20, delta=0.1, gamma=0.05,
                            seed=6, name="rand-attacked")
        ra = run_scenario(attacked)
        assert ra.counts["E1"] == 0
        assert all(b == 0 for b in ra.blame_histogram) or not ra.blame_histogram
