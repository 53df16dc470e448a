"""Acceptance suite: the artifact's exit criteria.

Each test prints one PASS/FAIL line (bypassing capture so the lines are
visible in any run mode).  Tolerances are pinned here and nowhere else.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from byzfc.adversary import (BlockSplit, Honest, MemorylessChannel, ResampleW,
                             WitnessDMC, attack, witness_to_dmc)
from byzfc.decoder import decode
from byzfc.examples_lib import random_function, random_pmf
from byzfc.harness import Scenario, run_scenario
from byzfc.mss import (common_upgrade, decode_k1, gstar_sequence,
                       is_function_of_ystar, markov_holds_exact, markov_residual,
                       upgrade_to_saturation)
from byzfc.probability import (Alphabet, Channel, JointPmf, SampleBlock,
                               apply_channel, apply_pointwise, derive_seed,
                               empirical_type, hamming_distortion, philox,
                               pmf_from_dict, sample_iid, tv_distance)
from byzfc.structures import TargetFunction
from byzfc.viability import check_s_viability, verify_witness
from byzfc.polytope import ChannelVars
from byzfc.viewsets import distance_to_viewset, induce_view


def criterion(num: int, desc: str, ok: bool) -> None:
    line = f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
    print(line)
    from conftest import ACCEPTANCE_LINES
    ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num} failed: {desc}"


def t1_instance(t: int):
    """Seeded generator for the threshold-1 cross-oracle pool: alphabet
    sizes in {2,3}, alternating support density and weight structure so
    both verdicts occur."""
    sizes = (2 + (t % 2), 2 + ((t // 2) % 2), 2 + ((t // 4) % 2))
    if t % 3 == 0:
        zero_frac, max_weight = 0.30, 6      # generic masses
    else:
        zero_frac, max_weight = 0.45, 1      # uniform-on-support (coarse Y*)
    p = random_pmf(sizes, seed=derive_seed(20_000, t), zero_frac=zero_frac,
                   max_weight=max_weight)
    f = random_function(p, 2 + (t % 2), seed=derive_seed(30_000, t))
    return p, f


@pytest.fixture(scope="module")
def cross_oracle_pool():
    """200 instances: (p, f, lp_report, mss_verdict)."""
    pool = []
    for t in range(200):
        p, f = t1_instance(t)
        pool.append((p, f, check_s_viability(p, f, 1), is_function_of_ystar(p, f)))
    return pool


@pytest.fixture(scope="module")
def witness_pool(cross_oracle_pool):
    """At least 20 witnesses: criterion-2 violations, extended with further
    seeded instances if needed (deterministic continuation)."""
    witnesses = [(p, f, rep.witness) for p, f, rep, _ in cross_oracle_pool
                 if not rep.viable]
    t = 200
    while len(witnesses) < 20 and t < 2000:
        p, f = t1_instance(t)
        rep = check_s_viability(p, f, 1)
        if not rep.viable:
            witnesses.append((p, f, rep.witness))
        t += 1
    return witnesses


class TestCriterion1:
    def test_claim1_reproduction(self, erasure_pmf, erasure_f_uv, erasure_f_uvw):
        rep_uv = check_s_viability(erasure_pmf, erasure_f_uv, 2)
        rep_uvw = check_s_viability(erasure_pmf, erasure_f_uvw, 2)
        ok = rep_uv.viable and not rep_uvw.viable
        w = rep_uvw.witness
        ok = ok and frozenset({1, 2}) in w.collection
        # the extracted channel must resample the erasure pattern: some
        # true pattern maps with positive probability to the flipped one
        m = list(w.collection).index(frozenset({1, 2}))
        ch = witness_to_dmc(w, m)
        a2, a3 = ch.input_axes
        e2, e3 = a2.index("e2"), a3.index("e3")
        flips = Fraction(0)
        for u in (0, 1):
            flips += ch.rows[e2, a3.index(u)][a2.index(u), e3]
            flips += ch.rows[a2.index(u), e3][e2, a3.index(u)]
        ok = ok and flips > 0
        criterion(1, "worked example: (U,V) 2-viable, (U,V,W) refuted with a "
                     "pattern-resampling witness on {2,3}", ok)


class TestCriterion2:
    def test_threshold1_cross_oracle(self, cross_oracle_pool):
        disagreements = [i for i, (p, f, rep, mss) in enumerate(cross_oracle_pool)
                         if rep.viable != mss]
        nonviable = sum(1 for _, _, rep, _ in cross_oracle_pool if not rep.viable)
        ok = not disagreements and len(cross_oracle_pool) == 200
        criterion(2, f"threshold-1 LP verdict vs maximum-upgrade oracle: "
                     f"200/200 agree ({nonviable} non-viable)", ok)


class TestCriterion3:
    def test_witness_soundness(self, witness_pool):
        failures = 0
        for p, f, w in witness_pool:
            try:
                verify_witness(w, p, f)
            except AssertionError:
                failures += 1
        ok = failures == 0 and len(witness_pool) > 0
        criterion(3, f"{len(witness_pool)} witnesses re-verified against the "
                     f"definition's constraints, {failures} failures", ok)


class TestCriterion4:
    def test_converse_indistinguishability(self, witness_pool):
        assert len(witness_pool) >= 20
        failures = 0
        for p, f, w in witness_pool[:20]:
            views = [induce_view(p, w.collection[m], witness_to_dmc(w, m))
                     for m in range(len(w.collection))]
            if any(v != views[0] for v in views[1:]):
                failures += 1
        criterion(4, f"20 witnesses: scenario views identical as exact pmfs, "
                     f"{failures} failures", failures == 0)


def erasure_scenario(erasure_pmf, erasure_f_uv, threshold_3_2, **kw):
    defaults = dict(pmf=erasure_pmf, f=erasure_f_uv, structure=threshold_3_2,
                    adversary_set=frozenset(), strategy=Honest(), n=5000,
                    trials=400, delta=0.1, gamma=0.05, seed=20260810,
                    name="acceptance")
    defaults.update(kw)
    return Scenario(**defaults)


class TestCriterion5:
    def test_honest_error_rate(self, erasure_pmf, erasure_f_uv, threshold_3_2):
        s = erasure_scenario(erasure_pmf, erasure_f_uv, threshold_3_2,
                             name="honest-case")
        r = run_scenario(s)
        ok = r.wilson_high <= 0.05
        criterion(5, f"honest decoding at n=5000, 400 trials: eta_hat="
                     f"{r.eta_hat:.4f}, Wilson upper {r.wilson_high:.4f} <= 0.05", ok)


class TestCriterion6:
    def test_resample_attack(self, erasure_pmf, erasure_f_uv, threshold_3_2):
        s = erasure_scenario(erasure_pmf, erasure_f_uv, threshold_3_2,
                             adversary_set=frozenset({1, 2}), strategy=ResampleW(),
                             name="resample-attack")
        r = run_scenario(s)
        e1 = r.counts["E1"]
        good = 0
        for rec in r.records:
            if rec.verdict_kind == "blame" and rec.blamed in (1, 2):
                good += 1
            elif rec.verdict_kind == "estimate" and rec.distortion <= s.gamma:
                good += 1
        ok = e1 == 0 and good >= 0.95 * s.trials
        criterion(6, f"pattern-resampling attack: E1={e1}, "
                     f"correct outcomes {good}/{s.trials} >= 95%", ok)


class TestCriterion7:
    def test_non_memoryless_stress(self, erasure_pmf, erasure_f_uv, erasure_f_uvw,
                                   threshold_3_2):
        rep = check_s_viability(erasure_pmf, erasure_f_uvw, 2)
        assert not rep.viable
        m = list(rep.witness.collection).index(frozenset({1, 2}))
        strat = BlockSplit(Honest(), WitnessDMC(rep.witness, m), 0.5)
        s = erasure_scenario(erasure_pmf, erasure_f_uv, threshold_3_2,
                             adversary_set=frozenset({1, 2}), strategy=strat,
                             name="block-split")
        r = run_scenario(s)
        rate = r.counts["E1"] / s.trials
        criterion(7, f"two-regime splice attack: E1 rate {rate:.4f} <= 0.02",
                  rate <= 0.02)


class TestCriterion8:
    def test_mss_saturation(self):
        failures = 0
        for t in range(500):
            sizes = (2 + (t % 2), 2 + ((t // 2) % 2), 2 + ((t // 4) % 2))
            p = random_pmf(sizes, seed=derive_seed(40_000, t),
                           zero_frac=0.3 if t % 2 else 0.45,
                           max_weight=1 if t % 3 else 5)
            up = upgrade_to_saturation(p)
            bound = sizes[0] * sizes[1]
            good = up.saturation_round <= bound
            for r in range(1, len(up.rounds)):
                good = good and up.rounds[r].psi_u.refines(up.rounds[r - 1].psi_u)
                good = good and up.rounds[r].psi_v.refines(up.rounds[r - 1].psi_v)
            good = good and markov_holds_exact(p, up)
            good = good and markov_residual(p, up) <= 1e-10
            if not good:
                failures += 1
        criterion(8, f"500 random saturations: bound, monotone refinement and "
                     f"Markov residual hold, {failures} failures", failures == 0)


def k3_pmf():
    """Three users observing a common bit; side info erases it 1/4 of the
    time, so the common upgraded variable is a nontrivial (bit, flag) pair."""
    b = Alphabet.binary()
    y = Alphabet((0, 1, "e"))
    entries = {}
    for u in (0, 1):
        entries[(u, u, u, u)] = Fraction(3, 8)
        entries[(u, u, u, "e")] = Fraction(1, 8)
    return pmf_from_dict((b, b, b, y), entries)


class TestCriterion9:
    def test_protocol_decode_k1(self):
        p = k3_pmf()
        pf = p.to_float()
        cu = common_upgrade(p)
        assert cu.gstar_count >= 3

        ok_honest = 0
        for t in range(200):
            blk = sample_iid(pf, 5000, seed=derive_seed(50_000, t))
            kind, out = decode_k1(cu, blk)
            if kind == "estimate":
                truth = gstar_sequence(cu, blk)
                if hamming_distortion(out, truth) <= 0.02:
                    ok_honest += 1

        ok_attack = 0
        for t in range(200):
            blk = sample_iid(pf, 5000, seed=derive_seed(60_000, t))
            rng = philox(derive_seed(60_001, t))
            garbage = blk.replace_users(
                {1: rng.integers(0, 2, size=5000).astype(np.int64)})
            kind, out = decode_k1(cu, garbage)
            if kind == "blame" and out == 1:
                ok_attack += 1
            elif kind == "estimate":
                truth = gstar_sequence(cu, blk)
                if hamming_distortion(out, truth) <= 0.02:
                    ok_attack += 1

        ok = ok_honest >= 190 and ok_attack >= 190
        criterion(9, f"k=3 protocol: honest {ok_honest}/200, garbage-user "
                     f"{ok_attack}/200 correct (>= 95% each)", ok)


class TestCriterion10:
    """Randomized invariant suites; the case counter must reach 10^4 with
    zero failures."""

    def test_invariant_suites(self, erasure_pmf, erasure_f_uv, erasure_config):
        cases = 0
        rng = philox(314159)

        # prob-core: marginalize composition law (exact)
        for t in range(2000):
            p = random_pmf((2, 2, 2), seed=derive_seed(70_000, t), zero_frac=0.2)
            keep = tuple(sorted(rng.choice(3, size=2, replace=False).tolist()))
            sub = p.marginalize(keep)
            direct = p.marginalize((keep[0],))
            assert sub.marginalize((0,)) == direct
            cases += 1

        # prob-core: tv triangle inequality (exact)
        for t in range(2000):
            ms = [rng.integers(1, 1001, size=8) for _ in range(3)]
            ax = [Alphabet.binary()] * 3
            ps = [JointPmf(ax, np.array([Fraction(int(v), int(m.sum())) for v in m]).reshape(2, 2, 2))
                  for m in ms]
            assert tv_distance(ps[0], ps[2]) <= tv_distance(ps[0], ps[1]) + tv_distance(ps[1], ps[2])
            cases += 1

        # prob-core: channels preserve untouched marginals (exact)
        for t in range(1000):
            p = random_pmf((2, 3, 2), seed=derive_seed(71_000, t), zero_frac=0.2)
            num = int(rng.integers(0, 6))
            rows = np.empty((3, 3), dtype=object)
            rows[:] = Fraction(0)
            for i in range(3):
                a = Fraction(int(rng.integers(0, 4)), 4)
                rows[i, i] = 1 - a
                rows[i, (i + 1) % 3] = a
            w = Channel((p.axes[1],), (p.axes[1],), rows)
            out = apply_channel(p, (1,), w)
            assert out.marginalize((0, 2)) == p.marginalize((0, 2))
            cases += 1

        # prob-core: types concentrate at n = 10^4 (alphabet size 12)
        big = random_pmf((3, 2, 2), seed=99, zero_frac=0.0)
        table = big.to_float()
        fails = 0
        for t in range(1000):
            blk = sample_iid(table, 10_000, seed=derive_seed(72_000, t))
            if tv_distance(empirical_type(blk), big) > 0.05:
                fails += 1
            cases += 1
        assert fails <= 10  # >= 99% of 1000 seeds

        # prob-core: pointwise application is self-consistent
        for t in range(2000):
            n = 16
            blk = sample_iid(erasure_pmf.to_float(), n,
                             seed=derive_seed(73_000, t))
            z = apply_pointwise(erasure_f_uv, blk)
            assert hamming_distortion(z, z) == 0.0
            cases += 1

        # adversary: honest coordinates never mutated (bitwise)
        strategies = [ResampleW(),
                      MemorylessChannel(Channel.identity(
                          (erasure_pmf.axes[1], erasure_pmf.axes[2]))),
                      BlockSplit(Honest(), ResampleW(), 0.5)]
        base_blk = sample_iid(erasure_pmf.to_float(), 200, seed=777)
        for t in range(1500):
            s = strategies[t % len(strategies)]
            out = attack(s, frozenset({1, 2}), base_blk, seed=derive_seed(74_000, t))
            assert np.array_equal(out.user_seqs[0], base_blk.user_seqs[0])
            assert np.array_equal(out.side_seq, base_blk.side_seq)
            cases += 1

        # view-geometry: untouched-marginal lower bound on the distance, on
        # random rational laws: a radius just below the gap never admits q
        tables = {a: ChannelVars(erasure_pmf, a) for a in ((0,), (1, 2))}
        for t in range(400):
            m = rng.integers(1, 1001, size=erasure_pmf.mass.shape)
            q = JointPmf(erasure_pmf.axes, np.array([Fraction(int(v), int(m.sum()))
                                            for v in m.reshape(-1)]).reshape(m.shape))
            for aset, h in tables.items():
                untouched = tuple(c for c in range(4) if c not in aset)
                gap = erasure_pmf.marginalize(untouched).tv_distance(q.marginalize(untouched))
                res = distance_to_viewset(h, q, gap - Fraction(1, 10**12))
                assert gap - Fraction(1, 10**12) < res.upper <= 1 and res.lower <= res.upper
            cases += 1

        # decoder: explanation set monotone in delta
        from byzfc.decoder import DecoderConfig, explanation_set
        pf = erasure_pmf.to_float()
        for t in range(60):
            blk = sample_iid(pf, 300, seed=derive_seed(75_000, t))
            prev: set = set()
            for delta in (0.01, 0.1, 0.6):
                cfg = DecoderConfig(base=erasure_pmf, structure=erasure_config.structure,
                                    f=erasure_f_uv, delta=delta,
                                    g_tables=erasure_config.g_tables)
                got = set(explanation_set(cfg, blk))
                assert prev <= got
                prev = got
            cases += 1

        # decoder: permutation invariance of the verdict
        for t in range(60):
            blk = sample_iid(pf, 400, seed=derive_seed(76_000, t))
            perm = philox(derive_seed(76_001, t)).permutation(400)
            pblk = SampleBlock(blk.axes, blk.user_seqs[:, perm], blk.side_seq[perm])
            v1 = decode(erasure_config, blk)
            v2 = decode(erasure_config, pblk)
            assert v1.kind == v2.kind
            if v1.kind == "estimate":
                assert np.array_equal(v1.estimate[perm], v2.estimate)
            cases += 1

        criterion(10, f"invariant suites: {cases} randomized cases, 0 failures",
                  cases >= 10_000)
