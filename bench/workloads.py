"""The benchmark's workloads: seeded inputs, timed operations, correctness gates.

A workload runs passes; a pass is a list of operations.  Only an
operation's ``run`` is timed.  Its ``check`` runs untimed right after and
returns a failure message or None; it also scores outcomes for the
workload's aggregate gates.

The seed picks the inputs.  The decode workloads draw fresh blocks and
attack randomness from it.  The verdict workloads draw from it a fresh
presentation (user order, and symbol order on every axis) of a fixed
instance family.  Verdicts do not depend on the presentation, so the
stored verdicts hold for every seed, and every seed poses problems of the
same difficulty.  Fresh random instances per seed were measured to move
the ladder's time by 10-30% from seed to seed even at 200 instances,
which would drown the differences the benchmark exists to show.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from byzfc import (adversary, decoder, examples_lib, harness, mss, probability,
                   viability)
from byzfc.adversary import BlockSplit, Honest, ResampleW, WitnessDMC
from byzfc.probability import JointPmf, derive_seed, philox
from byzfc.structures import AdversaryStructure, TargetFunction
from byzfc.viewsets import induce_view

DEFAULT_SEED = 1
EXPECTED_PATH = Path(__file__).with_name("expected.json")

DELTA, GAMMA, BLOCK_N = 0.1, 0.05, 5000   # the acceptance scenarios' settings
K3_MASTER, K3_COUNT = 20261017, 12         # the k=3 family of verdict-random
T32 = AdversaryStructure.threshold(3, 2)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def witness_digest(w: viability.ViolationWitness) -> str:
    return digest([[sorted(s) for s in w.collection], list(w.point), list(w.pair),
                   list(w.f_values), [list(a.symbols) for a in w.joint.axes],
                   [str(v) for v in w.joint.mass.reshape(-1)]])


def relabel(p: JointPmf, f: TargetFunction, rng: np.random.Generator,
            ) -> tuple[JointPmf, TargetFunction]:
    """The same instance with the users and each axis's symbols permuted."""
    k = p.k - 1
    order = [int(u) for u in rng.permutation(k)] + [k]
    mass, table = p.mass.transpose(order), f.table.transpose(order)
    for ax, size in enumerate(mass.shape):
        perm = rng.permutation(size)
        mass, table = np.take(mass, perm, axis=ax), np.take(table, perm, axis=ax)
    axes = tuple(p.axes[u] for u in order)
    return JointPmf(axes, mass), TargetFunction(axes, f.codomain, table)


def t1_instance(t: int) -> tuple[JointPmf, TargetFunction]:
    """Instance t of the acceptance suite's 200-instance threshold-1 pool."""
    sizes = (2 + (t % 2), 2 + ((t // 2) % 2), 2 + ((t // 4) % 2))
    zero_frac, max_weight = (0.30, 6) if t % 3 == 0 else (0.45, 1)
    p = examples_lib.random_pmf(sizes, seed=derive_seed(20_000, t),
                                zero_frac=zero_frac, max_weight=max_weight)
    return p, examples_lib.random_function(p, 2 + (t % 2), seed=derive_seed(30_000, t))


def k4_instance() -> tuple[JointPmf, TargetFunction]:
    """The fixed k=4 threshold-2 rung of tests/test_edge_structures.py."""
    p = examples_lib.random_pmf((2, 2, 2, 2, 2), seed=5, zero_frac=0.3, max_weight=3)
    return p, examples_lib.random_function(p, 2, seed=6)


def k3_instance(i: int) -> tuple[JointPmf, TargetFunction]:
    p = examples_lib.random_pmf((2, 2, 2, 2), seed=derive_seed(K3_MASTER, "p", i),
                                zero_frac=0.3, max_weight=3)
    return p, examples_lib.random_function(p, 2, seed=derive_seed(K3_MASTER, "f", i))


def warm_up() -> None:
    """One tiny trial through every layer.

    Pays lazy imports (scipy.optimize inside the float membership LP) and
    first-call costs in set-up rather than in the first measured operation.
    """
    p, f, st = examples_lib.resolve_example("two-user-copy")
    s = harness.Scenario(pmf=p, f=f, structure=st, adversary_set=frozenset(),
                         strategy=Honest(), n=64, trials=1, delta=DELTA, gamma=GAMMA,
                         seed=0, name="warm-up")
    harness.run_scenario(s)


def erasure_witness():
    """The uvw refutation of the worked example, re-verified."""
    p = examples_lib.three_user_erasure_pmf()
    uvw = examples_lib.three_user_erasure_f_uvw()
    rep = viability.check_viability(p, uvw, T32)
    if rep.viable:
        raise RuntimeError("(U,V,W) must not be 2-viable")
    viability.verify_witness(rep.witness, p, uvw)
    return rep.witness, list(rep.witness.collection).index(frozenset({1, 2}))


class Workload:
    """Base: ``setup`` builds inputs, ``pass_ops(i)`` yields pass i."""

    name = ""
    min_passes = 1      # passes every run completes, whatever --seconds says
    strict = True       # any failed operation makes the run incorrect

    def __init__(self, seed: int, expected: dict):
        self.seed = seed
        self.expected = expected
        self.records: list = []      # what the fingerprint covers

    def setup(self) -> None:
        raise NotImplementedError

    def pass_ops(self, i: int) -> list[Op]:
        raise NotImplementedError

    def gates(self) -> list[str]:
        return []

    def record(self, i: int, item) -> None:
        if i < self.min_passes:
            self.records.append(item)


class VerdictWorkload(Workload):
    def _verdict_op(self, i: int, label: str, p, f, structure, want: bool | None,
                    oracle: Callable[[], bool] | None = None) -> Op:
        def check(rep):
            wd = None
            if not rep.viable:
                try:
                    viability.verify_witness(rep.witness, p, f)
                except AssertionError as exc:
                    return f"{label}: witness fails verification: {exc}"
                wd = witness_digest(rep.witness)
            self.record(i, [label, rep.viable, wd])
            if want is not None and rep.viable != want:
                return f"{label}: verdict {rep.viable}, expected {want}"
            if oracle is not None and rep.viable != oracle():
                return f"{label}: verdict {rep.viable} disagrees with the max-upgrade oracle"
            return None

        return Op(label, lambda: viability.check_viability(p, f, structure), check)


class VerdictRandom(VerdictWorkload):
    """k=3 threshold-2 binary instances plus the fixed k=4 rung."""

    name = "verdict-random"

    def setup(self):
        self.k3 = [k3_instance(i) for i in range(K3_COUNT)]
        self.k4 = k4_instance()
        self.k3_viable = self.expected.get("k3_viable")
        self.t42 = AdversaryStructure.threshold(4, 2)

    def pass_ops(self, i):
        ops = []
        for j, (p, f) in enumerate(self.k3):
            q, g = relabel(p, f, philox(derive_seed(self.seed, "relabel-k3", i, j)))
            want = self.k3_viable[j] if self.k3_viable else None
            ops.append(self._verdict_op(i, f"k3-{j}", q, g, T32, want))
        ops.append(self._verdict_op(i, "k4", *self.k4, self.t42, True))
        return ops


class VerdictWitness(VerdictWorkload):
    """The worked example, its witness, the uv decoder config, the t1 pool."""

    name = "verdict-witness"

    def setup(self):
        self.p = examples_lib.three_user_erasure_pmf()
        self.uv = examples_lib.three_user_erasure_f_uv()
        self.uvw = examples_lib.three_user_erasure_f_uvw()
        self.pool = [t1_instance(t) for t in range(200)]
        self.t21 = AdversaryStructure.threshold(2, 1)

    def pass_ops(self, i):
        p, uvw = self.p, self.uvw
        state: dict[str, Any] = {}
        uvw_op = self._verdict_op(i, "uvw", p, uvw, T32, False)

        def check_uvw(rep):
            problem = uvw_op.check(rep)
            if problem or frozenset({1, 2}) not in rep.witness.collection:
                return problem or "uvw: the witness does not corrupt users {1,2}"
            state["w"] = rep.witness
            want = self.expected.get("uvw_witness")
            if want and witness_digest(rep.witness) != want:
                return "uvw: witness differs from the stored one"
            return None

        def run_dmc():
            w = state["w"]
            return w, [adversary.witness_to_dmc(w, m) for m in range(len(w.collection))]

        def check_dmc(out):
            w, chans = out
            views = [induce_view(p, w.collection[m], c) for m, c in enumerate(chans)]
            if any(v != views[0] for v in views[1:]):
                return "dmc: scenario views differ"
            return None

        def check_config(cfg):
            d = digest(decoder.config_to_json_dict(cfg))
            self.record(i, ["config-uv", d])
            want = self.expected.get("uv_config")
            if not cfg.viable or (want and d != want):
                return "config-uv: g-tables differ from the stored ones"
            return None

        ops = [
            self._verdict_op(i, "uv", p, self.uv, T32, True),
            Op("uvw", uvw_op.run, check_uvw),
            Op("verify-uvw", lambda: viability.verify_witness(state["w"], p, uvw),
               lambda _: None),
            Op("dmc-uvw", run_dmc, check_dmc),
            Op("config-uv", lambda: decoder.build_decoder_config(p, self.uv, T32, DELTA),
               check_config),
        ]
        for t, (q0, g0) in enumerate(self.pool):
            q, g = relabel(q0, g0, philox(derive_seed(self.seed, "relabel-t1", i, t)))
            ops.append(self._verdict_op(i, f"t1-{t}", q, g, self.t21, None,
                                        oracle=lambda q=q, g=g: mss.is_function_of_ystar(q, g)))
        return ops


class DecodeWorkload(Workload):
    """Three acceptance scenarios on the worked example, scored per block."""

    strict = False      # outcomes are judged by the acceptance bounds in gates()

    def setup(self):
        self.p = examples_lib.three_user_erasure_pmf()
        self.uv = examples_lib.three_user_erasure_f_uv()
        w, m = erasure_witness()
        both = frozenset({1, 2})
        self.scenarios = [("honest", frozenset(), Honest()),
                          ("resample", both, ResampleW()),
                          ("split", both, BlockSplit(Honest(), WitnessDMC(w, m), 0.5))]
        self.tally = {name: {"n": 0, "errors": 0, "E1": 0, "good": 0}
                      for name, _, _ in self.scenarios}

    def score(self, i: int, name: str, outcome: str, kind: str, blamed, dist) -> str | None:
        good = {"honest": outcome == "ok",
                "resample": (kind == "blame" and blamed in (1, 2))
                or (kind == "estimate" and dist <= GAMMA),
                "split": outcome != "E1"}[name]
        t = self.tally[name]
        t["n"] += 1
        t["errors"] += outcome != "ok"
        t["E1"] += outcome == "E1"
        t["good"] += good
        self.record(i, [name, outcome, kind, blamed, dist])
        return None if good else f"{name}: outcome {outcome} ({kind})"

    def gates(self):
        """Acceptance criteria 5-7 over the blocks decoded in this run.

        Criterion 5's Wilson bound needs at least 73 honest blocks to be
        reachable; below that every honest block must decode correctly.
        """
        out = []
        h, r, s = (self.tally[n] for n in ("honest", "resample", "split"))
        if h["n"] >= 73:
            if harness.wilson_interval(h["errors"], h["n"])[1] > 0.05:
                out.append(f"criterion 5: honest Wilson upper bound above 0.05 ({h})")
        elif h["errors"]:
            out.append(f"criterion 5: honest errors in a short run ({h})")
        if r["E1"] or r["good"] < 0.95 * r["n"]:
            out.append(f"criterion 6: resample attack ({r})")
        if s["n"] and s["E1"] / s["n"] > 0.02:
            out.append(f"criterion 7: split attack E1 rate above 0.02 ({s})")
        return out


class DecodeFloat(DecodeWorkload):
    """``run_scenario`` one trial at a time, rotating the three scenarios."""

    name = "decode-float"
    min_passes = 80

    def setup(self):
        super().setup()
        self.base = {name: harness.Scenario(
            pmf=self.p, f=self.uv, structure=T32, adversary_set=aset, strategy=strat,
            n=BLOCK_N, trials=1, delta=DELTA, gamma=GAMMA, seed=0, name=name)
            for name, aset, strat in self.scenarios}
        harness.cached_decoder_config(self.p, self.uv, T32, DELTA)

    def pass_ops(self, i):
        ops = []
        for name, s in self.base.items():
            def check(rep, name=name):
                if not rep.viable_precheck:
                    return f"{name}: the config precheck says non-viable"
                r = rep.records[0]
                return self.score(i, name, r.outcome, r.verdict_kind, r.blamed, r.distortion)

            s_i = replace(s, seed=derive_seed(self.seed, name, i))
            ops.append(Op(name, lambda s_i=s_i: harness.run_scenario(s_i, threads=1), check))
        return ops


class DecodeExact(DecodeWorkload):
    """``decode`` on an exact-mode config, blocks made as in ``decode --exact``."""

    name = "decode-exact"
    min_passes = 3

    def setup(self):
        super().setup()
        self.config = decoder.build_decoder_config(self.p, self.uv, T32, DELTA, mode="exact")
        self.pf = self.p.to_float()

    def pass_ops(self, i):
        ops = []
        for name, aset, strat in self.scenarios:
            true = probability.sample_iid(self.pf, BLOCK_N,
                                          derive_seed(self.seed, "sample", name, i))
            reported = adversary.attack(strat, aset, true,
                                        derive_seed(self.seed, "attack", name, i))

            def check(verdict, name=name, aset=aset, true=true):
                z = probability.apply_pointwise(self.uv, true)
                outcome = decoder.classify_error(
                    verdict, decoder.TrialTruth(true_block=true, adversary_set=aset, true_z=z),
                    GAMMA)
                dist = (probability.hamming_distortion(verdict.estimate, z)
                        if verdict.kind == "estimate" else None)
                return self.score(i, name, outcome, verdict.kind, verdict.user, dist)

            ops.append(Op(name, lambda r=reported: decoder.decode(self.config, r), check))
        return ops


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (VerdictRandom, VerdictWitness, DecodeFloat, DecodeExact)}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())
