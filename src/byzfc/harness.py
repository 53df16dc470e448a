"""Scenario-driven Monte Carlo experiment runner.

A scenario fixes (law, function, structure, adversary set, strategy,
n, trials, delta, gamma, seed); the runner samples sources, applies the
attack, decodes, classifies each trial as ok/E1/E2 and aggregates the
error-rate estimate with a Wilson interval.  Reports are a pure function
of (scenario, seed): per-trial seeds are sha256-derived from the master
seed and the trial index, so partial re-runs match.
"""

from __future__ import annotations

import csv
import io
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

from . import __version__ as _version
from .adversary import AttackStrategy, attack, strategy_from_json
from .decoder import DecoderConfig, TrialTruth, build_decoder_config, decode, score_trial
from .examples_lib import resolve_example
from .probability import (JointPmf, apply_pointwise, derive_seed, json_number, json_value,
                          sample_iid)
from .structures import AdversaryStructure, TargetFunction


class ScenarioError(ValueError):
    """Malformed scenario file or references."""


@dataclass(frozen=True)
class Scenario:
    pmf: JointPmf
    f: TargetFunction
    structure: AdversaryStructure
    adversary_set: frozenset
    strategy: AttackStrategy
    n: int
    trials: int
    delta: float
    gamma: float
    seed: int
    name: str = "scenario"

    def __post_init__(self):
        if self.adversary_set not in self.structure.sets:
            raise ScenarioError("adversary set not in the structure")
        if self.n < 1 or self.trials < 1:
            raise ScenarioError("n and trials must be >= 1")
        for name in ("delta", "gamma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ScenarioError(f"{name} must be finite and positive, not {value}")


def scenario_from_json_dict(d: dict) -> Scenario:
    def number(key, default=None, integer=False):
        return json_number(d, key, default, integer=integer, error=ScenarioError)

    if "example" in d:
        pmf, f, structure = resolve_example(d["example"])
    else:
        pmf, f = JointPmf.from_json_dict(d["pmf"]), TargetFunction.from_json_dict(d["function"])
    if "structure" in d or "example" not in d:
        structure = AdversaryStructure.from_json_dict(d["structure"])
    if "threshold" in d:
        structure = AdversaryStructure.threshold(structure.k, number("threshold", integer=True))
    users = [json_value(u, "adversary_set entry", integer=True, error=ScenarioError)
             for u in d.get("adversary_set", [])]
    # the CLI writes <name>.json and <name>.csv into its output directory
    name = d.get("name", "scenario")
    if not isinstance(name, str) or name in ("", ".", "..") or {"/", "\\"} & set(name):
        raise ScenarioError(f"scenario name {name!r} is not a plain file name")
    return Scenario(
        pmf=pmf, f=f, structure=structure,
        adversary_set=frozenset(users),
        strategy=strategy_from_json(d.get("strategy", {"kind": "honest"})),
        n=number("n", integer=True), trials=number("trials", integer=True),
        delta=number("delta", 0.1), gamma=number("gamma", 0.05),
        seed=number("seed", 0, integer=True), name=name,
    )


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    outcome: str            # ok | E1 | E2
    verdict_kind: str
    blamed: int | None
    distortion: float | None


@dataclass
class ExperimentReport:
    name: str
    trials: int
    counts: dict[str, int]
    blame_histogram: dict[int, int]
    eta_hat: float
    wilson_low: float
    wilson_high: float
    viable_precheck: bool
    seed: int
    config_echo: dict
    records: list[TrialRecord] = field(default_factory=list)
    wall_clock: float = 0.0
    version: str = _version

    def core_dict(self) -> dict:
        """Deterministic part (wall clock excluded)."""
        return {
            "name": self.name,
            "trials": self.trials,
            "counts": dict(self.counts),
            "blame_histogram": {str(k): v for k, v in sorted(self.blame_histogram.items())},
            "eta_hat": self.eta_hat,
            "wilson": [self.wilson_low, self.wilson_high],
            "viable_precheck": self.viable_precheck,
            "seed": self.seed,
            "config": self.config_echo,
            "version": self.version,
        }

    def to_json_dict(self) -> dict:
        d = self.core_dict()
        d["wall_clock_sec"] = self.wall_clock
        return d

    def records_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["trial", "outcome", "verdict", "blamed", "distortion"])
        for r in self.records:
            w.writerow([r.trial, r.outcome, r.verdict_kind,
                        "" if r.blamed is None else r.blamed,
                        "" if r.distortion is None else f"{r.distortion:.6f}"])
        return buf.getvalue()


def wilson_interval(errors: int, n: int) -> tuple[float, float]:
    """95% score interval for a binomial proportion, at z = 1.96."""
    z = 1.96
    if n == 0:
        return (0.0, 1.0)
    phat = errors / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# (law, function, structure, delta, config, float law), the law and the
# function copied so that a caller changing its own in place misses
_CONFIG_CACHE: list[tuple[JointPmf, TargetFunction, AdversaryStructure, float,
                          DecoderConfig, JointPmf]] = []


def _cached(p: JointPmf, f: TargetFunction, structure: AdversaryStructure,
            delta: float) -> tuple[DecoderConfig, JointPmf]:
    """The float-mode config for the inputs and the law in float mode,
    built on the first call with equal inputs."""
    for cp, cf, cs, cd, config, p_float in _CONFIG_CACHE:
        if cd == delta and cs == structure and cp == p and cf == f:
            return config, p_float
    p = JointPmf(p.axes, p.mass.copy())
    f = TargetFunction(f.domain_axes, f.codomain, f.table.copy())
    config, p_float = build_decoder_config(p, f, structure, delta), p.to_float()
    _CONFIG_CACHE.append((p, f, structure, delta, config, p_float))
    return config, p_float


def cached_decoder_config(p: JointPmf, f: TargetFunction, structure: AdversaryStructure,
                          delta: float) -> DecoderConfig:
    return _cached(p, f, structure, delta)[0]


def run_scenario(s: Scenario, threads: int = 1) -> ExperimentReport:
    """Monte Carlo estimate of the decoding error rate under one attack.

    ``viable_precheck`` is the config's viability verdict.  A non-viable
    input still runs (negative testing is allowed, not fatal): a repaired
    table whose construction conflicts falls back to f.
    """
    start = time.monotonic()
    config, pmf_float = _cached(s.pmf, s.f, s.structure, s.delta)

    def one_trial(t: int) -> TrialRecord:
        true_block = sample_iid(pmf_float, s.n, derive_seed(s.seed, "trial", t))
        reported = attack(s.strategy, s.adversary_set, true_block,
                          derive_seed(s.seed, "attack", t))
        verdict = decode(config, reported)
        true_z = apply_pointwise(s.f, true_block)
        truth = TrialTruth(true_block=true_block, adversary_set=s.adversary_set,
                           true_z=true_z)
        outcome, dist = score_trial(verdict, truth, s.gamma)
        return TrialRecord(trial=t, outcome=outcome, verdict_kind=verdict.kind,
                           blamed=verdict.user, distortion=dist)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(one_trial, range(s.trials)))
    else:
        records = [one_trial(t) for t in range(s.trials)]

    counts = {"ok": 0, "E1": 0, "E2": 0}
    blames: dict[int, int] = {}
    for r in records:
        counts[r.outcome] += 1
        if r.blamed is not None:
            blames[r.blamed] = blames.get(r.blamed, 0) + 1
    errors = counts["E1"] + counts["E2"]
    lo, hi = wilson_interval(errors, s.trials)
    echo = {
        "adversary_set": sorted(s.adversary_set),
        "strategy": type(s.strategy).__name__,
        "n": s.n, "trials": s.trials, "delta": s.delta, "gamma": s.gamma,
        "structure_sets": [sorted(x) for x in s.structure.sets],
    }
    return ExperimentReport(
        name=s.name, trials=s.trials, counts=counts, blame_histogram=blames,
        eta_hat=errors / s.trials, wilson_low=lo, wilson_high=hi,
        viable_precheck=config.viable, seed=s.seed, config_echo=echo,
        records=records,
        wall_clock=time.monotonic() - start,
    )


def sweep(base: Scenario, axis: str, values: Sequence, threads: int = 1,
          ) -> list[ExperimentReport]:
    """One report per value of the swept axis (n, delta or gamma).

    All runs share the base master seed, so per-trial seeds coincide
    across the sweep wherever shapes allow.
    """
    if axis not in ("n", "delta", "gamma"):
        raise ScenarioError(f"cannot sweep axis {axis!r}")
    if not values:
        raise ScenarioError("sweep needs at least one value")
    reports = []
    for v in values:
        v = int(v) if axis == "n" else float(v)
        s = replace(base, **{axis: v}, name=f"{base.name}[{axis}={v}]")
        reports.append(run_scenario(s, threads=threads))
    return reports
