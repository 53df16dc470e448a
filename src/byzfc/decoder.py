"""The type-based decoding map and error-event classification.

The decoder computes which adversary sets can explain the reported
block's empirical type (within TV radius delta of each view set, the
empty set explaining only laws near the source law itself).  No
explanation: refuse.  All explanations share a user: blame the smallest
such user.  Otherwise: apply the repaired table of the explaining
collection letter by letter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .polytope import ChannelTables
from .probability import (MALFORMED, Alphabet, JointPmf, SampleBlock, apply_pointwise,
                          empirical_type, hamming_distortion, json_number, type_counts)
from .structures import (AdversaryStructure, TargetFunction, canonical_collection,
                         is_nonintersecting, nonintersecting_collections)
from .viability import GBuildConflict, GTable, build_g, check_viability
from .viewsets import DistanceScreen, ViewSetHandle, distance_to_viewset


class DecoderConfigError(RuntimeError):
    """Malformed or inconsistent configuration."""


@dataclass(frozen=True)
class Verdict:
    kind: str                      # "blame" | "estimate" | "no_explanation"
    user: int | None = None
    estimate: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("blame", "estimate", "no_explanation"):
            raise ValueError(f"unknown verdict kind {self.kind!r}")
        if self.kind == "blame" and self.user is None:
            raise ValueError("blame verdict needs a user")
        if self.kind == "estimate" and self.estimate is None:
            raise ValueError("estimate verdict needs a sequence")

    def to_json_dict(self, codomain: Alphabet | None = None) -> dict:
        if self.kind == "blame":
            return {"kind": "blame", "user": self.user}
        if self.kind == "estimate":
            seq = self.estimate.tolist()
            if codomain is not None:
                seq = [codomain.symbols[v] for v in seq]
            return {"kind": "estimate", "sequence": seq}
        return {"kind": "no_explanation"}


@dataclass
class DecoderConfig:
    """Decoding state for one (law, function, structure).

    ``viable`` is the viability verdict.  ``g_tables`` holds the repaired
    tables built so far, keyed by collection; ``g_table`` builds a missing
    one on first use, on one channel-table dict owned by the config.
    ``screen`` holds the bound tables and the radius ``delta``,
    built once; every membership decision compares with ``delta`` exactly.
    """

    base: JointPmf
    structure: AdversaryStructure
    f: TargetFunction
    delta: float
    g_tables: dict[frozenset, GTable] = field(default_factory=dict)
    viable: bool = True
    handles: tuple[ViewSetHandle, ...] = field(init=False)
    screen: DistanceScreen = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise DecoderConfigError(f"delta must be finite and positive, not {self.delta}")
        if self.structure.k != self.base.k - 1 or self.f.domain_axes != self.base.axes:
            raise DecoderConfigError("structure or function does not match the law's users or axes")
        self.handles = tuple(ViewSetHandle(self.base, s) for s in self.structure.sets)
        self.screen = DistanceScreen(self.base, self.structure.sets, self.delta)
        # own copy: tables built later stay out of the caller's dict
        self.g_tables = dict(self.g_tables)
        self._channels = ChannelTables(self.base)
        for g in self.g_tables.values():
            if g.domain_axes != self.base.axes or g.codomain != self.f.codomain:
                raise DecoderConfigError(
                    f"g-table for collection {g.collection} does not match the law's axes "
                    "or the function's codomain")
            if not (is_nonintersecting(g.collection)
                    and all(s in self.structure for s in g.collection)):
                raise DecoderConfigError(f"g-table collection {g.collection} is not a "
                                         "non-intersecting collection of the structure")

    def g_table(self, collection) -> GTable:
        """The repaired table of a non-intersecting collection, built on first use.

        A construction conflict (f non-viable) stores f itself with an
        all-false mask, the naive table kept for negative testing.
        """
        col = canonical_collection(collection)
        g = self.g_tables.get(frozenset(col))
        if g is None:
            try:
                g = build_g(self.base, self.f, col, tables=self._channels)
            except GBuildConflict:
                g = GTable(self.base.axes, self.f.codomain, self.f.table.copy(),
                           collection=col, defined_mask=np.zeros(self.f.table.shape, bool))
            self.g_tables[frozenset(col)] = g
        return g


def build_decoder_config(p: JointPmf, f: TargetFunction, structure: AdversaryStructure,
                         delta: float, mode: str = "float") -> DecoderConfig:
    """The viability verdict and the view handles; no g-table is built.

    ``DecoderConfig.g_table`` builds each repaired table when decoding
    first needs it.  Requires an exact pmf; ``mode`` is checked, not used.
    """
    if mode not in ("exact", "float"):
        raise DecoderConfigError(f"unknown mode {mode!r}")
    viable = check_viability(p, f, structure).viable
    return DecoderConfig(base=p, structure=structure, f=f, delta=delta, viable=viable)



def explanation_set(config: DecoderConfig, reported: SampleBlock) -> list[int]:
    """Indices into structure.sets whose view set covers the block's type.

    ``config.screen`` settles each set it can from the block's cell counts,
    exactly: a lower bound above delta rejects, an upper bound at or below
    it accepts.  ``distance_to_viewset`` decides the rest exactly against
    delta, on a type built at most once per block.
    """
    out, ty = [], None
    decided = config.screen.decide(type_counts(reported))
    for i, (h, inside) in enumerate(zip(config.handles, decided)):
        if inside is None:
            if ty is None:
                ty = empirical_type(reported)
            inside = distance_to_viewset(h, ty, config.delta).upper <= config.delta
        if inside:
            out.append(i)
    return out


def decode(config: DecoderConfig, reported: SampleBlock) -> Verdict:
    if reported.axes != config.base.axes:
        raise DecoderConfigError("block axes do not match the configured law")
    explain = explanation_set(config, reported)
    if not explain:
        return Verdict(kind="no_explanation")
    sets = [config.structure.sets[i] for i in explain]
    inter = frozenset.intersection(*sets)
    if inter:
        return Verdict(kind="blame", user=min(inter))
    # honest explains: the repaired table is f itself
    table = config.f if frozenset() in sets else config.g_table(sets)
    return Verdict(kind="estimate", estimate=apply_pointwise(table, reported))


@dataclass(frozen=True)
class TrialTruth:
    """Ground truth for scoring: the pre-attack block, the actual
    adversary set and the true function sequence."""

    true_block: SampleBlock
    adversary_set: frozenset
    true_z: np.ndarray


def score_trial(verdict: Verdict, truth: TrialTruth, gamma: float) -> tuple[str, float | None]:
    """The trial's ``classify_error`` outcome and, for an estimate, its
    Hamming distortion from the true function sequence (else None)."""
    if verdict.kind == "blame":
        return ("ok" if verdict.user in truth.adversary_set else "E1"), None
    if verdict.kind == "estimate":
        d = hamming_distortion(verdict.estimate, truth.true_z)
        return ("ok" if d <= gamma else "E2"), d
    return "E2", None


def classify_error(verdict: Verdict, truth: TrialTruth, gamma: float) -> str:
    """"ok", "E1" (blamed an honest user) or "E2" (bad or missing estimate).

    Refusing to answer counts as E2 for every adversary set, the
    conservative scoring choice.
    """
    return score_trial(verdict, truth, gamma)[0]


# -- config serialization ------------------------------------------------

def config_to_json_dict(config: DecoderConfig) -> dict:
    return {
        "pmf": config.base.to_json_dict(),
        "function": config.f.to_json_dict(),
        "structure": config.structure.to_json_dict(),
        "delta": config.delta,
        # unused, as every membership decision is exact; written so that the
        # config JSON, and digests of it, keep their form
        "mode": "float",
        "slack": 1e-7,
        "viable": config.viable,
        "g_tables": [config.g_table(col).to_json_dict()
                     for col in nonintersecting_collections(config.structure)],
    }


def config_from_json_dict(d: dict) -> DecoderConfig:
    """Parse a config; tables it omits are built from its law on first use.

    Without ``g_tables`` or ``viable`` the verdict is computed from the law.
    ``mode`` and ``slack`` are checked, not used.  Fields of the wrong JSON
    type or length, a malformed g-table and a collection listed twice raise
    DecoderConfigError; the verdict is not part of the parse, so its own
    faults propagate unchanged.
    """
    try:
        p = JointPmf.from_json_dict(d["pmf"])
        f = TargetFunction.from_json_dict(d["function"])
        structure = AdversaryStructure.from_json_dict(d["structure"])
        delta = json_number(d, "delta", error=DecoderConfigError)
        slack = json_number(d, "slack", 1e-7, error=DecoderConfigError)
        if not (math.isfinite(slack) and slack >= 0):
            raise DecoderConfigError(f"slack must be finite and nonnegative, not {slack}")
        if d.get("mode", "float") not in ("exact", "float"):
            raise DecoderConfigError(f"unknown mode {d['mode']!r}")
        viable = d.get("viable")
        if "viable" in d and not isinstance(viable, bool):
            raise DecoderConfigError(f"viable must be a boolean, not {viable!r}")
        tables = {}
        for i, gd in enumerate(d.get("g_tables", ())):
            try:
                g = GTable.from_json_dict(gd)
            except ValueError as e:
                raise DecoderConfigError(f"malformed g-table {i}: {e}") from e
            if frozenset(g.collection) in tables:
                raise DecoderConfigError(f"g-table for collection {g.collection} listed twice")
            tables[frozenset(g.collection)] = g
    except MALFORMED as e:
        raise DecoderConfigError(f"malformed config: {e}") from e
    if viable is None or "g_tables" not in d:
        viable = check_viability(p, f, structure).viable
    return DecoderConfig(base=p, structure=structure, f=f, delta=delta, g_tables=tables,
                         viable=viable)
