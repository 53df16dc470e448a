"""The type-based decoding map and error-event classification.

The decoder computes which adversary sets can explain the reported
block's empirical type (within TV radius delta of each view set, the
empty set explaining only laws near the source law itself).  No
explanation: refuse.  All explanations share a user: blame the smallest
such user.  Otherwise: apply the repaired table of the explaining
collection letter by letter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .probability import (Alphabet, JointPmf, SampleBlock, apply_pointwise,
                          empirical_type, hamming_distortion)
from .structures import AdversaryStructure, TargetFunction, nonintersecting_collections
from .viability import GBuildConflict, GTable, build_g
from .viewsets import ViewSetHandle, distance_to_viewset


class DecoderConfigError(RuntimeError):
    """Missing g-table or inconsistent configuration."""


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
    """Precomputed decoding state for one (law, function, structure)).

    ``g_tables`` covers every non-intersecting collection; ``delta`` is
    the membership radius; float-mode membership adds ``slack`` to absorb
    LP round-off.  ``viable`` records the g-construction precheck: when
    False the conflicted collections fall back to f itself (naive table),
    which is the documented behavior for negative testing.
    """

    base: JointPmf
    structure: AdversaryStructure
    f: TargetFunction
    delta: float
    g_tables: dict[frozenset, GTable]
    mode: str = "float"
    slack: float = 1e-7
    viable: bool = True
    handles: tuple[ViewSetHandle, ...] = field(init=False)

    def __post_init__(self):
        if self.delta <= 0:
            raise DecoderConfigError("delta must be positive")
        base = self.base if self.mode == "exact" else self.base.to_float()
        self.handles = tuple(ViewSetHandle(base, s) for s in self.structure.sets)
        for col in nonintersecting_collections(self.structure):
            if frozenset(col) not in self.g_tables:
                raise DecoderConfigError(f"missing g-table for collection {col}")


def build_decoder_config(p: JointPmf, f: TargetFunction, structure: AdversaryStructure,
                         delta: float, mode: str = "float", slack: float = 1e-7,
                         ) -> DecoderConfig:
    """Precompute every collection's repaired table and the view handles.

    Requires an exact pmf (the tables are exact-LP constructions); the
    stored base law follows ``mode``.  A g-construction conflict marks the
    config non-viable and substitutes f for that collection.
    """
    p.require_exact("decoder config construction")
    tables: dict[frozenset, GTable] = {}
    viable = True
    for col in nonintersecting_collections(structure):
        try:
            tables[frozenset(col)] = build_g(p, f, col)
        except GBuildConflict:
            viable = False
            tables[frozenset(col)] = GTable(
                collection=col, domain_axes=tuple(p.axes), codomain=f.codomain,
                table=f.table.copy(), defined_mask=np.zeros(f.table.shape, dtype=bool))
    return DecoderConfig(base=p, structure=structure, f=f, delta=delta,
                         g_tables=tables, mode=mode, slack=slack, viable=viable)


def explanation_set(config: DecoderConfig, reported: SampleBlock) -> list[int]:
    """Indices into structure.sets whose view set covers the block's type."""
    ty = empirical_type(reported)
    ty = ty if config.mode == "exact" else ty.to_float()
    out = []
    for i, h in enumerate(config.handles):
        res = distance_to_viewset(h, ty, mode=config.mode)
        thresh = config.delta if config.mode == "exact" else config.delta + config.slack
        if res.distance <= thresh:
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
    nonempty = frozenset(s for s in sets if s)
    if any(not s for s in sets):
        table = config.f           # honest explains: repaired table is f itself
    else:
        g = config.g_tables.get(nonempty)
        if g is None:
            raise DecoderConfigError(f"no g-table for computed collection {sets}")
        table = g
    return Verdict(kind="estimate", estimate=apply_pointwise(table, reported))


@dataclass(frozen=True)
class TrialTruth:
    """Ground truth for scoring: the pre-attack block, the actual
    adversary set and the true function sequence."""

    true_block: SampleBlock
    adversary_set: frozenset
    true_z: np.ndarray


def classify_error(verdict: Verdict, truth: TrialTruth, gamma: float) -> str:
    """"ok", "E1" (blamed an honest user) or "E2" (bad or missing estimate).

    Refusing to answer counts as E2 for every adversary set, the
    conservative scoring choice.
    """
    if verdict.kind == "blame":
        return "ok" if verdict.user in truth.adversary_set else "E1"
    if verdict.kind == "estimate":
        d = hamming_distortion(verdict.estimate, truth.true_z)
        return "ok" if d <= gamma else "E2"
    return "E2"


# -- config serialization ------------------------------------------------

def config_to_json_dict(config: DecoderConfig) -> dict:
    return {
        "pmf": config.base.to_json_dict(),
        "function": config.f.to_json_dict(),
        "structure": config.structure.to_json_dict(),
        "delta": config.delta,
        "mode": config.mode,
        "slack": config.slack,
        "viable": config.viable,
        "g_tables": [g.to_json_dict() for g in config.g_tables.values()],
    }


def config_from_json_dict(d: dict) -> DecoderConfig:
    p = JointPmf.from_json_dict(d["pmf"])
    f = TargetFunction.from_json_dict(d["function"])
    structure = AdversaryStructure.from_json_dict(d["structure"])
    if "g_tables" not in d:
        return build_decoder_config(p, f, structure, float(d["delta"]),
                                    mode=d.get("mode", "float"),
                                    slack=float(d.get("slack", 1e-7)))
    tables = {}
    for gd in d["g_tables"]:
        col = tuple(sorted((frozenset(s) for s in gd["collection"]),
                           key=lambda s: (len(s), sorted(s))))
        axes = tuple(Alphabet(a) for a in gd["axes"])
        codomain = Alphabet(gd["codomain"])
        flat = np.array([codomain.index(s) for s in gd["table"]], dtype=np.int64)
        shape = tuple(a.size for a in axes)
        mask = np.array(gd["defined"], dtype=bool).reshape(shape)
        tables[frozenset(col)] = GTable(collection=col, domain_axes=axes,
                                        codomain=codomain, table=flat.reshape(shape),
                                        defined_mask=mask)
    return DecoderConfig(base=p, structure=structure, f=f, delta=float(d["delta"]),
                         g_tables=tables, mode=d.get("mode", "float"),
                         slack=float(d.get("slack", 1e-7)),
                         viable=bool(d.get("viable", True)))
