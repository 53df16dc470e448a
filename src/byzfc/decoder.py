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
import threading
from dataclasses import dataclass, field

import numpy as np

from .probability import (FLOAT_NORMALIZATION_TOL, Alphabet, JointPmf, SampleBlock,
                          apply_pointwise, empirical_type, float_type, hamming_distortion,
                          json_number)
from .structures import (AdversaryStructure, TargetFunction, canonical_collection,
                         nonintersecting_collections)
from .viability import GBuildConflict, GTable, build_g, check_viability
from .viewsets import ViewSetHandle, distance_bounds, distance_to_viewset


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
    one on first use, on one channel-table dict owned by the config.  The
    law must be exact, since every table is an exact-LP construction; the
    view handles follow ``mode``.  ``delta`` is the membership radius;
    float-mode membership adds ``slack`` to absorb LP round-off.
    """

    base: JointPmf
    structure: AdversaryStructure
    f: TargetFunction
    delta: float
    g_tables: dict[frozenset, GTable] = field(default_factory=dict)
    mode: str = "float"
    slack: float = 1e-7
    viable: bool = True
    handles: tuple[ViewSetHandle, ...] = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise DecoderConfigError(f"delta must be finite and positive, not {self.delta}")
        if not (math.isfinite(self.slack) and self.slack >= 0):
            raise DecoderConfigError(f"slack must be finite and nonnegative, not {self.slack}")
        if self.mode not in ("exact", "float"):
            raise DecoderConfigError(f"unknown mode {self.mode!r}")
        if not self.base.exact:
            raise DecoderConfigError("a decoder config needs an exact law")
        base = self.base if self.mode == "exact" else self.base.to_float()
        self.handles = tuple(ViewSetHandle(base, s) for s in self.structure.sets)
        # own copy: tables built later stay out of the caller's dict
        self.g_tables = dict(self.g_tables)
        self._channels: dict = {}
        self._lock = threading.Lock()     # run_scenario may decode from threads
        for g in self.g_tables.values():
            if g.domain_axes != self.base.axes or g.codomain != self.f.codomain:
                raise DecoderConfigError(
                    f"g-table for collection {g.collection} does not match the law's axes "
                    "or the function's codomain")

    def g_table(self, collection) -> GTable:
        """The repaired table of a non-intersecting collection, built on first use.

        A construction conflict (f non-viable) stores f itself with an
        all-false mask, the naive table kept for negative testing.
        """
        col = canonical_collection(collection)
        with self._lock:
            g = self.g_tables.get(frozenset(col))
            if g is None:
                try:
                    g = build_g(self.base, self.f, col, tables=self._channels)
                except GBuildConflict:
                    g = GTable(collection=col, domain_axes=self.base.axes,
                               codomain=self.f.codomain, table=self.f.table.copy(),
                               defined_mask=np.zeros(self.f.table.shape, dtype=bool))
                self.g_tables[frozenset(col)] = g
        return g


def build_decoder_config(p: JointPmf, f: TargetFunction, structure: AdversaryStructure,
                         delta: float, mode: str = "float", slack: float = 1e-7,
                         ) -> DecoderConfig:
    """The viability verdict and the view handles; no g-table is built.

    ``DecoderConfig.g_table`` builds each repaired table when decoding
    first needs it.  Requires an exact pmf; the view handles follow ``mode``.
    """
    viable = check_viability(p, f, structure).viable
    return DecoderConfig(base=p, structure=structure, f=f, delta=delta,
                         mode=mode, slack=slack, viable=viable)


def explanation_set(config: DecoderConfig, reported: SampleBlock) -> list[int]:
    """Indices into structure.sets whose view set covers the block's type.

    Each set is decided by ``distance_bounds`` when they settle it and by
    the view-distance LP only when the threshold falls between them; the
    bounds of every set come from one P - type difference per block.  In
    exact mode the bounds are compared exactly with delta, so they decide
    as the LP would.  In float mode the threshold is delta + slack, and a
    bound decides only when it clears it by ``FLOAT_NORMALIZATION_TOL``;
    nearer calls go to the LP.
    """
    if config.mode == "exact":
        ty, thresh, margin = empirical_type(reported), config.delta, 0
    else:
        ty, thresh = float_type(reported), config.delta + config.slack
        margin = FLOAT_NORMALIZATION_TOL
    out = []
    bounds = distance_bounds(config.handles, ty)
    for i, (h, (lower, upper)) in enumerate(zip(config.handles, bounds)):
        if lower > thresh + margin:
            continue
        if upper <= thresh - margin or distance_to_viewset(h, ty).distance <= thresh:
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
        "g_tables": [config.g_table(col).to_json_dict()
                     for col in nonintersecting_collections(config.structure)],
    }


def config_from_json_dict(d: dict) -> DecoderConfig:
    """Parse a config; tables it omits are built from its law on first use.

    Without ``g_tables`` the verdict is computed from the law too.  Fields
    of the wrong JSON type or length, and a collection listed twice, raise
    DecoderConfigError; the verdict is not part of the parse, so its own
    faults propagate unchanged.
    """
    try:
        p = JointPmf.from_json_dict(d["pmf"])
        f = TargetFunction.from_json_dict(d["function"])
        structure = AdversaryStructure.from_json_dict(d["structure"])
        delta = json_number(d, "delta", error=DecoderConfigError)
        slack = json_number(d, "slack", 1e-7, error=DecoderConfigError)
        mode = d.get("mode", "float")
        viable = d.get("viable", True)
        if not isinstance(viable, bool):
            raise DecoderConfigError(f"viable must be a boolean, not {viable!r}")
        tables = None
        if "g_tables" in d:
            tables = {}
            for gd in d["g_tables"]:
                col = canonical_collection(gd["collection"])
                if frozenset(col) in tables:
                    raise DecoderConfigError(f"g-table for collection {col} listed twice")
                axes = tuple(Alphabet(a) for a in gd["axes"])
                codomain = Alphabet(gd["codomain"])
                shape = tuple(a.size for a in axes)
                if not (len(gd["table"]) == len(gd["defined"]) == math.prod(shape)
                        and all(isinstance(m, bool) for m in gd["defined"])):
                    raise DecoderConfigError(f"g-table for collection {col} needs one label "
                                             "and one boolean 'defined' entry per cell")
                flat = np.array([codomain.index(s) for s in gd["table"]], dtype=np.int64)
                mask = np.array(gd["defined"], dtype=bool).reshape(shape)
                tables[frozenset(col)] = GTable(collection=col, domain_axes=axes,
                                                codomain=codomain, table=flat.reshape(shape),
                                                defined_mask=mask)
    except (TypeError, IndexError, AttributeError) as e:
        raise DecoderConfigError(f"malformed config: {e}") from e
    if tables is None:
        return build_decoder_config(p, f, structure, delta, mode=mode, slack=slack)
    return DecoderConfig(base=p, structure=structure, f=f, delta=delta, g_tables=tables,
                         mode=mode, slack=slack, viable=viable)
