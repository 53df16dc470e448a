"""Adversary structures, target functions and collection enumeration.

Users are 0-indexed.  An adversary structure is a collection of user
subsets (always containing the empty set, the honest case); a collection
of its non-empty sets is non-intersecting when its members have empty
common intersection.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Callable, Iterable, Sequence

import numpy as np

from .probability import Alphabet, Label, ProbabilityError


def _set_key(s: frozenset[int]) -> tuple:
    return (len(s), tuple(sorted(s)))


class AdversaryStructure:
    """The collection of user subsets an adversary may control."""

    __slots__ = ("k", "sets")

    def __init__(self, k: int, sets: Iterable[Iterable[int]]):
        if k < 1:
            raise ValueError("need at least one user")
        canon = {frozenset(s) for s in sets}
        for s in canon:
            for u in s:
                if not 0 <= u < k:
                    raise ValueError(f"user {u} outside range(0, {k})")
        if frozenset() not in canon:
            raise ValueError("adversary structure must contain the empty set")
        self.k = k
        self.sets = tuple(sorted(canon, key=_set_key))

    @staticmethod
    def threshold(k: int, s: int) -> "AdversaryStructure":
        """All subsets of cardinality at most s, plus the empty set."""
        if not 0 <= s <= k:
            raise ValueError("threshold must satisfy 0 <= s <= k")
        sets = [frozenset()]
        for size in range(1, s + 1):
            sets.extend(frozenset(c) for c in combinations(range(k), size))
        return AdversaryStructure(k, sets)

    @property
    def nonempty_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(s for s in self.sets if s)

    def __contains__(self, s) -> bool:
        return frozenset(s) in self.sets

    def __eq__(self, other) -> bool:
        return (isinstance(other, AdversaryStructure)
                and self.k == other.k and self.sets == other.sets)

    def __hash__(self) -> int:
        return hash((self.k, self.sets))

    def __repr__(self) -> str:
        return f"AdversaryStructure(k={self.k}, sets={[sorted(s) for s in self.sets]})"

    def to_json_dict(self) -> dict:
        return {"k": self.k, "sets": [sorted(s) for s in self.sets]}

    @staticmethod
    def from_json_dict(d: dict) -> "AdversaryStructure":
        if "threshold" in d:
            return AdversaryStructure.threshold(d["k"], d["threshold"])
        return AdversaryStructure(d["k"], [frozenset(s) for s in d["sets"]])


Collection = tuple[frozenset[int], ...]


def canonical_collection(sets: Iterable[Iterable[int]]) -> Collection:
    """The sets as a collection, members in canonical order (by size, then sorted)."""
    return tuple(sorted((frozenset(s) for s in sets), key=_set_key))


def nonintersecting_collections(structure: AdversaryStructure) -> list[Collection]:
    """All collections of distinct non-empty sets with empty intersection.

    Exhaustive; canonical order is ascending by size then lexicographic on
    the member keys, so downstream verdicts are deterministic.
    """
    nonempty = structure.nonempty_sets
    out: list[Collection] = []
    for r in range(2, len(nonempty) + 1):
        for combo in combinations(nonempty, r):
            inter = frozenset.intersection(*combo)
            if not inter:
                out.append(tuple(sorted(combo, key=_set_key)))
    out.sort(key=lambda col: (len(col), tuple(_set_key(s) for s in col)))
    return out


class TargetFunction:
    """Total map on X_1 x ... x X_k x Y given by a dense lookup table.

    ``table`` holds codomain indices and must be defined for every domain
    tuple; values off the support of the source distribution may be
    arbitrary.
    """

    __slots__ = ("domain_axes", "codomain", "table")

    def __init__(self, domain_axes: Sequence[Alphabet], codomain: Alphabet, table):
        self.domain_axes = tuple(domain_axes)
        self.codomain = codomain
        shape = tuple(a.size for a in self.domain_axes)
        arr = np.asarray(table, dtype=np.int64)
        if arr.shape != shape:
            arr = arr.reshape(shape)
        if arr.size and (arr.min() < 0 or arr.max() >= codomain.size):
            raise ProbabilityError("table values outside the codomain")
        self.table = arr

    @property
    def k(self) -> int:
        return len(self.domain_axes) - 1

    @staticmethod
    def from_callable(domain_axes: Sequence[Alphabet], codomain: Alphabet,
                      fn: Callable[..., Label]) -> "TargetFunction":
        domain_axes = tuple(domain_axes)
        shape = tuple(a.size for a in domain_axes)
        arr = np.empty(shape, dtype=np.int64)
        for idx in product(*(range(s) for s in shape)):
            labels = tuple(domain_axes[j].symbols[idx[j]] for j in range(len(idx)))
            arr[idx] = codomain.index(fn(*labels))
        return TargetFunction(domain_axes, codomain, arr)

    def value(self, labels: Sequence[Label]) -> Label:
        idx = tuple(a.index(s) for a, s in zip(self.domain_axes, labels))
        return self.codomain.symbols[int(self.table[idx])]

    def compose(self, h: Callable[[Label], Label], codomain: Alphabet) -> "TargetFunction":
        """h o f, for a map h on the codomain labels."""
        remap = np.array([codomain.index(h(s)) for s in self.codomain.symbols], dtype=np.int64)
        return TargetFunction(self.domain_axes, codomain, remap[self.table])

    def __eq__(self, other) -> bool:
        return (isinstance(other, TargetFunction)
                and self.domain_axes == other.domain_axes
                and self.codomain == other.codomain
                and bool(np.array_equal(self.table, other.table)))

    def __hash__(self):
        raise TypeError("TargetFunction is not hashable")

    def to_json_dict(self) -> dict:
        return {
            "axes": [list(a.symbols) for a in self.domain_axes],
            "codomain": list(self.codomain.symbols),
            "table": [self.codomain.symbols[v] for v in self.table.reshape(-1)],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "TargetFunction":
        axes = tuple(Alphabet(s) for s in d["axes"])
        codomain = Alphabet(d["codomain"])
        flat = np.array([codomain.index(s) for s in d["table"]], dtype=np.int64)
        return TargetFunction(axes, codomain, flat.reshape(tuple(a.size for a in axes)))


def constant_function(domain_axes: Sequence[Alphabet], codomain: Alphabet,
                      value: Label) -> TargetFunction:
    shape = tuple(a.size for a in domain_axes)
    return TargetFunction(domain_axes, codomain,
                          np.full(shape, codomain.index(value), dtype=np.int64))
