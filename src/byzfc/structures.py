"""Adversary structures, target functions and collection enumeration.

Users are 0-indexed.  An adversary structure is a collection of user
subsets (always containing the empty set, the honest case); a collection
of its non-empty sets is non-intersecting when its members have empty
common intersection.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, product
from typing import Callable, Iterable, Sequence

import numpy as np

from .probability import (Alphabet, Label, ProbabilityError, alphabets_from_json, is_integer,
                          json_list, json_number)


def _set_key(s: frozenset[int]) -> tuple:
    return (len(s), tuple(sorted(s)))


class AdversaryStructure:
    """The collection of user subsets an adversary may control.

    ``k`` and every user must be an int or a numpy integer, stored as int;
    a bool, a float or anything else raises ValueError, checked before the
    sets are built, where True would be user 1.
    """

    __slots__ = ("k", "sets")

    def __init__(self, k: int, sets: Iterable[Iterable[int]]):
        if not is_integer(k):
            raise ValueError(f"the user count must be an integer, not {k!r}")
        k = int(k)
        if k < 1:
            raise ValueError("need at least one user")
        members = [list(s) for s in sets]
        for u in chain.from_iterable(members):
            if not is_integer(u) or not 0 <= u < k:
                raise ValueError(f"user {u!r} is not an integer in range(0, {k})")
        canon = {frozenset(map(int, s)) for s in members}
        if frozenset() not in canon:
            raise ValueError("adversary structure must contain the empty set")
        self.k = k
        self.sets = tuple(sorted(canon, key=_set_key))

    @staticmethod
    def threshold(k: int, s: int) -> "AdversaryStructure":
        """All subsets of cardinality at most s, plus the empty set."""
        if not (is_integer(k) and is_integer(s) and 0 <= s <= k):
            raise ValueError("threshold must be an integer s with 0 <= s <= k, k an integer")
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
        """Parse ``{"k", "threshold"}`` or ``{"k", "sets"}``; every number
        must be a JSON integer and ``sets`` a list of lists, so a bool, a
        float or a string raises ValueError, and so do both keys at once."""
        k = json_number(d, "k", integer=True, error=ValueError)
        if "threshold" in d and "sets" in d:
            raise ValueError("a structure has 'threshold' or 'sets', not both")
        if "threshold" in d:
            return AdversaryStructure.threshold(
                k, json_number(d, "threshold", integer=True, error=ValueError))
        return AdversaryStructure(k, [json_list(s, "adversary set")
                                      for s in json_list(d["sets"], "sets")])


Collection = tuple[frozenset[int], ...]


def canonical_collection(sets: Iterable[Iterable[int]]) -> Collection:
    """The sets as a collection, members in canonical order (by size, then sorted)."""
    return tuple(sorted((frozenset(s) for s in sets), key=_set_key))


def is_nonintersecting(collection: Collection) -> bool:
    """Whether the sets are >= 2 distinct non-empty sets with empty intersection."""
    return (len(collection) >= 2 and len(set(collection)) == len(collection)
            and all(collection) and not frozenset.intersection(*collection))


def nonintersecting_collections(structure: AdversaryStructure) -> list[Collection]:
    """All collections of distinct non-empty sets with empty intersection.

    Exhaustive; canonical order is ascending by size then lexicographic on
    the member keys, so downstream verdicts are deterministic.
    """
    # the sets come sorted by their (injective) keys, so combinations yields
    # each collection's members sorted and the collections of one size in
    # lexicographic order
    nonempty = structure.nonempty_sets
    return [combo for r in range(2, len(nonempty) + 1)
            for combo in combinations(nonempty, r) if not frozenset.intersection(*combo)]


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
        if arr.size != math.prod(shape):
            raise ProbabilityError(f"table has {arr.size} entries, not {math.prod(shape)}")
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
        codomain = Alphabet(json_list(d["codomain"], "codomain"))
        return TargetFunction(alphabets_from_json(d["axes"]), codomain,
                              [codomain.index(s) for s in json_list(d["table"], "table")])


def constant_function(domain_axes: Sequence[Alphabet], codomain: Alphabet,
                      value: Label) -> TargetFunction:
    shape = tuple(a.size for a in domain_axes)
    return TargetFunction(domain_axes, codomain,
                          np.full(shape, codomain.index(value), dtype=np.int64))
