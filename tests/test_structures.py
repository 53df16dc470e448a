"""Adversary structures, collection enumeration, target function tables."""

from itertools import combinations

import numpy as np
import pytest

from byzfc.decoder import config_from_json_dict, config_to_json_dict
from byzfc.harness import scenario_from_json_dict
from byzfc.probability import Alphabet, ProbabilityError, philox
from byzfc.structures import (AdversaryStructure, TargetFunction,
                              constant_function, nonintersecting_collections)


class TestAdversaryStructure:
    def test_empty_set_required(self):
        with pytest.raises(ValueError):
            AdversaryStructure(2, [{0}, {1}])

    def test_deduplication_and_range(self):
        s = AdversaryStructure(2, [set(), {0}, {0}, {1}])
        assert len(s.sets) == 3
        with pytest.raises(ValueError):
            AdversaryStructure(2, [set(), {2}])

    def test_threshold(self):
        s = AdversaryStructure.threshold(3, 2)
        assert len(s.sets) == 1 + 3 + 3
        assert frozenset({0, 1}) in s
        assert frozenset({0, 1, 2}) not in s

    @pytest.mark.parametrize("d", [{"k": True, "threshold": 1}, {"k": 3.0, "threshold": 1},
                                   {"k": 3, "threshold": 1.0}, {"k": 3, "threshold": False},
                                   {"k": 3, "sets": [[], [0, True]]},
                                   {"k": 3, "sets": [[], [0, 1.0]]},
                                   {"k": 3, "sets": [[], ["0"]]}])
    def test_json_numbers_must_be_integers(self, d):
        with pytest.raises(ValueError):
            AdversaryStructure.from_json_dict(d)

    @pytest.mark.parametrize("k, sets", [(3, [[], [0.5], [1]]), (3, [[], [True], [2]]),
                                         (3, [[], [1.0]]), (3, [[], ["0"]]),
                                         (3.0, [[]]), (True, [[]]), ("3", [[]])])
    def test_users_and_k_must_be_integers(self, k, sets):
        # checked before the sets are built, where True would be user 1
        with pytest.raises(ValueError, match="integer"):
            AdversaryStructure(k, sets)

    @pytest.mark.parametrize("k, s", [(3.0, 1), (3, 1.0), (True, 1), (3, True), (3, 4)])
    def test_threshold_needs_integers(self, k, s):
        with pytest.raises(ValueError, match="integer"):
            AdversaryStructure.threshold(k, s)

    def test_numpy_integers_are_stored_as_ints(self):
        s = AdversaryStructure(np.int64(3), [[], [np.int32(1)], (np.int64(0), 2)])
        assert type(s.k) is int
        assert all(type(u) is int for member in s.sets for u in member)
        assert s == AdversaryStructure(3, [set(), {1}, {0, 2}])
        assert AdversaryStructure.from_json_dict(s.to_json_dict()) == s

    @pytest.mark.parametrize("sets, kind", [(["12", [0]], "str"), ("12", "str"),
                                            ([[], 0], "int")])
    def test_sets_must_be_lists(self, sets, kind):
        # a string is not read as a set of its characters, nor a number
        # iterated
        with pytest.raises(ValueError, match=f"must be a list, not {kind}"):
            AdversaryStructure.from_json_dict({"k": 3, "sets": sets})

    def test_threshold_and_sets_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            AdversaryStructure.from_json_dict({"k": 3, "threshold": 2, "sets": [[], [0]]})

    def test_json_roundtrip(self):
        s = AdversaryStructure(3, [set(), {0}, {1, 2}])
        assert AdversaryStructure.from_json_dict(s.to_json_dict()) == s
        assert AdversaryStructure.from_json_dict({"k": 3, "threshold": 1}) == \
            AdversaryStructure.threshold(3, 1)


def powerset_oracle(structure):
    """Independent enumeration: filter the full powerset of non-empty sets."""
    nonempty = [s for s in structure.sets if s]
    out = set()
    for r in range(1, len(nonempty) + 1):
        for combo in combinations(nonempty, r):
            if not frozenset.intersection(*combo):
                out.add(frozenset(combo))
    return out


class TestCollections:
    def test_two_users_single_collection(self):
        s = AdversaryStructure(2, [set(), {0}, {1}])
        cols = nonintersecting_collections(s)
        assert cols == [(frozenset({0}), frozenset({1}))]

    def test_claim_proof_triple_present(self):
        # the three pairwise-colluding sets of the worked 3-user example
        s = AdversaryStructure.threshold(3, 2)
        cols = nonintersecting_collections(s)
        triple = (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}))
        assert tuple(sorted(triple, key=lambda x: (len(x), sorted(x)))) in cols

    def test_three_users_threshold_one_count(self):
        s = AdversaryStructure.threshold(3, 1)
        cols = nonintersecting_collections(s)
        assert len(cols) == 4  # three pairs of singletons plus the triple

    def test_exhaustive_vs_powerset_oracle(self):
        for k, t in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 2)):
            s = AdversaryStructure.threshold(k, t)
            cols = nonintersecting_collections(s)
            assert len(cols) == len(set(map(frozenset, cols)))
            assert set(map(frozenset, cols)) == powerset_oracle(s)

    def test_canonical_order(self):
        s = AdversaryStructure.threshold(3, 2)
        cols = nonintersecting_collections(s)
        sizes = [len(c) for c in cols]
        assert sizes == sorted(sizes)
        assert cols[0] == (frozenset({0}), frozenset({1}))
        # every threshold structure up to k = 4, those of k = 5 up to pairs,
        # and random structures: members sorted by key, collections by
        # size and then by their members' keys
        structures = [AdversaryStructure.threshold(k, t) for k in range(1, 6)
                      for t in range(k + 1 if k < 5 else 3)]
        rng = philox(23)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            sets = [[u for u in range(k) if rng.random() < 0.5]
                    for _ in range(int(rng.integers(1, 11)))]
            structures.append(AdversaryStructure(k, [[], *sets]))
        key = lambda s: (len(s), tuple(sorted(s)))
        for s in structures:
            cols = nonintersecting_collections(s)
            members = [tuple(sorted(c, key=key)) for c in cols]
            assert cols == sorted(members, key=lambda c: (len(c), [key(m) for m in c]))


class TestTargetFunction:
    def test_from_callable_and_value(self):
        a = Alphabet.binary()
        f = TargetFunction.from_callable((a, a), Alphabet((0, 1)), lambda x, y: x ^ y)
        assert f.value((1, 0)) == 1 and f.value((1, 1)) == 0

    def test_codomain_bounds_checked(self):
        a = Alphabet.binary()
        with pytest.raises(ProbabilityError, match="table values outside the codomain"):
            TargetFunction((a,), Alphabet((0,)), np.array([0, 5]))

    def test_compose(self):
        a = Alphabet.binary()
        f = TargetFunction.from_callable((a, a), Alphabet((0, 1)), lambda x, y: x ^ y)
        g = f.compose(lambda z: 1 - z, Alphabet((0, 1)))
        assert g.value((1, 0)) == 0

    def test_constant(self):
        a = Alphabet.binary()
        f = constant_function((a, a), Alphabet(("c", "d")), "d")
        assert np.all(f.table == 1)

    def test_json_roundtrip(self, erasure_f_uv):
        again = TargetFunction.from_json_dict(erasure_f_uv.to_json_dict())
        assert again == erasure_f_uv

    def test_short_table_rejected(self, erasure_pmf, erasure_f_uv, erasure_config):
        d = erasure_f_uv.to_json_dict()
        short = {**d, "table": d["table"][:-1]}
        scenario = {"pmf": erasure_pmf.to_json_dict(), "function": short,
                    "structure": {"k": 3, "threshold": 2}, "n": 10, "trials": 1}
        config = config_to_json_dict(erasure_config)
        for parse, arg in [(TargetFunction.from_json_dict, short),
                           (scenario_from_json_dict, scenario),
                           (config_from_json_dict, {**config, "function": short})]:
            with pytest.raises(ProbabilityError, match="table has 53 entries, not 54"):
                parse(arg)
