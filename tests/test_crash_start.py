"""Regions started at the identity channel agree with phase 1.

The exact checker starts every region tableau at the identity-channel
point instead of running phase 1.  These tests compare the two starts on
the regions the checker builds, on the exact view-distance LP, and check
collection pruning against the unpruned scan at k=4.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from byzfc import viewsets
from byzfc.examples_lib import random_function, random_pmf
from byzfc.probability import JointPmf
from byzfc.simplex import Tableau, positive_coordinates
from byzfc.structures import AdversaryStructure, nonintersecting_collections
from byzfc.viability import _Region, _scan_collection, check_viability
from byzfc.viewsets import ViewSetHandle, _distance_exact, induce_view

from test_acceptance import t1_instance
from test_viewsets import random_channel


def _compare_starts(region: _Region, rng: np.random.Generator, objectives: int = 3) -> None:
    identity = region.identity_solution()
    start = [identity[v] for v in region.alive_vars]
    crashed = Tableau(region.A, region.b, len(start), start=start)
    assert crashed.solution() == start
    coords = range(len(region.alive_vars))
    phase1 = Tableau(region.A, region.b, len(start))
    pos_crashed, witness = positive_coordinates(crashed, coords)
    assert pos_crashed == positive_coordinates(phase1, coords)[0]
    for j, sol in witness.items():
        assert sol[j] > 0
    for _ in range(objectives):
        c = [Fraction(int(v), int(d)) for v, d in
             zip(rng.integers(-9, 10, len(start)), rng.integers(1, 6, len(start)))]
        assert crashed.maximize(c) == phase1.maximize(c)


def test_threshold1_pool_regions_match_phase1():
    rng = np.random.default_rng(11)
    regions = 0
    for t in range(200):
        p, _ = t1_instance(t)
        for col in nonintersecting_collections(AdversaryStructure.threshold(p.k - 1, 1)):
            _compare_starts(_Region(p, col), rng)
            regions += 1
    assert regions >= 200


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(2, 3), min_size=3, max_size=4),
       seed=st.integers(0, 10_000), zero_frac=st.sampled_from([0.0, 0.3, 0.5]),
       pick=st.integers(0, 10_000), s=st.integers(1, 2))
def test_generated_regions_match_phase1(sizes, seed, zero_frac, pick, s):
    if np.prod(sizes) > 18:   # keep the phase-1 reference solves small
        sizes = sizes[:3]
    p = random_pmf(tuple(sizes), seed=seed, zero_frac=zero_frac, max_weight=4)
    k = p.k - 1
    cols = nonintersecting_collections(AdversaryStructure.threshold(k, min(s, k - 1)))
    if not cols:
        return
    _compare_starts(_Region(p, cols[pick % len(cols)]), np.random.default_rng(seed))


def test_exact_distance_same_without_the_start(erasure_pmf, monkeypatch):
    queries = [erasure_pmf]
    for seed in range(4):
        queries.append(random_pmf(tuple(a.size for a in erasure_pmf.axes),
                                  seed=100 + seed, zero_frac=0.3, max_weight=5))
        aset = (0,) if seed % 2 else (1, 2)
        axes = tuple(erasure_pmf.axes[c] for c in aset)
        queries.append(induce_view(erasure_pmf, aset,
                                   random_channel(axes, seed=seed, exact=True)))
    cases = []
    for aset in ({0}, {1}, {1, 2}, {0, 2}):
        h = ViewSetHandle(erasure_pmf, frozenset(aset))
        for q in queries:
            q = JointPmf(erasure_pmf.axes, q.mass)
            cases.append((h, q, _distance_exact(h, q).distance))
    monkeypatch.setattr(viewsets, "Tableau", lambda A, b, n, start=None: Tableau(A, b, n))
    for h, q, dist in cases:
        res = _distance_exact(h, q)
        assert res.distance == dist
        res.verify(h, q)


def test_k4_pruning_matches_the_unpruned_scan():
    st_ = AdversaryStructure.threshold(4, 2)
    p = random_pmf((2, 2, 2, 2, 2), seed=5, zero_frac=0.3, max_weight=3)
    f = random_function(p, 2, seed=6)
    cols = nonintersecting_collections(st_)
    assert len(cols) == 969
    unpruned = all(_scan_collection(_Region(p, col), f) is None for col in cols)
    assert unpruned == check_viability(p, f, st_).viable
