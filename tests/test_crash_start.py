"""Verdict shortcuts agree with the routines they replaced.

The exact checker decides a region whose only point is the identity
channel with a rank certificate, mod 2 on bit rows or else mod a prime
on dict rows, and then scans none of its views; it starts every other
region tableau at the identity-channel point instead of running phase 1.
These tests compare the certificates with the crash start and the crash
start with phase 1 on the regions the checker builds, compare the two
starts on the exact view-distance LP, and check collection pruning
against the unpruned scan at k=4.  The stateless collection filter, the
bit presolve, build_g's conflict rule, the certificate's elimination, the
scan of every view and the witness joint read off the conflict vertex are
each checked against the routine they replaced, kept here as the
reference, and the mod-2 certificate against ranks over Q.  A region is
settled when it is built; a test that reads the dict rows of a region the
bits pinned builds them itself.
"""

import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzfc import simplex, viability, viewsets
from byzfc.examples_lib import random_function, random_pmf
from byzfc.polytope import ChannelTables
from byzfc.probability import JointPmf, derive_seed, zero_mass
from byzfc.simplex import (LPError, Tableau, full_rank_mod_2, positive_coordinates,
                           unique_point)
from byzfc.structures import AdversaryStructure, nonintersecting_collections
from byzfc.viability import (GBuildConflict, _f_at, _needs_solving, _Region,
                             _scan_collection, build_g, check_viability)
from byzfc.viewsets import ViewSetHandle, _distance_exact, induce_view

from test_acceptance import t1_instance
from test_viewsets import random_channel

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

from workloads import witness_digest  # noqa: E402


def _rows(region: _Region) -> _Region:
    """The region with its dict rows, built here for a region the bits pinned."""
    if "A" not in vars(region):
        region._build_rows()
    return region


def _compare_starts(region: _Region, rng: np.random.Generator, objectives: int = 3) -> None:
    start = _identity_start(_rows(region))
    crashed = Tableau(region.A, region.b, len(start), start=start)
    assert crashed.solution() == start
    coords = range(len(region.alive_vars))
    phase1 = Tableau(region.A, region.b, len(start))
    assert positive_coordinates(crashed, coords) == positive_coordinates(phase1, coords)
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


def distance_queries(p: JointPmf) -> list[tuple[ViewSetHandle, JointPmf]]:
    """(handle, query) pairs for the exact view-distance LP on the worked
    example's law p: four adversary sets against p itself, random laws and
    views p induces through random exact channels."""
    queries = [p]
    for seed in range(4):
        queries.append(random_pmf(tuple(a.size for a in p.axes),
                                  seed=100 + seed, zero_frac=0.3, max_weight=5))
        aset = (0,) if seed % 2 else (1, 2)
        axes = tuple(p.axes[c] for c in aset)
        queries.append(induce_view(p, aset, random_channel(axes, seed=seed, small=True)))
    handles = [ViewSetHandle(p, frozenset(aset)) for aset in ({0}, {1}, {1, 2}, {0, 2})]
    return [(h, JointPmf(p.axes, q.mass)) for h in handles for q in queries]


def test_exact_distance_same_without_the_start(erasure_pmf, monkeypatch):
    cases = [(h, q, _distance_exact(h, q).lower) for h, q in distance_queries(erasure_pmf)]
    monkeypatch.setattr(viewsets, "Tableau", lambda A, b, n, start=None: Tableau(A, b, n))
    for h, q, dist in cases:
        res = _distance_exact(h, q)
        assert res.lower == res.upper == dist
        res.verify(h, q)


def test_k4_pruning_matches_the_unpruned_scan(monkeypatch):
    st_ = AdversaryStructure.threshold(4, 2)
    p = random_pmf((2, 2, 2, 2, 2), seed=5, zero_frac=0.3, max_weight=3)
    f = random_function(p, 2, seed=6)
    cols = nonintersecting_collections(st_)
    assert len(cols) == 969
    unpruned = all([_g_matches_the_grouping(p, f, col, monkeypatch) for col in cols])
    assert unpruned == check_viability(p, f, st_).viable


# -- the stateless collection filter ------------------------------------------

def _pair_cover(cols):
    """The collections the pair-cover loop solved, every solve passing: one
    is solved while some pair of its members lies in no solved sub-collection."""
    covered: dict[frozenset, list[frozenset]] = {}
    out = []
    for col in cols:
        col_set = frozenset(col)
        pairs = [frozenset(pair) for pair in combinations(col, 2)]
        if all(any(c <= col_set for c in covered.get(pair, [])) for pair in pairs):
            continue
        out.append(col)
        for pair in pairs:
            covered.setdefault(pair, []).append(col_set)
    return out


@pytest.mark.parametrize("k, s", [(3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)])
def test_filter_matches_the_pair_cover_on_thresholds(k, s):
    cols = nonintersecting_collections(AdversaryStructure.threshold(k, s))
    assert [col for col in cols if _needs_solving(col)] == _pair_cover(cols)


def test_filter_matches_the_pair_cover_on_random_structures():
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        k = int(rng.integers(3, 6))
        subsets = [frozenset(c) for r in range(1, k + 1) for c in combinations(range(k), r)]
        picked = rng.choice(len(subsets), size=int(rng.integers(2, min(len(subsets), 10) + 1)),
                            replace=False)
        st_ = AdversaryStructure(k, [frozenset()] + [subsets[i] for i in picked])
        cols = nonintersecting_collections(st_)
        assert [col for col in cols if _needs_solving(col)] == _pair_cover(cols)


# -- the row-side presolve and build_g's conflict rule ---------------------------

def _ladder():
    """(p, f, structure) for the threshold-1 pool, the 12 k=3 instances of
    the benchmark's verdict ladder and its k=4 rung."""
    for t in range(200):
        p, f = t1_instance(t)
        yield p, f, AdversaryStructure.threshold(p.k - 1, 1)
    for i in range(12):
        p = random_pmf((2, 2, 2, 2), seed=derive_seed(20261017, "p", i),
                       zero_frac=0.3, max_weight=3)
        yield (p, random_function(p, 2, seed=derive_seed(20261017, "f", i)),
               AdversaryStructure.threshold(3, 2))
    p = random_pmf((2, 2, 2, 2, 2), seed=5, zero_frac=0.3, max_weight=3)
    yield p, random_function(p, 2, seed=6), AdversaryStructure.threshold(4, 2)


def _sign_presolve(region: _Region):
    """The presolve that fixed a zero row's variables when every unfixed
    coefficient had one sign: (fixed, alive_vars, A, b), view-match rows
    in P's integer numerators."""
    rows = [row for w, off in zip(region.members, region.offsets) for row in w.sum_rows(off)]
    rhs = [Fraction(1)] * len(rows)
    placed = list(zip(region.members, region.offsets))
    for (w0, off0), (w1, off1) in zip(placed, placed[1:]):
        for v in w0.at:
            row = {**w0.view_row(v, 1, off0), **w1.view_row(v, -1, off1)}
            if row:
                rows.append(row)
                rhs.append(Fraction(0))
    fixed: set[int] = set()
    changed = True
    while changed:
        changed = False
        for row, b in zip(rows, rhs):
            if b != 0:
                continue
            alive = {v: c for v, c in row.items() if v not in fixed and c != 0}
            if alive and len({c > 0 for c in alive.values()}) == 1:
                fixed.update(alive)
                changed = True
    alive_vars = [v for v in range(region.nvar) if v not in fixed]
    index = {v: i for i, v in enumerate(alive_vars)}
    A, b_out, seen = [], [], set()
    for row, b in zip(rows, rhs):
        items = tuple(sorted((index[v], c) for v, c in row.items() if v not in fixed))
        if not items:
            if b != 0:
                raise simplex.Infeasible("presolve emptied an inconsistent row")
            continue
        if (b, items) not in seen:
            seen.add((b, items))
            A.append(dict(items))
            b_out.append(b)
    return fixed, alive_vars, A, b_out


def _bit_regions(erasure_pmf, erasure_f_uv, erasure_f_uvw, threshold_3_2, monkeypatch):
    """Every region of the ladder, then those the worked example's uv and
    uvw verdicts build, each fresh."""
    for p, _, structure in _ladder():
        for col in filter(_needs_solving, nonintersecting_collections(structure)):
            yield _Region(p, col)
    for f in (erasure_f_uv, erasure_f_uvw):
        for region in _verdict_regions(erasure_pmf, threshold_3_2, monkeypatch, f):
            yield _Region(erasure_pmf, region.collection)


def test_side_presolve_matches_the_sign_presolve(erasure_pmf, erasure_f_uv, erasure_f_uvw,
                                                 threshold_3_2, monkeypatch):
    regions = 0
    for region in _bit_regions(erasure_pmf, erasure_f_uv, erasure_f_uvw, threshold_3_2,
                               monkeypatch):
        _rows(region)
        assert (region.fixed, region.alive_vars, region.A, region.b) == _sign_presolve(region)
        regions += 1
    # the ladder's regions, then uv's 22 and the 3 uvw builds up to its witness
    assert regions == 200 + 12 * 22 + 115 + 22 + 3


def _g_matches_the_grouping(p, f, col, monkeypatch) -> bool:
    """Check build_g on one collection against the f-value grouping loop it
    replaced, which raised when one view's explanations held two values.
    Both see one region; returns whether the collection is conflict-free."""
    region = _Region(p, col)
    table, mask, grouped = f.table.copy(), np.zeros(f.table.shape, dtype=bool), True
    for v in region.members[0].at:
        values = {_f_at(f, v, region.members[m].coords, tx) for m, tx in region.explanations(v)}
        grouped = grouped and len(values) < 2
        if values:
            table[v], mask[v] = min(values), True
    clean = _scan_collection(region, f) is None
    assert clean == grouped
    with monkeypatch.context() as m:
        m.setattr(viability, "_Region", lambda *args: region)
        if not clean:
            with pytest.raises(GBuildConflict):
                build_g(p, f, col)
            return False
        g = build_g(p, f, col)
    assert np.array_equal(g.table, table) and np.array_equal(g.defined_mask, mask)
    return True


def _scan_every_view(region: _Region, f):
    """The scan without the shortcut for regions pinned to the identity: the
    explanations of every view, grouped by member, first f-conflict or None."""
    for v in region.members[0].at:
        expl = region.explanations(v)
        if len(expl) < 2:
            continue
        by_member: dict[int, list] = {}
        for m, tx in expl:
            by_member.setdefault(m, []).append((tx, _f_at(f, v, region.members[m].coords, tx)))
        members = sorted(by_member)
        for ai in range(len(members)):
            for bi in range(ai + 1, len(members)):
                ma, mb = members[ai], members[bi]
                for tx_a, fa in by_member[ma]:
                    for tx_b, fb in by_member[mb]:
                        if fa != fb:
                            return (ma, tx_a, mb, tx_b, v)
    return None


def test_the_pinned_shortcut_matches_the_full_scan(erasure_pmf, erasure_f_uv, erasure_f_uvw,
                                                   threshold_3_2):
    # every region of the ladder (the threshold-1 pool, the k=3 instances
    # and the k=4 rung) and of the worked example
    instances = [*_ladder(), (erasure_pmf, erasure_f_uv, threshold_3_2),
                 (erasure_pmf, erasure_f_uvw, threshold_3_2)]
    outcomes = Counter()
    for p, f, structure in instances:
        for col in filter(_needs_solving, nonintersecting_collections(structure)):
            region = _Region(p, col)
            hit = _scan_collection(region, f)
            assert hit == _scan_every_view(region, f)
            outcomes[region.pinned, hit is None] += 1
    assert outcomes[True, True] and outcomes[False, True] and outcomes[False, False], outcomes
    assert not outcomes[True, False]


def test_build_g_conflicts_iff_the_scan_hits(monkeypatch):
    # the k=4 rung's 969 collections run in test_k4_pruning_matches_the_unpruned_scan
    outcomes = Counter()
    for p, f, structure in _ladder():
        if structure.k < 4:
            for col in nonintersecting_collections(structure):
                outcomes[_g_matches_the_grouping(p, f, col, monkeypatch)] += 1
    assert outcomes[True] and outcomes[False], outcomes


# -- the witness read off the conflict vertex -------------------------------------

def _channel_witness(region: _Region, v, a, b) -> tuple[JointPmf, tuple[int, ...]]:
    """The witness joint and point built from the conflict vertex's member
    channels and the view member 0's channel induces, the construction that
    reading them off the vertex replaced."""
    p, members = region.p, region.members
    var_a, var_b = (region.var(m, tx, tuple(v[c] for c in members[m].coords))
                    for m, tx in (a, b))
    sol = region.conflict_vertex(var_a, var_b)
    chans = [w.channel(sol, off) for w, off in zip(members, region.offsets)]
    view = induce_view(p, region.collection[0], chans[0])
    joint_axes = tuple(p.axes) + tuple(p.axes[c] for w in members for c in w.coords)
    mass = zero_mass(tuple(ax.size for ax in joint_axes))

    def carried(w, chan, vp):
        ux = tuple(vp[c] for c in w.coords)
        return [(tx, joint_num) for tx, _, num in w.at[vp]
                if (joint_num := num * chan.rows[tx + ux]) > 0]

    for vp in members[0].at:
        pv = view.mass[vp]
        if pv == 0:
            continue
        posts = [[(tx, joint_num / (region.den * pv)) for tx, joint_num in carried(w, chan, vp)]
                 for w, chan in zip(members, chans)]
        for combo in product(*posts):
            weight, idx = pv, list(vp)
            for tx, pr in combo:
                weight *= pr
                idx.extend(tx)
            mass[tuple(idx)] = mass[tuple(idx)] + weight
    point = list(v)
    for m, (w, chan) in enumerate(zip(members, chans)):
        point.extend(a[1] if m == a[0] else b[1] if m == b[0] else carried(w, chan, v)[0][0])
    return JointPmf(joint_axes, mass), tuple(point)


def test_the_vertex_witness_matches_the_channel_construction(monkeypatch, erasure_pmf,
                                                             erasure_f_uvw, threshold_3_2):
    materialize = viability._materialize_witness
    checked = []

    def compared(region, f, v, a, b):
        witness = materialize(region, f, v, a, b)
        joint, point = _channel_witness(region, v, a, b)
        assert witness.joint == joint and witness.point == point
        assert (witness_digest(witness)
                == witness_digest(replace(witness, joint=joint, point=point)))
        checked.append(witness)
        return witness

    monkeypatch.setattr(viability, "_materialize_witness", compared)
    for p, f, structure in [*_ladder(), (erasure_pmf, erasure_f_uvw, threshold_3_2)]:
        check_viability(p, f, structure)
    # the ladder's 19 refuted instances, then the worked example's uvw
    assert len(checked) == 20
    assert frozenset({1, 2}) in checked[-1].collection


# -- the rank certificate ---------------------------------------------------

def _identity_start(region: _Region) -> list[Fraction]:
    identity = region.identity_solution()
    return [identity[v] for v in region.alive_vars]


def _certificate_matches_crash_start(region: _Region) -> bool:
    """Compare the region's reach with a crash-started
    ``positive_coordinates``, and say whether the certificate decided it."""
    start = _identity_start(_rows(region))
    certified = unique_point(region.A, region.b, start)
    crashed = Tableau(region.A, region.b, len(start), start=start)
    pos = positive_coordinates(crashed, range(len(start)), seeds=[start])
    assert region.reach == {region.alive_vars[i] for i in pos}
    if certified:
        assert pos == {i for i, x in enumerate(start) if x}
    return certified


def _verdict_regions(p, structure, monkeypatch, f=None) -> list[_Region]:
    """The regions ``check_viability`` builds for f, by default a constant
    function, whose verdict is then viable."""
    built = []

    class Recorded(_Region):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(viability, "_Region", Recorded)
    viable = check_viability(p, random_function(p, 1, seed=0) if f is None else f,
                             structure).viable
    assert viable or f is not None
    monkeypatch.undo()
    return built


def test_certificate_matches_the_crash_start_on_the_ladder(monkeypatch):
    outcomes = Counter()
    for t in range(200):
        p, _ = t1_instance(t)
        for col in nonintersecting_collections(AdversaryStructure.threshold(p.k - 1, 1)):
            outcomes[_certificate_matches_crash_start(_Region(p, col))] += 1
    t32 = AdversaryStructure.threshold(3, 2)
    for i in range(12):
        p = random_pmf((2, 2, 2, 2), seed=derive_seed(20261017, "p", i),
                       zero_frac=0.3, max_weight=3)
        for region in _verdict_regions(p, t32, monkeypatch):
            outcomes[_certificate_matches_crash_start(region)] += 1
    k4 = random_pmf((2, 2, 2, 2, 2), seed=5, zero_frac=0.3, max_weight=3)
    regions = _verdict_regions(k4, AdversaryStructure.threshold(4, 2), monkeypatch)
    assert len(regions) == 115
    for region in regions:
        outcomes[_certificate_matches_crash_start(region)] += 1
    assert outcomes[True] and outcomes[False], outcomes


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(2, 3), min_size=3, max_size=4),
       seed=st.integers(0, 10_000), zero_frac=st.sampled_from([0.0, 0.3, 0.5]),
       pick=st.integers(0, 10_000), s=st.integers(1, 2))
def test_certificate_matches_the_crash_start_on_generated_regions(sizes, seed, zero_frac,
                                                                  pick, s):
    if np.prod(sizes) > 18:   # keep the crash-start reference solves small
        sizes = sizes[:3]
    p = random_pmf(tuple(sizes), seed=seed, zero_frac=zero_frac, max_weight=4)
    k = p.k - 1
    cols = nonintersecting_collections(AdversaryStructure.threshold(k, min(s, k - 1)))
    if cols:
        _certificate_matches_crash_start(_Region(p, cols[pick % len(cols)]))


def _unique_point_by_least_column(A, b, x) -> bool:
    """The certificate's sparse elimination that ``unique_point`` replaced:
    each row a dict mod the prime, reduced at its least column by the pivot
    row keyed there; the same checks and the same rank."""
    n = len(x)
    xs, xm = simplex._integers(list(x))
    prime = simplex.RANK_PRIME
    pivots: dict[int, dict[int, int]] = {}
    for a, rhs in zip(A, b):
        vals, _ = simplex._integers([*a.values(), rhs])
        if sum(v * xs[j] for j, v in zip(a, vals)) != vals[-1] * xm:
            raise LPError("point violates a constraint row")
        if len(pivots) == n:
            continue
        row = {j: r for j, v in zip(a, vals) if (r := v % prime)}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], -1, prime)
                pivots[c] = {j: v * inv % prime for j, v in row.items()}
                break
            f = row[c]
            for j, v in piv.items():
                if r := (row.get(j, 0) - f * v) % prime:
                    row[j] = r
                else:
                    row.pop(j, None)
    return len(pivots) == n


def _certificate_or_error(certify, A, b, x):
    try:
        return certify(A, b, x)
    except LPError as exc:
        return type(exc)


def random_systems(seed: int, count: int):
    """(A, b, x): sparse integer or rational rows through a nonnegative
    point x, some of them dependent, some right-hand sides moved off x."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        dense = rng.integers(-3, 4, size=(m, n)) * (rng.random((m, n)) < 0.6)
        if m > 1 and rng.random() < 0.3:
            dense[-1] = dense[0] * 2 - dense[-2]    # a dependent row
        x = [int(v) for v in rng.integers(0, 3, size=n)]
        den = int(rng.integers(1, 4))
        A = [{j: Fraction(int(v), den) for j, v in enumerate(row) if v} for row in dense]
        b = [sum(v * x[j] for j, v in row.items()) for row in A]
        if rng.random() < 0.1:
            b[int(rng.integers(m))] += 1
        yield A, b, x


def test_certificate_matches_the_least_column_elimination(monkeypatch):
    outcomes = Counter()
    for p, _, structure in _ladder():
        for col in filter(_needs_solving, nonintersecting_collections(structure)):
            region = _rows(_Region(p, col))
            start = _identity_start(region)
            got = unique_point(region.A, region.b, start)
            assert got == _unique_point_by_least_column(region.A, region.b, start)
            outcomes[got] += 1
    assert outcomes[True] and outcomes[False], outcomes
    for prime in (simplex.RANK_PRIME, 2, 3):
        monkeypatch.setattr(simplex, "RANK_PRIME", prime)
        for A, b, x in random_systems(prime, 400):
            got = _certificate_or_error(unique_point, A, b, x)
            assert got == _certificate_or_error(_unique_point_by_least_column, A, b, x)
            outcomes[got] += 1
    assert outcomes[LPError], outcomes


def test_rank_deficient_mod_the_prime_is_not_certified(monkeypatch):
    # full rank over Q (determinant -2), rank 1 mod 2
    A, b, x = [{0: 1, 1: 1}, {0: 1, 1: -1}], [1, 1], [Fraction(1), Fraction(0)]
    assert unique_point(A, b, x)
    monkeypatch.setattr(simplex, "RANK_PRIME", 2)
    assert not unique_point(A, b, x)
    assert not unique_point([{0: 1, 1: 1}], [1], x)


def test_an_uncertified_region_is_solved_by_the_crash_start(monkeypatch):
    # regions certified mod the default prime but rank-deficient mod 2 get
    # the same reach and witnesses through the fallback
    p = random_pmf((2, 2, 2, 2), seed=derive_seed(20261017, "p", 0),
                   zero_frac=0.3, max_weight=3)
    certified = [region for col in nonintersecting_collections(AdversaryStructure.threshold(3, 2))
                 if (region := _Region(p, col)).pinned]
    tableaus = []

    class Counted(Tableau):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tableaus.append(self)

    monkeypatch.setattr(simplex, "RANK_PRIME", 2)
    monkeypatch.setattr(viability, "Tableau", Counted)
    demoted = 0
    for region in certified:
        fresh = _Region(p, region.collection)
        if fresh.pinned:
            continue
        demoted += 1
        assert len(tableaus) == demoted
        assert fresh.reach == region.reach
    assert demoted


def test_a_row_the_point_violates_raises():
    x = [Fraction(1), Fraction(0)]
    with pytest.raises(LPError):
        unique_point([{0: 1, 1: 1}, {0: 1, 1: -1}], [1, 0], x)
    with pytest.raises(LPError):
        unique_point([{0: Fraction(1, 3), 1: 1}], [Fraction(1, 2)], x)
    # a row after full rank is reached is still checked
    with pytest.raises(LPError):
        unique_point([{0: 1}, {1: 1}, {0: 1, 1: 1}], [1, 0, 2], x)


def test_a_region_the_identity_violates_raises(monkeypatch):
    # a region the bits leave open and the prime pins, so construction
    # checks the identity against its dict rows
    p, _ = t1_instance(0)
    col = next(col for col in nonintersecting_collections(AdversaryStructure.threshold(2, 1))
               if "A" in vars(r := _Region(p, col)) and r.pinned)
    build = _Region._build_rows

    def violated(self):
        build(self)
        self.b[0] += 1

    monkeypatch.setattr(_Region, "_build_rows", violated)
    with pytest.raises(LPError):
        _Region(p, col)


# -- the mod-2 certificate on bit rows -----------------------------------------

def test_bit_pinned_regions_are_pinned_mod_the_prime(erasure_pmf, erasure_f_uv, erasure_f_uvw,
                                                     threshold_3_2, monkeypatch):
    # the bits pin a region iff its dict rows have full column rank mod 2;
    # a pinned region's rows hold the identity and no other point
    outcomes = Counter()
    for region in _bit_regions(erasure_pmf, erasure_f_uv, erasure_f_uvw, threshold_3_2,
                               monkeypatch):
        bits = "A" not in vars(region)
        assert region.pinned or not bits
        start = _identity_start(_rows(region))
        with monkeypatch.context() as m:
            m.setattr(simplex, "RANK_PRIME", 2)
            assert unique_point(region.A, region.b, start) == bits
        if bits:
            assert unique_point(region.A, region.b, start)
            crashed = Tableau(region.A, region.b, len(start), start=start)
            pos = positive_coordinates(crashed, range(len(start)), seeds=[start])
            assert pos == {i for i, x in enumerate(start) if x}
        outcomes[bits] += 1
    assert outcomes[True] and outcomes[False], outcomes


def test_a_presolve_that_fixes_the_identity_raises(monkeypatch):
    p, _ = t1_instance(0)
    col = nonintersecting_collections(AdversaryStructure.threshold(2, 1))[0]
    monkeypatch.setattr(_Region, "_presolve", staticmethod(lambda matches: -1))
    with pytest.raises(LPError, match="presolve fixed"):
        _Region(p, col)


def _rank(rows: list[list[int]], mod_2: bool) -> int:
    """Rank by Gauss-Jordan elimination, mod 2 or over Q in Fractions."""
    rows = [[v % 2 if mod_2 else Fraction(v) for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                f = 1 if mod_2 else row[c] / top[c]
                rows[i] = [(a - f * b) % 2 if mod_2 else a - f * b for a, b in zip(row, top)]
        rank += 1
    return rank


@st.composite
def sparse_systems(draw):
    """(rows, cols): integer rows with entries -3..3, most of them zero,
    some sums or differences of two others, and a column mask."""
    n = draw(st.integers(1, 7))
    entry = st.sampled_from([0, 0, 0, -3, -2, -1, 1, 2, 3])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=9))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        sign = draw(st.sampled_from([1, -1]))
        rows.insert(draw(st.integers(0, len(rows))),
                    [x + sign * y for x, y in zip(rows[a], rows[b])])
    cols = draw(st.integers(1, 2**n - 1))
    return rows, cols


@settings(max_examples=300, deadline=None)
@given(system=sparse_systems())
def test_full_rank_of_the_odd_entries_is_full_rank_over_q(system):
    rows, cols = system
    on = [j for j in range(len(rows[0])) if cols >> j & 1]
    sub = [[row[j] for j in on] for row in rows]
    odd = [sum(1 << j for j, v in enumerate(row) if v % 2) for row in rows]
    rank_2 = _rank(sub, mod_2=True)
    assert full_rank_mod_2(odd, cols) == (rank_2 == len(on))
    assert rank_2 <= _rank(sub, mod_2=False)


# -- shared channel tables ------------------------------------------------------

def test_shared_channel_tables_build_the_same_regions():
    p = random_pmf((2, 2, 2, 2, 2), seed=5, zero_frac=0.3, max_weight=3)
    tables = ChannelTables(p)
    for col in nonintersecting_collections(AdversaryStructure.threshold(4, 2)):
        fresh, shared = _rows(_Region(p, col)), _rows(_Region(p, col, tables))
        assert shared.A == fresh.A and shared.b == fresh.b
        assert shared.alive_vars == fresh.alive_vars and shared.fixed == fresh.fixed
        for v in fresh.members[0].at:
            assert shared.explanations(v) == fresh.explanations(v)
    assert len(tables) == 10
