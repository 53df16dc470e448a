"""Verdict shortcuts agree with the routines they replaced.

The exact checker decides a region whose only point is the identity
channel with a certificate, a rank mod 2 on bit rows or else an integer
dual on the view-match rows with the identity's entries eliminated, and
then scans none of its views; it starts every other region tableau at the
identity-channel point instead of running phase 1.  These tests compare
the certificates with the crash start and the crash start with phase 1
on the regions the checker builds, compare the two starts on the exact
view-distance LP, and check collection pruning against the unpruned scan
at k=4.  The stateless collection filter, the bit presolve, the dict rows
read off the tables, build_g's conflict rule, the one walk that decides a
collection and builds its repaired table (against the verdict's scan, the
scan of every view and build_g's table loop) and the witness joint read
off the conflict vertex are each checked against the routine they
replaced, kept here as the reference; the mod-2 certificate is checked
against ranks over Q, and the reduced rows against a loop that eliminates
the identity's entries from the dict rows.  A region is settled when it
is built; a test that reads the dict rows of a region a certificate
pinned builds them itself.
"""

import sys
import warnings
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
from byzfc.probability import JointPmf, derive_seed, zero_mass
from byzfc.simplex import (LPError, Tableau, certifies, dual_certificate, full_rank_mod_2,
                           positive_coordinates)
from byzfc.structures import AdversaryStructure, nonintersecting_collections
from byzfc.viability import (GBuildConflict, Regions, _f_at, _needs_solving, _Region,
                             _repaired, build_g, check_viability)
from byzfc.viewsets import ViewSetHandle, _distance_exact, induce_view

from test_acceptance import t1_instance
from test_viewsets import random_channel

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

from workloads import DEFAULT_SEED, VerdictRandom, load_expected, witness_digest  # noqa: E402


def _rows(region: _Region) -> _Region:
    """The region with its dict rows, built here for a region a certificate pinned."""
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
            _compare_starts(Regions(p)[col], rng)
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
    _compare_starts(Regions(p)[cols[pick % len(cols)]], np.random.default_rng(seed))


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
            yield Regions(p)[col]
    for f in (erasure_f_uv, erasure_f_uvw):
        for region in _verdict_regions(erasure_pmf, threshold_3_2, monkeypatch, f):
            yield Regions(erasure_pmf)[region.collection]


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


def _merged_rows(region: _Region):
    """The row builder that merged two ``view_row`` dicts per view:
    (fixed, alive_vars, A, b) over the region's presolve."""
    fixed = {v for v in range(region.nvar) if region._fixed_bits >> v & 1}
    alive_vars = [v for v in range(region.nvar) if v not in fixed]
    index = [-1] * region.nvar
    for i, v in enumerate(alive_vars):
        index[v] = i
    placed = list(zip(region.members, region.offsets))
    sums = [row for w, off in placed for row in w.sum_rows(off)]
    matches = [{**w0.view_row(v, 1, off0), **w1.view_row(v, -1, off1)}
               for (w0, off0), (w1, off1) in zip(placed, placed[1:]) for v in w0.at]
    A, b, seen = [], [], set()
    for i, row in enumerate(sums + matches):
        items = tuple((j, c) for v, c in row.items() if (j := index[v]) >= 0)
        rhs = 1 if i < len(sums) else 0
        if items and (rhs, items) not in seen:
            seen.add((rhs, items))
            A.append(dict(items))
            b.append(rhs)
    return fixed, alive_vars, A, b


def test_rows_read_off_the_tables_match_the_merged_view_rows(erasure_pmf, erasure_f_uv,
                                                             threshold_3_2, monkeypatch):
    # every region the bits leave open in the benchmark's seed-1
    # verdict-random pass and in the worked example's uv verdict
    built = []

    class Recorded(_Region):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(viability, "_Region", Recorded)
    wl = VerdictRandom(DEFAULT_SEED, load_expected())
    wl.setup()
    for op in wl.pass_ops(0):
        assert op.check(op.run()) is None
    check_viability(erasure_pmf, erasure_f_uv, threshold_3_2)
    opened = [_rows(region) for region in built if region._route != "bits"]
    for region in opened:
        assert (region.fixed, region.alive_vars, region.A, region.b) == _merged_rows(region)
    assert len(opened) == 90 + 33 + 13


def _explanations(region: _Region, v) -> list[tuple[int, tuple[int, ...]]]:
    """Scenario truths (member, tx) that can carry positive mass at view v."""
    return [(m, tx) for m, (w, off) in enumerate(zip(region.members, region.offsets))
            for tx, var, _ in w.at[v] if off + var in region.reach]


def _scan_every_view(region: _Region, f):
    """The scan without the shortcut for regions pinned to the identity: the
    explanations of every view, grouped by member, first f-conflict or None."""
    for v in region.members[0].at:
        expl = _explanations(region, v)
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


def _scan_collection(region: _Region, f):
    """The verdict's scan before one walk decided a collection: None at once
    for a region pinned to the identity, else the first f-conflict
    (ma, tx_a, mb, tx_b, v) or None."""
    return None if region.pinned else _scan_every_view(region, f)


def _reference_repair(region: _Region, f):
    """What the verdict's scan and build_g's second view loop gave: the
    conflict as GBuildConflict's (view, details), or else (table, mask)."""
    hit = _scan_collection(region, f)
    if hit is not None:
        ma, tx_a, mb, tx_b, v = hit
        fa, fb = (f.codomain.symbols[_f_at(f, v, region.members[m].coords, tx)]
                  for m, tx in ((ma, tx_a), (mb, tx_b)))
        return v, (((ma, tx_a), fa), ((mb, tx_b), fb))
    table, mask = f.table.copy(), np.zeros(f.table.shape, dtype=bool)
    for v in region.members[0].at:
        expl = _explanations(region, v)
        if expl:
            m, tx = expl[0]
            table[v], mask[v] = _f_at(f, v, region.members[m].coords, tx), True
    return table, mask


def _repair(region: _Region, f):
    """The one walk's outcome in ``_reference_repair``'s form."""
    try:
        return _repaired(region, f)
    except GBuildConflict as conflict:
        return conflict.view, conflict.details


def _same_repair(got, want) -> bool:
    if isinstance(want[0], np.ndarray):
        return (isinstance(got[0], np.ndarray) and np.array_equal(got[0], want[0])
                and np.array_equal(got[1], want[1]))
    return got == want


def _g_matches_the_grouping(p, f, col, monkeypatch) -> bool:
    """Check build_g on one collection against the f-value grouping loop that
    raised when one view's explanations held two values, and the one walk
    against the scan and the table loop it replaced.  All see one region;
    returns whether the collection is conflict-free."""
    region = Regions(p)[col]
    table, mask, grouped = f.table.copy(), np.zeros(f.table.shape, dtype=bool), True
    for v in region.members[0].at:
        values = {_f_at(f, v, region.members[m].coords, tx) for m, tx in _explanations(region, v)}
        grouped = grouped and len(values) < 2
        if values:
            table[v], mask[v] = min(values), True
    clean = _scan_collection(region, f) is None
    assert clean == grouped
    assert _same_repair(_repair(region, f), _reference_repair(region, f))
    with monkeypatch.context() as m:
        m.setattr(viability, "_Region", lambda *args: region)
        if not clean:
            with pytest.raises(GBuildConflict):
                build_g(p, f, col)
            return False
        g = build_g(p, f, col)
    assert np.array_equal(g.table, table) and np.array_equal(g.defined_mask, mask)
    return True


def test_the_pinned_shortcut_matches_the_full_scan(erasure_pmf, erasure_f_uv, erasure_f_uvw,
                                                   threshold_3_2):
    # every region of the ladder (the threshold-1 pool, the k=3 instances
    # and the k=4 rung) and of the worked example
    instances = [*_ladder(), (erasure_pmf, erasure_f_uv, threshold_3_2),
                 (erasure_pmf, erasure_f_uvw, threshold_3_2)]
    outcomes = Counter()
    for p, f, structure in instances:
        for col in filter(_needs_solving, nonintersecting_collections(structure)):
            region = Regions(p)[col]
            hit = _scan_collection(region, f)
            assert hit == _scan_every_view(region, f)
            assert _same_repair(_repair(region, f), _reference_repair(region, f))
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


@pytest.mark.parametrize("fname", ["erasure_f_uv", "erasure_f_uvw"])
def test_build_g_on_the_worked_example_matches_the_scan(fname, request, erasure_pmf,
                                                        threshold_3_2, monkeypatch):
    f = request.getfixturevalue(fname)
    outcomes = Counter(_g_matches_the_grouping(erasure_pmf, f, col, monkeypatch)
                       for col in nonintersecting_collections(threshold_3_2))
    assert sum(outcomes.values()) == 45
    assert not outcomes[False] if fname == "erasure_f_uv" else outcomes[False], outcomes


def test_build_g_on_a_bit_pinned_region_reads_no_view_list(erasure_pmf, erasure_f_uv,
                                                          threshold_3_2):
    pinned = 0
    for col in nonintersecting_collections(threshold_3_2):
        regions = Regions(erasure_pmf)
        region = regions[col]
        if region._route == "bits":
            g = build_g(erasure_pmf, erasure_f_uv, col, regions=regions)
            assert not any("at" in vars(w) for w in regions.channels.values())
            assert np.array_equal(g.table, erasure_f_uv.table)
            assert np.array_equal(g.defined_mask, erasure_pmf.mass > 0)
            pinned += 1
    assert pinned == 16


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

    def compared(region, conflict):
        witness = materialize(region, conflict)
        (a, _), (b, _) = conflict.details
        joint, point = _channel_witness(region, conflict.view, a, b)
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


# -- the dual certificate ---------------------------------------------------

def _identity_start(region: _Region) -> list[int]:
    ident = sum(w.identity_bits << off for w, off in zip(region.members, region.offsets))
    return [ident >> v & 1 for v in region.alive_vars]


def _region_reduced_rows(region: _Region) -> np.ndarray:
    """The reduced rows the region's construction hands the dual."""
    placed = list(zip(region.members, region.offsets))
    ident = sum(w.identity_bits << off for w, off in placed)
    free = ((1 << region.nvar) - 1) & ~region._fixed_bits & ~ident
    return region._reduced_rows(list(zip(placed, placed[1:])), free)


def _loop_reduced_rows(region: _Region) -> set[tuple[int, ...]]:
    """The view-match dict rows with each identity column eliminated, one
    entry at a time, through the row-sum row that holds it, on the alive
    columns off the identity: the rows left nonzero, as tuples.  A row's
    constant must be its right-hand side, 0, or the identity violates it."""
    start = _identity_start(_rows(region))
    sums = {j: row for row, rhs in zip(region.A, region.b) if rhs == 1 for j in row if start[j]}
    assert len(sums) == sum(start)
    out = set()
    for row, rhs in zip(region.A, region.b):
        if rhs == 1:
            continue
        reduced, const = {}, 0
        for j, v in row.items():
            if start[j]:
                # x_j = 1 - the sum of its row's other entries
                const += v
                for i in sums[j]:
                    if i != j:
                        reduced[i] = reduced.get(i, 0) - v
            else:
                reduced[j] = reduced.get(j, 0) + v
        assert const == rhs == 0
        vec = tuple(reduced.get(j, 0) for j, on in enumerate(start) if not on)
        if any(vec):
            out.add(vec)
    return out


def _certificate_matches_crash_start(region: _Region) -> bool:
    """Compare the region's reach with a crash-started
    ``positive_coordinates`` run on it anyway and its reduced rows with the
    loop's, and say whether the dual decided it."""
    start = _identity_start(_rows(region))
    crashed = Tableau(region.A, region.b, len(start), start=start)
    pos = positive_coordinates(crashed, range(len(start)), seeds=[start])
    assert region.reach == {region.alive_vars[i] for i in pos}
    M = _region_reduced_rows(region)
    assert set(map(tuple, M.tolist())) == _loop_reduced_rows(region)
    if region._route == "dual":
        assert pos == {i for i, x in enumerate(start) if x}
        w = dual_certificate(M)
        assert all(v > 0 for v in np.array(w.tolist(), dtype=object) @ M.astype(object))
    return region._route == "dual"


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
            outcomes[_certificate_matches_crash_start(Regions(p)[col])] += 1
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
        _certificate_matches_crash_start(Regions(p)[cols[pick % len(cols)]])


def test_certificate_matches_the_crash_start_on_the_benchmark_passes(erasure_pmf, erasure_f_uv,
                                                                   erasure_f_uvw, threshold_3_2,
                                                                   monkeypatch):
    # every region the bits leave open in the seed-1 verdict-random pass and
    # in the worked example's verdicts
    built = []

    class Recorded(_Region):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(viability, "_Region", Recorded)
    wl = VerdictRandom(DEFAULT_SEED, load_expected())
    wl.setup()
    for op in wl.pass_ops(0):
        assert op.check(op.run()) is None
    for f in (erasure_f_uv, erasure_f_uvw):
        check_viability(erasure_pmf, f, threshold_3_2)
    outcomes = Counter(_certificate_matches_crash_start(region)
                       for region in built if region._route != "bits")
    assert outcomes == {True: 119 + 4, False: 4 + 10}, outcomes


def random_matrices(seed: int, count: int):
    """Integer matrices with entries -3..3, most of them zero, some with a
    row that is a sum of two others, some with a column of one sign."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        M = rng.integers(-3, 4, size=(m, n)) * (rng.random((m, n)) < 0.6)
        if m > 2 and rng.random() < 0.3:
            M[-1] = M[0] + M[1]
        if rng.random() < 0.5:
            M[:, 0] = np.abs(M[:, 0])
        yield M


def _only_zero(M: np.ndarray) -> bool:
    """Whether M x = 0, x >= 0 leaves only x = 0, by the tableau: the sum
    of x, maximized over M x = 0 and sum x <= 1, is 0."""
    m, n = M.shape
    rows = [{j: int(v) for j, v in enumerate(row) if v} for row in M.tolist()]
    t = Tableau([row for row in rows if row] + [{**{j: 1 for j in range(n)}, n: 1}],
                [0] * sum(map(bool, rows)) + [1], n + 1)
    return t.maximize([1] * n) == 0


def planted_null_matrices(seed: int, count: int):
    """``random_matrices`` with the first column set so that M x = 0 at an
    integer x >= 0 with x_0 = 1: no w makes every w.M_j positive."""
    rng = np.random.default_rng(seed)
    for M in random_matrices(seed, count):
        x = rng.integers(0, 4, M.shape[1])
        M[:, 0] = -(M[:, 1:] @ x[1:])
        yield M


def test_a_dual_certificate_pins_the_zero_point():
    # a certificate, exactly checked, exists iff x = 0 is the only point
    # (Gordan), and the search finds one whenever the tableau says so
    outcomes = Counter()
    for M in random_matrices(7, 400):
        w = dual_certificate(M)
        if w is not None:
            assert len(w) == len(M) and all(v > 0 for v in np.array(w.tolist(), dtype=object) @ M)
        assert (w is not None) == _only_zero(M)
        outcomes[w is not None] += 1
    # systems certified and systems with a nonzero point both occur
    assert outcomes[True] and outcomes[False], outcomes
    # a planted nonnegative null vector is refused without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in planted_null_matrices(11, 200):
            assert dual_certificate(M) is None and not _only_zero(M)


def test_the_search_stops_within_its_solve_bound(monkeypatch):
    # a float solve that never converges, on systems that have certificates:
    # the block exchanges stall, Lawson-Hanson never reaches an optimum, and
    # only the bound of SOLVES_PER_COLUMN solves per column stops the search
    systems = [M for M in random_matrices(7, 400)
               if M.shape[1] > 1 and dual_certificate(M) is not None][:20]
    assert len(systems) == 20
    calls = []

    def stuck(G, t):
        calls.append(len(G))
        return -np.ones(len(G))

    monkeypatch.setattr(simplex, "_solve", stuck)
    for M in systems:
        calls.clear()
        assert dual_certificate(M) is None
        assert M.shape[1] < len(calls) <= simplex.SOLVES_PER_COLUMN * M.shape[1]


def test_a_flipped_or_zeroed_certificate_is_refused():
    # on the identity each entry alone makes its column positive
    eye = np.eye(4, dtype=np.int64)
    assert certifies(eye, np.ones(4, dtype=np.int64))
    for i in range(4):
        for v in (-1, 0):
            w = np.ones(4, dtype=np.int64)
            w[i] = v
            assert not certifies(eye, w)
    # on the regions' reduced rows the check agrees with Python ints, and
    # refuses some of the flipped and zeroed certificates
    outcomes = Counter()
    for p, _, structure in _ladder():
        if structure.k != 3:
            continue
        for col in filter(_needs_solving, nonintersecting_collections(structure)):
            region = Regions(p)[col]
            if region._route != "dual":
                continue
            M = _region_reduced_rows(region)
            w = dual_certificate(M)
            for i in range(len(w)):
                for v in (-w[i], 0):
                    bad = w.copy()
                    bad[i] = v
                    exact = all(z > 0 for z in np.array(bad.tolist(), dtype=object) @ M)
                    assert certifies(M, bad) == exact
                    outcomes[exact] += 1
    assert outcomes[True] and outcomes[False], outcomes
    # past int64 the check runs in Python ints
    big = np.array([[2**62, -1], [2**62, 3]], dtype=object)
    assert certifies(big, np.array([1, 1])) and not certifies(big, np.array([1, -1]))


def test_degenerate_reduced_rows_raise_no_warning():
    # pyproject.toml turns a RuntimeWarning into an error
    assert dual_certificate(np.zeros((0, 3), dtype=np.int64)) is None
    # with no columns any w holds
    assert dual_certificate(np.zeros((3, 0), dtype=np.int64)).tolist() == [0, 0, 0]
    assert dual_certificate(np.zeros((0, 0), dtype=np.int64)).tolist() == []
    # numerators past float range, and columns whose Gram overflows floats
    assert dual_certificate(np.array([[10**400, 1]], dtype=object)) is None
    huge = np.array([[10**200, 1], [1, 10**200]], dtype=object)
    assert dual_certificate(huge) is None
    assert dual_certificate(np.zeros((2, 2), dtype=np.int64)) is None
    assert dual_certificate(np.array([[2**62, 1], [1, 2**62]])) is not None


def test_an_uncertified_region_is_solved_by_the_crash_start(monkeypatch):
    # a float solve that returns NaN, inf or zeros ends the dual's search
    # without a certificate (not finite, or l = 0 with no sign wrong) and sends
    # each region the dual pinned to the crash-started tableau, with the
    # same reach and verdict
    p = random_pmf((2, 2, 2, 2), seed=derive_seed(20261017, "p", 0),
                   zero_frac=0.3, max_weight=3)
    f = random_function(p, 2, seed=derive_seed(20261017, "f", 0))
    t32 = AdversaryStructure.threshold(3, 2)
    certified = [region for col in nonintersecting_collections(t32)
                 if (region := Regions(p)[col])._route == "dual"]
    verdict = check_viability(p, f, t32)
    assert certified
    tableaus = []

    class Counted(Tableau):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tableaus.append(self)

    monkeypatch.setattr(viability, "Tableau", Counted)
    for candidate in (np.nan, np.inf, 0.0):
        tableaus.clear()
        with monkeypatch.context() as m:
            m.setattr(simplex, "_solve", lambda G, t, c=candidate: np.full(len(G), c))
            for demoted, region in enumerate(certified, 1):
                fresh = Regions(p)[region.collection]
                assert fresh._route == "tableau" and not fresh.pinned
                assert len(tableaus) == demoted
                assert fresh.reach == region.reach
            assert check_viability(p, f, t32) == verdict


def test_rank_deficient_mod_2_is_certified_by_the_dual():
    # full rank over Q (determinant -2) but rank 1 mod 2: w = (1, 0) pins
    # both columns; the first row alone pins them too, the second alone
    # neither
    M = np.array([[1, 1], [1, -1]])
    assert not full_rank_mod_2([3, 3], 3)
    assert certifies(M, dual_certificate(M))
    assert dual_certificate(M[:1]) is not None and dual_certificate(M[1:]) is None


def test_a_row_the_point_violates_raises():
    # each view-match row's constant, the identity's coefficient on one side
    # less the other's, must be zero, in the first pair's rows as in the
    # last's; a float is not truncated to an int
    p = random_pmf((2, 2, 2, 2), seed=derive_seed(20261017, "p", 0),
                   zero_frac=0.3, max_weight=3)
    col = next(col for col in nonintersecting_collections(AdversaryStructure.threshold(3, 2))
               if len(col) == 3)
    region = Regions(p)[col]
    placed = list(zip(region.members, region.offsets))
    pairs = list(zip(placed, placed[1:]))
    assert len(pairs) == 2
    for pair in pairs:
        for w, _ in pair:
            rows, const = w.reduced
            bad = const.copy()
            bad[-1] += 1
            w.reduced = rows, bad
            with pytest.raises(LPError, match="identity violates"):
                region._reduced_rows(pairs, (1 << region.nvar) - 1)
            w.reduced = rows, const
    with pytest.raises(LPError, match="integers"):
        dual_certificate(np.array([[1.0, 2.0]]))


def test_a_region_the_identity_violates_raises():
    # a region the bits leave open and the dual pins: construction checks
    # each reduced row's constant, the identity's coefficient on both sides
    p, _ = t1_instance(0)
    col = next(col for col in nonintersecting_collections(AdversaryStructure.threshold(2, 1))
               if Regions(p)[col]._route == "dual")
    for member in (0, -1):
        regions = Regions(p)
        w = regions.channel(tuple(sorted(col[member])))
        rows, const = w.reduced
        const = const.copy()
        const[np.flatnonzero(const)[0]] += 1
        w.reduced = rows, const
        with pytest.raises(LPError, match="identity violates"):
            regions[col]


# -- the mod-2 certificate on bit rows -----------------------------------------

def _rank_of_odd_entries(A: list[dict[int, int]]) -> int:
    """The rank mod 2 of dict rows, by a basis of bit rows that each reduce
    a row at their highest bit."""
    basis: list[int] = []
    for row in A:
        bits = sum(1 << j for j, v in row.items() if v % 2)
        for b in basis:
            bits = min(bits, bits ^ b)
        if bits:
            basis = sorted(basis + [bits], reverse=True)
    return len(basis)


def test_bit_pinned_regions_have_full_rank_mod_2(erasure_pmf, erasure_f_uv, erasure_f_uvw,
                                                 threshold_3_2, monkeypatch):
    # the bits pin a region iff its dict rows have full column rank mod 2;
    # a region they pin holds the identity and no other point
    outcomes = Counter()
    for region in _bit_regions(erasure_pmf, erasure_f_uv, erasure_f_uvw, threshold_3_2,
                               monkeypatch):
        bits = region._route == "bits"
        assert region.pinned or not bits
        start = _identity_start(_rows(region))
        assert (_rank_of_odd_entries(region.A) == len(start)) == bits
        if bits:
            # full column rank leaves the dual solvable, so it pins them too
            assert dual_certificate(_region_reduced_rows(region)) is not None
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
        Regions(p)[col]


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
    regions = Regions(p)
    for col in nonintersecting_collections(AdversaryStructure.threshold(4, 2)):
        fresh, shared = _rows(Regions(p)[col]), _rows(regions[col])
        assert shared.A == fresh.A and shared.b == fresh.b
        assert shared.alive_vars == fresh.alive_vars and shared.fixed == fresh.fixed
        for v in fresh.members[0].at:
            assert _explanations(shared, v) == _explanations(fresh, v)
    assert len(regions) == 969 and len(regions.channels) == 10
