"""The channel-variable builder against the independent view oracle, and
against the per-view loop it replaced, kept here as the reference."""

from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest

from byzfc import polytope, viability
from byzfc.examples_lib import random_function, random_pmf
from byzfc.polytope import ChannelVars, law_ints
from byzfc.probability import Alphabet, Channel, JointPmf, ProbabilityError, derive_seed, integer_mass
from byzfc.structures import AdversaryStructure
from byzfc.viability import Regions, _Region, check_viability
from byzfc.viewsets import distance_to_viewset, induce_view

from test_acceptance import t1_instance
from test_viewsets import coefficients, random_channel


@pytest.fixture(params=["erasure", "random"])
def law(request, erasure_pmf):
    if request.param == "erasure":
        return erasure_pmf
    p = random_pmf((2, 3, 2, 2), seed=17, zero_frac=0.4)
    assert any(m == 0 for m in p.mass.reshape(-1))
    return p


def test_view_rows_match_induced_view(law, threshold_3_2):
    # evaluated at a random exact channel, each row of ``view_rows`` is den
    # times the view's mass there
    views = list(product(*(range(a.size) for a in law.axes)))
    for s in threshold_3_2.sets:
        if not s:
            continue
        coords = tuple(sorted(s))
        w = ChannelVars(law, coords)
        axes = tuple(law.axes[c] for c in coords)
        for seed in range(3):
            chan = random_channel(axes, seed=seed, small=True)
            x = [Fraction(0)] * w.size
            for (tx, ux), var in w.var.items():
                x[var] = chan.rows[tx + ux]
            view = induce_view(law, s, chan)
            dense = w.view_rows.astype(object) @ np.array(x, dtype=object)
            for v, got in zip(views, dense.tolist()):
                assert got == w.den * view.mass[v]


def test_integer_view_rows_are_the_view_rows_times_the_denominator(law, threshold_3_2):
    # the rows of an exact law are ints: den times the P-valued rows, whose
    # coefficient on W(ux | tx) at v is P(v with coords <- tx)
    for s in threshold_3_2.sets:
        if not s:
            continue
        coords = tuple(sorted(s))
        w = ChannelVars(law, coords)
        assert type(w.den) is int and w.den > 0
        assert w.view_rows.dtype == np.int64 and w.view_rows.shape == (law.mass.size, w.size)
        for v, row in zip(np.ndindex(law.mass.shape), w.view_rows.tolist()):
            ux = tuple(v[c] for c in coords)
            want = [0] * w.size
            for tx in w.rows:
                full = list(v)
                for pos, c in enumerate(coords):
                    full[c] = tx[pos]
                want[w.var[(tx, ux)]] = law.mass[tuple(full)] * w.den
            assert row == want


def test_float_view_rows_are_the_float_view(law, threshold_3_2):
    # the float LP's view rows, exact rows over den divided in float, hold
    # the law's float mass, so they evaluate at a channel's float rows to
    # the view, up to rounding
    pf = law.mass.astype(np.float64)
    views = list(product(*(range(a.size) for a in law.axes)))
    for s in threshold_3_2.sets:
        if not s:
            continue
        coords = tuple(sorted(s))
        w = Regions(law).channel(coords)
        A = w._float_lp[0]
        axes = tuple(law.axes[c] for c in coords)
        chan = random_channel(axes, seed=7, small=True)
        x = np.zeros(w.size)
        for (tx, ux), var in w.var.items():
            x[var] = float(chan.rows[tx + ux])
        view = induce_view(law, s, chan)
        for v, row in zip(views, A[:, :w.size]):
            want = np.zeros(w.size)
            for tx in w.rows:
                full = list(v)
                for pos, c in enumerate(coords):
                    full[c] = tx[pos]
                want[w.var[(tx, tuple(v[c] for c in coords))]] = pf[tuple(full)]
            assert np.array_equal(row, want)
            assert float(row @ x) == pytest.approx(float(view.mass[v]), abs=1e-12)


def test_tables_need_an_exact_law(law):
    # a table's coefficients are the law's integer numerators; a law with
    # float mass is refused before a table can read it
    table = Regions(law).channel((0,))
    assert all(type(num) is int for num in table.view_rows.reshape(-1).tolist())
    with pytest.raises(ProbabilityError, match="a pmf must be exact"):
        JointPmf(law.axes, law.mass.astype(np.float64))


def test_identity_point_is_identity_channel(law, threshold_3_2):
    for s in threshold_3_2.sets:
        if not s:
            continue
        w = ChannelVars(law, tuple(sorted(s)))
        x = [w.identity_bits >> var & 1 for var in range(w.size)]
        assert set(x) == {0, 1} and all(type(v) is int for v in x)
        for tx in w.rows:
            assert sum(x[w.var[(tx, ux)]] for ux in w.outs) == 1
        ident = Channel.identity(tuple(law.axes[c] for c in w.coords))
        assert (w.channel(x).rows == ident.rows).all()


@pytest.mark.parametrize("as_float", [False, True])
def test_rows_are_the_marginal_support(law, threshold_3_2, erasure_pmf, as_float):
    # as_float: the store's table, which the float LP reads, against the
    # float marginal
    mass = law.mass.astype(np.float64) if as_float else law.mass
    dropped = 0
    for s in threshold_3_2.sets:
        if not s:
            continue
        coords = tuple(sorted(s))
        w = Regions(law).channel(coords) if as_float else ChannelVars(law, coords)
        marg = mass.sum(axis=tuple(c for c in range(law.k) if c not in coords))
        support = [tx for tx in product(*(range(law.axes[c].size) for c in coords))
                   if marg[tx] > 0]
        assert w.rows == support
        dropped += len(w.outs) - len(w.rows)
    # the erasure law leaves inputs off its pair marginals' support
    assert dropped or law is not erasure_pmf


def _bits(variables) -> int:
    return sum(1 << var for var in variables)


def test_bit_rows_are_the_dict_rows(law, threshold_3_2):
    # a view's bits are its row's variables, its odd bits those with an odd
    # coefficient, and its integer row that row's numerators, each read off
    # P by index; the sum bits are each input's outputs and the identity's
    # bits its point
    views = list(np.ndindex(law.mass.shape))
    for s in threshold_3_2.nonempty_sets:
        w = ChannelVars(law, tuple(sorted(s)))
        assert len(w.view_bits) == len(w.odd_bits) == len(views)
        dense = np.zeros((len(views), w.size), dtype=np.int64)
        for i, (v, view, odd) in enumerate(zip(views, w.view_bits, w.odd_bits)):
            row = {var: num for _, var, num in coefficients(w, v)}
            assert view == _bits(row)
            assert odd == _bits(var for var, num in row.items() if num % 2)
            dense[i, list(row)] = list(row.values())
        assert np.array_equal(w.view_rows, dense)
        assert w.sum_bits == [_bits(w.var[(tx, ux)] for ux in w.outs) for tx in w.rows]
        assert w.identity_bits == _bits(w.var[(tx, tx)] for tx in w.rows)


def test_a_table_whose_identity_view_is_not_the_law_is_refused(law, monkeypatch):
    # the identity's view, P's numerators over den, must be P: they are
    # checked once per law, where they are computed, in the region store and
    # in a table built without them, before its view-distance LP; numerators
    # of another scale, another denominator or the law reflected on an axis
    # are refused
    nums, den = integer_mass(law.mass)
    got = law_ints(law)
    assert got[1] == den and np.array_equal(got[0], nums)
    for ints in ((nums * 2, den), (nums, den * 2), (nums[::-1], den)):
        monkeypatch.setattr(polytope, "integer_mass", lambda mass, ints=ints: ints)
        for build in (lambda: law_ints(law), lambda: Regions(law),
                      lambda: ChannelVars(law, (0,)),
                      lambda: ChannelVars(law, (0,))._exact_lp):
            with pytest.raises(ValueError, match="identity channel's view"):
                build()


@pytest.mark.parametrize("coord", [3, -1, True], ids=["side", "negative", "bool"])
@pytest.mark.parametrize("route", ["store", "distance"])
def test_a_table_refuses_a_coordinate_that_is_no_user(coord, route, erasure_pmf):
    # coordinate 3 of the erasure law is the side information, no user's,
    # and True is not read as user 1: the regions' tables and the
    # view-distance LP's are refused alike
    with pytest.raises(ProbabilityError, match="out of range"):
        if route == "store":
            Regions(erasure_pmf).channel((coord,))
        else:
            distance_to_viewset(ChannelVars(erasure_pmf, (0, coord)), erasure_pmf, 0)


def reference_channel_vars(p: JointPmf, coords: tuple[int, ...], ints=None) -> SimpleNamespace:
    """The builder that walked every view point, making each view's row,
    one entry at a time, and its bits from its rest's inputs."""
    t = SimpleNamespace(p=p, coords=coords)
    nums, t.den = integer_mass(p.mass) if ints is None else ints
    moved = np.moveaxis(nums, coords, range(len(coords)))
    pos = moved > 0
    t.outs = list(product(*(range(p.axes[c].size) for c in coords)))
    t.rows = [tx for tx in t.outs if pos[tx].any()]
    t.var = {key: i for i, key in enumerate(product(t.rows, t.outs))}
    t.size = len(t.var)
    others = [c for c in range(p.k) if c not in coords]
    width = len(t.outs)
    first = {tx: i * width for i, tx in enumerate(t.rows)}
    out = {ux: i for i, ux in enumerate(t.outs)}
    live = {}
    t.view_rows, t.view_bits, t.odd_bits = [], [], []
    law = p.mass.reshape(-1).tolist()
    for v, mass in zip(product(*(range(a.size) for a in p.axes)), law):
        rest = tuple(v[c] for c in others)
        if rest not in live:
            group = [(tx, first[tx], moved[tx + rest]) for tx in t.rows if pos[tx + rest]]
            live[rest] = (group, sum(1 << var for _, var, _ in group),
                          sum(1 << var for _, var, num in group if num & 1))
        group, bits, odd = live[rest]
        ux = tuple(v[c] for c in coords)
        shift = out[ux]
        row = [0] * t.size
        for _, var, num in group:
            row[var + shift] += num
        t.view_rows.append(row)
        t.view_bits.append(bits << shift)
        t.odd_bits.append(odd << shift)
        ident = sum(num for tx, _, num in group if tx == ux)
        if ident * mass.denominator != mass.numerator * t.den:
            raise ValueError("the identity channel's view is not the law")
    t.sum_bits = [((1 << width) - 1) << var for var in first.values()]
    t.identity_bits = sum(1 << t.var[(tx, tx)] for tx in t.rows)
    return t


def _zero_input_law() -> JointPmf:
    # user 0's symbol 2 and user 1's symbol 0 carry no mass
    mass = np.zeros((3, 2, 2), dtype=object)
    for idx, num in (((0, 1, 0), 3), ((1, 1, 1), 2), ((0, 1, 1), 1), ((1, 1, 0), 1)):
        mass[idx] = Fraction(num, 7)
    return JointPmf([Alphabet(tuple(range(n))) for n in mass.shape], mass)


def test_the_table_builder_matches_the_per_view_loop(erasure_pmf):
    laws = [erasure_pmf, *(t1_instance(t)[0] for t in range(40)),
            *(random_pmf((2, 2, 2, 2), seed=derive_seed(20261017, "p", i),
                         zero_frac=0.3, max_weight=3) for i in range(12)),
            random_pmf((2, 2, 2, 2, 2), seed=5, zero_frac=0.3, max_weight=3),
            random_pmf((3, 3, 3, 3), seed=2, zero_frac=0.3, max_weight=3),
            _zero_input_law()]
    dropped = 0
    for p in laws:
        regions = Regions(p)
        for r in range(1, p.k):
            for coords in combinations(range(p.k - 1), r):
                want = reference_channel_vars(p, coords)
                for w in (ChannelVars(p, coords), regions.channel(coords)):
                    assert "view_rows" not in vars(w)
                    for attr in ("outs", "rows", "var", "size", "den", "view_bits", "odd_bits",
                                 "sum_bits", "identity_bits"):
                        assert getattr(w, attr) == getattr(want, attr), attr
                    assert w.view_rows.tolist() == want.view_rows
                dropped += len(want.outs) - len(want.rows)
    assert dropped


def test_a_bit_pinned_verdict_builds_no_view_lists(monkeypatch):
    # a threshold-1 verdict builds one region; when its bit rows pin it, no
    # table's view rows are built
    built = []

    class Recorded(_Region):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(viability, "_Region", Recorded)
    pinned = 0
    for t in range(200):
        p, f = t1_instance(t)
        built.clear()
        check_viability(p, f, AdversaryStructure.threshold(p.k - 1, 1))
        (region,) = built
        if region._route == "bits":
            assert region.pinned
            assert not any("view_rows" in vars(w) for w in region.members)
            pinned += 1
    assert pinned == 129
