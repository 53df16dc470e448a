"""The channel-variable builder against the independent view oracle."""

from fractions import Fraction
from itertools import product

import pytest

from byzfc.examples_lib import random_pmf
from byzfc.polytope import ChannelVars
from byzfc.probability import Channel
from byzfc.viewsets import induce_view

from test_viewsets import random_channel


@pytest.fixture(params=["erasure", "random"])
def law(request, erasure_pmf):
    if request.param == "erasure":
        return erasure_pmf
    p = random_pmf((2, 3, 2, 2), seed=17, zero_frac=0.4)
    assert any(m == 0 for m in p.mass.reshape(-1))
    return p


def test_view_rows_match_induced_view(law, threshold_3_2):
    views = list(product(*(range(a.size) for a in law.axes)))
    for s in threshold_3_2.sets:
        if not s:
            continue
        coords = tuple(sorted(s))
        w = ChannelVars(law, coords, offset=5)
        axes = tuple(law.axes[c] for c in coords)
        for seed in range(3):
            chan = random_channel(axes, seed=seed, exact=True)
            x = {var: chan.rows[tx + ux] for (tx, ux), var in w.var.items()}
            view = induce_view(law, s, chan)
            for v in views:
                got = sum((c * x[var] for var, c in w.view_row(v).items()), Fraction(0))
                assert got == view.mass[v]
                neg = sum((c * x[var] for var, c in w.view_row(v, -1).items()), Fraction(0))
                assert neg == -view.mass[v]


def test_identity_point_is_identity_channel(law, threshold_3_2):
    for s in threshold_3_2.sets:
        if not s:
            continue
        w = ChannelVars(law, tuple(sorted(s)))
        x = [Fraction(0)] * w.size
        w.set_identity(x)
        for row in w.sum_rows():
            assert sum(x[var] * c for var, c in row.items()) == 1
        ident = Channel.identity(tuple(law.axes[c] for c in w.coords))
        assert (w.channel(x, exact=True).rows == ident.rows).all()
