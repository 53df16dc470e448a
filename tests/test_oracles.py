"""Heavyweight independent cross-checks of the viability core.

Two oracles that share no code with the production checker:

* a literal full-joint-space LP: variables are the entries of the joint
  over (reported views, side info, every scenario's true values), with
  the marginal-match and cross-multiplied Markov constraints written out
  directly, maximizing total mass on value-conflicting points;
* the worked example's characterization: a function survives two
  colluding users iff it factors through (bit, erased-flag) on the
  support.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from byzfc.examples_lib import random_function, random_pmf
from byzfc.probability import Alphabet, derive_seed
from byzfc.simplex import Tableau
from byzfc.structures import AdversaryStructure, nonintersecting_collections
from byzfc.viability import check_s_viability, check_viability

from test_simplex import integer_rows

_ZERO = Fraction(0)


def qspace_max_conflict(p, f, collection):
    """Maximum feasible mass on conflicting points, full-joint formulation."""
    k = p.k - 1
    sizes = tuple(a.size for a in p.axes)
    coords = [tuple(sorted(s)) for s in collection]
    block_shapes = [tuple(sizes[c] for c in cs) for cs in coords]
    s_shape = sizes + tuple(d for shape in block_shapes for d in shape)
    points = list(product(*(range(d) for d in s_shape)))
    index = {pt: i for i, pt in enumerate(points)}
    nvar = len(points)

    def split(pt):
        view = pt[: k + 1]
        blocks = []
        off = k + 1
        for shape in block_shapes:
            blocks.append(pt[off: off + len(shape)])
            off += len(shape)
        return view, blocks

    def insert(view, cs, tx):
        full = list(view)
        for pos, c in enumerate(cs):
            full[c] = tx[pos]
        return tuple(full)

    rows, rhs = [], []
    # (a): for each scenario, the (truth, honest reports, side info)
    # marginal equals the source law
    for m, cs in enumerate(coords):
        rest = tuple(c for c in range(k + 1) if c not in cs)
        for tx in product(*(range(sizes[c]) for c in cs)):
            for others in product(*(range(sizes[c]) for c in rest)):
                row = {}
                for pt in points:
                    view, blocks = split(pt)
                    if blocks[m] == tx and tuple(view[c] for c in rest) == others:
                        row[index[pt]] = 1
                full = [0] * (k + 1)
                for pos, c in enumerate(cs):
                    full[c] = tx[pos]
                for pos, c in enumerate(rest):
                    full[c] = others[pos]
                rows.append(row)
                rhs.append(p.mass[tuple(full)])
    # (b): cross-multiplied Markov constraint per scenario
    p_marg = [p.marginalize(cs) for cs in coords]
    for m, cs in enumerate(coords):
        rest = tuple(c for c in range(k + 1) if c not in cs)
        for ux_a in product(*(range(sizes[c]) for c in cs)):
            for tx in product(*(range(sizes[c]) for c in cs)):
                pa = p_marg[m].mass[tx]
                for others in product(*(range(sizes[c]) for c in rest)):
                    pfull = p.mass[insert_point(k, sizes, cs, tx, rest, others)]
                    row = {}
                    for pt in points:
                        view, blocks = split(pt)
                        coef = _ZERO
                        if blocks[m] == tx and tuple(view[c] for c in cs) == ux_a:
                            if tuple(view[c] for c in rest) == others:
                                coef += pa
                            coef -= pfull
                        if coef != 0:
                            row[index[pt]] = coef
                    if row:
                        rows.append(row)
                        rhs.append(_ZERO)
    t = Tableau(*integer_rows([[row.get(j, _ZERO) for j in range(nvar)] for row in rows], rhs))
    c = [_ZERO] * nvar
    for pt in points:
        view, blocks = split(pt)
        vals = {int(f.table[insert(view, coords[m], blocks[m])])
                for m in range(len(coords))}
        if len(vals) > 1:
            c[index[pt]] = Fraction(1)
    return t.maximize(c)


def insert_point(k, sizes, cs, tx, rest, others):
    full = [0] * (k + 1)
    for pos, c in enumerate(cs):
        full[c] = tx[pos]
    for pos, c in enumerate(rest):
        full[c] = others[pos]
    return tuple(full)


def qspace_viable(p, f, structure):
    for col in nonintersecting_collections(structure):
        if qspace_max_conflict(p, f, col) != 0:
            return False
    return True


class TestQSpaceOracle:
    def test_k2_binary_instances(self):
        st = AdversaryStructure.threshold(2, 1)
        both = {True: 0, False: 0}
        for t in range(30):
            p = random_pmf((2, 2, 2), seed=derive_seed(100_000, t),
                           zero_frac=0.4, max_weight=1 if t % 2 else 4)
            f = random_function(p, 2, seed=derive_seed(100_500, t))
            mine = check_viability(p, f, st).viable
            oracle = qspace_viable(p, f, st)
            assert mine == oracle, t
            both[mine] += 1
        assert both[True] >= 3 and both[False] >= 3

    def test_k2_mixed_alphabet_instances(self):
        st = AdversaryStructure.threshold(2, 1)
        for t in range(8):
            p = random_pmf((3, 2, 2), seed=derive_seed(101_000, t),
                           zero_frac=0.45, max_weight=1)
            f = random_function(p, 2, seed=derive_seed(101_500, t))
            assert check_viability(p, f, st).viable == qspace_viable(p, f, st), t

    def test_k3_singleton_collections(self):
        # seeds 31/47/69 are known non-viable under this generator, so both
        # verdicts are exercised
        st = AdversaryStructure.threshold(3, 1)
        both = {True: 0, False: 0}
        for t in (0, 1, 2, 3, 4, 5, 31, 47, 69):
            p = random_pmf((2, 2, 2, 2), seed=derive_seed(102_000, t),
                           zero_frac=0.55, max_weight=1)
            f = random_function(p, 2, seed=derive_seed(102_500, t))
            mine = check_viability(p, f, st).viable
            assert mine == qspace_viable(p, f, st), t
            both[mine] += 1
        assert both[True] >= 1 and both[False] >= 3

    def test_k2_full_threshold_with_pair_sets(self):
        # structure containing the two-user coalition set {0,1}
        st = AdversaryStructure.threshold(2, 2)
        for t in range(10):
            p = random_pmf((2, 2, 2), seed=derive_seed(103_000, t),
                           zero_frac=0.35, max_weight=1 if t % 2 else 3)
            f = random_function(p, 2, seed=derive_seed(103_500, t))
            assert check_viability(p, f, st).viable == qspace_viable(p, f, st), t


class TestWorkedExampleCharacterization:
    """Beyond viability of (U,V) and non-viability of (U,V,W): any function
    survives two colluding users here iff it factors through (U,V) on the
    support."""

    def factors_through_uv(self, g, erasure_pmf, erasure_f_uv):
        value = {}
        for idx in erasure_pmf.support_idx():
            key = int(erasure_f_uv.table[idx])
            if value.setdefault(key, int(g.table[idx])) != int(g.table[idx]):
                return False
        return True

    def test_random_functions_match_fiber_test(self, erasure_pmf, erasure_f_uv):
        seen = {True: 0, False: 0}
        for t in range(16):
            g = random_function(erasure_pmf, 2, seed=derive_seed(104_000, t))
            expected = self.factors_through_uv(g, erasure_pmf, erasure_f_uv)
            got = check_s_viability(erasure_pmf, g, 2).viable
            assert got == expected, t
            seen[expected] += 1
        assert seen[False] >= 5

    def test_functions_of_uv_all_viable(self, erasure_pmf, erasure_f_uv):
        rng = np.random.default_rng(9)
        for t in range(6):
            remap = rng.integers(0, 2, size=4)
            h = erasure_f_uv.compose(
                lambda z: int(remap[erasure_f_uv.codomain.index(z)]),
                Alphabet((0, 1)))
            assert self.factors_through_uv(h, erasure_pmf, erasure_f_uv)
            assert check_s_viability(erasure_pmf, h, 2).viable, t
