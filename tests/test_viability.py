"""Viability verdicts, witnesses and g-table construction.

The independent oracles here: a hand-built resampling joint certifying a
non-viable instance without the LP, the direct definition re-verifier for
witnesses, the MSS module for the threshold-1 case, and randomized-
objective re-solves for g-consistency.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from byzfc.examples_lib import random_function, random_pmf
from byzfc.mss import is_function_of_ystar
from byzfc.probability import (Alphabet, JointPmf, ProbabilityError, derive_seed, integer_mass,
                               pmf_from_dict)
from byzfc.structures import (AdversaryStructure, TargetFunction,
                              constant_function)
from byzfc.viability import (GBuildConflict, GTable, Regions, ViabilityInputError,
                             build_g, check_s_viability, check_viability,
                             verify_witness)


def structured_instance(t, zero_frac=0.45):
    """Random (P, f) pairs with coarse upgrades (uniform-on-support mass)."""
    sizes = (2 + (t % 2), 2 + ((t // 2) % 2), 2 + ((t // 4) % 2))
    p = random_pmf(sizes, seed=derive_seed(3000, t), zero_frac=zero_frac, max_weight=1)
    f = random_function(p, 2, seed=derive_seed(4000, t))
    return p, f


class TestCheckViability:
    def test_constant_function_always_viable(self, erasure_pmf):
        f = constant_function(erasure_pmf.axes, Alphabet(("c",)), "c")
        for s in (1, 2, 3):
            assert check_s_viability(erasure_pmf, f, s).viable

    def test_worked_example_uv_is_2_viable(self, erasure_pmf, erasure_f_uv):
        assert check_s_viability(erasure_pmf, erasure_f_uv, 2).viable

    def test_worked_example_uvw_not_viable(self, erasure_pmf, erasure_f_uvw):
        report = check_s_viability(erasure_pmf, erasure_f_uvw, 2)
        assert not report.viable
        w = report.witness
        # the collusion of users 1 and 2 (0-based) resamples the erasure
        # pattern; the witness collection must contain that set
        assert frozenset({1, 2}) in w.collection
        verify_witness(w, erasure_pmf, erasure_f_uvw)
        # conflicting values differ exactly in the third (W) component
        va, vb = w.f_values
        assert va[:2] == vb[:2] and va[2] != vb[2]

    def test_float_mode_rejected(self, erasure_pmf):
        # the verdict is exact: a law with float mass cannot be built to reach it
        with pytest.raises(ProbabilityError, match="a pmf must be exact"):
            JointPmf(erasure_pmf.axes, erasure_pmf.mass.astype(np.float64))

    def test_k1_mss_function_viable(self):
        from byzfc.examples_lib import single_user_erasure_f, single_user_erasure_pmf
        p = single_user_erasure_pmf()
        f = single_user_erasure_f()
        assert check_s_viability(p, f, 1).viable

    def test_k2_full_support_matches_mss_oracle(self):
        for t in range(30):
            sizes = (2, 2 + (t % 2), 2)
            p = random_pmf(sizes, seed=derive_seed(500, t), zero_frac=0.0)
            f = random_function(p, 2, seed=derive_seed(600, t))
            assert check_s_viability(p, f, 1).viable == is_function_of_ystar(p, f)


def build_resampling_joint(p):
    """Brute-force witness for k=2, s=2, f = X1 with X1 independent:
    scenario {0,1} resamples X1 fresh, scenario {0} x {1} identities.

    Returns the joint over (uX1, uX2, uY, t^{a}_{X1}, t^{b}_{X2}) for the
    collection ({0}, {1}) where scenario a resamples and b is identity,
    built directly from the definition with no LP involvement.
    """
    ax1, ax2, ay = p.axes
    p1 = p.marginalize((0,))
    shape = (ax1.size, ax2.size, ay.size, ax1.size, ax2.size)
    mass = np.empty(shape, dtype=object)
    mass[:] = Fraction(0)
    for x1, x2, y in product(range(ax1.size), range(ax2.size), range(ay.size)):
        for u1 in range(ax1.size):
            # true (x1, x2, y); user 0 reports a fresh u1 ~ P_X1
            mass[u1, x2, y, x1, x2] += p.mass[x1, x2, y] * p1.mass[(u1,)]
    return JointPmf((ax1, ax2, ay, ax1, ax2), mass)


class TestBruteForceWitness:
    def test_independent_x1_not_viable_and_oracle_agrees(self):
        # X1 a fair bit independent of (X2, Y); f = X1
        b = Alphabet.binary()
        p = pmf_from_dict((b, b, b), {
            (0, 0, 0): Fraction(1, 4), (1, 0, 0): Fraction(1, 4),
            (0, 1, 1): Fraction(1, 4), (1, 1, 1): Fraction(1, 4)})
        f = TargetFunction.from_callable(p.axes, b, lambda x1, x2, y: x1)
        # brute-force certificate: the resampling joint satisfies (a), (b)
        # for both scenarios and conflicts with positive probability
        q = build_resampling_joint(p)
        # (a) scenario {0}: (tX1, uX2, uY) ~ P
        marg = q.marginalize((3, 1, 2))
        assert marg == p
        # (a) scenario {1}: (uX1, tX2, uY) ~ P: tX2 = uX2 identity
        marg2 = q.marginalize((0, 4, 2))
        assert marg2 == p
        conflict_mass = Fraction(0)
        for idx in q.support_idx():
            u1, u2, y, t1, t2 = idx
            if f.table[t1, u2, y] != f.table[u1, t2, y]:
                conflict_mass += q.mass[idx]
        assert conflict_mass > 0
        # and the checker agrees, for s=1 and s=2
        assert not check_s_viability(p, f, 1).viable
        rep = check_s_viability(p, f, 2)
        assert not rep.viable
        verify_witness(rep.witness, p, f)


class TestProperties:
    def test_monotone_in_structure(self):
        # viable for a superstructure implies viable for the substructure
        for t in range(12):
            p, f = structured_instance(t)
            big = AdversaryStructure.threshold(2, 2)
            small = AdversaryStructure.threshold(2, 1)
            if check_viability(p, f, big).viable:
                assert check_viability(p, f, small).viable

    def test_functions_of_viable_are_viable(self):
        for t in range(20):
            p, f = structured_instance(t)
            rep = check_s_viability(p, f, 1)
            h = f.compose(lambda z: 0, Alphabet((0,)))
            assert check_s_viability(p, h, 1).viable
            if rep.viable:
                h2 = f.compose(lambda z: min(z, 1), Alphabet((0, 1)))
                assert check_s_viability(p, h2, 1).viable

    def test_witness_soundness_random_instances(self):
        found = 0
        for t in range(80):
            p, f = structured_instance(t)
            rep = check_s_viability(p, f, 1)
            assert rep.viable == is_function_of_ystar(p, f)
            if not rep.viable:
                verify_witness(rep.witness, p, f)
                found += 1
        assert found >= 3


class TestBuildG:
    def test_full_support_g_equals_f(self):
        for t in range(8):
            p = random_pmf((2, 2, 2), seed=derive_seed(900, t), zero_frac=0.0)
            f = random_function(p, 3, seed=derive_seed(901, t))
            col = (frozenset({0}), frozenset({1}))
            g = build_g(p, f, col)
            assert np.array_equal(g.table, f.table)
            assert g.defined_mask.all()

    def test_constant_function_constant_g(self, erasure_pmf):
        f = constant_function(erasure_pmf.axes, Alphabet(("c",)), "c")
        col = (frozenset({0}), frozenset({1, 2}))
        g = build_g(erasure_pmf, f, col)
        assert np.all(g.table == 0)

    def test_worked_example_pinned_value(self, erasure_pmf, erasure_f_uv):
        # Hand derivation: at the view (x1=b, x2=e2, x3=1-b, y=e) any
        # matched family for the three pairwise collusions would have to
        # explain the view through users {0,1} whose only admissible truth
        # forces U=1-b, while {1,2} forces U=b -- contradicting 2-viability
        # of (U,V).  The view is therefore unreachable and g copies f,
        # whose value is (b, erased) = "b1".
        col = (frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2}))
        g = build_g(erasure_pmf, erasure_f_uv, col)
        a = erasure_pmf.axes
        for b in (0, 1):
            idx = (a[0].index(b), a[1].index("e2"), a[2].index(1 - b), a[3].index("e"))
            assert g.codomain.symbols[g.table[idx]] == f"{b}1"
        # on the support g equals f (pinned)
        for idx in erasure_pmf.support_idx():
            assert g.table[idx] == erasure_f_uv.table[idx]
            assert g.defined_mask[idx]

    def test_member_order_is_canonical(self, erasure_pmf, erasure_f_uv):
        # both orders give one table, on one region of a shared store, and
        # the table reads back equal from its JSON
        regions = Regions(erasure_pmf)
        g = build_g(erasure_pmf, erasure_f_uv, [[1, 2], [0]], regions=regions)
        assert g.collection == (frozenset({0}), frozenset({1, 2}))
        assert g == build_g(erasure_pmf, erasure_f_uv, [[0], [1, 2]], regions=regions)
        assert list(regions) == [g.collection]
        assert GTable.from_json_dict(g.to_json_dict()) == g

    def test_conflict_diagnosed_for_nonviable(self):
        for t in range(80):
            p, f = structured_instance(t)
            rep = check_s_viability(p, f, 1)
            if rep.viable:
                continue
            with pytest.raises(GBuildConflict):
                build_g(p, f, rep.witness.collection)
            return
        pytest.skip("no non-viable instance found")

    def test_g_consistency_randomized_objectives(self, erasure_pmf, erasure_f_uv):
        # every feasible (scenario, truth) pair at a vertex of a random-
        # objective LP must agree with the pinned g value
        col = (frozenset({0}), frozenset({1, 2}))
        g = build_g(erasure_pmf, erasure_f_uv, col)
        region = Regions(erasure_pmf)[col]
        from byzfc.simplex import Tableau
        t = Tableau(region.A, region.b)
        rng = np.random.default_rng(5)
        sizes = tuple(a.size for a in erasure_pmf.axes)
        for _ in range(12):
            c = [Fraction(int(v), 7) for v in rng.integers(-20, 21, len(region.alive_vars))]
            t.maximize(c)
            sol_alive = t.solution()
            sol = [Fraction(0)] * region.nvar
            for var, x in zip(region.alive_vars, sol_alive):
                sol[var] = x
            for v in product(*(range(s) for s in sizes)):
                for m, chan_vars in enumerate(region.members):
                    coords = chan_vars.coords
                    ux = tuple(v[c_] for c_ in coords)
                    for tx in chan_vars.rows:
                        full = list(v)
                        for pos, c_ in enumerate(coords):
                            full[c_] = tx[pos]
                        w = sol[region.var(m, tx, ux)]
                        if w > 0 and erasure_pmf.mass[tuple(full)] > 0:
                            assert g.defined_mask[v]
                            assert g.table[v] == erasure_f_uv.table[tuple(full)]


class TestValidation:
    def test_axis_count_checked(self, erasure_pmf, erasure_f_uv):
        with pytest.raises(ViabilityInputError):
            check_viability(erasure_pmf, erasure_f_uv, AdversaryStructure.threshold(2, 1))

    def test_domain_mismatch_checked(self, erasure_pmf):
        b = Alphabet.binary()
        f = TargetFunction.from_callable((b, b, b, b), b, lambda *a: 0)
        with pytest.raises(ViabilityInputError):
            check_s_viability(erasure_pmf, f, 2)

    @pytest.mark.parametrize("user", [3, -1, 7, True, 1.0])
    def test_build_g_members_are_users(self, erasure_pmf, erasure_f_uv, user):
        # axis 3 is the side information, which no adversary corrupts; a
        # bool or a float is no user index even where it equals one
        with pytest.raises(ViabilityInputError, match="users 0..2"):
            build_g(erasure_pmf, erasure_f_uv, [[0], [user]])


class TestDeterminism:
    def test_same_witness_twice(self, erasure_pmf, erasure_f_uvw):
        r1 = check_s_viability(erasure_pmf, erasure_f_uvw, 2)
        r2 = check_s_viability(erasure_pmf, erasure_f_uvw, 2)
        assert r1.witness.collection == r2.witness.collection
        assert r1.witness.point == r2.witness.point
        assert r1.witness.pair == r2.witness.pair
        assert r1.witness.joint == r2.witness.joint


class TestVerifierNegativeControls:
    """The independent witness checker must reject doctored witnesses;
    otherwise the soundness suite proves nothing."""

    def test_perturbed_joint_rejected(self, erasure_pmf, erasure_f_uvw):
        from dataclasses import replace

        rep = check_s_viability(erasure_pmf, erasure_f_uvw, 2)
        w = rep.witness
        mass = w.joint.mass.copy()
        flat = mass.reshape(-1)
        # move a little mass between the two largest entries: still a pmf,
        # no longer satisfying the marginal constraints
        order = np.argsort([float(v) for v in flat])[::-1]
        eps = Fraction(1, 1000)
        flat[order[0]] = flat[order[0]] - eps
        flat[order[1]] = flat[order[1]] + eps
        bad = replace(w, joint=JointPmf(w.joint.axes, mass))
        with pytest.raises(AssertionError):
            verify_witness(bad, erasure_pmf, erasure_f_uvw)

    def test_one_numerator_unit_moved_is_rejected(self, erasure_pmf, erasure_f_uvw):
        # the smallest change the integer check can see: one unit of the
        # joint's common denominator, from each positive cell to the next
        # cell and to the cell one block further on
        from dataclasses import replace

        w = check_s_viability(erasure_pmf, erasure_f_uvw, 2).witness
        nums, den = integer_mass(w.joint.mass)
        flat = nums.reshape(-1)
        moves = 0
        for src in np.flatnonzero(flat > 0).tolist():
            for dst in ((src + 1) % flat.size, (src + flat.size // 2) % flat.size):
                moved = flat.copy()
                moved[src] -= 1
                moved[dst] += 1
                mass = np.array([Fraction(n, den) for n in moved], dtype=object)
                bad = replace(w, joint=JointPmf(w.joint.axes, mass.reshape(nums.shape)))
                if bad.joint.mass[bad.point] == 0:
                    continue
                with pytest.raises(AssertionError, match=r"constraint \((a|b)\) fails"):
                    verify_witness(bad, erasure_pmf, erasure_f_uvw)
                moves += 1
        assert moves >= 10

    def test_nonconflicting_point_rejected(self, erasure_pmf, erasure_f_uvw,
                                           erasure_f_uv):
        rep = check_s_viability(erasure_pmf, erasure_f_uvw, 2)
        # same witness, checked against a function it does not refute
        with pytest.raises(AssertionError):
            verify_witness(rep.witness, erasure_pmf, erasure_f_uv)

    def test_zero_mass_point_rejected(self, erasure_pmf, erasure_f_uvw):
        from dataclasses import replace

        rep = check_s_viability(erasure_pmf, erasure_f_uvw, 2)
        w = rep.witness
        flat = w.joint.mass.reshape(-1)
        zero_idx = next(i for i, v in enumerate(flat) if v == 0)
        point = np.unravel_index(zero_idx, w.joint.mass.shape)
        bad = replace(w, point=tuple(int(i) for i in point))
        with pytest.raises(AssertionError):
            verify_witness(bad, erasure_pmf, erasure_f_uvw)
