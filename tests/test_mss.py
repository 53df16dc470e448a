"""Minimal sufficient statistics, upgrading, and the pairwise / k-user
protocols.  Independent oracles: an alternative fixed-point refinement for
the upgrade, a test-local union-find for the common part, and hand-written
conditional rows."""

import hashlib
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from byzfc import mss
from byzfc.examples_lib import random_pmf, two_user_copy_pmf
from byzfc.mss import (common_upgrade, decode_21, decode_k1, gstar_sequence, is_function_of_ystar, markov_holds_exact,
                       markov_residual, mss_partition, upgrade_to_saturation)
from byzfc.probability import (Alphabet, JointPmf, ProbabilityError, SampleBlock, derive_seed,
                               philox, pmf_from_dict, sample_iid, uniform_pmf)
from byzfc.structures import AdversaryStructure, TargetFunction
from byzfc.viability import check_viability


class TestMssPartition:
    def test_independent_single_class(self):
        p = uniform_pmf([Alphabet.of_size(3), Alphabet.binary()])
        part = mss_partition(p)
        assert part.class_count == 1

    def test_copy_identity_partition(self):
        a = Alphabet.of_size(3)
        p = pmf_from_dict((a, a), {(i, i): Fraction(1, 3) for i in range(3)})
        part = mss_partition(p)
        assert part.class_count == 3

    def test_erasure_rows_distinct(self):
        # rows (1/2, 0, 1/2) vs (0, 1/2, 1/2): identity partition
        from byzfc.examples_lib import single_user_erasure_pmf
        part = mss_partition(single_user_erasure_pmf())
        assert part.class_count == 2

    def test_equal_rows_merged(self):
        b = Alphabet.of_size(3)
        p = pmf_from_dict((b, Alphabet.binary()), {
            (0, 0): Fraction(1, 4), (0, 1): Fraction(1, 4),
            (1, 0): Fraction(1, 8), (1, 1): Fraction(1, 8),
            (2, 0): Fraction(1, 4)})
        part = mss_partition(p)
        # rows of 0 and 1 are both (1/2, 1/2); 2 is (1, 0)
        assert part.class_count == 2
        assert part.class_of[0] == part.class_of[1]

    def test_zero_mass_singletons(self):
        b = Alphabet.of_size(3)
        p = pmf_from_dict((b, Alphabet.binary()), {
            (0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2)})
        part = mss_partition(p)
        assert part.class_of[0] == part.class_of[1]
        assert part.class_of[2] != part.class_of[0]

    def test_float_law_rejected(self):
        # conditional rows are compared exactly: a law with float mass, in
        # memory or in JSON, is refused before it reaches an entry point
        for sizes, seed in (((3, 3), 1), ((2, 3, 2), 2)):
            p = random_pmf(sizes, seed=seed, zero_frac=0.3, max_weight=2)
            floats = p.mass.astype(np.float64)
            with pytest.raises(ProbabilityError, match="a pmf must be exact"):
                JointPmf(p.axes, floats)
            with pytest.raises(ProbabilityError, match="a pmf must be exact"):
                JointPmf.from_json_dict({**p.to_json_dict(), "mass": floats.reshape(-1).tolist(),
                                         "mode": "float"})


def brute_force_upgrade(p):
    """Independent fixed-point refinement oracle (naive pairwise merging)."""
    mass = p.mass.astype(np.float64)
    nu, nv, nw = mass.shape
    labels = {(u, v, w): w for u, v, w in product(range(nu), range(nv), range(nw))}

    def part_by_rows(axis_size, getter):
        rows = []
        nlab = len(set(labels.values()))
        relab = {l: i for i, l in enumerate(sorted(set(labels.values())))}
        for a in range(axis_size):
            row = np.zeros(nlab)
            for (u, v, w), l in labels.items():
                if getter(u, v) == a:
                    row[relab[l]] += mass[u, v, w]
            tot = row.sum()
            rows.append(None if tot == 0 else row / tot)
        classes = list(range(axis_size))
        for i in range(axis_size):
            for j in range(i):
                if rows[i] is not None and rows[j] is not None \
                        and np.max(np.abs(rows[i] - rows[j])) < 1e-9:
                    classes[i] = classes[j]
                    break
        return classes

    for _ in range(nu * nv + 1):
        cu = part_by_rows(nu, lambda u, v: u)
        cv = part_by_rows(nv, lambda u, v: v)
        new = {(u, v, w): (labels[(u, v, w)], cu[u], cv[v])
               for u, v, w in labels}
        if len(set(new.values())) == len(set(labels.values())):
            break
        labels = new
    return cu, cv


class TestUpgrade:
    def test_w_already_maximal_saturates_immediately(self):
        # W = (U, V) itself: both partitions are identities from round 0
        b = Alphabet.binary()
        wax = Alphabet.of_size(4)
        entries = {}
        for u, v in product(range(2), range(2)):
            entries[(u, v, 2 * u + v)] = Fraction(1, 4)
        p = pmf_from_dict((b, b, wax), entries)
        up = upgrade_to_saturation(p)
        assert up.psi_u.class_count == 2 and up.psi_v.class_count == 2
        assert up.saturation_round == 1   # round 1 confirms round 0's partitions

    def test_uninformative_w_with_copy_sources(self):
        # W independent of (U, V), U = V: conditioning never improves, all
        # partitions stay constant
        b = Alphabet.binary()
        entries = {(u, u, w): Fraction(1, 4) for u in range(2) for w in range(2)}
        p = pmf_from_dict((b, b, b), entries)
        up = upgrade_to_saturation(p)
        assert up.psi_u.class_count == 1 and up.psi_v.class_count == 1

    def test_against_brute_force_refinement(self):
        for seed in range(20):
            p = random_pmf((3, 2, 3), seed=derive_seed(800, seed), zero_frac=0.35,
                           max_weight=2)
            up = upgrade_to_saturation(p)
            cu, cv = brute_force_upgrade(p)

            def canon(xs):
                seen = {}
                return [seen.setdefault(x, len(seen)) for x in xs]

            assert canon(up.psi_u.class_of.tolist()) == canon(cu)
            assert canon(up.psi_v.class_of.tolist()) == canon(cv)

    def test_refinement_monotone_and_bounded(self):
        for seed in range(30):
            p = random_pmf((3, 3, 2), seed=derive_seed(810, seed), zero_frac=0.3,
                           max_weight=3)
            up = upgrade_to_saturation(p)
            assert len(up.rounds) <= 9 + 1
            for r in range(1, len(up.rounds)):
                assert up.rounds[r].psi_u.refines(up.rounds[r - 1].psi_u)
                assert up.rounds[r].psi_v.refines(up.rounds[r - 1].psi_v)

    def test_markov_at_saturation(self):
        for seed in range(25):
            p = random_pmf((3, 2, 2), seed=derive_seed(820, seed), zero_frac=0.3,
                           max_weight=2)
            up = upgrade_to_saturation(p)
            assert markov_holds_exact(p, up)
            assert markov_residual(p, up) <= 1e-10

    def test_mss_single_markov(self):
        # U <-> psi(U) <-> V for the one-step partition, exact check
        for seed in range(20):
            p = random_pmf((3, 3), seed=derive_seed(830, seed), zero_frac=0.3,
                           max_weight=2)
            part = mss_partition(p)
            nu, nv = p.axes[0].size, p.axes[1].size
            joint = np.empty((part.class_count, nu, nv), dtype=object)
            joint[:] = Fraction(0)
            for u, v in product(range(nu), range(nv)):
                joint[part.class_of[u], u, v] += p.mass[u, v]
            for c in range(part.class_count):
                block = joint[c]
                pc = block.sum()
                if pc == 0:
                    continue
                pu = block.sum(axis=1)
                pv = block.sum(axis=0)
                for u, v in product(range(nu), range(nv)):
                    assert block[u, v] * pc == pu[u] * pv[v]


def three_class_pmf():
    """U in {0,1,2} with classes {0,1} and {2}; equal masses inside the
    merged class so in-class permutations are exactly undetectable."""
    u = Alphabet.of_size(3)
    v = Alphabet.binary()
    w = Alphabet.binary()
    entries = {
        (0, 0, 0): Fraction(1, 6), (0, 1, 1): Fraction(1, 6),
        (1, 0, 0): Fraction(1, 6), (1, 1, 1): Fraction(1, 6),
        (2, 0, 1): Fraction(1, 6), (2, 1, 0): Fraction(1, 6),
    }
    return pmf_from_dict((u, v, w), entries)


class TestDecode21:
    def gammas(self, p, g=0.1):
        nu, nv = p.axes[0].size, p.axes[1].size
        return [g] * (nu * nv + 1)

    def test_honest_outputs_labels(self):
        p = three_class_pmf()
        pf = p.to_float()
        up = upgrade_to_saturation(p)
        ok = 0
        for seed in range(40):
            blk = sample_iid(pf, 5000, seed=derive_seed(840, seed))
            kind, out = decode_21(up, blk, self.gammas(pf))
            if kind == "labels":
                truth = up.ystar_labels[blk.user_seqs[0], blk.user_seqs[1], blk.side_seq]
                if np.mean(out != truth) <= 0.02:
                    ok += 1
        assert ok >= 38

    def test_fresh_report_blamed(self):
        # user 1 reports fresh i.i.d. values independent of everything
        p = three_class_pmf()
        pf = p.to_float()
        up = upgrade_to_saturation(p)
        blamed = 0
        for seed in range(40):
            blk = sample_iid(pf, 5000, seed=derive_seed(850, seed))
            rng = philox(derive_seed(851, seed))
            fresh = rng.integers(0, 3, size=5000).astype(np.int64)
            kind, out = decode_21(up, blk.replace_users({0: fresh}), self.gammas(pf))
            if kind == "blame" and out == 0:
                blamed += 1
        assert blamed >= 38

    def test_in_class_permutation_undetected(self):
        p = three_class_pmf()
        pf = p.to_float()
        up = upgrade_to_saturation(p)
        assert up.psi_u.class_of[0] == up.psi_u.class_of[1]
        swap = np.array([1, 0, 2])
        for seed in range(10):
            blk = sample_iid(pf, 4000, seed=derive_seed(860, seed))
            swapped = blk.replace_users({0: swap[blk.user_seqs[0]]})
            kind, out = decode_21(up, swapped, self.gammas(pf))
            assert kind == "labels"
            truth = up.ystar_labels[blk.user_seqs[0], blk.user_seqs[1], blk.side_seq]
            assert np.array_equal(out, truth)  # labels are class-invariant

    def test_gamma_length_validated(self):
        p = three_class_pmf()
        blk = SampleBlock.from_cells(p.axes, np.zeros(3, dtype=np.int64))
        with pytest.raises(ProbabilityError, match="need 7 per-round tolerances, got 2"):
            decode_21(upgrade_to_saturation(p), blk, [0.1, 0.1])


def common_part_oracle(p, pair_labelings):
    """Test-local finest common coarsening via explicit transitive closure."""
    sizes = tuple(a.size for a in p.axes)
    supp = [np.ravel_multi_index(idx, sizes) for idx in p.support_idx()]
    groups = {s: {s} for s in supp}
    changed = True
    while changed:
        changed = False
        for lab in pair_labelings:
            flat = lab.reshape(-1)
            for a, b in combinations(supp, 2):
                if flat[a] == flat[b]:
                    ga, gb = None, None
                    for rep, g in groups.items():
                        if a in g:
                            ga = rep
                        if b in g:
                            gb = rep
                    if ga != gb:
                        groups[ga] |= groups.pop(gb)
                        changed = True
    labels = {}
    for rep, g in groups.items():
        for s in g:
            labels[s] = min(g)
    return labels


class TestCommonUpgrade:
    def test_k2_reduces_to_ystar(self):
        p = random_pmf((2, 3, 2), seed=41, zero_frac=0.3, max_weight=2)
        cu = common_upgrade(p)
        pu = cu.pairs[0]
        # with two users the only pair's full labeling has the same classes
        # as G*
        flat_y = pu.ystar_full.reshape(-1)
        flat_g = cu.gstar.reshape(-1)
        sizes = tuple(a.size for a in p.axes)
        supp = [np.ravel_multi_index(idx, sizes) for idx in p.support_idx()]
        mapping = {}
        for s in supp:
            assert mapping.setdefault(flat_y[s], flat_g[s]) == flat_g[s]
        back = {}
        for s in supp:
            assert back.setdefault(flat_g[s], flat_y[s]) == flat_y[s]

    def test_common_randomness_identity(self):
        b = Alphabet.binary()
        p = pmf_from_dict((b, b, b, b), {(0, 0, 0, 0): Fraction(1, 2),
                                         (1, 1, 1, 1): Fraction(1, 2)})
        cu = common_upgrade(p)
        assert cu.gstar[0, 0, 0, 0] != cu.gstar[1, 1, 1, 1]

    def test_against_component_intersection_oracle(self):
        for seed in range(10):
            p = random_pmf((2, 2, 2, 2), seed=derive_seed(870, seed), zero_frac=0.4,
                           max_weight=1)
            cu = common_upgrade(p)
            oracle = common_part_oracle(p, [pu.ystar_full for pu in cu.pairs])
            sizes = tuple(a.size for a in p.axes)
            flat_g = cu.gstar.reshape(-1)
            for a, b in combinations(oracle.keys(), 2):
                assert (oracle[a] == oracle[b]) == (flat_g[a] == flat_g[b])


class TestDecodeK1:
    def test_honest_k3_outputs_gstar(self):
        b = Alphabet.binary()
        p = pmf_from_dict((b, b, b, b), {(0, 0, 0, 0): Fraction(1, 2),
                                         (1, 1, 1, 1): Fraction(1, 2)})
        pf = p.to_float()
        cu = common_upgrade(p)
        ok = 0
        for seed in range(20):
            blk = sample_iid(pf, 3000, seed=derive_seed(880, seed))
            kind, out = decode_k1(cu, blk)
            if kind == "estimate":
                truth = gstar_sequence(cu, blk)
                if np.mean(out != truth) <= 0.02:
                    ok += 1
        assert ok >= 19

    def test_garbage_user_blamed_or_estimated(self):
        b = Alphabet.binary()
        p = pmf_from_dict((b, b, b, b), {(0, 0, 0, 0): Fraction(1, 2),
                                         (1, 1, 1, 1): Fraction(1, 2)})
        pf = p.to_float()
        cu = common_upgrade(p)
        good = 0
        for seed in range(20):
            blk = sample_iid(pf, 3000, seed=derive_seed(890, seed))
            rng = philox(derive_seed(891, seed))
            garbage = blk.replace_users({1: rng.integers(0, 2, 3000).astype(np.int64)})
            kind, out = decode_k1(cu, garbage)
            if kind == "blame" and out == 1:
                good += 1
            elif kind == "estimate":
                truth = gstar_sequence(cu, blk)
                if np.mean(out != truth) <= 0.02:
                    good += 1
        assert good >= 19

    def test_k2_matches_decode21(self):
        p = three_class_pmf()
        pf = p.to_float()
        blk = sample_iid(pf, 2000, seed=17)
        kind_k, out_k = decode_k1(common_upgrade(p), blk)
        nu, nv = p.axes[0].size, p.axes[1].size
        kind_2, out_2 = decode_21(upgrade_to_saturation(p), blk, [0.1] * (nu * nv + 1))
        assert kind_k == "estimate" and kind_2 == "labels"
        # decode_k1 post-maps through h; class structures must agree
        mapping = {}
        for a, b in zip(out_2.tolist(), out_k.tolist()):
            assert mapping.setdefault(a, b) == b


class TestIsFunctionOfYstar:
    def test_ystar_labeling_itself(self):
        p = random_pmf((2, 3, 2), seed=51, zero_frac=0.3, max_weight=2)
        up = upgrade_to_saturation(p)
        f = TargetFunction(p.axes, Alphabet.of_size(up.ystar_count), up.ystar_labels)
        assert is_function_of_ystar(p, f)

    def test_independent_x1_is_not(self):
        b = Alphabet.binary()
        p = pmf_from_dict((b, b, b), {
            (0, 0, 0): Fraction(1, 4), (1, 0, 0): Fraction(1, 4),
            (0, 1, 1): Fraction(1, 4), (1, 1, 1): Fraction(1, 4)})
        f = TargetFunction.from_callable(p.axes, b, lambda x1, x2, y: x1)
        assert not is_function_of_ystar(p, f)

    def test_two_user_copy_identity_classes(self):
        p = two_user_copy_pmf()
        up = upgrade_to_saturation(p)
        assert up.ystar_labels[0, 0, 0] != up.ystar_labels[1, 1, 1]


class TestBlameTieOrder:
    def test_both_checks_failing_blames_first_sender(self):
        # constant reports break both senders' round-0 checks at once; the
        # first sender is blamed (fixed convention: its check runs first)
        p = three_class_pmf()
        pf = p.to_float()
        up = upgrade_to_saturation(p)
        for seed in range(10):
            blk = sample_iid(pf, 3000, seed=derive_seed(930, seed))
            zero = np.zeros(3000, dtype=np.int64)
            kind, out = decode_21(up, blk.replace_users({0: zero, 1: zero}), [0.05] * 7)
            assert (kind, out) == ("blame", 0)
            # sanity: the same corruption on the second sender alone blames it
            kind2, out2 = decode_21(up, blk.replace_users({1: zero}), [0.05] * 7)
            assert (kind2, out2) == ("blame", 1)


def protocol_laws():
    """k=2 to k=4 exact laws; blocks are sampled from their float copies."""
    from test_acceptance import k3_pmf
    return [random_pmf((3, 2, 2), seed=71, zero_frac=0.3, max_weight=3),
            random_pmf((2, 3, 2), seed=72, zero_frac=0.45, max_weight=1),
            k3_pmf(),
            random_pmf((2, 2, 2, 3), seed=73, zero_frac=0.5, max_weight=1),
            random_pmf((2, 2, 2, 2, 2), seed=74, zero_frac=0.6, max_weight=1)]


# sha256 of every output below, computed when mss still took float laws
PROTOCOL_OUTPUTS = "24d04d4049dc5b41d4650e7429ff5a1298f6219ba0c409cf580e013901f59dd2"


class TestProtocolBlocks:
    def test_outputs_pinned(self):
        """Honest and one-user-garbage blocks: every pair's round count,
        decode_21 under constant and decreasing radii (k=2 law, and each
        pair's block), decode_k1 and gstar_sequence, each output's kind,
        dtype, shape and bytes."""
        h = hashlib.sha256()

        def put(kind, payload):
            a = np.asarray(payload)
            h.update(f"{kind}|{a.dtype}|{a.shape}|".encode() + a.tobytes())

        def radii(up):
            m = up.axes[0].size * up.axes[1].size + 1
            return [0.1] * m, [0.25 / (r + 1) for r in range(m)]

        for li, p in enumerate(protocol_laws()):
            pf = p.to_float()
            cu = common_upgrade(p)
            up = upgrade_to_saturation(p) if p.k == 3 else None
            for pu in cu.pairs:
                put("rounds", len(pu.upgrade.rounds))
            if up is not None:
                put("rounds", len(up.rounds))
            for seed in (1, 2):
                blk = sample_iid(pf, 1500, seed=derive_seed(7100, li, seed))
                rng = philox(derive_seed(7200, li, seed))
                garbage = blk.replace_users(
                    {1: rng.integers(0, p.axes[1].size, blk.n).astype(np.int64)})
                for b in (blk, garbage):
                    if up is not None:
                        for gammas in radii(up):
                            put(*decode_21(up, b, gammas))
                    for pu in cu.pairs:
                        pair_b = SampleBlock.from_cells(pu.upgrade.axes,
                                                        np.take(pu.pair_cell, b.cells))
                        put(*decode_21(pu.upgrade, pair_b, radii(pu.upgrade)[1]))
                    put(*decode_k1(cu, b))
                    put("gstar", gstar_sequence(cu, b))
        assert h.hexdigest() == PROTOCOL_OUTPUTS

    def test_protocols_do_not_saturate(self, monkeypatch):
        p = random_pmf((2, 2, 2, 2), seed=73, zero_frac=0.3, max_weight=3)
        cu = common_upgrade(p)
        up = cu.pairs[0].upgrade
        blk = sample_iid(p.to_float(), 500, seed=5)
        pair_blk = SampleBlock.from_cells(up.axes, np.take(cu.pairs[0].pair_cell, blk.cells))
        calls = []
        for name in ("upgrade_to_saturation", "common_upgrade"):
            monkeypatch.setattr(mss, name, lambda *a, name=name: calls.append(name))
        decode_k1(cu, blk)
        decode_k1(cu, blk.replace_users({2: np.zeros(blk.n, dtype=np.int64)}))
        decode_21(up, pair_blk, [0.1] * 5)
        assert calls == []

    def test_block_axes_checked(self):
        p = random_pmf((2, 2, 2, 2), seed=73)
        cu = common_upgrade(p)
        other = (Alphabet.of_size(3),) + p.axes[1:]
        wrong = SampleBlock.from_cells(other, np.zeros(4, dtype=np.int64))
        with pytest.raises(ProbabilityError, match="decode_k1: the block's axes"):
            decode_k1(cu, wrong)
        with pytest.raises(ProbabilityError, match="gstar_sequence: the block's axes"):
            gstar_sequence(cu, wrong)
        with pytest.raises(ProbabilityError, match="decode_21: the block's axes"):
            decode_21(cu.pairs[0].upgrade, wrong, [0.1] * 5)
        with pytest.raises(ProbabilityError, match="the block's axes"):
            gstar_sequence(cu, np.zeros(4, dtype=np.int64))
        # rows name no out-of-range symbol: the block refuses them
        with pytest.raises(ProbabilityError, match="user 0 sequence has out-of-range"):
            SampleBlock(p.axes, np.array([[-1], [0], [0]]), np.array([0]))


def factor_law(k: int, seed: int):
    """Binary law a(x_S) * b(x_not S) on a random split S of the k + 1
    axes, 30% of each integer factor's cells zeroed."""
    rng = philox(seed)
    m = k + 1
    split = np.zeros(m, dtype=bool)
    while not 0 < split.sum() < m:
        split = rng.random(m) < 0.5
    shape = (2,) * m
    a, b = (rng.integers(1, 5, size=shape) * (rng.random(shape) >= 0.3) for _ in range(2))
    cells = np.indices(shape).reshape(m, -1)
    w = (a[tuple(np.where(split[:, None], cells, 0))]
         * b[tuple(np.where(~split[:, None], cells, 0))])
    if not w.any():
        w[0] = 1
    total = int(w.sum())
    mass = np.array([Fraction(int(x), total) for x in w], dtype=object)
    return JointPmf((Alphabet.binary(),) * m, mass.reshape(shape))


def joined_support_classes(p, labellings):
    """Support cells joined when any labelling gives them one label: each
    cell's class is the least cell of its component."""
    flat = p.mass.reshape(-1)
    cls = {s: s for s in range(flat.size) if flat[s] > 0}
    changed = True
    while changed:
        changed = False
        for lab in labellings:
            low: dict = {}
            for s, c in cls.items():
                low[lab[s]] = min(low.get(lab[s], c), c)
            for s in cls:
                if cls[s] != low[lab[s]]:
                    cls[s], changed = low[lab[s]], True
    return cls


class TestThresholdOneOracle:
    def test_k3_verdict_is_constancy_on_composite_side_classes(self):
        """At threshold 1, f is viable iff it is constant on the support
        classes joined by every pair's Y* over the composite side
        (Y, X_rest), read through the pair's cell table."""
        st = AdversaryStructure.threshold(3, 1)
        both = {True: 0, False: 0}
        for t in range(60):
            p = factor_law(3, derive_seed(5000, t))
            labellings = [np.take(pu.upgrade.ystar_labels, pu.pair_cell)
                          for pu in common_upgrade(p).pairs]
            cls = joined_support_classes(p, labellings)
            rng = philox(derive_seed(5100, t))
            tables = [rng.integers(0, 2, size=p.mass.shape)] + [lab % 2 for lab in labellings]
            for table in tables:
                f = TargetFunction(p.axes, Alphabet.binary(), table.reshape(p.mass.shape))
                value: dict = {}
                flat = f.table.reshape(-1)
                constant = all(value.setdefault(c, flat[s]) == flat[s] for s, c in cls.items())
                verdict = check_viability(p, f, st).viable
                assert verdict == constant, t
                both[verdict] += 1
        assert both[True] >= 50 and both[False] >= 50
