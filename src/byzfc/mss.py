"""Minimal sufficient statistics and side-information upgrading.

The single-corruption machinery: partition a sender's alphabet by
identical conditional rows toward the receiver, iteratively upgrade the
receiver's side information with both senders' partitions until the
process saturates, and run the pairwise / k-user decoding protocols whose
output is the maximum (resp. common) upgraded variable.  Doubles as the
independent oracle for the LP viability checker at threshold 1, so the
upgrades take exact laws only and compare conditional rows exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

import numpy as np

from .probability import Alphabet, JointPmf, ProbabilityError, SampleBlock, cell_table, zero_mass
from .structures import TargetFunction


@dataclass(frozen=True)
class Partition:
    """Partition of an alphabet; class labels are contiguous from 0."""

    alphabet: Alphabet
    class_of: np.ndarray
    class_count: int

    def __post_init__(self):
        cls = self.class_of
        if cls.shape != (self.alphabet.size,):
            raise ProbabilityError("class_of must label every symbol")
        seen = np.unique(cls)
        if not np.array_equal(seen, np.arange(self.class_count)):
            raise ProbabilityError("class labels must be contiguous and all used")

    def refines(self, other: "Partition") -> bool:
        """Equal labels here imply equal labels in ``other``."""
        mapping: dict[int, int] = {}
        for s in range(self.alphabet.size):
            mine, theirs = int(self.class_of[s]), int(other.class_of[s])
            if mine in mapping and mapping[mine] != theirs:
                return False
            mapping[mine] = theirs
        return True

    def __eq__(self, other) -> bool:
        return (isinstance(other, Partition)
                and self.alphabet == other.alphabet
                and np.array_equal(self.class_of, other.class_of))

    def __hash__(self):
        raise TypeError("Partition is not hashable")


def _canonicalize(raw: Sequence) -> tuple[np.ndarray, int]:
    """Relabel arbitrary keys to contiguous ints by first appearance."""
    seen: dict = {}
    out = np.empty(len(raw), dtype=np.int64)
    for i, key in enumerate(raw):
        if key not in seen:
            seen[key] = len(seen)
        out[i] = seen[key]
    return out, len(seen)


def _roots(n: int, edges) -> list[int]:
    """Union-find over range(n): each item's root, the least item joined to it."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(a) for a in range(n)]


def _partition_rows(joint: np.ndarray) -> tuple[np.ndarray, int]:
    """Group row indices of an exact (n_rows, n_cols) joint-mass matrix by
    their conditional rows; zero-mass rows become singleton classes."""
    keys: list = []
    for i, row in enumerate(joint):
        tot = row.sum()
        keys.append(("zero", i) if tot == 0 else tuple(v / tot for v in row))
    return _canonicalize(keys)


def mss_partition(p: JointPmf) -> Partition:
    """Partition of the first axis by identical conditional rows P(V|U=u)."""
    if p.k != 2:
        raise ProbabilityError("mss_partition expects a two-axis pmf")
    labels, count = _partition_rows(p.mass)
    return Partition(p.axes[0], labels, count)


@dataclass(frozen=True)
class UpgradeRound:
    """State after computing round r's partitions of both senders."""

    r: int
    labels: np.ndarray          # (|U|,|V|,|W|) -> current side-info class
    label_count: int
    psi_u: Partition
    psi_v: Partition
    joint_u: np.ndarray         # (|U|, label_count) joint mass of (U, W^(r))
    joint_v: np.ndarray


@dataclass(frozen=True)
class MaxUpgrade:
    axes: tuple[Alphabet, ...]   # the law's (U, V, W)
    rounds: tuple[UpgradeRound, ...]
    ystar_labels: np.ndarray     # (|U|,|V|,|W|) -> class of (W, psi*_U, psi*_V)
    ystar_count: int

    @property
    def psi_u(self) -> Partition:
        return self.rounds[-1].psi_u

    @property
    def psi_v(self) -> Partition:
        return self.rounds[-1].psi_v

    @property
    def saturation_round(self) -> int:
        return self.rounds[-1].r


def _joint_with_labels(mass: np.ndarray, labels: np.ndarray, count: int,
                       axis: int) -> np.ndarray:
    """Exact joint mass of (axis variable, label(u,v,w)) as a dense matrix."""
    out = zero_mass((mass.shape[axis], count))
    it = np.nditer(labels, flags=["multi_index"])
    for lab in it:
        idx = it.multi_index
        out[idx[axis], int(lab)] += mass[idx]
    return out


def upgrade_to_saturation(p: JointPmf) -> MaxUpgrade:
    """Iterate side-information upgrading until both partitions stabilize.

    Saturates after at most |U|*|V| rounds; every round's partitions refine
    the previous round's.
    """
    if p.k != 3:
        raise ProbabilityError("upgrade_to_saturation expects a three-axis pmf")
    nu, nv, nw = (a.size for a in p.axes)
    labels = np.empty((nu, nv, nw), dtype=np.int64)
    labels[:, :, :] = np.arange(nw)[None, None, :]
    count = nw
    rounds: list[UpgradeRound] = []
    bound = nu * nv
    for r in range(bound + 1):
        ju = _joint_with_labels(p.mass, labels, count, 0)
        jv = _joint_with_labels(p.mass, labels, count, 1)
        cu, ncu = _partition_rows(ju)
        cv, ncv = _partition_rows(jv)
        psi_u = Partition(p.axes[0], cu, ncu)
        psi_v = Partition(p.axes[1], cv, ncv)
        rounds.append(UpgradeRound(r, labels, count, psi_u, psi_v, ju, jv))
        if r > 0 and psi_u == rounds[r - 1].psi_u and psi_v == rounds[r - 1].psi_v:
            break
        flat, count = _canonicalize([(int(labels[u, v, w]), int(cu[u]), int(cv[v]))
                                     for u, v, w in product(range(nu), range(nv), range(nw))])
        labels = flat.reshape(nu, nv, nw)
    else:
        raise ProbabilityError("upgrading failed to saturate within the |U||V| bound")

    psi_u, psi_v = rounds[-1].psi_u, rounds[-1].psi_v
    flat, ycount = _canonicalize([(w, int(psi_u.class_of[u]), int(psi_v.class_of[v]))
                                  for u, v, w in product(range(nu), range(nv), range(nw))])
    return MaxUpgrade(axes=p.axes, rounds=tuple(rounds), ystar_labels=flat.reshape(nu, nv, nw),
                      ystar_count=ycount)


def _class_joint(p: JointPmf, up: MaxUpgrade) -> np.ndarray:
    """Joint mass of (psi_U(U), U, (psi_V(V), W)), the last as psi_V * |W| + w."""
    nu, nv, nw = p.mass.shape
    cu, cv = up.psi_u.class_of, up.psi_v.class_of
    joint = zero_mass((up.psi_u.class_count, nu, up.psi_v.class_count * nw))
    for u, v, w in product(range(nu), range(nv), range(nw)):
        joint[cu[u], u, cv[v] * nw + w] += p.mass[u, v, w]
    return joint


def markov_residual(p: JointPmf, up: MaxUpgrade) -> float:
    """Conditional mutual information I(U; (psi_V(V), W) | psi_U(U)), nats."""
    total = 0.0
    for block in _class_joint(p, up).astype(np.float64):
        pa = block.sum()
        if pa <= 0:
            continue
        pu = block.sum(axis=1)
        pb = block.sum(axis=0)
        for i, j in zip(*np.nonzero(block > 0)):
            total += block[i, j] * math.log(block[i, j] * pa / (pu[i] * pb[j]))
    return max(total, 0.0)


def markov_holds_exact(p: JointPmf, up: MaxUpgrade) -> bool:
    """Exact factorization check of U  <->  psi_U(U)  <->  (psi_V(V), W)."""
    for block in _class_joint(p, up):
        pa = block.sum()
        if pa == 0:
            continue
        pu = block.sum(axis=1)
        pb = block.sum(axis=0)
        if any(block[i, j] * pa != pu[i] * pb[j] for i, j in np.ndindex(block.shape)):
            return False
    return True


# -- protocols ---------------------------------------------------------------


def _check_block(axes: tuple[Alphabet, ...], block: SampleBlock, who: str) -> None:
    if not isinstance(block, SampleBlock) or block.axes != axes:
        raise ProbabilityError(f"{who}: the block's axes are not the law's")


def decode_21(up: MaxUpgrade, block: SampleBlock, gammas: Sequence[float]) -> tuple[str, object]:
    """Pairwise robust decoding with per-round typicality checks.

    ``up`` is the saturated upgrade of the block's law, computed once by
    ``upgrade_to_saturation``.  Returns ("blame", 0) / ("blame", 1) naming
    the first or second sender, or ("labels", array) with the per-letter
    classes of the maximum upgraded variable.  ``gammas`` holds one TV
    radius per round, |U||V| + 1 of them.
    """
    _check_block(up.axes, block, "decode_21")
    nu, nv = up.axes[0].size, up.axes[1].size
    if len(gammas) != nu * nv + 1:
        raise ProbabilityError(f"need {nu * nv + 1} per-round tolerances, got {len(gammas)}")
    n = block.n
    u_seq, v_seq = block.user_seqs
    # each round's TV distance of (sender, label) from its law, both senders;
    # rounds past saturation repeat the last one
    dists = []
    for rnd in up.rounds:
        lab_seq = np.take(rnd.labels, block.cells)
        dists.append([0.5 * np.abs(np.bincount(seq * rnd.label_count + lab_seq,
                                               minlength=joint.size).reshape(joint.shape) / n
                                   - joint.astype(np.float64)).sum()
                      for seq, joint in ((u_seq, rnd.joint_u), (v_seq, rnd.joint_v))])
    for r, gamma in enumerate(gammas):
        for sender, dist in enumerate(dists[min(r, len(dists) - 1)]):
            if dist > gamma:
                return ("blame", sender)
    return ("labels", np.take(up.ystar_labels, block.cells))


@dataclass(frozen=True)
class PairUpgrade:
    """Saturated upgrade for users (i, j) with composite side (Y, X_rest)."""

    i: int
    j: int
    pmf3: JointPmf
    upgrade: MaxUpgrade
    pair_cell: np.ndarray    # full cell -> cell of pmf3, coordinates (i, j, Y, rest)
    ystar_full: np.ndarray   # labels over the full (x_[k], y) space
    ystar_full_count: int


def pair_upgrade(p: JointPmf, i: int, j: int) -> PairUpgrade:
    """The pair's law P_{X_i, X_j, (Y, X_rest)}, saturated."""
    k = p.k - 1
    sizes = tuple(a.size for a in p.axes)
    order = (i, j, k, *(c for c in range(k) if c not in (i, j)))
    # the composite (Y, X_rest) axis, numbered in pair_cell order
    comp = Alphabet.of_size(int(np.prod([sizes[c] for c in order[2:]])))
    pm3 = JointPmf((p.axes[i], p.axes[j], comp),
                   np.transpose(p.mass, axes=order).reshape(sizes[i], sizes[j], comp.size))
    up = upgrade_to_saturation(pm3)
    pair_cell = np.ravel_multi_index(cell_table(sizes)[list(order)], [sizes[c] for c in order])
    flat, cnt = _canonicalize([(full[k], int(up.psi_u.class_of[full[i]]),
                                int(up.psi_v.class_of[full[j]]))
                               for full in product(*(range(s) for s in sizes))])
    return PairUpgrade(i=i, j=j, pmf3=pm3, upgrade=up, pair_cell=pair_cell,
                       ystar_full=flat.reshape(sizes), ystar_full_count=cnt)


@dataclass(frozen=True)
class CommonUpgrade:
    """The common upgraded variable: finest labeling that every pairwise
    maximum upgrade determines (multi-variable Gacs-Korner common part,
    computed as connected components over the source support)."""

    axes: tuple[Alphabet, ...]   # the law's (X_1, ..., X_k, Y)
    pairs: tuple[PairUpgrade, ...]
    gstar: np.ndarray            # labels over the full (x_[k], y) space
    gstar_count: int


def common_upgrade(p: JointPmf) -> CommonUpgrade:
    k = p.k - 1
    if k < 2:
        raise ProbabilityError("common upgrade needs at least two users")
    pairs = tuple(pair_upgrade(p, i, j) for i, j in combinations(range(k), 2))
    sizes = tuple(a.size for a in p.axes)
    flat_size = int(np.prod(sizes))
    supp = [int(np.ravel_multi_index(idx, sizes)) for idx in p.support_idx()]

    def edges():
        # support cells with one pair's Y* label are joined to the label's first cell
        for pu in pairs:
            first: dict[int, int] = {}
            lab_flat = pu.ystar_full.reshape(-1)
            for s in supp:
                yield first.setdefault(int(lab_flat[s]), s), s

    roots = _roots(flat_size, edges())
    supp_set = set(supp)
    flat, cnt = _canonicalize([("s", roots[s]) if s in supp_set else ("off", s)
                               for s in range(flat_size)])
    return CommonUpgrade(axes=p.axes, pairs=pairs, gstar=flat.reshape(sizes), gstar_count=cnt)


def gstar_sequence(cu: CommonUpgrade, block: SampleBlock) -> np.ndarray:
    """G* of each observation of a block over the law's axes."""
    _check_block(cu.axes, block, "gstar_sequence")
    return np.take(cu.gstar, block.cells)


# decode_k1's TV radius in every round of every pairwise decode
DECODE_K1_GAMMA = 0.1


def decode_k1(cu: CommonUpgrade, block: SampleBlock) -> tuple[str, object]:
    """Exoneration-loop decoder for any k with at most one corrupt user.

    ``cu`` is the block's law's ``common_upgrade``, computed once.  Runs
    the pairwise decoder, on the pair's saturated upgrade, for the two
    lowest-indexed unexonerated users, with every other user's report
    folded into the side information.  A successful pairwise decode yields
    the common upgraded variable; a blame with only two candidates left is
    final.
    """
    _check_block(cu.axes, block, "decode_k1")
    k = block.k
    trusted: set[int] = set()
    while True:
        i, j = [u for u in range(k) if u not in trusted][:2]
        pu = next(q for q in cu.pairs if (q.i, q.j) == (i, j))
        up = pu.upgrade
        pair_block = SampleBlock.from_cells(up.axes, np.take(pu.pair_cell, block.cells))
        kind, payload = decode_21(up, pair_block,
                                  [DECODE_K1_GAMMA] * (up.axes[0].size * up.axes[1].size + 1))
        if kind == "labels":
            # each Y* class -> G* class; G* is constant on a class over the support
            supp = np.flatnonzero(np.take(pu.pmf3.mass, pu.pair_cell) > 0)
            h = np.zeros(up.ystar_count, dtype=np.int64)
            h[np.take(up.ystar_labels, pu.pair_cell[supp])] = np.take(cu.gstar, supp)
            return ("estimate", h[payload])
        blamed = i if payload == 0 else j
        other = j if payload == 0 else i
        if len(trusted) == k - 2:
            return ("blame", blamed)
        trusted.add(other)


def is_function_of_ystar(p: JointPmf, f: TargetFunction) -> bool:
    """Two-user characterization: f is determined by the maximum upgrade.

    True iff f is constant on every class of the Y* labeling restricted to
    the support of P.
    """
    if p.k != 3:
        raise ProbabilityError("is_function_of_ystar expects exactly two users")
    if tuple(f.domain_axes) != p.axes:
        raise ProbabilityError("function domain does not match the pmf")
    up = upgrade_to_saturation(p)
    value: dict[int, int] = {}
    for idx in p.support_idx():
        lab = int(up.ystar_labels[idx])
        fv = int(f.table[idx])
        if value.setdefault(lab, fv) != fv:
            return False
    return True
