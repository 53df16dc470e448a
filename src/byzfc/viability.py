"""Deciding robust recoverability and constructing repaired decoding tables.

A function is viable for an adversary structure when, for every
non-intersecting collection of adversary sets, no two scenarios can
explain one reported-view distribution while implying different function
values with positive probability.  The feasibility region for a
collection is parametrized by one row-stochastic channel per member with
pairwise equal induced views; constraints (a) and (b) of the underlying
definition force every scenario marginal into exactly this form, and any
family of such marginals extends to a full joint by conditional-product
coupling.  Verdicts are decided by rank certificates, mod 2 then mod a
prime, and otherwise by the exact rational simplex; violations are returned as fully materialized joints that an independent
verifier re-checks against the definition directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Sequence

import numpy as np

from .polytope import ChannelTables, ChannelVars
from .probability import Alphabet, JointPmf, is_integer, zero_mass
from .simplex import (LPError, Tableau, full_rank_mod_2, positive_coordinates,
                      unique_point)
from .structures import (AdversaryStructure, Collection, TargetFunction,
                         canonical_collection, is_nonintersecting, nonintersecting_collections)


class ViabilityInputError(ValueError):
    """Bad inputs (mismatched axes, malformed tables, ...)."""


class GBuildConflict(RuntimeError):
    """build_g found two feasible explanations with different f-values.

    Signals a non-viable input; carries the conflicting pair for
    diagnosis.
    """

    def __init__(self, view, detail_a, detail_b):
        super().__init__(f"conflicting explanations at view {view}: {detail_a} vs {detail_b}")
        self.view = view
        self.details = (detail_a, detail_b)


@dataclass(frozen=True)
class ViolationWitness:
    """Certified failure of the viability equality on one collection.

    ``joint`` is the full joint pmf over the reported view, side
    information and every scenario's true values; ``point`` indexes a
    tuple of positive mass where scenarios ``pair`` imply different
    function values.
    """

    collection: Collection
    joint: JointPmf
    point: tuple[int, ...]
    pair: tuple[int, int]
    f_values: tuple
    k: int

    def view_point(self) -> tuple[int, ...]:
        return self.point[: self.k + 1]

    def member_coords(self, member: int) -> tuple[int, ...]:
        return tuple(sorted(self.collection[member]))

    def member_block(self, member: int) -> tuple[int, ...]:
        """Axis positions of scenario ``member``'s true values in the joint."""
        off = self.k + 1
        for m in range(member):
            off += len(self.collection[m])
        return tuple(range(off, off + len(self.collection[member])))

    def scenario_truth(self, member: int) -> tuple[int, ...]:
        block = self.member_block(member)
        return tuple(self.point[a] for a in block)


@dataclass(frozen=True)
class ViabilityReport:
    viable: bool
    witness: ViolationWitness | None = None

    def __post_init__(self):
        if not self.viable and self.witness is None:
            raise ValueError("non-viable report requires a witness")
        if self.viable and self.witness is not None:
            raise ValueError("viable report carries no witness")


class GTable(TargetFunction):
    """Repaired decoding function for one collection.

    Agrees with f on the source support; ``defined_mask`` marks entries
    pinned by the construction (reachable views) versus copied from f.
    Its JSON is the function's plus ``collection`` and ``defined``.
    """

    __slots__ = ("collection", "defined_mask")

    def __init__(self, domain_axes: Sequence[Alphabet], codomain: Alphabet, table,
                 collection: Collection, defined_mask):
        super().__init__(domain_axes, codomain, table)
        self.collection = tuple(collection)
        self.defined_mask = np.asarray(defined_mask, dtype=bool).reshape(self.table.shape)

    def __eq__(self, other) -> bool:
        return (super().__eq__(other) and isinstance(other, GTable)
                and self.collection == other.collection
                and bool(np.array_equal(self.defined_mask, other.defined_mask)))

    def to_json_dict(self) -> dict:
        return {"collection": [sorted(s) for s in self.collection], **super().to_json_dict(),
                "defined": [bool(v) for v in self.defined_mask.reshape(-1)]}

    @staticmethod
    def from_json_dict(d: dict) -> "GTable":
        """Parse a g-table, members in canonical order; a ``defined`` list
        that is not one JSON boolean per cell raises ViabilityInputError."""
        f, defined = TargetFunction.from_json_dict(d), d["defined"]
        if len(defined) != f.table.size or not all(isinstance(m, bool) for m in defined):
            raise ViabilityInputError("a g-table needs one boolean 'defined' entry per cell")
        return GTable(f.domain_axes, f.codomain, f.table, canonical_collection(d["collection"]),
                      defined)


class _Region:
    """Channel-parametrized feasibility region for one collection, settled
    where it is built.

    Variables are the entries W_m(out | row) for every member m, rows
    restricted to the support of P over the member's coordinates; member
    m's channel table is numbered from ``offsets[m]``.  Equalities: each
    row sums to 1; induced views match between adjacent members, as
    integer rows over P's common denominator ``den``.  ``tables`` holds the
    channel tables of P, shared by the regions of a verdict or config and
    filled as needed.

    Construction settles ``reach``, the variables positive at some point
    of the region; the identity is a point of every region.  A zero-fixing
    presolve on the tables' bit rows fixes the variables that structurally
    dead view points force to zero (LPError if it fixes one of the
    identity's).  The region is ``pinned``, its reach the identity's
    entries, when the row sums and the view-match rows have full rank mod 2
    on the other columns, or else when the dict rows ``A``, ``b`` over the
    unfixed ``alive_vars`` (``alive_index`` maps back, -1 for ``fixed``
    ones) have full rank mod a prime (LPError if the identity violates a
    row).  Any other region is solved by the tableau started at the
    identity.  Only the regions the bits leave open build dict rows.
    """

    def __init__(self, p: JointPmf, collection: Collection,
                 tables: ChannelTables | None = None):
        self.p = p
        self.collection = collection
        self.k = p.k - 1
        tables = ChannelTables(p) if tables is None else tables
        self.members: list[ChannelVars] = [tables[tuple(sorted(aset))] for aset in collection]
        self.offsets: list[int] = []
        nvar = 0
        for w in self.members:
            self.offsets.append(nvar)
            nvar += w.size
        self.nvar = nvar
        self.den = self.members[0].den
        placed = list(zip(self.members, self.offsets))
        pairs = list(zip(placed, placed[1:]))
        self._fixed_bits = fixed = self._presolve(
            [(b0 << off0, b1 << off1) for (w0, off0), (w1, off1) in pairs
             for b0, b1 in zip(w0.view_bits, w1.view_bits)])
        if sum(w.identity_bits << off for w, off in placed) & fixed:
            raise LPError("presolve fixed a coordinate of a feasible point")
        # a match row's two sides, mod 2, are the odd entries of both members
        rows = [bits << off for w, off in placed for bits in w.sum_bits]
        rows += [o0 << off0 | o1 << off1 for (w0, off0), (w1, off1) in pairs
                 for o0, o1 in zip(w0.odd_bits, w1.odd_bits)]
        self.pinned = full_rank_mod_2(rows, ((1 << nvar) - 1) & ~fixed)
        identity = self.identity_solution()
        if not self.pinned:
            self._build_rows()
            id_alive = [identity[v] for v in self.alive_vars]
            self.pinned = unique_point(self.A, self.b, id_alive)
        if self.pinned:
            self.reach = {v for v, x in enumerate(identity) if x > 0}
        else:
            # each identity column sits alone in its own row-sum row, so the
            # point's nonzero columns are independent and start the basis
            tableau = Tableau(self.A, self.b, len(self.alive_vars), start=id_alive)
            self.reach = {self.alive_vars[i] for i in positive_coordinates(
                tableau, range(len(self.alive_vars)), seeds=[id_alive])}

    @staticmethod
    def _presolve(matches: list[tuple[int, int]]) -> int:
        """The variables the view-match rows force to zero, as bits.

        A match row's first side has only positive coefficients, its second
        only negative ones, so once one side is fixed the other is too.
        """
        fixed = 0
        while True:
            rest = []
            for pos, neg in matches:
                if not pos & ~fixed:
                    fixed |= neg
                elif not neg & ~fixed:
                    fixed |= pos
                else:
                    rest.append((pos, neg))
            if len(rest) == len(matches):
                return fixed
            matches = rest

    def _build_rows(self) -> None:
        """The dict rows over the unfixed variables; emptied and repeated rows dropped."""
        fixed = self._fixed_bits
        self.fixed = {v for v in range(self.nvar) if fixed >> v & 1}
        self.alive_vars = [v for v in range(self.nvar) if not fixed >> v & 1]
        self.alive_index = index = [-1] * self.nvar
        for i, v in enumerate(self.alive_vars):
            index[v] = i
        placed = list(zip(self.members, self.offsets))
        sums = [row for w, off in placed for row in w.sum_rows(off)]
        matches = [{**w0.view_row(v, 1, off0), **w1.view_row(v, -1, off1)}
                   for (w0, off0), (w1, off1) in zip(placed, placed[1:]) for v in w0.at]
        self.A: list[dict[int, int]] = []
        self.b: list[int] = []
        seen: set[tuple] = set()
        # every row lists its variables in increasing order: a sum row walks
        # one input's outputs, and a match row member m's side, then m+1's;
        # no sum row is emptied, as each holds an unfixed identity coordinate
        for i, row in enumerate(sums + matches):
            items = tuple((j, c) for v, c in row.items() if (j := index[v]) >= 0)
            rhs = 1 if i < len(sums) else 0
            if items and (rhs, items) not in seen:
                seen.add((rhs, items))
                self.A.append(dict(items))
                self.b.append(rhs)

    # -- feasibility and support -----------------------------------------

    def identity_solution(self) -> list[int]:
        sol = [0] * self.nvar
        for w, off in zip(self.members, self.offsets):
            w.set_identity(sol, off)
        return sol

    def var(self, m: int, tx: tuple[int, ...], ux: tuple[int, ...]) -> int:
        """The region's variable W_m(ux | tx)."""
        return self.offsets[m] + self.members[m].var[(tx, ux)]

    def conflict_vertex(self, var_a: int, var_b: int) -> list[Fraction]:
        """Basic feasible point with both coordinates strictly positive.

        Solves max t subject to the region constraints and x_a >= t,
        x_b >= t; the optimum is positive whenever both coordinates are
        individually reachable (feasible points average), and the vertex
        of the lifted system is the reproducible witness the reports carry.
        Phase 1's artificial columns do not scale with their rows, so its
        path, and the vertex, depend on each row's scale: each row goes in
        as the least integer multiple of its P-valued form (the row over
        ``den``), the row divided by the gcd of ``den`` and its entries.
        Runs only on a region the bits leave open, whose dict rows exist: a
        region the bits pin has no conflict.
        """
        ia = self.alive_index[var_a]
        ib = self.alive_index[var_b]
        if ia < 0 or ib < 0:
            raise LPError("conflict coordinate was presolved away")
        nv = len(self.alive_vars)
        A, b = [], []
        for row, rhs in zip(self.A, self.b):
            g = gcd(self.den, rhs, *row.values())
            A.append({j: v // g for j, v in row.items()})
            b.append(rhs // g)
        A += [{ia: 1, nv: -1, nv + 1: -1}, {ib: 1, nv: -1, nv + 2: -1}]
        t = Tableau(A, b + [0, 0], nv + 3)
        c = [0] * (nv + 3)
        c[nv] = 1
        opt = t.maximize(c)
        if opt <= 0:
            raise LPError("conflict coordinates are not simultaneously reachable")
        sol_alive = t.solution()
        full = [0] * self.nvar
        for v, x in zip(self.alive_vars, sol_alive):
            full[v] = x
        return full

    def explanations(self, v: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        """Scenario truths (member, tx) that can carry positive mass at view v."""
        return [(m, tx) for m, (w, off) in enumerate(zip(self.members, self.offsets))
                for tx, var, _ in w.at[v] if off + var in self.reach]


def _f_at(f: TargetFunction, v: tuple[int, ...], coords: tuple[int, ...],
          tx: tuple[int, ...]) -> int:
    full = list(v)
    for pos, c in enumerate(coords):
        full[c] = tx[pos]
    return int(f.table[tuple(full)])


def _materialize_witness(region: _Region, f: TargetFunction, v: tuple[int, ...],
                         a: tuple[int, tuple[int, ...]], b: tuple[int, tuple[int, ...]],
                         ) -> ViolationWitness:
    p = region.p
    k = region.k
    collection = region.collection
    members = region.members
    den = region.den
    wa, wb = members[a[0]], members[b[0]]
    var_a = region.var(a[0], a[1], tuple(v[c] for c in wa.coords))
    var_b = region.var(b[0], b[1], tuple(v[c] for c in wb.coords))
    sol = region.conflict_vertex(var_a, var_b)
    # member m's joint numerator at view vp and input tx is num * W_m(vp | tx),
    # and den * P_view(vp) is member 0's sum of them (its offset is 0)
    placed = list(zip(members, region.offsets))

    joint_axes = tuple(p.axes) + tuple(p.axes[c] for w in members for c in w.coords)
    mass = zero_mass(tuple(ax.size for ax in joint_axes))

    for vp, at0 in members[0].at.items():
        dpv = sum(num * sol[var] for _, var, num in at0)
        if dpv == 0:
            continue
        pv = Fraction(dpv, den)
        posts = []
        for w, off in placed:
            post = []
            for tx, var, num in w.at[vp]:
                joint_num = num * sol[off + var]
                if joint_num > 0:
                    post.append((tx, joint_num / dpv))
            posts.append(post)
        for combo in product(*posts):
            weight = pv
            idx: list[int] = list(vp)
            for tx, pr in combo:
                weight *= pr
                idx.extend(tx)
            mass[tuple(idx)] = mass[tuple(idx)] + weight
    joint = JointPmf(joint_axes, mass)

    point: list[int] = list(v)
    for m, (w, off) in enumerate(placed):
        if m == a[0]:
            point.extend(a[1])
        elif m == b[0]:
            point.extend(b[1])
        else:
            chosen = next((tx for tx, var, num in w.at[v] if num * sol[off + var] > 0), None)
            if chosen is None:
                raise LPError("view point lost its explanation during averaging")
            point.extend(chosen)

    fa = f.codomain.symbols[_f_at(f, v, wa.coords, a[1])]
    fb = f.codomain.symbols[_f_at(f, v, wb.coords, b[1])]
    return ViolationWitness(collection=collection, joint=joint, point=tuple(point),
                            pair=(a[0], b[0]), f_values=(fa, fb), k=k)


def _scan_collection(region: _Region, f: TargetFunction,
                     ) -> tuple[int, tuple, int, tuple, tuple] | None:
    """First f-conflict between two scenarios of the collection, or None.

    None at once when the identity is the region's only point: every
    explanation at a view v is then the truth v itself, one f-value."""
    if region.pinned:
        return None
    for v in region.members[0].at:
        expl = region.explanations(v)
        if len(expl) < 2:
            continue
        by_member: dict[int, list[tuple[tuple[int, ...], int]]] = {}
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


def _validate(p: JointPmf, f: TargetFunction, k: int) -> None:
    if p.k != k + 1:
        raise ViabilityInputError(f"pmf covers {p.k} axes, structure expects {k + 1}")
    if tuple(f.domain_axes) != p.axes:
        raise ViabilityInputError("function domain does not match the pmf axes")


def check_viability(p: JointPmf, f: TargetFunction,
                    structure: AdversaryStructure) -> ViabilityReport:
    """Decide whether f is robustly recoverable under the structure.

    Exhaustive over non-intersecting collections in canonical order; the
    first violation is returned as a materialized witness.  A collection
    with three members that can each be dropped keeping it non-intersecting
    is skipped: each pair of its scenarios lies in an earlier, smaller such
    collection, and conflicts only shrink when members are added
    (restricting a matched family to a sub-collection stays feasible).
    """
    _validate(p, f, structure.k)
    tables = ChannelTables(p)
    for col in nonintersecting_collections(structure):
        if not _needs_solving(col):
            continue
        region = _Region(p, col, tables)
        hit = _scan_collection(region, f)
        if hit is not None:
            ma, tx_a, mb, tx_b, v = hit
            witness = _materialize_witness(region, f, v, (ma, tx_a), (mb, tx_b))
            return ViabilityReport(viable=False, witness=witness)
    return ViabilityReport(viable=True)


def _needs_solving(col: Collection) -> bool:
    """Whether at most two members can be dropped leaving the rest non-intersecting."""
    return sum(not frozenset.intersection(*col[:i], *col[i + 1:]) for i in range(len(col))) <= 2


def check_s_viability(p: JointPmf, f: TargetFunction, s: int) -> ViabilityReport:
    """Threshold special case: structure = all subsets of size <= s."""
    k = p.k - 1
    return check_viability(p, f, AdversaryStructure.threshold(k, s))


def build_g(p: JointPmf, f: TargetFunction, collection: Collection, *,
            tables: ChannelTables | None = None) -> GTable:
    """Repaired decoding table for one non-intersecting collection.

    Pins every view point reachable by some matched channel family to the
    (unique, when f is viable) function value of a positive-posterior
    scenario truth; unreachable points copy f.  An f-conflict between two
    scenarios, found by the verdict's own scan, raises GBuildConflict.
    """
    _validate(p, f, p.k - 1)
    # checked before the sets are built, where True would stand for user 1
    members = [list(s) for s in collection]
    if any(not is_integer(u) or not 0 <= u < p.k - 1 for s in members for u in s):
        raise ViabilityInputError(f"collection members must be users 0..{p.k - 2}")
    collection = tuple(frozenset(s) for s in members)
    if not is_nonintersecting(collection):
        raise ViabilityInputError(
            "collection must be >= 2 distinct non-empty sets with empty intersection")
    region = _Region(p, collection, tables)
    hit = _scan_collection(region, f)
    if hit is not None:
        ma, tx_a, mb, tx_b, v = hit
        fa, fb = (f.codomain.symbols[_f_at(f, v, region.members[m].coords, tx)]
                  for m, tx in ((ma, tx_a), (mb, tx_b)))
        raise GBuildConflict(v, ((ma, tx_a), fa), ((mb, tx_b), fb))
    table = f.table.copy()
    mask = np.zeros(table.shape, dtype=bool)
    for v in region.members[0].at:
        expl = region.explanations(v)
        if expl:
            m, tx = expl[0]
            table[v] = _f_at(f, v, region.members[m].coords, tx)
            mask[v] = True
    return GTable(collection=collection, domain_axes=tuple(p.axes),
                  codomain=f.codomain, table=table, defined_mask=mask)


# -- independent witness verification (Definition route) -------------------

def verify_witness(witness: ViolationWitness, p: JointPmf, f: TargetFunction) -> None:
    """Re-verify a witness directly against the viability definition.

    Checks, in exact arithmetic: (a) each scenario's
    (truth, honest-reports, side-info) marginal equals P; (b) the Markov
    constraint in cross-multiplied form
    Q(ux_A, tx_A, ux_rest, y) * P_A(tx_A) = Q(ux_A, tx_A) * P(<tx_A, ux_rest>, y);
    and that the conflicting point has positive mass with differing
    f-values.  Raises AssertionError on any failure.  This path shares no
    code with the channel-parametrized solver.
    """
    joint = witness.joint
    k = witness.k
    kk = k + 1
    assert joint.mass[witness.point] > 0, "conflicting point has zero mass"

    va = _f_at(f, witness.view_point(), witness.member_coords(witness.pair[0]),
               witness.scenario_truth(witness.pair[0]))
    vb = _f_at(f, witness.view_point(), witness.member_coords(witness.pair[1]),
               witness.scenario_truth(witness.pair[1]))
    assert va != vb, "witness point does not conflict"

    for m in range(len(witness.collection)):
        coords = witness.member_coords(m)
        block = witness.member_block(m)
        rest = tuple(c for c in range(kk) if c not in coords)
        # (a): marginal over <tx_A, ux_rest, y> equals P
        marg = joint.marginalize(rest + block)
        for full_idx in product(*(range(a.size) for a in p.axes)):
            tx = tuple(full_idx[c] for c in coords)
            others = tuple(full_idx[c] for c in rest)
            assert marg.mass[others + tx] == p.mass[full_idx], \
                f"scenario {m} constraint (a) fails at {full_idx}"
        # (b): cross-multiplied Markov constraint
        q4 = joint.marginalize(tuple(range(kk)) + block)
        q2 = joint.marginalize(coords + block)
        p_a = p.marginalize(coords)
        for full_idx in product(*(range(a.size) for a in p.axes)):
            ux_a = tuple(full_idx[c] for c in coords)
            for tx in product(*(range(p.axes[c].size) for c in coords)):
                lhs = q4.mass[full_idx + tx] * p_a.mass[tx]
                src = list(full_idx)
                for pos, c in enumerate(coords):
                    src[c] = tx[pos]
                rhs = q2.mass[ux_a + tx] * p.mass[tuple(src)]
                assert lhs == rhs, f"scenario {m} constraint (b) fails at {full_idx}, {tx}"
