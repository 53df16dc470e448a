"""Deciding robust recoverability and constructing repaired decoding tables.

A function is viable for an adversary structure when, for every
non-intersecting collection of adversary sets, no two scenarios can
explain one reported-view distribution while implying different function
values with positive probability.  The feasibility region for a
collection is parametrized by one row-stochastic channel per member with
pairwise equal induced views; constraints (a) and (b) of the underlying
definition force every scenario marginal into exactly this form, and any
family of such marginals extends to a full joint by conditional-product
coupling.  Verdicts are decided from the regions already pinned, by a
rank certificate mod 2, then by an integer dual certificate, and otherwise
by the exact rational simplex;
violations are returned as fully materialized joints that an independent
verifier re-checks against the definition directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations, product
from math import gcd, lcm
from typing import Sequence

import numpy as np

from .polytope import ChannelVars, law_ints
from .probability import Alphabet, JointPmf, integer_mass, is_integer, json_list, zero_mass
from .simplex import (LPError, Tableau, dual_certificate, full_rank_mod_2,
                      positive_coordinates)
from .structures import (AdversaryStructure, Collection, TargetFunction,
                         canonical_collection, is_nonintersecting, nonintersecting_collections)


class ViabilityInputError(ValueError):
    """Bad inputs (mismatched axes, malformed tables, ...)."""


class GBuildConflict(RuntimeError):
    """Two feasible explanations of one view with different f-values.

    Signals a non-viable input; carries the conflicting pair, each as
    ((member, tx), f-value), for diagnosis and for the witness.
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
        that is not one JSON boolean per cell raises ViabilityInputError, and
        a ``collection`` that is not a list of lists ProbabilityError."""
        f, defined = TargetFunction.from_json_dict(d), d["defined"]
        if len(defined) != f.table.size or not all(isinstance(m, bool) for m in defined):
            raise ViabilityInputError("a g-table needs one boolean 'defined' entry per cell")
        collection = canonical_collection(json_list(s, "adversary set") for s in
                                          json_list(d["collection"], "g-table collection"))
        return GTable(f.domain_axes, f.codomain, f.table, collection, defined)


class _Region:
    """Channel-parametrized feasibility region for one collection, settled
    where it is built.

    Variables are the entries W_m(out | row) for every member m, rows
    restricted to the support of P over the member's coordinates; member
    m's channel table is numbered from ``offsets[m]``.  Equalities: each
    row sums to 1; induced views match between adjacent members, as
    integer rows over P's common denominator ``den``.  The member tables
    are the store's, shared by every region of the law.

    Construction settles ``reach``, the variables positive at some point
    of the region; the identity, whose entries are ``identity``, is a point
    of every region.  A collection C of three or more members is ``pinned``,
    route "pairs", by the store's records alone when two of its members,
    S_a and S_b, form a pair whose region the store pinned and each member
    belongs to some region the store pinned.  At a point of R(C), C's
    region, every member's view is one view; (W_a, W_b) is then a point of
    R({S_a, S_b}), on the same tables and constraints, so both are the
    identity and that view is P.  Each other member m then has a channel W_m
    whose view is P; with the identity on the other members of a pinned
    region C' that holds S_m, all views are P, a point of R(C'), so W_m is
    the identity too.  So R(C) is the identity alone: the bits or the dual
    would say so when they succeed and the tableau's reach when they do
    not, ``_repaired`` gives the same table and mask, and a witness comes
    from an unpinned region only.  No presolve, rank, dual or tableau runs.
    Any other region is settled in order.  A zero-fixing presolve on the
    tables' bit rows fixes the variables that structurally dead view points
    force to zero (LPError if it fixes one of the identity's).  The region
    is ``pinned``, its reach the identity's entries, when the row sums and
    the view-match rows have full rank mod 2 on the other columns, or else
    when ``dual_certificate`` finds integers w for the view-match matrix M
    with each identity entry eliminated through its row sum, its column
    subtracted from the other columns of its input (LPError if the identity
    violates a row), with w.M > 0 on the unfixed columns D off the
    identity: w.M is a combination of the rows, zero on the identity's
    columns and right-hand side, so 0 = w.M x >= the sum of x over D at
    each point x.  Such a w exists exactly when the identity is the
    region's only point (Gordan), so the tableau is left to regions with
    free directions and to any single point the dual's float search misses.
    Any other region gets ``A``, ``b``, the row sums and the view-match
    rows as one integer array on the unfixed ``alive_vars``, and the
    tableau started at the identity.  ``_route`` names the step that
    settled it: "pairs", "bits", "dual" or "tableau".
    """

    def __init__(self, regions: Regions, collection: Collection):
        self.p = p = regions.p
        self.collection = collection
        self.k = p.k - 1
        self.members: list[ChannelVars] = [regions.channel(tuple(sorted(s))) for s in collection]
        self.offsets: list[int] = []
        nvar = 0
        for w in self.members:
            self.offsets.append(nvar)
            nvar += w.size
        self.nvar = nvar
        self.den = self.members[0].den
        placed = list(zip(self.members, self.offsets))
        ident = sum(w.identity_bits << off for w, off in placed)
        self.identity = [v for v in range(nvar) if ident >> v & 1]
        coords = [w.coords for w in self.members]
        if (len(coords) > 2 and regions.fixed_view.issuperset(coords)
                and any(frozenset(pair) in regions.pinned_pairs
                        for pair in combinations(coords, 2))):
            self._route, self.pinned, self.reach = "pairs", True, set(self.identity)
            return
        pairs = list(zip(placed, placed[1:]))
        self._fixed_bits = fixed = self._presolve(
            [(b0 << off0, b1 << off1) for (w0, off0), (w1, off1) in pairs
             for b0, b1 in zip(w0.view_bits, w1.view_bits)])
        if ident & fixed:
            raise LPError("presolve fixed a coordinate of a feasible point")
        # each input's outputs are one run of columns, holding its identity entry
        self._runs = [len(w.outs) for w in self.members for _ in w.rows]
        # a match row's two sides, mod 2, are the odd entries of both members
        rows = [bits << off for w, off in placed for bits in w.sum_bits]
        rows += [o0 << off0 | o1 << off1 for (w0, off0), (w1, off1) in pairs
                 for o0, o1 in zip(w0.odd_bits, w1.odd_bits)]
        alive = ((1 << nvar) - 1) & ~fixed
        if full_rank_mod_2(rows, alive):
            self._route = "bits"
        else:
            match, off_identity = self._view_match(), alive & ~ident
            free = [v for v in range(nvar) if off_identity >> v & 1]
            M = match[:, free] - match[:, np.repeat(self.identity, self._runs)[free]]
            self._route = "dual" if dual_certificate(M[M.any(axis=1)]) is not None else "tableau"
        self.pinned = self._route != "tableau"
        if self.pinned:
            self.reach = set(self.identity)
        else:
            self._build_rows(match)
            id_alive = [ident >> v & 1 for v in self.alive_vars]
            # each identity column sits alone in its own row-sum row, so the
            # point's nonzero columns are independent and start the basis
            tableau = Tableau(self.A, self.b, start=id_alive)
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

    def _view_match(self) -> np.ndarray:
        """The view-match rows on every variable: for each pair of adjacent
        members, one row per view point, the first's view rows less the
        second's; LPError if the identity violates a row."""
        placed = list(zip(self.members, self.offsets))
        blocks = []
        for (w0, off0), (w1, off1) in zip(placed, placed[1:]):
            r0, r1 = w0.view_rows, w1.view_rows
            block = np.zeros((len(r0), self.nvar), dtype=np.result_type(r0, r1))
            block[:, off0:off0 + w0.size], block[:, off1:off1 + w1.size] = r0, -r1
            blocks.append(block)
        match = np.concatenate(blocks)
        if match[:, self.identity].sum(axis=1).any():
            raise LPError("the identity violates a view-match row")
        return match

    def _build_rows(self, match: np.ndarray) -> None:
        """``A``, ``b``: the row sums, then the view-match rows, on the unfixed
        ``alive_vars``; emptied and repeated rows dropped, the first kept."""
        fixed = self._fixed_bits
        self.alive_vars = [v for v in range(self.nvar) if not fixed >> v & 1]
        sums = np.repeat(np.eye(len(self._runs), dtype=match.dtype), self._runs, axis=1)
        rows = np.concatenate([sums, match])[:, self.alive_vars]
        b = [1] * len(sums) + [0] * len(match)
        first: dict[tuple, int] = {}
        for i, row in enumerate(rows.tolist()):
            if any(row):
                first.setdefault((b[i], *row), i)
        keep = list(first.values())
        self.A, self.b = rows[keep], [b[i] for i in keep]

    # -- feasibility and support -----------------------------------------

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
        Runs only on a region the tableau settled, whose rows exist: a
        pinned region has no conflict.
        """
        alive = self.alive_vars
        if var_a not in alive or var_b not in alive:
            raise LPError("conflict coordinate was presolved away")
        m, nv = self.A.shape
        g = [gcd(self.den, rhs, *row) for row, rhs in zip(self.A.tolist(), self.b)]
        lifted = np.zeros((m + 2, nv + 3), dtype=self.A.dtype)
        lifted[:m, :nv] = self.A // np.array(g, dtype=self.A.dtype)[:, None]
        lifted[m, [alive.index(var_a), nv, nv + 1]] = 1, -1, -1
        lifted[m + 1, [alive.index(var_b), nv, nv + 2]] = 1, -1, -1
        t = Tableau(lifted, [rhs // gi for rhs, gi in zip(self.b, g)] + [0, 0])
        c = [0] * (nv + 3)
        c[nv] = 1
        opt = t.maximize(c)
        if opt <= 0:
            raise LPError("conflict coordinates are not simultaneously reachable")
        sol_alive = t.solution()
        full = [0] * self.nvar
        for v, x in zip(alive, sol_alive):
            full[v] = x
        return full


class Regions(dict):
    """One exact law's settled regions by canonical collection, and the
    channel tables they and the view-distance LPs share by coordinates on
    P's integer numerators, each built on first use: a region depends on
    the law and collection only.

    For each region it settles pinned, by any route, the store records its
    members' coordinates in ``fixed_view`` (a channel on such a set whose
    view is P is the identity: the identity elsewhere in that region makes a
    point of it) and, for two members, the pair in ``pinned_pairs``; a
    region of three or more members reads them (``_Region``).  They are kept
    apart from the entries, which ``DecoderConfig.g_table`` deletes once a
    table is built; a fresh store has none.
    """

    def __init__(self, p: JointPmf):
        super().__init__()
        self.p = p
        self._ints = law_ints(p)
        self.channels: dict[tuple[int, ...], ChannelVars] = {}
        self.fixed_view: set[tuple[int, ...]] = set()
        self.pinned_pairs: set[frozenset[tuple[int, ...]]] = set()

    def __missing__(self, collection: Collection) -> _Region:
        region = self[collection] = _Region(self, collection)
        if region.pinned:
            coords = [w.coords for w in region.members]
            self.fixed_view.update(coords)
            if len(coords) == 2:
                self.pinned_pairs.add(frozenset(coords))
        return region

    def channel(self, coords: tuple[int, ...]) -> ChannelVars:
        if coords not in self.channels:
            self.channels[coords] = ChannelVars(self.p, coords, self._ints)
        return self.channels[coords]


def _f_at(f: TargetFunction, v: tuple[int, ...], coords: tuple[int, ...],
          tx: tuple[int, ...]) -> int:
    full = list(v)
    for pos, c in enumerate(coords):
        full[c] = tx[pos]
    return int(f.table[tuple(full)])


def _materialize_witness(region: _Region, conflict: GBuildConflict) -> ViolationWitness:
    """The witness of a conflict: its joint read off the region's conflict vertex."""
    v = conflict.view
    (a, fa), (b, fb) = conflict.details
    p = region.p
    members = region.members
    wa, wb = members[a[0]], members[b[0]]
    var_a = region.var(a[0], a[1], tuple(v[c] for c in wa.coords))
    var_b = region.var(b[0], b[1], tuple(v[c] for c in wb.coords))
    sol = region.conflict_vertex(var_a, var_b)
    # the vertex times L, the lcm of its denominators, is integral; member m's
    # joint numerators at view vp, den * L * Q(vp, tx), are row vp of its view
    # rows times it, kept on the columns it uses, and D = den * L * Q(vp) is
    # member 0's sum of them; a scenario tuple's mass over M members is then
    # the product of its numerators over den * L * D^(M-1)
    scale = lcm(*(x.denominator for x in sol))
    ints = [x.numerator * (scale // x.denominator) for x in sol]
    joints = []
    for w, off in zip(members, region.offsets):
        x = np.array(ints[off:off + w.size], dtype=object)
        cols = np.flatnonzero(x).tolist()
        joints.append(([w.inputs[c] for c in cols], (w.view_rows[:, cols] * x[cols]).tolist()))

    joint_axes = tuple(p.axes) + tuple(p.axes[c] for w in members for c in w.coords)
    mass = zero_mass(tuple(ax.size for ax in joint_axes))
    for vi, vp in enumerate(np.ndindex(p.mass.shape)):
        d = sum(joints[0][1][vi])
        if d == 0:
            continue
        below = region.den * scale * d ** (len(members) - 1)
        nums = [[(tx, num) for tx, num in zip(ins, rows[vi]) if num] for ins, rows in joints]
        for combo in product(*nums):
            top = 1
            idx: list[int] = list(vp)
            for tx, num in combo:
                top *= num
                idx.extend(tx)
            mass[tuple(idx)] = Fraction(top, below)
    joint = JointPmf(joint_axes, mass)

    point: list[int] = list(v)
    vi = int(np.ravel_multi_index(v, p.mass.shape))
    for m, (ins, rows) in enumerate(joints):
        if m == a[0]:
            point.extend(a[1])
        elif m == b[0]:
            point.extend(b[1])
        else:
            chosen = next((tx for tx, num in zip(ins, rows[vi]) if num), None)
            if chosen is None:
                raise LPError("view point lost its explanation during averaging")
            point.extend(chosen)

    return ViolationWitness(collection=region.collection, joint=joint, point=tuple(point),
                            pair=(a[0], b[0]), f_values=(fa, fb), k=region.k)


def _repaired(region: _Region, f: TargetFunction) -> tuple[np.ndarray, np.ndarray]:
    """The repaired table of one collection and the views it pins, or
    GBuildConflict at the first f-conflict between two scenarios.

    Walks the views in product order and pins each to the f-value of its
    first explanation, a scenario truth (member, tx) that can carry positive
    mass there: a nonzero, reached column of the member's view row.  A
    conflict is a pair of explanations of a lower and a higher member with
    different f-values, the first by member pair and then by each member's
    input order, which is column order.  A region whose only point is the
    identity explains each view on P's support by itself alone, so its
    table is f's, pinned on the support.
    """
    table = f.table.copy()
    if region.pinned:
        return table, region.p.mass.astype(bool)
    mask = np.zeros(table.shape, dtype=bool)
    reached = np.zeros(region.nvar, dtype=bool)
    reached[list(region.reach)] = True
    expl: list[list] = [[] for _ in range(table.size)]
    for m, (w, off) in enumerate(zip(region.members, region.offsets)):
        views, cols = np.nonzero((w.view_rows != 0) & reached[off:off + w.size])
        for vi, col in zip(views.tolist(), cols.tolist()):
            expl[vi].append((m, w.inputs[col]))
    symbols = f.codomain.symbols
    for v, here in zip(np.ndindex(table.shape), expl):
        if not here:
            continue
        here = [(m, tx, _f_at(f, v, region.members[m].coords, tx)) for m, tx in here]
        hits = [(a, b) for a, b in combinations(here, 2) if a[0] < b[0] and a[2] != b[2]]
        if hits:
            # min keeps the first of a member pair's hits, in input order
            (ma, tx_a, fa), (mb, tx_b, fb) = min(hits, key=lambda h: (h[0][0], h[1][0]))
            raise GBuildConflict(v, ((ma, tx_a), symbols[fa]), ((mb, tx_b), symbols[fb]))
        table[v], mask[v] = here[0][2], True
    return table, mask


def _validate(p: JointPmf, f: TargetFunction, k: int) -> None:
    if p.k != k + 1:
        raise ViabilityInputError(f"pmf covers {p.k} axes, structure expects {k + 1}")
    if tuple(f.domain_axes) != p.axes:
        raise ViabilityInputError("function domain does not match the pmf axes")


def check_viability(p: JointPmf, f: TargetFunction, structure: AdversaryStructure, *,
                    regions: Regions | None = None) -> ViabilityReport:
    """Decide whether f is robustly recoverable under the structure.

    Exhaustive over non-intersecting collections in canonical order; the
    first violation is returned as a materialized witness.  A collection
    with three members that can each be dropped keeping it non-intersecting
    is skipped: each pair of its scenarios lies in an earlier, smaller such
    collection, and conflicts only shrink when members are added
    (restricting a matched family to a sub-collection stays feasible).
    The regions are read from ``regions``, P's store, or a fresh one; the
    walk's pairs come first, so a larger collection holding a pair the store
    pinned, its members each in a pinned region, is pinned from those
    records alone, with no presolve, rank, dual or tableau.
    """
    _validate(p, f, structure.k)
    regions = Regions(p) if regions is None else regions
    for col in nonintersecting_collections(structure):
        if not _needs_solving(col):
            continue
        region = regions[col]
        try:
            _repaired(region, f)
        except GBuildConflict as conflict:
            return ViabilityReport(viable=False, witness=_materialize_witness(region, conflict))
    return ViabilityReport(viable=True)


def _needs_solving(col: Collection) -> bool:
    """Whether at most two members can be dropped leaving the rest non-intersecting:
    the rest of each member is read off prefix and suffix intersections, and
    the walk stops at a third member whose rest is empty."""
    heads = [*accumulate(col[:-1], frozenset.intersection)]  # heads[i]: col[:i + 1]
    tails = [*accumulate(col[:0:-1], frozenset.intersection)][::-1]  # tails[i]: col[i + 1:]
    dropped = 0
    for rest in chain(tails[:1], map(frozenset.intersection, heads, tails[1:]), heads[-1:]):
        dropped += not rest
        if dropped > 2:
            return False
    return True


def check_s_viability(p: JointPmf, f: TargetFunction, s: int) -> ViabilityReport:
    """Threshold special case: structure = all subsets of size <= s."""
    k = p.k - 1
    return check_viability(p, f, AdversaryStructure.threshold(k, s))


def build_g(p: JointPmf, f: TargetFunction, collection: Collection, *,
            regions: Regions | None = None) -> GTable:
    """Repaired decoding table for one non-intersecting collection.

    Pins every view point reachable by some matched channel family to the
    (unique, when f is viable) function value of a positive-posterior
    scenario truth; unreachable points copy f.  The verdict's own walk builds
    it on the collection's region, members in canonical order, in ``regions``
    or a fresh store, and raises GBuildConflict at an f-conflict.
    """
    _validate(p, f, p.k - 1)
    # checked before the sets are built, where True would stand for user 1
    members = [list(s) for s in collection]
    if any(not is_integer(u) or not 0 <= u < p.k - 1 for s in members for u in s):
        raise ViabilityInputError(f"collection members must be users 0..{p.k - 2}")
    collection = canonical_collection(members)
    if not is_nonintersecting(collection):
        raise ViabilityInputError(
            "collection must be >= 2 distinct non-empty sets with empty intersection")
    regions = Regions(p) if regions is None else regions
    table, mask = _repaired(regions[collection], f)
    return GTable(collection=collection, domain_axes=tuple(p.axes),
                  codomain=f.codomain, table=table, defined_mask=mask)


# -- independent witness verification (Definition route) -------------------

def verify_witness(witness: ViolationWitness, p: JointPmf, f: TargetFunction) -> None:
    """Re-verify a witness directly against the viability definition.

    Checks, in ints over Q's and P's own denominators: (a) each scenario's
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
    if not joint.mass[witness.point] > 0:
        raise AssertionError("conflicting point has zero mass")

    va = _f_at(f, witness.view_point(), witness.member_coords(witness.pair[0]),
               witness.scenario_truth(witness.pair[0]))
    vb = _f_at(f, witness.view_point(), witness.member_coords(witness.pair[1]),
               witness.scenario_truth(witness.pair[1]))
    if va == vb:
        raise AssertionError("witness point does not conflict")

    qn, qd = integer_mass(joint.mass)
    pn, pd = integer_mass(p.mass)
    for m in range(len(witness.collection)):
        coords = witness.member_coords(m)
        block = witness.member_block(m)
        rest = tuple(c for c in range(kk) if c not in coords)
        # summing these out leaves the kept axes in increasing order
        other_blocks = tuple(a for a in range(kk, qn.ndim) if a not in block)
        # (a): marginal over <tx_A, ux_rest, y> equals P
        marg = qn.sum(axis=coords + other_blocks)
        for full_idx in product(*(range(a.size) for a in p.axes)):
            tx = tuple(full_idx[c] for c in coords)
            others = tuple(full_idx[c] for c in rest)
            if marg[others + tx] * pd != pn[full_idx] * qd:
                raise AssertionError(f"scenario {m} constraint (a) fails at {full_idx}")
        # (b): cross-multiplied Markov constraint; both sides are over qd * pd
        q4 = qn.sum(axis=other_blocks)
        q2 = qn.sum(axis=rest + other_blocks)
        p_a = pn.sum(axis=rest)
        for full_idx in product(*(range(a.size) for a in p.axes)):
            ux_a = tuple(full_idx[c] for c in coords)
            for tx in product(*(range(p.axes[c].size) for c in coords)):
                lhs = q4[full_idx + tx] * p_a[tx]
                src = list(full_idx)
                for pos, c in enumerate(coords):
                    src[c] = tx[pos]
                rhs = q2[ux_a + tx] * pn[tuple(src)]
                if lhs != rhs:
                    raise AssertionError(f"scenario {m} constraint (b) fails at {full_idx}, {tx}")
