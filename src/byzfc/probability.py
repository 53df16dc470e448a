"""Finite-alphabet probability backbone.

Dense joint pmfs over products of small alphabets, conditional pmfs
(channels), empirical types, total variation distance and i.i.d. sampling.

Laws (``JointPmf``) and channels (``Channel``) are exact: their entries
are ``fractions.Fraction`` held in an object ndarray, and their sums and
equalities are literal.  They share one validator and one JSON parser,
so one entry rule holds for both.  Float arithmetic lives only in the
tables that samples are drawn from, all of one type, ``CdfTable``: a
law's ``to_float()`` (the ``CellSampler`` ``sample_iid`` draws from)
holds one, and a channel's ``to_float()``, an attack's table, is one.

Sampling uses numpy's counter-based Philox generator so that runs are
reproducible bit-for-bit from an integer seed.  Laws and attack channels
draw letters by one guide-table routine, ``CdfTable.draw``, equal to a
binary search.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

Label = str | int


class ProbabilityError(ValueError):
    """Invalid distribution, channel or block."""


def is_integer(x) -> bool:
    """Whether x is an int or a numpy integer; a bool is neither."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _as_fraction(x, what: str) -> Fraction:
    """One mass entry as a Fraction.  Entries are Fractions, integers,
    ``"p/q"`` or decimal strings and finite reals; a real is read as the
    decimal it prints as (0.9 is 9/10), whose float is the real again."""
    if isinstance(x, Fraction):
        return x
    if is_integer(x):
        return Fraction(int(x))
    if isinstance(x, float) and math.isfinite(x):
        return Fraction(repr(float(x)))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ProbabilityError(f"{what} entry {x!r} has a zero denominator") from None
        except ValueError:
            pass
    raise ProbabilityError(f"cannot interpret {x!r} as an exact {what} entry")


def zero_mass(shape) -> np.ndarray:
    """An all-zero exact mass array: Fraction entries in an object ndarray."""
    return np.full(shape, Fraction(0), dtype=object)


def integer_mass(mass: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact mass as int numerators (object array, same shape) over their
    least common denominator: sums and differences then stay in ints,
    far cheaper than Fraction arithmetic entry by entry."""
    flat = mass.reshape(-1).tolist()
    den = math.lcm(*(v.denominator for v in flat))
    nums = np.array([v.numerator * (den // v.denominator) for v in flat], dtype=object)
    return nums.reshape(mass.shape), den


def _checked_mass(values, shape: tuple[int, ...], n_rows: int, what: str) -> np.ndarray:
    """``values`` reshaped to ``shape`` and checked as ``n_rows`` pmfs, one per row.

    ``values`` must be an object array or list (a float array is refused
    whole, before any entry is read); entries become Fractions by
    ``_as_fraction``, must be nonnegative, and every row sums to 1 exactly.
    """
    arr = np.asarray(values)
    if arr.dtype != object:
        raise ProbabilityError(f"a {what} must be exact")
    if arr.size != math.prod(shape):
        raise ProbabilityError(f"{what} has {arr.size} entries, not {math.prod(shape)}")
    flat = np.fromiter(map(_as_fraction, arr.reshape(-1), repeat(what)), dtype=object,
                       count=arr.size)
    if any(v.numerator < 0 for v in flat):
        raise ProbabilityError(f"negative {what} entry")
    # summed as integers over the row's common denominator: Fraction
    # additions would dominate the cost of every exact marginal
    for i, row in enumerate(flat.reshape(n_rows, -1).tolist()):
        den = math.lcm(*(v.denominator for v in row))
        if (num := sum(v.numerator * (den // v.denominator) for v in row)) != den:
            # str() refuses an int of more than 4300 digits: such a sum is not shown
            shown = (f"sums to {Fraction(num, den)}, not 1"
                     if max(num, den).bit_length() <= 4096 else "does not sum to 1")
            raise ProbabilityError(f"{what} row {i} {shown}")
    return flat.reshape(shape)


def _mass_to_json(arr: np.ndarray) -> list[str]:
    """Flat JSON values of a mass array: "n/d" strings."""
    return [f"{v.numerator}/{v.denominator}" for v in arr.reshape(-1)]


def _mass_from_json(d: dict, key: str, what: str) -> np.ndarray:
    """The flat object array of d[key], a list of mass entries, for a document
    whose ``mode`` is absent or "exact"; the caller reshapes and validates."""
    mode = d.get("mode", "exact")
    if mode != "exact":
        raise ProbabilityError(f"a {what} must be exact: unknown mode {mode!r}")
    return np.array([_as_fraction(v, what) for v in json_list(d[key], f"{what} values")],
                    dtype=object)


# what a JSON-to-object parser raises on a value of the wrong type or shape
MALFORMED = (TypeError, IndexError, AttributeError)


def json_value(v, what: str, *, integer: bool = False,
               error: type[Exception] = ProbabilityError):
    """The JSON number v, named ``what`` in the error message.

    A bool or a string raises ``error``, and so does a float when
    ``integer`` is set; a real comes back as a float.
    """
    if isinstance(v, bool) or not isinstance(v, int if integer else (int, float)):
        raise error(f"{what} must be {'an integer' if integer else 'a number'}, not {v!r}")
    return v if integer else float(v)


def json_list(v, what: str) -> list | tuple:
    """The JSON list (or tuple) v, named ``what`` in the error message; a
    string or any other value raises ProbabilityError, not being iterated."""
    if not isinstance(v, (list, tuple)):
        raise ProbabilityError(f"{what} must be a list, not {type(v).__name__}")
    return v


def alphabets_from_json(v) -> tuple["Alphabet", ...]:
    """The alphabets of a JSON list of symbol lists."""
    return tuple(Alphabet(json_list(s, "alphabet")) for s in json_list(v, "axes"))


def json_number(d: dict, key: str, default=None, *, integer: bool = False,
                error: type[Exception] = ProbabilityError):
    """``json_value`` of d[key], or of ``default`` when given and the key is absent."""
    return json_value(d[key] if default is None else d.get(key, default), key,
                      integer=integer, error=error)


class Alphabet:
    """Ordered finite alphabet with a stable label <-> index bijection."""

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: Sequence[Label]):
        symbols = tuple(symbols)
        if not symbols:
            raise ProbabilityError("alphabet must have at least one symbol")
        self._index = {s: i for i, s in enumerate(symbols)}
        if len(self._index) != len(symbols):
            raise ProbabilityError("alphabet labels must be distinct")
        self.symbols = symbols

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ProbabilityError(f"label {label!r} not in alphabet") from None

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.symbols)!r})"

    @staticmethod
    def binary() -> "Alphabet":
        return Alphabet((0, 1))

    @staticmethod
    def of_size(n: int) -> "Alphabet":
        return Alphabet(tuple(range(n)))


class JointPmf:
    """Dense exact joint pmf over the product of ``axes``.

    ``mass`` is an object ndarray of shape ``tuple(a.size for a in axes)``
    holding Fractions; entries must be nonnegative and sum to one exactly.
    """

    __slots__ = ("axes", "mass")

    def __init__(self, axes: Sequence[Alphabet], mass):
        self.axes = tuple(axes)
        self.mass = _checked_mass(mass, tuple(a.size for a in self.axes), 1, "pmf")

    @property
    def k(self) -> int:
        """Number of coordinates."""
        return len(self.axes)

    def to_float(self) -> "CellSampler":
        """The law's float form: the inverse-CDF table ``sample_iid`` draws from."""
        flat = self.mass.astype(np.float64).reshape(-1)
        support = np.flatnonzero(flat > 0)
        return CellSampler(self.axes, support, CdfTable.of(flat[support]))

    # -- basic accessors -----------------------------------------------

    def prob(self, labels: Sequence[Label]):
        idx = tuple(a.index(s) for a, s in zip(self.axes, labels))
        return self.mass[idx]

    def support_idx(self) -> list[tuple[int, ...]]:
        """Index tuples with positive mass, row-major order."""
        return [tuple(map(int, idx)) for idx in np.argwhere(self.mass > 0)]

    # -- operations ----------------------------------------------------

    def marginalize(self, keep: Iterable[int]) -> "JointPmf":
        keep = tuple(keep)
        if not keep:
            raise ProbabilityError("keep set must be nonempty")
        if len(set(keep)) != len(keep):
            raise ProbabilityError("duplicate coordinates in keep set")
        for c in keep:
            if not 0 <= c < self.k:
                raise ProbabilityError(f"coordinate {c} out of range for {self.k} axes")
        keep_sorted = sorted(keep)
        drop = tuple(c for c in range(self.k) if c not in keep_sorted)
        arr = self.mass.sum(axis=drop) if drop else self.mass
        # position of each requested coordinate inside the sorted result
        arr = np.transpose(arr, [keep_sorted.index(c) for c in keep])
        return JointPmf([self.axes[c] for c in keep], arr)

    def tv_distance(self, other: "JointPmf"):
        if self.axes != other.axes:
            raise ProbabilityError("tv_distance requires identical axes")
        pairs = zip(self.mass.reshape(-1), other.mass.reshape(-1))
        return sum(abs(a - b) for a, b in pairs) / 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, JointPmf):
            return NotImplemented
        # list equality checks identity first: a copy sharing its Fractions is cheap
        return self.axes == other.axes and self.mass.tolist() == other.mass.tolist()

    def __hash__(self):
        raise TypeError("JointPmf is not hashable")

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"axes": [list(a.symbols) for a in self.axes], "mass": _mass_to_json(self.mass),
                "mode": "exact"}

    @staticmethod
    def from_json_dict(d: dict) -> "JointPmf":
        return JointPmf(alphabets_from_json(d["axes"]), _mass_from_json(d, "mass", "pmf"))

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def loads(s: str) -> "JointPmf":
        return JointPmf.from_json_dict(json.loads(s))


def pmf_from_dict(axes: Sequence[Alphabet], entries: dict) -> JointPmf:
    """Build a pmf from {label-tuple: mass}; unspecified entries are 0."""
    arr = zero_mass(tuple(a.size for a in axes))
    for labels, v in entries.items():
        arr[tuple(a.index(s) for a, s in zip(axes, labels))] = v
    return JointPmf(axes, arr)


def uniform_pmf(axes: Sequence[Alphabet]) -> JointPmf:
    shape = tuple(a.size for a in axes)
    return JointPmf(axes, np.full(shape, Fraction(1, math.prod(shape)), dtype=object))


class Channel:
    """Exact conditional pmf W(output | input) over products of alphabets.

    ``rows`` is an object ndarray of Fractions, shape input-sizes +
    output-sizes; every input row sums to one exactly.  Its one float form,
    ``to_float()``, is the table an attack draws from.
    """

    __slots__ = ("input_axes", "output_axes", "rows")

    def __init__(self, input_axes: Sequence[Alphabet], output_axes: Sequence[Alphabet], rows):
        self.input_axes = tuple(input_axes)
        self.output_axes = tuple(output_axes)
        in_shape = tuple(a.size for a in self.input_axes)
        out_shape = tuple(a.size for a in self.output_axes)
        self.rows = _checked_mass(rows, in_shape + out_shape,
                                  int(np.prod(in_shape, dtype=np.int64)), "channel")

    @staticmethod
    def from_joint(input_axes: Sequence[Alphabet], output_axes: Sequence[Alphabet],
                   joint) -> "Channel":
        """The conditional of an (n_in, n_out) joint mass matrix.

        Each row is divided by its sequential sum; a zero row maps its input
        to the output of the same index.
        """
        rows = np.array(joint)
        for i, row in enumerate(rows):
            total = sum(row.tolist())
            if total == 0:
                row[i] = 1
            elif total != 1:
                rows[i] = row / total
        return Channel(input_axes, output_axes, rows)

    @staticmethod
    def identity(axes: Sequence[Alphabet]) -> "Channel":
        n = int(np.prod([a.size for a in axes], dtype=np.int64))
        return Channel.from_joint(axes, axes, zero_mass((n, n)))

    def to_float(self) -> "CdfTable":
        """The channel's float form: one cumulative row per input cell."""
        n_out = math.prod(a.size for a in self.output_axes)
        return CdfTable.of(self.rows.astype(np.float64).reshape(-1, n_out))

    def to_json_dict(self) -> dict:
        return {
            "input_axes": [list(a.symbols) for a in self.input_axes],
            "output_axes": [list(a.symbols) for a in self.output_axes],
            "rows": _mass_to_json(self.rows),
            "mode": "exact",
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Channel":
        return Channel(alphabets_from_json(d["input_axes"]),
                       alphabets_from_json(d["output_axes"]),
                       _mass_from_json(d, "rows", "channel"))


def apply_channel(p: JointPmf, coords: Sequence[int], w: Channel) -> JointPmf:
    """Push ``p`` through ``w`` acting on the given coordinates.

    out(ux_coords, rest) = sum_x p(x_coords, rest) * w(ux_coords | x_coords).
    The selected coordinates are replaced by the channel's output axes.
    """
    coords = tuple(coords)
    if len(set(coords)) != len(coords):
        raise ProbabilityError("duplicate coordinates")
    if tuple(sorted(coords)) != coords:
        raise ProbabilityError("coords must be ascending")
    if tuple(p.axes[c] for c in coords) != w.input_axes:
        raise ProbabilityError("channel input axes do not match the selected coordinates")
    if len(w.output_axes) != len(coords):
        raise ProbabilityError("channel must output one axis per selected coordinate")

    rest = tuple(c for c in range(p.k) if c not in coords)
    # the selected coordinates first, flattened: (n_in, n_rest)
    mat = np.transpose(p.mass, coords + rest).reshape(math.prod(a.size for a in w.input_axes), -1)
    out = w.rows.reshape(mat.shape[0], -1).T @ mat  # (n_out, n_rest); works for object dtype
    moved_axes = w.output_axes + tuple(p.axes[c] for c in rest)
    inv = np.argsort(coords + rest)
    out = out.reshape([a.size for a in moved_axes]).transpose(inv)
    return JointPmf([moved_axes[i] for i in inv], out)


def tv_distance(p: JointPmf, q: JointPmf):
    return p.tv_distance(q)


def cell_table(sizes: Sequence[int]) -> np.ndarray:
    """The coordinates of every cell over ``sizes``, shape (len(sizes), cells).

    Column c holds ``np.unravel_index(c, sizes)``, so one ``np.take`` along
    axis 1 maps flat cells to coordinate rows.
    """
    return np.indices(sizes).reshape(len(sizes), -1)


class SampleBlock:
    """n observations for k users plus decoder side information.

    ``axes`` lists the k user alphabets followed by the side-information
    alphabet.  A block is its cell sequence: ``cells``, int64 of shape
    (n,), holds each observation's row-major flat index over ``axes`` and
    is the one stored array, not written after construction.  The symbol
    indices ``user_seqs`` (k, n) and ``side_seq`` (n,) are gathered from
    it on each access, not cached.

    ``SampleBlock(axes, user_seqs, side_seq)`` checks the rows and flattens
    them once; ``SampleBlock.from_cells(axes, cells)`` checks the cells.
    """

    __slots__ = ("axes", "cells")

    def __init__(self, axes: Sequence[Alphabet], user_seqs: np.ndarray, side_seq: np.ndarray):
        axes = tuple(axes)
        k = len(axes) - 1
        if k < 1:
            raise ProbabilityError("block needs at least one user axis plus side info")
        if user_seqs.shape[0] != k:
            raise ProbabilityError("user_seqs has the wrong number of users")
        n = user_seqs.shape[1]
        if side_seq.shape != (n,):
            raise ProbabilityError("side_seq length mismatch")
        if user_seqs.dtype.kind not in "iu" or side_seq.dtype.kind not in "iu":
            raise ProbabilityError("block rows must hold integer symbol indices")
        if n:
            sizes = np.array([a.size for a in axes[:k]])
            bad = (user_seqs.min(axis=1) < 0) | (user_seqs.max(axis=1) >= sizes)
            if bad.any():
                raise ProbabilityError(f"user {int(np.argmax(bad))} sequence has "
                                       "out-of-range symbols")
            if side_seq.min() < 0 or side_seq.max() >= axes[-1].size:
                raise ProbabilityError("side sequence has out-of-range symbols")
        self.axes = axes
        self.cells = np.ravel_multi_index((*user_seqs, side_seq), [a.size for a in axes])

    @classmethod
    def from_cells(cls, axes: Sequence[Alphabet], cells: np.ndarray) -> "SampleBlock":
        """The block whose row-major flat cells over ``axes`` are ``cells``."""
        axes = tuple(axes)
        if len(axes) < 2:
            raise ProbabilityError("block needs at least one user axis plus side info")
        cells = np.asarray(cells, dtype=np.int64)
        if cells.ndim != 1:
            raise ProbabilityError("cells must be one flat index per observation")
        # as unsigned, a negative cell is above every size
        if cells.size and cells.view(np.uint64).max() >= math.prod(a.size for a in axes):
            raise ProbabilityError("block has out-of-range cells")
        block = object.__new__(cls)
        block.axes, block.cells = axes, cells
        return block

    def _coordinates(self, which) -> np.ndarray:
        """Rows ``which`` of the block's coordinate array, by one gather."""
        return np.take(cell_table([a.size for a in self.axes])[which], self.cells, axis=-1)

    @property
    def user_seqs(self) -> np.ndarray:
        """Symbol indices of the k users, shape (k, n)."""
        return self._coordinates(slice(-1))

    @property
    def side_seq(self) -> np.ndarray:
        """Symbol indices of the side information, shape (n,)."""
        return self._coordinates(-1)

    @property
    def k(self) -> int:
        return len(self.axes) - 1

    @property
    def n(self) -> int:
        return int(self.cells.shape[0])

    def column(self, t: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.unravel_index(self.cells[t],
                                                      [a.size for a in self.axes]))

    def replace_users(self, new_seqs: dict[int, np.ndarray]) -> "SampleBlock":
        """A block with the given user rows replaced and the side sequence kept."""
        seqs = self.user_seqs
        for i, s in new_seqs.items():
            seqs[i] = s
        return SampleBlock(self.axes, seqs, self.side_seq)

    def to_json_dict(self) -> dict:
        *users, side = self._coordinates(slice(None))
        return {
            "axes": [list(a.symbols) for a in self.axes],
            "users": [[self.axes[i].symbols[v] for v in users[i]] for i in range(self.k)],
            "side": [self.axes[-1].symbols[v] for v in side],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "SampleBlock":
        axes = alphabets_from_json(d["axes"])
        k = len(axes) - 1
        side = np.array([axes[-1].index(s) for s in json_list(d["side"], "side")],
                        dtype=np.int64)
        rows = [json_list(row, "user row") for row in json_list(d["users"], "users")]
        if len(rows) != k:
            raise ProbabilityError(f"block has {len(rows)} user rows, not {k}")
        if any(len(row) != side.size for row in rows):
            raise ProbabilityError("every user row must be as long as the side sequence")
        users = np.array([[axes[i].index(s) for s in rows[i]] for i in range(k)],
                         dtype=np.int64)
        return SampleBlock(axes, users, side)


def type_counts(block: SampleBlock) -> np.ndarray:
    """How often each symbol tuple occurs in a block, flat in row-major order."""
    if block.n == 0:
        raise ProbabilityError("empty block has no type")
    return np.bincount(block.cells, minlength=math.prod(a.size for a in block.axes))


def empirical_type(block: SampleBlock) -> JointPmf:
    """Joint type of a block, exact mode (entries are multiples of 1/n)."""
    n = block.n
    counts = type_counts(block)
    return JointPmf(block.axes, np.array([Fraction(int(c), n) for c in counts], dtype=object))


def philox(seed: int) -> np.random.Generator:
    """The artifact's RNG: counter-based Philox keyed by ``seed``."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & (2**64 - 1))))


def derive_seed(master: int, *parts) -> int:
    """Stable sub-seed from a master seed and context tags (sha256-based)."""
    import hashlib

    h = hashlib.sha256(":".join([str(master)] + [str(p) for p in parts]).encode())
    return int.from_bytes(h.digest()[:8], "big")


@dataclass(frozen=True, eq=False)
class CdfTable:
    """An inverse-CDF table: the float form of a law's row or a channel's rows.

    ``cums`` holds nondecreasing cumulative rows (last axis) ending in 1.0;
    a law's one row may be 1-D.  ``guide[..., b]`` counts each row's
    entries <= b / K, K the least power of two >= the width, and
    ``on_grid`` says that every entry is a multiple of 1/K.  Both are
    computed here from ``cums``; ``of`` builds the table of float rows.
    """

    cums: np.ndarray
    guide: np.ndarray = field(init=False)
    on_grid: bool = field(init=False)

    def __post_init__(self):
        width = self.cums.shape[-1]
        buckets = 1 << (width - 1).bit_length()
        edges = np.arange(buckets) / buckets
        guide = np.array([np.searchsorted(row, edges, side="right")
                          for row in self.cums.reshape(-1, width)])
        scaled = self.cums * buckets
        object.__setattr__(self, "guide", guide.reshape(self.cums.shape[:-1] + (buckets,)))
        object.__setattr__(self, "on_grid", bool(np.array_equal(scaled, np.floor(scaled))))

    @staticmethod
    def of(rows: np.ndarray) -> "CdfTable":
        """The table of float pmf rows: each cumulative sum is pinned to 1.0
        from the row's last positive entry on, so no uniform lands on a
        zero-mass entry after it."""
        cums = np.cumsum(rows, axis=-1)
        last = rows.shape[-1] - 1 - np.argmax(rows[..., ::-1] > 0, axis=-1)
        cums[np.arange(rows.shape[-1]) >= last[..., None]] = 1.0
        return CdfTable(cums)

    def draw(self, u: np.ndarray, rows=0) -> np.ndarray:
        """``np.searchsorted(cums[rows[t]], u[t], side="right")`` for each letter t.

        ``rows`` is each letter's row or one row for all, and u lies in
        [0, 1).  A guide table (Chen and Asau 1974; Devroye 1986, III.2.4):
        K is a power of two, so u * K is exact and the guide at its floor
        counts the entries <= that bucket's edge.  On the grid no entry lies
        in (edge, u], so the guide alone is the count.  Otherwise one
        compare with the next entry settles each letter with no entry
        there; the rest are searched, one call per distinct row.
        """
        width, buckets = self.cums.shape[-1], self.guide.shape[-1]
        count = np.take(self.guide, (u * buckets).astype(np.intp) + rows * buckets)
        if self.on_grid:
            return count
        late = np.flatnonzero(np.take(self.cums, count + rows * width) <= u)
        if late.size:
            table, late_rows = self.cums.reshape(-1, width), np.broadcast_to(rows, u.shape)[late]
            for r in np.unique(late_rows):
                sel = late[late_rows == r]
                count[sel] = np.searchsorted(table[r], u[sel], side="right")
        return count


@dataclass(frozen=True, eq=False)
class CellSampler:
    """A law's float form, built by ``JointPmf.to_float``: ``support`` holds
    the row-major cells of positive float64 mass over ``axes``, and ``cdf``
    the table of their masses, one row."""

    axes: tuple[Alphabet, ...]
    support: np.ndarray
    cdf: CdfTable


def sample_iid(table: CellSampler, n: int, seed: int) -> SampleBlock:
    """Draw n i.i.d. tuples over k+1 axes from a law's table ``p.to_float()``.

    Inverse CDF over the row-major cells: draw t takes the first cell
    whose cumulative mass exceeds the t-th ``philox(seed)`` uniform, with
    the last positive cell's cumulative mass pinned to 1.0.  Zero-mass
    cells are left out of the table, so a float sum short of 1 cannot
    hand [sum, 1) to one of them, and a sparse law's guide is as wide as
    its support; every other draw is the one the plain cumulative search
    over all cells gives, found by ``CdfTable.draw``.
    Blocks are a pure function of (p, n, seed), bit-for-bit.
    """
    if not isinstance(table, CellSampler):
        raise ProbabilityError("sample_iid draws from a law's table; call to_float() explicitly")
    if n < 1:
        raise ProbabilityError("block length must be >= 1")
    if len(table.axes) < 2:
        raise ProbabilityError("pmf must cover at least one user axis plus side info")
    u = philox(seed).random(n)
    return SampleBlock.from_cells(table.axes, table.support[table.cdf.draw(u)])


def apply_pointwise(fn, block: SampleBlock) -> np.ndarray:
    """Element-wise extension of a table-backed function to a block.

    ``fn`` must expose ``domain_axes`` (k+1 alphabets) and an integer
    ``table`` ndarray over those axes; returns codomain indices, shape (n,).
    """
    if tuple(fn.domain_axes) != block.axes:
        raise ProbabilityError("function domain does not match block axes")
    return np.take(fn.table, block.cells)


def hamming_distortion(a: Sequence, b: Sequence) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ProbabilityError("sequences must have equal length")
    if a.size == 0:
        raise ProbabilityError("empty sequences")
    return np.count_nonzero(a != b) / a.size
