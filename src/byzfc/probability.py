"""Finite-alphabet probability backbone.

Dense joint pmfs over products of small alphabets, conditional pmfs
(channels), empirical types, total variation distance and i.i.d. sampling.

A law (``JointPmf``) is exact: its entries are ``fractions.Fraction``
held in an object ndarray, and its sums and equalities are literal.  Its
one float form is ``to_float()``, the inverse-CDF table ``CellSampler``
that ``sample_iid`` draws from.  A channel's rows may also be float64,
normalized to within ``FLOAT_NORMALIZATION_TOL``: an attack only draws
from them.  ``JointPmf`` and ``Channel`` share one validator and one JSON
codec, so only this module branches on the arithmetic of a mass array.

Sampling uses numpy's counter-based Philox generator so that runs are
reproducible bit-for-bit from an integer seed.  Laws and attack channels
draw letters by one guide-table routine, ``inverse_cdf``, equal to a binary search.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

FLOAT_NORMALIZATION_TOL = 1e-9

Label = str | int


class ProbabilityError(ValueError):
    """Invalid distribution, channel or block."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return Fraction(int(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ProbabilityError(f"{x!r} has a zero denominator") from None
    raise ProbabilityError(f"cannot interpret {x!r} as an exact rational")


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

    Object dtype is exact mode: entries become Fractions, must be
    nonnegative, and every row must sum to 1 literally.  Any other dtype
    is float mode: entries must be finite and nonnegative, and every row
    sum within ``FLOAT_NORMALIZATION_TOL`` of 1.
    """
    arr = np.asarray(values)
    if arr.size != math.prod(shape):
        raise ProbabilityError(f"{what} has {arr.size} entries, not {math.prod(shape)}")
    arr = arr.reshape(shape)
    if arr.dtype == object:
        flat = np.fromiter(map(_as_fraction, arr.reshape(-1)), dtype=object, count=arr.size)
        if any(v.numerator < 0 for v in flat):
            raise ProbabilityError(f"negative {what} entry")
        # summed as integers over the row's common denominator: Fraction
        # additions would dominate the cost of every exact marginal
        for i, row in enumerate(flat.reshape(n_rows, -1).tolist()):
            den = math.lcm(*(v.denominator for v in row))
            if sum(v.numerator * (den // v.denominator) for v in row) != den:
                raise ProbabilityError(f"exact {what} row {i} sums to {sum(row)}, not 1")
        return flat.reshape(shape)
    arr = arr.astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise ProbabilityError(f"non-finite {what} entry")
    if np.any(arr < 0):
        raise ProbabilityError(f"negative {what} entry")
    sums = arr.reshape(n_rows, -1).sum(axis=1)
    for i, total in enumerate(sums):
        if abs(total - 1.0) > FLOAT_NORMALIZATION_TOL:
            raise ProbabilityError(f"float {what} row {i} sums to {total:.12g}, "
                                   f"outside tolerance {FLOAT_NORMALIZATION_TOL}")
    return arr


def _mass_to_json(arr: np.ndarray) -> tuple[list, str]:
    """Flat JSON values and mode of a mass array: "n/d" strings if exact."""
    flat = arr.reshape(-1)
    if arr.dtype == object:
        return [f"{v.numerator}/{v.denominator}" for v in flat], "exact"
    return flat.tolist(), "float"


def _mass_from_json(values, mode: str) -> np.ndarray:
    """Inverse of ``_mass_to_json``: a flat list of "n/d" strings or integers
    if exact, of JSON numbers if float; the caller reshapes and validates."""
    if mode not in ("exact", "float"):
        raise ProbabilityError(f"unknown mode {mode!r}; expected 'exact' or 'float'")
    if not isinstance(values, list):
        raise ProbabilityError(f"mass values must be a list, not {values!r}")
    if mode == "exact":
        return np.array([_as_fraction(v) for v in values], dtype=object)
    return np.array([json_value(v, "float mass entry") for v in values], dtype=np.float64)


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
        if np.asarray(mass).dtype != object:
            raise ProbabilityError("a pmf must be exact")
        self.mass = _checked_mass(mass, tuple(a.size for a in self.axes), 1, "pmf")

    @property
    def k(self) -> int:
        """Number of coordinates."""
        return len(self.axes)

    def to_float(self) -> "CellSampler":
        """The law's float form: the inverse-CDF table and guide ``sample_iid`` draws from."""
        flat = self.mass.astype(np.float64).reshape(-1)
        support = np.flatnonzero(flat > 0)
        cum = np.cumsum(flat[support])
        cum[-1] = 1.0
        return CellSampler(self.axes, support, cum, guide_table(cum))

    # -- basic accessors -----------------------------------------------

    def prob(self, labels: Sequence[Label]):
        idx = tuple(a.index(s) for a, s in zip(self.axes, labels))
        return self.mass[idx]

    def support_idx(self) -> list[tuple[int, ...]]:
        """Index tuples with positive mass, row-major order."""
        out = []
        it = np.nditer(np.arange(self.mass.size).reshape(self.mass.shape), flags=["multi_index"])
        flat = self.mass.reshape(-1)
        for nit in it:
            if flat[int(nit)] > 0:
                out.append(it.multi_index)
        return out

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
        keep_sorted = tuple(sorted(keep))
        drop = tuple(c for c in range(self.k) if c not in keep_sorted)
        arr = self.mass.sum(axis=drop) if drop else self.mass.copy()
        if keep != keep_sorted:
            # position of each requested coordinate inside the sorted result
            perm = tuple(keep_sorted.index(c) for c in keep)
            arr = np.transpose(arr, axes=perm)
            axes = tuple(self.axes[c] for c in keep)
        else:
            axes = tuple(self.axes[c] for c in keep_sorted)
        return JointPmf(axes, arr)

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
        mass, mode = _mass_to_json(self.mass)
        return {"axes": [list(a.symbols) for a in self.axes], "mass": mass, "mode": mode}

    @staticmethod
    def from_json_dict(d: dict) -> "JointPmf":
        axes = tuple(Alphabet(sym) for sym in d["axes"])
        return JointPmf(axes, _mass_from_json(d["mass"], d.get("mode", "exact")))

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
    """Conditional pmf W(output | input) over products of alphabets.

    ``rows`` has shape input-sizes + output-sizes; every input row sums
    to one.  Rows are exact (object dtype) or float64: an attack draws
    from either, and ``apply_channel`` needs exact rows.
    """

    __slots__ = ("input_axes", "output_axes", "rows")

    def __init__(self, input_axes: Sequence[Alphabet], output_axes: Sequence[Alphabet], rows):
        self.input_axes = tuple(input_axes)
        self.output_axes = tuple(output_axes)
        in_shape = tuple(a.size for a in self.input_axes)
        out_shape = tuple(a.size for a in self.output_axes)
        self.rows = _checked_mass(rows, in_shape + out_shape,
                                  int(np.prod(in_shape, dtype=np.int64)), "channel")

    @property
    def exact(self) -> bool:
        return self.rows.dtype == object

    def to_float(self) -> "Channel":
        if not self.exact:
            return self
        return Channel(self.input_axes, self.output_axes, self.rows.astype(np.float64))

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

    def to_json_dict(self) -> dict:
        rows, mode = _mass_to_json(self.rows)
        return {
            "input_axes": [list(a.symbols) for a in self.input_axes],
            "output_axes": [list(a.symbols) for a in self.output_axes],
            "rows": rows,
            "mode": mode,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Channel":
        return Channel(tuple(Alphabet(s) for s in d["input_axes"]),
                       tuple(Alphabet(s) for s in d["output_axes"]),
                       _mass_from_json(d["rows"], d.get("mode", "float")))


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
    if not w.exact:
        raise ProbabilityError("apply_channel needs an exact channel")

    rest = tuple(c for c in range(p.k) if c not in coords)
    perm = coords + rest
    moved = np.transpose(p.mass, axes=perm)
    n_in = int(np.prod([p.axes[c].size for c in coords])) if coords else 1
    n_rest = int(np.prod([p.axes[c].size for c in rest])) if rest else 1
    n_out = int(np.prod([a.size for a in w.output_axes])) if w.output_axes else 1
    mat = moved.reshape(n_in, n_rest)
    wmat = w.rows.reshape(n_in, n_out)
    out = wmat.T @ mat  # (n_out, n_rest); works for object dtype too
    out_shape = tuple(a.size for a in w.output_axes) + tuple(p.axes[c].size for c in rest)
    out = out.reshape(out_shape)
    inv = tuple(np.argsort(perm))
    out = np.transpose(out, axes=inv)
    new_axes = list(p.axes)
    for pos, c in enumerate(coords):
        new_axes[c] = w.output_axes[pos]
    return JointPmf(new_axes, out)


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
        axes = tuple(Alphabet(s) for s in d["axes"])
        k = len(axes) - 1
        side = np.array([axes[-1].index(s) for s in d["side"]], dtype=np.int64)
        if len(d["users"]) != k:
            raise ProbabilityError(f"block has {len(d['users'])} user rows, not {k}")
        if any(len(d["users"][i]) != side.size for i in range(k)):
            raise ProbabilityError("every user row must be as long as the side sequence")
        users = np.array([[axes[i].index(s) for s in d["users"][i]] for i in range(k)],
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


def guide_table(cums: np.ndarray) -> np.ndarray:
    """``guide[..., b]`` = ``np.searchsorted(row, b / K, side="right")`` for each
    cumulative row of ``cums`` (last axis), K the least power of two >= its width."""
    buckets = 1 << (cums.shape[-1] - 1).bit_length()
    edges = np.arange(buckets) / buckets
    guide = [np.searchsorted(row, edges, side="right") for row in cums.reshape(-1, cums.shape[-1])]
    return np.array(guide).reshape(cums.shape[:-1] + (buckets,))


def inverse_cdf(cums: np.ndarray, guide: np.ndarray, u: np.ndarray, rows=0) -> np.ndarray:
    """``np.searchsorted(cums[rows[t]], u[t], side="right")`` for each letter t.

    ``cums`` holds nondecreasing rows ending in 1.0 (a law's one row may be
    1-D), ``guide`` is their ``guide_table``, ``rows`` each letter's row or
    one row for all, and u lies in [0, 1).  A guide table (Chen and Asau
    1974; Devroye 1986, III.2.4): K is a power of two, so u * K is exact
    and the guide at its floor counts the entries <= that bucket's edge.
    One compare with the next entry settles each letter with no entry in
    (edge, u]; the rest are searched, one call per distinct row.
    """
    width, buckets = cums.shape[-1], guide.shape[-1]
    count = np.take(guide, (u * buckets).astype(np.intp) + rows * buckets)
    late = np.flatnonzero(np.take(cums, count + rows * width) <= u)
    if late.size:
        table, late_rows = cums.reshape(-1, width), np.broadcast_to(rows, u.shape)[late]
        for r in np.unique(late_rows):
            sel = late[late_rows == r]
            count[sel] = np.searchsorted(table[r], u[sel], side="right")
    return count


@dataclass(frozen=True, eq=False)
class CellSampler:
    """A law's inverse-CDF table, built by ``JointPmf.to_float``.

    ``support`` holds the row-major cells of positive float64 mass over
    ``axes``, ``cum`` their cumulative mass, the last entry pinned to 1.0,
    and ``guide`` its ``guide_table`` for ``inverse_cdf``.
    """

    axes: tuple[Alphabet, ...]
    support: np.ndarray
    cum: np.ndarray
    guide: np.ndarray


def sample_iid(table: CellSampler, n: int, seed: int) -> SampleBlock:
    """Draw n i.i.d. tuples over k+1 axes from a law's table ``p.to_float()``.

    Inverse CDF over the row-major cells: draw t takes the first cell
    whose cumulative mass exceeds the t-th ``philox(seed)`` uniform, with
    the last positive cell's cumulative mass pinned to 1.0.  Zero-mass
    cells are left out of the search, so a float sum short of 1 cannot
    hand [sum, 1) to one of them; every other draw is the one the plain
    cumulative search over all cells gives, found by ``inverse_cdf``.
    Blocks are a pure function of (p, n, seed), bit-for-bit.
    """
    if not isinstance(table, CellSampler):
        raise ProbabilityError("sample_iid draws from a law's table; call to_float() explicitly")
    if n < 1:
        raise ProbabilityError("block length must be >= 1")
    if len(table.axes) < 2:
        raise ProbabilityError("pmf must cover at least one user axis plus side info")
    u = philox(seed).random(n)
    return SampleBlock.from_cells(table.axes,
                                  table.support[inverse_cdf(table.cum, table.guide, u)])


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
