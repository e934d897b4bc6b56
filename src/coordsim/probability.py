"""Exact probability arithmetic on labeled finite-alphabet dense tables.

Conventions used throughout the package:

* All logarithms are base 2; every information quantity is in bits.
* ``0 * log 0 == 0``.
* Total variation is the **unnormalized** L1 distance ``sum(|p - q|)`` with
  range [0, 2].  This is the convention under which the coupling inequality
  ``V(P_A, P_A') <= 2 P{A != A'}`` and the entropy-continuity bound
  ``|H(P) - H(P')| <= eps * log2(|A| / eps)`` (valid for eps <= 1/2) hold
  simultaneously.
* KL divergence returns ``math.inf`` when the support of ``p`` is not
  contained in the support of ``q``.

Tables are dense; the product of alphabet sizes is capped at ``CELL_CAP``
cells.  A pmf is checked once, where it is built: :class:`JointPMF` (a
table with no given axes) and :class:`ConditionalPMF` pass one check,
which also rejects a NaN or infinite entry.  The measures read numbers off
a table and build no pmf.  One pair of helpers reads and writes the JSON,
and :func:`iid_blocks` draws the i.i.d. blocks of every layer, as the
symbols of one :func:`iid_cells` draw of flat table cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CELL_CAP",
    "NORMALIZATION_TOL",
    "Alphabet",
    "JointPMF",
    "ConditionalPMF",
    "json_pointer",
    "DocumentKeyError",
    "UnknownKeyError",
    "MissingKeyError",
    "required",
    "reject_unknown_keys",
    "marginalize",
    "compose",
    "condition",
    "entropy",
    "conditional_entropy",
    "mutual_information",
    "total_variation",
    "kl_divergence",
    "inverse_cdf",
    "iid_cells",
    "cell_symbols",
    "iid_blocks",
    "binary_entropy",
]

CELL_CAP = 10**6
NORMALIZATION_TOL = 1e-12
_GUIDE_BUCKETS = 4096  # equal buckets of the guide table of a shared pmf

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Alphabet:
    """A named finite alphabet; symbols are the indices 0..size-1."""

    name: str
    size: int

    def __post_init__(self):
        if not self.name:
            raise ValueError("alphabet name must be nonempty")
        if self.size < 1:
            raise ValueError(f"alphabet {self.name!r} must have size >= 1, got {self.size}")


def _checked_table(given: tuple[Alphabet, ...], out: tuple[Alphabet, ...], table) -> np.ndarray:
    """The one check of every pmf table: a read-only float64 array over
    ``given + out`` (unique labels, at most ``CELL_CAP`` cells) whose
    entries are nonnegative and whose ``out`` block sums to 1 within
    ``NORMALIZATION_TOL`` for each ``given`` assignment.  A NaN or infinite
    entry fails the sum test."""
    axes = given + out
    names = [a.name for a in axes]
    if len(set(names)) != len(names):
        raise ValueError(f"axis labels must be unique, got {names}")
    shape = tuple([a.size for a in axes])
    cells = math.prod(shape)
    if cells > CELL_CAP:
        raise ValueError(f"table would have {cells} cells, exceeding the cap of {CELL_CAP}")
    table = np.asarray(table, dtype=np.float64)
    if table.shape != shape:
        raise ValueError(f"table shape {table.shape} does not match axes {[(a.name, a.size) for a in axes]}")
    if table.min() < 0:
        raise ValueError("pmf entries must be nonnegative")
    worst = np.abs(table.sum(axis=tuple(range(len(given), len(axes)))) - 1.0).max()
    if not worst <= NORMALIZATION_TOL:
        raise ValueError(f"pmf rows must sum to 1 within {NORMALIZATION_TOL}; worst |err|={float(worst)!r}")
    table.flags.writeable = False
    return table


def json_pointer(*path: str) -> str:
    """The RFC 6901 JSON pointer to ``path``, the keys from a document's
    root down: ``~`` in a key is written ``~0`` and ``/`` is written ``~1``."""
    return "".join("/" + key.replace("~", "~0").replace("/", "~1") for key in path)


class DocumentKeyError(ValueError):
    """A JSON document that its type cannot read because of a key:
    ``path`` holds the keys from the document's root down to that key,
    ``pointer`` is their JSON pointer, and ``reason`` says what is wrong."""

    reason = "invalid key"

    def __init__(self, *path: str):
        self.path = path
        self.pointer = json_pointer(*path)
        super().__init__(f"{self.pointer}: {self.reason}")


class UnknownKeyError(DocumentKeyError):
    """A key that the document's type does not read."""

    reason = "unknown key"


class MissingKeyError(DocumentKeyError):
    """A key that the document's type requires is absent."""

    reason = "required key missing"


def required(d: dict, key: str, *path: str):
    """``d[key]``, or :class:`MissingKeyError` at ``path`` and ``key`` when
    the object ``d`` lacks it; ``path`` leads from the document's root to
    ``d``."""
    try:
        return d[key]
    except KeyError:
        raise MissingKeyError(*path, key) from None


def reject_unknown_keys(d: dict, known, *path: str) -> None:
    """Raise :class:`UnknownKeyError` at the first key of ``d``, in document
    order, outside ``known``; ``path`` leads from the document's root to
    ``d``."""
    for key in d:
        if key not in known:
            raise UnknownKeyError(*path, key)


def _pmf_to_json(table: np.ndarray, **axes: tuple[Alphabet, ...]) -> dict:
    """A pmf's JSON: one ``[{"name", "size"}]`` list per keyword, then the
    row-major table."""
    doc = {key: [{"name": a.name, "size": a.size} for a in group] for key, group in axes.items()}
    return {**doc, "table": table.reshape(-1).tolist()}


def _pmf_from_json(d: dict, *keys: str) -> list:
    """The alphabet tuple under each of ``keys`` in a pmf's JSON, then the
    table in their shape.  A size must be an int (not a bool) >= 1, a table
    entry a JSON number (an int or a float, not a bool or a string), and
    every key one that the document's type reads; a key it requires and
    lacks raises :class:`MissingKeyError`."""
    groups = []
    for key in keys:
        group = []
        for i, a in enumerate(required(d, key)):
            name, size = (required(a, field, key, str(i)) for field in ("name", "size"))
            if type(size) is not int:
                raise ValueError(f"alphabet size must be an integer, got {size!r}")
            reject_unknown_keys(a, ("name", "size"), key, str(i))
            group.append(Alphabet(name, size))
        groups.append(tuple(group))
    entries = np.array(required(d, "table"), dtype=object).ravel()
    for v in entries:
        if type(v) not in (int, float):
            raise ValueError(f"pmf table entries must be JSON numbers, got {v!r}")
    reject_unknown_keys(d, (*keys, "table"))
    return groups + [entries.astype(np.float64).reshape([a.size for g in groups for a in g])]


class JointPMF:
    """A joint pmf over an ordered product of labeled alphabets."""

    def __init__(self, axes: Sequence[Alphabet], table: np.ndarray):
        self.axes = tuple(axes)
        self.axis_names = tuple(a.name for a in self.axes)
        self.table = _checked_table((), self.axes, table)

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform(cls, axes: Sequence[Alphabet]) -> "JointPMF":
        shape = tuple(a.size for a in axes)
        return cls(axes, np.full(shape, 1.0 / math.prod(shape)))

    @classmethod
    def product(cls, *factors: "JointPMF") -> "JointPMF":
        """Independent product of joint pmfs over disjoint axis sets."""
        axes = tuple(a for f in factors for a in f.axes)
        table = factors[0].table
        for f in factors[1:]:
            table = np.multiply.outer(table, f.table)
        return cls(axes, table)

    # -- helpers -----------------------------------------------------------

    def axis_index(self, name: str) -> int:
        try:
            return self.axis_names.index(name)
        except ValueError:
            raise KeyError(f"unknown axis label {name!r}; have {self.axis_names}") from None

    def _resolve(self, names: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.axis_index(n) for n in names)

    def __repr__(self):
        spec = ", ".join(f"{a.name}:{a.size}" for a in self.axes)
        return f"JointPMF({spec})"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return _pmf_to_json(self.table, axes=self.axes)

    @classmethod
    def from_json_dict(cls, d: dict) -> "JointPMF":
        return cls(*_pmf_from_json(d, "axes"))


class ConditionalPMF:
    """A conditional pmf: one unit-normalized row over ``out_axes`` per
    assignment of ``given_axes``."""

    def __init__(
        self,
        given_axes: Sequence[Alphabet],
        out_axes: Sequence[Alphabet],
        table: np.ndarray,
    ):
        self.given_axes = tuple(given_axes)
        self.out_axes = tuple(out_axes)
        self.given_names = tuple(a.name for a in self.given_axes)
        self.out_names = tuple(a.name for a in self.out_axes)
        self.table = _checked_table(self.given_axes, self.out_axes, table)

    def __repr__(self):
        g = ",".join(self.given_names)
        o = ",".join(self.out_names)
        return f"ConditionalPMF({o}|{g})"

    def aligned_table(self, given_order: Sequence[str]) -> np.ndarray:
        """Table transposed so the given axes appear in ``given_order``
        (out axes keep their order, trailing)."""
        if set(given_order) != set(self.given_names):
            raise ValueError(f"given_order {given_order} does not match {self.given_names}")
        perm = [self.given_names.index(n) for n in given_order]
        perm += [len(self.given_axes) + i for i in range(len(self.out_axes))]
        return self.table.transpose(perm)

    def to_json_dict(self) -> dict:
        return _pmf_to_json(self.table, given_axes=self.given_axes, out_axes=self.out_axes)

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConditionalPMF":
        return cls(*_pmf_from_json(d, "given_axes", "out_axes"))


# ---------------------------------------------------------------------------
# operations


def _dropped(p: JointPMF, keep: Sequence[str]) -> tuple[int, ...]:
    """The axes of ``p`` not named in ``keep``; an empty ``keep`` raises
    ValueError and an unknown name KeyError."""
    keep = list(keep)
    if not keep:
        raise ValueError("keep must be a nonempty axis set")
    keep_idx = set(p._resolve(keep))
    return tuple(i for i in range(len(p.axes)) if i not in keep_idx)


def marginalize(p: JointPMF, keep: Sequence[str]) -> JointPMF:
    """Sum out every axis not in ``keep``; kept axes stay in their original
    order."""
    drop = _dropped(p, keep)
    table = p.table.sum(axis=drop) if drop else p.table
    return JointPMF(tuple(a for i, a in enumerate(p.axes) if i not in drop), table)


def compose(p: JointPMF, c: ConditionalPMF) -> JointPMF:
    """Chain-rule product ``result(a, b) = p(a) * c(b | a|given)``.

    Requires ``c.given_axes`` to be a subset of ``p.axes`` and ``c.out_axes``
    to be disjoint from them; the result's axes are p's followed by c's out
    axes.
    """
    for name in c.given_names:
        p.axis_index(name)  # raises KeyError on unknown axis
    collision = set(c.out_names) & set(p.axis_names)
    if collision:
        raise ValueError(f"axis collision: {sorted(collision)} already present in the joint")
    for name in c.given_names:
        ga = c.given_axes[c.given_names.index(name)]
        pa = p.axes[p.axis_index(name)]
        if ga.size != pa.size:
            raise ValueError(f"shape mismatch on axis {name!r}: {pa.size} vs {ga.size}")
    n_p = len(p.axes)
    letters_p = _LETTERS[:n_p]
    letters_out = _LETTERS[n_p : n_p + len(c.out_axes)]
    letters_given = "".join(letters_p[p.axis_index(n)] for n in c.given_names)
    sub = f"{letters_p},{letters_given}{letters_out}->{letters_p}{letters_out}"
    table = np.einsum(sub, p.table, c.table)
    return JointPMF(p.axes + c.out_axes, table)


def condition(p: JointPMF, out: Sequence[str], given: Sequence[str]) -> ConditionalPMF:
    """Conditional pmf p(out | given).  A row whose conditioning assignment
    has zero mass is filled uniformly, so composing with it stays defined."""
    out = list(out)
    given = list(given)
    if set(out) & set(given):
        raise ValueError("out and given must be disjoint")
    m = marginalize(p, given + out)
    order = m._resolve(given + out)
    table = m.table.transpose(order)
    given_axes = tuple(m.axes[i] for i in order[: len(given)])
    out_axes = tuple(m.axes[i] for i in order[len(given) :])
    out_dims = tuple(range(len(given), len(given) + len(out)))
    mass = table.sum(axis=out_dims, keepdims=True)
    zero = mass == 0.0
    n_out = math.prod(a.size for a in out_axes)
    rows = np.where(zero, 1.0 / n_out, table / np.where(zero, 1.0, mass))
    return ConditionalPMF(given_axes, out_axes, rows)


def entropy(p: JointPMF, axes: Sequence[str] | None = None) -> float:
    """Shannon entropy in bits, of the whole joint or of a marginal; the
    marginal is summed off the table, as ``marginalize`` sums it."""
    drop = () if axes is None else _dropped(p, axes)
    table = p.table.sum(axis=drop) if drop else p.table
    t = table[table > 0]
    return float(-(t * np.log2(t)).sum())


def conditional_entropy(p: JointPMF, out: Sequence[str], given: Sequence[str]) -> float:
    """H(out | given) = H(out, given) - H(given), in bits."""
    out = list(out)
    given = list(given)
    if not given:
        return entropy(p, out)
    return entropy(p, out + given) - entropy(p, given)


def mutual_information(
    p: JointPMF, a: Sequence[str], b: Sequence[str], given: Sequence[str] | None = None
) -> float:
    """I(a; b | given) in bits; tiny negative float residue is clamped to 0."""
    g = list(given) if given else []
    value = conditional_entropy(p, list(a), g) - conditional_entropy(p, list(a), list(b) + g)
    return max(value, 0.0)


def _align(p: JointPMF, q: JointPMF) -> np.ndarray:
    """q's table transposed to p's axis order; axes must match as sets."""
    if set(p.axis_names) != set(q.axis_names):
        raise ValueError(f"axis mismatch: {p.axis_names} vs {q.axis_names}")
    order = q._resolve(p.axis_names)
    for pa, i in zip(p.axes, order):
        if pa.size != q.axes[i].size:
            raise ValueError(f"axis {pa.name!r} size mismatch: {pa.size} vs {q.axes[i].size}")
    return q.table.transpose(order)


def total_variation(p: JointPMF, q: JointPMF) -> float:
    """Unnormalized L1 distance sum(|p - q|), in [0, 2]."""
    return float(np.abs(p.table - _align(p, q)).sum())


def kl_divergence(p: JointPMF, q: JointPMF) -> float:
    """D(p || q) in bits; +inf when support(p) is not within support(q)."""
    qt = _align(p, q)
    mask = p.table > 0
    if np.any(qt[mask] == 0.0):
        return math.inf
    pm = p.table[mask]
    return float((pm * np.log2(pm / qt[mask])).sum())


def inverse_cdf(pmf, uniforms):
    """The cell of each uniform in [0, 1) under the pmf on ``pmf``'s last axis.

    Cell i holds the uniforms in [cdf[i-1], cdf[i]), the rule of
    ``np.searchsorted(cdf, u, side="right")``.  The CDF is 1 from the last
    cell with mass on, so the rounding slack of the sum goes to that cell
    and a zero-mass cell is never drawn.  ``pmf`` is either one pmf shared
    by all uniforms (1-D) or one pmf per uniform, of shape
    ``uniforms.shape + (cells,)``.

    A shared pmf is searched through a guide table (Chen & Asau 1974): the
    uniform u lies in bucket floor(u * 4096) of 4096 equal buckets, and
    where no CDF value falls inside its bucket, the bucket's one cell is
    read from the table.  The other uniforms, at most one bucket per CDF
    value, fall back to ``searchsorted``, so every cell is the searched one
    and no draws x cells array is built.
    """
    cdf = np.cumsum(pmf, axis=-1)
    cdf[cdf == cdf[..., -1:]] = 1.0
    if cdf.ndim > 1:
        return (np.asarray(uniforms)[..., None] >= cdf).sum(axis=-1)
    # the cell of every uniform in bucket b is the cell of its left edge
    # b / 4096, unless a CDF value lies inside the bucket: then it is -1
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    first = np.searchsorted(cdf, edges[:-1], side="right")
    guide = np.where(first == np.searchsorted(cdf, edges[1:], side="left"), first, -1)
    u = np.asarray(uniforms, dtype=np.float64)
    flat = u.reshape(-1)
    cells = guide[(flat * _GUIDE_BUCKETS).astype(np.intp)]  # u * 4096 is exact
    split = np.flatnonzero(cells < 0)
    cells[split] = np.searchsorted(cdf, flat[split], side="right")
    return cells.reshape(u.shape)[()]


def iid_cells(p: JointPMF, rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` i.i.d. blocks of length ``n`` drawn from ``p``, as a
    (count, n) array of cells of ``p``'s flat table: one
    ``rng.random((count, n))`` call through :func:`inverse_cdf`."""
    return inverse_cdf(p.table.reshape(-1), rng.random((count, n)))


def cell_symbols(p: JointPMF, cells: np.ndarray) -> tuple[np.ndarray, ...]:
    """The symbols of flat cells of ``p``'s table: one array of ``cells``'s
    shape per axis, in ``p``'s axis order, of the narrowest unsigned dtype
    that holds the largest axis."""
    dtype = np.min_scalar_type(max(a.size for a in p.axes) - 1)
    # row i of ``symbols`` is the axis-i symbol of each flat cell
    symbols = np.indices(p.table.shape, dtype=dtype).reshape(len(p.axes), -1)
    return tuple(axis.take(cells) for axis in symbols)


def iid_blocks(p: JointPMF, rng: np.random.Generator, count: int, n: int) -> tuple[np.ndarray, ...]:
    """``count`` i.i.d. blocks of length ``n`` drawn from ``p``: one
    (count, n) symbol array per axis, in ``p``'s axis order, the
    :func:`cell_symbols` of one :func:`iid_cells` draw."""
    return cell_symbols(p, iid_cells(p, rng, count, n))


def binary_entropy(p) -> np.ndarray | float:
    """h(p) = -p log2 p - (1-p) log2 (1-p), elementwise, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    q = 1.0 - p
    h = p * np.log2(p, out=np.zeros_like(p), where=p > 0)
    h += q * np.log2(q, out=np.zeros_like(p), where=p < 1)
    return -h if h.shape else -float(h)
