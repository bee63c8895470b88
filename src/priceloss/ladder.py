"""Domain types: price ladder, propensities, distributions, observed records.

Conventions used across the package:

* Prices live on a fixed ladder ``p_1 < ... < p_m`` (1-based in all docs,
  0-based in arrays).
* A customer's valuation is an index in ``0..m`` where 0 is the "buys at no
  ladder price" slot and ``j >= 1`` means the highest acceptable price is
  ``p_j``.
* Observed outcomes are indexed ``0..2m-1``: index ``j-1`` is a sale at
  ``p_j``, index ``m+j-1`` a no-sale at ``p_j``.
"""

from __future__ import annotations

import csv
import io
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain

import numpy as np

SIMPLEX_TOL = 1e-9

# Logging probabilities below this make inverse-propensity weights unreliable.
PROPENSITY_FLOOR = 1e-6


class SimplexError(ValueError):
    """A probability vector violates nonnegativity / sum-to-one constraints."""


def _check_simplex(probs: np.ndarray, name: str, strict_positive: bool = False) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise SimplexError(f"{name}: expected a 1-D probability vector")
    if not np.all(np.isfinite(probs)):
        raise SimplexError(f"{name}: non-finite entries")
    if strict_positive:
        if np.any(probs <= 0.0):
            raise SimplexError(f"{name}: entries must be strictly positive")
    elif np.any(probs < -SIMPLEX_TOL):
        raise SimplexError(f"{name}: negative entries")
    total = float(probs.sum())
    if abs(total - 1.0) > SIMPLEX_TOL:
        raise SimplexError(f"{name}: entries sum to {total}, expected 1")
    return probs


@dataclass(frozen=True)
class PriceLadder:
    """Ordered discrete price grid plus a per-unit cost."""

    prices: np.ndarray
    unit_cost: float = 0.0

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=np.float64)
        if prices.ndim != 1 or prices.size < 1:
            raise ValueError("ladder needs at least one price")
        if np.any(prices <= 0) or not np.all(np.isfinite(prices)):
            raise ValueError("prices must be positive and finite")
        if np.any(np.diff(prices) <= 0):
            raise ValueError("prices must be strictly increasing")
        if self.unit_cost < 0:
            raise ValueError("unit cost must be nonnegative")
        if np.any(prices <= self.unit_cost):
            warnings.warn(
                "some ladder prices do not exceed the unit cost; "
                "those rungs earn nonpositive margin",
                stacklevel=2,
            )
        object.__setattr__(self, "prices", prices)

    @property
    def m(self) -> int:
        return int(self.prices.size)

    @property
    def margins(self) -> np.ndarray:
        """Per-rung margin ``p_j - C``."""
        return self.prices - self.unit_cost


@dataclass(frozen=True)
class Propensities:
    """Logging distribution pi_0(. | x) over the ladder. Strictly positive."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _check_simplex(self.probs, "propensities", strict_positive=True)
        object.__setattr__(self, "probs", probs)

    @property
    def m(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class ValuationDist:
    """Distribution over valuation slots 0..m (slot 0: buys at no price)."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _check_simplex(self.probs, "valuation distribution")
        object.__setattr__(self, "probs", np.maximum(probs, 0.0))

    @property
    def m(self) -> int:
        return int(self.probs.size) - 1


@dataclass(frozen=True)
class OutcomeDist:
    """Distribution over the 2m observed outcomes (sale block then no-sale)."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _check_simplex(self.probs, "outcome distribution")
        if probs.size % 2 != 0:
            raise SimplexError("outcome distribution length must be even (2m)")
        object.__setattr__(self, "probs", np.maximum(probs, 0.0))

    @property
    def m(self) -> int:
        return int(self.probs.size) // 2


@dataclass(frozen=True)
class PolicyDist:
    """Randomized pricing decision pi(. | x) over the ladder."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _check_simplex(self.probs, "policy distribution")
        object.__setattr__(self, "probs", np.maximum(probs, 0.0))

    @property
    def m(self) -> int:
        return int(self.probs.size)


@dataclass
class Dataset:
    """Column-oriented container for observed records.

    ``price_index`` is 1-based. ``valuations`` is ``None`` unless latent
    valuations are available (synthetic data). ``propensities`` holds one
    logging distribution per row.
    """

    features: np.ndarray  # (n, d)
    price_index: np.ndarray  # (n,) int, 1..m
    sold: np.ndarray  # (n,) bool
    propensities: np.ndarray  # (n, m)
    valuations: np.ndarray | None = None  # (n,) int in 0..m

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        self.price_index = np.asarray(self.price_index, dtype=np.int64)
        self.sold = np.asarray(self.sold, dtype=bool)
        self.propensities = np.asarray(self.propensities, dtype=np.float64)
        if self.valuations is not None:
            self.valuations = np.asarray(self.valuations, dtype=np.int64)
        n = self.features.shape[0]
        if not (
            self.price_index.shape == (n,)
            and self.sold.shape == (n,)
            and self.propensities.shape[0] == n
        ):
            raise ValueError("dataset columns have mismatched lengths")

    @property
    def n(self) -> int:
        return int(self.features.shape[0])

    @property
    def d(self) -> int:
        return int(self.features.shape[1])

    @property
    def m(self) -> int:
        return int(self.propensities.shape[1])

    def outcome_indices(self) -> np.ndarray:
        """Outcome slot 0..2m-1 per row."""
        idx0 = self.price_index - 1
        return np.where(self.sold, idx0, self.m + idx0)

    def subset(self, rows: np.ndarray) -> "Dataset":
        return Dataset(
            features=self.features[rows],
            price_index=self.price_index[rows],
            sold=self.sold[rows],
            propensities=self.propensities[rows],
            valuations=None if self.valuations is None else self.valuations[rows],
        )


def validate(dataset: Dataset) -> np.ndarray:
    """Indices of the rows whose logged price had a propensity below
    ``PROPENSITY_FLOOR`` (overlap violations). Never raises."""
    picked = dataset.propensities[np.arange(dataset.n), dataset.price_index - 1]
    return np.flatnonzero(picked < PROPENSITY_FLOOR)


# ---------------------------------------------------------------------------
# CSV schema: x_0,...,x_{d-1},price_index,sold[,valuation_index][,pi_1..pi_m]
# Numbers are ASCII numerals without '_' (surrounding whitespace allowed), and
# features must be finite; sold is 0/1/true/false in any case; a field may be
# quoted with '"'. Columns the schema does not use are ignored.
# The reader parses the whole file in one np.loadtxt pass with one structured
# field per header column, so every row must have the header's width; its line
# source rejects the blank lines loadtxt would skip. Range and propensity-row
# checks then run as whole-column comparisons. Only when the pass fails does a
# csv.reader walk run, to name the first bad row or cell in schema order with
# the same per-cell rule; checks run in schema order, each naming its first
# bad row. The writer formats each column once.
# ---------------------------------------------------------------------------

_SOLD = {"0": False, "false": False, "1": True, "true": True}


class SchemaError(ValueError):
    """A dataset file does not conform to the CSV schema."""


def _opened(path_or_buf, mode):
    if isinstance(path_or_buf, (str, bytes)):
        return open(path_or_buf, mode, newline="")
    return nullcontext(path_or_buf)


def write_csv(dataset: Dataset, path_or_buf) -> None:
    """Emit a dataset in the canonical CSV schema, including propensities."""
    vals = [] if dataset.valuations is None else [dataset.valuations]
    header = (
        [f"x_{j}" for j in range(dataset.d)]
        + ["price_index", "sold"]
        + (["valuation_index"] if vals else [])
        + [f"pi_{j + 1}" for j in range(dataset.m)]
    )
    ints = [dataset.price_index, dataset.sold.astype(np.int64)] + vals
    columns = (
        [map(repr, col) for col in dataset.features.T.tolist()]
        + [map(str, col.tolist()) for col in ints]
        + [map(repr, col) for col in dataset.propensities.T.tolist()]
    )
    with _opened(path_or_buf, "w") as f:
        # Every field is a number or a fixed header name, so no field ever
        # needs csv quoting; rows end in "\r\n" as csv.writer's would.
        f.write(",".join(header) + "\r\n")
        f.writelines(",".join(row) + "\r\n" for row in zip(*columns))


def _fail(i, name, msg):
    raise SchemaError(f"row {i + 2}, column '{name}': {msg}")


def _check_range(values, name, lo, hi):
    bad = np.flatnonzero((values < lo) | (values > hi))
    if bad.size:
        _fail(bad[0], name, f"value {values[bad[0]]} outside {lo}..{hi}")


def _finite(values, name):
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        _fail(bad[0], name, f"not a finite number: {float(values[bad[0]])}")
    return values


def _numeral(cell: str) -> str:
    """``cell`` without surrounding whitespace, if numpy's parser would read it.

    Python's ``float`` and ``int`` also take '_' digit separators and
    non-ASCII digits; numpy's parser takes neither.
    """
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(cell)
    return text


def _sold(cell: str) -> bool:
    return _SOLD[cell.strip().lower()]


def _cell_rule(name: str):
    """(converter, dtype, message) of a schema column; ``message.format(cell)``
    describes a cell the converter rejects."""
    if name == "sold":
        return _sold, np.bool_, "expected 0/1, got {!r}"
    if name == "price_index":
        return lambda c: int(_numeral(c)), np.int64, "not an integer: {!r}"
    if name == "valuation_index":
        return lambda c: int(_numeral(c)), np.int64, "not an integer"
    if name.startswith("x_"):
        return lambda c: float(_numeral(c)), np.float64, "not a number: {!r}"
    return lambda c: float(_numeral(c)), np.float64, "not a number"


@dataclass(frozen=True)
class _Layout:
    """Where each schema column sits in a file, as its header says."""

    header: list[str]
    cols: dict[str, int]
    d: int
    m: int
    has_val: bool
    const: Propensities | None

    @classmethod
    def of(cls, header: list[str], constant_propensities) -> "_Layout":
        cols = {name: k for k, name in enumerate(header)}
        d = 0
        while f"x_{d}" in cols:
            d += 1
        if d == 0:
            raise SchemaError("no feature columns x_0.. found in header")
        for required in ("price_index", "sold"):
            if required not in cols:
                raise SchemaError(f"missing required column '{required}'")
        m_cols = 0
        while f"pi_{m_cols + 1}" in cols:
            m_cols += 1
        if m_cols == 0 and constant_propensities is None:
            raise SchemaError(
                "no pi_1..pi_m columns and no constant propensities supplied"
            )
        const = None
        if constant_propensities is not None:
            const = Propensities(np.asarray(constant_propensities, dtype=np.float64))
        m = m_cols if const is None else const.m
        return cls(header, cols, d, m, "valuation_index" in cols, const)

    def used(self) -> list[str]:
        """The columns the dataset is built from, in schema order."""
        return (
            [f"x_{j}" for j in range(self.d)]
            + ["price_index", "sold"]
            + (["valuation_index"] if self.has_val else [])
            + ([f"pi_{j + 1}" for j in range(self.m)] if self.const is None else [])
        )

    def dtype(self) -> np.dtype:
        """One field per header column; a column the schema does not use is a
        one-character string that nothing reads."""
        fields = [(f"c{k}", "U1") for k in range(len(self.header))]
        for name in self.used():
            fields[self.cols[name]] = (f"c{self.cols[name]}", _cell_rule(name)[1])
        return np.dtype(fields)

    def dataset(self, column) -> Dataset:
        """The dataset from ``column(name)``, each column's values as an array,
        checking ranges and propensity rows in schema order."""
        X = np.column_stack([_finite(column(f"x_{j}"), f"x_{j}") for j in range(self.d)])
        price = np.ascontiguousarray(column("price_index"))
        _check_range(price, "price_index", 1, self.m)
        sold = np.ascontiguousarray(column("sold"))
        vals = None
        if self.has_val:
            vals = np.ascontiguousarray(column("valuation_index"))
            _check_range(vals, "valuation_index", 0, self.m)
        if self.const is not None:
            pis = np.tile(self.const.probs, (X.shape[0], 1))
        else:
            pis = np.column_stack([column(f"pi_{j + 1}") for j in range(self.m)])
            ok = (pis > 0.0).all(axis=1) & (np.abs(pis.sum(axis=1) - 1.0) <= SIMPLEX_TOL)
            for i in np.flatnonzero(~ok):
                try:
                    _check_simplex(pis[i], f"row {i + 2} propensities", strict_positive=True)
                except SimplexError as exc:
                    raise SchemaError(str(exc)) from None
        return Dataset(features=X, price_index=price, sold=sold, propensities=pis, valuations=vals)


def _data_lines(lines):
    """``lines`` unchanged, raising on a blank one (loadtxt would skip it)."""
    for k, line in enumerate(lines, start=1):
        if not line.strip():
            raise SchemaError(f"line {k} after the header is blank")
        yield line


def _walked_column(rows, name, k):
    """Column ``name`` (field ``k``) converted cell by cell, naming the first bad one."""
    convert, dtype, msg = _cell_rule(name)
    out = np.empty(len(rows), dtype)
    for i, row in enumerate(rows):
        try:
            out[i] = convert(row[k])
        except (ValueError, KeyError):
            _fail(i, name, msg.format(row[k]))
        except OverflowError:
            _fail(i, name, f"value {row[k]} does not fit in 64 bits")
    return out


def _name_first_error(f, layout: _Layout) -> None:
    """Walk the text again with ``csv.reader`` and raise a :class:`SchemaError`
    naming the first bad row or cell in schema order; return if there is none."""
    reader = csv.reader(f)
    next(reader)
    width = len(layout.header)
    rows = []
    try:
        for row in reader:
            if len(row) != width:
                raise SchemaError(f"row {len(rows) + 2}: expected {width} fields, got {len(row)}")
            rows.append(row)
    except csv.Error as exc:
        raise SchemaError(f"row {len(rows) + 2}: {exc}") from None
    layout.dataset(lambda name: _walked_column(rows, name, layout.cols[name]))


def read_csv(path_or_buf, constant_propensities=None) -> Dataset:
    """Load a dataset from the canonical CSV schema.

    Propensities come either from per-row ``pi_1..pi_m`` columns or from
    ``constant_propensities`` (one vector applied to every row). Raises
    :class:`SchemaError` naming the offending row/column on any violation.

    The records are parsed in one ``np.loadtxt`` pass; a file is accepted
    exactly when that pass and the range and propensity checks accept it. When
    the pass fails, a ``csv.reader`` walk over the text names the first bad row
    or cell; if it finds none, the pass's own message is raised.
    """
    with _opened(path_or_buf, "r") as f:
        if not f.seekable():
            f = io.StringIO(f.read(), newline="")  # the naming walk reads it twice
        start = f.tell()
        try:
            header = next(csv.reader(f))
        except StopIteration:
            raise SchemaError("empty file") from None
        except csv.Error as exc:
            raise SchemaError(f"row 1: {exc}") from None
        layout = _Layout.of(header, constant_propensities)
        first = next(f, None)
        if first is None:
            raise SchemaError("dataset has a header but no rows")
        sold = layout.cols["sold"]
        try:
            table = np.loadtxt(
                _data_lines(chain([first], f)),
                dtype=layout.dtype(),
                delimiter=",",
                quotechar='"',
                comments=None,
                converters={sold: _sold},
                ndmin=1,
            )
        except ValueError as exc:
            f.seek(start)
            _name_first_error(f, layout)
            raise SchemaError(str(exc)) from None
    return layout.dataset(lambda name: table[f"c{layout.cols[name]}"])
