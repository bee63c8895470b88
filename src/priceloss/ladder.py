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
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from operator import itemgetter

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


@dataclass
class ValidationReport:
    """Report-only diagnostics for a dataset against the model assumptions."""

    n: int
    overlap_violations: list[int] = field(default_factory=list)
    consistency_violations: list[int] = field(default_factory=list)
    assumed: tuple[str, ...] = (
        "ignorability (untestable from data; assumed)",
        "consistency of observed outcomes (untestable without latents; assumed)",
    )

    @property
    def ok(self) -> bool:
        return not self.overlap_violations and not self.consistency_violations


def validate(dataset: Dataset, floor: float = PROPENSITY_FLOOR) -> ValidationReport:
    """Flag overlap violations and, when latents exist, inconsistent records.

    Never raises: callers decide what to do with the report.
    """
    report = ValidationReport(n=dataset.n)
    picked = dataset.propensities[np.arange(dataset.n), dataset.price_index - 1]
    report.overlap_violations = [int(i) for i in np.nonzero(picked < floor)[0]]
    if dataset.valuations is not None:
        should_sell = dataset.price_index <= dataset.valuations
        bad = np.nonzero(should_sell != dataset.sold)[0]
        report.consistency_violations = [int(i) for i in bad]
    return report


# ---------------------------------------------------------------------------
# CSV schema: x_0,...,x_{d-1},price_index,sold[,valuation_index][,pi_1..pi_m]
# The codec works one column at a time. The reader parses each column in one
# pass into a typed array and checks ranges and propensity rows as whole-column
# comparisons; only a column that fails to parse is walked again, to name its
# first bad cell. Checks run in schema order, each naming its first bad row.
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
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def _fail(i, name, msg):
    raise SchemaError(f"row {i + 2}, column '{name}': {msg}")


def _check_range(values, name, lo, hi):
    bad = np.flatnonzero((values < lo) | (values > hi))
    if bad.size:
        _fail(bad[0], name, f"value {values[bad[0]]} outside {lo}..{hi}")


def read_csv(path_or_buf, constant_propensities=None) -> Dataset:
    """Load a dataset from the canonical CSV schema.

    Propensities come either from per-row ``pi_1..pi_m`` columns or from
    ``constant_propensities`` (one vector applied to every row). Raises
    :class:`SchemaError` naming the offending row/column on any violation.
    """
    with _opened(path_or_buf, "r") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file") from None
        rows = list(reader)

    cols = {name: k for k, name in enumerate(header)}
    d = 0
    while f"x_{d}" in cols:
        d += 1
    if d == 0:
        raise SchemaError("no feature columns x_0.. found in header")
    for required in ("price_index", "sold"):
        if required not in cols:
            raise SchemaError(f"missing required column '{required}'")
    has_val = "valuation_index" in cols
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

    n = len(rows)
    if n == 0:
        raise SchemaError("dataset has a header but no rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise SchemaError(
                f"row {i + 2}: expected {len(header)} fields, got {len(row)}"
            )

    def parse(name, msg, convert=float, dtype=np.float64):
        """Column ``name`` as a typed array; ``msg.format(cell)`` describes a bad cell."""
        k = cols[name]
        try:
            return np.fromiter(map(convert, map(itemgetter(k), rows)), dtype, n)
        except (ValueError, KeyError, OverflowError):
            for i, row in enumerate(rows):
                try:
                    dtype(convert(row[k]))
                except (ValueError, KeyError):
                    _fail(i, name, msg.format(row[k]))
                except OverflowError:
                    _fail(i, name, f"value {row[k]} does not fit in 64 bits")
            raise

    X = np.empty((n, d))
    for j in range(d):
        X[:, j] = parse(f"x_{j}", "not a number: {!r}")
    price = parse("price_index", "not an integer: {!r}", int, np.int64)
    _check_range(price, "price_index", 1, m)
    sold = parse("sold", "expected 0/1, got {!r}", lambda c: _SOLD[c.strip().lower()], bool)
    vals = None
    if has_val:
        vals = parse("valuation_index", "not an integer", int, np.int64)
        _check_range(vals, "valuation_index", 0, m)
    if const is not None:
        pis = np.tile(const.probs, (n, 1))
    else:
        pis = np.empty((n, m))
        for j in range(m):
            pis[:, j] = parse(f"pi_{j + 1}", "not a number")
        ok = (pis > 0.0).all(axis=1) & (np.abs(pis.sum(axis=1) - 1.0) <= SIMPLEX_TOL)
        for i in np.flatnonzero(~ok):
            try:
                _check_simplex(pis[i], f"row {i + 2} propensities", strict_positive=True)
            except SimplexError as exc:
                raise SchemaError(str(exc)) from None

    return Dataset(features=X, price_index=price, sold=sold, propensities=pis, valuations=vals)
