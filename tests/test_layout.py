"""The rung-major kernels give the bits of the row-major formulas written out
below.

Each reduction over the rungs runs along rows of an (m, n) array. numpy adds
up to 7 entries along axis 1 in order, and always adds in order along axis
0, so up to 7 rungs every output is bit-identical to the axis-1 formulas.
From 8 rungs on numpy's axis-1 sum is pairwise, so the two differ at the
rounding level only.
"""

import io

import numpy as np
import pytest

from priceloss.ladder import SIMPLEX_TOL, Dataset, PriceLadder, SchemaError, read_csv, write_csv
from priceloss.losses import policy_losses
from priceloss.policy import softmax_rows
from priceloss.synthgen import (
    GenConfig,
    _sample_categorical_rows,
    generate_dataset,
    sample_surface,
    true_policy_value,
)

SAME_BITS_RUNGS = (1, 2, 5, 7)
WIDE_RUNGS = (8, 20)
EPS = np.finfo(np.float64).eps


def _softmax_rows_row_major(scores):
    s = np.array(scores, dtype=np.float64)
    s -= s.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)
    return s


def _sample_row_major(probs, rng):
    cum = np.cumsum(probs, axis=1)
    cum[:, -1] = 1.0
    u = rng.random(probs.shape[0])
    return (u[:, None] > cum).sum(axis=1)


def _generate_row_major(surface, config, rng):
    X = rng.standard_normal((config.n, config.d))
    demand = surface.demand_matrix(X, config.ladder.prices)
    pi0 = _softmax_rows_row_major(config.softmax_scale * demand)
    u = rng.random(config.n)
    valuation = (u[:, None] <= demand).sum(axis=1)
    price0 = _sample_row_major(pi0, rng)
    return Dataset(
        features=X,
        price_index=price0 + 1,
        sold=valuation >= (price0 + 1),
        propensities=pi0,
        valuations=valuation,
    )


def _true_value_row_major(pm, valuations, ladder):
    accept = (np.arange(1, ladder.m + 1)[None, :] <= valuations[:, None]).astype(np.float64)
    return float((-(pm * ladder.margins * accept).sum(axis=1)).mean())


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _draws(m, seed, n=3000):
    """A generator, (n, m) scores, a ladder of m rungs, and a surface and a
    generator config on that ladder."""
    rng = np.random.default_rng(seed)
    scores = 3.0 * rng.standard_normal((n, m))
    ladder = PriceLadder(np.arange(1.0, m + 1.0))
    surface = sample_surface(rng, d=4)
    return rng, scores, ladder, surface, GenConfig(n=n, d=4, ladder=ladder)


@pytest.mark.parametrize("m", SAME_BITS_RUNGS)
def test_rung_major_kernels_match_the_row_major_formulas_bit_for_bit(m):
    rng, scores, ladder, surface, config = _draws(m, seed=m)
    probs = softmax_rows(scores)
    assert probs.shape == scores.shape
    _same_bits(probs, _softmax_rows_row_major(scores))

    state = rng.bit_generator.state
    picks = _sample_categorical_rows(probs, rng)
    rng.bit_generator.state = state
    _same_bits(picks, _sample_row_major(probs, rng))

    state = rng.bit_generator.state
    ds = generate_dataset(surface, config, rng)
    rng.bit_generator.state = state
    old = _generate_row_major(surface, config, rng)
    for name in ("features", "price_index", "sold", "propensities", "valuations"):
        _same_bits(getattr(ds, name), getattr(old, name))

    assert true_policy_value(probs, ds.valuations, ladder) == _true_value_row_major(
        probs, ds.valuations, ladder
    )
    # One record at a time, so that the mean cannot round a per-record
    # difference away.
    vals = rng.integers(0, m + 1, size=200)
    for i in range(vals.size):
        row = slice(i, i + 1)
        value = true_policy_value(probs[row], vals[row], ladder)
        assert value == _true_value_row_major(probs[row], vals[row], ladder)
    for pm in (probs, np.ascontiguousarray(probs)):
        coef = rng.standard_normal(pm.shape)
        _same_bits(policy_losses(pm, coef), np.sum(pm * coef, axis=1))


def _close(a, b, m):
    """Equal up to the rounding of a sum of m terms: the in-order and the
    pairwise sum of m nonnegative terms each lie within (m - 1) unit
    roundoffs of the exact sum."""
    np.testing.assert_allclose(a, b, rtol=m * EPS, atol=0)


@pytest.mark.parametrize("m", WIDE_RUNGS)
def test_rung_major_kernels_match_the_row_major_formulas_to_rounding(m):
    rng, scores, ladder, surface, config = _draws(m, seed=m)
    probs = softmax_rows(scores)
    _close(probs, _softmax_rows_row_major(scores), m)

    state = rng.bit_generator.state
    picks = _sample_categorical_rows(probs, rng)
    rng.bit_generator.state = state
    _same_bits(picks, _sample_row_major(probs, rng))

    state = rng.bit_generator.state
    ds = generate_dataset(surface, config, rng)
    rng.bit_generator.state = state
    old = _generate_row_major(surface, config, rng)
    _close(ds.propensities, old.propensities, m)
    for name in ("features", "price_index", "sold", "valuations"):
        _same_bits(getattr(ds, name), getattr(old, name))

    value = true_policy_value(probs, ds.valuations, ladder)
    _close(value, _true_value_row_major(probs, ds.valuations, ladder), m)
    coef = rng.standard_normal(probs.shape)
    bound = m * EPS * np.sum(np.abs(probs * coef), axis=1)
    assert np.all(np.abs(policy_losses(probs, coef) - np.sum(probs * coef, axis=1)) <= bound)


@pytest.mark.parametrize("m", SAME_BITS_RUNGS)
def test_read_csv_accepts_the_propensity_rows_the_row_major_check_accepts(m):
    """One-row files whose propensities sum to within a few roundings of the
    tolerance: read_csv accepts exactly the rows the axis-1 check accepted."""
    rng = np.random.default_rng(40 + m)
    pis = rng.dirichlet(np.ones(m), size=150)
    offsets = SIMPLEX_TOL + rng.integers(-8, 9, size=150) * EPS / 4
    pis *= 1.0 + np.where(np.arange(150) % 2, offsets, -offsets)[:, None]
    expected = (pis > 0.0).all(axis=1) & (np.abs(pis.sum(axis=1) - 1.0) <= SIMPLEX_TOL)
    assert expected.any() and not expected.all()
    for row, ok in zip(pis, expected):
        ds = Dataset(
            features=np.zeros((1, 1)),
            price_index=np.ones(1, dtype=np.int64),
            sold=np.zeros(1, dtype=bool),
            propensities=row[None, :],
        )
        buf = io.StringIO()
        write_csv(ds, buf)
        buf.seek(0)
        if ok:
            _same_bits(read_csv(buf).propensities, row[None, :])
        else:
            with pytest.raises(SchemaError, match="row 2 propensities"):
                read_csv(buf)
