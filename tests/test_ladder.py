import io

import numpy as np
import pytest

from priceloss import ladder as lad


def test_price_ladder_validation():
    lad.PriceLadder(np.array([1.0, 2.0, 5.0]))
    with pytest.raises(ValueError):
        lad.PriceLadder(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        lad.PriceLadder(np.array([]))
    with pytest.warns(UserWarning):
        lad.PriceLadder(np.array([1.0, 2.0]), unit_cost=1.0)


def test_distribution_constructors_reject_bad_vectors():
    with pytest.raises(lad.SimplexError):
        lad.Propensities(np.array([0.5, 0.6]))
    with pytest.raises(lad.SimplexError):
        lad.Propensities(np.array([1.0, 0.0]))  # overlap needs strictly positive
    with pytest.raises(lad.SimplexError):
        lad.ValuationDist(np.array([0.7, 0.4, -0.1]))
    with pytest.raises(lad.SimplexError):
        lad.OutcomeDist(np.array([0.4, 0.2, 0.4]))  # odd length
    # within-tolerance wobble is accepted
    lad.PolicyDist(np.array([0.5, 0.5 + 5e-10]))


def _toy_dataset(valuations=None, propensities=None):
    n, m = 4, 3
    pis = np.full((n, m), 1.0 / m) if propensities is None else propensities
    return lad.Dataset(
        features=np.arange(n * 2, dtype=float).reshape(n, 2),
        price_index=np.array([1, 2, 3, 2]),
        sold=np.array([True, False, False, True]),
        propensities=pis,
        valuations=valuations,
    )


def test_validate_uniform_propensities_clean():
    report = lad.validate(_toy_dataset())
    assert report.ok
    assert "ignorability" in report.assumed[0]


def test_validate_flags_overlap_violation():
    pis = np.full((4, 3), 1.0 / 3)
    pis[1] = [0.5, 1e-9, 0.5 - 1e-9]
    report = lad.validate(_toy_dataset(propensities=pis))
    assert report.overlap_violations == [1]


def test_validate_flags_inconsistent_latents():
    # row 0: sold at price 1 but valuation 0 says they never buy
    report = lad.validate(_toy_dataset(valuations=np.array([0, 1, 1, 2])))
    assert 0 in report.consistency_violations
    assert not report.ok


def test_csv_round_trip_with_propensities_and_latents():
    ds = _toy_dataset(valuations=np.array([1, 1, 2, 3]))
    buf = io.StringIO()
    lad.write_csv(ds, buf)
    back = lad.read_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.price_index, ds.price_index)
    assert np.array_equal(back.sold, ds.sold)
    assert np.array_equal(back.valuations, ds.valuations)
    assert np.allclose(back.propensities, ds.propensities)


def test_csv_constant_propensities_and_schema_errors():
    text = "x_0,x_1,price_index,sold\n0.1,0.2,1,1\n0.3,0.4,2,0\n"
    ds = lad.read_csv(io.StringIO(text), constant_propensities=[0.5, 0.5])
    assert ds.m == 2
    assert np.allclose(ds.propensities, 0.5)

    with pytest.raises(lad.SchemaError, match="no pi_1"):
        lad.read_csv(io.StringIO(text))
    with pytest.raises(lad.SchemaError, match="price_index"):
        lad.read_csv(
            io.StringIO("x_0,x_1,price_index,sold\n0.1,0.2,7,1\n"),
            constant_propensities=[0.5, 0.5],
        )
    with pytest.raises(lad.SchemaError, match="sold"):
        lad.read_csv(
            io.StringIO("x_0,x_1,price_index,sold\n0.1,0.2,1,maybe\n"),
            constant_propensities=[0.5, 0.5],
        )
    with pytest.raises(lad.SchemaError, match="missing required"):
        lad.read_csv(io.StringIO("x_0,sold\n0.1,1\n"), constant_propensities=[1.0])


def test_dataset_outcome_indices_and_subset():
    ds = _toy_dataset()
    assert np.array_equal(ds.outcome_indices(), np.array([0, 4, 5, 1]))
    sub = ds.subset(np.array([0, 2]))
    assert sub.n == 2
    assert np.array_equal(sub.price_index, np.array([1, 3]))
