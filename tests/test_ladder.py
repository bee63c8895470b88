import csv
import io
import os
import warnings

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
    assert lad.validate(_toy_dataset()).size == 0


def test_validate_flags_overlap_violation():
    pis = np.full((4, 3), 1.0 / 3)
    pis[1] = [0.5, 1e-9, 0.5 - 1e-9]
    assert lad.validate(_toy_dataset(propensities=pis)).tolist() == [1]


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


_HEADER = "x_0,x_1,price_index,sold,valuation_index,pi_1,pi_2"
_GOOD = "0.1,0.2,1,1,2,0.5,0.5"


def _csv(*rows):
    return "\n".join((_HEADER,) + rows) + "\n"


_BAD_CELLS = {
    "x-not-a-number": (_csv("0.1,abc,1,1,2,0.5,0.5"), "row 2, column 'x_1': not a number: 'abc'"),
    "price-not-an-integer": (
        _csv("0.1,0.2,3.0,1,2,0.5,0.5"),
        "row 2, column 'price_index': not an integer: '3.0'",
    ),
    "price-above-m": (
        _csv(_GOOD, "0.1,0.2,3,1,2,0.5,0.5"),
        "row 3, column 'price_index': value 3 outside 1..2",
    ),
    "price-beyond-int64": (
        _csv("0.1,0.2,99999999999999999999,1,2,0.5,0.5"),
        "row 2, column 'price_index': value 99999999999999999999 does not fit in 64 bits",
    ),
    "price-zero": (
        _csv("0.1,0.2,0,1,2,0.5,0.5"),
        "row 2, column 'price_index': value 0 outside 1..2",
    ),
    "sold-maybe": (
        _csv("0.1,0.2,1, TRUE ,2,0.5,0.5", "0.1,0.2,1,maybe,2,0.5,0.5"),
        "row 3, column 'sold': expected 0/1, got 'maybe'",
    ),
    "valuation-not-an-integer": (
        _csv("0.1,0.2,1,1,1.5,0.5,0.5"),
        "row 2, column 'valuation_index': not an integer",
    ),
    "valuation-beyond-int64": (
        _csv("0.1,0.2,1,1,99999999999999999999,0.5,0.5"),
        "row 2, column 'valuation_index': value 99999999999999999999 does not fit in 64 bits",
    ),
    "valuation-above-m": (
        _csv("0.1,0.2,1,1,3,0.5,0.5"),
        "row 2, column 'valuation_index': value 3 outside 0..2",
    ),
    "valuation-negative": (
        _csv("0.1,0.2,1,1,-1,0.5,0.5"),
        "row 2, column 'valuation_index': value -1 outside 0..2",
    ),
    "pi-not-a-number": (_csv("0.1,0.2,1,1,2,0.5,half"), "row 2, column 'pi_2': not a number"),
    "pi-zero": (
        _csv(_GOOD, "0.1,0.2,1,1,2,0,1"),
        "row 3 propensities: entries must be strictly positive",
    ),
    "pi-negative": (
        _csv("0.1,0.2,1,1,2,-0.5,1.5"),
        "row 2 propensities: entries must be strictly positive",
    ),
    "pi-nan": (_csv("0.1,0.2,1,1,2,nan,0.5"), "row 2 propensities: non-finite entries"),
    "pi-inf": (_csv("0.1,0.2,1,1,2,inf,0.5"), "row 2 propensities: non-finite entries"),
    "pi-sum": (
        _csv("0.1,0.2,1,1,2,0.5,0.6"),
        "row 2 propensities: entries sum to 1.1, expected 1",
    ),
    "field-count": (_csv(_GOOD, "0.1,0.2,1,1,2,0.5"), "row 3: expected 7 fields, got 6"),
    "row-wider-than-header": (
        _csv(_GOOD, "0.1,0.2,1,1,2,0.5,0.5,9"),
        "row 3: expected 7 fields, got 8",
    ),
    "blank-middle-line": (_csv(_GOOD, "", _GOOD), "row 3: expected 7 fields, got 0"),
    "trailing-blank-line": (_csv(_GOOD, ""), "row 3: expected 7 fields, got 0"),
    "whitespace-only-line": (_csv(_GOOD, "  ", _GOOD), "row 3: expected 7 fields, got 1"),
    # numpy's parser reads ASCII numerals without '_'; Python's float and int
    # would also take these two.
    "x-with-underscore": (
        _csv("1_0,0.2,1,1,2,0.5,0.5"),
        "row 2, column 'x_0': not a number: '1_0'",
    ),
    "price-in-arabic-indic-digits": (
        _csv("0.1,0.2,\u0661,1,2,0.5,0.5"),
        "row 2, column 'price_index': not an integer: '\u0661'",
    ),
    "x-nan": (_csv("0.1,nan,1,1,2,0.5,0.5"), "row 2, column 'x_1': not a finite number: nan"),
    "x-inf": (
        _csv(_GOOD, "-inf,0.2,1,1,2,0.5,0.5"),
        "row 3, column 'x_0': not a finite number: -inf",
    ),
    "x-numeral-too-large-for-float": (
        _csv("1" + "0" * 400 + ",0.2,1,1,2,0.5,0.5"),
        "row 2, column 'x_0': not a finite number: inf",
    ),
    # 'half' fails the loadtxt pass, so the naming walk reports the nan,
    # which comes first in schema order, with the pass's message.
    "x-nan-named-by-the-walk": (
        _csv("0.1,nan,1,1,2,0.5,0.5", "0.1,0.2,1,1,2,0.5,half"),
        "row 2, column 'x_1': not a finite number: nan",
    ),
    "header-only": (_csv(), "dataset has a header but no rows"),
    "empty-file": ("", "empty file"),
    "pi-sum-in-row-20002": (
        _csv(*[_GOOD] * 20_000, "0.1,0.2,1,1,2,0.5,0.4"),
        "row 20002 propensities: entries sum to 0.9, expected 1",
    ),
    "x-in-row-20001": (
        _csv(*[_GOOD] * 19_999, "oops,0.2,1,1,2,0.5,0.5"),
        "row 20001, column 'x_0': not a number: 'oops'",
    ),
}


@pytest.mark.parametrize("text, message", list(_BAD_CELLS.values()), ids=list(_BAD_CELLS))
def test_read_csv_names_the_bad_cell(text, message):
    with pytest.raises(lad.SchemaError) as exc:
        lad.read_csv(io.StringIO(text))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        # a buffer that splits lines only on "\n", with rows ending in a bare "\r"
        (
            "x_0,price_index,sold,pi_1\r0.1,1,1,1\r",
            "row 1: new-line character seen in unquoted field",
        ),
        (
            "x_0," + "h" * 140_000 + ",price_index,sold,pi_1\n0.1,0,1,1,1\n",
            "row 1: field larger than field limit",
        ),
        (
            _csv(_GOOD, "0.1," + "a" * 140_000 + ",1,1,2,0.5,0.5"),
            "row 3: field larger than field limit",
        ),
    ],
    ids=["cr-inside-an-unsplit-line", "header-field-beyond-csv-limit", "row-field-beyond-csv-limit"],
)
def test_read_csv_names_the_row_csv_cannot_parse(text, message):
    # the rest of the message is csv's own, and its wording varies by Python version
    with pytest.raises(lad.SchemaError) as exc:
        lad.read_csv(io.StringIO(text))
    assert str(exc.value).startswith(message)


def test_read_csv_accepts_spaced_and_worded_sold_values():
    ds = lad.read_csv(io.StringIO(_csv("0.1,0.2,1, TRUE ,2,0.5,0.5", "0.1,0.2,2,false,0,0.5,0.5")))
    assert ds.sold.tolist() == [True, False]


def test_read_csv_unquotes_cells_and_ignores_unknown_columns():
    text = "x_0,note,x_1,price_index,sold,pi_1,pi_2\n" '"1.5",any text,0.2,"2",1,0.5,0.5\n'
    ds = lad.read_csv(io.StringIO(text))
    assert ds.features.tolist() == [[1.5, 0.2]]
    assert ds.price_index.tolist() == [2]


def test_read_csv_accepts_cr_only_line_ends(tmp_path):
    lf = _csv(_GOOD, "0.3,0.4,2,0,0,0.25,0.75")
    path = tmp_path / "cr.csv"
    path.write_bytes(lf.replace("\n", "\r").encode())
    a, b = lad.read_csv(str(path)), lad.read_csv(io.StringIO(lf))
    for name in ("features", "price_index", "sold", "valuations", "propensities"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_read_csv_header_only_raises_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(lad.SchemaError, match="^dataset has a header but no rows$"):
            lad.read_csv(io.StringIO(_csv()))


def test_read_csv_names_the_bad_cell_in_a_file_on_disk(tmp_path):
    # the naming walk reads the file a second time
    path = tmp_path / "bad.csv"
    path.write_text(_csv(*[_GOOD] * 50, "0.1,0.2,1,maybe,2,0.5,0.5"))
    with pytest.raises(lad.SchemaError) as exc:
        lad.read_csv(str(path))
    assert str(exc.value) == "row 52, column 'sold': expected 0/1, got 'maybe'"


def test_read_csv_names_the_bad_cell_in_a_pipe():
    # a stream that cannot seek is read into memory once, so the walk can
    # read it again
    read_fd, write_fd = os.pipe()
    os.write(write_fd, _csv(_GOOD, "0.1,0.2,1,1,2,0.5,half").encode())
    os.close(write_fd)
    with os.fdopen(read_fd, newline="") as pipe:
        with pytest.raises(lad.SchemaError) as exc:
            lad.read_csv(pipe)
    assert str(exc.value) == "row 3, column 'pi_2': not a number"


def test_write_csv_matches_csv_writer():
    ds = _toy_dataset(valuations=np.array([1, 1, 2, 3]))
    buf = io.StringIO()
    lad.write_csv(ds, buf)
    ref = io.StringIO()
    writer = csv.writer(ref)
    writer.writerow(
        [f"x_{j}" for j in range(ds.d)]
        + ["price_index", "sold", "valuation_index"]
        + [f"pi_{j + 1}" for j in range(ds.m)]
    )
    for i in range(ds.n):
        writer.writerow(
            [repr(float(v)) for v in ds.features[i]]
            + [str(int(ds.price_index[i])), str(int(ds.sold[i])), str(int(ds.valuations[i]))]
            + [repr(float(v)) for v in ds.propensities[i]]
        )
    assert buf.getvalue() == ref.getvalue()


def test_read_csv_checks_columns_in_schema_order():
    # Row 2's propensities and row 3's feature are both bad; columns are
    # checked in schema order, so the feature is reported.
    text = _csv("0.1,0.2,1,1,2,0.5,0.6", "bad,0.2,1,1,2,0.5,0.5")
    with pytest.raises(lad.SchemaError) as exc:
        lad.read_csv(io.StringIO(text))
    assert str(exc.value) == "row 3, column 'x_0': not a number: 'bad'"
