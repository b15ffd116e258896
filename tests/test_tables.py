import io

import numpy as np
import pytest

from conftest import csv_module_read_table, csv_module_write_table, meshgrid_rows
from spintomo import MeasurementRecord, record_from_csv, record_to_csv
from spintomo import tables
from spintomo.tables import parse_whole_number, read_table, write_grid_table, write_table

# every kind of float the 17-digit text must carry: signed zeros, the
# smallest subnormal, the smallest normal, the extremes, inf and nan
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e-300,
           1e300, np.inf, -np.inf, np.nan, 0.1]


def test_exact_text():
    buf = io.StringIO()
    write_table(buf, ["k=v", "units: ms,1"], ("a", "b"), [(-0.0, 5e-324), (1e300, 0.1)])
    assert buf.getvalue() == (
        "# k=v\n"
        "# units: ms,1\n"
        "a,b\n"
        "-0,4.9406564584124654e-324\n"
        "1.0000000000000001e+300,0.10000000000000001\n"
    )


def test_round_trip_is_bit_exact():
    rng = np.random.default_rng(3)
    values = np.concatenate(
        [rng.standard_normal(201) * 10.0 ** rng.integers(-300, 300, 201), [-0.0, 5e-324, 1e300]]
    ).reshape(-1, 3)
    buf = io.StringIO()
    write_table(buf, ["seed=3"], ("x", "y", "z"), values.tolist())
    comments, columns, rows = read_table(io.StringIO(buf.getvalue()))
    assert comments == ["seed=3"]
    assert columns == ["x", "y", "z"]
    back = np.array(rows)
    assert back.tobytes() == values.tobytes()  # also keeps the sign of -0.0


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b\n1,2\n3\n", "line 3: 1 fields, header has 2"),
        ("a,b\n1,2,3\n", "line 2: 3 fields, header has 2"),
        ("a,b\n1,x\n", "line 2: could not convert"),
        ("# only a comment\n", "no header row"),
    ],
    ids=["short-row", "long-row", "not-a-number", "no-header"],
)
def test_malformed_rows_name_the_line(text, message):
    with pytest.raises(ValueError, match=message):
        read_table(io.StringIO(text))


def _random_table(n: int, k: int, seed: int) -> np.ndarray:
    """(n, k) floats spanning 1e-300 to 1e300, with every SPECIAL value once the table is large enough."""
    rng = np.random.default_rng(seed)
    spread = rng.standard_normal(n * k) * 10.0 ** rng.integers(-300, 301, n * k)
    return rng.permutation(np.concatenate([SPECIAL, spread]))[: n * k].reshape(n, k)


TABLE_SIZES = [(n, k) for k in (1, 2, 3, 8) for n in (0, 1, 7, 300)]


@pytest.mark.parametrize("n, k", TABLE_SIZES)
def test_write_matches_the_csv_module_writer(n, k):
    rows = _random_table(n, k, seed=100 * k + n)
    columns = [f"c{j}" for j in range(k)]
    comments = [f"n={n}", "units: ms,1"]
    ours, oracle = io.StringIO(), io.StringIO()
    write_table(ours, comments, columns, rows)
    csv_module_write_table(oracle, comments, columns, rows.tolist())
    assert ours.getvalue() == oracle.getvalue()


@pytest.mark.parametrize(
    "n, m, block_cells",
    [(1, 1, None), (2, 3, None), (4, 8, None), (64, 128, None), (130, 1024, None),
     (7, 5, 10), (3, 8, 4)],
    ids=["1-1", "2-3", "4-8", "64-128", "130-1024-three-blocks", "7-5-blocks-of-two-rows",
         "3-8-rows-wider-than-a-block"],
)
def test_grid_writer_matches_the_csv_module_writer_on_meshgrid_rows(n, m, block_cells, monkeypatch):
    if block_cells is not None:
        monkeypatch.setattr(tables, "GRID_BLOCK_CELLS", block_cells)
    columns = ("theta_rad", "phi_rad", "q_value")
    comments = [f"grid={n}x{m}", "t_r_ms=0.8"]
    # an axis shorter than SPECIAL gets one pass per leading value; a longer one holds them all
    for shift in range(len(SPECIAL) if min(n, m) < len(SPECIAL) else 1):
        special = np.roll(SPECIAL, -shift)
        row_axis, col_axis, values = (_random_table(size, 1, seed=size + shift).ravel()
                                      for size in (n, m, n * m))
        for axis in (row_axis, col_axis, values):
            axis[: len(special)] = special[: axis.size]
        values = values.reshape(n, m)
        rows = meshgrid_rows(row_axis, col_axis, values)
        ours, oracle, long_form = io.StringIO(), io.StringIO(), io.StringIO()
        write_grid_table(ours, comments, columns, row_axis, col_axis, values)
        csv_module_write_table(oracle, comments, columns, rows)
        write_table(long_form, comments, columns, rows)
        # compared line by line, so a failure names the first differing line
        lines = ours.getvalue().split("\n")
        assert lines == oracle.getvalue().split("\n")
        assert lines == long_form.getvalue().split("\n")


@pytest.mark.parametrize("n, k", TABLE_SIZES)
def test_read_matches_the_csv_module_reader(n, k):
    rows = _random_table(n, k, seed=100 * k + n + 1)
    buf = io.StringIO()
    csv_module_write_table(buf, [f"n={n}", "units: ms,1"], [f"c{j}" for j in range(k)], rows.tolist())
    comments, columns, data = read_table(io.StringIO(buf.getvalue()))
    want_comments, want_columns, want_rows = csv_module_read_table(io.StringIO(buf.getvalue()))
    assert comments == want_comments
    assert columns == want_columns
    assert data.shape == (n, k) and data.dtype == np.float64
    assert data.tobytes() == np.array(want_rows, dtype=float).reshape(n, k).tobytes()
    assert data.tobytes() == rows.tobytes()


@pytest.mark.parametrize(
    "text, comments, rows",
    [
        ("a,b\r\n1,2\r\n3,4\r\n", [], [[1, 2], [3, 4]]),
        ("a,b\n1,2\n\n\n3,4\n\n", [], [[1, 2], [3, 4]]),
        ("# first\na,b\n1,2\n# late, after the header\n3,4\n", ["first", "late, after the header"], [[1, 2], [3, 4]]),
        ("a,b\n 1.5 ,\t-2 \n", [], [[1.5, -2]]),
        ("# k=v\na,b\n", ["k=v"], np.empty((0, 2))),
    ],
    ids=["crlf", "blank-lines", "comment-after-header", "spaces-around-numbers", "header-only"],
)
def test_reader_cases_match_the_csv_module_reader(text, comments, rows):
    got_comments, columns, data = read_table(io.StringIO(text))
    want_comments, want_columns, want_rows = csv_module_read_table(io.StringIO(text))
    assert got_comments == want_comments == comments
    assert columns == want_columns == ["a", "b"]
    assert data.shape == np.shape(rows)
    assert np.array_equal(data, np.array(rows, dtype=float))
    assert np.array_equal(data, np.array(want_rows, dtype=float).reshape(-1, 2))


@pytest.mark.parametrize(
    "text",
    [
        "a,b\n1,2\n\n1,x\n3\n",
        "a,b\n1,2\n3\n\n1,x\n",
        "# c\na,b\n1,2\n1,\n",
        "a,b\n1,2\n# c\n1, \n",
        "a\n1\n0x1p3\n",
    ],
    ids=["bad-number-first", "short-row-first", "empty-field", "blank-field", "hex-float"],
)
def test_errors_match_the_csv_module_reader(text):
    with pytest.raises(ValueError) as oracle:
        csv_module_read_table(io.StringIO(text))
    with pytest.raises(ValueError) as ours:
        read_table(io.StringIO(text))
    assert str(ours.value) == str(oracle.value)


def test_header_only_record_has_no_shots():
    with pytest.raises(ValueError, match="record file contains no shots"):
        record_from_csv(io.StringIO("# kappa2=0.8\n# n_shots=0\ny_c,y_s\n"))


COMMENTS_WITH_COMMAS_AND_QUOTES = ['note=a,"b,c"', 'label=x,"y', "it's \"quoted\"", "trailing,"]


def test_comments_read_back_verbatim():
    buf = io.StringIO()
    write_table(buf, COMMENTS_WITH_COMMAS_AND_QUOTES, ("a",), np.zeros((1, 1)))
    assert read_table(io.StringIO(buf.getvalue()))[0] == COMMENTS_WITH_COMMAS_AND_QUOTES


def test_record_header_comments_with_commas_and_quotes_round_trip():
    record = MeasurementRecord(np.array([[0.1, -0.2], [3e-300, 5e-324]]), 0.8, 4)
    extra = dict(c.split("=", 1) for c in COMMENTS_WITH_COMMAS_AND_QUOTES[:2])
    buf = io.StringIO()
    record_to_csv(record, buf, header_comments=extra)
    text = buf.getvalue()
    assert read_table(io.StringIO(text))[0][-2:] == COMMENTS_WITH_COMMAS_AND_QUOTES[:2]
    back = record_from_csv(io.StringIO(text))
    assert back.shots.tobytes() == record.shots.tobytes()
    assert (back.kappa2, back.seed) == (0.8, 4)


@pytest.mark.parametrize(
    "text, value",
    [("2968926473542706253", 2968926473542706253), ("1180591620717411303424", 2**70),
     (" 7 ", 7), ("1e4", 10_000), ("12345.0", 12345)],
)
def test_whole_numbers_parse_exactly(text, value):
    # integer text above 2^53 keeps every digit; other text goes through float
    assert parse_whole_number("seed", text) == value
    assert type(parse_whole_number("seed", text)) is int


def test_record_seed_above_2_53_round_trips():
    seed = 2968926473542706253
    assert float(seed) != seed
    buf = io.StringIO()
    record_to_csv(MeasurementRecord(np.zeros((3, 2)), 0.8, seed), buf)
    assert f"# seed={seed}\n" in buf.getvalue()
    assert record_from_csv(io.StringIO(buf.getvalue())).seed == seed
