import io

import numpy as np
import pytest

from spintomo.tables import read_table, write_table


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
