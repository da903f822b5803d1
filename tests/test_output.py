import itertools

import numpy as np

from timingq import _output


def test_cells_spell_shortest_round_trip_floats():
    values = [0.1, 1.0 / 3.0, 1e-300, 2.5, -0.0, float("nan"), float("inf"),
              float("-inf")]
    assert list(_output.cells(values)) == [
        "0.1", "0.3333333333333333", "1e-300", "2.5", "-0.0", "nan", "inf", "-inf"]
    # numpy scalars and arrays give the same cells as Python floats
    assert list(_output.cells(np.array(values))) == list(_output.cells(values))
    assert list(_output.cells([np.float64(0.1), 3])) == ["0.1", "3.0"]


def test_csv_text_joins_string_columns_row_by_row():
    text = _output.csv_text(
        ["i", "W", "D"],
        [map(repr, range(3)),
         itertools.chain([""], _output.cells([0.5, float("nan")])),
         _output.cells([2.5, 1.5, -0.0])],
        {"seed": 0, "n": 2})
    assert text == ('# {"n": 2, "seed": 0}\n'
                    "i,W,D\n"
                    "0,,2.5\n"
                    "1,0.5,1.5\n"
                    "2,nan,-0.0\n")


def test_csv_text_without_config_or_rows():
    assert _output.csv_text(["a", "b"], [[], []]) == "a,b\n"
    assert _output.csv_text(["n"], [map(repr, [10, 2**70])]) == (
        "n\n10\n1180591620717411303424\n")
