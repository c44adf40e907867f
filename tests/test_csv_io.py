"""The CLI's CSV layer: the column-wise block writer and the sample reader."""

import math
import os
import tracemalloc

import numpy as np
import pytest

import trigreg as tr
from trigreg import cli

BLOCK = cli._BLOCK_ROWS


# ---------------------------------------------------------------------------
# writer: golden text against the row-wise formatter it replaced
# ---------------------------------------------------------------------------


def _row_fmt(value):
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _row_wise_text(metadata, header, rows):
    """The writer as it was: every cell formatted on its own."""
    lines = [f"# {key}: {_row_fmt(value)}" for key, value in metadata.items() if value is not None]
    lines.append(",".join(header))
    lines.extend(",".join(_row_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


SPECIAL = [-0.0, 1e16, 1e-5, 5e-324, math.nan, 0.1, -2.5, 1.0 / 3.0]
METADATA = {"tool": "trigreg", "n_points": 5, "s": 1.0, "snr_db": None, "q": 2.0 ** -0.1,
            "source": "gallery:f1"}


@pytest.mark.parametrize("n_rows", [1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_column_writer_matches_row_wise_text(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-20, 20, n_rows)
    floats[: len(SPECIAL)] = SPECIAL[:n_rows]
    ints = rng.integers(-3, 1000, n_rows)
    listed = [None if i % 3 == 1 else (i if i % 3 else np.float64(-i / 7)) for i in range(n_rows)]
    columns = [floats, ints, listed, None, floats[::-1].copy()]
    path = tmp_path / "table.csv"
    cli._write_csv(str(path), METADATA, ["a", "b", "c", "d", "e"], columns)
    rows = zip(floats, ints, listed, [None] * n_rows, floats[::-1])
    assert path.read_bytes() == _row_wise_text(METADATA, ["a", "b", "c", "d", "e"], rows).encode()


def test_column_writer_values_read_back_exactly(tmp_path):
    values = np.array(SPECIAL + [np.pi, -np.e, 1e308, -1e-300])
    path = tmp_path / "table.csv"
    cli._write_csv(str(path), {}, ["v"], [values])
    cells = path.read_text().splitlines()[1:]
    assert cells[:5] == ["-0.0", "1e+16", "1e-05", "5e-324", "nan"]
    back = np.array([float(cell) for cell in cells])
    assert back.tobytes() == values.tobytes()


def test_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    class Broken:
        def __str__(self):
            raise RuntimeError("unformattable cell")

    path = tmp_path / "table.csv"
    path.write_text("old\n")
    cells = [1] * (BLOCK + 5) + [Broken()]
    with pytest.raises(RuntimeError, match="unformattable"):
        cli._write_csv(str(path), {}, ["x", "y"], [np.zeros(len(cells)), cells])
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["table.csv"]


def test_column_writer_streams_in_blocks(tmp_path):
    # whole-file formatting of 50k x 2 floats holds over 10 MB of strings;
    # block streaming holds one block of them at a time
    n_rows = 50 * BLOCK
    x, y = np.random.default_rng(0).standard_normal((2, n_rows))
    tracemalloc.start()
    try:
        cli._write_csv(str(tmp_path / "big.csv"), {"tool": "trigreg"}, ["x", "p"], [x, y])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    with open(tmp_path / "big.csv") as fh:
        assert sum(1 for _ in fh) == n_rows + 2


# ---------------------------------------------------------------------------
# reader: exact values, or a parse error that names file and line
# ---------------------------------------------------------------------------


NODES = tr.make_grid(11).nodes
VALUES = np.cos(NODES) - 0.25


def _lines():
    return [f"{float(x)!r},{float(y)!r}" for x, y in zip(NODES, VALUES)]


def _with_edit(index, line):
    lines = _lines()
    lines[index] = line
    return "x,y\n" + "\n".join(lines) + "\n"


READER_CASES = {
    # name: (file text, line of the parse error or None)
    "crlf": ("x,y\r\n" + "\r\n".join(_lines()) + "\r\n", None),
    "comments and blank lines": (
        "# made by hand\n\n  # indented note, with a comma\nx,y\n"
        + "\n".join(_lines()[:5]) + "\n\n# halfway\n" + "\n".join(_lines()[5:]), None),
    "spaced capital header": (" X ,Y\n" + "\n".join(_lines()) + "\n", None),
    "quoted field": ('"x","y"\n' + "\n".join(_lines()[:3]) + '\n"' + _lines()[3].replace(",", '","')
                     + '"\n' + "\n".join(_lines()[4:]) + "\n", None),
    "third column": ("x,y,z\n" + "\n".join(line + ",7" for line in _lines()) + "\n", None),
    "non-numeric cell": (_with_edit(4, f"{float(NODES[4])!r},oops"), 6),
    "inf": (_with_edit(4, f"{float(NODES[4])!r},inf"), 6),
    "one column": (_with_edit(4, f"{float(NODES[4])!r}"), 6),
}


@pytest.mark.parametrize("name", list(READER_CASES))
def test_reader_values_or_file_line_error(tmp_path, name):
    text, error_line = READER_CASES[name]
    path = tmp_path / "samples.csv"
    path.write_bytes(text.encode())
    if error_line is None:
        samples = cli._read_samples_csv(str(path))
        assert samples.size == 11
        assert samples.tobytes() == VALUES.tobytes()
    else:
        with pytest.raises(cli.CliError) as info:
            cli._read_samples_csv(str(path))
        assert info.value.category == "parse-error"
        assert str(info.value).startswith(f"{path}:{error_line}: ")
