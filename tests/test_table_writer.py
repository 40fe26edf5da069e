"""The CSV table writer: its array '%.17g' kernel, blocks, input checks and memory."""

import os
import subprocess
import sys

import numpy as np
import pytest

import spinpol
from spinpol import _g17, cli, wavepacket


def _kernel_texts(values):
    """Each value's text from the kernel's NUL-padded slots."""
    slots = _g17.format_block(values)
    return [bytes(col).replace(b"\0", b"").decode() for col in slots.T]


def _reference_texts(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def _per_value_csv(header, table):
    rows = [",".join(_reference_texts(row)) for row in table]
    return "\n".join([header] + rows) + "\n"


def _assert_file_holds(path, expected):
    """The file's bytes are the text expected, or the first differing line is named.

    pytest would diff two multi-megabyte strings compared with ==, which ran
    for minutes before a wrong table was reported.
    """
    got, want = path.read_bytes().split(b"\n"), expected.encode().split(b"\n")
    first = next((n for n, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    assert first is None, f"line {first + 1} is {got[first]!r}, expected {want[first]!r}"
    assert len(got) == len(want), f"{len(got)} lines, expected {len(want)}"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_bit_patterns_print_as_per_value_text(tmp_path, seed):
    values = np.random.default_rng(seed).integers(0, 2**64, size=200_000, dtype=np.uint64)
    table = values.view(np.float64).reshape(-1, 4)
    header = "a,b,c,d"
    wavepacket.write_table(tmp_path / "t.csv", header, table)
    _assert_file_holds(tmp_path / "t.csv", _per_value_csv(header, table))


def _adversarial():
    """Values at every rounding and notation edge of the kernel, both signs."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # 16 integer digits and .25 or .75: 18 significant digits ending in 5, an
    # exact tie at 17 digits (below 2^51 the spacing of doubles is <= 1/4)
    whole = np.random.default_rng(7).integers(10**15, 2**51, size=500)
    ties = np.concatenate([whole + 0.25, whole + 0.75,
                           [1234567890123456.75, 1234567890123456.25, 123456789012345.625]])
    edges = np.array([1e16, 1e17, 9999999999999998.0, 99999999999999984.0,
                      1e-270, 1e290, 2.0**-1022, 2.0**1023])
    subnormals = np.concatenate([[5e-324, 2.0**-1022 - 5e-324],
                                 np.random.default_rng(8).uniform(0, 2.0**-1022, 200)])
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
                     0xFFF0000000000001], dtype=np.uint64).view(np.float64)
    finite = np.concatenate([powers, ties, edges, subnormals])
    finite = np.concatenate([finite, np.nextafter(finite, np.inf), np.nextafter(finite, 0.0),
                             [np.finfo(float).max]])
    finite = np.concatenate([finite, -finite])
    return ties, np.concatenate([finite, [0.0, -0.0, np.inf, -np.inf], nans])


def test_adversarial_values_print_as_per_value_text(monkeypatch):
    ties, values = _adversarial()
    exact, per_value = [], _g17._exact

    def recording(v):
        exact.extend(v.tolist())
        return per_value(v)

    monkeypatch.setattr(_g17, "_exact", recording)
    assert _kernel_texts(values) == _reference_texts(values)
    # the ties, subnormals and values beyond the table's range took the exact path
    slow = set(exact)
    assert set(ties.tolist()) <= slow and set((-ties).tolist()) <= slow
    assert {5e-324, 1e-300, np.finfo(float).max} <= slow
    # a power of ten inside the range took the kernel
    assert 1e5 not in slow and 0.1 not in slow


@pytest.mark.parametrize("shift", [-1, 1])
def test_a_missed_decimal_exponent_takes_the_exact_text(monkeypatch, shift):
    # floor(log10 |v|) one off for every value: no row may keep its 17 digits
    values = np.concatenate([10.0 ** np.arange(-20, 21), np.random.default_rng(3).normal(size=300)])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda m: log10(m) + shift)
    assert _kernel_texts(values) == _reference_texts(values)


def test_special_values_are_written_directly(monkeypatch):
    monkeypatch.setattr(_g17, "_exact", None)
    nans = np.array([0xFFF8000000000000, 0x7FF8000000000123], dtype=np.uint64).view(np.float64)
    values = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 1.5, -2e-5], nans])
    # enough copies to take the kernel
    texts = _kernel_texts(np.tile(values, _g17._KERNEL_MIN))
    assert texts == _reference_texts(values) * _g17._KERNEL_MIN
    assert texts[:4] + texts[6:8] == ["0", "-0", "inf", "-inf", "nan", "nan"]


@pytest.mark.parametrize("n", [0, 1, 255, 256])
def test_short_and_kernel_sized_inputs_print_as_per_value_text(n):
    rng = np.random.default_rng(n)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    assert _kernel_texts(values) == _reference_texts(values)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_tables_around_the_block_size_print_as_per_value_text(tmp_path, offset):
    rows = wavepacket.TABLE_BLOCK + offset
    rng = np.random.default_rng(rows)
    table = np.column_stack([
        np.repeat(np.linspace(-1.0, 1.0, 7), -(-rows // 7))[:rows],  # repeated runs
        np.full(rows, 1.5),  # one value
        rng.choice([0.0, -0.0, 0.1, np.nan], size=rows),  # few values, both zeros
        rng.normal(size=rows) * 10.0 ** rng.integers(-30, 30, size=rows),
    ])
    wavepacket.write_table(tmp_path / "t.csv", "a,b,c,d", table)
    _assert_file_holds(tmp_path / "t.csv", _per_value_csv("a,b,c,d", table))


@pytest.mark.parametrize("rows", [0, 1, 31, 32])
def test_tables_either_side_of_the_kernel_size_print_as_per_value_text(tmp_path, rows, monkeypatch):
    # 31 x 8 = 248 values are written one by one, 32 x 8 = 256 take the kernel
    rng = np.random.default_rng(rows + 100)
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e16, -1e16]
    table = rng.normal(size=(rows, 8)) * 10.0 ** rng.integers(-30, 30, size=(rows, 8))
    # every other entry special: each column holds too many distinct values to
    # be formatted once per value
    i, j = np.indices(table.shape)
    table[(i + j) % 2 == 0] = np.array(special)[((i + j) % len(special))[(i + j) % 2 == 0]]
    kernel = []
    format_block = _g17.format_block
    monkeypatch.setattr(_g17, "format_block", lambda a: kernel.append(len(a)) or format_block(a))
    header = "a,b,c,d,e,f,g,h"
    wavepacket.write_table(tmp_path / "t.csv", header, table)
    _assert_file_holds(tmp_path / "t.csv", _per_value_csv(header, table))
    assert kernel == ([256] if rows == 32 else [])


def _layout_table(rows, rng):
    """Columns whose texts use different rows of the kernel's slot, some repeated."""
    mixed = np.array([0.0, 7.0, -1.2345678901234567e-100, -3.5e-300])  # 1 and 24 characters
    return np.column_stack([
        np.zeros(rows),  # one value, one byte
        np.full(rows, np.nan),  # no sign, three bytes
        -rng.uniform(1.0, 10.0, rows) * 10.0 ** -rng.integers(5, 250, rows),  # '-d.ddde-XX'
        rng.uniform(1e-4, 1e-3, rows),  # '0.000ddd'
        rng.choice(mixed, rows),  # few values, kernel and exact texts
        np.where(rng.random(rows) < 0.5, rng.integers(0, 10, rows), mixed[2] * rng.random(rows)),
    ])


@pytest.mark.parametrize("rows", [1, 40, wavepacket.TABLE_BLOCK - 1, wavepacket.TABLE_BLOCK,
                                  wavepacket.TABLE_BLOCK + 1])
def test_columns_of_different_widths_print_as_per_value_text(tmp_path, rows):
    # 40 rows of 6 columns are fewer values than the kernel takes
    table = _layout_table(rows, np.random.default_rng(rows))
    header = "a,b,c,d,e,f"
    wavepacket.write_table(tmp_path / "t.csv", header, table)
    # the file is written in binary: every line ends in a bare \n
    _assert_file_holds(tmp_path / "t.csv", _per_value_csv(header, table))


def test_text_does_not_depend_on_the_block_size(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    table = np.column_stack([np.repeat(np.arange(30.0), 10), rng.normal(size=300),
                             rng.choice([0.25, -0.0], size=300)])
    wavepacket.write_table(tmp_path / "whole.csv", "a,b,c", table)
    monkeypatch.setattr(wavepacket, "TABLE_BLOCK", 7)
    wavepacket.write_table(tmp_path / "blocks.csv", "a,b,c", table)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize(
    "table, header",
    [(np.zeros(3), "a,b,c"), (np.zeros((2, 3, 1)), "a,b,c"), (np.zeros((2, 3)), "a,b")],
    ids=["1-D", "3-D", "header-fields"],
)
def test_write_table_rejects_a_malformed_table(tmp_path, table, header):
    with pytest.raises(ValueError, match="must be 2-D with"):
        wavepacket.write_table(tmp_path / "t.csv", header, table)


def test_cli_exits_2_on_a_malformed_table(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(wavepacket, "FIELD_HEADER", "x,y,z")
    code = cli.main(["field", "--grid-n", "3", "--out", str(tmp_path / "f.csv")])
    assert code == 2
    assert "must be 2-D with 3 columns" in capsys.readouterr().err


def test_writer_memory_is_bounded_by_the_block():
    import tracemalloc

    rng = np.random.default_rng(5)
    small, large = rng.normal(size=(20_000, 8)), rng.normal(size=(200_000, 8))
    # a first call leaves the kernel's tables and numpy's one-time allocations
    # out: 64 x 8 values take the kernel
    wavepacket.write_table(os.devnull, "a,b,c,d,e,f,g,h", small[:64])
    peaks = []
    tracemalloc.start()
    try:
        for table in (small, large):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            wavepacket.write_table(os.devnull, "a,b,c,d,e,f,g,h", table)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def test_import_builds_no_table():
    script = (
        "import sys\n"
        "import spinpol.cli\n"
        "from spinpol import _g17\n"
        "sys.exit(_g17._tables.cache_info().currsize)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinpol.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
