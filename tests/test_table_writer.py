"""The CSV table writer: its array '%.17g' kernel, blocks, input checks and memory."""

import builtins
import gc
import io
import itertools
import os
import signal
import subprocess
import sys
import warnings

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


@pytest.mark.parametrize("flags", [["--i-vec", "0.6,0.8,0"], ["--grid-n", "15", "--time", "1.5"]],
                         ids=["default-grid-transverse-I", "grid-15-t-1.5"])
def test_field_files_print_as_per_value_text(tmp_path, monkeypatch, capsys, flags):
    # the default spectrum's mean k is along z, so an I in the xy plane is
    # transverse to it, as in the benchmark's field; both fields have node
    # rows, whose s is NaN, beside the grid's repeated x, y, z and constant t
    fields, spin_field = [], wavepacket.spin_field
    monkeypatch.setattr(wavepacket, "spin_field", lambda *args: fields.append(spin_field(*args)) or fields[-1])
    out = tmp_path / "field.csv"
    assert cli.main(["field", *flags, "--out", str(out)]) == cli.EXIT_OK
    (fld,) = fields
    assert fld.node.any() and not fld.node.all()
    table = np.column_stack([fld.x, np.full(len(fld.rho), fld.t), fld.rho, fld.s])
    _assert_file_holds(out, _per_value_csv(wavepacket.FIELD_HEADER, table))


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


def _grid_table(shape, rng):
    """The x, y and z of a meshgrid, a constant t and four random columns, as a field table's columns."""
    axes = [np.linspace(-1.0, 1.0, n) for n in shape]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return np.column_stack([grid, np.full(len(grid), 1.5), rng.normal(size=(len(grid), 4))])


def test_writer_memory_is_bounded_by_the_block():
    import tracemalloc

    rng = np.random.default_rng(5)
    # random columns, and grid columns that take the repeated-column path:
    # their block peaks are lower, so temporaries the size of a whole column
    # (a sort of the 200 000-row x, say) would show
    tables = [
        (rng.normal(size=(20_000, 8)), rng.normal(size=(200_000, 8))),
        (_grid_table((20, 25, 40), rng), _grid_table((50, 50, 80), rng)),
    ]
    # a first call leaves the kernel's tables and numpy's one-time allocations
    # out: 64 x 8 values take the kernel
    wavepacket.write_table(os.devnull, "a,b,c,d,e,f,g,h", tables[0][0][:64])
    peaks = []
    tracemalloc.start()
    try:
        for table in itertools.chain.from_iterable(tables):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            wavepacket.write_table(os.devnull, "a,b,c,d,e,f,g,h", table)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0] and peaks[3] <= 2 * peaks[2], peaks


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


# what each output path holds before it is rewritten: a longer file, a
# shorter one and one of the new file's size
_PREFILLS = {
    "2MB-junk": lambda n: np.random.default_rng(21).bytes(2 * 2**20),
    "10-bytes": lambda n: b"0123456789",
    "same-size": lambda n: b"x" * n,
}


def _sample_table():
    rng = np.random.default_rng(22)
    return rng.normal(size=(2 * wavepacket.TABLE_BLOCK + 5, 4)) * 10.0 ** rng.integers(-9, 9, size=(1, 4))


@pytest.mark.parametrize("prefill", list(_PREFILLS))
def test_rewriting_an_existing_table_gives_a_fresh_files_bytes(tmp_path, prefill):
    table = _sample_table()
    wavepacket.write_table(tmp_path / "fresh.csv", "a,b,c,d", table)
    want = (tmp_path / "fresh.csv").read_bytes()
    target = tmp_path / "target.csv"
    target.write_bytes(_PREFILLS[prefill](len(want)))
    wavepacket.write_table(target, "a,b,c,d", table)
    assert target.read_bytes() == want


@pytest.mark.parametrize("prefill", list(_PREFILLS))
def test_rewriting_an_existing_verify_report_gives_a_fresh_files_bytes(tmp_path, capsys, prefill):
    argv = ["verify", "--n-cases", "5", "--seed", "3", "--out"]
    assert cli.main(argv + [str(tmp_path / "fresh.csv")]) == cli.EXIT_OK
    want = (tmp_path / "fresh.csv").read_bytes()
    target = tmp_path / "target.csv"
    target.write_bytes(_PREFILLS[prefill](len(want)))
    assert cli.main(argv + [str(target)]) == cli.EXIT_OK
    assert target.read_bytes() == want
    # the report is written in binary: every line ends in a bare \n
    assert cli.main(argv[:-1]) == cli.EXIT_OK
    assert want == capsys.readouterr().out.encode()


# each subcommand with small enough work to run in a test
_SUBCOMMAND_ARGV = {
    "field": ["field", "--n-k", "3", "--grid-n", "5", "--time", "0.5"],
    "total-spin": ["total-spin", "--n-k", "3", "--steps", "4"],
    "spectrum-gen": ["spectrum-gen", "--n-k", "5"],
    "verify": ["verify", "--n-cases", "5"],
}


@pytest.mark.parametrize("command", list(_SUBCOMMAND_ARGV))
def test_every_subcommand_writes_to_dev_null(capsys, command):
    assert cli.main(_SUBCOMMAND_ARGV[command] + ["--out", os.devnull]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


def test_a_symlink_stays_a_link_and_its_target_holds_the_new_bytes(tmp_path):
    table = _sample_table()
    wavepacket.write_table(tmp_path / "fresh.csv", "a,b,c,d", table)
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(_PREFILLS["2MB-junk"](0))
    link.symlink_to(target.name)
    wavepacket.write_table(link, "a,b,c,d", table)
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_a_hard_link_sees_the_new_bytes(tmp_path):
    table = _sample_table()
    wavepacket.write_table(tmp_path / "fresh.csv", "a,b,c,d", table)
    target, other = tmp_path / "target.csv", tmp_path / "other.csv"
    target.write_bytes(_PREFILLS["2MB-junk"](0))
    os.link(target, other)
    wavepacket.write_table(target, "a,b,c,d", table)
    assert other.read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert os.stat(other).st_ino == os.stat(target).st_ino


def test_an_existing_file_keeps_its_mode_and_inode(tmp_path):
    target = tmp_path / "target.csv"
    target.write_bytes(b"0123456789")
    target.chmod(0o640)
    inode = os.stat(target).st_ino
    wavepacket.write_table(target, "a,b,c,d", _sample_table())
    assert os.stat(target).st_mode & 0o7777 == 0o640
    assert os.stat(target).st_ino == inode


def test_a_write_that_fails_midway_leaves_the_header_and_first_block(tmp_path, monkeypatch):
    table = _sample_table()
    wavepacket.write_table(tmp_path / "fresh.csv", "a,b,c,d", table)
    # the header line and the first block's rows of a complete write
    lines = (tmp_path / "fresh.csv").read_bytes().split(b"\n")
    want = b"\n".join(lines[: 1 + wavepacket.TABLE_BLOCK]) + b"\n"
    target = tmp_path / "target.csv"
    target.write_bytes(_PREFILLS["2MB-junk"](0))
    blocks, csv_block = [], wavepacket._csv_block

    def failing(block):
        blocks.append(len(block))
        if len(blocks) == 2:
            raise OSError("no space left on device")
        return csv_block(block)

    monkeypatch.setattr(wavepacket, "_csv_block", failing)
    with pytest.raises(OSError, match="no space left"):
        wavepacket.write_table(target, "a,b,c,d", table)
    assert target.read_bytes() == want


def test_a_cut_that_fails_closes_the_file_and_raises(tmp_path, monkeypatch):
    # the file _overwrite opened is closed before the OSError propagates,
    # not left for the garbage collector to close with a ResourceWarning
    target = tmp_path / "target.csv"
    target.write_bytes(b"0123456789")
    handles, fdopen = [], os.fdopen

    def recording_fdopen(*args, **kwargs):
        handles.append(fdopen(*args, **kwargs))
        return handles[-1]

    def failing_ftruncate(fd, length):
        raise OSError("cannot cut")

    monkeypatch.setattr(os, "fdopen", recording_fdopen)
    monkeypatch.setattr(os, "ftruncate", failing_ftruncate)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OSError, match="^cannot cut$"):
            wavepacket.write_table(target, "a,b,c,d", _sample_table())
        gc.collect()
    assert len(handles) == 1 and handles[0].closed
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert target.read_bytes() == b"0123456789"


def _run_python(script, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinpol.__file__)))
    return subprocess.run([sys.executable, "-B", "-c", script, *args],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=60)


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE")
@pytest.mark.parametrize("sigxfsz", ["SIG_IGN", "SIG_DFL"])
@pytest.mark.parametrize("command, limit", [("spectrum-gen", 10_000), ("verify", 100)])
def test_a_write_past_the_file_size_limit_leaves_the_prefix_written(tmp_path, capsys, command, limit, sigxfsz):
    # a write past the limit fails with EFBIG when SIGXFSZ is ignored, as
    # Python sets it at startup, and kills the process when it is reset to
    # the default action (SIG_DFL): inside a block of the
    # spectrum, and in the flush at exit of the short verify report, which
    # was buffered whole.  Either way the old file's bytes past the limit
    # must be gone, as after a truncating open
    argv = _SUBCOMMAND_ARGV[command]
    assert cli.main(argv + ["--out", str(tmp_path / "fresh.csv")]) == cli.EXIT_OK
    target = tmp_path / "target.csv"
    target.write_bytes(_PREFILLS["2MB-junk"](0))
    script = (
        "import resource, signal, sys\n"
        f"signal.signal(signal.SIGXFSZ, signal.{sigxfsz})\n"
        "resource.setrlimit(resource.RLIMIT_CORE, (0, 0))\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
        "from spinpol import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    done = _run_python(script, *argv, "--out", str(target))
    if sigxfsz == "SIG_IGN":
        assert done.returncode == cli.EXIT_CONFIG, done.stderr.decode()
        assert done.stderr.decode().startswith("error: [Errno 27]")
    else:
        assert done.returncode == -signal.SIGXFSZ, done.stderr.decode()
    assert target.read_bytes() == (tmp_path / "fresh.csv").read_bytes()[:limit]


# write_table of the table saved at argv[1] to argv[2], killed by SIGKILL as
# it formats block argv[3]
_KILLED_WRITE = """\
import os, signal, sys
import numpy as np
from spinpol import wavepacket
table, blocks, csv_block = np.load(sys.argv[1]), [], wavepacket._csv_block
def killing(block):
    blocks.append(block)
    if len(blocks) == int(sys.argv[3]):
        os.kill(os.getpid(), signal.SIGKILL)
    return csv_block(block)
wavepacket._csv_block = killing
wavepacket.write_table(sys.argv[2], "a,b,c,d", table)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
@pytest.mark.parametrize("prefill", list(_PREFILLS))
def test_a_run_killed_midway_leaves_the_prefix_written(tmp_path, prefill):
    # killed as it formats the second block, after the header and the first
    # block reached the file: a rerun over an old output must not leave the
    # new rows followed by old ones
    table = _sample_table()
    np.save(tmp_path / "table.npy", table)
    wavepacket.write_table(tmp_path / "fresh.csv", "a,b,c,d", table)
    full = (tmp_path / "fresh.csv").read_bytes()
    lines = full.split(b"\n")
    want = b"\n".join(lines[: 1 + wavepacket.TABLE_BLOCK]) + b"\n"
    target = tmp_path / "target.csv"
    target.write_bytes(_PREFILLS[prefill](len(full)))
    for path in (tmp_path / "killed_fresh.csv", target):
        done = _run_python(_KILLED_WRITE, str(tmp_path / "table.npy"), str(path), "2")
        assert done.returncode == -signal.SIGKILL, done.stderr.decode()
    # what a truncating open leaves, as on a path that did not exist
    assert (tmp_path / "killed_fresh.csv").read_bytes() == want
    assert target.read_bytes() == want


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
@pytest.mark.parametrize("old_size", ["10", "one block", "one block + 1", "2MB"])
def test_a_run_killed_before_any_byte_reached_the_file(tmp_path, old_size):
    # the header waits in the buffer while the first block is formatted.  A
    # truncating open leaves an empty file, and so does a cut to zero; a
    # file of one block keeps its first byte, so that the cut frees no block
    # and ext4 does not flush the file when it is closed
    table = _sample_table()
    np.save(tmp_path / "table.npy", table)
    block = os.stat(tmp_path).st_blksize
    size = {"10": 10, "one block": block, "one block + 1": block + 1, "2MB": 2 * 2**20}[old_size]
    old = np.random.default_rng(23).bytes(size)
    target = tmp_path / "target.csv"
    target.write_bytes(old)
    done = _run_python(_KILLED_WRITE, str(tmp_path / "table.npy"), str(target), "1")
    assert done.returncode == -signal.SIGKILL, done.stderr.decode()
    assert target.read_bytes() == (old[:1] if size <= block else b"")


def test_no_output_is_opened_truncating(tmp_path, monkeypatch, capsys):
    # ext4 flushes a file cut to zero bytes, as a truncating open cuts it,
    # when it is closed: outputs are overwritten in place
    opens = []
    os_open, io_open = os.open, io.open

    def spy_os_open(path, flags, *args, **kwargs):
        opens.append((os.fspath(path), "os.open", flags))
        return os_open(path, flags, *args, **kwargs)

    def spy_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int):
            opens.append((os.fspath(file), "open", mode))
        return io_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(io, "open", spy_open)
    for command, argv in _SUBCOMMAND_ARGV.items():
        out = str(tmp_path / f"{command}.csv")
        with io_open(out, "wb") as fh:
            fh.write(_PREFILLS["2MB-junk"](0))
        opens.clear()
        assert cli.main(argv + ["--out", out]) == cli.EXIT_OK, command
        mine = [(how, arg) for path, how, arg in opens if path == out]
        assert mine == [("os.open", mine[0][1])], (command, mine)
        assert not mine[0][1] & os.O_TRUNC and mine[0][1] & os.O_WRONLY, command
