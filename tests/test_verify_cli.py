"""Verification harness and command line surface."""

import argparse
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import spinpol
from spinpol import algebra, cli, frames, heisenberg, rotations, verify, wavepacket
from spinpol.wavepacket import load_spectrum


def test_every_suite_passes():
    for result in verify.run_suites(n_cases=50):
        assert result.passed, result
        assert result.max_residual <= result.tolerance


def test_zero_cases_pass_vacuously():
    result = verify.run_suite("frames", n_cases=0)
    assert result.passed
    assert result.cases == 0
    assert result.max_residual == 0.0


def test_suite_draws_do_not_depend_on_selection():
    alone = verify.run_suite("rotations", seed=5, n_cases=30)
    with_others = verify.run_suites(("algebra", "rotations"), seed=5, n_cases=30)[1]
    assert alone.max_residual == with_others.max_residual


@pytest.mark.parametrize(
    "kwargs, message",
    [({"n_cases": -1}, "n_cases must be >= 0 .*got -1, "),
     ({"tolerance": np.nan}, "tolerance finite and >= 0, got 100, nan"),
     ({"tolerance": -1.0}, "tolerance finite and >= 0, got 100, -1.0"),
     ({"seed": -1}, "seed must be >= 0, got -1")],
    ids=["negative-cases", "nan-tolerance", "negative-tolerance", "negative-seed"],
)
def test_run_suite_rejects_bad_arguments(kwargs, message):
    with pytest.raises(ValueError, match=message):
        verify.run_suite("algebra", **kwargs)


def test_heisenberg_suite_passes_on_a_frame_near_the_south_pole():
    # seed 130 draws w with 1 + w_z = 3.1e-6 (0.0025 rad from -z), where the
    # phase read from the overlap of the small reference images broke the
    # closed-form check
    assert verify.run_suite("heisenberg", seed=130, n_cases=100).passed


# PCG64 state (128-bit state, has_uint32) after each 100-case suite at seed
# 1729, as a reader that draws each case in turn leaves it: a 100-case block
# takes the same uniforms in one call
PARENT_STREAM_STATES = {
    "algebra": (0x08CDCAE7B3DEADC9094653532C0C6727, 0),
    "frames": (0x8A7166880AD0A3C3123EF816DA3D33B5, 0),
    "rotations": (0xB14F3592CBD8584D3F95C322612B9FF0, 0),
    "heisenberg": (0xE3C6A956233A93FD1E3C948C13B1B7E5, 0),
    "wavepacket": (0x90A1872D3C93DEE022CA39BC8BA9B92B, 0),
}


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_suite_consumes_exactly_the_per_case_draws(name, monkeypatch):
    made = []
    default_rng = np.random.default_rng

    def recording_rng(*args, **kwargs):
        made.append(default_rng(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    verify.run_suite(name, seed=1729, n_cases=100)
    state = made[0].bit_generator.state
    assert (state["state"]["state"], state["has_uint32"]) == PARENT_STREAM_STATES[name]


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_result_does_not_depend_on_the_case_block(name, monkeypatch):
    whole = verify.run_suite(name, seed=3, n_cases=50).max_residual
    monkeypatch.setattr(verify, "CASE_BLOCK", 7)
    assert verify.run_suite(name, seed=3, n_cases=50).max_residual == whole


def test_draws_equal_the_np_linalg_norm_and_np_cross_draws():
    # the reference draws, one case at a time from rng.random as the formulas
    # read; np.linalg.norm and np.cross check each vector's domain
    def azimuth(u, sin_t):
        return sin_t * np.cos(2.0 * np.pi * u), sin_t * np.sin(2.0 * np.pi * u)

    def cis(u):
        return np.cos(2.0 * np.pi * u) + 1j * np.sin(2.0 * np.pi * u)

    def unit_vector(rng):
        # Archimedes: z uniform in [-1, 1), a uniform azimuth
        u = rng.random(2)
        z = 2.0 * u[0] - 1.0
        p, q = azimuth(u[1], np.sqrt((1.0 - z) * (1.0 + z)))
        v = np.array([p, q, z])
        assert abs(np.linalg.norm(v) - 1.0) < 1e-15
        return v

    def jones(rng):
        u = rng.random(3)
        return np.sqrt(np.array([1.0 - u[0], u[0]])) * cis(u[1:])

    def clear_of(rng, n):
        # cos to n uniform on (-c, c), azimuth on the Duff et al. basis of n
        u = rng.random(2)
        cos_t = np.sqrt(1.0 - 1e-4) * (2.0 * u[0] - 1.0 + 2.0**-53)
        p, q = azimuth(u[1], np.sqrt((1.0 - cos_t) * (1.0 + cos_t)))
        sign = np.copysign(1.0, n[2])
        a = -1.0 / (sign + n[2])
        b = n[0] * n[1] * a
        b1 = np.array([1.0 + sign * n[0] ** 2 * a, sign * b, -sign * n[0]])
        b2 = np.array([b, sign + n[1] ** 2 * a, -n[1]])
        d = cos_t * n + p * b1 + q * b2
        assert np.linalg.norm(np.cross(d, n)) > 1e-2
        return d

    def frame(rng):
        w = unit_vector(rng)
        return w, clear_of(rng, w)

    def gauss(rng, n):
        # Box-Muller: n radii, then n angles
        u = rng.random(2 * n)
        return np.sqrt(-2.0 * np.log(1.0 - u[:n])) * cis(u[n:])

    def normals(rng):
        z = gauss(rng, 2)
        return np.array([z[0].real, z[0].imag, z[1].real])

    avoid = np.array([0.0, 0.6, 0.8])
    clear_of_avoid = verify._clear_of("avoid")
    cases = [
        ([("v", 2, verify._unit)], unit_vector),
        ([("z", 3, verify._jones)], jones),
        ([("w", 2, verify._unit), ("i_vec", 2, verify._clear_of("w"))], frame),
        ([("d", 2, lambda x, fields: clear_of_avoid(x, {"avoid": avoid[None]}))],
         lambda rng: clear_of(rng, avoid)),
        ([verify._normals("x", 3)], normals),
        ([verify._complex("amp", 3)], lambda rng: gauss(rng, 3)),
        ([verify._complex("ca")], lambda rng: gauss(rng, 1)[0]),
    ]
    for steps, slow in cases:
        rng_block, rng_slow = (np.random.default_rng(97) for _ in range(2))
        block = verify._read_block(rng_block, 500, steps)
        ref = [slow(rng_slow) for _ in range(500)]
        ref = [np.array(field) for field in zip(*ref)] if len(steps) > 1 else [np.array(ref)]
        for b, r in zip(block.values(), ref, strict=True):
            assert (b.dtype, b.shape, b.tobytes()) == (r.dtype, r.shape, r.tobytes())
        assert rng_block.bit_generator.state == rng_slow.bit_generator.state


@pytest.mark.parametrize("seed", [289, 369, 785, 929])
def test_wavepacket_suite_passes_where_a_direction_is_drawn_near_the_south_pole(seed):
    # at these seeds a case of the 100-case block draws `direction` or `d2`
    # within 1e-4 rad of -z: d2 at 289 and 369, direction at 785 and 929
    result = verify.run_suite("wavepacket", seed=seed, n_cases=100)
    assert result.passed and result.max_residual <= 1e-9, result


def _block_peaks(name):
    """tracemalloc peaks of one suite at 1 and 4 blocks of cases.

    The garbage collector is off, so a block's memory must be freed by
    reference counting alone: a reference cycle that kept a block alive
    until a collection would show as a peak that grows with the blocks.
    """
    import gc
    import tracemalloc

    # a first run leaves numpy's one-time allocations out of the peaks
    verify.run_suite(name, n_cases=verify.CASE_BLOCK)
    peaks = []
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        for blocks in (1, 4):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            verify.run_suite(name, n_cases=blocks * verify.CASE_BLOCK)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    return peaks


@pytest.mark.parametrize("name", ["algebra", "frames", "rotations", "heisenberg"])
def test_suite_memory_is_bounded_by_the_case_block(name):
    peaks = _block_peaks(name)
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_wavepacket_suite_memory_is_bounded_by_the_case_block():
    # the stacked packets of a block are the suite's largest arrays
    peaks = _block_peaks("wavepacket")
    assert peaks[1] <= 1.5 * peaks[0], peaks


@pytest.mark.parametrize(
    "suite, module, name",
    [("algebra", algebra, "sigma_product"),
     ("frames", frames, "mapping_matrix"),
     ("rotations", rotations, "spv_rotation_residual"),
     ("heisenberg", heisenberg, "closed_form_residual"),
     ("wavepacket", wavepacket, "total_spin"),
     # the wavepacket suite calls the public evaluators, not a private copy
     ("wavepacket", wavepacket, "local_spv"),
     ("wavepacket", wavepacket, "evaluate_wavefunction"),
     ("wavepacket", wavepacket, "eigen_component")],
)
def test_nan_residual_fails_the_suite(suite, module, name, monkeypatch, capsys):
    orig = getattr(module, name)

    def nan_result(*args, **kwargs):
        result = orig(*args, **kwargs)
        # local_spv returns (rho, s)
        return tuple(r * np.nan for r in result) if isinstance(result, tuple) else result * np.nan

    monkeypatch.setattr(module, name, nan_result)
    result = verify.run_suite(suite, n_cases=10)
    assert np.isnan(result.max_residual)
    assert not result.passed
    assert cli.main(["verify", "--suites", suite, "--n-cases", "10"]) == cli.EXIT_VERIFY
    row = capsys.readouterr().out.strip().split("\n")[1]
    assert row == f"{suite},10,nan,{result.tolerance:.17g},fail"


def test_unknown_suite_is_rejected():
    with pytest.raises(KeyError):
        verify.run_suite("nonsense")


def test_report_format():
    lines = verify.report_lines(verify.run_suites(("algebra",), n_cases=10))
    assert lines[0] == "suite,cases,max_residual,tolerance,status"
    fields = lines[1].split(",")
    assert fields[0] == "algebra"
    assert fields[1] == "10"
    assert float(fields[2]) <= float(fields[3])
    assert fields[4] == "pass"


def test_cli_verify_passes(capsys):
    code = cli.main(["verify", "--suites", "rotations", "--n-cases", "25", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "suite,cases,max_residual,tolerance,status"
    assert out[1].startswith("rotations,25,")
    assert out[1].endswith(",pass")


def test_cli_verify_fails_with_impossible_tolerance(capsys):
    code = cli.main(
        ["verify", "--suites", "algebra", "--n-cases", "10", "--tolerance", "1e-20"]
    )
    assert code == cli.EXIT_VERIFY
    assert capsys.readouterr().out.strip().endswith("fail")


def test_cli_verify_zero_cases_pass_vacuously(capsys):
    code = cli.main(["verify", "--suites", "frames", "--n-cases", "0"])
    assert code == 0
    assert capsys.readouterr().out.strip().split("\n")[1].startswith("frames,0,0,")


def test_cli_verify_rejects_unknown_suite(capsys):
    code = cli.main(["verify", "--suites", "algebra,bogus"])
    assert code == cli.EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err
    # an empty selection would run nothing, so no argument check either
    assert cli.main(["verify", "--suites", ",", "--n-cases", "-1"]) == cli.EXIT_CONFIG


def test_cli_verify_rejects_a_negative_seed(capsys):
    # the seed is checked before the generator sees it, so the message names the flag
    code = cli.main(["verify", "--seed", "-1"])
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be >= 0, got -1\n"
    assert captured.out == ""


def test_cli_spectrum_gen_and_field_pipeline(tmp_path, capsys):
    spec_path = tmp_path / "spec.csv"
    code = cli.main(
        ["spectrum-gen", "--k0", "0,0,4", "--sigma-k", "0.5", "--n-k", "3",
         "--span", "2", "--out", str(spec_path)]
    )
    assert code == 0
    spec = load_spectrum(spec_path)
    assert len(spec) == 27

    out_path = tmp_path / "field.csv"
    code = cli.main(
        ["field", "--spectrum", str(spec_path), "--grid-n", "5", "--grid-span", "2",
         "--i-vec", "1,0,0", "--alpha", "1,0,0,0", "--out", str(out_path)]
    )
    assert code == 0
    summary = capsys.readouterr().out
    assert "total probability on grid" in summary
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "x,y,z,t,rho,sx,sy,sz"
    assert len(lines) == 126


def test_cli_field_single_wave_polarization(tmp_path):
    spec_path = tmp_path / "one.csv"
    spec_path.write_text("kx,ky,kz,re_A,im_A,weight\n0,0,2,1,0,1\n")
    out_path = tmp_path / "field.csv"
    code = cli.main(
        ["field", "--spectrum", str(spec_path), "--grid-n", "3", "--grid-span", "1",
         "--out", str(out_path)]
    )
    assert code == 0
    for line in out_path.read_text().strip().split("\n")[1:]:
        sx, sy, sz = (float(tok) for tok in line.split(",")[5:])
        assert (sx, sy) == (0.0, 0.0)
        assert sz == pytest.approx(1.0, abs=1e-12)


def test_cli_field_degenerate_geometry_names_the_sample(tmp_path, capsys):
    spec_path = tmp_path / "one.csv"
    spec_path.write_text("kx,ky,kz,re_A,im_A,weight\n0,0,2,1,0,1\n")
    code = cli.main(
        ["field", "--spectrum", str(spec_path), "--i-vec", "0,0,1",
         "--out", str(tmp_path / "field.csv")]
    )
    assert code == cli.EXIT_GEOMETRY
    assert "sample 0" in capsys.readouterr().err


def test_cli_total_spin_degenerate_geometry_names_the_sweep_step(tmp_path, capsys):
    # I = x rotated about y through step 2's pi/2 is -z, antiparallel to sample 1
    spec_path = tmp_path / "two.csv"
    spec_path.write_text("kx,ky,kz,re_A,im_A,weight\n0.3,0,2,0.6,0,1\n0,0,2,0.8,0,1\n")
    out = tmp_path / "spin.csv"
    code = cli.main(
        ["total-spin", "--spectrum", str(spec_path), "--i-vec", "1,0,0", "--axis", "0,1,0",
         "--steps", "8", "--out", str(out)]
    )
    assert code == cli.EXIT_GEOMETRY
    assert capsys.readouterr().err.startswith(
        "error: step 2 (phi = 1.5707963267948966), sample 1 with k = [0.0, 0.0, 2.0] is parallel"
    )
    assert not out.exists()


def test_cli_total_spin_near_parallel_sample_exits_0(tmp_path):
    # |k_hat x I| = 1e-5: without the Gram-Schmidt step in build_frame the
    # closed-form cross-check refused this frame as an internal error
    spec_path = tmp_path / "one.csv"
    spec_path.write_text(
        "kx,ky,kz,re_A,im_A,weight\n"
        "-1.2440648226753988,-1.5448757252883973,0.25624541048822119,1,0,1\n"
    )
    code = cli.main(
        ["total-spin", "--spectrum", str(spec_path),
         "--i-vec=-0.62203914468831856,-0.7724317503733743,0.12812686482760036",
         "--out", str(tmp_path / "spin.csv")]
    )
    assert code == 0


def test_cli_field_does_not_import_numpy_ma(tmp_path):
    # a bare np.unique imports numpy.ma, about 14 ms of every field process
    script = (
        "import sys\n"
        "from spinpol import cli\n"
        f"assert cli.main(['field', '--grid-n', '5', '--out', {str(tmp_path / 'f.csv')!r}]) == 0\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinpol.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()


def test_cli_near_origin_spectrum_is_geometry_error(capsys, tmp_path):
    code = cli.main(
        ["spectrum-gen", "--k0", "0,0,1", "--sigma-k", "0.5",
         "--out", str(tmp_path / "s.csv")]
    )
    assert code == cli.EXIT_GEOMETRY


@pytest.mark.parametrize("azimuth", [0.3, 1.1, 2.9])
def test_cli_total_spin_and_field_agree_on_a_sample_near_the_south_pole(tmp_path, capsys, azimuth):
    # one sample 1e-4 rad from -z, where the default references' ladder images
    # are small: total-spin runs the closed-form cross-check and field does not,
    # and both must pass and give the same polarization
    eps = 1e-4
    k = 2.0 * np.array([np.sin(eps) * np.cos(azimuth), np.sin(eps) * np.sin(azimuth), -np.cos(eps)])
    spec_path = tmp_path / "pole.csv"
    spec_path.write_text("kx,ky,kz,re_A,im_A,weight\n" + ",".join("%.17g" % v for v in k) + ",1,0,1\n")
    spin_out, field_out = tmp_path / "spin.csv", tmp_path / "field.csv"
    assert cli.main(["total-spin", "--spectrum", str(spec_path), "--out", str(spin_out)]) == 0
    assert cli.main(["field", "--spectrum", str(spec_path), "--out", str(field_out)]) == 0
    spin = np.loadtxt(spin_out, delimiter=",", skiprows=1, ndmin=2)
    s = np.loadtxt(field_out, delimiter=",", skiprows=1, ndmin=2)[:, 5:]
    assert np.abs(s - 2.0 * spin[0, 1:]).max() <= 1e-9


def test_cli_bad_grid_is_config_error(capsys, tmp_path):
    code = cli.main(
        ["spectrum-gen", "--k0", "0,0,5", "--n-k", "4", "--out", str(tmp_path / "s.csv")]
    )
    assert code == cli.EXIT_CONFIG


def test_cli_total_spin_collinear_rotation(tmp_path):
    spec_path = tmp_path / "coll.csv"
    spec_path.write_text(
        "kx,ky,kz,re_A,im_A,weight\n"
        "0,0,1,0.6,0,1\n"
        "0,0,2,0.8,0,1\n"
    )
    out_path = tmp_path / "spin.csv"
    code = cli.main(
        ["total-spin", "--spectrum", str(spec_path), "--alpha",
         "0.70710678118654752,0,0.70710678118654752,0", "--axis", "0,0,1",
         "--steps", "8", "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "phi,Sx,Sy,Sz"
    rows = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    assert rows.shape == (8, 4)
    norms = np.linalg.norm(rows[:, 1:], axis=1)
    assert np.all(norms <= 0.5 + 1e-9)
    # the transverse spin advances by 2 phi per row
    from spinpol import so3_rotation

    for phi, s in zip(rows[:, 0], rows[:, 1:]):
        assert np.linalg.norm(s - so3_rotation([0, 0, 1.0], 2 * phi) @ rows[0, 1:]) < 1e-9


def test_cli_total_spin_single_step_matches_library(tmp_path):
    spec_path = tmp_path / "one.csv"
    spec_path.write_text("kx,ky,kz,re_A,im_A,weight\n0,0,2,1,0,1\n")
    out_path = tmp_path / "spin.csv"
    code = cli.main(
        ["total-spin", "--spectrum", str(spec_path), "--steps", "1", "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 2
    row = [float(tok) for tok in lines[1].split(",")]
    assert row == [0.0, 0.0, 0.0, 0.5]


def test_cli_config_file_with_flag_override(tmp_path):
    spec_path = tmp_path / "one.csv"
    spec_path.write_text("kx,ky,kz,re_A,im_A,weight\n0,0,2,1,0,1\n")
    config = {
        "spectrum": str(spec_path),
        "grid_n": 3,
        "grid_span": 1.0,
        "i_vec": [1, 0, 0],
        "alpha": [1, 0, 0, 0],
        "out": str(tmp_path / "from_config.csv"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))

    # config alone: polarization +z
    assert cli.main(["field", "--config", str(cfg_path)]) == 0
    line = (tmp_path / "from_config.csv").read_text().strip().split("\n")[1]
    assert float(line.split(",")[7]) == pytest.approx(1.0, abs=1e-12)

    # flag overrides alpha: the minus branch flips the polarization
    out2 = tmp_path / "override.csv"
    assert cli.main(
        ["field", "--config", str(cfg_path), "--alpha", "0,0,1,0", "--out", str(out2)]
    ) == 0
    line = out2.read_text().strip().split("\n")[1]
    assert float(line.split(",")[7]) == pytest.approx(-1.0, abs=1e-12)


def test_cli_renormalizes_sloppy_vectors_with_warning(tmp_path, capsys):
    spec_path = tmp_path / "one.csv"
    spec_path.write_text("kx,ky,kz,re_A,im_A,weight\n0,0,2,1,0,1\n")
    code = cli.main(
        ["field", "--spectrum", str(spec_path), "--i-vec", "2,0,0",
         "--grid-n", "3", "--grid-span", "1", "--out", str(tmp_path / "f.csv")]
    )
    assert code == 0
    assert "renormalizing i_vec" in capsys.readouterr().err


# a vector flag whose squared norm overflows or underflows, the power of two
# that scales it by hand into the ordinary range, and the other flags of its
# run: the axis (1, 0, 1) turns the default I = x onto the z axis at phi = pi,
# parallel to the spectrum's samples on it (exit 3), and y never
EXTREME_VECTORS = [
    ("--i-vec", [1e200, 1e200, 0], -664, []),
    ("--alpha", [1e200, 0, 1e200, 0], -664, []),
    ("--axis", [1e-200, 0, 1e-200], 665, ["--i-vec", "0,1,0"]),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("flag, vec, power, others", EXTREME_VECTORS, ids=["i-vec", "alpha", "axis"])
def test_cli_renormalizes_vectors_whose_squared_norm_leaves_the_float_range(
    flag, vec, power, others, tmp_path, capsys
):
    # |vec|^2 overflowed to inf (then |i_vec| = 0.0 after the division) or
    # underflowed to 0 ("axis must be nonzero"), with exit 2
    outs, norms = [], []
    for scale in (1.0, 2.0**power):
        outs.append(tmp_path / f"{scale}.csv")
        value = ",".join(repr(v * scale) for v in vec)
        argv = ["total-spin", "--n-k", "3", *others, flag, value, "--out", str(outs[-1])]
        assert cli.main(argv) == 0, argv
        name = flag[2:].replace("-", "_")
        warning = capsys.readouterr().err
        assert warning.startswith(f"warning: renormalizing {name} (|{name}| = "), warning
        norms.append(float(warning.split(" = ")[1][:-2]))
    # the same unit vector, and the norm of the vector given
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert norms[0] * 2.0**power == norms[1]


# a vector at either end of the float range, the same direction scaled by a
# power of two by hand (5e-324 is 2**-1074), and its norm in the warning
@pytest.mark.parametrize("vec, by_hand, norm", [
    ([1.7e308, 1.7e308, 0.0], [1.7e308 * 2.0**-1024, 1.7e308 * 2.0**-1024, 0.0], "inf"),
    ([5e-324, 0.0, 5e-324], [1.0, 0.0, 1.0], "4.9406564584124654e-324"),
    ([5e-324, 1.7e308j], [0.0, 1.7e308j * 2.0**-1024], "1.6999999999999999e+308"),
], ids=["past-max", "subnormal", "both"])
def test_renormalized_vectors_at_the_ends_of_the_float_range(vec, by_hand, norm, capsys):
    unit = cli._renormalized(np.array(vec), "v")
    assert capsys.readouterr().err == f"warning: renormalizing v (|v| = {norm})\n"
    assert unit.tobytes() == cli._renormalized(np.array(by_hand), "v").tobytes()


def test_renormalized_ordinary_vectors_are_vec_over_its_norm_bit_for_bit(capsys):
    # the scaling by a power of two is exact: the unit vector and the warning
    # are those of vec / np.linalg.norm(vec)
    rng = np.random.default_rng(29)
    for size in (3, 4) * 2000:
        parts = rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3)
        vec = parts if size == 3 else parts[0::2] + 1j * parts[1::2]
        norm = np.linalg.norm(vec)
        unit = cli._renormalized(vec, "v")
        assert unit.tobytes() == (vec / norm).tobytes(), vec
        assert capsys.readouterr().err == f"warning: renormalizing v (|v| = {norm:.17g})\n", vec


def test_cli_bad_config_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert cli.main(["verify", "--config", str(bad)]) == cli.EXIT_CONFIG


def test_cli_config_file_that_is_not_an_object_is_config_error(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    out = tmp_path / "spin.csv"
    assert cli.main(["total-spin", "--config", str(bad), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: config file must hold a flat key-value object\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--i-vec", "1,0", "i_vec must have 3 components, got 2"),
    ("--i-vec", "a,b,c", "i_vec: could not convert string to float: 'a'"),
    ("--i-vec", "0,0,0", "i_vec must be nonzero"),
    ("--steps", "0", "n_steps must be at least 1"),
])
def test_cli_total_spin_bad_flag_value_is_config_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "spin.csv"
    assert cli.main(["total-spin", "--n-k", "3", flag, value, "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_outputs_are_deterministic(tmp_path):
    args = ["verify", "--n-cases", "20", "--seed", "11"]
    first, second = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_report_numbers_roundtrip_doubles(tmp_path):
    out = tmp_path / "spin.csv"
    spec_path = tmp_path / "one.csv"
    spec_path.write_text("kx,ky,kz,re_A,im_A,weight\n0.1,0.2,2,1,0,1\n")
    assert cli.main(
        ["total-spin", "--spectrum", str(spec_path), "--steps", "2", "--out", str(out)]
    ) == 0
    from spinpol import PacketConfig, total_spin
    from spinpol.wavepacket import load_spectrum as load

    spec = load(spec_path)
    cfg = PacketConfig(i_vec=np.array([1.0, 0, 0]), alpha=np.array([1.0 + 0j, 0]))
    expected = total_spin(spec, cfg)
    row = out.read_text().strip().split("\n")[1].split(",")
    # 17 significant digits reproduce the doubles bit for bit
    assert [float(tok) for tok in row[1:]] == expected.tolist()


def test_cli_non_finite_vector_is_config_error(tmp_path, capsys):
    spec_path = tmp_path / "one.csv"
    spec_path.write_text("kx,ky,kz,re_A,im_A,weight\n0,0,2,1,0,1\n")
    out = tmp_path / "spin.csv"
    code = cli.main(
        ["total-spin", "--spectrum", str(spec_path), "--i-vec", "nan,0,0", "--out", str(out)]
    )
    assert code == cli.EXIT_CONFIG
    assert "i_vec must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_spin_above_hbar_half_is_config_error(tmp_path, capsys, monkeypatch):
    spec_path = tmp_path / "one.csv"
    spec_path.write_text("kx,ky,kz,re_A,im_A,weight\n0,0,2,1,0,1\n")
    monkeypatch.setattr(
        cli.wp, "total_spin_i_sweep",
        lambda spec, cfg, axis, steps: (np.zeros(1), np.array([[0.0, 0.0, 0.6]])),
    )
    code = cli.main(
        ["total-spin", "--spectrum", str(spec_path), "--steps", "1",
         "--out", str(tmp_path / "spin.csv")]
    )
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: row 0: |S| = 0.6")


# rows of a sweep past hbar/2 (|S| = 0.5408...) or NaN, and the first of them
@pytest.mark.parametrize("bad, first", [
    ({3: np.nan}, 3), ({5: [0.0, 0.3, 0.45]}, 5),
    ({2: [0.0, 0.3, 0.45], 4: np.nan}, 2), ({1: np.nan, 6: [0.0, 0.3, 0.45]}, 1),
], ids=["nan", "large", "large-first", "nan-first"])
def test_cli_total_spin_error_names_the_first_row_out_of_bound(bad, first, tmp_path, capsys, monkeypatch):
    spins = np.full((8, 3), 0.1)
    for row, value in bad.items():
        spins[row] = value
    monkeypatch.setattr(cli.wp, "total_spin_i_sweep", lambda spec, cfg, axis, steps: (np.zeros(8), spins))
    out = tmp_path / "spin.csv"
    assert cli.main(["total-spin", "--n-k", "3", "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: row {first}: |S| = {np.linalg.norm(spins[first])} exceeds hbar/2; "
        "spectrum normalization is broken\n"
    )
    assert not out.exists()


def test_cli_unknown_config_key_is_config_error(tmp_path, capsys):
    spec_path = tmp_path / "one.csv"
    spec_path.write_text("kx,ky,kz,re_A,im_A,weight\n0,0,2,1,0,1\n")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"spectrum": str(spec_path), "grid_nn": 5}))
    out = tmp_path / "field.csv"
    code = cli.main(["field", "--config", str(cfg_path), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "grid_nn" in capsys.readouterr().err
    assert not out.exists()
    # a flag of another subcommand is unknown here too
    cfg_path.write_text(json.dumps({"steps": 4}))
    assert cli.main(["field", "--config", str(cfg_path), "--out", str(out)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("value", [[3], None, 5.7, True])
def test_cli_wrongly_typed_config_value_is_config_error(tmp_path, capsys, value):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"grid_n": value}))
    out = tmp_path / "field.csv"
    code = cli.main(["field", "--config", str(cfg_path), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: config value grid_n") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("span", ["-6", "0", "inf", "nan", "1e308"])
def test_cli_non_positive_grid_span_is_config_error(tmp_path, capsys, span):
    out = tmp_path / "field.csv"
    code = cli.main(["field", "--n-k", "3", "--grid-span", span, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "half-span must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("span, spacing", [("3e102", "6e+102"), ("1e200", "2e+200")])
def test_cli_grid_whose_cell_volume_overflows_is_config_error(tmp_path, capsys, span, spacing):
    # the probability on the grid sums rho over cells of volume spacing^3
    out = tmp_path / "field.csv"
    code = cli.main(["field", "--n-k", "3", "--grid-n", "2", "--grid-span", span, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"error: grid spacing {spacing} is too large: its cell volume overflows\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_grid_whose_cell_volume_underflows_is_config_error(tmp_path, capsys):
    # spacing 2e-320 cubes to 0: no probability of 0 on the grid, no file
    out = tmp_path / "field.csv"
    code = cli.main(["field", "--n-k", "3", "--grid-n", "2", "--grid-span", "1e-320", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "error: grid spacing 2e-320 is too small: its cell volume underflows\n"
    assert captured.out == ""
    assert not out.exists()


# sizes past the 128 TiB user address space, so no host can allocate them
@pytest.mark.parametrize(
    "argv",
    [["spectrum-gen", "--n-k", "100001"],  # 7.11 PiB in the k meshgrid
     ["field", "--n-k", "100001"],
     ["total-spin", "--steps", "100000000000000"]],  # 728 TiB in the step angles
)
def test_cli_configuration_too_large_to_allocate_is_config_error(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    code = cli.main([*argv, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    # numpy's message names the allocation
    assert captured.err.startswith("error: the configuration is too large to run: Unable to allocate ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, span, sigma_k, volume, scale",
    [(["spectrum-gen", "--span", "1e200"], "1e+200", "0.5", "inf", "1.0"),
     (["field", "--span", "1e200"], "1e+200", "0.5", "inf", "1.0"),
     (["total-spin", "--span", "1e200"], "1e+200", "0.5", "inf", "1.0"),
     (["spectrum-gen", "--sigma-k", "1e-300"], "4.0", "1e-300", "0.0", "0.0"),
     (["field", "--sigma-k", "1e-300"], "4.0", "1e-300", "0.0", "0.0"),
     (["total-spin", "--sigma-k", "1e-300"], "4.0", "1e-300", "0.0", "0.0"),
     (["field", "--span", "1e-300"], "1e-300", "0.5", "0.0", "1.0")],
)
def test_cli_spectrum_whose_cell_volume_overflows_or_underflows_is_config_error(
    tmp_path, capsys, argv, span, sigma_k, volume, scale
):
    # gaussian_spectrum checks the cell volume h^3 and 4 sigma_k^2 before any
    # work: no OverflowError traceback, no numpy warning, no file
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([*argv, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: span {span} and sigma_k {sigma_k} give a cell volume of {volume} and "
        f"4 sigma_k^2 = {scale}; both must be finite and positive\n"
    )
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectrum-gen", "field", "total-spin"])
def test_cli_spectrum_whose_wave_vectors_square_past_the_float_range_is_config_error(
    tmp_path, capsys, command
):
    # |k| = 1e200 is finite, but |k|^2, which the dispersion and every k_hat
    # take, is not: no traceback, no numpy warning, no file
    out = tmp_path / "out.csv"
    argv = [command, "--k0", "1e200,0,0", "--sigma-k", "1e100", "--span", "4", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "error: spectrum |k|^2 of sample 0 is not finite\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config",
    [("verify", {"suites": 3}), ("field", {"spectrum": 7}), ("verify", {"out": 1})],
    ids=["suites", "spectrum", "out"],
)
def test_cli_non_string_config_value_is_config_error(tmp_path, capsys, command, config):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    code = cli.main([command, "--config", str(cfg_path)])
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    key = next(iter(config))
    assert captured.err == f"error: config value {key} = {config[key]!r}: must be a string\n"
    assert captured.out == ""


def test_cli_vector_flags_take_config_lists(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    out = tmp_path / "spin.csv"
    cfg_path.write_text(json.dumps(
        {"k0": [0, 0, 5], "n_k": 3, "i_vec": [1, 0, 0], "alpha": [1, 0, 0, 0],
         "axis": [0, 0, 1], "steps": 2, "out": str(out)}
    ))
    assert cli.main(["total-spin", "--config", str(cfg_path)]) == 0
    assert out.exists()
    cfg_path.write_text(json.dumps({"axis": 1}))
    assert cli.main(["total-spin", "--config", str(cfg_path)]) == cli.EXIT_CONFIG
    assert "axis = 1: must be a string or a list" in capsys.readouterr().err
    cfg_path.write_text(json.dumps({"axis": [True, False, False]}))
    assert cli.main(["total-spin", "--config", str(cfg_path)]) == cli.EXIT_CONFIG
    assert "axis must hold numbers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [(["verify", "--n-cases", "1", "--tolerance", "nan"], "tolerance finite and >= 0, got 1, nan"),
     (["field", "--n-k", "3", "--time", "inf"], "got t = inf"),
     (["field", "--sigma-k", "nan"], "span and sigma_k finite and positive; got [0.0, 0.0, 5.0], 4.0, nan")],
    ids=["tolerance", "time", "sigma-k"],
)
def test_cli_non_finite_number_is_config_error(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_cli_field_time_whose_phases_overflow_is_config_error(tmp_path, capsys):
    # omega t = 12.5e308 is not finite: every row was NaN, with exit 0
    out = tmp_path / "field.csv"
    assert cli.main(["field", "--grid-n", "5", "--time", "1e308", "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: plane-wave phases overflow") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("time", ["1e306", "1e17", "1e16"])
def test_cli_field_time_whose_phases_have_no_correct_digit_is_config_error(tmp_path, capsys, time):
    # omega t past pi * 2^53: the rounding of k.x - omega t spans a whole
    # period, and 1e306 wrote 125 rows with a grid probability of 2.33, exit 0
    out = tmp_path / "field.csv"
    assert cli.main(["field", "--grid-n", "5", "--time", time, "--out", str(out)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("error: plane-wave phases leave no correct digit")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


def test_cli_unknown_ref_in_config_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"ref": "bogus"}))
    out = tmp_path / "field.csv"
    assert cli.main(["field", "--config", str(cfg_path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: config value ref = 'bogus': must be one of ['default', 'fallback']\n"
    )
    assert not out.exists()


def test_cli_total_spin_rows_match_per_value_formatting(tmp_path):
    spec_path = tmp_path / "spec.csv"
    spec_path.write_text("kx,ky,kz,re_A,im_A,weight\n0,0.5,1,0.6,0,1\n0,0,2,0,0.8,1\n")
    out = tmp_path / "spin.csv"
    assert cli.main(
        ["total-spin", "--spectrum", str(spec_path), "--alpha", "0.6,0,0,0.8",
         "--axis", "0,0.6,0.8", "--steps", "5", "--out", str(out)]
    ) == 0
    from spinpol import PacketConfig, total_spin_i_sweep

    cfg = PacketConfig(i_vec=np.array([1.0, 0, 0]), alpha=np.array([0.6, 0.8j]))
    phis, spins = total_spin_i_sweep(load_spectrum(spec_path), cfg, [0, 0.6, 0.8], 5)
    rows = [",".join(f"{v:.17g}" for v in (phi, *s)) for phi, s in zip(phis, spins)]
    assert out.read_text() == "\n".join(["phi,Sx,Sy,Sz"] + rows) + "\n"


# SHA-256 of each help text (stdout) and of each usage error (stderr) at
# COLUMNS = 80 and 50, recorded under Python 3.11: the help texts and the error
# of `field --grid-n x` from the parser whose every flag's formatter asked the
# terminal for its width, the other errors (an unknown command, no command,
# unrecognized arguments after a subcommand) from the parser that built every
# subcommand for every argv
USAGE_ERRORS = ("field --grid-n x", "bogus", "", "field --bogus", "total-spin --steps 2 extra")
HELP_DIGESTS = {
    80: {
        "--help":
            "e8cfc02e25b2828970c6406bcf3dd4973ae1f9e041b31b5fb8b50be6cdcb5a67",
        "verify --help":
            "8b8f747d099835fde59e76af15aec41dfe24500f87bc0bb46dfaccb2d8dd9a47",
        "spectrum-gen --help":
            "ed783e40e613014b5205c59e2962b9b7fd76835ca48d9b83e7feb50d07890a3b",
        "field --help":
            "dbff3148b75ef88266fd005a73d80113c56d9dc32aaf3225a849f80ddb792679",
        "total-spin --help":
            "1859944a18d80448b2d95d0c114874a3cb7aeef1732bc84696f2334003702e23",
        "field --grid-n x":
            "f14357aa8d930e41d74c8b8d31b9603e761cd18533f5117d9c9a90451733a8e0",
        "bogus":
            "5a0f9e49d8eb3cf681ae68de206b38f5651d79fc537199b45d30bc17f030ac2c",
        "":
            "a41a6ab0e2ca9ecf9e2d284647c497a38484eb240b14aeeb7af37f2d107e9d3f",
        "field --bogus":
            "a3bc90ca36f12a86aea5d53102c56afc1a54c8396e0bfc5ad31b0ea8d3e6d4b2",
        "total-spin --steps 2 extra":
            "89a228f6593d3a2d284e97255d8d4679c62afab8c39657633e493ddb5331ba1c",
    },
    50: {
        "--help":
            "15b3f5c2bbfc2eeb9c3c5ef6d36cc3797d1fa298e4c4b5dabf35e2bc61c7190b",
        "verify --help":
            "c7dbe8e63a28bf3a11f42a0f400c5b5622f73800d588778e9db8db9c25e3a4d2",
        "spectrum-gen --help":
            "6827a74d08a9b3f35e4b21dc98f6827008d132adf613250d859daf845df954f6",
        "field --help":
            "69e5a9a77d661e28189fcaba7e5a9eae3e1a3884df45218ed048b546b8ad005e",
        "total-spin --help":
            "6abbb6c5795ce9780f9ed74138ac4ea627482c1d2dfdceef032c96055a35b668",
        "field --grid-n x":
            "53c13c29af0b61a38a71e7e65b6d9f46a9286ed41879e7d7e46b4e5160fe6c2f",
        "bogus":
            "1ec761b0849cb0724044bb2997a1fce3e40b55513925cc33b89c19f7b9b078d7",
        "":
            "5f395b31fb2ff3e3875970184f9c5c67ea8b456b2d2e31054072917a77f8cd03",
        "field --bogus":
            "14b15e652d4e7e108e7fe4a1718859a7b5fc835cd8b19068a6324b846b069c85",
        "total-spin --steps 2 extra":
            "60548997915085bd4ae8e1fc4f6e8436931f43bb9e709494dba9438844514989",
    },
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="argparse lays its texts out differently across Python releases; "
    "the digests are from 3.11",
)
@pytest.mark.parametrize("columns", [80, 50])
def test_cli_help_and_usage_texts_are_pinned(columns, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", str(columns))
    for argv, digest in HELP_DIGESTS[columns].items():
        with pytest.raises(SystemExit) as stop:
            cli.main(argv.split())
        out, err = capsys.readouterr()
        usage_error = argv in USAGE_ERRORS
        text, other = (err, out) if usage_error else (out, err)
        assert (stop.value.code, other) == (2 if usage_error else 0, ""), argv
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (argv, text)


@pytest.mark.parametrize("columns", [80, 50])
def test_cli_texts_equal_argparse_default_formatter(columns, monkeypatch):
    # every Python release: the width build_parser fixes lays the texts out as
    # a formatter that asks the terminal itself does
    monkeypatch.setenv("COLUMNS", str(columns))
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for p in [parser, *subs.choices.values()]:
        pinned = p.format_help(), p.format_usage()
        p.formatter_class = argparse.HelpFormatter
        assert (p.format_help(), p.format_usage()) == pinned, p.prog


def test_build_parser_asks_the_terminal_width_once(monkeypatch):
    # argparse's default formatter asks once per flag added: 47 times a build
    calls = []
    size = shutil.get_terminal_size

    def counted(*args):
        calls.append(args)
        return size(*args)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    parser = cli.build_parser()
    parser.format_help()
    assert len(calls) == 1


# each subcommand's own flags, every one given; a config file for each
# subcommand, its vector flags as lists and its numbers as JSON numbers or
# text; and a key of another subcommand, unknown to it
OWN_FLAGS = {
    "verify": ["--suites", "algebra,frames", "--n-cases", "7", "--tolerance", "1e-6"],
    "spectrum-gen": ["--spectrum", "s.csv", "--k0", "0,0,4", "--sigma-k", "0.4", "--n-k", "5",
                     "--span", "3"],
    "field": ["--k0", "0,0,4", "--n-k", "5", "--i-vec", "0,1,0", "--alpha", "0,0,1,0",
              "--ref", "fallback", "--grid-n", "7", "--grid-span", "2.5", "--time", "1.5"],
    "total-spin": ["--sigma-k", "0.4", "--i-vec", "0,1,0", "--alpha", "0.6,0,0,0.8",
                   "--axis", "1,0,0", "--steps", "3", "--ref", "fallback"],
}
CONFIGS = {
    "verify": {"suites": "algebra", "n_cases": 5, "tolerance": "1e-3", "out": "r.csv"},
    "spectrum-gen": {"k0": [0, 0, 4], "sigma_k": 0.4, "n_k": "5", "span": 3, "seed": 11},
    "field": {"spectrum": "s.csv", "i_vec": [0, 1, 0], "alpha": "0,0,1,0", "ref": "fallback",
              "grid_n": 7, "grid_span": 2.5, "time": "1.5"},
    "total-spin": {"axis": [1, 0, 0], "steps": 3, "sigma_k": "0.4", "out": "t.csv"},
}
FOREIGN_KEYS = {"verify": "grid_n", "spectrum-gen": "alpha", "field": "steps", "total-spin": "suites"}


# the progs of the parsers that build_parser constructs: the top level and
# one per subcommand
FULL_PARSER = ["spinpol", *(f"spinpol {name}" for name in cli._SUBCOMMANDS)]


@pytest.fixture
def parsers_built(monkeypatch):
    """The prog of each argparse.ArgumentParser constructed, in order."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recorded)
    return progs


@pytest.mark.parametrize("command", OWN_FLAGS)
def test_parse_builds_only_the_invoked_subcommand(command, parsers_built):
    for argv in ([command], [command, *OWN_FLAGS[command], "--seed", "3", "--out", "x.csv"]):
        full = cli.build_parser().parse_args(argv)
        assert parsers_built == FULL_PARSER
        parsers_built.clear()
        assert cli._parse(argv) == full
        assert parsers_built == [f"spinpol {command}"]
        parsers_built.clear()


@pytest.mark.parametrize("command", OWN_FLAGS)
def test_parse_builds_only_the_invoked_subcommand_with_a_config(command, tmp_path, parsers_built):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(CONFIGS[command]))
    for argv in ([command, "--config", str(cfg_path)],
                 [command, "--config", str(cfg_path), *OWN_FLAGS[command], "--seed", "3"]):
        # the namespace of the full parser built with the config's defaults
        full = cli.build_parser(CONFIGS[command]).parse_args(argv)
        parsers_built.clear()
        assert cli._parse(argv) == full
        # one parser serves both passes, the second with the config's defaults
        assert parsers_built == [f"spinpol {command}"]
        parsers_built.clear()
    # an unknown key, and a key of another subcommand, stop before the second pass
    foreign = FOREIGN_KEYS[command]
    cfg_path.write_text(json.dumps({**CONFIGS[command], "bogus": 1, foreign: "1"}))
    with pytest.raises(cli.ConfigError) as error:
        cli._parse([command, "--config", str(cfg_path)])
    assert str(error.value) == f"unknown keys in config {cfg_path}: {sorted(['bogus', foreign])}"
    assert parsers_built == [f"spinpol {command}"]


@pytest.mark.parametrize("argv", [["--help"], ["bogus"], [], ["-h", "field"]])
def test_parse_builds_every_subcommand_for_any_other_argv(argv, parsers_built, capsys):
    with pytest.raises(SystemExit):
        cli._parse(argv)
    assert parsers_built == FULL_PARSER


# argvs after each subcommand's name that parse: --flag=value and split
# values, unique abbreviations, repeated flags (the last wins) and values that
# start with '-'.  Each is also run after --config alone and before flags
# that override the config's values
VALID_ARGVS = {
    "verify": [[], ["--n-cases=7", "--tolerance", "1e-6"], ["--n", "7", "--tol", "1e-6", "--su", "frames"],
               ["--seed", "1", "--seed=2", "--out", "a.csv", "--out", "b.csv"]],
    "spectrum-gen": [[], ["--k0=-1,0,5", "--sigma-k", "0.4"], ["--sig", "0.4", "--n-k=5", "--spe", "s.csv"],
                     ["--span", "3", "--span=2", "--see", "4"]],
    "field": [[], ["--i-vec=-0.6,0.8,0", "--time", "-1.5", "--grid-n=7"],
              ["--grid-s", "2.5", "--ti", "1", "--re", "fallback", "--al", "0,0,1,0"],
              ["--ref", "fallback", "--ref", "default", "--grid-n", "5", "--grid-n", "9"]],
    "total-spin": [[], ["--axis=1,0,0", "--steps", "3", "--ref=fallback"], ["--step", "8", "--ax", "0,1,0"],
                   ["--steps", "2", "--steps=4", "--alpha", "0.6,0,0,0.8", "--alpha=0,0,1,0"]],
}
# argvs after each subcommand's name that print help or a usage error: a bad
# value, an unknown or ambiguous flag, a help flag in full or abbreviated, a
# missing value, a value read as a flag, a stray positional
INVALID_ARGVS = [["--steps", "x"], ["--ref", "bogus"], ["--bogus"], ["--s", "1"], ["-h"], ["--help"],
                 ["--he"], ["--seed", "x"], ["--seed", "1", "-h"], ["--out"], ["--k0", "-1,0,5"],
                 ["--grid-n", "2.5"], ["--n-cases", "x"], ["extra"], ["--", "x"]]


@pytest.mark.parametrize("command", OWN_FLAGS)
def test_parse_corpus_gives_the_full_parsers_namespace(command, tmp_path, parsers_built):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(CONFIGS[command]))
    for flags in VALID_ARGVS[command]:
        for config, head in ((None, []), (CONFIGS[command], ["--config", str(cfg_path)])):
            argv = [command, *head, *flags]
            full = cli.build_parser(config).parse_args(argv)
            parsers_built.clear()
            assert cli._parse(argv) == full, argv
            assert parsers_built == [f"spinpol {command}"], argv


def _exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as stop:
        parse(argv)
    return (stop.value.code, *capsys.readouterr())


@pytest.mark.parametrize("command", OWN_FLAGS)
def test_parse_corpus_gives_the_full_parsers_help_and_errors(command, tmp_path, monkeypatch, capsys,
                                                             parsers_built):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(CONFIGS[command]))
    for columns, flags, head in itertools.product(
        (50, 80, 200), INVALID_ARGVS, ([], ["--config", str(cfg_path)])
    ):
        monkeypatch.setenv("COLUMNS", str(columns))
        argv = [command, *head, *flags]
        expected = _exit(cli.build_parser().parse_args, argv, capsys)
        assert expected[0] in (0, 2) and (expected[1] or expected[2]), argv
        parsers_built.clear()
        assert _exit(cli.main, argv, capsys) == expected, (columns, argv)
        # the one-subcommand parser prints its own help and errors; only a
        # stray argument is reported under the full parser's usage line
        stray = "unrecognized arguments" in expected[2]
        assert parsers_built == [f"spinpol {command}", *(FULL_PARSER if stray else [])], argv


@pytest.mark.parametrize("command", OWN_FLAGS)
def test_subcommand_parser_asks_the_terminal_width_once_per_text(command, monkeypatch, capsys):
    calls = []
    size = shutil.get_terminal_size

    def counted(*args):
        calls.append(args)
        return size(*args)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    cli._parse([command, *OWN_FLAGS[command]])
    assert calls == []
    # each argv prints one help text, or one usage line and its error
    for flags in INVALID_ARGVS:
        calls.clear()
        with pytest.raises(SystemExit):
            cli._parse([command, *flags])
        assert len(calls) == 1, flags
