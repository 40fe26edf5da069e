"""Benchmark of the spinpol CLI: end-to-end timings and traced per-layer timings.

Run from the repository root:

    python3 bench/run.py --workload field_grid --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload spin_sweep --seed 1 --seconds 36 --trace 1 --out a.jsonl
    python3 bench/run.py --report a.jsonl b.jsonl

One run prepares the workload's inputs from the seed, then calls
`spinpol.cli.main` in this process, one invocation after another, for
`--seconds` seconds, and checks every invocation's output.  With `--trace 0`
it prints the end-to-end metrics; with `--trace 1` it alternates untraced and
traced invocations and prints the per-layer metrics.  The last stdout line is
the result object; the line before it holds the environment and run details.

End-to-end times are scaled to a fixed host speed.  A fixed calibration
block is timed before and after every invocation, and each invocation's
wall time is multiplied by CAL_REF_S over the mean of its two neighbouring
blocks.  On a shared host whose speed swings with the other tenants' load,
this cancels the swing that the program and the block share.
See bench/README.md for the workloads and metrics.
"""

import os

# one BLAS thread, set before numpy loads: the whole run is one thread, so a
# few shared cores time the program and not the scheduler
CORES = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
TAIL_BEYOND = 10
# the calibration block's time on a quiet 2-vCPU Xeon VM (Python 3.11): the
# scaled times read as seconds on such a host
CAL_REF_S = 0.070

# traced functions reported one by one; any other traced function is summed
# into trace.unlisted so that the self times still add up to the traced wall
LAYER_FUNCTIONS = (
    "cli.main",
    "cli.build_parser",
    "wavepacket.load_spectrum",
    "wavepacket.position_grid",
    "wavepacket.sample_spinors",
    "wavepacket.spin_field",
    "wavepacket.save_spin_field",
    "wavepacket.evaluate_wavefunction",
    "wavepacket.eigen_component",
    "wavepacket.local_spv",
    "wavepacket.total_spin",
    "wavepacket.total_spin_i_sweep",
    "frames.build_frame",
    "frames.complex_basis",
    "frames.ladder_operators",
    "frames.eigen_spinors",
    "frames.ladder_constants",
    "frames.mapping_matrix",
    "frames.phase_factor",
    "frames.compose_spinor",
    "heisenberg.heisenberg_sigma",
    "heisenberg.closed_form_residual",
    "heisenberg.rotation_residual",
    "heisenberg.equivalence_residual",
    "heisenberg.expectation_spv_residual",
    "algebra.dot_sigma",
    "algebra.sigma_product",
    "algebra.spv",
    "algebra.eigen_residual",
    "rotations.dot_generators",
    "rotations.so3_rotation",
    "rotations.su2_rotation",
    "rotations.correspondence_residual",
    "rotations.rotate_characterization",
    "rotations.eigenspinor_rotation_residuals",
    "rotations.spv_rotation_residual",
    "verify.run_suites",
    "verify.report_lines",
)
SUITES = ("algebra", "frames", "rotations", "heisenberg", "wavepacket")


def metric_unit(name):
    if name.endswith(".calls") or name == "wavepacket.plane_wave_terms":
        return "count"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    return "s"


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "cores": CORES,
        "git_commit": commit,
        "seed": seed,
        "load": "closed loop, one process, one invocation at a time",
    }


def calibrate():
    """Wall time of a fixed block of work: the host's current speed.

    The block mixes what the workloads spend their time on, because the
    other tenants slow each kind by a different amount: an interpreter loop,
    object and dict churn, small-array numpy calls and an in-place complex
    exponential over a 2 MiB buffer, larger than a core's private cache.
    """
    import numpy as np

    buf = np.empty(1 << 17, dtype=complex)
    phase = np.linspace(0.0, 1.0, 1 << 17)
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    for _ in range(6):
        table = {}
        for i in range(15_000):
            table[i] = (i, float(i))
    vec = np.array([0.3, -0.5, 0.8])
    for i in range(450):
        acc += np.linalg.norm(np.cross(vec, (i, 1.0, 2.0)))
    for _ in range(12):
        np.multiply(phase, 1j, out=buf)
        np.exp(buf, out=buf)
        acc += buf.sum().real
    return time.perf_counter() - t0


class Timed:
    """Wall times of repeated jobs, each between two calibration blocks."""

    def __init__(self):
        self.wall = []
        self.cal = []
        self._last_cal = calibrate()

    def time(self, job):
        t0 = time.perf_counter()
        result = job()
        elapsed = time.perf_counter() - t0
        cal = calibrate()
        self.wall.append(elapsed)
        self.cal.append(0.5 * (self._last_cal + cal))
        self._last_cal = cal
        return result

    def scaled(self):
        """Wall times scaled to the host speed at which a block takes CAL_REF_S."""
        return [w * CAL_REF_S / c for w, c in zip(self.wall, self.cal)]


def setup_times(spectrum):
    """Timed fresh interpreters that import spinpol and build the parser.

    Workloads that read a spectrum also load it.  The first interpreter is a
    warm-up that compiles the bytecode caches and is not timed.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import spinpol.cli as c; c.build_parser()"
    if spectrum is not None:
        code += f"; import spinpol.wavepacket as w; w.load_spectrum({spectrum!r})"
    argv = [sys.executable, "-c", code]
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    timed = Timed()
    for _ in range(SETUP_REPEATS):
        timed.time(lambda: subprocess.run(argv, check=True, stdout=subprocess.DEVNULL))
    return timed


def tail(samples):
    """The highest percentile with TAIL_BEYOND samples above it, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


class Runner:
    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.argv = workload.argv()
        self.attempted = 0
        self.failed = 0

    def invoke(self):
        """One checked invocation; returns the wall time of `cli.main`."""
        self.attempted += 1
        error = None
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = self.cli.main(self.argv)
                elapsed = time.perf_counter() - t0
        except Exception:  # one broken invocation must not end the run
            elapsed = time.perf_counter() - t0
            error = traceback.format_exc()
        else:
            error = f"exit code {code}" if code != 0 else self.workload.check()
        if error is not None:
            self.failed += 1
            print(f"invocation {self.attempted} failed: {error}", file=sys.stderr)
        return elapsed


def run_untraced(runner, seconds):
    runner.invoke()  # warm-up: first-call costs are not what a steady user sees
    timed = Timed()
    deadline = time.perf_counter() + seconds
    while not timed.wall or (
        time.perf_counter() + statistics.median(timed.wall) + statistics.median(timed.cal)
        <= deadline
    ):
        timed.time(runner.invoke)
    return timed


def run_traced(runner, tracer, seconds):
    runner.invoke()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or (
        time.perf_counter() + statistics.median(plain) + statistics.median(traced) <= deadline
    ):
        plain.append(runner.invoke())
        tracer.install()
        try:
            traced.append(runner.invoke())
        finally:
            tracer.remove()
    return plain, traced


def end_to_end_metrics(workload, timed, setup, rss_kb):
    samples = timed.scaled()
    wall = statistics.median(samples)
    tail_value, tail_pct = tail(samples)
    metrics = {
        "wall_s": (wall, "s"),
        "wall_s_tail": (tail_value, "s"),
        "units_per_s": (workload.units / wall, "1/s"),
        "setup_s": (statistics.median(setup.scaled()), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    detail = {
        "samples": len(samples),
        "wall_s_tail_percentile": tail_pct,
        "unit": workload.unit,
        "units_per_invocation": workload.units,
        "cal_ref_s": CAL_REF_S,
        "raw_wall_s_median": statistics.median(timed.wall),
        "raw_setup_s_median": statistics.median(setup.wall),
        "cal_s_median": statistics.median(timed.cal + setup.cal),
        "wall_samples": timed.wall,
        "cal_samples": timed.cal,
        "setup_samples": setup.wall,
        "setup_cal_samples": setup.cal,
    }
    return metrics, detail


def per_layer_metrics(tracer, plain, traced):
    n = len(traced)
    table = tracer.self_times()
    metrics = {}
    unlisted_calls, unlisted_self = 0, 0.0
    listed = set(LAYER_FUNCTIONS) | {f"verify.run_suite.{s}" for s in SUITES}
    for name, (calls, selft) in table.items():
        if name not in listed:
            unlisted_calls += calls
            unlisted_self += selft
    for fn in LAYER_FUNCTIONS:
        calls, selft = table.get(fn, (0, 0.0))
        metrics[f"{fn}.calls"] = calls / n
        metrics[f"{fn}.self_s"] = selft / n
    for s in SUITES:
        metrics[f"verify.run_suite.{s}.self_s"] = table.get(f"verify.run_suite.{s}", (0, 0.0))[1] / n
    terms = tracer.counts["plane_wave_terms"] / n
    metrics["wavepacket.plane_wave_terms"] = terms
    metrics["wavepacket.phase_bytes_computed"] = 16.0 * terms
    metrics["wavepacket.save_spin_field.bytes"] = tracer.counts["save_spin_field_bytes"] / n
    metrics["trace.unlisted.calls"] = unlisted_calls / n
    metrics["trace.unlisted.self_s"] = unlisted_self / n
    metrics["trace.wall_s"] = sum(traced) / n
    metrics["trace.untraced_wall_s"] = sum(plain) / len(plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    detail = {"traced_invocations": n, "untraced_invocations": len(plain)}
    return {k: (v, metric_unit(k)) for k, v in metrics.items()}, detail


def run(args):
    if not (SRC / "spinpol" / "cli.py").is_file():
        print(f"error: no spinpol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spinpol
    import spinpol.cli as cli

    if Path(spinpol.__file__).resolve().parent != SRC / "spinpol":
        print(f"error: imported spinpol from {spinpol.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(work), cli.main)
        runner = Runner(cli, workload)
        if args.trace:
            tracer = Tracer(spinpol)
            plain, traced = run_traced(runner, tracer, args.seconds)
            metrics, detail = per_layer_metrics(tracer, plain, traced)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            detail["spans"] = str((out_dir / f"spans-{args.workload}.npz").relative_to(ROOT))
            tracer.save(ROOT / detail["spans"])
        else:
            timed = run_untraced(runner, args.seconds)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            setup = setup_times(workload.spectrum)
            metrics, detail = end_to_end_metrics(workload, timed, setup, rss_kb)
            metrics["ok_ratio"] = ((runner.attempted - runner.failed) / runner.attempted, "1")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail["workload"] = args.workload
    detail["geometry"] = workload.geometry
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"env": environment(args.seed), "detail": detail}
    print(json.dumps(record))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({**record, "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["field_grid", "spin_sweep", "verify_sweep"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append the run's record to this JSON-lines file")
    parser.add_argument("--report", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two JSON-lines result files instead of running")
    args = parser.parse_args(argv)
    if args.report:
        from report import compare

        return compare(*args.report, ROOT / "BENCHMARK.json")
    if args.workload is None:
        parser.error("--workload is required unless --report is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
