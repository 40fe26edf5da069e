"""The three benchmark workloads: seeded inputs, CLI argv and output checks.

Each workload prepares its inputs once from the seed, then every invocation
runs the same argv through `spinpol.cli.main`, so repeated invocations in one
run do identical work.  The checks recompute the expected output here with
plain numpy (closed-form eigenspinors for the default references and an
einsum plane-wave sum), independently of the library code being timed.
"""

import contextlib
import io
import os

import numpy as np

SQRT2 = np.sqrt(2.0)
HBAR = 1.0  # PacketConfig default; the CLI has no flag for it

GRID_N = 21  # `spinpol field` default grid: 21^3 points on [-6, 6]^3
GRID_SPAN = 6.0
SPECTRUM_SAMPLES = 9**3  # `spinpol spectrum-gen` default: 9 per axis
SWEEP_STEPS = 8
VERIFY_CASES = 100
VERIFY_SUITES = ("algebra", "frames", "rotations", "heisenberg", "wavepacket")
FIELD_CHECK_POINTS = 256


def _fmt(values):
    return ",".join(f"{float(v):.17g}" for v in values)


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _jones(rng):
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    return a / np.linalg.norm(a)


def _parse_unit(text):
    # mirror the CLI: parse the flag text, then divide by its norm
    v = np.array([float(t) for t in text.split(",")])
    return v / np.linalg.norm(v)


def _parse_jones(text):
    r = [float(t) for t in text.split(",")]
    a = np.array([r[0] + 1j * r[1], r[2] + 1j * r[3]])
    return a / np.linalg.norm(a)


def read_spectrum(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, :3], rows[:, 3] + 1j * rows[:, 4], rows[:, 5]


def packet_spinors(k, i_vec, alpha):
    """chi(k_hat) = alpha_1 chi+ + alpha_2 chi- for the default references.

    With chi1 = (0, 1) and chi2 = (1, 0), chi+ = (w+_x - i w+_y, -w+_z) and
    chi- = (w-_z, w-_x + i w-_y), both divided by sqrt(1 + w_z).
    """
    w = k / np.linalg.norm(k, axis=1, keepdims=True)
    cross = np.cross(w, i_vec)
    v = cross / np.linalg.norm(cross, axis=1, keepdims=True)
    u = np.cross(v, w)
    wp = (u + 1j * v) / SQRT2
    wm = (v + 1j * u) / SQRT2
    norm = 1.0 / np.sqrt(1.0 + w[:, 2])
    chi_plus = np.stack([wp[:, 0] - 1j * wp[:, 1], -wp[:, 2]], axis=1)
    chi_minus = np.stack([wm[:, 2], wm[:, 0] + 1j * wm[:, 1]], axis=1)
    return norm[:, None] * (alpha[0] * chi_plus + alpha[1] * chi_minus)


def spin_density(psi):
    """(rho, psi^dag sigma psi) for rows of 2-spinors."""
    cross = np.conj(psi[:, 0]) * psi[:, 1]
    rho = np.abs(psi[:, 0]) ** 2 + np.abs(psi[:, 1]) ** 2
    sdens = np.stack(
        [2.0 * cross.real, 2.0 * cross.imag, np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2],
        axis=1,
    )
    return rho, sdens


def rodrigues(axis, angle, vec):
    c, s = np.cos(angle), np.sin(angle)
    return vec * c + np.cross(axis, vec) * s + axis * np.dot(axis, vec) * (1.0 - c)


def geometry(k, i_vecs):
    """Distance of the inputs from the two degeneracy thresholds.

    min |k_hat x I| is compared with EPS_PARALLEL; min (1 + k_hat_z)
    is the distance from the south pole, where the default references lose
    precision.
    """
    from spinpol.frames import EPS_PARALLEL

    w = k / np.linalg.norm(k, axis=1, keepdims=True)
    cross = min(float(np.linalg.norm(np.cross(w, i), axis=1).min()) for i in i_vecs)
    return {
        "min_cross_k_i": cross,
        "eps_parallel": EPS_PARALLEL,
        "min_one_plus_kz": float((1.0 + w[:, 2]).min()),
    }


class _SpectrumWorkload:
    """Shared set-up: a default Gaussian spectrum written by `spectrum-gen`."""

    def __init__(self, seed, workdir, cli_main):
        rng = np.random.default_rng([seed, self.stream])
        self.spectrum = os.path.join(workdir, "spec.csv")
        self.out = os.path.join(workdir, self.out_name)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["spectrum-gen", "--out", self.spectrum])
        if code != 0:
            raise RuntimeError("spectrum-gen failed")
        self.k, self.amp, self.weight = read_spectrum(self.spectrum)
        self.i_text = _fmt(self._draw_i_vec(rng))
        alpha = _jones(rng)
        self.alpha_text = _fmt([alpha[0].real, alpha[0].imag, alpha[1].real, alpha[1].imag])
        self.i_vec = _parse_unit(self.i_text)
        self.alpha = _parse_jones(self.alpha_text)
        self._draw(rng)

    def _draw_i_vec(self, rng):
        return _unit(rng)

    def packet_flags(self):
        # flag=value keeps argparse from reading a leading minus as an option
        return [f"--spectrum={self.spectrum}", f"--i-vec={self.i_text}", f"--alpha={self.alpha_text}"]


class FieldGrid(_SpectrumWorkload):
    name = "field_grid"
    stream = 1
    out_name = "field.csv"
    unit = "plane-wave terms"
    units = GRID_N**3 * SPECTRUM_SAMPLES

    def _draw_i_vec(self, rng):
        # I uniform on the circle transverse to the mean wave vector.  With I
        # inside the spectrum's cone of directions the spinor phase winds about
        # k_hat = I, the packet spreads past the grid, and the on-grid
        # probability check no longer describes a correct result.
        mean_k = (self.weight * np.abs(self.amp) ** 2) @ self.k
        v = np.cross(mean_k, _unit(rng))
        return v / np.linalg.norm(v)

    def _draw(self, rng):
        ax = np.linspace(-GRID_SPAN, GRID_SPAN, GRID_N)
        self.grid = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
        self.spacing = float(ax[1] - ax[0])
        self.rows = np.sort(rng.choice(len(self.grid), FIELD_CHECK_POINTS, replace=False))
        coeff = (self.weight * self.amp)[:, None] * packet_spinors(self.k, self.i_vec, self.alpha)
        phases = np.exp(1j * np.einsum("pa,ka->pk", self.grid[self.rows], self.k))
        psi = (2.0 * np.pi) ** -1.5 * np.einsum("pk,kc->pc", phases, coeff)
        self.rho_ref, self.sdens_ref = spin_density(psi)
        self.geometry = geometry(self.k, [self.i_vec])

    def argv(self):
        return ["field", *self.packet_flags(), "--out", self.out]

    def check(self):
        out = np.loadtxt(self.out, delimiter=",", skiprows=1, ndmin=2)
        if out.shape != (len(self.grid), 8):
            return f"field table has shape {out.shape}"
        if np.abs(out[:, :3] - self.grid).max() > 1e-12 or np.any(out[:, 3] != 0.0):
            return "field table rows are not the default grid at t = 0"
        rho, s = out[:, 4], out[:, 5:]
        peak = rho.max()
        node = rho < 1e-12 * peak
        prob = rho.sum() * self.spacing**3
        if abs(prob - 1.0) > 1e-2:
            return f"on-grid probability {prob}"
        if not np.all(np.isnan(s[node])):
            return "node rows carry a polarization"
        unit_err = np.abs(np.linalg.norm(s[~node], axis=1) - 1.0).max(initial=0.0)
        if not unit_err <= 1e-9:
            return f"|s| deviates from 1 by {unit_err}"
        sub_rho, sub_s = rho[self.rows], s[self.rows]
        keep = ~node[self.rows]
        err = max(
            np.abs(sub_rho - self.rho_ref).max(),
            np.abs(sub_rho[keep, None] * sub_s[keep] - self.sdens_ref[keep]).max(initial=0.0),
        )
        if not err <= 1e-9 * peak:
            return f"field differs from the einsum reference by {err} (peak {peak})"
        return None


class SpinSweep(_SpectrumWorkload):
    name = "spin_sweep"
    stream = 2
    out_name = "spin.csv"
    unit = "sweep steps x samples"
    units = SWEEP_STEPS * SPECTRUM_SAMPLES

    def _draw(self, rng):
        self.axis_text = _fmt(_unit(rng))
        axis = _parse_unit(self.axis_text)
        self.phis = 2.0 * np.pi * np.arange(SWEEP_STEPS) / SWEEP_STEPS
        i_rots = [rodrigues(axis, phi, self.i_vec) for phi in self.phis]
        prob = self.weight * np.abs(self.amp) ** 2
        expected = []
        for i_rot in i_rots:
            rho, sdens = spin_density(packet_spinors(self.k, i_rot, self.alpha))
            expected.append(0.5 * HBAR * (prob[:, None] * sdens / rho[:, None]).sum(axis=0))
        self.expected = np.array(expected)
        self.geometry = geometry(self.k, i_rots)

    def argv(self):
        return [
            "total-spin", *self.packet_flags(), f"--axis={self.axis_text}",
            "--steps", str(SWEEP_STEPS), "--out", self.out,
        ]

    def check(self):
        out = np.loadtxt(self.out, delimiter=",", skiprows=1, ndmin=2)
        if out.shape != (SWEEP_STEPS, 4):
            return f"sweep table has shape {out.shape}"
        if np.abs(out[:, 0] - self.phis).max() > 1e-12:
            return "sweep angles are wrong"
        spins = out[:, 1:]
        top = np.linalg.norm(spins, axis=1).max()
        if not top <= 0.5 * HBAR + 1e-9:
            return f"|S| = {top} exceeds hbar/2"
        err = np.abs(spins - self.expected).max()
        if not err <= 1e-9:
            return f"total spin differs from hbar/2 sum weight |A|^2 spv(chi) by {err}"
        return None


class VerifySweep:
    name = "verify_sweep"
    unit = "suite-cases"
    units = len(VERIFY_SUITES) * VERIFY_CASES
    spectrum = None
    geometry = None

    def __init__(self, seed, workdir, cli_main):
        self.seed = seed
        self.out = os.path.join(workdir, "report.csv")

    def argv(self):
        return ["verify", "--n-cases", str(VERIFY_CASES), "--seed", str(self.seed), "--out", self.out]

    def check(self):
        with open(self.out) as fh:
            lines = fh.read().split()
        if lines[0] != "suite,cases,max_residual,tolerance,status":
            return "verify report header is wrong"
        rows = [ln.split(",") for ln in lines[1:]]
        if tuple(r[0] for r in rows) != VERIFY_SUITES:
            return f"verify report lists suites {[r[0] for r in rows]}"
        bad = [r[0] for r in rows if r[1] != str(VERIFY_CASES) or r[4] != "pass"]
        if bad:
            return f"suites not passing at {VERIFY_CASES} cases: {bad}"
        return None


WORKLOADS = {w.name: w for w in (FieldGrid, SpinSweep, VerifySweep)}
