"""Seeded randomized property sweeps over every module, with a tabular report."""

from dataclasses import dataclass

import numpy as np

from . import algebra, frames, heisenberg, rotations, wavepacket

DEFAULT_SEED = 1729
DEFAULT_CASES = 100

REPORT_HEADER = "suite,cases,max_residual,tolerance,status"


@dataclass
class SuiteResult:
    suite: str
    cases: int
    max_residual: float
    tolerance: float
    passed: bool


def _unit_vector(rng):
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-3:
            return v / n


def _spinor(rng):
    while True:
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        n = np.linalg.norm(z)
        if n > 1e-3:
            return z / n


def _frame(rng):
    # keep comfortably away from the degenerate axis so 1e-12 contracts are
    # tested on well-conditioned inputs
    w = _unit_vector(rng)
    while True:
        i_vec = _unit_vector(rng)
        if np.linalg.norm(np.cross(w, i_vec)) > 1e-2:
            return frames.build_frame(w, i_vec)


def _direction_clear_of(rng, avoid):
    # unit vector staying away from -avoid (default references) and +-avoid
    while True:
        d = _unit_vector(rng)
        if 1.0 + d[2] > 1e-4 and np.linalg.norm(np.cross(d, avoid)) > 1e-2:
            return d


def _suite_algebra(rng, n_cases):
    worst = 0.0
    eye = np.eye(2)
    for _ in range(n_cases):
        a, b = _unit_vector(rng), _unit_vector(rng)
        anti = algebra.sigma_product(a, b) + algebra.sigma_product(b, a)
        worst = max(worst, np.linalg.norm(anti - 2.0 * np.dot(a, b) * eye))
        chi = _spinor(rng)
        s = algebra.spv(chi)
        worst = max(worst, abs(np.linalg.norm(s) - 1.0))
        worst = max(worst, algebra.eigen_residual(s, chi, +1))
        ca, cb = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
        lin = algebra.dot_sigma(ca * a + cb * b) - ca * algebra.dot_sigma(
            a
        ) - cb * algebra.dot_sigma(b)
        worst = max(worst, np.linalg.norm(lin))
    return worst


def _suite_frames(rng, n_cases):
    worst = 0.0
    for _ in range(n_cases):
        f = _frame(rng)
        for dot in (
            np.dot(f.u, f.v),
            np.dot(f.v, f.w),
            np.dot(f.w, f.u),
        ):
            worst = max(worst, abs(dot))
        worst = max(worst, np.linalg.norm(np.cross(f.u, f.v) - f.w))
        for vec in (f.u, f.v, f.w):
            worst = max(worst, abs(np.linalg.norm(vec) - 1.0))

        # polar angle of the characterization vector is degenerate: push I
        # toward w at fixed azimuth and the triad must not move
        perp = f.i_vec - np.dot(f.i_vec, f.w) * f.w
        perp /= np.linalg.norm(perp)
        theta = rng.uniform(0.1, np.pi - 0.1)
        tilted = np.sin(theta) * perp + np.cos(theta) * f.w
        g = frames.build_frame(f.w, tilted / np.linalg.norm(tilted))
        worst = max(worst, np.linalg.norm(f.u - g.u), np.linalg.norm(f.v - g.v))

        w_plus, w_minus = frames.complex_basis(f)
        worst = max(worst, abs(np.vdot(w_minus, w_plus)))
        worst = max(worst, abs(np.linalg.norm(w_plus) - 1.0))
        worst = max(worst, abs(np.linalg.norm(w_minus) - 1.0))

        pair = frames.eigen_spinors(f)
        worst = max(worst, algebra.eigen_residual(f.w, pair.chi_plus, +1))
        worst = max(worst, algebra.eigen_residual(f.w, pair.chi_minus, -1))
        worst = max(worst, abs(np.vdot(pair.chi_plus, pair.chi_minus)))

        sig_plus, sig_minus = frames.ladder_operators(f)
        worst = max(worst, np.linalg.norm(sig_plus @ pair.chi_plus))
        worst = max(worst, np.linalg.norm(sig_minus @ pair.chi_minus))

        rotated = rotations.rotate_characterization(f, rng.uniform(0, 2 * np.pi))
        pair_rot = frames.eigen_spinors(rotated)
        worst = max(worst, abs(pair.n_plus - pair_rot.n_plus))
        worst = max(worst, abs(pair.n_minus - pair_rot.n_minus))

        c, c_prime = frames.ladder_constants(f)
        worst = max(worst, abs(abs(c) - np.sqrt(2.0)))
        worst = max(worst, abs(abs(c_prime) - np.sqrt(2.0)))
        worst = max(worst, abs(c - 1j * np.conj(c_prime)))

        varpi = frames.mapping_matrix(f)
        worst = max(worst, np.linalg.norm(varpi.conj().T @ varpi - np.eye(2)))
    return worst


def _suite_rotations(rng, n_cases):
    worst = 0.0
    for _ in range(n_cases):
        axis = _unit_vector(rng)
        phi1, phi2 = rng.uniform(0, 4 * np.pi, size=2)
        group = rotations.so3_rotation(axis, phi1) @ rotations.so3_rotation(
            axis, phi2
        ) - rotations.so3_rotation(axis, phi1 + phi2)
        worst = max(worst, np.linalg.norm(group))
        cover = rotations.su2_rotation(axis, phi1 + 2 * np.pi) + rotations.su2_rotation(
            axis, phi1
        )
        worst = max(worst, np.linalg.norm(cover))
        worst = max(
            worst, rotations.correspondence_residual(axis, phi1, rng.normal(size=3))
        )

        f = _frame(rng)
        phi = rng.uniform(0, 4 * np.pi)
        worst = max(worst, *rotations.eigenspinor_rotation_residuals(f, phi))
        worst = max(worst, rotations.spv_rotation_residual(f, phi, _spinor(rng)))
    return worst


def _suite_heisenberg(rng, n_cases):
    worst = 0.0
    for _ in range(n_cases):
        f = _frame(rng)
        hs = heisenberg.heisenberg_sigma(f)
        worst = max(worst, np.linalg.norm(hs.sigma_w - np.diag([1.0, -1.0])))
        comps = (hs.sigma_u, hs.sigma_v, hs.sigma_w)
        for m in comps:
            worst = max(worst, np.linalg.norm(m - m.conj().T))
            worst = max(worst, abs(np.trace(m)))
            worst = max(worst, abs(np.linalg.det(m) + 1.0))
        for a in range(3):
            for b in range(a + 1, 3):
                worst = max(worst, np.linalg.norm(comps[a] @ comps[b] + comps[b] @ comps[a]))
        worst = max(worst, np.linalg.norm(hs.sigma_u @ hs.sigma_v - 1j * hs.sigma_w))
        worst = max(worst, np.linalg.norm(hs.sigma_v @ hs.sigma_w - 1j * hs.sigma_u))
        worst = max(worst, np.linalg.norm(hs.sigma_w @ hs.sigma_u - 1j * hs.sigma_v))

        worst = max(worst, heisenberg.closed_form_residual(f))

        phi = rng.uniform(0, 4 * np.pi)
        worst = max(worst, heisenberg.rotation_residual(f, phi))
        worst = max(worst, heisenberg.equivalence_residual(f, phi))
        worst = max(worst, heisenberg.expectation_spv_residual(f, _spinor(rng)))

        # the ladder phase advances with the azimuth of the characterization vector
        hs_rot = heisenberg.heisenberg_sigma(rotations.rotate_characterization(f, phi))
        shift = np.exp(1j * hs_rot.phi0) - np.exp(1j * phi) * np.exp(1j * hs.phi0)
        worst = max(worst, abs(shift))
    return worst


def _collinear_spectrum(rng, direction, n_samples=3):
    mags = np.sort(rng.uniform(1.0, 3.0, size=n_samples))
    k = np.outer(mags, direction)
    amp = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    weight = rng.uniform(0.5, 1.5, size=n_samples)
    amp /= np.sqrt(np.sum(weight * np.abs(amp) ** 2))
    return wavepacket.Spectrum(k=k, amplitude=amp, weight=weight)


def _suite_wavepacket(rng, n_cases):
    worst = 0.0
    for _ in range(n_cases):
        i_vec = _unit_vector(rng)
        direction = _direction_clear_of(rng, i_vec)
        alpha = _spinor(rng)
        cfg = wavepacket.PacketConfig(i_vec=i_vec, alpha=alpha)

        # single plane wave: local polarization equals the composed spinor's
        single = wavepacket.Spectrum(
            k=[2.0 * direction], amplitude=[1.0], weight=[1.0]
        )
        x = rng.normal(size=3)
        t = rng.uniform(0, 2.0)
        _, s = wavepacket.local_spv(single, cfg, x, t)
        chi = frames.compose_spinor(
            frames.mapping_matrix(frames.build_frame(direction, i_vec), cfg.ref),
            alpha,
        )
        worst = max(worst, np.linalg.norm(s - algebra.spv(chi)))

        # two-direction spectrum: linearity of the eigen decomposition and a
        # unit local polarization away from nodes
        d2 = _direction_clear_of(rng, i_vec)
        spec = wavepacket.Spectrum(
            k=[1.5 * direction, 2.5 * d2],
            amplitude=np.array([0.8, 0.6 * np.exp(1j * rng.uniform(0, 2 * np.pi))]),
            weight=[1.0, 1.0],
        )
        psi = wavepacket.evaluate_wavefunction(spec, cfg, x, t)
        psi_plus = wavepacket.eigen_component(spec, cfg, +1, x, t)
        psi_minus = wavepacket.eigen_component(spec, cfg, -1, x, t)
        worst = max(
            worst, np.linalg.norm(psi - alpha[0] * psi_plus - alpha[1] * psi_minus)
        )
        rho = np.linalg.norm(psi) ** 2
        if rho > 1e-6:
            _, s2 = wavepacket.local_spv(spec, cfg, x, t)
            worst = max(worst, abs(np.linalg.norm(s2) - 1.0))

        # collinear spectrum: rotating I about the common axis rotates the
        # total spin through twice the angle
        coll = _collinear_spectrum(rng, direction)
        phi = rng.uniform(0, 2 * np.pi)
        spin0 = wavepacket.total_spin(coll, cfg)
        i_rot = rotations.so3_rotation(direction, phi) @ i_vec
        spin1 = wavepacket.total_spin(
            coll, wavepacket.PacketConfig(i_vec=i_rot, alpha=alpha)
        )
        law = spin1 - rotations.so3_rotation(direction, 2.0 * phi) @ spin0
        worst = max(worst, np.linalg.norm(law))
    return worst


_SUITES = {
    "algebra": (_suite_algebra, 1e-12, 0),
    "frames": (_suite_frames, 1e-12, 1),
    "rotations": (_suite_rotations, 1e-12, 2),
    "heisenberg": (_suite_heisenberg, 1e-12, 3),
    "wavepacket": (_suite_wavepacket, 1e-9, 4),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name, seed=DEFAULT_SEED, n_cases=DEFAULT_CASES, tolerance=None):
    """Run one named suite; n_cases = 0 passes vacuously with zero residual."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    fn, default_tol, suite_id = _SUITES[name]
    tol = default_tol if tolerance is None else float(tolerance)
    # written so that a NaN tolerance fails it
    if not (n_cases >= 0 and 0 <= tol < np.inf):
        raise ValueError(f"n_cases must be >= 0 and tolerance finite and >= 0, got {n_cases}, {tol}")
    # per-suite streams keyed by (seed, suite id) so a suite's draw does not
    # depend on which other suites were selected
    rng = np.random.default_rng([seed, suite_id])
    worst = float(fn(rng, n_cases)) if n_cases > 0 else 0.0
    return SuiteResult(
        suite=name,
        cases=n_cases,
        max_residual=worst,
        tolerance=tol,
        passed=worst <= tol,
    )


def run_suites(names=SUITE_NAMES, seed=DEFAULT_SEED, n_cases=DEFAULT_CASES, tolerance=None):
    return [run_suite(name, seed=seed, n_cases=n_cases, tolerance=tolerance) for name in names]


def report_lines(results):
    """CSV report, one row per suite."""
    lines = [REPORT_HEADER]
    for r in results:
        status = "pass" if r.passed else "fail"
        lines.append(
            f"{r.suite},{r.cases},{r.max_residual:.17g},{r.tolerance:.17g},{status}"
        )
    return lines
