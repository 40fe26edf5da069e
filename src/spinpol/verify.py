"""Seeded randomized property sweeps over every module, with a tabular report."""

from dataclasses import dataclass

import numpy as np

from . import algebra, frames, heisenberg, rotations, wavepacket

DEFAULT_SEED = 1729
DEFAULT_CASES = 100
# cases drawn, stacked and checked together
CASE_BLOCK = 256

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
            return w, i_vec


def _direction_clear_of(rng, avoid):
    # unit vector staying away from -avoid (default references) and +-avoid
    while True:
        d = _unit_vector(rng)
        if 1.0 + d[2] > 1e-4 and np.linalg.norm(np.cross(d, avoid)) > 1e-2:
            return d


def _norms(x):
    """2-norm of each case's entries: (n, ...) to (n,)."""
    return np.linalg.norm(x.reshape(len(x), -1), axis=1)


def _dagger(m):
    return m.conj().swapaxes(-1, -2)


# Each suite is a draw, which takes one case's random numbers from the suite's
# stream, and a check, which takes the stacked draws of a block of cases and
# returns per-case residual arrays.


def _draw_algebra(rng):
    a, b = _unit_vector(rng), _unit_vector(rng)
    chi = _spinor(rng)
    ca, cb = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
    return a, b, chi, ca, cb


def _check_algebra(a, b, chi, ca, cb):
    anti = algebra.sigma_product(a, b) + algebra.sigma_product(b, a)
    s = algebra._spv(chi)
    ca, cb = ca[:, None], cb[:, None]
    lin = (
        algebra.dot_sigma(ca * a + cb * b)
        - ca[..., None] * algebra.dot_sigma(a)
        - cb[..., None] * algebra.dot_sigma(b)
    )
    return (
        _norms(anti - 2.0 * algebra._vdot(a, b)[:, None, None] * np.eye(2)),
        abs(_norms(s) - 1.0),
        algebra._eigen_residual(s, chi, +1),
        _norms(lin),
    )


def _draw_frames(rng):
    w, i_vec = _frame(rng)
    theta = rng.uniform(0.1, np.pi - 0.1)
    return w, i_vec, theta, rng.uniform(0, 2 * np.pi)


def _check_frames(w, i_vec, theta, phi):
    f = frames.build_frame(w, i_vec)
    # polar angle of the characterization vector is degenerate: push I
    # toward w at fixed azimuth and the triad must not move
    perp = f.i_vec - algebra._vdot(f.i_vec, f.w)[:, None] * f.w
    perp /= _norms(perp)[:, None]
    tilted = np.sin(theta)[:, None] * perp + np.cos(theta)[:, None] * f.w
    g = frames.build_frame(f.w, tilted / _norms(tilted)[:, None])
    w_plus, w_minus = frames.complex_basis(f)
    pair = frames.eigen_spinors(f)
    sig_plus, sig_minus = frames.ladder_operators(f)
    pair_rot = frames.eigen_spinors(rotations.rotate_characterization(f, phi))
    c, c_prime = frames.ladder_constants(f)
    varpi = frames.mapping_matrix(f)
    return (
        abs(algebra._vdot(f.u, f.v)),
        abs(algebra._vdot(f.v, f.w)),
        abs(algebra._vdot(f.w, f.u)),
        _norms(np.cross(f.u, f.v) - f.w),
        *(abs(_norms(vec) - 1.0) for vec in (f.u, f.v, f.w)),
        _norms(f.u - g.u),
        _norms(f.v - g.v),
        abs(algebra._vdot(w_minus, w_plus)),
        abs(_norms(w_plus) - 1.0),
        abs(_norms(w_minus) - 1.0),
        algebra._eigen_residual(f.w, pair.chi_plus, +1),
        algebra._eigen_residual(f.w, pair.chi_minus, -1),
        abs(algebra._vdot(pair.chi_plus, pair.chi_minus)),
        _norms(algebra._apply(sig_plus, pair.chi_plus)),
        _norms(algebra._apply(sig_minus, pair.chi_minus)),
        abs(pair.n_plus - pair_rot.n_plus),
        abs(pair.n_minus - pair_rot.n_minus),
        abs(abs(c) - np.sqrt(2.0)),
        abs(abs(c_prime) - np.sqrt(2.0)),
        abs(c - 1j * np.conj(c_prime)),
        _norms(_dagger(varpi) @ varpi - np.eye(2)),
    )


def _draw_rotations(rng):
    axis = _unit_vector(rng)
    phi1, phi2 = rng.uniform(0, 4 * np.pi, size=2)
    a = rng.normal(size=3)
    w, i_vec = _frame(rng)
    phi = rng.uniform(0, 4 * np.pi)
    return axis, phi1, phi2, a, w, i_vec, phi, _spinor(rng)


def _check_rotations(axis, phi1, phi2, a, w, i_vec, phi, alpha):
    so3, su2 = rotations._so3, rotations._su2
    f = frames.build_frame(w, i_vec)
    return (
        _norms(so3(axis, phi1) @ so3(axis, phi2) - so3(axis, phi1 + phi2)),
        _norms(su2(axis, phi1 + 2 * np.pi) + su2(axis, phi1)),
        rotations.correspondence_residual(axis, phi1, a),
        *rotations.eigenspinor_rotation_residuals(f, phi),
        rotations.spv_rotation_residual(f, phi, alpha),
    )


def _draw_heisenberg(rng):
    w, i_vec = _frame(rng)
    phi = rng.uniform(0, 4 * np.pi)
    return w, i_vec, phi, _spinor(rng)


def _check_heisenberg(w, i_vec, phi, alpha):
    f = frames.build_frame(w, i_vec)
    hs = heisenberg.heisenberg_sigma(f)
    comps = (hs.sigma_u, hs.sigma_v, hs.sigma_w)
    # the ladder phase advances with the azimuth of the characterization vector
    hs_rot = heisenberg.heisenberg_sigma(rotations.rotate_characterization(f, phi))
    shift = np.exp(1j * hs_rot.phi0) - np.exp(1j * phi) * np.exp(1j * hs.phi0)
    return (
        _norms(hs.sigma_w - np.diag([1.0, -1.0])),
        *(_norms(m - _dagger(m)) for m in comps),
        *(abs(np.trace(m, axis1=-2, axis2=-1)) for m in comps),
        *(abs(np.linalg.det(m) + 1.0) for m in comps),
        *(_norms(comps[a] @ comps[b] + comps[b] @ comps[a]) for a, b in ((0, 1), (0, 2), (1, 2))),
        _norms(hs.sigma_u @ hs.sigma_v - 1j * hs.sigma_w),
        _norms(hs.sigma_v @ hs.sigma_w - 1j * hs.sigma_u),
        _norms(hs.sigma_w @ hs.sigma_u - 1j * hs.sigma_v),
        heisenberg.closed_form_residual(f),
        heisenberg.rotation_residual(f, phi),
        heisenberg.equivalence_residual(f, phi),
        heisenberg.expectation_spv_residual(f, alpha),
        abs(shift),
    )


def _collinear_draw(rng, n_samples=3):
    mags = np.sort(rng.uniform(1.0, 3.0, size=n_samples))
    amp = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
    weight = rng.uniform(0.5, 1.5, size=n_samples)
    amp /= np.sqrt(np.sum(weight * np.abs(amp) ** 2))
    return mags, amp, weight


def _draw_wavepacket(rng):
    i_vec = _unit_vector(rng)
    direction = _direction_clear_of(rng, i_vec)
    alpha = _spinor(rng)
    x = rng.normal(size=3)
    t = rng.uniform(0, 2.0)
    d2 = _direction_clear_of(rng, i_vec)
    phase = rng.uniform(0, 2 * np.pi)
    mags, amp, weight = _collinear_draw(rng)
    return i_vec, direction, alpha, x, t, d2, phase, mags, amp, weight, rng.uniform(0, 2 * np.pi)


def _check_wavepacket(i_vec, direction, alpha, x, t, d2, phase, mags, amp, weight, phi):
    # frame-level parts: the composed spinor of a single plane wave along
    # `direction`, and I rotated about it
    chi = frames.compose_spinor(frames.mapping_matrix(frames.build_frame(direction, i_vec)), alpha)
    i_rot = algebra._apply(rotations._so3(direction, phi), i_vec)
    n = len(i_vec)
    # the public evaluators under test, one call per block of stacked packets
    cfg = wavepacket.PacketConfig(i_vec=i_vec, alpha=alpha)

    # single plane wave: local polarization equals the composed spinor's
    single = wavepacket.Spectrum(
        k=2.0 * direction[:, None, :], amplitude=np.ones((n, 1)), weight=np.ones((n, 1))
    )
    s_single = wavepacket.local_spv(single, cfg, x, t)[1]

    # two-direction spectra: linearity of the eigen decomposition and a unit
    # local polarization away from nodes
    spec = wavepacket.Spectrum(
        k=np.stack([1.5 * direction, 2.5 * d2], axis=1),
        amplitude=np.stack([np.full(n, 0.8), 0.6 * np.exp(1j * phase)], axis=1),
        weight=np.ones((n, 2)),
    )
    psi = wavepacket.evaluate_wavefunction(spec, cfg, x, t)
    psi_plus = wavepacket.eigen_component(spec, cfg, +1, x, t)
    psi_minus = wavepacket.eigen_component(spec, cfg, -1, x, t)
    linearity = _norms(psi - alpha[:, :1] * psi_plus - alpha[:, 1:] * psi_minus)
    rows = _norms(psi) ** 2 > 1e-6
    s2 = wavepacket.local_spv(
        wavepacket.Spectrum(k=spec.k[rows], amplitude=spec.amplitude[rows], weight=spec.weight[rows]),
        wavepacket.PacketConfig(i_vec=i_vec[rows], alpha=alpha[rows]),
        x[rows],
        t[rows],
    )[1]
    unit = np.zeros(n)
    # each |s| as the dot product s.s that np.linalg.norm takes for one vector
    unit[rows] = abs(np.sqrt((s2[:, None, :] @ s2[:, :, None])[:, 0, 0]) - 1.0)

    # collinear spectra: rotating I about the common axis rotates the total
    # spin through twice the angle
    coll = wavepacket.Spectrum(k=mags[:, :, None] * direction[:, None, :], amplitude=amp, weight=weight)
    spin0 = wavepacket.total_spin(coll, cfg)
    spin1 = wavepacket.total_spin(coll, wavepacket.PacketConfig(i_vec=i_rot, alpha=alpha))
    law = spin1 - algebra._apply(rotations._so3(direction, 2.0 * phi), spin0)
    return _norms(s_single - algebra._spv(chi)), linearity, unit, _norms(law)


# name: (draw, check, tolerance, suite id)
_SUITES = {
    "algebra": (_draw_algebra, _check_algebra, 1e-12, 0),
    "frames": (_draw_frames, _check_frames, 1e-12, 1),
    "rotations": (_draw_rotations, _check_rotations, 1e-12, 2),
    "heisenberg": (_draw_heisenberg, _check_heisenberg, 1e-12, 3),
    "wavepacket": (_draw_wavepacket, _check_wavepacket, 1e-9, 4),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name, seed=DEFAULT_SEED, n_cases=DEFAULT_CASES, tolerance=None):
    """Run one named suite; n_cases = 0 passes vacuously with zero residual.

    Each case is drawn from the (seed, suite) stream in turn; the laws are then
    checked on a block of up to CASE_BLOCK stacked cases at once, and the worst
    residual over all cases is reported.  A NaN residual fails the suite.
    """
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    draw, check, default_tol, suite_id = _SUITES[name]
    tol = default_tol if tolerance is None else float(tolerance)
    # written so that a NaN tolerance fails it
    if not (n_cases >= 0 and 0 <= tol < np.inf):
        raise ValueError(f"n_cases must be >= 0 and tolerance finite and >= 0, got {n_cases}, {tol}")
    # per-suite streams keyed by (seed, suite id) so a suite's draw does not
    # depend on which other suites were selected
    rng = np.random.default_rng([seed, suite_id])
    worst = 0.0
    # blocks are drawn in case order, so neither the stream nor the result
    # depends on CASE_BLOCK, which only bounds the memory of a large run
    for start in range(0, n_cases, CASE_BLOCK):
        cases = [draw(rng) for _ in range(min(CASE_BLOCK, n_cases - start))]
        for residual in check(*(np.array(field) for field in zip(*cases))):
            # np.maximum, not max: a NaN residual must fail the suite
            worst = np.maximum(worst, np.max(residual))
    worst = float(worst)
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
