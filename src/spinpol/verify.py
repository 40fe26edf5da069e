"""Seeded randomized property sweeps over every module, with a tabular report."""

import math
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


def _length(v):
    # np.linalg.norm of one real vector, sqrt(v.v), without its per-call overhead
    return math.sqrt(v.dot(v))


def _unit_vector(rng):
    while True:
        v = rng.normal(size=3)
        n = _length(v)
        if n > 1e-3:
            return v / n


def _spinor(rng):
    while True:
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        # np.linalg.norm of a complex vector sums the real and imaginary dot products
        n = math.sqrt(z.real.dot(z.real) + z.imag.dot(z.imag))
        if n > 1e-3:
            return z / n


def _frame(rng):
    # keep comfortably away from the degenerate axis so 1e-12 contracts are
    # tested on well-conditioned inputs
    w = _unit_vector(rng)
    while True:
        i_vec = _unit_vector(rng)
        if _length(frames._cross(w, i_vec)) > 1e-2:
            return w, i_vec


def _direction_clear_of(rng, avoid):
    # unit vector staying away from -avoid (default references) and +-avoid
    while True:
        d = _unit_vector(rng)
        if 1.0 + d[2] > 1e-4 and _length(frames._cross(d, avoid)) > 1e-2:
            return d


def _dots(v):
    """v.v of each row of an (m, k) block: one BLAS ddot per row, the one v.dot(v) calls."""
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


def _units(v):
    """The rows of v as _unit_vector returns them, and whether it accepts each."""
    n = np.sqrt(_dots(v))
    return v / n[:, None], n > 1e-3


def _spinors(x):
    """Rows of 4 normals (re, re, im, im) as _spinor returns them, and whether it accepts each."""
    z = x[:, :2] + 1j * x[:, 2:]
    # the stride-2 .real and .imag views take the BLAS ddot that _spinor's do
    n = np.sqrt(_dots(z.real) + _dots(z.imag))
    return z / n[:, None], n > 1e-3


def _frames(x):
    """Rows of 6 normals as _frame returns them, and whether it accepts each."""
    (w, w_ok), (i_vec, i_ok) = _units(x[:, :3]), _units(x[:, 3:])
    return w, i_vec, w_ok & i_ok & (np.sqrt(_dots(frames._cross(w, i_vec))) > 1e-2)


def _directions_clear_of(x, avoid):
    """Rows of 3 normals as _direction_clear_of returns them, and whether it accepts each."""
    d, ok = _units(x)
    return d, ok & (1.0 + d[:, 2] > 1e-4) & (np.sqrt(_dots(frames._cross(d, avoid))) > 1e-2)


def _take(rng, count, layout):
    """The random numbers of `count` cases, in stream order, with no rejection test.

    `layout` lists one case's generator calls: an int k for k normals, a tuple
    of (low, high) pairs for one uniform each.  Returns the (count, .) blocks
    of normals and of uniforms, lo + (hi - lo) * random() being exactly
    rng.uniform(lo, hi).
    """
    n_normals = sum(c for c in layout if isinstance(c, int))
    bounds = np.array([b for c in layout if not isinstance(c, int) for b in c]).reshape(-1, 2)
    if not len(bounds):
        # normals do not depend on how they are chunked
        return rng.normal(size=(count, n_normals)), np.empty((count, 0))
    normals, unit = np.empty((count, n_normals)), np.empty((count, len(bounds)))
    calls, n, u = [], 0, 0
    for c in layout:
        if isinstance(c, int):
            calls.append((rng.normal, normals[:, n : n + c], c))
            n += c
        else:
            calls.append((rng.random, unit[:, u : u + len(c)], len(c)))
            u += len(c)
    for row in range(count):
        for call, out, k in calls:
            out[row] = call(size=k)
    lo, hi = bounds.T
    return normals, lo + (hi - lo) * unit


def _block_draw(rng, count, layout, stack):
    """A block of `count` cases taken in one pass: (stacked fields, whether every case drew once).

    False means some case of the per-case draw rejects a vector and draws it
    again, so the fields do not hold that block.
    """
    fields, ok = stack(*_take(rng, count, layout))
    return [np.ascontiguousarray(f) for f in fields], bool(ok.all())


def _norms(x):
    """2-norm of each case's entries: (n, ...) to (n,)."""
    return np.linalg.norm(x.reshape(len(x), -1), axis=1)


def _dagger(m):
    return m.conj().swapaxes(-1, -2)


# Each suite is a draw, which takes one case's random numbers from the suite's
# stream, and a check, which takes the stacked draws of a block of cases and
# returns per-case residual arrays.  The layout lists the draw's generator
# calls when no vector is rejected, and the stack builds a block's fields from
# them (see _take and _block_draw).


def _draw_algebra(rng):
    a, b = _unit_vector(rng), _unit_vector(rng)
    chi = _spinor(rng)
    ca, cb = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
    return a, b, chi, ca, cb


_ALGEBRA_LAYOUT = (14,)


def _stack_algebra(x, u):
    (a, a_ok), (b, b_ok) = _units(x[:, 0:3]), _units(x[:, 3:6])
    chi, chi_ok = _spinors(x[:, 6:10])
    fields = (a, b, chi, x[:, 10] + 1j * x[:, 11], x[:, 12] + 1j * x[:, 13])
    return fields, a_ok & b_ok & chi_ok


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


_FRAMES_LAYOUT = (6, ((0.1, np.pi - 0.1), (0, 2 * np.pi)))


def _stack_frames(x, u):
    w, i_vec, ok = _frames(x)
    return (w, i_vec, u[:, 0], u[:, 1]), ok


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


_ROTATIONS_LAYOUT = (3, ((0, 4 * np.pi),) * 2, 9, ((0, 4 * np.pi),), 4)


def _stack_rotations(x, u):
    axis, axis_ok = _units(x[:, 0:3])
    w, i_vec, frame_ok = _frames(x[:, 6:12])
    alpha, alpha_ok = _spinors(x[:, 12:16])
    fields = (axis, u[:, 0], u[:, 1], x[:, 3:6], w, i_vec, u[:, 2], alpha)
    return fields, axis_ok & frame_ok & alpha_ok


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


_HEISENBERG_LAYOUT = (6, ((0, 4 * np.pi),), 4)


def _stack_heisenberg(x, u):
    w, i_vec, frame_ok = _frames(x[:, 0:6])
    alpha, alpha_ok = _spinors(x[:, 6:10])
    return (w, i_vec, u[:, 0], alpha), frame_ok & alpha_ok


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


_WAVEPACKET_LAYOUT = (
    13,  # i_vec, direction, alpha, x
    ((0, 2.0),),  # t
    3,  # d2
    ((0, 2 * np.pi),) + ((1.0, 3.0),) * 3,  # phase, mags
    6,  # amp
    ((0.5, 1.5),) * 3 + ((0, 2 * np.pi),),  # weight, phi
)


def _stack_wavepacket(x, u):
    i_vec, i_ok = _units(x[:, 0:3])
    direction, d_ok = _directions_clear_of(x[:, 3:6], i_vec)
    alpha, alpha_ok = _spinors(x[:, 6:10])
    d2, d2_ok = _directions_clear_of(x[:, 13:16], i_vec)
    # _collinear_draw on each row
    amp, weight = x[:, 16:19] + 1j * x[:, 19:22], u[:, 5:8]
    amp /= np.sqrt(np.sum(weight * np.abs(amp) ** 2, axis=1))[:, None]
    mags = np.sort(u[:, 2:5])
    fields = (i_vec, direction, alpha, x[:, 10:13], u[:, 0], d2, u[:, 1], mags, amp, weight, u[:, 8])
    return fields, i_ok & d_ok & alpha_ok & d2_ok


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


# name: (draw, layout, stack, check, tolerance, suite id)
_SUITES = {
    "algebra": (_draw_algebra, _ALGEBRA_LAYOUT, _stack_algebra, _check_algebra, 1e-12, 0),
    "frames": (_draw_frames, _FRAMES_LAYOUT, _stack_frames, _check_frames, 1e-12, 1),
    "rotations": (_draw_rotations, _ROTATIONS_LAYOUT, _stack_rotations, _check_rotations, 1e-12, 2),
    "heisenberg": (_draw_heisenberg, _HEISENBERG_LAYOUT, _stack_heisenberg, _check_heisenberg, 1e-12, 3),
    "wavepacket": (_draw_wavepacket, _WAVEPACKET_LAYOUT, _stack_wavepacket, _check_wavepacket, 1e-9, 4),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name, seed=DEFAULT_SEED, n_cases=DEFAULT_CASES, tolerance=None):
    """Run one named suite; n_cases = 0 passes vacuously with zero residual.

    The cases come from the (seed, suite) stream in case order, a block of up
    to CASE_BLOCK at a time.  A block is drawn in one pass: each case's random
    numbers are taken with one generator call per run of normals or uniforms,
    then the block's vectors and spinors are normalized and their rejection
    tests evaluated at once, with the arithmetic of the per-case draw.  If a
    case would have redrawn a rejected vector, the block is drawn again case
    by case from its start.  Either way the stream and the draws are the same
    bits.  The laws are checked on the stacked block, and the worst residual
    over all cases is reported.  A NaN residual fails the suite.
    """
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    draw, layout, stack, check, default_tol, suite_id = _SUITES[name]
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
        count = min(CASE_BLOCK, n_cases - start)
        state = rng.bit_generator.state
        fields, drawn = _block_draw(rng, count, layout, stack)
        if not drawn:
            # a case redraws a rejected vector: replay the block case by case
            rng.bit_generator.state = state
            fields = [np.array(field) for field in zip(*(draw(rng) for _ in range(count)))]
        for residual in check(*fields):
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
