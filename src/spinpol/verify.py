"""Seeded randomized property sweeps over every module, with a tabular report.

Each suite draws its cases in order from its own stream,
np.random.default_rng([seed, suite_id]), read as uniforms only, so its
draws do not depend on which other suites run.  Its draw is a list of steps
(name, k, make): each case takes k uniforms, and make(x, fields) maps an
(m, k) block of them to the step's values, reading earlier fields by name.
Every map is fixed, elementwise and without a redraw: a unit vector by
Archimedes' hat-box theorem (_unit), one clear of another field on the Duff
basis normal to it (_clear_of), a Jones vector uniform on the unit sphere of
C^2 (_jones), normals by Box-Muller (_gauss) and rng.uniform's own map
(_uniform).  So one rng.random call draws a block of cases, with the draws
and end state of drawing them one at a time, and a check, which takes the
block's stacked fields by name and returns per-case residual arrays,
evaluates every law once on the block.  The block size changes neither the
draws nor the report; it only bounds the memory of a large run.
"""

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


def _cis(u):
    """e^(2 pi i u)."""
    angle = 2.0 * np.pi * u
    return np.cos(angle) + 1j * np.sin(angle)


def _ring(cos_t, u):
    # the part normal to an axis of a unit vector at cosine cos_t to it, at azimuth 2 pi u
    sin_t, angle = np.sqrt((1.0 - cos_t) * (1.0 + cos_t)), 2.0 * np.pi * u
    return sin_t * np.cos(angle), sin_t * np.sin(angle)


def _unit(x, fields):
    # uniform on the sphere (Archimedes' hat-box theorem): z = 2u - 1 and an azimuth 2 pi u'
    z = 2.0 * x[:, 0] - 1.0
    return np.stack([*_ring(z, x[:, 1]), z], axis=1)


def _about(axis, cos_t, u):
    # unit vectors at cosine cos_t to the unit rows of `axis` and azimuth 2 pi u on the
    # basis normal to them of Duff et al., "Building an Orthonormal Basis, Revisited" (2017)
    x, y, z = axis.T
    sign = np.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    p, q = _ring(cos_t, u)
    return np.stack([cos_t * x + p * (1.0 + sign * x * x * a) + q * b,
                     cos_t * y + p * sign * b + q * (sign + y * y * a),
                     cos_t * z - p * sign * x - q * y], axis=1)


# |cos| < c to a unit vector is |v x it| > 1e-2
_CLEAR = np.sqrt(1.0 - 1e-4)


def _jones(x, fields):
    # (sqrt(1 - u) e^(2 pi i u'), sqrt(u) e^(2 pi i u'')): uniform on the unit sphere of C^2
    return np.sqrt(np.stack([1.0 - x[:, 0], x[:, 0]], axis=1)) * _cis(x[:, 1:])


def _clear_of(name):
    # a unit vector uniform on |v x fields[name]| > 1e-2, away from the degenerate
    # axis so the 1e-12 contracts are tested on well-conditioned inputs.  The cosine
    # is c t, t = 2u - 1 + 2^-53 on a grid symmetric in (-1, 1): |cos| < c at u = 0 too
    return lambda x, fields: _about(fields[name], _CLEAR * (2.0 * x[:, 0] - 1.0 + 2.0**-53), x[:, 1])


def _gauss(x):
    # complex standard normals by Box-Muller, radii from the first half of the uniforms
    # and angles from the second: the real and imaginary parts are independent normals
    n = x.shape[1] // 2
    return np.sqrt(-2.0 * np.log(1.0 - x[:, :n])) * _cis(x[:, n:])


def _normals(name, k):
    """k standard normals per case: the parts of (k + 1) // 2 complex normals, real first."""
    return name, 2 * ((k + 1) // 2), lambda x, fields: _gauss(x).view(float)[:, :k]


def _complex(name, k=None):
    """k complex standard normals per case (one scalar when k is None)."""
    return name, 2 * (k or 1), lambda x, fields: _gauss(x) if k else _gauss(x)[:, 0]


def _uniform(name, lo, hi, k=None):
    """k uniforms per case (one scalar when k is None): lo + (hi - lo) * random() is rng.uniform(lo, hi)."""
    return name, k or 1, lambda x, fields: lo + (hi - lo) * (x if k else x[:, 0])


def _read_block(rng, count, steps):
    """The fields of a block of `count` cases: one rng.random call, and each make once on it."""
    x = rng.random((count, sum(step[1] for step in steps)))
    fields, at = {}, 0
    for name, k, make in steps:
        fields[name] = make(x[:, at : at + k], fields)
        at += k
    return {name: np.ascontiguousarray(f) for name, f in fields.items()}


def _norms(x):
    """2-norm of each case's entries: (n, ...) to (n,)."""
    return algebra._norm(x.reshape(len(x), -1))


def _dagger(m):
    return m.conj().swapaxes(-1, -2)


# closed forms over the last two axes of stacked 2x2 matrices: np.linalg.det
# calls LAPACK and np.trace its own loop once per matrix
def _det(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _trace(m):
    return m[..., 0, 0] + m[..., 1, 1]


_ALGEBRA = (("a", 2, _unit), ("b", 2, _unit), ("chi", 3, _jones), _complex("ca"), _complex("cb"))


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


_FRAME = (("w", 2, _unit), ("i_vec", 2, _clear_of("w")))
_ALPHA = ("alpha", 3, _jones)
_FRAMES = (*_FRAME, _uniform("theta", 0.1, np.pi - 0.1), _uniform("phi", 0, 2 * np.pi))


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
        _norms(frames._cross_rows(algebra._rows(f.u), algebra._rows(f.v)).T - f.w),
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
        _norms(algebra._mul(_dagger(varpi), varpi) - np.eye(2)),
    )


_ROTATIONS = (("axis", 2, _unit), _uniform("phi1", 0, 4 * np.pi), _uniform("phi2", 0, 4 * np.pi),
              _normals("a", 3), *_FRAME, _uniform("phi", 0, 4 * np.pi), _ALPHA)


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


_HEISENBERG = (*_FRAME, _uniform("phi", 0, 4 * np.pi), _ALPHA)


def _check_heisenberg(w, i_vec, phi, alpha):
    f = frames.build_frame(w, i_vec)
    hs = heisenberg.heisenberg_sigma(f)
    comps = (hs.sigma_u, hs.sigma_v, hs.sigma_w)
    mul = algebra._mul
    # the ladder phase advances with the azimuth of the characterization vector
    hs_rot = heisenberg.heisenberg_sigma(rotations.rotate_characterization(f, phi))
    shift = np.exp(1j * hs_rot.phi0) - np.exp(1j * phi) * np.exp(1j * hs.phi0)
    return (
        _norms(hs.sigma_w - np.diag([1.0, -1.0])),
        *(_norms(m - _dagger(m)) for m in comps),
        *(abs(_trace(m)) for m in comps),
        *(abs(_det(m) + 1.0) for m in comps),
        *(_norms(mul(comps[a], comps[b]) + mul(comps[b], comps[a])) for a, b in ((0, 1), (0, 2), (1, 2))),
        _norms(mul(hs.sigma_u, hs.sigma_v) - 1j * hs.sigma_w),
        _norms(mul(hs.sigma_v, hs.sigma_w) - 1j * hs.sigma_u),
        _norms(mul(hs.sigma_w, hs.sigma_u) - 1j * hs.sigma_v),
        heisenberg.closed_form_residual(f),
        heisenberg.rotation_residual(f, phi),
        heisenberg.equivalence_residual(f, phi),
        heisenberg.expectation_spv_residual(f, alpha),
        abs(shift),
    )


_WAVEPACKET = (
    ("i_vec", 2, _unit),
    ("direction", 2, _clear_of("i_vec")),
    _ALPHA,
    _normals("x", 3),
    _uniform("t", 0, 2.0),
    ("d2", 2, _clear_of("i_vec")),
    _uniform("phase", 0, 2 * np.pi),
    # a collinear spectrum of 3 samples, sorted and normalized by _collinear
    _uniform("mags", 1.0, 3.0, 3),
    _complex("amp", 3),
    _uniform("weight", 0.5, 1.5, 3),
    _uniform("phi", 0, 2 * np.pi),
)


def _collinear(fields):
    """Sort each case's magnitudes and normalize its amplitudes to sum(weight |amp|^2) = 1."""
    amp, weight = fields["amp"], fields["weight"]
    fields["mags"] = np.sort(fields["mags"])
    fields["amp"] = amp / np.sqrt(np.sum(weight * np.abs(amp) ** 2, axis=1))[:, None]


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
    # with every row kept, cfg's frames of spec serve local_spv too
    kept = (spec, cfg, x, t) if rows.all() else (
        wavepacket.Spectrum(k=spec.k[rows], amplitude=spec.amplitude[rows], weight=spec.weight[rows]),
        wavepacket.PacketConfig(i_vec=i_vec[rows], alpha=alpha[rows]),
        x[rows],
        t[rows],
    )
    s2 = wavepacket.local_spv(*kept)[1]
    unit = np.zeros(n)
    # each |s| as the dot product s.s that np.linalg.norm takes for one vector
    unit[rows] = abs(np.sqrt((s2[:, None, :] @ s2[:, :, None])[:, 0, 0]) - 1.0)

    # collinear spectra: rotating I about the common axis rotates the total
    # spin through twice the angle; I and R I as one (2, n) batch of packets
    coll = wavepacket.Spectrum(k=mags[:, :, None] * direction[:, None, :], amplitude=amp, weight=weight)
    both = wavepacket.PacketConfig(i_vec=np.stack([i_vec, i_rot]), alpha=alpha)
    spin0, spin1 = wavepacket.total_spin(coll, both)
    law = spin1 - algebra._apply(rotations._so3(direction, 2.0 * phi), spin0)
    return _norms(s_single - algebra._spv(chi)), linearity, unit, _norms(law)


# name: (draw steps, finish on the stacked fields, check, tolerance, suite id)
_SUITES = {
    "algebra": (_ALGEBRA, None, _check_algebra, 1e-12, 0),
    "frames": (_FRAMES, None, _check_frames, 1e-12, 1),
    "rotations": (_ROTATIONS, None, _check_rotations, 1e-12, 2),
    "heisenberg": (_HEISENBERG, None, _check_heisenberg, 1e-12, 3),
    "wavepacket": (_WAVEPACKET, _collinear, _check_wavepacket, 1e-9, 4),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name, seed=DEFAULT_SEED, n_cases=DEFAULT_CASES, tolerance=None):
    """Run one named suite; n_cases = 0 passes vacuously with zero residual.

    The cases run a block of up to CASE_BLOCK at a time (_read_block), the
    suite's finish on each block's stacked fields and then its check, and the
    worst residual over all cases is reported.  A NaN residual fails the suite.
    """
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    steps, finish, check, default_tol, suite_id = _SUITES[name]
    tol = default_tol if tolerance is None else float(tolerance)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # written so that a NaN tolerance fails it
    if not (n_cases >= 0 and 0 <= tol < np.inf):
        raise ValueError(f"n_cases must be >= 0 and tolerance finite and >= 0, got {n_cases}, {tol}")
    rng = np.random.default_rng([seed, suite_id])
    worst = 0.0
    for start in range(0, n_cases, CASE_BLOCK):
        fields = _read_block(rng, min(CASE_BLOCK, n_cases - start), steps)
        if finish:
            finish(fields)
        residuals = check(**fields)
        if residuals:
            # one maximum over the block's residuals, flattened together;
            # np.maximum, not max: a NaN residual must fail the suite
            worst = np.maximum(worst, np.concatenate(residuals, axis=None).max())
    worst = float(worst)
    return SuiteResult(suite=name, cases=n_cases, max_residual=worst, tolerance=tol, passed=worst <= tol)


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
