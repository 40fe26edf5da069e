"""Pauli vector conjugated into the eigenspinor basis and its rotation laws.

The mapping matrix turns the fixed Pauli vector into a basis-dependent triple
sigma_u, sigma_v, sigma_w of 2x2 matrices attached to the frame triad.  The
triple is kept as three matrices plus the triad (never one 3-block object):
rotations of the characterization vector act on the triad vectors while unitary
conjugations act on the matrices, and the two actions must be kept separate for
the rotation laws below to be stated at all.

All conjugating unitaries here act on expansion coefficients in the eigenspinor
basis, where the axis projection w.sigma is represented by diag(1, -1).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import _apply, _item, _mul, _norm, _pauli_components, _spv, _vdot
from .frames import DEFAULT_REFERENCES, Frame, ReferenceSpinors, eigen_spinors
from .frames import _compose, _read_only, mapping_matrix
from .rotations import _so3, _su2, rotate_characterization

# rotations about w, represented on the eigenspinor coefficients where
# w.sigma = diag(1, -1) = sigma_z, are rotations about z
_COEFFICIENT_AXIS = np.array([0.0, 0.0, 1.0])

# Frobenius norms over one 2x2 matrix and over a Cartesian triple of them
_MATRIX = (-2, -1)
_COMPONENTS = (-3, -2, -1)

# closed form vs direct conjugation must agree to rounding; anything worse is a bug
_INTERNAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class HeisenbergSigma:
    """Component matrices of the conjugated Pauli vector on the frame triad.

    For a batch of frames the matrices are (..., 2, 2) arrays and phi0 is an
    array of the batch shape.  Two triples are equal only if they are the
    same object.
    """

    sigma_u: np.ndarray
    sigma_v: np.ndarray
    sigma_w: np.ndarray
    frame: Frame
    phi0: float

    def cartesian(self) -> np.ndarray:
        """Cartesian components u_j sigma_u + v_j sigma_v + w_j sigma_w, shape (..., 3, 2, 2)."""
        f = self.frame
        return _expand(self, f.u, f.v, f.w)


def _expand(hs: HeisenbergSigma, u, v, w) -> np.ndarray:
    """Components u_j sigma_u + v_j sigma_v + w_j sigma_w of hs's matrices on any triad (u, v, w)."""
    return (
        u[..., :, None, None] * hs.sigma_u[..., None, :, :]
        + v[..., :, None, None] * hs.sigma_v[..., None, :, :]
        + w[..., :, None, None] * hs.sigma_w[..., None, :, :]
    )


def _conjugate(m, unitary) -> np.ndarray:
    """unitary^dag m unitary over the last two axes, broadcast over the rest."""
    return _mul(_mul(unitary.conj().swapaxes(-1, -2), m), unitary)


def _direct(frame: Frame, varpi):
    """varpi^dag (a.sigma) varpi for a = u, v, w, as one (3, 2, 2, ...) array with the frames last.

    Entry (a, i, j) is a.(chi_i^dag sigma chi_j), chi_i column i of varpi.  All
    twelve entries are computed; none is inferred from Hermiticity.  The
    bilinears come from algebra._pauli_components and are projected on u, v
    and w by adding their x, y and z parts in that order.  Returns the array
    and a scratch array of the same shape in the same workspace, free for the
    caller.
    """
    batch = np.shape(varpi)[:-2]
    # every intermediate is a view of one workspace: as seven arrays, a
    # 1458-frame block faulted in about 360 fresh pages per call (glibc)
    work = np.empty((53,) + batch, dtype=complex)
    chi = work[0:4].reshape((2, 2) + batch)  # chi_i[r] at (r, i, ...)
    bra = work[4:8].reshape((2, 2) + batch)
    # component c of a = u, v, w at (a, c, ...), complex once: a real factor
    # would be cast to complex for every entry it multiplies
    triad = work[8:17].reshape((3, 3) + batch)
    products = work[17:33].reshape((2, 2, 2, 2) + batch)
    bilinears = work[41:53].reshape((3, 2, 2) + batch)
    _frames_first(chi)[...] = varpi
    rows = _frames_first(triad)
    rows[..., 0, :], rows[..., 1, :], rows[..., 2, :] = frame.u, frame.v, frame.w
    # conj(chi_i[r]) chi_j[s] at (r, s, i, j, ...)
    np.conjugate(chi, out=bra)
    np.multiply(bra[:, None, :, None], chi[None, :, None, :], out=products)
    _pauli_components(products[0, 1], products[1, 0], products[0, 0], products[1, 1], *bilinears)
    # the projection overwrites the products, one component c at a time
    direct = work[17:29].reshape((3, 2, 2) + batch)
    term = work[29:41].reshape((3, 2, 2) + batch)
    factors = triad[:, :, None, None]
    np.multiply(factors[:, 0], bilinears[0], out=direct)
    for c in (1, 2):
        direct += np.multiply(factors[:, c], bilinears[c], out=term)
    return direct, term


def _frames_first(a):
    """The (k, m, ...) array a viewed as (..., k, m)."""
    return a.transpose(tuple(range(2, a.ndim)) + (0, 1))


def _closed_entries(e):
    """((a, i, j), value) of each nonzero entry (i, j) of the closed form of sigma_a, a = u, v, w."""
    e_bar = np.conj(e)
    return (
        ((0, 0, 1), e), ((0, 1, 0), e_bar), ((1, 0, 1), -1j * e), ((1, 1, 0), 1j * e_bar),
        ((2, 0, 0), 1.0), ((2, 1, 1), -1.0),
    )


def _checked_phase(frame: Frame, ref: ReferenceSpinors):
    """e = exp(i phi0), phi0 and, per frame, the closed forms' deviation from direct conjugation.

    The deviation is the worst Frobenius norm of varpi^dag (a.sigma) varpi minus
    its closed form over a = u, v, w, computed on the frames-last entries of
    _direct; one beyond rounding raises RuntimeError.  Every frame is checked,
    a single frame by the same code at batch shape (), once per frame and
    reference pair: later calls return the same read-only results.
    """
    return frame._derived(ref, _cross_check)


def _cross_check(frame: Frame, ref: ReferenceSpinors):
    pair = eigen_spinors(frame, ref)
    direct, scratch = _direct(frame, pair.mapping)
    # the bits of np.exp(1j * phi0), which took about 1% longer on a sweep: the
    # imaginary part of its argument is phi0 + 0, which is +0 where phi0 is -0
    phi0 = np.asarray(pair.phi0)
    e = np.empty(phi0.shape, dtype=complex)
    np.cos(phi0, out=e.real)
    np.sin(np.add(phi0, 0.0, out=e.imag), out=e.imag)
    # only the nonzero entries of the closed forms need subtracting
    for (a, i, j), value in _closed_entries(e):
        direct[a, i, j, ...] -= value
    # |d|^2 as the real part of conj(d) d, as algebra._norm takes it: numpy's
    # complex product may fuse re re + (im im), so re re + im im can differ
    # in the last bit.  The squares overwrite d; each matrix's four entries
    # are summed in order.
    np.multiply(np.conjugate(direct, out=scratch), direct, out=direct)
    norms = np.add.reduce(direct.real.reshape((3, 4) + e.shape), axis=1)
    # the worst of u, v and w
    deviation = np.sqrt(norms, out=norms).max(axis=0)
    # written so that NaN fails it
    if not np.all(deviation <= _INTERNAL_TOL):
        raise RuntimeError(
            "closed-form component disagrees with direct conjugation; "
            "this is an internal error, not a tolerance issue"
        )
    return _read_only(e, pair.phi0, deviation)


def heisenberg_sigma(
    frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES
) -> HeisenbergSigma:
    """Component matrices varpi^dag (u.sigma) varpi etc., in closed form.

    sigma_u and sigma_v are off-diagonal with phase exp(i phi0); sigma_w is
    exactly diag(1, -1).  The closed forms are cross-checked against the direct
    conjugation, frame by frame, and a disagreement beyond rounding raises
    RuntimeError.  The check runs once per frame and reference pair; each call
    builds the matrices anew from its phase.
    """
    e, phi0, _ = _checked_phase(frame, ref)
    closed = np.zeros(np.shape(e) + (3, 2, 2), dtype=complex)
    for (a, i, j), value in _closed_entries(e):
        closed[..., a, i, j] = value
    return HeisenbergSigma(
        closed[..., 0, :, :], closed[..., 1, :, :], closed[..., 2, :, :], frame, phi0
    )


def _cartesian(frame: Frame, ref: ReferenceSpinors) -> np.ndarray:
    """heisenberg_sigma(frame, ref).cartesian(), built once per frame and reference pair, read-only."""
    return frame._derived(ref, _components)


def _components(frame: Frame, ref: ReferenceSpinors) -> np.ndarray:
    return _read_only(heisenberg_sigma(frame, ref).cartesian())[0]


def closed_form_residual(frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES):
    """Deviation between the closed-form components and direct conjugation.

    The worst over sigma_u, sigma_v, sigma_w of one frame, as a float; a batch
    of frames gives one deviation per frame.
    """
    return _item(_checked_phase(frame, ref)[2])


def _worst(*residuals):
    # elementwise max broadcast over the frames; unlike max(), NaN propagates
    return functools.reduce(np.maximum, residuals)


def _rotated_triad(frame: Frame, r):
    # the triad vectors under the (..., 3, 3) rotations r
    return _apply(r, frame.u), _apply(r, frame.v), _apply(r, frame.w)


def rotation_residual(frame: Frame, phi, ref: ReferenceSpinors = DEFAULT_REFERENCES):
    """Worst residual of the three rotation laws under I -> R(phi w) I.

    (a) per-component law: sigma_u and sigma_v are conjugated by the coefficient
        rotation through phi, sigma_w is unchanged;
    (b) whole-vector law: the Cartesian components on the rotated triad equal
        the original Cartesian components conjugated through 2 phi;
    (c) vector law: the same components equal the original triad vectors rotated
        through 2 phi with the matrices left fixed.

    A batch of frames and (...) angles gives one residual per frame.  The laws
    rebuild the frame from R I, so they hold to about 1e-16/|w x I|.
    """
    hs = heisenberg_sigma(frame, ref)
    rotated = rotate_characterization(frame, phi)
    hs_rot = heisenberg_sigma(rotated, ref)
    twice = 2.0 * phi

    u1 = _su2(_COEFFICIENT_AXIS, phi)
    res_a = _worst(
        _norm(hs_rot.sigma_u - _conjugate(hs.sigma_u, u1), axis=_MATRIX),
        _norm(hs_rot.sigma_v - _conjugate(hs.sigma_v, u1), axis=_MATRIX),
        _norm(hs_rot.sigma_w - hs.sigma_w, axis=_MATRIX),
    )

    lhs = _cartesian(rotated, ref)
    u2 = _su2(_COEFFICIENT_AXIS, twice)[..., None, :, :]
    res_b = _norm(lhs - _conjugate(_cartesian(frame, ref), u2), axis=_COMPONENTS)

    r2 = _so3(frame.w, twice)
    res_c = _norm(lhs - _expand(hs, *_rotated_triad(frame, r2)), axis=_COMPONENTS)

    return _item(_worst(res_a, res_b, res_c))


def equivalence_residual(frame: Frame, phi, ref: ReferenceSpinors = DEFAULT_REFERENCES):
    """Deviation between rotating the triad through phi and conjugating through phi.

    Both actions applied to the same component triple must produce the same
    Cartesian matrix components.  A batch gives one deviation per frame.
    """
    hs = heisenberg_sigma(frame, ref)
    lhs = _expand(hs, *_rotated_triad(frame, _so3(frame.w, phi)))
    rhs = _conjugate(_cartesian(frame, ref), _su2(_COEFFICIENT_AXIS, phi)[..., None, :, :])
    return _item(_norm(lhs - rhs, axis=_COMPONENTS))


def expectation_spv_residual(frame: Frame, alpha, ref: ReferenceSpinors = DEFAULT_REFERENCES):
    """Deviation of alpha^dag sigma^H alpha from the polarization of varpi alpha.

    A batch of frames and (..., 2) Jones vectors gives one deviation per frame.
    """
    alpha = np.asarray(alpha, dtype=complex)[..., None, :]
    expect = _vdot(alpha, _apply(_cartesian(frame, ref), alpha)).real
    s = _spv(_compose(mapping_matrix(frame, ref), alpha[..., 0, :]))
    return _item(_norm(expect - s))
