"""Axis-angle rotations on vectors (SO(3)) and spinors (SU(2)) and their 2-to-1 link.

Rotating the characterization vector of a frame by an angle about w rotates the
eigenspinors by twice the angle, and hence the spin polarization vector of any
superposition by twice the angle as well.  The residual functions here turn
those laws into machine-checkable numbers.
"""

import numpy as np

from .algebra import IDENTITY2, _apply, _checked_axis, _item, _mul, _norm, _single, _spv, dot_sigma
from .frames import (
    DEFAULT_REFERENCES,
    Frame,
    ReferenceSpinors,
    _Last,
    _bits,
    _compose,
    build_frame,
    eigen_spinors,
    mapping_matrix,
)

GENERATOR_X = np.array(
    [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0j], [0.0, 1.0j, 0.0]], dtype=complex
)
GENERATOR_Y = np.array(
    [[0.0, 0.0, 1.0j], [0.0, 0.0, 0.0], [-1.0j, 0.0, 0.0]], dtype=complex
)
GENERATOR_Z = np.array(
    [[0.0, -1.0j, 0.0], [1.0j, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex
)

# -i (n.G) is the real cross-product matrix of n: (n @ _CROSS) flattened
_CROSS = (-1j * np.array([GENERATOR_X, GENERATOR_Y, GENERATOR_Z])).real.reshape(3, 9)
_EYE3 = np.eye(3)


def so3_generators():
    """Hermitian generators (Gx, Gy, Gz); a x b = -i (a.G) b for any 3-vectors."""
    return GENERATOR_X, GENERATOR_Y, GENERATOR_Z


def dot_generators(a) -> np.ndarray:
    """Project a 3-vector onto the generator triple: a_x Gx + a_y Gy + a_z Gz.

    A (..., 3) array of vectors gives the (..., 3, 3) array of their projections.
    """
    a = np.asarray(a)
    return 1j * (a @ _CROSS).reshape(a.shape[:-1] + (3, 3))


def so3_rotation(axis, angle) -> np.ndarray:
    """Rotation matrix cos(t) - i (n.G) sin(t) + (1 - cos(t)) n n^T about unit axis n."""
    return _so3(_single("axis", _checked_axis("axis", axis)), angle)


def _so3(axis, angle):
    # (..., 3) unit axes and (...) angles to (..., 3, 3) matrices
    k = (axis @ _CROSS).reshape(axis.shape[:-1] + (3, 3))
    cos, sin = np.cos(angle)[..., None, None], np.sin(angle)[..., None, None]
    return cos * _EYE3 + sin * k + (1.0 - cos) * (axis[..., :, None] * axis[..., None, :])


def su2_rotation(axis, angle) -> np.ndarray:
    """Spinor rotation cos(t/2) 1 - i (n.sigma) sin(t/2); changes sign under t -> t + 2pi."""
    return _su2(_single("axis", _checked_axis("axis", axis)), angle)


def _su2(axis, angle):
    # (..., 3) unit axes and (...) angles to (..., 2, 2) matrices
    half = np.asarray(angle)[..., None, None] / 2.0
    return np.cos(half) * IDENTITY2 + np.sin(half) * (-1j * dot_sigma(axis))


def correspondence_residual(axis, angle, a):
    """Frobenius deviation of (R a).sigma from U (a.sigma) U^dag for one axis-angle.

    axis and a may be (..., 3) arrays and angle a (...) array; the result is
    then one deviation per axis-angle, and a Python float for a single one.
    """
    axis = _checked_axis("axis", axis)
    a = np.asarray(a, dtype=float)
    rotated = _apply(_so3(axis, angle), a)
    u = _su2(axis, angle)
    conjugated = _mul(_mul(u, dot_sigma(a)), u.conj().swapaxes(-1, -2))
    return _item(_norm(dot_sigma(rotated) - conjugated, axis=(-2, -1)))


def rotate_characterization(frame: Frame, phi) -> Frame:
    """Frame rebuilt after rotating the characterization vector by phi about w.

    phi may be a (...) array of angles, one per frame of a batch.  The source
    frame keeps the frame of its last rotation, keyed by the shape and bits
    of phi: a call with the same angles returns the same Frame, so the laws
    that rotate one frame by one angle share its eigenpair and cross-check.
    """

    def rotated():
        return build_frame(frame.w, _apply(_so3(frame.w, phi), frame.i_vec))

    return frame._cache.setdefault("rotation", _Last()).get(_bits(phi), rotated)


def eigenspinor_rotation_residuals(
    frame: Frame, phi, ref: ReferenceSpinors = DEFAULT_REFERENCES
):
    """Residuals of the double-angle law for the two eigenspinors.

    Rotating the characterization vector by phi about w multiplies chi+ by
    exp(-i phi) and chi- by exp(+i phi), equivalently applies the spinor
    rotation through 2 phi about w.  Returns the (+, -) residual pair, each the
    worst of the phase form and the rotation form: two floats for one frame,
    two arrays of one residual per frame for a batch.  The law rebuilds the
    frame from R I, so it holds to about 1e-16/|w x I|.
    """
    before = eigen_spinors(frame, ref)
    after = eigen_spinors(rotate_characterization(frame, phi), ref)
    u2 = _su2(frame.w, 2.0 * phi)
    res_plus = np.maximum(
        _norm(after.chi_plus - np.exp(-1j * phi)[..., None] * before.chi_plus),
        _norm(after.chi_plus - _apply(u2, before.chi_plus)),
    )
    res_minus = np.maximum(
        _norm(after.chi_minus - np.exp(+1j * phi)[..., None] * before.chi_minus),
        _norm(after.chi_minus - _apply(u2, before.chi_minus)),
    )
    return _item(res_plus), _item(res_minus)


def spv_rotation_residual(
    frame: Frame, phi, alpha, ref: ReferenceSpinors = DEFAULT_REFERENCES
):
    """Residual of the double-angle law for a superposition and its polarization.

    With chi = varpi(I) alpha, checks chi(I') = U(2 phi w) chi(I) and
    s(I') = R(2 phi w) s(I); returns the larger deviation, one per frame for
    a batch of frames, angles and Jones vectors.  The laws rebuild the frame
    from R I, so they hold to about 1e-16/|w x I|.
    """
    chi = _compose(mapping_matrix(frame, ref), alpha)
    chi_rot = _compose(mapping_matrix(rotate_characterization(frame, phi), ref), alpha)
    twice = 2.0 * phi
    spinor_dev = _norm(chi_rot - _apply(_su2(frame.w, twice), chi))
    spv_dev = _norm(_spv(chi_rot) - _apply(_so3(frame.w, twice), _spv(chi)))
    return _item(np.maximum(spinor_dev, spv_dev))
