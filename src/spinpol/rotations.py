"""Axis-angle rotations on vectors (SO(3)) and spinors (SU(2)) and their 2-to-1 link.

Rotating the characterization vector of a frame by an angle about w rotates the
eigenspinors by twice the angle, and hence the spin polarization vector of any
superposition by twice the angle as well.  The residual functions here turn
those laws into machine-checkable numbers.
"""

import numpy as np

from .algebra import IDENTITY2, _check_unit, _single, dot_sigma, spv
from .frames import (
    DEFAULT_REFERENCES,
    Frame,
    ReferenceSpinors,
    build_frame,
    compose_spinor,
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


def so3_generators():
    """Hermitian generators (Gx, Gy, Gz); a x b = -i (a.G) b for any 3-vectors."""
    return GENERATOR_X, GENERATOR_Y, GENERATOR_Z


def dot_generators(a) -> np.ndarray:
    """Project a 3-vector onto the generator triple: a_x Gx + a_y Gy + a_z Gz."""
    a = np.asarray(a)
    return a[0] * GENERATOR_X + a[1] * GENERATOR_Y + a[2] * GENERATOR_Z


def so3_rotation(axis, angle) -> np.ndarray:
    """Rotation matrix cos(t) - i (n.G) sin(t) + (1 - cos(t)) n n^T about unit axis n."""
    axis = _single("axis", _check_unit("axis", axis))
    # -i (n.G) is the real cross-product matrix, so the result is exactly real
    k = (-1j * dot_generators(axis)).real
    return (
        np.cos(angle) * np.eye(3)
        + np.sin(angle) * k
        + (1.0 - np.cos(angle)) * np.outer(axis, axis)
    )


def su2_rotation(axis, angle) -> np.ndarray:
    """Spinor rotation cos(t/2) 1 - i (n.sigma) sin(t/2); changes sign under t -> t + 2pi."""
    axis = _single("axis", _check_unit("axis", axis))
    return np.cos(angle / 2.0) * IDENTITY2 - 1j * np.sin(angle / 2.0) * dot_sigma(axis)


def correspondence_residual(axis, angle, a) -> float:
    """Frobenius deviation of (R a).sigma from U (a.sigma) U^dag for one axis-angle."""
    rotated = so3_rotation(axis, angle) @ np.asarray(a, dtype=float)
    u = su2_rotation(axis, angle)
    return float(np.linalg.norm(dot_sigma(rotated) - u @ dot_sigma(a) @ u.conj().T))


def rotate_characterization(frame: Frame, phi: float) -> Frame:
    """Frame rebuilt after rotating the characterization vector by phi about w."""
    i_rot = so3_rotation(frame.w, phi) @ frame.i_vec
    return build_frame(frame.w, i_rot)


def eigenspinor_rotation_residuals(
    frame: Frame, phi: float, ref: ReferenceSpinors = DEFAULT_REFERENCES
):
    """Residuals of the double-angle law for the two eigenspinors.

    Rotating the characterization vector by phi about w multiplies chi+ by
    exp(-i phi) and chi- by exp(+i phi), equivalently applies the spinor
    rotation through 2 phi about w.  Returns the (+, -) residual pair, each the
    worst of the phase form and the rotation form.
    """
    before = eigen_spinors(frame, ref)
    after = eigen_spinors(rotate_characterization(frame, phi), ref)
    u2 = su2_rotation(frame.w, 2.0 * phi)
    res_plus = max(
        np.linalg.norm(after.chi_plus - np.exp(-1j * phi) * before.chi_plus),
        np.linalg.norm(after.chi_plus - u2 @ before.chi_plus),
    )
    res_minus = max(
        np.linalg.norm(after.chi_minus - np.exp(+1j * phi) * before.chi_minus),
        np.linalg.norm(after.chi_minus - u2 @ before.chi_minus),
    )
    return float(res_plus), float(res_minus)


def spv_rotation_residual(
    frame: Frame, phi: float, alpha, ref: ReferenceSpinors = DEFAULT_REFERENCES
) -> float:
    """Residual of the double-angle law for a superposition and its polarization.

    With chi = varpi(I) alpha, checks chi(I') = U(2 phi w) chi(I) and
    s(I') = R(2 phi w) s(I); returns the larger deviation.
    """
    chi = compose_spinor(mapping_matrix(frame, ref), alpha)
    chi_rot = compose_spinor(
        mapping_matrix(rotate_characterization(frame, phi), ref), alpha
    )
    spinor_dev = np.linalg.norm(chi_rot - su2_rotation(frame.w, 2.0 * phi) @ chi)
    spv_dev = np.linalg.norm(spv(chi_rot) - so3_rotation(frame.w, 2.0 * phi) @ spv(chi))
    return float(max(spinor_dev, spv_dev))
