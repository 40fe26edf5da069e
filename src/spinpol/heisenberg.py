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

from dataclasses import dataclass

import numpy as np

from .algebra import SIGMA_Z, _norm, dot_sigma, spv
from .frames import DEFAULT_REFERENCES, Frame, ReferenceSpinors, compose_spinor, eigen_spinors
from .frames import mapping_matrix
from .rotations import rotate_characterization, so3_rotation, su2_rotation

# rotations about w, represented on the eigenspinor coefficients where
# w.sigma = diag(1, -1) = sigma_z, are rotations about z
_COEFFICIENT_AXIS = np.array([0.0, 0.0, 1.0])

# closed form vs direct conjugation must agree to rounding; anything worse is a bug
_INTERNAL_TOL = 1e-12


@dataclass(frozen=True)
class HeisenbergSigma:
    """Component matrices of the conjugated Pauli vector on the frame triad.

    For a batch of frames the matrices are (..., 2, 2) arrays and phi0 is an
    array of the batch shape.
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


def _mul(a, b) -> np.ndarray:
    # 2x2 matrix product over the last two axes, broadcast over the rest; on
    # stacks of 2x2 matrices matmul's per-matrix overhead costs several times this
    return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]


def _conjugate(m, unitary) -> np.ndarray:
    """unitary^dag m unitary over the last two axes, broadcast over the rest."""
    return _mul(_mul(unitary.conj().swapaxes(-1, -2), m), unitary)


def _closed_form(frame: Frame, ref: ReferenceSpinors):
    """Closed-form components and, per frame, their deviation from direct conjugation.

    The deviation is the worst Frobenius norm of varpi^dag (a.sigma) varpi minus
    its closed form over a = u, v, w; one beyond rounding raises RuntimeError.
    """
    pair = eigen_spinors(frame, ref)
    e = np.exp(1j * np.asarray(pair.phi0))
    # sigma_u, sigma_v, sigma_w stacked on axis -3
    closed = np.zeros(e.shape + (3, 2, 2), dtype=complex)
    closed[..., 0, 0, 1] = e
    closed[..., 0, 1, 0] = np.conj(e)
    closed[..., 1, 0, 1] = -1j * e
    closed[..., 1, 1, 0] = 1j * np.conj(e)
    closed[..., 2, :, :] = SIGMA_Z
    hs = HeisenbergSigma(
        closed[..., 0, :, :], closed[..., 1, :, :], closed[..., 2, :, :], frame, pair.phi0
    )
    triad = np.stack(np.broadcast_arrays(frame.u, frame.v, frame.w), axis=-2)
    direct = _conjugate(dot_sigma(triad), pair.mapping[..., None, :, :])
    deviation = np.maximum.reduce(_norm(direct - closed, axis=(-2, -1)), axis=-1)
    # written so that NaN fails it
    if not np.all(deviation <= _INTERNAL_TOL):
        raise RuntimeError(
            "closed-form component disagrees with direct conjugation; "
            "this is an internal error, not a tolerance issue"
        )
    return hs, deviation


def heisenberg_sigma(
    frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES
) -> HeisenbergSigma:
    """Component matrices varpi^dag (u.sigma) varpi etc., in closed form.

    sigma_u and sigma_v are off-diagonal with phase exp(i phi0); sigma_w is
    exactly diag(1, -1).  The closed forms are cross-checked against the direct
    conjugation, frame by frame, and a disagreement beyond rounding raises
    RuntimeError.
    """
    return _closed_form(frame, ref)[0]


def closed_form_residual(
    frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES
) -> float:
    """Worst deviation between the closed-form components and direct conjugation."""
    return float(np.max(_closed_form(frame, ref)[1]))


def rotation_residual(
    frame: Frame, phi: float, ref: ReferenceSpinors = DEFAULT_REFERENCES
) -> float:
    """Worst residual of the three rotation laws under I -> R(phi w) I.

    (a) per-component law: sigma_u and sigma_v are conjugated by the coefficient
        rotation through phi, sigma_w is unchanged;
    (b) whole-vector law: the Cartesian components on the rotated triad equal
        the original Cartesian components conjugated through 2 phi;
    (c) vector law: the same components equal the original triad vectors rotated
        through 2 phi with the matrices left fixed.
    """
    hs = heisenberg_sigma(frame, ref)
    hs_rot = heisenberg_sigma(rotate_characterization(frame, phi), ref)

    u1 = su2_rotation(_COEFFICIENT_AXIS, phi)
    res_a = max(
        np.linalg.norm(hs_rot.sigma_u - _conjugate(hs.sigma_u, u1)),
        np.linalg.norm(hs_rot.sigma_v - _conjugate(hs.sigma_v, u1)),
        np.linalg.norm(hs_rot.sigma_w - hs.sigma_w),
    )

    lhs = hs_rot.cartesian()
    u2 = su2_rotation(_COEFFICIENT_AXIS, 2.0 * phi)
    res_b = np.linalg.norm(lhs - _conjugate(hs.cartesian(), u2))

    r2 = so3_rotation(frame.w, 2.0 * phi)
    res_c = np.linalg.norm(lhs - _expand(hs, r2 @ frame.u, r2 @ frame.v, r2 @ frame.w))

    return float(max(res_a, res_b, res_c))


def equivalence_residual(
    frame: Frame, phi: float, ref: ReferenceSpinors = DEFAULT_REFERENCES
) -> float:
    """Deviation between rotating the triad through phi and conjugating through phi.

    Both actions applied to the same component triple must produce the same
    Cartesian matrix components.
    """
    hs = heisenberg_sigma(frame, ref)
    r = so3_rotation(frame.w, phi)
    lhs = _expand(hs, r @ frame.u, r @ frame.v, r @ frame.w)
    rhs = _conjugate(hs.cartesian(), su2_rotation(_COEFFICIENT_AXIS, phi))
    return float(np.linalg.norm(lhs - rhs))


def expectation_spv_residual(
    frame: Frame, alpha, ref: ReferenceSpinors = DEFAULT_REFERENCES
) -> float:
    """Deviation of alpha^dag sigma^H alpha from the polarization of varpi alpha."""
    hs = heisenberg_sigma(frame, ref)
    alpha = np.asarray(alpha, dtype=complex)
    expect = ((hs.cartesian() @ alpha) @ alpha.conj()).real
    s = spv(compose_spinor(mapping_matrix(frame, ref), alpha))
    return float(np.linalg.norm(expect - s))
