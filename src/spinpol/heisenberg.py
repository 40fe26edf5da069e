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

from .algebra import IDENTITY2, dot_sigma, spv
from .frames import (
    DEFAULT_REFERENCES,
    Frame,
    ReferenceSpinors,
    _eigen,
    _item,
    _mapping,
    _norm,
    _phase,
    compose_spinor,
    mapping_matrix,
)
from .rotations import rotate_characterization, so3_rotation

SIGMA_W_DIAG = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

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
        return (
            f.u[..., :, None, None] * self.sigma_u[..., None, :, :]
            + f.v[..., :, None, None] * self.sigma_v[..., None, :, :]
            + f.w[..., :, None, None] * self.sigma_w[..., None, :, :]
        )


def _coefficient_rotation(angle: float) -> np.ndarray:
    # spinor rotation about the quantization axis, represented on the
    # eigenspinor basis where w.sigma = diag(1, -1)
    return np.cos(angle / 2.0) * IDENTITY2 - 1j * np.sin(angle / 2.0) * SIGMA_W_DIAG


def _conjugation_deviation(hs: HeisenbergSigma, varpi) -> np.ndarray:
    """Per frame, the worst Frobenius deviation of the closed forms from varpi^dag (a.sigma) varpi."""
    f = hs.frame
    varpi_h = varpi.conj().swapaxes(-1, -2)
    devs = [
        _norm(varpi_h @ dot_sigma(axis) @ varpi - closed, axis=(-2, -1))
        for closed, axis in ((hs.sigma_u, f.u), (hs.sigma_v, f.v), (hs.sigma_w, f.w))
    ]
    return np.maximum(np.maximum(devs[0], devs[1]), devs[2])


def heisenberg_sigma(
    frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES
) -> HeisenbergSigma:
    """Component matrices varpi^dag (u.sigma) varpi etc., in closed form.

    sigma_u and sigma_v are off-diagonal with phase exp(i phi0); sigma_w is
    exactly diag(1, -1).  The closed forms are cross-checked against the direct
    conjugation, frame by frame, and a disagreement beyond rounding raises
    RuntimeError.
    """
    pair, lowered = _eigen(frame, ref)
    phi0 = _phase(pair, ref, lowered)
    e = np.exp(1j * phi0)
    shape = np.shape(e) + (2, 2)
    sigma_u = np.zeros(shape, dtype=complex)
    sigma_u[..., 0, 1] = e
    sigma_u[..., 1, 0] = np.conj(e)
    sigma_v = np.zeros(shape, dtype=complex)
    sigma_v[..., 0, 1] = -1j * e
    sigma_v[..., 1, 0] = 1j * np.conj(e)
    sigma_w = np.broadcast_to(SIGMA_W_DIAG, shape).copy()
    hs = HeisenbergSigma(
        sigma_u=sigma_u, sigma_v=sigma_v, sigma_w=sigma_w, frame=frame, phi0=_item(phi0)
    )
    # written so that NaN fails it
    if not np.all(_conjugation_deviation(hs, _mapping(pair)) <= _INTERNAL_TOL):
        raise RuntimeError(
            "closed-form component disagrees with direct conjugation; "
            "this is an internal error, not a tolerance issue"
        )
    return hs


def closed_form_residual(
    frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES
) -> float:
    """Worst deviation between the closed-form components and direct conjugation."""
    hs = heisenberg_sigma(frame, ref)
    return float(np.max(_conjugation_deviation(hs, mapping_matrix(frame, ref))))


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

    u1 = _coefficient_rotation(phi)
    res_a = max(
        np.linalg.norm(hs_rot.sigma_u - u1.conj().T @ hs.sigma_u @ u1),
        np.linalg.norm(hs_rot.sigma_v - u1.conj().T @ hs.sigma_v @ u1),
        np.linalg.norm(hs_rot.sigma_w - hs.sigma_w),
    )

    lhs = hs_rot.cartesian()
    u2 = _coefficient_rotation(2.0 * phi)
    rhs_su = np.stack([u2.conj().T @ m @ u2 for m in hs.cartesian()])
    res_b = np.linalg.norm(lhs - rhs_su)

    r2 = so3_rotation(frame.w, 2.0 * phi)
    ru, rv, rw = r2 @ frame.u, r2 @ frame.v, r2 @ frame.w
    rhs_so = np.stack(
        [ru[j] * hs.sigma_u + rv[j] * hs.sigma_v + rw[j] * hs.sigma_w for j in range(3)]
    )
    res_c = np.linalg.norm(lhs - rhs_so)

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
    ru, rv, rw = r @ frame.u, r @ frame.v, r @ frame.w
    lhs = np.stack(
        [ru[j] * hs.sigma_u + rv[j] * hs.sigma_v + rw[j] * hs.sigma_w for j in range(3)]
    )
    u = _coefficient_rotation(phi)
    rhs = np.stack([u.conj().T @ m @ u for m in hs.cartesian()])
    return float(np.linalg.norm(lhs - rhs))


def expectation_spv_residual(
    frame: Frame, alpha, ref: ReferenceSpinors = DEFAULT_REFERENCES
) -> float:
    """Deviation of alpha^dag sigma^H alpha from the polarization of varpi alpha."""
    hs = heisenberg_sigma(frame, ref)
    alpha = np.asarray(alpha, dtype=complex)
    expect = np.array([np.vdot(alpha, m @ alpha).real for m in hs.cartesian()])
    s = spv(compose_spinor(mapping_matrix(frame, ref), alpha))
    return float(np.linalg.norm(expect - s))
