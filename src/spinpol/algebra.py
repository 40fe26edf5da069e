"""Fixed-size spin-1/2 kernel: Pauli matrices and the spin polarization vector."""

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)
# the Pauli vector as one (3, 2, 2) array
PAULI = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])
_PAULI_FLAT = PAULI.reshape(3, 4)

# tolerance for caller-supplied data vs internally produced values
EPS_INPUT = 1e-9


def dot_sigma(a) -> np.ndarray:
    """Project a 3-vector (real or complex) onto the Pauli vector: a_x sx + a_y sy + a_z sz.

    A (..., 3) array of vectors gives the (..., 2, 2) array of their projections.
    """
    a = np.asarray(a)
    return (a @ _PAULI_FLAT).reshape(a.shape[:-1] + (2, 2))


def sigma_product(a, b) -> np.ndarray:
    """Product (a.sigma)(b.sigma); equals (a.b) 1 + i (a x b).sigma."""
    return dot_sigma(a) @ dot_sigma(b)


def spv(chi) -> np.ndarray:
    """Spin polarization vector s = chi^dag sigma chi of a normalized spinor.

    The result is a real unit vector and chi is the +1 eigenspinor of s.sigma.
    Raises ValueError if the input norm deviates from 1 by more than 1e-9.
    """
    chi = np.asarray(chi, dtype=complex)
    n2 = np.vdot(chi, chi).real
    if not abs(np.sqrt(n2) - 1.0) <= EPS_INPUT:
        raise ValueError(f"spinor is not normalized: |chi| = {np.sqrt(n2)}")
    # divide by the exact norm so the output stays unit to rounding even for
    # inputs that are only 1e-9 normalized
    return ((PAULI @ chi) @ chi.conj()).real / n2


def eigen_residual(w, chi, lam) -> float:
    """2-norm of (w.sigma) chi - lam chi; zero iff chi is the lam eigenspinor of w.sigma."""
    if lam not in (+1, -1):
        raise ValueError(f"eigenvalue must be +1 or -1, got {lam!r}")
    w = np.asarray(w, dtype=float)
    if not abs(np.linalg.norm(w) - 1.0) <= EPS_INPUT:
        raise ValueError("quantization axis must be a unit vector")
    chi = np.asarray(chi, dtype=complex)
    if not abs(np.linalg.norm(chi) - 1.0) <= EPS_INPUT:
        raise ValueError("spinor must be normalized")
    return float(np.linalg.norm(dot_sigma(w) @ chi - lam * chi))
