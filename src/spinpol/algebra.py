"""Fixed-size spin-1/2 kernel: Pauli matrices, the spin polarization vector and input checks.

The unit-vector and spinor checks that every module uses live here; they take
one vector or an (..., n) array of them and fail on NaN.
"""

import math

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


def _first(bad):
    """Index of the first True entry of a boolean mask, in C order."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(bad), np.shape(bad)))


def _where(index):
    return f" (frame {index[0] if len(index) == 1 else index})" if index else ""


def _item(x):
    # a single frame keeps returning Python scalars
    return x.item() if np.ndim(x) == 0 else x


def _norm(a, axis=-1):
    # Frobenius norm over any tuple of axes: np.linalg.norm refuses more than
    # two, and heisenberg reduces the (3, 2, 2) components at once
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=axis))


def _off_unit(a):
    """(where, |row|) of the first (..., n) row whose norm is off 1 by more than EPS_INPUT, or None."""
    # written so that NaN fails it
    if a.ndim == 1:
        # one vector in Python floats: the array path costs about 7 us more,
        # and acceptance criterion 1's single-frame loop 1.3-1.5x the time
        norm = math.hypot(*map(abs, a.tolist()))
        return None if abs(norm - 1.0) <= EPS_INPUT else ("", norm)
    # inf * 0 in an infinite complex entry's product would warn; the norm is inf
    with np.errstate(invalid="ignore"):
        norm = _norm(a)
    ok = np.abs(norm - 1.0) <= EPS_INPUT
    if ok.all():
        return None
    index = _first(~ok)
    return _where(index), norm[index]


def _check_unit(name, vec):
    vec = np.asarray(vec, dtype=float)
    if vec.ndim == 0 or vec.shape[-1] != 3:
        raise ValueError(f"{name} must be a 3-vector or an array of 3-vectors")
    bad = _off_unit(vec)
    if bad:
        raise ValueError(f"{name}{bad[0]} must be a unit vector, |{name}| = {bad[1]}")
    return vec


def _check_spinor(name, chi):
    chi = np.asarray(chi, dtype=complex)
    if chi.ndim == 0 or chi.shape[-1] != 2:
        raise ValueError(f"{name} must be a 2-spinor or an array of 2-spinors")
    bad = _off_unit(chi)
    if bad:
        raise ValueError(f"{name}{bad[0]} is not normalized: |{name}| = {bad[1]}")
    return chi


def _vdot(a, b):
    """Inner product a^dag b over the last axis, broadcast over the rest."""
    return np.add.reduce(a.conj() * b, axis=-1)


def _apply(m, chi):
    """Matrix-vector product over the last axes, broadcast over the rest."""
    return (m @ chi[..., None])[..., 0]


def _single(name, arr):
    # for functions defined on one vector or spinor: a batch would pass the
    # checks above and then mix its frames in single-frame arithmetic
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a single vector, got shape {arr.shape}")
    return arr


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
    return _spv(_single("chi", _check_spinor("chi", chi)))


def _density_and_spin(psi):
    """Density psi^dag psi (...) and unnormalized spin psi^dag sigma psi (..., 3) of (..., 2) spinors."""
    rho = np.abs(psi[..., 0]) ** 2 + np.abs(psi[..., 1]) ** 2
    sdens = np.einsum("...i,jik,...k->...j", psi.conj(), PAULI, psi).real
    return rho, sdens


def _spv(chi):
    # (..., 2) spinors to (..., 3) vectors; dividing by the exact norm keeps
    # the output unit to rounding even for inputs only 1e-9 normalized
    rho, sdens = _density_and_spin(chi)
    return sdens / rho[..., None]


def eigen_residual(w, chi, lam) -> float:
    """2-norm of (w.sigma) chi - lam chi; zero iff chi is the lam eigenspinor of w.sigma."""
    if lam not in (+1, -1):
        raise ValueError(f"eigenvalue must be +1 or -1, got {lam!r}")
    w = _single("w", _check_unit("w", w))
    chi = _single("chi", _check_spinor("chi", chi))
    return float(_eigen_residual(w, chi, lam))


def _eigen_residual(w, chi, lam):
    # (..., 3) axes and (..., 2) spinors to one residual per frame
    return _norm(_apply(dot_sigma(w), chi) - lam * chi)
