"""Fixed-size spin-1/2 kernel: Pauli matrices and bilinears, the spin polarization vector and input checks.

The unit-vector and spinor checks that every module uses live here; they take
one vector or an (..., n) array of them and fail on NaN.  Norms and inner
products are the plain sums over the last axis, so one vector gets the bits
it gets inside a batch.
"""

import contextlib
import math

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)
# the Pauli vector as one (3, 2, 2) array, and its entries (sigma_j)_ik as a
# (4, 3) table with row 2 i + k and column j: only 0, +-1 and +-i
PAULI = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z])
_PAULI_ENTRIES = PAULI.reshape(3, 4).T

# tolerance for caller-supplied data vs internally produced values
EPS_INPUT = 1e-9
# |v| of a v normalized in floating point is within 2 ulps of 1
_UNIT_OFF = 4.0 * np.finfo(float).eps


def _first(bad):
    """Index of the first True entry of a boolean mask, in C order."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(bad), np.shape(bad)))


def _where(index):
    return f" (frame {index[0] if len(index) == 1 else index})" if index else ""


def _item(x):
    # a single frame keeps returning Python scalars
    return x.item() if np.ndim(x) == 0 else x


def _rows(a, ndim=None):
    """The (..., n) array a as an (n, ...) view: one row per component of the last axis.

    Given ndim, a first gets leading unit axes up to ndim, so that the rows of
    arrays that broadcast together broadcast together.  Only build_frame and
    frames._eigen_pair work on rows, where it pays: each product or quotient
    of components is one elementwise pass over the whole block.  Their sums
    reduce the leading axis of rows made contiguous (products with
    order="C"); np.add.reduce adds an axis of at most 7 entries in index
    order from +0.0 whichever axis it is, so they keep the bits of the sum
    over the last axis that the other kernels take.
    """
    if ndim is not None and ndim > a.ndim:
        a = a.reshape((1,) * (ndim - a.ndim) + a.shape)
    return a.transpose((-1, *range(a.ndim - 1))) if a.ndim > 1 else a


def _norm(a, axis=-1):
    # Frobenius norm over any tuple of axes: np.linalg.norm refuses more than
    # two, and heisenberg reduces the (3, 2, 2) components at once
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=axis))


def _off_unit(a):
    """||row| - 1| of each (..., n) row, and (where, |row|) of the first beyond EPS_INPUT or None."""
    # written so that NaN fails it
    if a.dtype.kind != "c" and (a.ndim == 1 or a.size == a.shape[-1]):
        # one real vector, whatever its leading shape, in Python floats: the
        # array path costs about 7 us more, and acceptance criterion 1's
        # single-frame loop 1.3-1.5x the time; a block of one frame pays it per
        # block.  Its squares summed in order have the bits of _norm's; a
        # complex product in Python need not, so one spinor takes _norm
        norm = math.sqrt(sum([x * x for x in a.reshape(-1).tolist()]))
        off = abs(norm - 1.0)
        return off, None if off <= EPS_INPUT else (_where((0,) * (a.ndim - 1)), norm)
    # inf * 0 in an infinite complex entry's product would warn; the norm is inf
    with np.errstate(invalid="ignore") if a.dtype.kind == "c" else contextlib.nullcontext():
        norm = _norm(a)
    off = np.abs(norm - 1.0)
    if off.max(initial=0.0) <= EPS_INPUT:
        return off, None
    index = _first(~(off <= EPS_INPUT))
    return off, (_where(index), norm[index])


def _check_unit(name, vec):
    return _checked_unit(name, vec)[0]


def _checked_unit(name, vec):
    """vec as a float array checked to hold unit 3-vectors, and ||row| - 1| of each row."""
    vec = np.asarray(vec, dtype=float)
    if vec.ndim == 0 or vec.shape[-1] != 3:
        raise ValueError(f"{name} must be a 3-vector or an array of 3-vectors")
    off, bad = _off_unit(vec)
    if bad:
        raise ValueError(f"{name}{bad[0]} must be a unit vector, |{name}| = {bad[1]}")
    return vec, off


def _checked_axis(name, vec):
    """vec checked to hold unit 3-vectors, divided by its norm where that is off 1 beyond rounding.

    A frame or a rotation built on an axis off unit by up to EPS_INPUT would
    be off by as much, where the laws hold to 1e-12.
    """
    vec, off = _checked_unit(name, vec)
    if np.count_nonzero(off > _UNIT_OFF):
        vec = vec / np.where(off > _UNIT_OFF, _norm(vec), 1.0)[..., None]
        # only this new array is made read-only, so a Frame keeps it without a
        # copy (_frozen); the caller's array is copied there
        vec.flags.writeable = False
    return vec


def _check_spinor(name, chi):
    chi = np.asarray(chi, dtype=complex)
    if chi.ndim == 0 or chi.shape[-1] != 2:
        raise ValueError(f"{name} must be a 2-spinor or an array of 2-spinors")
    bad = _off_unit(chi)[1]
    if bad:
        raise ValueError(f"{name}{bad[0]} is not normalized: |{name}| = {bad[1]}")
    return chi


def _vdot(a, b):
    """Inner product a^dag b over the last axis, broadcast over the rest."""
    return np.add.reduce(a.conj() * b, axis=-1)


def _apply(m, chi):
    """Matrix-vector product over the last axes, broadcast over the rest."""
    return (m @ chi[..., None])[..., 0]


def _mul(a, b) -> np.ndarray:
    # 2x2 matrix product over the last two axes, broadcast over the rest; on
    # stacks of 2x2 matrices matmul's per-matrix overhead costs several times this
    return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]


def _frozen(x, dtype=float):
    """x as a read-only array of dtype whose values no array of the caller's can change.

    A new array from a conversion is kept, and so is an array that is
    read-only together with the array that owns its memory; anything else
    is copied, with its bits unchanged.
    """
    a = np.asarray(x, dtype=dtype)
    if a is x or a.base is not None:
        # the caller's memory: kept only where nothing can write to it
        owner = a if a.base is None else a.base
        if not a.flags.writeable and isinstance(owner, np.ndarray) and not owner.flags.writeable:
            return a
        a = a.copy()
    a.flags.writeable = False
    return a


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
    return (a @ _PAULI_ENTRIES.T).reshape(a.shape[:-1] + (2, 2))


def sigma_product(a, b) -> np.ndarray:
    """Product (a.sigma)(b.sigma); equals (a.b) 1 + i (a x b).sigma."""
    return _mul(dot_sigma(a), dot_sigma(b))


def spv(chi) -> np.ndarray:
    """Spin polarization vector s = chi^dag sigma chi of a normalized spinor.

    The result is a real unit vector and chi is the +1 eigenspinor of s.sigma.
    Raises ValueError if the input norm deviates from 1 by more than 1e-9.
    """
    return _spv(_single("chi", _check_spinor("chi", chi)))


def _bilinear(a, b):
    """Pauli bilinear a^dag sigma b, shape (..., 3), of (..., 2) spinors that broadcast together.

    _pauli_components on the products o_rs = conj(a_r) b_s, written into one (..., 3) array.
    """
    a_bar = np.conj(a)
    same = a_bar * b  # o00 and o11
    o01, o10 = a_bar[..., 0] * b[..., 1], a_bar[..., 1] * b[..., 0]
    out = np.empty(same.shape[:-1] + (3,), dtype=complex)
    _pauli_components(o01, o10, same[..., 0], same[..., 1], out[..., 0], out[..., 1], out[..., 2])
    return out


def _pauli_components(o01, o10, o00, o11, x, y, z):
    """Write the Pauli bilinear's components from its products o_rs = conj(a_r) b_s into x, y, z.

    x = o01 + o10, y = -i o01 + i o10 and z = o00 - o11: sigma's entries are
    only 0, +-1 and +-i, so each part is one sum or difference of two products
    and equals the matrix product with sigma's entries wherever it is not zero.
    """
    np.add(o01, o10, out=x)
    np.subtract(o01.imag, o10.imag, out=y.real)
    np.subtract(o10.real, o01.real, out=y.imag)
    np.subtract(o00, o11, out=z)


def _density_and_spin(psi):
    """Density psi^dag psi (...) and unnormalized spin psi^dag sigma psi (..., 3) of (..., 2) spinors."""
    rho = np.abs(psi[..., 0]) ** 2 + np.abs(psi[..., 1]) ** 2
    return rho, _bilinear(psi, psi).real


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
