"""Triads attached to a quantization axis and the eigenspinors built on them.

A quantization axis w together with a second unit vector (the characterization
vector) fixes a right-handed triad (u, v, w).  From the triad come the complex
basis vectors w+/w-, the nilpotent ladder operators, and a pair of normalized
eigenspinors of w.sigma whose phases are controlled by the azimuth of the
characterization vector about w.

Every function here works on one frame or on a whole batch at once: vectors
are (..., 3) arrays and spinors (..., 2) arrays, and a single frame is the
batch whose leading shape is ().  A single frame gets plain Python scalars
where a batch gets arrays of them.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import EPS_INPUT, IDENTITY2, PAULI, dot_sigma

# below this |w x I| the azimuth of I about w is numerically meaningless
EPS_PARALLEL = 1e-8
# below this ||sigma_pm chi_ref|| the reference spinor carries no usable phase
EPS_LADDER = 1e-8

SQRT2 = np.sqrt(2.0)

# Levi-Civita symbol flattened so that (a x b)_i = sum_jk a_j b_k _EPS3[3 j + k, i]
_EPS3 = np.zeros((3, 3, 3))
_EPS3[0, 1, 2] = _EPS3[1, 2, 0] = _EPS3[2, 0, 1] = 1.0
_EPS3[0, 2, 1] = _EPS3[2, 1, 0] = _EPS3[1, 0, 2] = -1.0
_EPS3 = _EPS3.reshape(9, 3)


class _FrameError(ValueError):
    """Geometry error; `index` locates the first offending frame of a batch (() for one frame)."""

    def __init__(self, message, index=()):
        super().__init__(message)
        self.index = index


class DegenerateFrame(_FrameError):
    """Characterization vector is (anti)parallel to the quantization axis."""


class ReferenceAnnihilated(_FrameError):
    """A reference spinor is annihilated by its ladder operator."""


def _first(bad):
    """Index of the first True entry of a boolean mask, in C order."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(bad), np.shape(bad)))


def _where(index):
    return f" (frame {index[0] if len(index) == 1 else index})" if index else ""


def _item(x):
    # a single frame keeps returning Python scalars
    return x.item() if np.ndim(x) == 0 else x


def _norm(a, axis=-1):
    # np.add.reduce, not np.sum: a single frame must stay cheap, and np.sum
    # adds several microseconds of dispatch per call
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=axis))


def _vdot(a, b):
    """Inner product a^dag b over the last axis, broadcast over the rest."""
    return np.add.reduce(a.conj() * b, axis=-1)


def _apply(m, chi):
    """Matrix-vector product over the last axes, broadcast over the rest."""
    return (m @ chi[..., None])[..., 0]


def _cross(a, b):
    # np.cross costs tens of microseconds per call; a single frame must stay
    # cheap.  The products are exact multiples of +-1 or 0, so this rounds as
    # a_j b_k - a_k b_j does.
    outer = a[..., :, None] * b[..., None, :]
    return outer.reshape(outer.shape[:-2] + (9,)) @ _EPS3


def _check_unit(name, vec):
    vec = np.asarray(vec, dtype=float)
    if vec.ndim == 0 or vec.shape[-1] != 3:
        raise ValueError(f"{name} must be a 3-vector or an array of 3-vectors")
    norm = _norm(vec)
    # written so that NaN fails it
    ok = np.abs(norm - 1.0) <= EPS_INPUT
    if not ok.all():
        index = _first(~ok)
        raise ValueError(f"{name}{_where(index)} must be a unit vector, |{name}| = {norm[index]}")
    return vec


def _check_spinor(name, chi):
    chi = np.asarray(chi, dtype=complex)
    if chi.ndim == 0 or chi.shape[-1] != 2:
        raise ValueError(f"{name} must be a 2-spinor or an array of 2-spinors")
    ok = np.abs(_norm(chi) - 1.0) <= EPS_INPUT
    if not ok.all():
        raise ValueError(f"{name}{_where(_first(~ok))} must be normalized")
    return chi


@dataclass(frozen=True)
class ReferenceSpinors:
    """Fixed spinor pair (chi1, chi2) that sets the phase reference of the eigenspinors.

    Both must be normalized 2-spinors; they are checked once, here.
    """

    chi1: np.ndarray
    chi2: np.ndarray

    def __post_init__(self):
        for name in ("chi1", "chi2"):
            chi = _check_spinor(name, getattr(self, name))
            if chi.shape != (2,):
                raise ValueError(f"{name} must be a single 2-spinor")
            object.__setattr__(self, name, chi)


DEFAULT_REFERENCES = ReferenceSpinors(
    chi1=np.array([0.0, 1.0], dtype=complex),
    chi2=np.array([1.0, 0.0], dtype=complex),
)
# swapped pair for callers whose axis annihilates the default; switching
# references changes the phase convention, so it is never applied silently
FALLBACK_REFERENCES = ReferenceSpinors(
    chi1=np.array([1.0, 0.0], dtype=complex),
    chi2=np.array([0.0, 1.0], dtype=complex),
)


@dataclass(frozen=True)
class Frame:
    """Right-handed orthonormal triad (u, v, w) plus the vectors that built it.

    For a batch, w and i_vec keep the shapes they were given (one of them may
    be a single 3-vector shared by every frame); u and v have the broadcast
    shape (..., 3).
    """

    w: np.ndarray
    i_vec: np.ndarray
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class EigenPair:
    """Normalized +1/-1 eigenspinors of w.sigma and their normalization constants."""

    chi_plus: np.ndarray
    chi_minus: np.ndarray
    n_plus: float
    n_minus: float


def build_frame(w, i_vec) -> Frame:
    """Build the triad: v = (w x I)/|w x I|, u = v x w.

    w and i_vec are 3-vectors or broadcastable (..., 3) arrays of them.  Only
    the azimuth of I about w matters; its polar angle is degenerate.  Raises
    DegenerateFrame, with the first offending frame in `index`, when
    |w x I| < EPS_PARALLEL.
    """
    w = _check_unit("w", w)
    i_vec = _check_unit("i_vec", i_vec)
    cross = _cross(w, i_vec)
    norm = _norm(cross)
    ok = norm >= EPS_PARALLEL
    if not ok.all():
        index = _first(~ok)
        w_bad = np.broadcast_to(w, cross.shape)[index]
        i_bad = np.broadcast_to(i_vec, cross.shape)[index]
        raise DegenerateFrame(
            f"characterization vector {i_bad.tolist()} is (anti)parallel to the "
            f"quantization axis {w_bad.tolist()}: |w x I| = {norm[index]}",
            index,
        )
    v = cross / norm[..., None]
    u = _cross(v, w)
    return Frame(w=w, i_vec=i_vec, u=u, v=v)


def complex_basis(frame: Frame):
    """Complex unit vectors w+ = (u + iv)/sqrt2 and w- = (v + iu)/sqrt2."""
    w_plus = (frame.u + 1j * frame.v) / SQRT2
    w_minus = (frame.v + 1j * frame.u) / SQRT2
    return w_plus, w_minus


def ladder_operators(frame: Frame):
    """Nilpotent ladder operators sigma+ = w+.sigma and sigma- = w-.sigma, shape (..., 2, 2)."""
    w_plus, w_minus = complex_basis(frame)
    return dot_sigma(w_plus), dot_sigma(w_minus)


def _eigen(frame, ref):
    # the eigenpair and the unnormalized image sigma- chi2 that fixes its phase;
    # (a.sigma) chi = a . (sigma chi) with sigma chi computed once per reference
    w_plus, w_minus = complex_basis(frame)
    sigma_chi1 = PAULI @ ref.chi1
    sigma_chi2 = PAULI @ ref.chi2
    raised = w_plus @ sigma_chi1
    lowered = w_minus @ sigma_chi2
    for image, name, op, sign in ((raised, "chi1", "sigma+", "+"), (lowered, "chi2", "sigma-", "-")):
        ok = _norm(image) >= EPS_LADDER
        if not ok.all():
            index = _first(~ok)
            raise ReferenceAnnihilated(
                f"{name} is annihilated by {op} for this axis{_where(index)} ({name} is "
                f"already the {sign}1 eigenspinor); supply references valid for this "
                "axis, e.g. FALLBACK_REFERENCES",
                index,
            )
    # chi^dag (1 -+ w.sigma) chi = |chi|^2 -+ w . (chi^dag sigma chi)
    n_plus = 1.0 / np.sqrt(_norm(ref.chi1) ** 2 - frame.w @ (sigma_chi1 @ ref.chi1.conj()).real)
    n_minus = 1.0 / np.sqrt(_norm(ref.chi2) ** 2 + frame.w @ (sigma_chi2 @ ref.chi2.conj()).real)
    pair = EigenPair(
        chi_plus=n_plus[..., None] * raised,
        chi_minus=n_minus[..., None] * lowered,
        n_plus=_item(n_plus),
        n_minus=_item(n_minus),
    )
    return pair, lowered


def eigen_spinors(frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES) -> EigenPair:
    """Normalized eigenspinors chi+ = N+ sigma+ chi1 and chi- = N- sigma- chi2.

    The normalization constants N+ = [chi1^dag (1 - w.sigma) chi1]^(-1/2) and
    N- = [chi2^dag (1 + w.sigma) chi2]^(-1/2) depend on w and the references
    only, not on the characterization vector.

    Raises ReferenceAnnihilated, with the first offending frame in `index`,
    when a reference spinor is (numerically) the eigenspinor its ladder
    operator annihilates; the caller must then supply a different pair, e.g.
    FALLBACK_REFERENCES.
    """
    return _eigen(frame, ref)[0]


def ladder_constants(frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES):
    """Constants (c, c') defined by sigma+ chi- = c chi+ and sigma- chi+ = c' chi-.

    Both have modulus sqrt2 and satisfy c = i conj(c').
    """
    pair, _ = _eigen(frame, ref)
    sig_plus, sig_minus = ladder_operators(frame)
    c = _vdot(pair.chi_plus, _apply(sig_plus, pair.chi_minus))
    c_prime = _vdot(pair.chi_minus, _apply(sig_minus, pair.chi_plus))
    return _item(c), _item(c_prime)


def _phase(pair, ref, lowered):
    # exp(i phi0) = sqrt2 N+ N- chi1^dag sigma- chi2
    return np.angle(SQRT2 * pair.n_plus * pair.n_minus * _vdot(ref.chi1, lowered))


def phase_factor(frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES) -> float:
    """Angle phi0 in (-pi, pi] with exp(i phi0) = sqrt2 N+ N- chi1^dag sigma- chi2.

    c = sqrt2 exp(i phi0) is the raising constant of ladder_constants; rotating
    the characterization vector by an angle about w shifts phi0 by the same angle.
    """
    pair, lowered = _eigen(frame, ref)
    return _item(_phase(pair, ref, lowered))


def _mapping(pair):
    return np.stack((pair.chi_plus, pair.chi_minus), axis=-1)


def mapping_matrix(frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES) -> np.ndarray:
    """Unitary with columns (chi+, chi-), shape (..., 2, 2); maps Jones vectors to state spinors."""
    return _mapping(eigen_spinors(frame, ref))


def compose_spinor(varpi, alpha) -> np.ndarray:
    """State spinor varpi @ alpha from mapping matrices and normalized Jones vectors.

    varpi is (..., 2, 2) and alpha (..., 2); the two broadcast against each other.
    """
    varpi = np.asarray(varpi, dtype=complex)
    gram = varpi.conj().swapaxes(-1, -2) @ varpi - IDENTITY2
    ok = _norm(gram, axis=(-2, -1)) <= EPS_INPUT
    if not ok.all():
        raise ValueError(f"mapping matrix{_where(_first(~ok))} must be unitary")
    alpha = _check_spinor("alpha", alpha)
    return _apply(varpi, alpha)
