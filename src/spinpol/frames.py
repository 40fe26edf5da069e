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
from .algebra import _apply, _check_spinor, _check_unit, _first, _item, _norm, _single, _vdot
from .algebra import _where

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


def _cross(a, b):
    # np.cross costs tens of microseconds per call: the acceptance tests' loops
    # over single frames took 1.3-1.4x as long with it.  The products are
    # exact multiples of +-1 or 0, so this equals np.cross bit for bit.
    outer = a[..., :, None] * b[..., None, :]
    return outer.reshape(outer.shape[:-2] + (9,)) @ _EPS3


@dataclass(frozen=True)
class ReferenceSpinors:
    """Fixed spinor pair (chi1, chi2) that sets the phase reference of the eigenspinors.

    Both must be normalized 2-spinors; they are checked once, here.
    """

    chi1: np.ndarray
    chi2: np.ndarray

    def __post_init__(self):
        for name in ("chi1", "chi2"):
            object.__setattr__(self, name, _single(name, _check_spinor(name, getattr(self, name))))


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
    """Normalized +1/-1 eigenspinors of w.sigma, their normalization constants and phase.

    phi0 in (-pi, pi] is the phase of the ladder constant c = sqrt2 exp(i phi0);
    it moves with the azimuth of the characterization vector about w.
    """

    chi_plus: np.ndarray
    chi_minus: np.ndarray
    n_plus: float
    n_minus: float
    phi0: float

    @property
    def mapping(self) -> np.ndarray:
        """Unitary with columns (chi+, chi-), shape (..., 2, 2)."""
        return np.stack((self.chi_plus, self.chi_minus), axis=-1)


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


def eigen_spinors(frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES) -> EigenPair:
    """Normalized eigenspinors chi+ = N+ sigma+ chi1 and chi- = N- sigma- chi2.

    The normalization constants N+ = [chi1^dag (1 - w.sigma) chi1]^(-1/2) and
    N- = [chi2^dag (1 + w.sigma) chi2]^(-1/2) depend on w and the references
    only, not on the characterization vector.  They are computed as
    1/|sigma+ chi1| and 1/|sigma- chi2| (sigma+-^dag sigma+- = 1 -+ w.sigma),
    which, unlike the bracketed forms, does not cancel as w approaches the
    axis that annihilates a reference.  phi0 is the angle of
    c = chi+^dag sigma+ chi- of ladder_constants; read from unit vectors, it
    keeps its precision where both reference images are small.

    Raises ReferenceAnnihilated, with the first offending frame in `index`,
    when a reference spinor is (numerically) the eigenspinor its ladder
    operator annihilates; the caller must then supply a different pair, e.g.
    FALLBACK_REFERENCES.
    """
    # (a.sigma) chi = a . (sigma chi) with sigma chi computed once per reference
    w_plus, w_minus = complex_basis(frame)
    raised = w_plus @ (PAULI @ ref.chi1)
    lowered = w_minus @ (PAULI @ ref.chi2)
    norm_plus, norm_minus = _norm(raised), _norm(lowered)
    for norm, name, op, sign in ((norm_plus, "chi1", "sigma+", "+"), (norm_minus, "chi2", "sigma-", "-")):
        ok = norm >= EPS_LADDER
        if not ok.all():
            index = _first(~ok)
            raise ReferenceAnnihilated(
                f"{name} is annihilated by {op} for this axis{_where(index)} ({name} is "
                f"already the {sign}1 eigenspinor); supply references valid for this "
                "axis, e.g. FALLBACK_REFERENCES",
                index,
            )
    n_plus, n_minus = 1.0 / norm_plus, 1.0 / norm_minus
    chi_plus = n_plus[..., None] * raised
    chi_minus = n_minus[..., None] * lowered
    c = _ladder_constant(dot_sigma(w_plus), chi_plus, chi_minus)
    return EigenPair(
        chi_plus=chi_plus,
        chi_minus=chi_minus,
        n_plus=_item(n_plus),
        n_minus=_item(n_minus),
        phi0=_item(np.angle(c)),
    )


def _ladder_constant(op, chi_to, chi_from):
    """chi_to^dag op chi_from: the constant c of op chi_from = c chi_to."""
    return _vdot(chi_to, _apply(op, chi_from))


def ladder_constants(frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES):
    """Constants (c, c') defined by sigma+ chi- = c chi+ and sigma- chi+ = c' chi-.

    Both have modulus sqrt2 and satisfy c = i conj(c').
    """
    pair = eigen_spinors(frame, ref)
    sig_plus, sig_minus = ladder_operators(frame)
    c = _ladder_constant(sig_plus, pair.chi_plus, pair.chi_minus)
    c_prime = _ladder_constant(sig_minus, pair.chi_minus, pair.chi_plus)
    return _item(c), _item(c_prime)


def phase_factor(frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES) -> float:
    """Angle phi0 in (-pi, pi] with exp(i phi0) = sqrt2 N+ N- chi1^dag sigma- chi2.

    c = sqrt2 exp(i phi0) is the raising constant of ladder_constants; rotating
    the characterization vector by an angle about w shifts phi0 by the same angle.
    """
    return eigen_spinors(frame, ref).phi0


def mapping_matrix(frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES) -> np.ndarray:
    """Unitary with columns (chi+, chi-), shape (..., 2, 2); maps Jones vectors to state spinors."""
    return eigen_spinors(frame, ref).mapping


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
