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

The arithmetic runs on components.  A (..., 3) array is viewed as (3, ...)
rows (algebra._rows), so each product, difference or quotient is one
elementwise pass over the whole block, and a sum over the components reduces
the leading axis of rows made contiguous.  np.add.reduce adds an axis of at
most 7 entries in index order from +0.0 whichever axis it is, so the sums
keep the bits of sums over the last axis, which ran a loop of three per
frame.  The results are written back into (..., 3) and (..., 2) arrays, and
one frame gets the bits it gets inside a block.
"""

from dataclasses import dataclass, field

import numpy as np

from .algebra import EPS_INPUT, IDENTITY2, PAULI, dot_sigma
from .algebra import _apply, _bilinear, _check_spinor, _check_unit, _first, _item, _mul, _norm
from .algebra import _rows, _single, _where

# below this |w x I| the azimuth of I about w is numerically meaningless
EPS_PARALLEL = 1e-8
# below this ||sigma_pm chi_ref|| the reference spinor carries no usable phase
EPS_LADDER = 1e-8

SQRT2 = np.sqrt(2.0)
# z / SQRT2 is z times this reciprocal in numpy's complex division
_INV_SQRT2 = 1.0 / SQRT2


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
    """a x b of (..., 3) vectors that broadcast together, bit for bit as np.cross computes it."""
    out = np.empty(np.broadcast(a, b).shape)
    _cross_rows(_rows(a, out.ndim), _rows(b, out.ndim), out=_rows(out, out.ndim))
    return out


# row k of a x b is a[k+1] b[k+2] - a[k+2] b[k+1], as np.cross computes it:
# the rows of a and b that enter the six products
_LEFT, _RIGHT = [1, 2, 0, 2, 0, 1], [2, 0, 1, 1, 2, 0]


def _cross_rows(a, b, out=None):
    # a x b of (3, ...) rows: the six products in one pass over the whole
    # block, then their three differences in another
    products = a.take(_LEFT, 0) * b.take(_RIGHT, 0)
    return np.subtract(products[:3], products[3:], out=out)


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
        # sigma_c chi1 and sigma_c chi2 as rows (0, c) and (1, c), for eigen_spinors
        chis = np.stack((self.chi1, self.chi2))[:, None, :, None]
        object.__setattr__(self, "_images", (PAULI @ chis)[..., 0])


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
    shape (..., 3).  The frame computes its eigenpair and cross-checked phase
    for a reference pair once, on first use, and keeps them.
    """

    w: np.ndarray
    i_vec: np.ndarray
    u: np.ndarray
    v: np.ndarray
    # what the frame derives for each reference pair, computed on first use:
    # (compute, id(ref)) -> (ref, result)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _derived(self, ref, compute):
        """compute(self, ref), computed once per reference pair object and then looked up.

        The entry holds ref itself, so its id cannot be reused while the entry
        lives, and the `is` test rejects an entry of any other object.  A
        compute that raises stores nothing.
        """
        key = (compute, id(ref))
        hit = self._cache.get(key)
        if hit is not None and hit[0] is ref:
            return hit[1]
        result = compute(self, ref)
        self._cache[key] = (ref, result)
        return result


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
        varpi = np.empty(self.chi_plus.shape + (2,), dtype=complex)
        varpi[..., 0], varpi[..., 1] = self.chi_plus, self.chi_minus
        return varpi


def build_frame(w, i_vec) -> Frame:
    """Build the triad: v = (w x I)/|w x I|, u = v x w.

    w and i_vec are 3-vectors or broadcastable (..., 3) arrays of them.  Only
    the azimuth of I about w matters; its polar angle is degenerate.  The triad
    is orthonormal to rounding for every accepted pair.  Raises DegenerateFrame,
    with the first offending frame in `index`, when |w x I| < EPS_PARALLEL.
    """
    w = _check_unit("w", w)
    i_vec = _check_unit("i_vec", i_vec)
    # on (3, ...) rows; the dot product and the norm reduce the leading axis
    ndim = max(w.ndim, i_vec.ndim)
    w_rows = _rows(w, ndim)
    cross = _cross_rows(w_rows, _rows(i_vec, ndim))
    # one Gram-Schmidt step: w x I is normal to w only to 1e-16, so v.w would be 1e-16/|w x I|
    cross -= np.add.reduce(np.multiply(w_rows, cross, order="C"), axis=0) * w_rows
    norm = np.sqrt(np.add.reduce(cross * cross, axis=0))
    ok = norm >= EPS_PARALLEL
    shape = norm.shape + (3,)
    if not ok.all():
        index = _first(~ok)
        w_bad = np.broadcast_to(w, shape)[index]
        i_bad = np.broadcast_to(i_vec, shape)[index]
        raise DegenerateFrame(
            f"characterization vector {i_bad.tolist()} is (anti)parallel to the "
            f"quantization axis {w_bad.tolist()}: |w x I| = {norm[index]}",
            index,
        )
    cross /= norm
    u, v = np.empty(shape), np.empty(shape)
    _rows(v, ndim)[...] = cross
    _cross_rows(cross, w_rows, out=_rows(u, ndim))
    return Frame(w=w, i_vec=i_vec, u=u, v=v)


def complex_basis(frame: Frame):
    """Complex unit vectors w+ = (u + iv)/sqrt2 and w- = (v + iu)/sqrt2."""
    w_plus, w_minus = _basis(frame)
    return w_plus, w_minus


def _basis(frame: Frame):
    """w+ and w- stacked as one (2, ..., 3) array."""
    # the bits of numpy's (u + 1j v) / SQRT2, signed zeros included, written
    # part by part for both vectors at once: the imaginary part is v/sqrt2 + 0
    # and the real part u/sqrt2 + 0 * (imaginary part)
    basis = np.empty((2,) + frame.u.shape, dtype=complex)
    re, im = basis.real, basis.imag
    np.multiply(frame.u, _INV_SQRT2, out=re[0])
    np.multiply(frame.v, _INV_SQRT2, out=re[1])
    np.add(re[::-1], 0.0, out=im)
    re += 0.0 * im
    return basis


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

    The pair is computed once per frame and reference pair; later calls
    return the same EigenPair, whose arrays are read-only.
    """
    return frame._derived(ref, _eigen_pair)


def _eigen_pair(frame: Frame, ref: ReferenceSpinors) -> EigenPair:
    basis = _basis(frame)
    # both references at once: (a.sigma) chi = a . (sigma chi) for a = w+ with
    # chi1 and a = w- with chi2.  np.matmul takes other BLAS routines for one
    # frame than for a block, which may give an exact zero opposite signs;
    # adding +0.0 makes it +0 either way
    images = np.matmul(basis.reshape(2, -1, 3), ref._images).reshape(basis.shape[:-1] + (2,))
    images += 0.0
    norms = _norm(images)
    ok = norms >= EPS_LADDER
    if not ok.all():
        # chi1's failure first, as the references are checked in order
        which, *index = _first(~ok)
        name, op, sign = (("chi1", "sigma+", "+"), ("chi2", "sigma-", "-"))[which]
        index = tuple(index)
        raise ReferenceAnnihilated(
            f"{name} is annihilated by {op} for this axis{_where(index)} ({name} is "
            f"already the {sign}1 eigenspinor); supply references valid for this "
            "axis, e.g. FALLBACK_REFERENCES",
            index,
        )
    n_plus, n_minus = scales = 1.0 / norms
    chi_plus, chi_minus = scales[..., None] * images
    c = _ladder_constant(basis[0], chi_plus, chi_minus)
    results = chi_plus, chi_minus, _item(n_plus), _item(n_minus), _item(np.angle(c))
    return EigenPair(*_read_only(*results))


def _read_only(*results):
    """The results, each array among them made read-only: frames hand the same arrays to every caller."""
    for x in results:
        if isinstance(x, np.ndarray):
            x.flags.writeable = False
    return results


def _ladder_constant(a, chi_to, chi_from):
    """a.(chi_to^dag sigma chi_from): the constant c of (a.sigma) chi_from = c chi_to."""
    # np.multiply, not `*`: above 256 KiB numpy may compute `a * temporary` in
    # place as temporary * a, and a complex product with fused multiply-adds
    # is not bitwise commutative
    return np.add.reduce(np.multiply(_rows(a), _rows(_bilinear(chi_to, chi_from)), order="C"), axis=0)


def ladder_constants(frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES):
    """Constants (c, c') defined by sigma+ chi- = c chi+ and sigma- chi+ = c' chi-.

    Both have modulus sqrt2 and satisfy c = i conj(c').
    """
    pair = eigen_spinors(frame, ref)
    w_plus, w_minus = complex_basis(frame)
    c = _ladder_constant(w_plus, pair.chi_plus, pair.chi_minus)
    c_prime = _ladder_constant(w_minus, pair.chi_minus, pair.chi_plus)
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
    gram = _mul(varpi.conj().swapaxes(-1, -2), varpi) - IDENTITY2
    ok = _norm(gram, axis=(-2, -1)) <= EPS_INPUT
    if not ok.all():
        raise ValueError(f"mapping matrix{_where(_first(~ok))} must be unitary")
    alpha = _check_spinor("alpha", alpha)
    return _apply(varpi, alpha)
