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

The frame chain is the paper's formulas on arrays: w+- = (u + iv)/sqrt2 and
(v + iu)/sqrt2, c = sqrt2 exp(i phi0), norms and dots summed over the last
axis.  Only build_frame and the eigenpair (_eigen_pair) work on (3, ...) rows
(algebra._rows), which makes each product one pass over the whole block;
their sums keep the bits of sums over the last axis, and one frame gets the
bits it gets inside a block.
"""

from dataclasses import dataclass, field

import numpy as np

from .algebra import EPS_INPUT, IDENTITY2, dot_sigma
from .algebra import _apply, _bilinear, _check_spinor, _check_unit, _checked_axis, _first, _item
from .algebra import _frozen, _mul, _norm, _rows, _single, _where

# below this |w x I| the azimuth of I about w is numerically meaningless
EPS_PARALLEL = 1e-8
# below this ||sigma_pm chi_ref|| the reference spinor carries no usable phase
EPS_LADDER = 1e-8

SQRT2 = np.sqrt(2.0)
_INV_SQRT2 = 1.0 / SQRT2


class _IndexedError(ValueError):
    """Input error; `index` locates the first offending frame or packet of a batch (() for one)."""

    def __init__(self, message, index=()):
        super().__init__(message)
        self.index = index


class DegenerateFrame(_IndexedError):
    """Characterization vector is (anti)parallel to the quantization axis."""


class ReferenceAnnihilated(_IndexedError):
    """A reference spinor is annihilated by its ladder operator."""


# row k of a x b is a[k+1] b[k+2] - a[k+2] b[k+1], as np.cross computes it:
# the rows of a and b that enter the six products
_LEFT, _RIGHT = [1, 2, 0, 2, 0, 1], [2, 0, 1, 1, 2, 0]


def _cross_rows(a, b, out=None):
    # a x b of (3, ...) rows: the six products in one pass over the whole
    # block, then their three differences in another
    products = a.take(_LEFT, 0) * b.take(_RIGHT, 0)
    return np.subtract(products[:3], products[3:], out=out)


@dataclass(frozen=True, eq=False)
class ReferenceSpinors:
    """Fixed spinor pair (chi1, chi2) that sets the phase reference of the eigenspinors.

    Both must be normalized 2-spinors; they are checked once, here, and kept
    as read-only copies.  Two pairs are equal only if they are the same object.
    """

    chi1: np.ndarray
    chi2: np.ndarray

    def __post_init__(self):
        for name in ("chi1", "chi2"):
            chi = _single(name, _check_spinor(name, getattr(self, name)))
            object.__setattr__(self, name, _frozen(chi, complex))
        # (chi1, i chi2) for the overlaps that eigen_spinors takes
        object.__setattr__(self, "_kets", np.stack((self.chi1, 1j * self.chi2)))


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


@dataclass(frozen=True, eq=False)
class Frame:
    """Right-handed orthonormal triad (u, v, w) plus the vectors that built it.

    For a batch, w and i_vec keep the shapes they were given (one of them may
    be a single 3-vector shared by every frame); u and v have the broadcast
    shape (..., 3).  All four are read-only: the frame keeps a copy of any
    array the caller could still change.  The frame computes what it derives
    for a reference pair (the eigenpair, the mapping matrix, the
    cross-checked phase and the Cartesian components of the Heisenberg
    matrices) once, on first use, and keeps it (_derived), and it keeps the
    frame of its last rotate_characterization (_Last).  dataclasses.replace
    and rotate_characterization give frames with empty caches.  Two frames
    are equal only if they are the same object.
    """

    w: np.ndarray
    i_vec: np.ndarray
    u: np.ndarray
    v: np.ndarray
    # (compute, ref) -> result (_derived), and "rotation" -> the _Last of rotations
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name in ("w", "i_vec", "u", "v"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    def _derived(self, ref, compute):
        """compute(self, ref), computed once per reference pair object and then looked up.

        Reference pairs hash and compare by identity, and the key holds ref,
        so an entry answers only the object it was computed for.  Every
        entry is an array or a tuple of them and scalars: none holds the
        frame, so a frame and its cache never form a reference cycle.  A
        compute that raises stores nothing.  Every lookup goes through here,
        so a test or a CI step can bypass the cache with one patch.
        """
        key = (compute, ref)
        try:
            return self._cache[key]
        except KeyError:
            result = self._cache[key] = compute(self, ref)
            return result


def _bits(*arrays):
    """A key for the exact contents of arrays: the dtype, shape and bytes of each."""
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, arrays))


class _Last:
    """The last result of one computation, kept with the key it was computed for.

    get(key, compute) returns the kept result while key equals the kept key;
    otherwise it drops the kept entry before it calls compute(), and keeps
    the new result under key, so at most one result is held.  A compute that
    raises keeps nothing.  Every memo of built frames goes through get, so a
    test or a CI step can bypass them all with one patch.  There are two: a
    Frame's last rotated frame (rotations.rotate_characterization) and a
    PacketConfig's frames of its last one-block spectrum (wavepacket._frame_blocks).
    """

    def __init__(self):
        self._entry = None

    def get(self, key, compute):
        entry = self._entry
        if entry is None or entry[0] != key:
            self._entry = None
            entry = self._entry = (key, compute())
        return entry[1]


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Normalized +1/-1 eigenspinors of w.sigma, their normalization constants and phase.

    c = chi+^dag sigma+ chi- = sqrt2 exp(i phi0) is the pair's ladder constant;
    phi0 in (-pi, pi] moves with the azimuth of the characterization vector about w.
    """

    chi_plus: np.ndarray
    chi_minus: np.ndarray
    n_plus: float
    n_minus: float
    phi0: float
    c: complex

    @property
    def mapping(self) -> np.ndarray:
        """Unitary with columns (chi+, chi-), shape (..., 2, 2)."""
        varpi = np.empty(self.chi_plus.shape + (2,), dtype=complex)
        varpi[..., 0], varpi[..., 1] = self.chi_plus, self.chi_minus
        return varpi


def build_frame(w, i_vec) -> Frame:
    """Build the triad: v = (w x I)/|w x I|, u = v x w.

    w and i_vec are 3-vectors or broadcastable (..., 3) arrays of them, unit to
    within EPS_INPUT; the frame keeps w / |w| where |w| is off 1 beyond rounding.
    Only the azimuth of I about w matters; its polar angle is degenerate.  The triad
    is orthonormal to rounding for every accepted pair.  Raises DegenerateFrame, with
    the first offending frame in `index`, when |w x I| < EPS_PARALLEL.
    """
    w = _checked_axis("w", w)
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
    triad = np.empty((2,) + shape)
    u, v = triad
    _rows(v, ndim)[...] = cross
    _cross_rows(cross, w_rows, out=_rows(u, ndim))
    # u and v as views of one read-only array, which the frame keeps without a copy
    _read_only(triad)
    return Frame(w, i_vec, *triad)


def complex_basis(frame: Frame):
    """Complex unit vectors w+ = (u + iv)/sqrt2 and w- = (v + iu)/sqrt2."""
    return (frame.u + 1j * frame.v) / SQRT2, (frame.v + 1j * frame.u) / SQRT2


def ladder_operators(frame: Frame):
    """Nilpotent ladder operators sigma+ = w+.sigma and sigma- = w-.sigma, shape (..., 2, 2)."""
    w_plus, w_minus = complex_basis(frame)
    return dot_sigma(w_plus), dot_sigma(w_minus)


def eigen_spinors(frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES) -> EigenPair:
    """Normalized eigenspinors chi+ = N+ sigma+ chi1 and chi- = N- sigma- chi2.

    For any eigenpair (chi_s+, chi_s-) of w.sigma, sigma+ = c_s chi_s+ chi_s-^dag
    and sigma- = i conj(c_s) chi_s- chi_s+^dag, c_s = chi_s+^dag sigma+ chi_s-.  So
    chi+- = (g/|g|) chi_s+- and N+- = 1/|g| with g1 = c_s chi_s-^dag chi1 and
    g2 = i conj(c_s) chi_s+^dag chi2, whatever the pair's phases.  The pair
    comes from the chart of w whose denominator is at least sqrt2, so nothing
    cancels, at the poles included.  N+- depend on w and the references only;
    phi0 is the angle of c = chi+^dag sigma+ chi- (EigenPair.c).  The eigen,
    closed-form and rotation laws hold to 1e-12 down to 1e-6 rad from either
    reference pair's pole.

    Raises ReferenceAnnihilated, with the first offending frame in `index`,
    when |g1| or |g2| < EPS_LADDER: within about 1e-8 rad of the axis whose
    ladder operator annihilates a reference (-z for DEFAULT_REFERENCES, +z for
    FALLBACK_REFERENCES); the caller must then supply the other pair.

    The pair is computed once per frame and reference pair; later calls
    return the same EigenPair, whose arrays are read-only.
    """
    return frame._derived(ref, _eigen_pair)


def _eigen_pair(frame: Frame, ref: ReferenceSpinors) -> EigenPair:
    # w and u as (3, ...) rows; w keeps its own frames, which may be fewer than u's
    w, u = _rows(frame.w, frame.u.ndim), _rows(frame.u)
    t = np.abs(w[2]) + 1.0
    signed_t = np.copysign(t, w[2])
    # the chart pair (t, w_x + i w_y) n and (-(w_x - i w_y), t) n, n = 1/sqrt(2t), for
    # w_z >= 0 and those of -w swapped for w_z < 0; the parts (re0, im0, re1, im1) of s w's,
    # s = sign(w_z), are (tn, 0, x', y') and (-x', y', tn, 0): tn = sqrt(t/2), (x', y') = q tn
    q = w[:2] / signed_t
    chart = np.zeros((2,) + t.shape + (2,), dtype=complex)
    parts = _rows(chart.view(float))
    tn = np.sqrt(0.5 * t, out=parts[0, 0, ...])
    np.multiply(q, tn, out=parts[2:, 0])
    np.negative(parts[2, 0, ...], out=parts[0, 1, ...])
    parts[1, 1, ...], parts[2, 1, ...] = parts[3, 0, ...], tn
    south = np.signbit(signed_t)
    if south.any():
        # each spinor as one 32-byte item, so the mask needs no broadcast
        spinors = chart.view("V32")[..., 0]
        np.copyto(spinors, spinors[::-1].copy(), where=south)
    # chi_s-^dag chi1 and chi_s+^dag (i chi2): g1 / c_s and g2 / conj(c_s), |c_s| = sqrt2
    products = np.conj(chart[::-1])
    products *= ref._kets.reshape((2,) + (1,) * t.ndim + (2,))
    overlaps = products[..., 0] + products[..., 1]
    norms = np.abs(overlaps)
    # a NaN minimum fails; chi1's failure first, as the references are checked in order
    if not norms.min(initial=np.inf) >= EPS_LADDER / SQRT2:
        bad = _first(~(norms >= EPS_LADDER / SQRT2))
        name, op, sign = (("chi1", "sigma+", "+"), ("chi2", "sigma-", "-"))[bad[0]]
        raise ReferenceAnnihilated(
            f"{name} is annihilated by {op} for this axis{_where(bad[1:])} ({name} is "
            f"already the {sign}1 eigenspinor); supply references valid for this "
            "axis, e.g. FALLBACK_REFERENCES",
            bad[1:],
        )
    overlaps /= norms
    # chi_s+^dag sigma chi_s- = b1 - i b2 on the basis of w of Duff et al., "Building
    # an Orthonormal Basis, Revisited", JCGT 6(1), 2017: for u normal to w, c_s / sqrt2
    # = u.b1 - i u.b2 = e = d0 - i s d1, d = (u_x, u_y) - q u_z.  With (p1, p2) the
    # overlaps' phases, chi+- take the phases (e p1, conj(e) p2)
    d = q * u[2]
    np.subtract(u[:2], d, out=d)
    np.negative(d[1], out=d[1, ...], where=south)
    phases = np.empty(d.shape, dtype=complex)
    phases.real, phases.imag[1, ...] = d[0], d[1]
    np.negative(d[1], out=phases.imag[0, ...])
    phases *= overlaps
    chi = phases[..., None] * chart
    n = np.divide(_INV_SQRT2, norms, out=np.empty(phases.shape))
    # c = conj(e p1) conj(e) p2 sqrt2 e; np.multiply, as numpy scalars' `*` rounds otherwise
    c = np.multiply(np.multiply(phases[1], np.conj(overlaps[0])), SQRT2)
    phi0 = np.arctan2(c.imag, c.real)
    # views of read-only arrays are read-only
    _read_only(chi, n, phi0, c)
    return EigenPair(*chi, *map(_item, (*n, phi0, c)))


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
    return np.add.reduce(np.multiply(a, _bilinear(chi_to, chi_from)), axis=-1)


def ladder_constants(frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES):
    """Constants (c, c') defined by sigma+ chi- = c chi+ and sigma- chi+ = c' chi-.

    Both have modulus sqrt2 and satisfy c = i conj(c'); c is EigenPair.c, c' is chi-^dag sigma- chi+.
    """
    pair = eigen_spinors(frame, ref)
    c_prime = _ladder_constant(complex_basis(frame)[1], pair.chi_minus, pair.chi_plus)
    return pair.c, _item(c_prime)


def phase_factor(frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES) -> float:
    """Angle phi0 in (-pi, pi] with exp(i phi0) = sqrt2 N+ N- chi1^dag sigma- chi2.

    c = sqrt2 exp(i phi0) is the raising constant of ladder_constants; rotating
    the characterization vector by an angle about w shifts phi0 by the same angle.
    """
    return eigen_spinors(frame, ref).phi0


def mapping_matrix(frame: Frame, ref: ReferenceSpinors = DEFAULT_REFERENCES) -> np.ndarray:
    """Unitary with columns (chi+, chi-), shape (..., 2, 2); maps Jones vectors to state spinors.

    Built and checked unitary once per frame and reference pair; later calls
    return the same read-only array.
    """
    return frame._derived(ref, _mapping)


def _mapping(frame: Frame, ref: ReferenceSpinors) -> np.ndarray:
    return _read_only(_unitary(eigen_spinors(frame, ref).mapping))[0]


def _unitary(varpi):
    """varpi, checked that each (..., 2, 2) matrix is unitary to within EPS_INPUT."""
    gram = _mul(varpi.conj().swapaxes(-1, -2), varpi) - IDENTITY2
    ok = _norm(gram, axis=(-2, -1)) <= EPS_INPUT
    if not ok.all():
        raise ValueError(f"mapping matrix{_where(_first(~ok))} must be unitary")
    return varpi


def compose_spinor(varpi, alpha) -> np.ndarray:
    """State spinor varpi @ alpha from mapping matrices and normalized Jones vectors.

    varpi is (..., 2, 2) and alpha (..., 2); the two broadcast against each
    other.  Every matrix is checked unitary.
    """
    return _compose(_unitary(np.asarray(varpi, dtype=complex)), alpha)


def _compose(varpi, alpha):
    # compose_spinor on a mapping already checked, such as mapping_matrix's
    return _apply(varpi, _check_spinor("alpha", alpha))
