"""Plane-wave superpositions of a free spin-1/2 particle and their spin fields.

Each plane wave takes its own wave vector direction as quantization axis while
sharing one characterization vector and one Jones vector:

    Psi(x,t) = (2 pi)^(-3/2) sum_k weight A(k) chi(k_hat) exp(i(k.x - w(k) t))

so the packet's local polarization field and total spin are determined by the
weighting A(k), the Jones vector, and the shared characterization vector alone.
"""

import itertools
import math
import os
import stat
from dataclasses import dataclass, field, replace

import numpy as np

from . import _g17
from .algebra import _check_spinor, _check_unit, _checked_axis, _density_and_spin, _first, _frozen, _item
from .algebra import _norm, _single
from .frames import (
    DEFAULT_REFERENCES,
    DegenerateFrame,
    ReferenceAnnihilated,
    ReferenceSpinors,
    _bits,
    _compose,
    _IndexedError,
    _Last,
    _read_only,
    build_frame,
    mapping_matrix,
)
from .heisenberg import _checked_phase
from .rotations import _so3

# relative floor on |k|: a zero wave vector has no quantization axis
EPS_K = 1e-6
# quadrature sum of weight |A|^2 must match 1 this closely
NORM_TOL = 1e-9
# bytes of one block of complex phase factors in the dense plane-wave sum
DENSE_BLOCK_BYTES = 32 * 2**20
# frames (packets x samples) per block of _frame_blocks, which every per-sample
# pipeline walks, and packets per total_spin call of a sweep: it bounds their
# memory.  8-step sweeps of 729 samples, then run as calls of budget // 729
# steps, took 7.6, 6.0, 5.1, 5.2 and 5.0 ms at 1024, 2048, 3000, 4096 and 8192
# frames (p10 of 200 interleaved runs in one process); 8192 raised the
# benchmark's peak RSS by 5 MB
_FRAME_BUDGET = 3000
# rows per block of write_table: its tracemalloc peak on 8 columns is about
# 3.0 MB however long the table, and 1024 or 4096 rows wrote the default field
# slower (11.2 and 11.6 ms against 9.9 ms, p10 of 60 interleaved writes in one
# process on a 2-core host)
TABLE_BLOCK = 2048

SPECTRUM_HEADER = "kx,ky,kz,re_A,im_A,weight"
FIELD_HEADER = "x,y,z,t,rho,sx,sy,sz"


class SpectrumNearOrigin(ValueError):
    """A spectrum sample sits at (or the grid reaches) the zero wave vector."""


class BadGrid(ValueError):
    """Grid parameters are unusable.

    An even sample count, a non-finite k0, a span or sigma_k not finite and
    positive, or a cell volume or 4 sigma_k^2 that overflows or underflows.
    """


class NodePoint(_IndexedError):
    """Probability density vanishes here; the local polarization is undefined.

    `index` locates the first such packet of a batch (() for one packet).
    """


def _sample(index):
    """'sample j' of one spectrum, 'packet b, sample j' of a batch, from an index (..., j)."""
    *packet, j = index
    if not packet:
        return f"sample {j}"
    return f"packet {packet[0] if len(packet) == 1 else tuple(packet)}, sample {j}"


def _packet(index):
    return f" of packet {index[0] if len(index) == 1 else index}" if index else ""


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Discrete plane-wave spectrum: wave vectors, complex weights, quadrature weights.

    A batch of equal-size spectra, one per packet, carries leading axes (...):
    every check below then runs on each packet alone.  The arrays are kept
    read-only, as copies of any the caller could still change, so the checks
    hold for the spectrum's life.  Two spectra are equal only if they are the
    same object.

    Attributes
    ----------
    k : ndarray, shape (..., n, 3)
        Wave vectors, lexicographic in grid index for generated spectra.
    amplitude : ndarray, shape (..., n), complex
        Weighting function samples A(k).
    weight : ndarray, shape (..., n)
        Quadrature weights (cell volumes); sum(weight |A|^2) must equal 1.
    """

    k: np.ndarray
    amplitude: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", np.atleast_2d(_frozen(self.k)))
        object.__setattr__(self, "amplitude", np.atleast_1d(_frozen(self.amplitude, complex)))
        object.__setattr__(self, "weight", np.atleast_1d(_frozen(self.weight)))
        shape = self.weight.shape
        if self.k.shape != shape + (3,) or self.amplitude.shape != shape:
            raise ValueError(
                "spectrum arrays must have matching lengths, k of shape (..., n, 3), "
                "amplitude and weight of shape (..., n)"
            )
        # |k|^2, which dispersion and every k_hat take, must not overflow either
        with np.errstate(over="ignore"):
            squares = np.sum(self.k * self.k, axis=-1)
        for name in ("k", "amplitude", "weight", "|k|^2"):
            bad = ~np.isfinite(squares if name == "|k|^2" else getattr(self, name))
            if bad.any():
                index = _first(bad)[: len(shape)]
                raise ValueError(f"spectrum {name} of {_sample(index)} is not finite")
        norms = np.sqrt(squares)
        # each packet's floor scales with its own largest |k|
        scale = norms.max(axis=-1, initial=0.0)
        small = norms < EPS_K * np.maximum(scale, 1e-300)[..., None]
        if small.any():
            index = _first(small)
            raise SpectrumNearOrigin(
                f"{_sample(index)} has |k| = {norms[index]}; the zero wave "
                "vector has no quantization axis"
            )
        total = np.sum(self.weight * np.abs(self.amplitude) ** 2, axis=-1)
        # written so that NaN fails it
        off = ~(np.abs(total - 1.0) <= NORM_TOL)
        if off.any():
            index = _first(off)
            raise ValueError(
                f"spectrum{_packet(index)} is not normalized: sum(weight |A|^2) = {total[index]}"
            )

    def __len__(self):
        """Samples per packet."""
        return self.weight.shape[-1]


@dataclass(frozen=True, eq=False)
class PacketConfig:
    """Per-packet parameters: characterization vector, Jones vector, references.

    i_vec (..., 3) and alpha (..., 2) may carry one vector per packet; they
    broadcast against the spectrum's batch shape.  ref, hbar and mu are shared.
    Both are checked here, each packet's to within 1e-9 of unit norm, and
    kept read-only, as copies of any array the caller could still change.
    Two configs are equal only if they are the same object.
    """

    i_vec: np.ndarray
    alpha: np.ndarray
    ref: ReferenceSpinors = DEFAULT_REFERENCES
    hbar: float = 1.0
    mu: float = 1.0
    # the frames of the last spectrum that sample_spinors walked in one block
    _frames: _Last = field(default_factory=_Last, init=False, repr=False)

    def __post_init__(self):
        # written so that NaN fails it
        if not (0 < self.hbar < math.inf and 0 < self.mu < math.inf):
            raise ValueError(f"hbar and mu must be finite and positive, got {self.hbar}, {self.mu}")
        object.__setattr__(self, "i_vec", _frozen(_check_unit("i_vec", self.i_vec)))
        object.__setattr__(self, "alpha", _frozen(_check_spinor("alpha", self.alpha), complex))


@dataclass(frozen=True, eq=False)
class SpinField:
    """Sampled local polarization: density rho and unit vector s at grid points.

    Rows where rho falls below 1e-12 of the peak are node points; their s rows
    are NaN and flagged in `node`.  Two fields are equal only if they are the
    same object.
    """

    x: np.ndarray
    t: float
    rho: np.ndarray
    s: np.ndarray
    node: np.ndarray = field(repr=False, default=None)


def _power(x, p):
    """x**p of a float, inf where it overflows (a float ** raises OverflowError there)."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def gaussian_spectrum(k0, sigma_k: float, n_per_axis: int, span: float) -> Spectrum:
    """Gaussian weighting sampled on a cubic midpoint grid around k0.

    Parameters
    ----------
    k0 : array_like, shape (3,)
        Grid center; must satisfy |k0| > 3 sigma_k so the grid stays clear of
        the origin and the sampled directions stay in one hemisphere.
    sigma_k : float
        Width of |A|^2 per axis: A(k) ~ exp(-|k - k0|^2 / (4 sigma_k^2)).
    n_per_axis : int
        Odd number of samples per axis (the center sample then sits at k0).
    span : float
        Grid half-width per axis in units of sigma_k.

    Returns
    -------
    Spectrum
        Lexicographically ordered samples with weights equal to the cell
        volume, renormalized so sum(weight |A|^2) is exactly 1.
    """
    k0 = np.asarray(k0, dtype=float)
    if n_per_axis < 1 or n_per_axis % 2 == 0:
        raise BadGrid(f"n_per_axis must be odd and positive, got {n_per_axis}")
    # written so that NaN fails it
    if not (np.isfinite(k0).all() and 0 < span < math.inf and 0 < sigma_k < math.inf):
        raise BadGrid(
            f"k0 must be finite, span and sigma_k finite and positive; got {k0.tolist()}, {span}, {sigma_k}"
        )
    if math.hypot(*k0) <= 3.0 * sigma_k + EPS_K:
        raise SpectrumNearOrigin(
            f"|k0| = {math.hypot(*k0)} is within 3 sigma_k = {3 * sigma_k} of "
            "the origin; samples would reach the zero wave vector"
        )
    half = span * sigma_k
    h = 2.0 * half / n_per_axis
    volume, scale = _power(h, 3), 4.0 * _power(sigma_k, 2)
    # written so that NaN fails it
    if not (0 < volume < math.inf and 0 < scale < math.inf):
        raise BadGrid(
            f"span {span} and sigma_k {sigma_k} give a cell volume of {volume} and 4 sigma_k^2 = "
            f"{scale}; both must be finite and positive"
        )
    axes = [k0[i] - half + (np.arange(n_per_axis) + 0.5) * h for i in range(3)]
    k = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    weight = np.full(len(k), volume)
    amp = np.exp(-np.sum((k - k0) ** 2, axis=1) / scale).astype(complex)
    amp /= np.sqrt(np.sum(weight * np.abs(amp) ** 2))
    return Spectrum(k=k, amplitude=amp, weight=weight)


def dispersion(k, cfg: PacketConfig) -> float:
    """Angular frequency hbar |k|^2 / (2 mu) of a plane wave; an (..., 3) array gives one per row.

    The sum runs over the last axis, so (..., 1) rows give the one-axis terms
    hbar k_a^2 / (2 mu) of the separable sum.
    """
    k = np.asarray(k, dtype=float)
    return _item(cfg.hbar * np.sum(k**2, axis=-1) / (2.0 * cfg.mu))


def _batch_shape(spec: Spectrum, cfg: PacketConfig):
    """Leading shape of the packets: the spectrum's, i_vec's and alpha's, broadcast."""
    try:
        return _broadcast_shapes(spec.weight.shape[:-1], cfg.i_vec.shape[:-1], cfg.alpha.shape[:-1])
    except ValueError:
        raise ValueError(
            f"packet batch shapes do not broadcast: spectrum {spec.weight.shape[:-1]}, "
            f"i_vec {np.shape(cfg.i_vec)[:-1]}, alpha {np.shape(cfg.alpha)[:-1]}"
        ) from None


def _frame_blocks(spec: Spectrum, cfg: PacketConfig, fn, keep=False):
    """Yield (samples, fn(frames of the samples, cfg.ref)), _FRAME_BUDGET frames at a time.

    Each sample takes its own direction k_hat as quantization axis and shares
    its packet's characterization vector cfg.i_vec.  Blocks run in sample order,
    and errors name a sample by its index in the whole spectrum.  With keep,
    the frames of a spectrum that fits in one block stay in cfg (a _Last),
    keyed by the bits of k_hat and cfg.i_vec, so the next such call on them
    reuses the frames and what they computed; a larger spectrum keeps nothing.
    """
    packets = math.prod(_batch_shape(spec, cfg))
    per = max(1, _FRAME_BUDGET // max(1, packets))
    keep = keep and packets * len(spec) <= _FRAME_BUDGET
    # each packet's (..., 3) vector as (..., 1, 3), to broadcast over samples
    i_vec = cfg.i_vec[..., None, :]
    for lo in range(0, len(spec), per):
        k = spec.k[..., lo : lo + per, :]
        # read-only, so a frame keeps it without a copy
        (k_hat,) = _read_only(k / _norm(k)[..., None])
        try:
            if keep:
                frame = cfg._frames.get(_bits(k_hat, cfg.i_vec), lambda: build_frame(k_hat, i_vec))
            else:
                frame = build_frame(k_hat, i_vec)
            block = fn(frame, cfg.ref)
        except (DegenerateFrame, ReferenceAnnihilated) as exc:
            # the frames may broadcast one spectrum over many packets
            k = np.broadcast_to(k, np.broadcast_shapes(k.shape, i_vec.shape))[exc.index]
            index = exc.index[:-1] + (exc.index[-1] + lo,)
            where = f"{_sample(index)} with k = {k.tolist()}"
            if isinstance(exc, DegenerateFrame):
                message = f"{where} is parallel to the characterization vector: {exc}"
            else:
                message = f"{where}: {exc}; choose references valid on the whole spectrum support"
            raise type(exc)(message, index) from exc
        yield slice(lo, lo + per), block
        # a block is freed before the next is built, once the caller drops it too
        del frame, block


def sample_spinors(spec: Spectrum, cfg: PacketConfig, branch: int = 0) -> np.ndarray:
    """Per-sample spinors chi(k_hat): the superposition (branch 0) or one eigenspinor.

    branch +1/-1 selects the corresponding eigenspinor instead of the
    superposition varpi alpha.  A batch of packets gives (..., n, 2), each
    packet's samples composed with its own alpha.  Frames are built and freed
    _FRAME_BUDGET at a time, so only the result grows with the spectrum; the
    frames of a spectrum that fits in one block stay in cfg for the next call
    on the same spectrum (see _frame_blocks).
    Raises DegenerateFrame naming the offending sample when some k is parallel
    to the characterization vector, and ReferenceAnnihilated when the
    references fail on the spectrum's support.
    """
    if branch not in (0, +1, -1):
        raise ValueError(f"branch must be 0, +1 or -1, got {branch!r}")
    out = np.empty(_batch_shape(spec, cfg) + (len(spec), 2), dtype=complex)
    alpha = cfg.alpha[..., None, :]
    for samples, varpi in _frame_blocks(spec, cfg, mapping_matrix, keep=True):
        # branch +1 and -1 take the columns 0 and 1 of varpi, chi+ and chi-
        out[..., samples, :] = varpi[..., (1 - branch) // 2] if branch else _compose(varpi, alpha)
    return out


def _sorted_unique(ordered):
    """The distinct values of a sorted 1-D array.

    np.unique would argsort to return an inverse, and import numpy.ma without one.
    """
    keep = np.ones(len(ordered), bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _tensor_axes(a):
    """Per-column axes of a lexicographic tensor grid, or None if `a` is not one.

    `a` is a grid when the sorted unique values of its columns rebuild it
    exactly as their `ij` meshgrid, last column fastest.  Such a grid's axes
    are the values at the leading runs of its columns, so they are read off
    there, without a sort, and kept if they increase and rebuild `a`, compared
    by value (a NaN fails both tests).
    """
    axes, run = [], len(a)
    for col in a.T:
        # a column steps once per run of the columns after it
        step = int(np.argmax(col[:run] != col[0])) or run
        axes.append(col[:run:step])
        run = step
    shape = [len(ax) for ax in axes]
    if math.prod(shape) != len(a) or not all((ax[1:] > ax[:-1]).all() for ax in axes):
        return None
    grid = a.reshape(*shape, len(shape))
    # column i, its grid axis i moved last, against axis i's values
    return axes if all((np.moveaxis(grid[..., i], i, -1) == ax).all() for i, ax in enumerate(axes)) else None


def _separable_sum(cfg, coeff, k_axes, x_axes, t):
    """The plane-wave sum on a tensor grid of points from a tensor-grid spectrum.

    The phase factors per axis, exp(i(k.x - w t)) = prod_a exp(i(k_a x_a -
    hbar k_a^2 t / 2 mu)), so the sum is three contractions of the
    (n_kx, n_ky, n_kz, 2) coefficient tensor with (n_x, n_k) tables.
    """
    psi = coeff.reshape(*(len(ax) for ax in k_axes), 2)
    for k_a, x_a in zip(k_axes, x_axes):
        table = np.exp(1j * (np.multiply.outer(x_a, k_a) - t * dispersion(k_a[:, None], cfg)))
        # contract the leading k axis; the new point axis goes last, so after
        # three steps the axes are (x, y, z, spinor) again
        psi = np.moveaxis(np.tensordot(table, psi, axes=(1, 0)), 0, -2)
    return psi.reshape(-1, 2)


# np.broadcast_to and np.broadcast_shapes, skipping their argument handling
# where there is nothing to broadcast: on the small blocks of verify that
# handling took longer than the sums


def _broadcast(a, shape):
    return a if a.shape == shape else np.broadcast_to(a, shape)


def _broadcast_shapes(*shapes):
    return shapes[0] if shapes.count(shapes[0]) == len(shapes) else np.broadcast_shapes(*shapes)


def _dense_rows(n_k):
    """Rows per block of the dense sum: the (rows, n_k) phase block fits DENSE_BLOCK_BYTES.

    With its temporaries the dense sum peaks at about twice this.
    """
    return max(1, DENSE_BLOCK_BYTES // (np.dtype(complex).itemsize * n_k))


def _dense_sum(spec, cfg, coeff, points, t):
    """The plane-wave sum at points (..., m, 3), one bounded block of phase factors at a time.

    Each packet's points meet only its own samples: spec.k (..., n, 3), coeff
    (..., n, 2) and t (...) broadcast against the points' leading shape.  A
    block holds whole packets, or runs of one packet's points when those
    alone overflow the budget.
    """
    t = np.asarray(t, dtype=float)
    batch = _broadcast_shapes(points.shape[:-2], spec.k.shape[:-2], coeff.shape[:-2], t.shape)
    m, n = points.shape[-2], spec.k.shape[-2]

    def flat(a, tail):
        return np.ascontiguousarray(_broadcast(a, batch + tail).reshape((-1,) + tail))

    k, coeff, points = flat(spec.k, (n, 3)), flat(coeff, (n, 2)), flat(points, (m, 3))
    k_t = k.swapaxes(-1, -2)
    omega_t = flat(t, ())[:, None, None] * dispersion(k, cfg)[:, None, :]
    out = np.empty((len(points), m, 2), dtype=complex)
    rows = _dense_rows(n)
    per = max(1, rows // max(m, 1))
    for p in range(0, len(points), per):
        packets = slice(p, p + per)
        for lo in range(0, m, rows):
            block = (packets, slice(lo, lo + rows))
            phases = 1j * (points[block] @ k_t[packets] - omega_t[packets])
            np.exp(phases, out=phases)
            # per-point reduction over samples in index order, not a BLAS product
            out[block + (0,)] = (phases * coeff[packets, None, :, 0]).sum(axis=-1)
            out[block + (1,)] = (phases * coeff[packets, None, :, 1]).sum(axis=-1)
            # free the block before the next one is built
            del phases
    return out.reshape(batch + (m, 2))


def _plane_wave_sum(spec, cfg, spinors, points, t):
    """Sum each packet's spectrum at its points (..., m, 3).

    One packet's points take the per-axis sum when they and the spectrum are
    tensor grids (_tensor_axes), and the dense sum otherwise.  The two paths
    agree to rounding, and each is deterministic, so repeated calls give
    identical results.
    Raises ValueError for a time or a point that is not finite, for phases
    k.x - omega t that may overflow, which would make every sum NaN, and for
    phases that may reach pi * 2^53, where one rounding of the phase argument
    (up to 2^-53 of it) may reach pi and no digit of a sum is correct.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    t = np.asarray(t, dtype=float)
    # the largest |k_a|, |x_a| and |t|, each NaN or inf if some entry is
    k_max, x_max, t_max = (float(np.abs(a).max(initial=0.0)) for a in (spec.k, points, t))
    if not (x_max < math.inf and t_max < math.inf):
        bad = points[~np.isfinite(points).all(axis=-1)].tolist()
        raise ValueError(f"time t and every point must be finite, got t = {t}, points {bad}")
    # bounds on |k.x| and omega |t|, as |k|^2 <= 3 k_max^2.  Past pi * 2^53
    # one rounding of the phase argument (2^-53 of it) may reach pi; the test
    # is written so that NaN and inf fail it too
    kx, omega_t = 3.0 * k_max * x_max, 3.0 * cfg.hbar * k_max * k_max / (2.0 * cfg.mu) * t_max
    if not 2.0**-53 * (kx + omega_t) < math.pi:
        lost = "overflow" if not kx + omega_t < math.inf else (
            f"leave no correct digit past pi * 2^53 = {math.pi * 2.0**53:.3g}"
        )
        raise ValueError(
            f"plane-wave phases {lost}: |k.x| up to {kx:.3g} and omega |t| up to "
            f"{omega_t:.3g}; choose a smaller time or grid"
        )
    coeff = (spec.weight * spec.amplitude)[..., None] * spinors
    # one point costs less densely than the grid detection would, and only a
    # single packet's points (m, 3) can form a grid
    k_axes = _tensor_axes(spec.k) if points.ndim == 2 and len(points) > 1 else None
    x_axes = _tensor_axes(points) if k_axes is not None else None
    if x_axes is None:
        out = _dense_sum(spec, cfg, coeff, points, t)
    else:
        out = _separable_sum(cfg, coeff, k_axes, x_axes, t)
    return (2.0 * np.pi) ** -1.5 * out


def _packet_points(spec: Spectrum, cfg: PacketConfig, x, t):
    """One point per packet: x as (..., 1, 3) points and t as (...) times.

    x must broadcast to the batch shape + (3,) and t to the batch shape.
    """
    batch = _batch_shape(spec, cfg)
    x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    try:
        return _broadcast(x, batch + (3,))[..., None, :], _broadcast(t, batch)
    except ValueError:
        raise ValueError(
            f"x must have shape {batch + (3,)} and t shape {batch} (or broadcast to them), "
            f"got {x.shape} and {t.shape}"
        ) from None


def evaluate_wavefunction(spec: Spectrum, cfg: PacketConfig, x, t) -> np.ndarray:
    """Unnormalized spinor amplitude of each packet at its space-time point.

    One packet takes a 3-vector x and a time t and gives a 2-spinor.  A batch
    takes x (..., 3) and t scalar or (...), and gives (..., 2).
    """
    points, t = _packet_points(spec, cfg, x, t)
    return _plane_wave_sum(spec, cfg, sample_spinors(spec, cfg), points, t)[..., 0, :]


def eigen_component(spec: Spectrum, cfg: PacketConfig, branch: int, x, t) -> np.ndarray:
    """Eigen component of the packet: the same sum with chi+ or chi- per sample.

    The full amplitude decomposes as alpha_1 (+ branch) + alpha_2 (- branch).
    Shapes as in evaluate_wavefunction.
    """
    if branch not in (+1, -1):
        raise ValueError(f"branch must be +1 or -1, got {branch!r}")
    points, t = _packet_points(spec, cfg, x, t)
    spinors = sample_spinors(spec, cfg, branch=branch)
    return _plane_wave_sum(spec, cfg, spinors, points, t)[..., 0, :]


def local_spv(spec: Spectrum, cfg: PacketConfig, x, t, rho_floor: float = 0.0):
    """Probability density and unit polarization vector of each packet at its point.

    Returns (rho, s) with s = Psi^dag sigma Psi / rho: a float and a 3-vector
    for one packet, (...) and (..., 3) arrays for a batch.  Raises NodePoint,
    with the first such packet in `index`, when rho does not exceed rho_floor
    (default: only an exactly vanishing density), which must be finite and >= 0.
    """
    # written so that NaN fails it
    if not 0.0 <= rho_floor < math.inf:
        raise ValueError(f"rho_floor must be finite and >= 0, got {rho_floor}")
    psi = evaluate_wavefunction(spec, cfg, x, t)
    rho, sdens = _density_and_spin(psi)
    node = rho <= rho_floor
    if node.any():
        index = _first(node)
        x_node = np.broadcast_to(np.asarray(x, dtype=float), rho.shape + (3,))[index]
        raise NodePoint(f"density {rho[index]}{_packet(index)} at x = {x_node.tolist()}", index)
    return _item(rho), sdens / rho[..., None]


def spin_field(spec: Spectrum, cfg: PacketConfig, points, t: float) -> SpinField:
    """Local polarization field of one packet at one time over a batch of points.

    Node points (rho below 1e-12 of the grid peak) get NaN polarization rows, so
    one node cannot abort a field.  Frames are built _FRAME_BUDGET at a time.
    """
    batch = _batch_shape(spec, cfg)
    if batch or np.ndim(t):
        raise ValueError(
            f"spin_field takes one packet at one time, got a batch of shape {batch} "
            f"and t of shape {np.shape(t)}"
        )
    # through a copy of cfg, which keeps the frames (_frame_blocks) only for
    # this call: a field walks them once, and they would add to its peak
    spinors = sample_spinors(spec, replace(cfg))
    psi = _plane_wave_sum(spec, cfg, spinors, points, t)
    rho, sdens = _density_and_spin(psi)
    peak = rho.max(initial=0.0)
    node = rho < 1e-12 * peak if peak > 0.0 else np.ones(len(rho), dtype=bool)
    s = np.full_like(sdens, np.nan)
    np.divide(sdens, rho[:, None], out=s, where=~node[:, None])
    return SpinField(
        x=np.atleast_2d(np.asarray(points, dtype=float)), t=float(t), rho=rho, s=s, node=node
    )


def total_spin(spec: Spectrum, cfg: PacketConfig) -> np.ndarray:
    """Total spin: (hbar/2) alpha^dag [sum weight |A|^2 sigma^H(k_hat)] alpha.

    A sample adds 2 Re z u + 2 Im z v + (|alpha_1|^2 - |alpha_2|^2) w on its own
    triad, z = e conj(alpha_1) alpha_2 with e = exp(i phi0) the cross-checked
    phase of its sigma_u and sigma_v.  No time enters; |S| <= hbar/2 up to
    quadrature error.  A batch of packets gives one (..., 3) spin each.  Samples
    run in blocks of _FRAME_BUDGET frames (packets x samples), bounding memory.
    """
    a1, a2 = cfg.alpha[..., None, 0], cfg.alpha[..., None, 1]
    along_w = (np.abs(a1) ** 2 - np.abs(a2) ** 2)[..., None]
    total = 0.0
    # the cross-check runs on every frame; only its phase is read here.  No
    # frames are kept (keep): the sweep and verify walk each config's once
    for samples, (frame, e) in _frame_blocks(spec, cfg, lambda f, ref: (f, _checked_phase(f, ref)[0])):
        z = e * (a1.conj() * a2)
        expect = 2.0 * z.real[..., None] * frame.u + 2.0 * z.imag[..., None] * frame.v
        expect += along_w * frame.w
        prob = spec.weight[..., samples] * np.abs(spec.amplitude[..., samples]) ** 2
        rows = prob[..., None] * expect
        # the carried total joins the block's first row: summed over samples
        # in index order, as one running total whatever the budget
        rows[..., 0, :] += total
        total = np.add.reduce(rows, axis=-2)
        # dropped before _frame_blocks builds the next block
        del frame, e
    return 0.5 * cfg.hbar * total


def total_spin_i_sweep(spec: Spectrum, cfg: PacketConfig, axis, n_steps: int):
    """Total spin of one packet under rotation of its characterization vector about an axis.

    Returns (phis, spins): n_steps angles uniform on [0, 2 pi) and the total
    spin at each rotated characterization vector.  The steps run as batches of
    up to _FRAME_BUDGET packets per total_spin call, which walks the samples in
    blocks of _FRAME_BUDGET frames (steps x samples), so memory does not grow
    with n_steps and each block's sample directions serve all its steps.  A
    geometry error names the sweep step.
    """
    batch = _batch_shape(spec, cfg)
    if batch:
        raise ValueError(f"total_spin_i_sweep takes one packet, got a batch of shape {batch}")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    axis = _single("axis", _checked_axis("axis", axis))
    phis = 2.0 * np.pi * np.arange(n_steps) / n_steps
    i_rots = _so3(axis, phis) @ cfg.i_vec
    spins = np.empty((n_steps, 3))
    per = _FRAME_BUDGET
    for lo in range(0, n_steps, per):
        steps = slice(lo, lo + per)
        try:
            spins[steps] = total_spin(spec, replace(cfg, i_vec=i_rots[steps]))
        except (DegenerateFrame, ReferenceAnnihilated) as exc:
            # the block's packet b is sweep step lo + b
            b, j = exc.index
            where = f"step {lo + b} (phi = {float(phis[lo + b])}), sample {j}"
            message = where + str(exc).removeprefix(_sample(exc.index))
            raise type(exc)(message, (lo + b, j)) from exc
    return phis, spins


def position_grid(n_per_axis: int, half_span: float):
    """Cubic lexicographic grid of n^3 points spanning [-half_span, half_span]^3.

    Returns (points, spacing); the inclusive grid has spacing
    2 half_span / (n - 1).
    """
    if n_per_axis < 2:
        raise BadGrid(f"position grid needs at least 2 points per axis, got {n_per_axis}")
    # written so that NaN fails it; np.linspace needs the width as a finite float
    if not 0 < 2.0 * half_span < math.inf:
        raise BadGrid(f"position grid half-span must be positive and twice it finite, got {half_span}")
    ax = np.linspace(-half_span, half_span, n_per_axis)
    points = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    return points, float(ax[1] - ax[0])


def _csv_block(block):
    """ASCII CSV rows of a block of a table, each value as %.17g, in one call of the _g17 kernel.

    A block of fewer than _g17._KERNEL_MIN values is formatted value by value.
    A column with at least two rows per distinct value (grid coordinates, a
    constant time) formats each distinct value once.  Values are keyed by bit
    pattern, not by float value: -0.0 and 0.0 print differently.  Each column
    then gets a slot only as wide as the _g17 rows that its values use in the
    block (about 20 of the 44 for a field's coordinates, one for its time), so
    the transposing copy and the NUL compaction handle about 165 bytes a field
    row instead of 8 x 45.
    """
    rows, cols = block.shape
    if block.size < _g17._KERNEL_MIN:
        # the bytes of the kernel's own small path, without its slot array
        row = ",".join(["%.17g"] * cols) + "\n"
        return "".join([row % tuple(values) for values in block.tolist()]).encode()
    repeated = {}
    for j in range(cols):
        column = block[:, j].view(np.int64)
        bits = _sorted_unique(np.sort(column))
        if 2 * len(bits) <= rows:
            repeated[j] = bits.view(np.float64), np.searchsorted(bits, column)
    # each column's values, or its distinct values, as one run of the text
    values = [repeated[j][0] if j in repeated else block[:, j] for j in range(cols)]
    starts = [0, *itertools.accumulate(len(v) for v in values)]
    text = _g17.format_block(np.concatenate(values))
    used = [np.flatnonzero(m) for m in np.bitwise_or.reduceat(text, starts[:-1], axis=1).T]
    # each column's slot and its separator, in a buffer that translate() can
    # compact without another copy; NULs pad the bytes a value does not use
    ends = list(itertools.accumulate(len(u) + 1 for u in used))
    buf = bytearray(rows * ends[-1])
    out = np.frombuffer(buf, np.uint8).reshape(rows, ends[-1])
    out[:, [end - 1 for end in ends]] = ord(",")
    out[:, -1] = ord("\n")
    for j, (u, end) in enumerate(zip(used, ends)):
        slots = text[u, starts[j] : starts[j + 1]].T
        dest = out[:, end - 1 - len(u) : end - 1]
        if j in repeated:
            # the few distinct slots, contiguous, each gathered as one void item
            item = np.dtype((np.void, len(u)))
            dest.view(item)[:, 0] = np.ascontiguousarray(slots).view(item)[repeated[j][1], 0]
        else:
            dest[...] = slots
    return buf.translate(None, b"\0")


def _overwrite(path):
    """Open path in binary to overwrite it in place; write at least one byte.

    An existing regular file is cut as O_TRUNC would cut it, to zero bytes,
    unless it fits in one block (st_blksize): then it is cut to its first
    byte, which the first write replaces.  That keeps its one block, which
    a cut to zero would free, and ext4 (auto_da_alloc) would then flush the
    file when it is closed.  So the file holds exactly the bytes written, as
    after open(path, "wb"), also when a write fails midway or the process is
    killed, except that until a first byte reaches a file cut to one byte,
    it holds the old first byte where a truncating open leaves it empty.
    The inode, links and mode are kept; /dev/null or a pipe is written as is.

    This pays only where a run rewrites an existing output of at most one
    block on ext4: a 634-byte table over one already on disk took 0.24 ms
    instead of 0.44 ms (2-core host).  Any other write costs a truncating
    open plus these calls, 0.03-0.06 ms more.  Overwriting with no cut at
    open, trimming only at the end, was faster still, but a killed rerun
    then left its new rows followed by the old file's; a temporary file
    renamed over the output would change its inode, links and mode.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    fh = os.fdopen(fd, "wb")
    try:
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > 1:
            os.ftruncate(fd, 1 if info.st_size <= getattr(info, "st_blksize", 0) else 0)
    except BaseException:
        fh.close()
        raise
    return fh


def write_table(path, header, table) -> None:
    """Write a header line and one CSV row per table row, each value as %.17g.

    The table must be 2-D with one column per header field, else ValueError.
    Rows are formatted TABLE_BLOCK at a time, so memory does not grow with
    the table.  The file is written in binary, so every line ends in \\n on
    every platform, and overwritten in place (_overwrite).
    """
    table = np.asarray(table, dtype=np.float64)
    fields = header.count(",") + 1
    if table.ndim != 2 or table.shape[1] != fields:
        raise ValueError(
            f"a table for header '{header}' must be 2-D with {fields} columns, "
            f"got shape {table.shape}"
        )
    with _overwrite(path) as fh:
        fh.write(f"{header}\n".encode())
        for lo in range(0, len(table), TABLE_BLOCK):
            fh.write(_csv_block(table[lo : lo + TABLE_BLOCK]))


def save_spectrum(spec: Spectrum, path) -> None:
    """Write a spectrum as CSV rows kx,ky,kz,re_A,im_A,weight."""
    table = np.column_stack([spec.k, spec.amplitude.real, spec.amplitude.imag, spec.weight])
    write_table(path, SPECTRUM_HEADER, table)


def _spectrum_column(texts):
    """The floats of one spectrum column, each text converted as float() would.

    A column whose first 64 texts hold a repeat (a grid's k components, a
    constant im_A or weight) converts each distinct text once and gathers
    the column through a dict, the reader's side of _csv_block's repeated
    columns.  Any other column converts in one array call: a dict of
    distinct texts would only add memory.  Either way each text goes
    through the same numpy conversion, so the values are bitwise the same.
    """
    head = texts[:64]
    if len(set(head)) == len(head):
        return np.array(texts, dtype=float)
    distinct = list(set(texts))
    value = dict(zip(distinct, np.array(distinct, dtype=float).tolist()))
    return np.fromiter(map(value.__getitem__, texts), float, len(texts))


def load_spectrum(path) -> Spectrum:
    """Read a spectrum CSV; the exact header line is required.

    Blank lines are skipped but still count in the line numbers of errors.
    Every field converts as float() would, column by column (see
    _spectrum_column); a field that does not convert raises the error of a
    conversion of the whole body, which names its first bad field in row order.
    """
    # the lines of iterating the file, in one read: universal newlines make
    # each \r\n and lone \r a \n, and the empty text after a final \n is blank
    with open(path) as fh:
        lines = list(map(str.strip, fh.read().split("\n")))
    body = list(filter(None, lines))
    if not body or body[0] != SPECTRUM_HEADER:
        raise ValueError(f"spectrum file must start with header '{SPECTRUM_HEADER}'")
    del body[0]
    if set(map(str.count, body, itertools.repeat(","))) - {5}:
        # the header has 6 fields, so the first line of another count is in the body
        n, ln = next((n, ln) for n, ln in enumerate(lines, start=1) if ln and ln.count(",") != 5)
        raise ValueError(f"spectrum line {n} has {ln.count(',') + 1} fields, expected 6")
    n_rows = len(body)
    text = ",".join(body)
    # drop the lines before the split and the joined text after it, so the
    # fields are never held beside two copies of the body (under tracemalloc a
    # 21^3 spectrum of distinct values peaks here at 12.1 times its arrays,
    # 18.1 without this; the read above peaks at 6.3)
    del lines, body
    fields = text.split(",") if n_rows else []
    del text
    rows = np.empty((n_rows, 6))
    try:
        for j in range(6):
            rows[:, j] = _spectrum_column(fields[j::6])
    except ValueError:
        # raises for the first bad field in row order, not in column order
        np.array(fields, dtype=float)
        raise
    # filled part by part: re + 1j * im would turn a -0 part into +0
    amplitude = np.empty(n_rows, complex)
    amplitude.real, amplitude.imag = rows[:, 3], rows[:, 4]
    # read-only, so the Spectrum keeps them without a copy
    _read_only(rows, amplitude)
    return Spectrum(k=rows[:, :3], amplitude=amplitude, weight=rows[:, 5])


def save_spin_field(fld: SpinField, path) -> None:
    """Write a spin field as CSV rows x,y,z,t,rho,sx,sy,sz (NaN s at nodes)."""
    table = np.column_stack([fld.x, np.full(len(fld.rho), fld.t), fld.rho, fld.s])
    write_table(path, FIELD_HEADER, table)
