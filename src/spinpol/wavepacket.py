"""Plane-wave superpositions of a free spin-1/2 particle and their spin fields.

Each plane wave takes its own wave vector direction as quantization axis while
sharing one characterization vector and one Jones vector:

    Psi(x,t) = (2 pi)^(-3/2) sum_k weight A(k) chi(k_hat) exp(i(k.x - w(k) t))

so the packet's local polarization field and total spin are determined by the
weighting A(k), the Jones vector, and the shared characterization vector alone.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import _check_spinor, _check_unit, _density_and_spin, _first, _item
from .frames import (
    DEFAULT_REFERENCES,
    DegenerateFrame,
    ReferenceAnnihilated,
    ReferenceSpinors,
    build_frame,
    compose_spinor,
    mapping_matrix,
)
from .heisenberg import heisenberg_sigma
from .rotations import so3_rotation

# relative floor on |k|: a zero wave vector has no quantization axis
EPS_K = 1e-6
# quadrature sum of weight |A|^2 must match 1 this closely
NORM_TOL = 1e-9
# bytes of one block of complex phase factors in the dense plane-wave sum
DENSE_BLOCK_BYTES = 32 * 2**20

SPECTRUM_HEADER = "kx,ky,kz,re_A,im_A,weight"
FIELD_HEADER = "x,y,z,t,rho,sx,sy,sz"


class SpectrumNearOrigin(ValueError):
    """A spectrum sample sits at (or the grid reaches) the zero wave vector."""


class BadGrid(ValueError):
    """Grid parameters are unusable (even sample count, non-finite k0, span not finite and positive)."""


class NodePoint(ValueError):
    """Probability density vanishes here; the local polarization is undefined.

    `index` locates the first such packet of a batch (() for one packet).
    """

    def __init__(self, message, index=()):
        super().__init__(message)
        self.index = index


def _sample(index):
    """'sample j' of one spectrum, 'packet b, sample j' of a batch, from an index (..., j)."""
    *packet, j = index
    if not packet:
        return f"sample {j}"
    return f"packet {packet[0] if len(packet) == 1 else tuple(packet)}, sample {j}"


def _packet(index):
    return f" of packet {index[0] if len(index) == 1 else index}" if index else ""


@dataclass(frozen=True)
class Spectrum:
    """Discrete plane-wave spectrum: wave vectors, complex weights, quadrature weights.

    A batch of equal-size spectra, one per packet, carries leading axes (...):
    every check below then runs on each packet alone.

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
        object.__setattr__(self, "k", np.atleast_2d(np.asarray(self.k, dtype=float)))
        object.__setattr__(
            self, "amplitude", np.atleast_1d(np.asarray(self.amplitude, dtype=complex))
        )
        object.__setattr__(
            self, "weight", np.atleast_1d(np.asarray(self.weight, dtype=float))
        )
        shape = self.weight.shape
        if self.k.shape != shape + (3,) or self.amplitude.shape != shape:
            raise ValueError(
                "spectrum arrays must have matching lengths, k of shape (..., n, 3), "
                "amplitude and weight of shape (..., n)"
            )
        for name in ("k", "amplitude", "weight"):
            bad = ~np.isfinite(getattr(self, name))
            if bad.any():
                index = _first(bad)[: len(shape)]
                raise ValueError(f"spectrum {name} of {_sample(index)} is not finite")
        norms = np.linalg.norm(self.k, axis=-1)
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


@dataclass(frozen=True)
class PacketConfig:
    """Per-packet parameters: characterization vector, Jones vector, references.

    i_vec (..., 3) and alpha (..., 2) may carry one vector per packet; they
    broadcast against the spectrum's batch shape.  ref, hbar and mu are shared.
    Both are checked here, each packet's to within 1e-9 of unit norm.
    """

    i_vec: np.ndarray
    alpha: np.ndarray
    ref: ReferenceSpinors = DEFAULT_REFERENCES
    hbar: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        # written so that NaN fails it
        if not (0 < self.hbar < math.inf and 0 < self.mu < math.inf):
            raise ValueError(f"hbar and mu must be finite and positive, got {self.hbar}, {self.mu}")
        object.__setattr__(self, "i_vec", _check_unit("i_vec", self.i_vec))
        object.__setattr__(self, "alpha", _check_spinor("alpha", self.alpha))


@dataclass(frozen=True)
class SpinField:
    """Sampled local polarization: density rho and unit vector s at grid points.

    Rows where rho falls below 1e-12 of the peak are node points; their s rows
    are NaN and flagged in `node`.
    """

    x: np.ndarray
    t: float
    rho: np.ndarray
    s: np.ndarray
    node: np.ndarray = field(repr=False, default=None)


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
    if np.linalg.norm(k0) <= 3.0 * sigma_k + EPS_K:
        raise SpectrumNearOrigin(
            f"|k0| = {np.linalg.norm(k0)} is within 3 sigma_k = {3 * sigma_k} of "
            "the origin; samples would reach the zero wave vector"
        )
    half = span * sigma_k
    h = 2.0 * half / n_per_axis
    axes = [k0[i] - half + (np.arange(n_per_axis) + 0.5) * h for i in range(3)]
    k = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    weight = np.full(len(k), h**3)
    amp = np.exp(-np.sum((k - k0) ** 2, axis=1) / (4.0 * sigma_k**2)).astype(complex)
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
        return np.broadcast_shapes(
            spec.weight.shape[:-1], np.shape(cfg.i_vec)[:-1], np.shape(cfg.alpha)[:-1]
        )
    except ValueError:
        raise ValueError(
            f"packet batch shapes do not broadcast: spectrum {spec.weight.shape[:-1]}, "
            f"i_vec {np.shape(cfg.i_vec)[:-1]}, alpha {np.shape(cfg.alpha)[:-1]}"
        ) from None


def _per_sample(spec: Spectrum, cfg: PacketConfig, fn):
    """fn(frames of all samples, cfg.ref), naming the first offending sample on failure.

    Each sample takes its own direction k_hat as quantization axis and shares
    its packet's characterization vector cfg.i_vec.
    """
    k_hat = spec.k / np.linalg.norm(spec.k, axis=-1, keepdims=True)
    # each packet's (..., 3) vector as (..., 1, 3), to broadcast over samples
    i_vec = cfg.i_vec[..., None, :]
    try:
        return fn(build_frame(k_hat, i_vec), cfg.ref)
    except (DegenerateFrame, ReferenceAnnihilated) as exc:
        # the frames may broadcast one spectrum over many packets
        k = np.broadcast_to(spec.k, np.broadcast_shapes(k_hat.shape, i_vec.shape))[exc.index]
        where = f"{_sample(exc.index)} with k = {k.tolist()}"
        if isinstance(exc, DegenerateFrame):
            message = f"{where} is parallel to the characterization vector: {exc}"
        else:
            message = f"{where}: {exc}; choose references valid on the whole spectrum support"
        raise type(exc)(message, exc.index) from exc


def sample_spinors(spec: Spectrum, cfg: PacketConfig, branch: int = 0) -> np.ndarray:
    """Per-sample spinors chi(k_hat): the superposition (branch 0) or one eigenspinor.

    branch +1/-1 selects the corresponding eigenspinor instead of the
    superposition varpi alpha.  A batch of packets gives (..., n, 2), each
    packet's samples composed with its own alpha.  Raises DegenerateFrame
    naming the offending sample when some k is parallel to the
    characterization vector, and ReferenceAnnihilated when the references
    fail on the spectrum's support.
    """
    if branch not in (0, +1, -1):
        raise ValueError(f"branch must be 0, +1 or -1, got {branch!r}")
    varpi = _per_sample(spec, cfg, mapping_matrix)
    if branch == 0:
        return compose_spinor(varpi, cfg.alpha[..., None, :])
    return varpi[..., 0 if branch == +1 else 1]


def _tensor_axes(a):
    """Per-column axes of a lexicographic tensor grid, or None if `a` is not one.

    `a` is a grid when the sorted unique values of its columns rebuild it
    exactly as their `ij` meshgrid, last column fastest.
    """
    axes = [np.unique(a[:, i]) for i in range(a.shape[1])]
    if np.prod([len(ax) for ax in axes]) != len(a):
        return None
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(a.shape)
    return axes if np.array_equal(grid, a) else None


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
    batch = np.broadcast_shapes(points.shape[:-2], spec.k.shape[:-2], coeff.shape[:-2], t.shape)
    m, n = points.shape[-2], spec.k.shape[-2]

    def flat(a, tail):
        return np.ascontiguousarray(np.broadcast_to(a, batch + tail).reshape((-1,) + tail))

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
    tensor grids, and the dense sum otherwise.  Both paths are deterministic,
    so repeated calls give identical results.
    Raises ValueError for a time or a point that is not finite.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    t = np.asarray(t, dtype=float)
    if not (np.isfinite(points).all() and np.isfinite(t).all()):
        bad = points[~np.isfinite(points).all(axis=-1)].tolist()
        raise ValueError(f"time t and every point must be finite, got t = {t}, points {bad}")
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
        return np.broadcast_to(x, batch + (3,))[..., None, :], np.broadcast_to(t, batch)
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

    Node points (rho below 1e-12 of the grid peak) get NaN polarization rows
    instead of an error so one node cannot abort a whole field evaluation.
    """
    batch = _batch_shape(spec, cfg)
    if batch or np.ndim(t):
        raise ValueError(
            f"spin_field takes one packet at one time, got a batch of shape {batch} "
            f"and t of shape {np.shape(t)}"
        )
    spinors = sample_spinors(spec, cfg)
    psi = _plane_wave_sum(spec, cfg, spinors, points, t)
    rho, sdens = _density_and_spin(psi)
    peak = rho.max(initial=0.0)
    node = rho < 1e-12 * peak if peak > 0.0 else np.ones(len(rho), dtype=bool)
    s = np.full_like(sdens, np.nan)
    ok = ~node
    s[ok] = sdens[ok] / rho[ok, None]
    return SpinField(
        x=np.atleast_2d(np.asarray(points, dtype=float)), t=float(t), rho=rho, s=s, node=node
    )


def total_spin(spec: Spectrum, cfg: PacketConfig) -> np.ndarray:
    """Total spin: (hbar/2) alpha^dag [sum weight |A|^2 sigma^H(k_hat)] alpha.

    Each sample contributes its conjugated Pauli components expanded on its own
    triad; the result does not involve time.  |S| <= hbar/2 up to quadrature
    normalization error.  A batch of packets gives one (..., 3) spin each.
    """
    # each packet's alpha as a (2, 1) column against its samples' (3, 2, 2) components
    alpha = cfg.alpha[..., None, None, :, None]
    cartesian = _per_sample(spec, cfg, heisenberg_sigma).cartesian()
    expect = ((cartesian @ alpha)[..., 0] @ alpha[..., 0, :, :].conj())[..., 0].real
    prob = spec.weight * np.abs(spec.amplitude) ** 2
    # summed over samples in index order, as a running total
    return 0.5 * cfg.hbar * np.add.reduce(prob[..., None] * expect, axis=-2)


def total_spin_i_sweep(spec: Spectrum, cfg: PacketConfig, axis, n_steps: int):
    """Total spin of one packet under rotation of its characterization vector about an axis.

    Returns (phis, spins): n_steps angles uniform on [0, 2 pi) and the total
    spin at each rotated characterization vector.
    """
    batch = _batch_shape(spec, cfg)
    if batch:
        raise ValueError(f"total_spin_i_sweep takes one packet, got a batch of shape {batch}")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    axis = np.asarray(axis, dtype=float)
    phis = 2.0 * np.pi * np.arange(n_steps) / n_steps
    spins = np.empty((n_steps, 3))
    for i, phi in enumerate(phis):
        i_rot = so3_rotation(axis, phi) @ cfg.i_vec
        spins[i] = total_spin(spec, replace(cfg, i_vec=i_rot))
    return phis, spins


def position_grid(n_per_axis: int, half_span: float):
    """Cubic lexicographic grid of n^3 points spanning [-half_span, half_span]^3.

    Returns (points, spacing); the inclusive grid has spacing
    2 half_span / (n - 1).
    """
    if n_per_axis < 2:
        raise BadGrid(f"position grid needs at least 2 points per axis, got {n_per_axis}")
    # written so that NaN fails it
    if not 0 < half_span < math.inf:
        raise BadGrid(f"position grid half-span must be positive and finite, got {half_span}")
    ax = np.linspace(-half_span, half_span, n_per_axis)
    points = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    return points, float(ax[1] - ax[0])


def write_table(path, header, table) -> None:
    """Write a header line and one CSV row per table row, each value as %.17g."""
    row = ",".join(["%.17g"] * table.shape[1])
    lines = [header, *(row % tuple(r) for r in table.tolist())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def save_spectrum(spec: Spectrum, path) -> None:
    """Write a spectrum as CSV rows kx,ky,kz,re_A,im_A,weight."""
    table = np.column_stack([spec.k, spec.amplitude.real, spec.amplitude.imag, spec.weight])
    write_table(path, SPECTRUM_HEADER, table)


def load_spectrum(path) -> Spectrum:
    """Read a spectrum CSV; the exact header line is required."""
    with open(path) as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines or lines[0][1] != SPECTRUM_HEADER:
        raise ValueError(f"spectrum file must start with header '{SPECTRUM_HEADER}'")
    rows = []
    for n, ln in lines[1:]:
        toks = ln.split(",")
        if len(toks) != 6:
            raise ValueError(f"spectrum line {n} has {len(toks)} fields, expected 6")
        rows.append([float(tok) for tok in toks])
    rows = np.array(rows).reshape(-1, 6)
    return Spectrum(
        k=rows[:, :3], amplitude=rows[:, 3] + 1j * rows[:, 4], weight=rows[:, 5]
    )


def save_spin_field(fld: SpinField, path) -> None:
    """Write a spin field as CSV rows x,y,z,t,rho,sx,sy,sz (NaN s at nodes)."""
    table = np.column_stack([fld.x, np.full(len(fld.rho), fld.t), fld.rho, fld.s])
    write_table(path, FIELD_HEADER, table)
