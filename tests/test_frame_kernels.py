"""The frame chain's kernels against the plain array formulas, bit for bit.

build_frame and eigen_spinors compute their (..., 3) and (..., 2) components
as (n, ...) rows, one elementwise pass per operation over the whole batch,
and sum the components by reducing the leading axis; the cross-check writes
its phase e as a cosine and a sine.  complex_basis, algebra._norm,
algebra._vdot and the ladder constant are the plain formulas themselves.
The references are array formulas on the last axis: np.cross, np.add.reduce
over the last axis, the complex division by sqrt2, the chart eigenspinors of
w.sigma written for every frame and picked with np.where, np.exp(1j phi0)
and total_spin's broadcast (..., 3) expectation rows.  Every result keeps
their bits, signed zeros included, on random frames, on the near-parallel
shell down to |w x I| = 2e-8, on axis-aligned frames with exact zeros, and
with either reference pair, and one frame alone gets the bits it gets inside
a block.  The cross-check's deviation keeps the bits of squares taken into a
new array.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from spinpol import (
    DEFAULT_REFERENCES,
    FALLBACK_REFERENCES,
    PacketConfig,
    build_frame,
    closed_form_residual,
    complex_basis,
    eigen_spinors,
    gaussian_spectrum,
    heisenberg,
    total_spin,
    wavepacket,
)
from spinpol.algebra import PAULI, _bilinear, _norm, _vdot
from spinpol.frames import EPS_LADDER, EPS_PARALLEL, SQRT2, Frame, _ladder_constant
from spinpol.heisenberg import _checked_phase
from spinpol.wavepacket import Spectrum
from test_frames import _signed_axis_vectors

REFERENCES = {"default": DEFAULT_REFERENCES, "fallback": FALLBACK_REFERENCES}


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def _reduce_norm(a):
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=-1))


def _reduce_vdot(a, b):
    return np.add.reduce(a.conj() * b, axis=-1)


def _reference_triad(w, i_vec):
    cross = np.cross(w, i_vec)
    cross -= _reduce_vdot(w, cross)[..., None] * w
    v = cross / _reduce_norm(cross)[..., None]
    return np.cross(v, w), v


def _reference_basis(u, v):
    return (u + 1j * v) / SQRT2, (v + 1j * u) / SQRT2


def _reference_ladder_constant(a, chi_to, chi_from):
    return np.add.reduce(np.multiply(a, _bilinear(chi_to, chi_from)), axis=-1)


def _complex(re, im):
    """The complex array with these parts, signed zeros included."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _reference_pair(w, u, ref):
    """(chi+, chi-, N+, N-, phi0, c) by the array formulas on the last axis.

    The chart pair (chi_s+, chi_s-) of w.sigma is (t, w_x + i w_y) n and
    (-(w_x - i w_y), t) n at w_z >= 0, else those of -w swapped; its ladder
    constant is sqrt2 (d0 - i s d1) with d = (u_x, u_y) - (w_x, w_y) u_z / (s t).
    """
    z = w[..., 2]
    t = 1.0 + np.abs(z)
    signed_t = np.copysign(t, z)
    q = w[..., :2] / signed_t[..., None]
    tn = np.sqrt(0.5 * t)
    x, y = q[..., 0] * tn, q[..., 1] * tn
    plus = np.stack([_complex(tn, 0.0), _complex(x, y)], axis=-1)
    minus = np.stack([_complex(-x, y), _complex(tn, 0.0)], axis=-1)
    south = np.signbit(z)[..., None]
    chi_s_plus, chi_s_minus = np.where(south, minus, plus), np.where(south, plus, minus)
    first, second = np.conj(chi_s_minus) * ref.chi1, np.conj(chi_s_plus) * (1j * ref.chi2)
    overlaps = np.stack([first[..., 0] + first[..., 1], second[..., 0] + second[..., 1]], axis=-1)
    norms = np.abs(overlaps)
    overlaps = overlaps / norms
    d = u[..., :2] - q * u[..., 2:]
    sd1 = np.where(np.signbit(z), -d[..., 1], d[..., 1])
    phases = _complex(d[..., :1], np.stack([-sd1, sd1], axis=-1)) * overlaps
    n_plus, n_minus = (1.0 / SQRT2) / norms[..., 0], (1.0 / SQRT2) / norms[..., 1]
    c = phases[..., 1] * np.conj(overlaps[..., 0]) * SQRT2
    return phases[..., :1] * chi_s_plus, phases[..., 1:] * chi_s_minus, n_plus, n_minus, np.angle(c), c


def _unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _random_pairs():
    rng = np.random.default_rng(2020)
    return _unit(rng.normal(size=(6000, 3))), _unit(rng.normal(size=(6000, 3)))


def _near_parallel_pairs():
    # |w x I| from 1e-2 down to 2e-8, twice EPS_PARALLEL
    rng = np.random.default_rng(2021)
    sines = np.geomspace(1e-2, 2 * EPS_PARALLEL, 600)
    w = _unit(rng.normal(size=(600, 3)))
    p = _unit(np.cross(w, rng.normal(size=(600, 3))))
    i_vec = np.sqrt(1.0 - sines**2)[:, None] * w + sines[:, None] * p
    return w, _unit(i_vec)


def _axis_pairs():
    """Every non-parallel pair of +-x, +-y, +-z with each sign of their zero entries."""
    vectors = _signed_axis_vectors()
    w, i_vec = (x.reshape(-1, 3) for x in np.broadcast_arrays(vectors[:, None], vectors))
    keep = np.abs(np.cross(w, i_vec)).max(axis=-1) > 0.0
    return w[keep], i_vec[keep]


SETS = {"random": _random_pairs, "near_parallel": _near_parallel_pairs, "axis_aligned": _axis_pairs}


def _accepted(w, i_vec, ref):
    """The pairs of a set whose frames ref's ladder operators do not annihilate."""
    u, v = _reference_triad(w, i_vec)
    w_plus, w_minus = _reference_basis(u, v)
    ok = (_reduce_norm(w_plus @ (PAULI @ ref.chi1)) >= EPS_LADDER) & (
        _reduce_norm(w_minus @ (PAULI @ ref.chi2)) >= EPS_LADDER
    )
    return w[ok], i_vec[ok]


@pytest.mark.parametrize("name", SETS)
def test_triad_keeps_the_np_cross_bits(name):
    w, i_vec = SETS[name]()
    u, v = _reference_triad(w, i_vec)
    f = build_frame(w, i_vec)
    assert _bits(f.u, f.v) == _bits(u, v)
    for j in range(len(w)):
        one = build_frame(w[j], i_vec[j])
        assert _bits(one.u, one.v) == _bits(u[j], v[j]), j
    # one w against a batch of I, and a batch of w against one I
    for one_w, many_i in ((w[0], i_vec), (i_vec[0], w)):
        many_i = many_i[_reduce_norm(np.cross(one_w, many_i)) > 1e-2]
        shared = build_frame(one_w, many_i)
        assert _bits(shared.u, shared.v) == _bits(*_reference_triad(one_w, many_i))


def test_complex_basis_keeps_the_complex_division_bits():
    # every sign of zero, small and unit parts, in either slot
    values = [0.0, -0.0, 0.5, -0.5, 1e-300, -1e-300, 1.0, -1.0]
    u, v = (np.array(x) for x in zip(*itertools.product(values, repeat=2)))
    u3, v3 = np.stack((u, v, -u), axis=-1), np.stack((v, -v, u), axis=-1)
    pairs = [(u3, v3)] + [_reference_triad(*SETS[name]()) for name in SETS]
    for u, v in pairs:
        frame = Frame(w=None, i_vec=None, u=u, v=v)
        assert _bits(*complex_basis(frame)) == _bits(*_reference_basis(u, v))
        for j in range(0, len(u), 7):
            one = Frame(w=None, i_vec=None, u=u[j], v=v[j])
            assert _bits(*complex_basis(one)) == _bits(*_reference_basis(u[j], v[j]))


def test_norms_and_dots_keep_the_reduce_bits():
    rng = np.random.default_rng(2022)
    # entries spread over 16 decades, so that the summation order shows
    scale = 10.0 ** rng.integers(-8, 8, size=(2, 3000, 3))
    real = rng.normal(size=(2, 3000, 3)) * scale
    cplx = real + 1j * rng.normal(size=(2, 3000, 3)) * scale[::-1]
    for a, b in ((real[0], real[1]), (cplx[0], cplx[1]), (cplx[0, :, :2], cplx[1, :, :2]),
                 (real[0, :, :2], cplx[1, :, 1:])):
        assert _bits(_norm(a), _vdot(a, b)) == _bits(_reduce_norm(a), _reduce_vdot(a, b))
        assert _bits(_norm(a.reshape(60, 50, -1))) == _bits(_reduce_norm(a).reshape(60, 50))
        for j in range(0, len(a), 11):
            one = (_norm(a[j]), _vdot(a[j], b[j]))
            assert _bits(*one) == _bits(_reduce_norm(a[j]), _reduce_vdot(a[j], b[j])), j


@pytest.mark.parametrize("ref_name", REFERENCES)
@pytest.mark.parametrize("name", SETS)
def test_eigen_pair_keeps_the_array_formula_bits(name, ref_name):
    ref = REFERENCES[ref_name]
    w, i_vec = _accepted(*SETS[name](), ref)
    f = build_frame(w, i_vec)
    pair = eigen_spinors(f, ref)
    expected = _reference_pair(np.broadcast_to(f.w, f.u.shape), f.u, ref)
    got = (pair.chi_plus, pair.chi_minus, pair.n_plus, pair.n_minus, pair.phi0, pair.c)
    assert _bits(*got) == _bits(*expected)
    w_plus, _ = complex_basis(f)
    assert _bits(_ladder_constant(w_plus, pair.chi_plus, pair.chi_minus)) == _bits(
        _reference_ladder_constant(w_plus, pair.chi_plus, pair.chi_minus)
    )
    for j in range(0, len(w), 5):
        one = eigen_spinors(build_frame(w[j], i_vec[j]), ref)
        got = (one.chi_plus, one.chi_minus, one.n_plus, one.n_minus, one.phi0, one.c)
        assert _bits(*got) == _bits(*(x[j] for x in expected)), j


@pytest.mark.parametrize("ref_name", REFERENCES)
@pytest.mark.parametrize("name", SETS)
def test_one_frame_alone_equals_its_place_in_a_block(name, ref_name):
    ref = REFERENCES[ref_name]
    w, i_vec = _accepted(*SETS[name](), ref)
    n = min(729, len(w) // 2)
    w, i_vec = w[: 2 * n].reshape(2, n, 3), i_vec[: 2 * n].reshape(2, n, 3)
    block = build_frame(w, i_vec)
    pair = eigen_spinors(block, ref)
    deviation = closed_form_residual(block, ref)
    e = _checked_phase(block, ref)[0]
    for s, j in itertools.product(range(2), range(n)):
        f = build_frame(w[s, j], i_vec[s, j])
        one = eigen_spinors(f, ref)
        assert _bits(f.u, f.v, one.chi_plus, one.chi_minus, one.n_plus, one.n_minus, one.phi0,
                     _checked_phase(f, ref)[0], closed_form_residual(f, ref)) == _bits(
            block.u[s, j], block.v[s, j], pair.chi_plus[s, j], pair.chi_minus[s, j],
            pair.n_plus[s, j], pair.n_minus[s, j], pair.phi0[s, j], e[s, j], deviation[s, j]), (s, j)


def _reference_checked_phase(frame, ref):
    """(e, deviation) of the cross-check with np.exp(1j phi0) and the squares in a new array."""
    pair = eigen_spinors(frame, ref)
    direct = heisenberg._direct(frame, pair.mapping)[0]
    e = np.exp(1j * np.asarray(pair.phi0))
    for (a, i, j), value in heisenberg._closed_entries(e):
        direct[a, i, j, ...] -= value
    squares = np.multiply(np.conj(direct), direct)
    norms = np.sqrt(np.add.reduce(squares.real.reshape((3, 4) + np.shape(e)), axis=1))
    return e, np.maximum(np.maximum(norms[0], norms[1]), norms[2])


@pytest.mark.parametrize("ref_name", REFERENCES)
@pytest.mark.parametrize("name", SETS)
def test_checked_phase_keeps_the_exp_and_product_bits(name, ref_name):
    ref = REFERENCES[ref_name]
    w, i_vec = _accepted(*SETS[name](), ref)
    f = build_frame(w, i_vec)
    e, _, deviation = _checked_phase(f, ref)
    assert _bits(e, deviation) == _bits(*_reference_checked_phase(f, ref))
    for j in range(0, len(w), 5):
        one = build_frame(w[j], i_vec[j])
        e_one, _, deviation_one = _checked_phase(one, ref)
        assert _bits(e_one, deviation_one) == _bits(*_reference_checked_phase(one, ref)), j


def test_checked_phase_keeps_the_exp_bits_at_a_negative_zero_phase(monkeypatch):
    # the sets' zero phases are all +0, but np.exp(1j * -0.0) is 1+0j where
    # the cosine and sine of -0 give 1-0j: phi0 = -0 is given by hand here
    w, i_vec = _accepted(*_axis_pairs(), DEFAULT_REFERENCES)
    eigen = heisenberg.eigen_spinors

    def negative_zero(frame, ref):
        pair = eigen(frame, ref)
        return replace(pair, phi0=np.where(pair.phi0 == 0.0, -0.0, pair.phi0))

    monkeypatch.setattr(heisenberg, "eigen_spinors", negative_zero)
    phi0 = eigen_spinors(build_frame(w, i_vec)).phi0
    phi0 = np.where(phi0 == 0.0, -0.0, phi0)
    assert np.count_nonzero(phi0 == 0.0) == 80
    e = _checked_phase(build_frame(w, i_vec), DEFAULT_REFERENCES)[0]
    assert _bits(e) == _bits(np.exp(1j * phi0))
    for j in np.flatnonzero(phi0 == 0.0):
        e_one = _checked_phase(build_frame(w[j], i_vec[j]), DEFAULT_REFERENCES)[0]
        assert _bits(e_one) == _bits(np.exp(1j * phi0[j])), j


def _reference_total_spin(spec, cfg):
    """total_spin as one block, with the expectation rows built as broadcast (..., 3) arrays."""
    k_hat = spec.k / np.linalg.norm(spec.k, axis=-1, keepdims=True)
    frame = build_frame(k_hat, cfg.i_vec[..., None, :])
    e = _checked_phase(frame, cfg.ref)[0]
    a1, a2 = cfg.alpha[..., None, 0], cfg.alpha[..., None, 1]
    z = e * (a1.conj() * a2)
    expect = 2.0 * z.real[..., None] * frame.u + 2.0 * z.imag[..., None] * frame.v
    expect += (np.abs(a1) ** 2 - np.abs(a2) ** 2)[..., None] * frame.w
    rows = (spec.weight * np.abs(spec.amplitude) ** 2)[..., None] * expect
    # the running total starts at 0.0
    rows[..., 0, :] += 0.0
    return 0.5 * cfg.hbar * np.add.reduce(rows, axis=-2)


def _axis_spectrum(i_vec, pole):
    """Samples along +-x, +-y, +-z, zero entries of each sign, off i_vec's axis and off `pole`."""
    w = _signed_axis_vectors()
    w = w[(np.abs(w @ i_vec) < 0.5) & (w @ pole < 0.5)] * 2.0
    return Spectrum(k=w, amplitude=np.full(len(w), len(w) ** -0.5), weight=np.ones(len(w)))


def _total_spin_cases():
    rng = np.random.default_rng(2023)
    i_vecs = _unit(rng.normal(size=(4, 3)))
    alphas = _unit(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
    default = gaussian_spectrum([0.0, 0.0, 5.0], 0.5, 9, 4.0)
    south = gaussian_spectrum([0.3, -0.2, -4.0], 0.5, 9, 4.0)
    x_axis, z_axis = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    return [
        (default, PacketConfig(i_vec=i_vecs, alpha=alphas)),
        (default, PacketConfig(i_vec=np.array([0.0, 0.6, 0.8]), alpha=np.array([0.6, 0.8]))),
        (south, PacketConfig(i_vec=i_vecs[0], alpha=alphas, ref=FALLBACK_REFERENCES)),
        # the default pair fails at -z and the fallback pair at +z
        (_axis_spectrum(x_axis, -z_axis), PacketConfig(i_vec=x_axis, alpha=alphas[0])),
        (_axis_spectrum(x_axis, -z_axis), PacketConfig(i_vec=x_axis, alpha=alphas)),
        (_axis_spectrum(z_axis, z_axis),
         PacketConfig(i_vec=z_axis, alpha=alphas, ref=FALLBACK_REFERENCES)),
    ]


def test_total_spin_keeps_the_broadcast_expectation_bits(monkeypatch):
    monkeypatch.setattr(wavepacket, "_FRAME_BUDGET", 10**6)
    cases = _total_spin_cases()
    for spec, cfg in cases:
        assert _bits(total_spin(spec, cfg)) == _bits(_reference_total_spin(spec, cfg))
