"""Conjugated Pauli components: closed forms, algebra, rotation laws."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinpol import (
    DEFAULT_REFERENCES,
    FALLBACK_REFERENCES,
    build_frame,
    closed_form_residual,
    equivalence_residual,
    expectation_spv_residual,
    heisenberg_sigma,
    rotate_characterization,
    rotation_residual,
)
from spinpol.algebra import PAULI, _bilinear

X = np.array([1.0, 0.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def random_frame(rng):
    w = rng.normal(size=3)
    w /= np.linalg.norm(w)
    while True:
        i_vec = rng.normal(size=3)
        i_vec /= np.linalg.norm(i_vec)
        if np.linalg.norm(np.cross(w, i_vec)) > 1e-2:
            return build_frame(w, i_vec)


def test_axis_component_is_exactly_diagonal():
    rng = np.random.default_rng(61)
    for _ in range(100):
        hs = heisenberg_sigma(random_frame(rng))
        assert np.array_equal(hs.sigma_w, np.diag([1.0 + 0j, -1.0 + 0j]))


def test_transverse_components_for_the_default_frame():
    # phi0 = pi/2 here, so exp(i phi0) = i in the closed forms
    hs = heisenberg_sigma(build_frame(Z, X))
    assert_allclose(hs.sigma_u, [[0.0, 1.0j], [-1.0j, 0.0]], atol=1e-15)
    assert_allclose(hs.sigma_v, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_closed_forms_agree_with_direct_conjugation():
    rng = np.random.default_rng(62)
    for _ in range(300):
        assert closed_form_residual(random_frame(rng)) < 1e-12


def test_components_are_a_pauli_triple():
    rng = np.random.default_rng(63)
    for _ in range(200):
        hs = heisenberg_sigma(random_frame(rng))
        comps = (hs.sigma_u, hs.sigma_v, hs.sigma_w)
        for m in comps:
            assert np.linalg.norm(m - m.conj().T) < 1e-12
            assert abs(np.trace(m)) < 1e-12
            assert abs(np.linalg.det(m) + 1.0) < 1e-12
        for a in range(3):
            for b in range(a + 1, 3):
                assert np.linalg.norm(comps[a] @ comps[b] + comps[b] @ comps[a]) < 1e-12
        assert np.linalg.norm(hs.sigma_u @ hs.sigma_v - 1j * hs.sigma_w) < 1e-12
        assert np.linalg.norm(hs.sigma_v @ hs.sigma_w - 1j * hs.sigma_u) < 1e-12
        assert np.linalg.norm(hs.sigma_w @ hs.sigma_u - 1j * hs.sigma_v) < 1e-12


def test_expectation_reproduces_the_polarization_vector():
    rng = np.random.default_rng(64)
    for _ in range(300):
        alpha = rng.normal(size=2) + 1j * rng.normal(size=2)
        alpha /= np.linalg.norm(alpha)
        assert expectation_spv_residual(random_frame(rng), alpha) < 1e-12


def test_rotation_laws_at_fixture_angles():
    f = build_frame(Z, X)
    assert rotation_residual(f, 0.0) < 1e-15
    assert rotation_residual(f, np.pi / 2) < 1e-12
    # the ladder phase advances by the rotation angle: pi/2 -> pi
    hs_rot = heisenberg_sigma(rotate_characterization(f, np.pi / 2))
    assert abs(np.exp(1j * hs_rot.phi0) - np.exp(1j * np.pi)) < 1e-12


def test_rotation_laws_sweep():
    rng = np.random.default_rng(65)
    for _ in range(1000):
        assert rotation_residual(random_frame(rng), rng.uniform(0, 4 * np.pi)) < 1e-12


def test_equivalence_of_triad_rotation_and_conjugation():
    rng = np.random.default_rng(66)
    f = build_frame(Z, X)
    assert equivalence_residual(f, 0.0) < 1e-15
    assert equivalence_residual(f, 2 * np.pi) < 1e-12
    for _ in range(300):
        assert equivalence_residual(random_frame(rng), rng.uniform(0, 4 * np.pi)) < 1e-12


def test_phase_shift_law():
    rng = np.random.default_rng(67)
    for _ in range(300):
        f = random_frame(rng)
        phi = rng.uniform(0, 4 * np.pi)
        before = heisenberg_sigma(f).phi0
        after = heisenberg_sigma(rotate_characterization(f, phi)).phi0
        assert abs(np.exp(1j * after) - np.exp(1j * (before + phi))) < 1e-12


def test_component_invariants_hold_with_custom_references():
    from spinpol import FALLBACK_REFERENCES

    rng = np.random.default_rng(68)
    for _ in range(100):
        f = random_frame(rng)
        hs = heisenberg_sigma(f, FALLBACK_REFERENCES)
        assert np.array_equal(hs.sigma_w, np.diag([1.0 + 0j, -1.0 + 0j]))
        assert closed_form_residual(f, FALLBACK_REFERENCES) < 1e-12
        assert rotation_residual(f, rng.uniform(0, 2 * np.pi), FALLBACK_REFERENCES) < 1e-12


def test_cartesian_components_recompose_the_pauli_vector_expectation():
    # sanity on the cartesian() expansion itself: the three matrices transform
    # expectation values exactly like the ambient Pauli matrices do
    from spinpol import compose_spinor, dot_sigma, mapping_matrix

    rng = np.random.default_rng(69)
    for _ in range(100):
        f = random_frame(rng)
        hs = heisenberg_sigma(f)
        varpi = mapping_matrix(f)
        alpha = rng.normal(size=2) + 1j * rng.normal(size=2)
        alpha /= np.linalg.norm(alpha)
        chi = compose_spinor(varpi, alpha)
        for j, mat in enumerate(hs.cartesian()):
            direct = np.vdot(chi, dot_sigma(np.eye(3)[j]) @ chi).real
            assert abs(np.vdot(alpha, mat @ alpha).real - direct) < 1e-12


def test_batched_components_equal_stacked_single_frames():
    rng = np.random.default_rng(70)
    frames = [random_frame(rng) for _ in range(40)]
    batch = build_frame(np.array([f.w for f in frames]), np.array([f.i_vec for f in frames]))
    hs = heisenberg_sigma(batch)
    singles = [heisenberg_sigma(f) for f in frames]
    for name in ("sigma_u", "sigma_v", "sigma_w"):
        stacked = np.array([getattr(h, name) for h in singles])
        assert np.abs(getattr(hs, name) - stacked).max() <= 1e-15
    assert np.abs(hs.cartesian() - np.array([h.cartesian() for h in singles])).max() <= 1e-15
    assert hs.cartesian().shape == (40, 3, 2, 2)
    assert isinstance(singles[0].phi0, float)


@pytest.mark.parametrize("eps", [1e-2, 3e-3])
def test_closed_forms_hold_near_the_annihilating_axis(eps):
    # the default references are annihilated at w = -z: both of their ladder
    # images are small there, and phi0 must not be read from their overlap
    azimuth = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    shell = np.stack(
        (
            np.sin(eps) * np.cos(azimuth),
            np.sin(eps) * np.sin(azimuth),
            np.full_like(azimuth, -np.cos(eps)),
        ),
        axis=-1,
    )
    assert np.max(closed_form_residual(build_frame(shell, X))) <= 1e-12


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("pole", [-1.0, 1.0], ids=["default-south", "fallback-north"])
def test_closed_forms_and_rotation_laws_hold_at_the_annihilating_pole(eps, pole):
    # DEFAULT_REFERENCES are annihilated at -z and FALLBACK_REFERENCES at +z;
    # down to 1e-6 rad from the pole the chart eigenspinors keep every law at 1e-12
    ref = DEFAULT_REFERENCES if pole < 0 else FALLBACK_REFERENCES
    azimuth = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    shell = np.stack(
        (np.sin(eps) * np.cos(azimuth), np.sin(eps) * np.sin(azimuth), np.full(64, pole * np.cos(eps))),
        axis=-1,
    )
    f = build_frame(shell, X)
    phi = np.random.default_rng(72).uniform(0.0, 4.0 * np.pi, 64)
    assert np.max(closed_form_residual(f, ref)) <= 1e-12
    assert np.max(rotation_residual(f, phi, ref)) <= 1e-12
    assert np.max(equivalence_residual(f, phi, ref)) <= 1e-12
    for j in range(0, 64, 7):
        one = build_frame(shell[j], X)
        assert closed_form_residual(one, ref) <= 1e-12
        assert rotation_residual(one, phi[j], ref) <= 1e-12


def test_batched_residuals_equal_stacked_single_frames():
    rng = np.random.default_rng(71)
    frames = [random_frame(rng) for _ in range(50)]
    batch = build_frame(np.array([f.w for f in frames]), np.array([f.i_vec for f in frames]))
    phis = rng.uniform(0, 4 * np.pi, size=50)
    alphas = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    alphas /= np.linalg.norm(alphas, axis=1, keepdims=True)
    cases = [
        (closed_form_residual(batch), [closed_form_residual(f) for f in frames]),
        (rotation_residual(batch, phis), [rotation_residual(f, p) for f, p in zip(frames, phis)]),
        (equivalence_residual(batch, phis),
         [equivalence_residual(f, p) for f, p in zip(frames, phis)]),
        (expectation_spv_residual(batch, alphas),
         [expectation_spv_residual(f, a) for f, a in zip(frames, alphas)]),
    ]
    for batched, stacked in cases:
        assert batched.shape == (50,)
        assert all(type(r) is float for r in stacked)
        assert np.abs(batched - stacked).max() <= 1e-15


def test_cross_check_fires_on_a_rephased_eigenspinor(monkeypatch):
    # chi- off by a phase of 1e-6 with phi0 left as it was: the closed forms no
    # longer match the direct conjugation, and every caller must refuse
    from dataclasses import replace

    from spinpol import PacketConfig, Spectrum, heisenberg, total_spin, total_spin_i_sweep

    eigen_spinors = heisenberg.eigen_spinors

    def rephased(frame, ref):
        pair = eigen_spinors(frame, ref)
        return replace(pair, chi_minus=pair.chi_minus * np.exp(1e-6j))

    monkeypatch.setattr(heisenberg, "eigen_spinors", rephased)
    rng = np.random.default_rng(83)
    one = random_frame(rng)
    batch = build_frame(np.array([one.w] * 5), np.array([one.i_vec] * 5))
    spec = Spectrum(k=[[0.0, 0.0, 2.0], [0.0, 1.0, 2.0]], amplitude=[0.6, 0.8], weight=[1.0, 1.0])
    configs = (
        PacketConfig(i_vec=X, alpha=np.array([0.6, 0.8j])),
        PacketConfig(i_vec=np.tile(X, (3, 1)), alpha=np.array([0.6, 0.8j])),
    )
    for frame in (one, batch):
        with pytest.raises(RuntimeError, match="closed-form component disagrees"):
            heisenberg_sigma(frame)
    for cfg in configs:
        with pytest.raises(RuntimeError, match="closed-form component disagrees"):
            total_spin(spec, cfg)
    # the sweep reaches the same check through its blocks of steps
    with pytest.raises(RuntimeError, match="closed-form component disagrees"):
        total_spin_i_sweep(spec, configs[0], Z, 4)


def _closed_forms_as_one_array(frame):
    """The closed forms as one (..., 3, 2, 2) array, subtracted whole from the direct conjugation."""
    from spinpol import heisenberg
    from spinpol.algebra import SIGMA_Z, _norm

    pair = heisenberg.eigen_spinors(frame, heisenberg.DEFAULT_REFERENCES)
    direct = np.moveaxis(heisenberg._direct(frame, pair.mapping)[0], (0, 1, 2), (-3, -2, -1))
    e = np.exp(1j * np.asarray(pair.phi0))
    closed = np.zeros(e.shape + (3, 2, 2), dtype=complex)
    closed[..., 0, 0, 1] = e
    closed[..., 0, 1, 0] = np.conj(e)
    closed[..., 1, 0, 1] = -1j * e
    closed[..., 1, 1, 0] = 1j * np.conj(e)
    closed[..., 2, :, :] = SIGMA_Z
    direct -= closed
    return closed, pair.phi0, np.maximum.reduce(_norm(direct, axis=(-2, -1)), axis=-1)


def test_entrywise_check_keeps_the_matrices_phase_and_deviation_bitwise():
    rng = np.random.default_rng(91)
    frames = [random_frame(rng) for _ in range(500)]
    batch = build_frame(np.array([f.w for f in frames]), np.array([f.i_vec for f in frames]))
    closed, phi0, deviation = _closed_forms_as_one_array(batch)
    hs = heisenberg_sigma(batch)
    for j, m in enumerate((hs.sigma_u, hs.sigma_v, hs.sigma_w)):
        assert m.tobytes() == closed[..., j, :, :].tobytes()
    assert hs.phi0.tobytes() == phi0.tobytes()
    assert closed_form_residual(batch).tobytes() == deviation.tobytes()
    # one frame at a time takes the same path
    for f in frames[:20]:
        closed, phi0, deviation = _closed_forms_as_one_array(f)
        assert heisenberg_sigma(f).sigma_u.tobytes() == closed[0].tobytes()
        assert heisenberg_sigma(f).phi0 == phi0
        assert closed_form_residual(f) == deviation


# Reference kernels for the two under the cross-check: the Pauli bilinear as a
# matrix product with the (4, 3) table of sigma's entries, and the conjugation
# on (..., 3, 2, 2) arrays.  The frames-last kernels must reproduce them bit for
# bit, except for the sign of an exact zero, which the table product takes from
# the BLAS kernel: a single row and the same row in a batch can get different
# signs there.
_PAULI_ENTRIES = PAULI.reshape(3, 4).T


def _reference_bilinear(a, b):
    outer = a.conj()[..., :, None] * b[..., None, :]
    return (outer.reshape(-1, 4) @ _PAULI_ENTRIES).reshape(outer.shape[:-2] + (3,))


def _reference_direct(frame, varpi):
    chi = varpi.swapaxes(-1, -2)
    bilinears = _reference_bilinear(chi[..., :, None, :], chi[..., None, :, :])[..., None, :, :, :]
    triad = np.stack(np.broadcast_arrays(frame.u, frame.v, frame.w), axis=-2)[..., None, None]
    direct = triad[..., 0, :, :] * bilinears[..., 0]
    direct += triad[..., 1, :, :] * bilinears[..., 1]
    direct += triad[..., 2, :, :] * bilinears[..., 2]
    return direct


def _reference_check(frame, monkeypatch):
    """(entries of _direct, e, phi0, deviation) from the reference kernels."""
    from spinpol import frames, heisenberg
    from spinpol.algebra import _norm

    with monkeypatch.context() as m:
        # phi0 is the angle of a ladder constant, itself a bilinear; a copy of
        # the frame, as frame itself keeps the first pair computed for it
        m.setattr(frames, "_bilinear", _reference_bilinear)
        pair = heisenberg.eigen_spinors(replace(frame), heisenberg.DEFAULT_REFERENCES)
    direct = _reference_direct(frame, pair.mapping)
    entries = direct.copy()
    e = np.exp(1j * np.asarray(pair.phi0))
    for (a, i, j), value in heisenberg._closed_entries(e):
        direct[..., a, i, j] -= value
    norms = _norm(direct, axis=(-2, -1))
    deviation = np.maximum(np.maximum(norms[..., 0], norms[..., 1]), norms[..., 2])
    return entries, e, pair.phi0, deviation


def _bits(x):
    return np.asarray(x).tobytes()


def _equal_but_for_zero_signs(x, y):
    # compared as values: apart from NaN, only +0 and -0 differ in bits but not in value
    return np.array_equal(np.real(x), np.real(y)) and np.array_equal(np.imag(x), np.imag(y))


def _assert_kernels_match_the_reference(frame, monkeypatch, zero_signs=True):
    from spinpol import heisenberg

    entries, e, phi0, deviation = _reference_check(frame, monkeypatch)
    pair = heisenberg.eigen_spinors(frame, heisenberg.DEFAULT_REFERENCES)
    new = np.moveaxis(heisenberg._direct(frame, pair.mapping)[0], (0, 1, 2), (-3, -2, -1))
    if zero_signs:
        assert _bits(new) == _bits(entries)
    else:
        assert _equal_but_for_zero_signs(new, entries)
    new_e, new_phi0, new_deviation = heisenberg._checked_phase(frame, heisenberg.DEFAULT_REFERENCES)
    assert _bits(new_e) == _bits(e)
    assert _bits(new_phi0) == _bits(phi0)
    assert _bits(new_deviation) == _bits(deviation)
    assert type(new_deviation) is type(deviation)
    assert _bits(closed_form_residual(frame)) == _bits(deviation)


def _unit_rows(rng, shape):
    v = rng.normal(size=shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_frames_last_kernels_reproduce_the_reference_on_random_frames(monkeypatch):
    # 6000 frames: their (..., 3) complex rows pass 256 KiB, above which numpy
    # may reuse a temporary operand of `*` and swap the operands' order
    rng = np.random.default_rng(92)
    w, i_vec = _unit_rows(rng, (6000,)), _unit_rows(rng, (6000,))
    keep = np.linalg.norm(np.cross(w, i_vec), axis=-1) > 1e-2
    _assert_kernels_match_the_reference(build_frame(w[keep], i_vec[keep]), monkeypatch)
    for one_w, one_i in zip(w[keep][:20], i_vec[keep][:20]):
        _assert_kernels_match_the_reference(build_frame(one_w, one_i), monkeypatch)


def test_frames_last_kernels_reproduce_the_reference_on_a_sweep_block(monkeypatch):
    # one 729-sample spectrum against two characterization vectors: (2, 729) frames
    rng = np.random.default_rng(93)
    block = build_frame(_unit_rows(rng, (729,)), _unit_rows(rng, (2, 1)))
    assert block.u.shape == (2, 729, 3) and block.w.shape == (729, 3)
    _assert_kernels_match_the_reference(block, monkeypatch)


@pytest.mark.parametrize("cross", [1e-3, 1e-6, 2e-8])
def test_frames_last_kernels_reproduce_the_reference_near_parallel(monkeypatch, cross):
    from test_frames import _near_parallel_frames

    frame, _ = _near_parallel_frames(cross)
    _assert_kernels_match_the_reference(frame, monkeypatch)


def _exact_zero_frames():
    """Every non-parallel pair of axes and vectors with exact-zero components, clear of -z."""
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    tilted = np.array([[0.6, 0.0, 0.8], [0.0, -0.8, 0.6], [-0.6, 0.8, 0.0], [0.0, 0.6, -0.8]])
    vectors = np.concatenate([axes, tilted])
    w = np.repeat(vectors, len(vectors), axis=0)
    i_vec = np.tile(vectors, (len(vectors), 1))
    keep = (np.linalg.norm(np.cross(w, i_vec), axis=-1) > 0.1) & (w[:, 2] > -0.9)
    return w[keep], i_vec[keep]


def test_frames_last_kernels_reproduce_the_reference_on_exact_zeros(monkeypatch):
    w, i_vec = _exact_zero_frames()
    _assert_kernels_match_the_reference(build_frame(w, i_vec), monkeypatch, zero_signs=False)
    for one in zip(w, i_vec):
        _assert_kernels_match_the_reference(build_frame(*one), monkeypatch, zero_signs=False)


def test_component_bilinear_reproduces_the_table_product():
    rng = np.random.default_rng(94)
    for shape in [(), (1,), (1458,), (9261,), (3, 5)]:
        a = rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
        b = rng.normal(size=shape + (2,)) + 1j * rng.normal(size=shape + (2,))
        for x, y in ((a, b), (a, a)):
            new = _bilinear(x, y)
            assert new.shape == shape + (3,)
            assert _bits(new) == _bits(_reference_bilinear(x, y))
    a = rng.normal(size=(50, 1, 2)) + 1j * rng.normal(size=(50, 1, 2))
    b = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
    assert _bits(_bilinear(a, b)) == _bits(_reference_bilinear(a, b))


def test_component_bilinear_keeps_the_sign_of_zeros_row_by_row():
    # spinors with exact zeros of both signs: the values are the table
    # product's, and a row's signed zeros do not depend on the batch around it
    parts = [1.0, -1.0, 0.0, -0.0]
    entries = np.array([complex(re, im) for re in parts for im in parts])
    spinors = np.stack(np.broadcast_arrays(entries[:, None], entries[None, :]), axis=-1)
    spinors = spinors.reshape(-1, 2)
    a, b = np.repeat(spinors, len(spinors), axis=0), np.tile(spinors, (len(spinors), 1))
    batch = _bilinear(a, b)
    assert _equal_but_for_zero_signs(batch, _reference_bilinear(a, b))
    for row in range(0, len(a), 97):
        assert _bits(_bilinear(a[row], b[row])) == _bits(batch[row])


@pytest.mark.parametrize(
    "entry",
    [(a, i, j) for a in range(3) for i in range(2) for j in range(2)],
    ids=lambda entry: "sigma_{}{}{}".format("uvw"[entry[0]], *entry[1:]),
)
def test_the_cross_check_reads_every_entry(monkeypatch, entry):
    # one closed-form entry off by 1e-11, the zero entries included, must fail
    # the 1e-12 check on a single frame and on a batch
    from spinpol import heisenberg

    closed_entries = heisenberg._closed_entries

    def one_entry_off(e):
        entries = dict(closed_entries(e))
        entries[entry] = entries.get(entry, 0.0) + 1e-11
        return tuple(entries.items())

    rng = np.random.default_rng(95)
    batch = build_frame(_unit_rows(rng, (40,)), _unit_rows(rng, (2, 1)))
    single = random_frame(rng)
    for frame in (single, batch):
        assert np.max(closed_form_residual(frame)) <= 1e-12
    monkeypatch.setattr(heisenberg, "_closed_entries", one_entry_off)
    for frame in (single, batch):
        # a copy of the frame, as the frame keeps the result of its first check
        with pytest.raises(RuntimeError, match="closed-form component disagrees"):
            closed_form_residual(replace(frame))
