"""Conjugated Pauli components: closed forms, algebra, rotation laws."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinpol import (
    build_frame,
    closed_form_residual,
    equivalence_residual,
    expectation_spv_residual,
    heisenberg_sigma,
    rotate_characterization,
    rotation_residual,
)

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
    direct = heisenberg._direct(frame, pair.mapping)
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
