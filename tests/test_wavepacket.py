"""Plane-wave packets: spectra, fields, local and total spin."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinpol import wavepacket
from spinpol import (
    FALLBACK_REFERENCES,
    BadGrid,
    DegenerateFrame,
    NodePoint,
    PacketConfig,
    ReferenceAnnihilated,
    Spectrum,
    SpectrumNearOrigin,
    build_frame,
    compose_spinor,
    dispersion,
    dot_sigma,
    eigen_component,
    eigen_residual,
    evaluate_wavefunction,
    gaussian_spectrum,
    load_spectrum,
    local_spv,
    mapping_matrix,
    position_grid,
    sample_spinors,
    save_spectrum,
    save_spin_field,
    so3_rotation,
    spin_field,
    spv,
    total_spin,
    total_spin_i_sweep,
)

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])

PREFACTOR = (2.0 * np.pi) ** -1.5


def single_wave(k=(0.0, 0.0, 5.0)):
    return Spectrum(k=[list(k)], amplitude=[1.0], weight=[1.0])


def packet(i_vec=X, alpha=(1.0, 0.0), **kw):
    return PacketConfig(i_vec=np.asarray(i_vec, float), alpha=np.asarray(alpha, complex), **kw)


def test_gaussian_spectrum_single_sample():
    spec = gaussian_spectrum([0.0, 0.0, 5.0], 0.5, 1, 2.0)
    assert len(spec) == 1
    assert_allclose(spec.k[0], [0.0, 0.0, 5.0])
    assert spec.weight[0] * abs(spec.amplitude[0]) ** 2 == pytest.approx(1.0, abs=1e-15)


def test_gaussian_spectrum_grid_and_normalization():
    spec = gaussian_spectrum([0.0, 0.0, 5.0], 0.5, 9, 4.0)
    assert len(spec) == 729
    total = np.sum(spec.weight * np.abs(spec.amplitude) ** 2)
    assert total == pytest.approx(1.0, abs=1e-12)
    # odd sample count centers the grid on k0
    assert_allclose(spec.k[364], [0.0, 0.0, 5.0], atol=1e-12)
    # lexicographic order: independent reconstruction of the midpoint grid
    half, h = 2.0, 4.0 / 9.0
    axis = -half + (np.arange(9) + 0.5) * h
    rebuilt = np.stack(
        np.meshgrid(axis, axis, axis + 5.0, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    assert_allclose(spec.k, rebuilt, atol=1e-12)


def test_gaussian_spectrum_rejects_bad_parameters():
    with pytest.raises(BadGrid):
        gaussian_spectrum([0, 0, 5.0], 0.5, 8, 4.0)
    with pytest.raises(BadGrid):
        gaussian_spectrum([0, 0, 5.0], 0.5, 9, 0.0)
    for k0, sigma_k, span in (([0, 0, 5.0], np.nan, 4.0), ([0, 0, 5.0], 0.5, np.inf),
                              ([0, np.nan, 5.0], 0.5, 4.0)):
        with pytest.raises(BadGrid, match="k0 must be finite, span and sigma_k finite and positive"):
            gaussian_spectrum(k0, sigma_k, 9, span)
    with pytest.raises(SpectrumNearOrigin):
        gaussian_spectrum([0, 0, 1.0], 0.5, 9, 4.0)


def test_spectrum_validation():
    with pytest.raises(ValueError, match="not normalized"):
        Spectrum(k=[[0, 0, 2.0]], amplitude=[1.0], weight=[2.0])
    with pytest.raises(ValueError, match="amplitude of sample 0 is not finite"):
        Spectrum(k=[[0, 0, 2.0]], amplitude=[np.nan], weight=[1.0])
    with pytest.raises(ValueError, match="k of sample 1 is not finite"):
        Spectrum(k=[[0, 0, 2.0], [0, np.inf, 1.0]], amplitude=[1.0, 1.0], weight=[0.5, 0.5])
    with pytest.raises(SpectrumNearOrigin, match="sample 0"):
        Spectrum(k=[[0, 0, 0.0], [0, 0, 2.0]], amplitude=[1.0, 1.0], weight=[0.5, 0.5])


def test_dispersion_values():
    cfg = packet()
    assert dispersion([0, 0, 1.0], cfg) == 0.5
    assert dispersion([0, 0, 2.0], cfg) == 2.0
    assert dispersion([0, 0, 1.0], packet(hbar=2.0)) == 1.0
    assert dispersion([0, 0, 1.0], packet(mu=2.0)) == 0.25


def test_single_wave_amplitude_fixture():
    psi = evaluate_wavefunction(single_wave(), packet(), [0.0, 0.0, 0.0], 0.0)
    assert_allclose(psi, [PREFACTOR, 0.0], atol=1e-15)


def test_single_wave_time_dependence_is_a_global_phase():
    spec, cfg = single_wave(), packet()
    psi0 = evaluate_wavefunction(spec, cfg, [0.0, 0.0, 0.0], 0.0)
    t = 0.73
    psi_t = evaluate_wavefunction(spec, cfg, [0.0, 0.0, 0.0], t)
    omega = dispersion(spec.k[0], cfg)
    assert_allclose(psi_t, psi0 * np.exp(-1j * omega * t), atol=1e-15)
    assert np.linalg.norm(psi_t) == pytest.approx(np.linalg.norm(psi0), abs=1e-15)


def test_degenerate_sample_is_reported_by_index():
    spec = Spectrum(
        k=[[0, 0, 2.0], [0, 2.0, 0.0]], amplitude=[1.0, 1.0], weight=[0.5, 0.5]
    )
    cfg = packet(i_vec=Y)
    with pytest.raises(DegenerateFrame, match="sample 1"):
        evaluate_wavefunction(spec, cfg, [0.0, 0.0, 0.0], 0.0)


def test_annihilated_references_point_to_the_support():
    spec = single_wave(k=(0.0, 0.0, -2.0))
    with pytest.raises(ReferenceAnnihilated, match="support"):
        sample_spinors(spec, packet())
    spinors = sample_spinors(spec, packet(ref=FALLBACK_REFERENCES))
    assert np.linalg.norm(spinors[0]) == pytest.approx(1.0, abs=1e-12)


def test_eigen_components_split_the_wavefunction():
    rng = np.random.default_rng(71)
    spec = Spectrum(
        k=[[0.4, 0.1, 1.5], [-0.3, 0.2, 2.5]],
        amplitude=np.array([0.8, 0.6j]),
        weight=[1.0, 1.0],
    )
    for _ in range(50):
        alpha = rng.normal(size=2) + 1j * rng.normal(size=2)
        alpha /= np.linalg.norm(alpha)
        cfg = packet(alpha=alpha)
        x = rng.normal(size=3)
        t = rng.uniform(0.0, 2.0)
        psi = evaluate_wavefunction(spec, cfg, x, t)
        plus = eigen_component(spec, cfg, +1, x, t)
        minus = eigen_component(spec, cfg, -1, x, t)
        assert np.linalg.norm(psi - alpha[0] * plus - alpha[1] * minus) < 1e-12


def test_pure_plus_packet_equals_its_plus_component():
    spec = Spectrum(
        k=[[0.4, 0.1, 1.5], [-0.3, 0.2, 2.5]],
        amplitude=np.array([0.8, 0.6j]),
        weight=[1.0, 1.0],
    )
    cfg = packet(alpha=(1.0, 0.0))
    x = np.array([0.2, -0.4, 1.0])
    assert_allclose(
        evaluate_wavefunction(spec, cfg, x, 0.5),
        eigen_component(spec, cfg, +1, x, 0.5),
        atol=1e-15,
    )


def test_collinear_plus_component_is_an_axis_eigenfunction():
    # all waves share the direction z, so the + component is a pointwise
    # eigenfunction of (z.sigma); per-sample spinors carry the same property
    spec = Spectrum(
        k=[[0, 0, 1.0], [0, 0, 2.0], [0, 0, 3.0]],
        amplitude=np.array([0.5, 0.7, 0.3j]),
        weight=np.full(3, 1.0 / 0.83),
    )
    cfg = packet()
    for chi in sample_spinors(spec, cfg, branch=+1):
        assert eigen_residual(Z, chi, +1) < 1e-12
    rng = np.random.default_rng(72)
    for _ in range(20):
        x = rng.normal(size=3)
        plus = eigen_component(spec, cfg, +1, x, 0.3)
        assert np.linalg.norm(dot_sigma(Z) @ plus - plus) < 1e-12


def test_eigen_component_rejects_bad_branch():
    with pytest.raises(ValueError, match="branch"):
        eigen_component(single_wave(), packet(), 0, [0, 0, 0], 0.0)


def test_local_spv_single_wave_fixtures():
    rho, s = local_spv(single_wave(), packet(), [0.3, -1.0, 0.7], 0.9)
    assert_allclose(s, Z, atol=1e-12)
    assert rho == pytest.approx(PREFACTOR**2, abs=1e-15)
    _, s = local_spv(single_wave(), packet(alpha=np.array([1, 1]) / np.sqrt(2)), [0, 0, 0], 0.0)
    assert_allclose(s, Y, atol=1e-12)
    # quarter turn of the characterization vector flips the transverse spin
    _, s = local_spv(single_wave(), packet(i_vec=Y, alpha=np.array([1, 1]) / np.sqrt(2)), [0, 0, 0], 0.0)
    assert_allclose(s, -Y, atol=1e-12)


def test_local_spv_matches_composed_spinor():
    rng = np.random.default_rng(73)
    for _ in range(100):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        i_vec = rng.normal(size=3)
        i_vec /= np.linalg.norm(i_vec)
        if np.linalg.norm(np.cross(direction, i_vec)) < 1e-2 or 1.0 + direction[2] < 1e-4:
            continue
        alpha = rng.normal(size=2) + 1j * rng.normal(size=2)
        alpha /= np.linalg.norm(alpha)
        cfg = packet(i_vec=i_vec, alpha=alpha)
        _, s = local_spv(single_wave(k=2.0 * direction), cfg, rng.normal(size=3), 0.4)
        chi = compose_spinor(mapping_matrix(build_frame(direction, i_vec)), alpha)
        assert np.linalg.norm(s - spv(chi)) < 1e-12


def test_node_points_are_flagged():
    # equal-weight waves along z interfere destructively where 2z = pi
    spec = Spectrum(
        k=[[0, 0, 2.0], [0, 0, 4.0]],
        amplitude=np.array([1.0, 1.0]) / np.sqrt(2),
        weight=[1.0, 1.0],
    )
    cfg = packet()
    with pytest.raises(NodePoint):
        local_spv(spec, cfg, [0.0, 0.0, np.pi / 2], 0.0, rho_floor=1e-20)
    points = np.array([[0.0, 0.0, z] for z in (0.0, np.pi / 2, 1.0)])
    fld = spin_field(spec, cfg, points, 0.0)
    assert fld.node.tolist() == [False, True, False]
    assert np.isnan(fld.s[1]).all()
    assert abs(np.linalg.norm(fld.s[0]) - 1.0) < 1e-9
    assert abs(np.linalg.norm(fld.s[2]) - 1.0) < 1e-9


def test_spin_field_is_unit_norm_off_nodes():
    spec = gaussian_spectrum([0.0, 0.0, 4.0], 0.5, 5, 3.0)
    cfg = packet(alpha=np.array([0.6, 0.8j]))
    points, _ = position_grid(9, 3.0)
    fld = spin_field(spec, cfg, points, 0.2)
    norms = np.linalg.norm(fld.s[~fld.node], axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9
    assert np.all(np.isfinite(fld.rho))


def test_total_spin_single_wave_fixtures():
    assert_allclose(total_spin(single_wave(), packet()), 0.5 * Z, atol=1e-15)
    assert_allclose(
        total_spin(single_wave(), packet(alpha=np.array([1, 1]) / np.sqrt(2))),
        0.5 * Y,
        atol=1e-12,
    )
    # spin magnitude scales with hbar
    assert_allclose(total_spin(single_wave(), packet(hbar=3.0)), 1.5 * Z, atol=1e-15)


def test_total_spin_agrees_with_per_sample_polarizations():
    # independent route: sum of weight |A|^2 polarization vectors over samples
    rng = np.random.default_rng(74)
    amp = np.array([0.8, 0.5j, 0.3 - 0.2j])
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2))
    spec = Spectrum(
        k=[[0.4, 0.1, 1.5], [-0.3, 0.2, 2.5], [0.1, -0.5, 3.0]],
        amplitude=amp,
        weight=np.full(3, 1.0),
    )
    for _ in range(20):
        alpha = rng.normal(size=2) + 1j * rng.normal(size=2)
        alpha /= np.linalg.norm(alpha)
        cfg = packet(alpha=alpha)
        expected = np.zeros(3)
        for j in range(len(spec)):
            what = spec.k[j] / np.linalg.norm(spec.k[j])
            chi = compose_spinor(mapping_matrix(build_frame(what, cfg.i_vec)), alpha)
            expected += 0.5 * spec.weight[j] * abs(spec.amplitude[j]) ** 2 * spv(chi)
        assert np.linalg.norm(total_spin(spec, cfg) - expected) < 1e-12


def test_total_spin_is_reproducible():
    spec = gaussian_spectrum([0.0, 0.0, 4.0], 0.5, 3, 2.0)
    cfg = packet(alpha=np.array([0.6, 0.8j]))
    first = total_spin(spec, cfg)
    assert np.array_equal(first, total_spin(spec, cfg))


def test_collinear_sweep_traces_the_double_angle_circle():
    spec = Spectrum(
        k=[[0, 0, 1.0], [0, 0, 2.0], [0, 0, 3.0]],
        amplitude=np.array([0.5, 0.7, 0.3]),
        weight=np.full(3, 1.0 / 0.83),
    )
    cfg = packet(alpha=np.array([1.0, 1.0]) / np.sqrt(2))
    phis, spins = total_spin_i_sweep(spec, cfg, Z, 8)
    assert len(phis) == 8
    base = spins[0]
    for phi, s in zip(phis, spins):
        assert np.linalg.norm(s - so3_rotation(Z, 2.0 * phi) @ base) < 1e-9
        assert np.linalg.norm(s) == pytest.approx(np.linalg.norm(base), abs=1e-12)


def test_sweep_with_one_step_is_just_total_spin():
    spec = single_wave()
    cfg = packet(alpha=np.array([0.8, 0.6]))
    phis, spins = total_spin_i_sweep(spec, cfg, Z, 1)
    assert phis.tolist() == [0.0]
    assert_allclose(spins[0], total_spin(spec, cfg), atol=0)


@pytest.mark.parametrize(
    "spec, cfg",
    [
        (single_wave(), packet(i_vec=np.tile(X, (2, 1)), alpha=np.tile([1.0, 0.0], (2, 1)))),
        (single_wave(), packet(i_vec=np.tile(X, (3, 1)))),
        (Spectrum(k=[[[0.0, 0.0, 2.0]]] * 3, amplitude=np.ones((3, 1)), weight=np.ones((3, 1))), packet()),
    ],
    ids=["two_configs", "three_configs", "three_spectra"],
)
def test_sweep_refuses_a_batch_of_packets(spec, cfg):
    with pytest.raises(ValueError, match=r"^total_spin_i_sweep takes one packet, got a batch of shape \(\d,\)"):
        total_spin_i_sweep(spec, cfg, Z, 8)


def test_packet_config_checks_its_vectors_and_names_a_bad_packet():
    # total_spin reads alpha directly: unchecked, a norm-2 alpha gave four times hbar/2
    with pytest.raises(ValueError, match=r"^alpha is not normalized: \|alpha\| = 2\.0$"):
        packet(alpha=[2.0, 0.0])
    with pytest.raises(ValueError, match=r"^i_vec must be a unit vector, \|i_vec\| = 2\.0$"):
        packet(i_vec=2.0 * X)
    # a batch names the packet, not its position among the broadcast samples
    alpha, i_vec = np.tile([1.0, 0.0], (6, 1)), np.tile(X, (6, 1))
    alpha[3] = [0.0, 2.0]
    with pytest.raises(ValueError, match=r"^alpha \(frame 3\) is not normalized: \|alpha\| = 2\.0$"):
        packet(i_vec=i_vec, alpha=alpha)
    i_vec[3] = 2.0 * Y
    with pytest.raises(ValueError, match=r"^i_vec \(frame 3\) must be a unit vector, \|i_vec\| = 2\.0$"):
        packet(i_vec=i_vec)


def test_broad_spectrum_total_spin_depends_on_characterization_vector():
    spec = gaussian_spectrum([0.0, 0.0, 4.0], 0.5, 5, 3.0)
    cfg = packet(alpha=np.array([1.0, 1.0]) / np.sqrt(2))
    _, spins = total_spin_i_sweep(spec, cfg, Z, 4)
    assert np.linalg.norm(spins[0] - spins[1]) > 1e-3


def test_on_grid_probability_matches_spectrum_normalization():
    spec = gaussian_spectrum([0.0, 0.0, 4.0], 0.5, 7, 3.0)
    cfg = packet()
    points, spacing = position_grid(17, 5.0)
    fld = spin_field(spec, cfg, points, 0.0)
    prob = fld.rho.sum() * spacing**3
    assert abs(prob - 1.0) < 1e-2


def test_total_spin_has_no_time_and_matches_the_position_integral():
    # span 4 keeps the k-grid edge amplitude small; a sharper truncation rings
    # in position space and spoils the box integral
    spec = gaussian_spectrum([0.0, 0.0, 4.0], 0.5, 7, 4.0)
    cfg = packet(alpha=np.array([1.0, 0.5j]) / np.linalg.norm([1.0, 0.5]))
    s_total = total_spin(spec, cfg)

    def position_route(t, center):
        points, spacing = position_grid(21, 6.0)
        fld = spin_field(spec, cfg, points + center, t)
        dens = fld.rho[:, None] * np.nan_to_num(fld.s)
        return 0.5 * cfg.hbar * dens.sum(axis=0) * spacing**3

    s_x0 = position_route(0.0, np.zeros(3))
    # at t=1 the packet has drifted by the group velocity; follow it
    s_x1 = position_route(1.0, np.array([0.0, 0.0, 4.0]))
    assert np.linalg.norm(s_x0 - s_total) / np.linalg.norm(s_total) < 1e-3
    assert np.linalg.norm(s_x1 - s_x0) / np.linalg.norm(s_x0) < 1e-3


def test_spectrum_roundtrip_is_exact(tmp_path):
    spec = gaussian_spectrum([0.3, -0.2, 4.0], 0.5, 3, 2.0)
    path = tmp_path / "spec.csv"
    save_spectrum(spec, path)
    loaded = load_spectrum(path)
    assert np.array_equal(loaded.k, spec.k)
    assert np.array_equal(loaded.amplitude, spec.amplitude)
    assert np.array_equal(loaded.weight, spec.weight)


def test_spectrum_file_validation(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("kx,ky,kz,amp,weight\n0,0,2,1,1\n")
    with pytest.raises(ValueError, match="header"):
        load_spectrum(bad_header)
    short_row = tmp_path / "short.csv"
    short_row.write_text("kx,ky,kz,re_A,im_A,weight\n0,0,2,1,0\n")
    with pytest.raises(ValueError, match="6"):
        load_spectrum(short_row)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("kx,ky,kz,re_A,im_A,weight\n0,0,2,1,0,0.5\n\n0,0,3,1\n")
    with pytest.raises(ValueError, match="^spectrum line 4 has 4 fields, expected 6$"):
        load_spectrum(ragged)
    not_normalized = tmp_path / "norm.csv"
    not_normalized.write_text("kx,ky,kz,re_A,im_A,weight\n0,0,2,1,0,2\n")
    with pytest.raises(ValueError, match="not normalized"):
        load_spectrum(not_normalized)


def test_spin_field_file_format(tmp_path):
    fld = spin_field(single_wave(), packet(), [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], 0.5)
    path = tmp_path / "field.csv"
    save_spin_field(fld, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y,z,t,rho,sx,sy,sz"
    assert len(lines) == 3
    row = [float(tok) for tok in lines[1].split(",")]
    assert row[:4] == [0.0, 0.0, 0.0, 0.5]
    assert row[4] == pytest.approx(PREFACTOR**2, abs=1e-15)
    assert_allclose(row[5:], [0.0, 0.0, 1.0], atol=1e-12)


def test_position_grid_shape_and_spacing():
    points, spacing = position_grid(5, 2.0)
    assert points.shape == (125, 3)
    assert spacing == 1.0
    assert_allclose(points[0], [-2.0, -2.0, -2.0])
    assert_allclose(points[-1], [2.0, 2.0, 2.0])
    with pytest.raises(BadGrid):
        position_grid(1, 2.0)


@pytest.mark.parametrize("half_span", [-6.0, 0.0, np.inf, np.nan])
def test_position_grid_rejects_non_positive_span(half_span):
    with pytest.raises(BadGrid, match="half-span"):
        position_grid(5, half_span)


@pytest.mark.parametrize(
    "bad, message",
    [("time", r"got t = nan, points \[\]$"), ("point", r"got t = 0.5, points \[\[-1.0, nan, 0.0\]\]$")],
    ids=["time", "point"],
)
def test_plane_wave_evaluators_reject_non_finite_input(bad, message):
    spec = gaussian_spectrum([0.0, 0.0, 5.0], 0.5, 3, 2.0)
    points, _ = position_grid(3, 1.0)
    t = np.nan if bad == "time" else 0.5
    if bad == "point":
        points[4, 1] = np.nan
    with pytest.raises(ValueError, match="time t and every point must be finite"):
        local_spv(spec, packet(), points[4], t)
    with pytest.raises(ValueError, match=message):
        spin_field(spec, packet(), points, t)


def _random_spectrum(rng, n_per_axis=3):
    spec = gaussian_spectrum(rng.normal(size=3) + [0.0, 0.0, 5.0], 0.5, n_per_axis, 3.0)
    phases = np.exp(2j * np.pi * rng.uniform(size=len(spec)))
    return Spectrum(k=spec.k, amplitude=spec.amplitude * phases, weight=spec.weight)


def _random_packet(rng):
    i_vec = rng.normal(size=3)
    alpha = rng.normal(size=2) + 1j * rng.normal(size=2)
    return packet(i_vec=i_vec / np.linalg.norm(i_vec), alpha=alpha / np.linalg.norm(alpha))


def test_batched_sample_spinors_equal_single_frame_composition():
    rng = np.random.default_rng(75)
    spec, cfg = _random_spectrum(rng), _random_packet(rng)
    k_hat = [k / np.linalg.norm(k) for k in spec.k]
    varpis = [mapping_matrix(build_frame(w, cfg.i_vec)) for w in k_hat]
    expected = {
        0: np.array([compose_spinor(varpi, cfg.alpha) for varpi in varpis]),
        +1: np.array([compose_spinor(varpi, [1.0, 0.0]) for varpi in varpis]),
        -1: np.array([compose_spinor(varpi, [0.0, 1.0]) for varpi in varpis]),
    }
    for branch, stacked in expected.items():
        assert np.abs(sample_spinors(spec, cfg, branch) - stacked).max() <= 1e-15


def test_sweep_rows_equal_single_total_spin_calls():
    rng = np.random.default_rng(76)
    spec, cfg = _random_spectrum(rng), _random_packet(rng)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    phis, spins = total_spin_i_sweep(spec, cfg, axis, 5)
    for phi, s in zip(phis, spins):
        single = total_spin(spec, packet(i_vec=so3_rotation(axis, phi) @ cfg.i_vec, alpha=cfg.alpha))
        assert np.array_equal(s, single)


def _seven_samples(k4):
    k = np.array([[0.3, 0.1, 2.0], [0.0, 0.4, 2.5], [-0.2, 0.1, 3.0], [0.1, -0.3, 1.5],
                  k4, [0.2, 0.2, 2.2], [-0.1, -0.1, 2.8]])
    return Spectrum(k=k, amplitude=np.full(7, 1.0), weight=np.full(7, 1.0 / 7.0))


def test_batch_geometry_errors_name_sample_4():
    cfg = packet()
    with pytest.raises(DegenerateFrame, match="sample 4 "):
        sample_spinors(_seven_samples([2.0, 0.0, 0.0]), cfg)
    with pytest.raises(DegenerateFrame, match="sample 4 "):
        total_spin(_seven_samples([-2.0, 0.0, 0.0]), cfg)
    with pytest.raises(ReferenceAnnihilated, match="sample 4 .*support"):
        sample_spinors(_seven_samples([0.0, 0.0, -2.0]), cfg)
    with pytest.raises(ReferenceAnnihilated, match="sample 4 .*support"):
        total_spin(_seven_samples([0.0, 0.0, -2.0]), cfg)


def _both_sums(monkeypatch, spec, cfg, points, t):
    """(_plane_wave_sum result, dense result, whether the former took the dense path)."""
    spinors = sample_spinors(spec, cfg)
    dense_calls = []
    dense = wavepacket._dense_sum

    def counted_dense(*args):
        dense_calls.append(args)
        return dense(*args)

    monkeypatch.setattr(wavepacket, "_dense_sum", counted_dense)
    auto = wavepacket._plane_wave_sum(spec, cfg, spinors, points, t)
    coeff = (spec.weight * spec.amplitude)[:, None] * spinors
    reference = PREFACTOR * dense(spec, cfg, coeff, np.asarray(points, dtype=float), t)
    return auto, reference, bool(dense_calls)


def _mesh(*axes):
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


@pytest.mark.parametrize("t", [0.0, 1.3])
def test_separable_sum_matches_dense_on_default_field(monkeypatch, t):
    spec = gaussian_spectrum([0.0, 0.0, 5.0], 0.5, 9, 4.0)
    points, _ = position_grid(21, 6.0)
    cfg = packet(i_vec=[0.0, 0.6, 0.8], alpha=np.array([0.6, 0.8j]))
    auto, dense, took_dense = _both_sums(monkeypatch, spec, cfg, points, t)
    assert not took_dense
    assert np.abs(auto - dense).max() <= 1e-13 * np.abs(dense).max()


@pytest.mark.parametrize(
    "points",
    [
        position_grid(7, 3.0)[0] + [0.7, -1.3, 2.1],
        _mesh(np.linspace(-4.0, 4.0, 3), np.linspace(-5.0, 3.0, 5), np.linspace(-2.0, 8.0, 7)),
    ],
    ids=["shifted", "3x5x7"],
)
def test_separable_sum_matches_dense_on_tensor_meshes(monkeypatch, points):
    rng = np.random.default_rng(91)
    spec, cfg = _random_spectrum(rng, n_per_axis=5), _random_packet(rng)
    auto, dense, took_dense = _both_sums(monkeypatch, spec, cfg, points, 0.9)
    assert not took_dense
    assert np.abs(auto - dense).max() <= 1e-13 * np.abs(dense).max()


def test_separable_sum_applies_to_a_csv_round_tripped_spectrum(monkeypatch, tmp_path):
    rng = np.random.default_rng(92)
    spec, cfg = _random_spectrum(rng, n_per_axis=5), _random_packet(rng)
    path = tmp_path / "spec.csv"
    save_spectrum(spec, path)
    loaded = load_spectrum(path)
    points, _ = position_grid(9, 4.0)
    auto, dense, took_dense = _both_sums(monkeypatch, loaded, cfg, points, 1.3)
    assert not took_dense
    assert np.abs(auto - dense).max() <= 1e-13 * np.abs(dense).max()


def test_shuffled_points_take_the_dense_path_and_agree(monkeypatch):
    rng = np.random.default_rng(93)
    spec, cfg = _random_spectrum(rng, n_per_axis=5), _random_packet(rng)
    points, _ = position_grid(9, 4.0)
    order = rng.permutation(len(points))
    separable, _, took_dense = _both_sums(monkeypatch, spec, cfg, points, 1.3)
    assert not took_dense
    shuffled, dense, took_dense = _both_sums(monkeypatch, spec, cfg, points[order], 1.3)
    assert took_dense
    assert np.array_equal(shuffled, dense)
    assert np.abs(shuffled - separable[order]).max() <= 1e-13 * np.abs(dense).max()


def test_single_point_calls_skip_grid_detection(monkeypatch):
    def no_detection(a):
        raise AssertionError("grid detection ran for a single point")

    monkeypatch.setattr(wavepacket, "_tensor_axes", no_detection)
    spec = gaussian_spectrum([0.0, 0.0, 5.0], 0.5, 3, 2.0)
    evaluate_wavefunction(spec, packet(), [0.1, 0.2, 0.3], 0.5)
    eigen_component(spec, packet(), +1, [0.1, 0.2, 0.3], 0.5)
    local_spv(spec, packet(), [0.1, 0.2, 0.3], 0.5)


def test_tensor_axes_detection():
    ax = [np.array([-1.0, 0.5]), np.array([0.0, 1.0, 2.0]), np.array([3.0])]
    grid = _mesh(*ax)
    assert all(np.array_equal(a, b) for a, b in zip(wavepacket._tensor_axes(grid), ax))
    # a descending axis, a dropped point or a repeated point is not a grid
    assert wavepacket._tensor_axes(grid[::-1]) is None
    assert wavepacket._tensor_axes(grid[1:]) is None
    assert wavepacket._tensor_axes(np.vstack([grid[:1], grid[:-1]])) is None


def test_dense_block_stays_within_its_byte_budget():
    n_k = 41**3
    rows = wavepacket._dense_rows(n_k)
    assert rows >= 1
    assert rows * n_k * 16 <= wavepacket.DENSE_BLOCK_BYTES
    # a spectrum too large for one row of the budget still gets one row
    assert wavepacket._dense_rows(wavepacket.DENSE_BLOCK_BYTES) == 1


def test_dense_sum_does_not_depend_on_the_block_size(monkeypatch):
    rng = np.random.default_rng(94)
    spec, cfg = _random_spectrum(rng), _random_packet(rng)
    points = rng.normal(scale=3.0, size=(50, 3))
    spinors = sample_spinors(spec, cfg)
    whole = wavepacket._plane_wave_sum(spec, cfg, spinors, points, 0.7)
    monkeypatch.setattr(wavepacket, "DENSE_BLOCK_BYTES", 3 * 16 * len(spec))
    assert wavepacket._dense_rows(len(spec)) == 3
    assert np.array_equal(wavepacket._plane_wave_sum(spec, cfg, spinors, points, 0.7), whole)


def _per_value_csv(header, rows):
    return "\n".join([header] + [",".join(f"{v:.17g}" for v in row) for row in rows]) + "\n"


def test_csv_writers_match_per_value_formatting(tmp_path):
    spec = Spectrum(
        k=[[-0.0, 0.25, 2.0], [1.0 / 3.0, -0.0, -2.5]],
        amplitude=[np.sqrt(0.5) * (0.6 - 0.8j), -np.sqrt(0.5)],
        weight=[1.0, 1.0],
    )
    save_spectrum(spec, tmp_path / "spec.csv")
    rows = [(*spec.k[j], spec.amplitude[j].real, spec.amplitude[j].imag, spec.weight[j])
            for j in range(len(spec))]
    assert (tmp_path / "spec.csv").read_text() == _per_value_csv(wavepacket.SPECTRUM_HEADER, rows)

    fld = spin_field(_random_spectrum(np.random.default_rng(95)), packet(),
                     [[-0.0, 0.0, 1e-300], [0.1, -2.0, 3.5], [40.0, 40.0, 40.0]], 1.7)
    fld.s[2] = np.nan  # a node row
    fld.node[2] = True
    save_spin_field(fld, tmp_path / "field.csv")
    rows = [(*fld.x[j], fld.t, fld.rho[j], *fld.s[j]) for j in range(len(fld.rho))]
    text = (tmp_path / "field.csv").read_text()
    assert text == _per_value_csv(wavepacket.FIELD_HEADER, rows)
    assert "-0,0," in text and ",nan,nan,nan\n" in text and ",1.7," in text


@pytest.mark.parametrize(
    "x, t",
    [([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]], 0.0), ([0.0, 1.0], 0.0), ([0.0, 0.0, 0.0], [0.0, 1.0])],
    ids=["two-points", "2-vector", "list-t"],
)
def test_single_packet_evaluators_take_exactly_one_point(x, t):
    spec, cfg = gaussian_spectrum([0.0, 0.0, 5.0], 0.5, 3, 2.0), packet()
    message = r"x must have shape \(3,\) and t shape \(\) \(or broadcast to them\)"
    with pytest.raises(ValueError, match=message):
        evaluate_wavefunction(spec, cfg, x, t)
    with pytest.raises(ValueError, match=message):
        eigen_component(spec, cfg, +1, x, t)
    with pytest.raises(ValueError, match=message):
        local_spv(spec, cfg, x, t)


@pytest.mark.parametrize("name", ["hbar", "mu"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
def test_packet_constants_must_be_finite_and_positive(name, value):
    with pytest.raises(ValueError, match="hbar and mu must be finite and positive"):
        packet(**{name: value})


@pytest.mark.parametrize("rho_floor", [np.nan, np.inf, -1.0])
def test_local_spv_rejects_a_bad_density_floor(rho_floor):
    with pytest.raises(ValueError, match="rho_floor must be finite and >= 0"):
        local_spv(single_wave(), packet(), [0.0, 0.0, 0.0], 0.0, rho_floor=rho_floor)


def _random_packets(rng, n_packets=6, n_samples=3):
    """A batch of random packets and the same packets one by one."""
    direction = rng.normal(size=(n_packets, n_samples, 3)) + [0.0, 0.0, 3.0]
    k = direction * rng.uniform(1.0, 3.0, size=(n_packets, n_samples, 1))
    amp = rng.normal(size=(n_packets, n_samples)) + 1j * rng.normal(size=(n_packets, n_samples))
    weight = rng.uniform(0.5, 1.5, size=(n_packets, n_samples))
    amp /= np.sqrt(np.sum(weight * np.abs(amp) ** 2, axis=1, keepdims=True))
    cfgs = [_random_packet(rng) for _ in range(n_packets)]
    batch = (
        Spectrum(k=k, amplitude=amp, weight=weight),
        packet(i_vec=[c.i_vec for c in cfgs], alpha=[c.alpha for c in cfgs]),
    )
    return batch, [(Spectrum(k=k[b], amplitude=amp[b], weight=weight[b]), cfgs[b]) for b in range(n_packets)]


def test_batched_evaluators_equal_single_packet_calls():
    rng = np.random.default_rng(96)
    (spec, cfg), singles = _random_packets(rng)
    x, t = rng.normal(size=(6, 3)), rng.uniform(0.0, 2.0, size=6)
    assert len(spec) == 3

    def stacked(fn, *args):
        return np.array([fn(s, c, *(a[b] for a in args)) for b, (s, c) in enumerate(singles)])

    assert np.array_equal(evaluate_wavefunction(spec, cfg, x, t), stacked(evaluate_wavefunction, x, t))
    for branch in (+1, -1):
        assert np.array_equal(
            eigen_component(spec, cfg, branch, x, t),
            np.array([eigen_component(s, c, branch, x[b], t[b]) for b, (s, c) in enumerate(singles)]),
        )
    for branch in (0, +1, -1):
        assert np.array_equal(
            sample_spinors(spec, cfg, branch), np.array([sample_spinors(s, c, branch) for s, c in singles])
        )
    rho, s = local_spv(spec, cfg, x, t)
    singles_spv = [local_spv(sp, c, x[b], t[b]) for b, (sp, c) in enumerate(singles)]
    assert np.array_equal(rho, [r for r, _ in singles_spv])
    assert np.array_equal(s, [v for _, v in singles_spv])
    assert np.array_equal(total_spin(spec, cfg), stacked(total_spin))


def test_one_point_and_time_broadcast_across_the_batch():
    rng = np.random.default_rng(97)
    (spec, cfg), singles = _random_packets(rng)
    x, t = rng.normal(size=3), 0.8
    psi = evaluate_wavefunction(spec, cfg, x, t)
    assert psi.shape == (6, 2)
    assert np.array_equal(psi, evaluate_wavefunction(spec, cfg, np.tile(x, (6, 1)), np.full(6, t)))
    assert np.array_equal(psi, np.array([evaluate_wavefunction(s, c, x, t) for s, c in singles]))
    # one spectrum shared by a batch of configurations
    shared = Spectrum(k=spec.k[0], amplitude=spec.amplitude[0], weight=spec.weight[0])
    assert np.array_equal(
        total_spin(shared, cfg), np.array([total_spin(shared, c) for _, c in singles])
    )


def test_single_packets_return_python_floats_and_batches_arrays():
    rho, s = local_spv(single_wave(), packet(), [0.1, 0.2, 0.3], 0.4)
    assert type(rho) is float and s.shape == (3,)
    (spec, cfg), _ = _random_packets(np.random.default_rng(98))
    rho, s = local_spv(spec, cfg, np.zeros(3), 0.0)
    assert rho.shape == (6,) and s.shape == (6, 3)


def _packet_4_batch(k4=None, i_vec4=None, weight4=1.0):
    """Six two-sample packets along +z; packet 4 takes the given sample 1, i_vec and weight scale."""
    k = np.tile([[0.3, 0.1, 2.0], [0.0, 0.4, 2.5]], (6, 1, 1))
    if k4 is not None:
        k[4, 1] = k4
    weight = np.full((6, 2), 0.5)
    weight[4] *= weight4
    i_vec = np.tile(X, (6, 1))
    if i_vec4 is not None:
        i_vec[4] = i_vec4
    return Spectrum(k=k, amplitude=np.ones((6, 2)), weight=weight), packet(i_vec=i_vec, alpha=(1.0, 0.0))


def test_batch_errors_name_packet_4():
    with pytest.raises(ValueError, match=r"^spectrum of packet 4 is not normalized"):
        _packet_4_batch(weight4=1.1)
    with pytest.raises(ValueError, match="spectrum k of packet 4, sample 1 is not finite"):
        _packet_4_batch(k4=[0.0, np.nan, 2.0])
    with pytest.raises(SpectrumNearOrigin, match=r"^packet 4, sample 1 has \|k\|"):
        _packet_4_batch(k4=[0.0, 0.0, 1e-7])
    spec, cfg = _packet_4_batch(k4=[2.0, 0.0, 0.0])
    with pytest.raises(DegenerateFrame, match=r"^packet 4, sample 1 with k = \[2.0, 0.0, 0.0\]") as exc:
        total_spin(spec, cfg)
    assert exc.value.index == (4, 1)
    spec, cfg = _packet_4_batch(k4=[0.0, 0.0, -2.0])
    with pytest.raises(ReferenceAnnihilated, match="^packet 4, sample 1 .*support") as exc:
        evaluate_wavefunction(spec, cfg, np.zeros(3), 0.0)
    assert exc.value.index == (4, 1)
    # the characterization vector of packet 4 alone is parallel to its sample 0
    spec, cfg = _packet_4_batch(i_vec4=[0.3, 0.1, 2.0] / np.linalg.norm([0.3, 0.1, 2.0]))
    with pytest.raises(DegenerateFrame, match="^packet 4, sample 0 "):
        sample_spinors(spec, cfg)


def test_node_point_of_a_batch_names_its_packet():
    # equal-weight waves along z interfere destructively where 2z = pi
    k = np.tile([[0.0, 0.0, 2.0], [0.0, 0.0, 4.0]], (6, 1, 1))
    spec = Spectrum(k=k, amplitude=np.full((6, 2), np.sqrt(0.5)), weight=np.ones((6, 2)))
    x = np.zeros((6, 3))
    x[4, 2] = np.pi / 2
    with pytest.raises(NodePoint, match="of packet 4 at x = ") as exc:
        local_spv(spec, packet(), x, 0.0, rho_floor=1e-20)
    assert exc.value.index == (4,)


def test_near_origin_floor_scales_with_each_packets_own_k():
    k = np.array([[[0.0, 0.0, 1e-3], [0.0, 1e-4, 1.2e-3]], [[0.0, 0.0, 1e3], [0.0, 1e2, 1.2e3]]])
    spec = Spectrum(k=k, amplitude=np.ones((2, 2)), weight=np.full((2, 2), 0.5))
    spin = total_spin(spec, packet())
    assert spin.shape == (2, 3)
    assert np.isfinite(spin).all()


def test_spin_field_takes_one_packet():
    (spec, cfg), singles = _random_packets(np.random.default_rng(99))
    points, _ = position_grid(3, 1.0)
    with pytest.raises(ValueError, match=r"spin_field takes one packet at one time, got a batch of shape \(6,\)"):
        spin_field(spec, singles[0][1], points, 0.0)
    with pytest.raises(ValueError, match="spin_field takes one packet"):
        spin_field(singles[0][0], cfg, points, 0.0)
    with pytest.raises(ValueError, match=r"and t of shape \(2,\)$"):
        spin_field(*singles[0], points, [0.0, 1.0])


def test_batched_dense_blocks_do_not_change_the_sum(monkeypatch):
    rng = np.random.default_rng(100)
    (spec, cfg), _ = _random_packets(rng)
    x, t = rng.normal(size=(6, 3)), rng.uniform(0.0, 2.0, size=6)
    whole = evaluate_wavefunction(spec, cfg, x, t)
    # two packets of one point per block, then the budget of a single phase row
    for budget in (2 * 16 * len(spec), 1):
        monkeypatch.setattr(wavepacket, "DENSE_BLOCK_BYTES", budget)
        assert np.array_equal(evaluate_wavefunction(spec, cfg, x, t), whole)
    # several points per packet, each packet split into runs of two points
    points = rng.normal(size=(6, 4, 3))
    spinors = sample_spinors(spec, cfg)
    monkeypatch.setattr(wavepacket, "DENSE_BLOCK_BYTES", 2 * 16 * len(spec))
    split = wavepacket._plane_wave_sum(spec, cfg, spinors, points, t)
    monkeypatch.setattr(wavepacket, "DENSE_BLOCK_BYTES", 2**20)
    assert np.array_equal(wavepacket._plane_wave_sum(spec, cfg, spinors, points, t), split)
    assert split.shape == (6, 4, 2)
