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


def test_a_wave_vector_whose_square_overflows_is_refused():
    # |k| is finite, |k|^2 is not: the dispersion and k_hat would both read it
    k = [[0, 0, 2.0], [0, 1e200, 1.0]]
    with pytest.raises(ValueError, match=r"spectrum \|k\|\^2 of sample 1 is not finite"):
        Spectrum(k=k, amplitude=[1.0, 1.0], weight=[0.5, 0.5])
    with pytest.raises(ValueError, match=r"\|k\|\^2 of packet 1, sample 1 is not finite"):
        Spectrum(k=[[[0, 0, 2.0], [0, 0, 3.0]], k], amplitude=np.ones((2, 2)), weight=np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match=r"\|k\|\^2 of sample 0 is not finite"):
        gaussian_spectrum([1e200, 0, 0], 1e100, 9, 4.0)
    # at |k0| = 1e150 the squares stay finite
    assert len(gaussian_spectrum([1e150, 0, 0], 1e100, 9, 4.0)) == 729


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
        if np.linalg.norm(np.cross(direction, i_vec)) < 1e-2:
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


def _cartesian_total_spin(spec, cfg):
    """hbar/2 sum_j weight |A|^2 alpha^dag C_j alpha, C_j the Cartesian components of sigma^H."""
    from spinpol import heisenberg_sigma

    k_hat = spec.k / np.linalg.norm(spec.k, axis=-1, keepdims=True)
    c = heisenberg_sigma(build_frame(k_hat, cfg.i_vec[..., None, :])).cartesian()
    alpha = cfg.alpha[..., None, None, :]
    expect = np.einsum("...i,...ij,...j->...", alpha.conj(), c, alpha).real
    prob = spec.weight * np.abs(spec.amplitude) ** 2
    return 0.5 * cfg.hbar * np.sum(prob[..., None] * expect, axis=-2)


@pytest.mark.parametrize("hbar", [1.0, 0.37])
def test_total_spin_equals_the_cartesian_expectation(hbar):
    rng = np.random.default_rng(88)
    spec = gaussian_spectrum([0.3, -0.2, 5.0], 0.5, 7, 3.0)
    # Jones vectors with several relative phases, one packet and a (2, 3) batch
    phases = np.exp(1j * np.array([0.0, 0.5 * np.pi, np.pi, 2.2, -1.1, 3.0]))
    alpha = np.stack([np.full(6, 0.6), 0.8 * phases], axis=-1).reshape(2, 3, 2)
    i_vec = rng.normal(size=(2, 3, 3))
    i_vec /= np.linalg.norm(i_vec, axis=-1, keepdims=True)
    one = packet(i_vec=i_vec[0, 0], alpha=alpha[0, 1], hbar=hbar)
    batch = packet(i_vec=i_vec, alpha=alpha, hbar=hbar)
    for cfg in (one, batch):
        s = total_spin(spec, cfg)
        assert s.shape == np.shape(cfg.alpha)[:-1] + (3,)
        assert np.abs(s - _cartesian_total_spin(spec, cfg)).max() <= 1e-15


def _budget_cases():
    rng = np.random.default_rng(89)
    i_vec = rng.normal(size=(3, 3))
    i_vec /= np.linalg.norm(i_vec, axis=-1, keepdims=True)
    alpha = np.array([0.6, 0.8 * np.exp(0.7j)])
    spec = gaussian_spectrum([0.0, 0.3, 5.0], 0.5, 9, 4.0)
    batch = Spectrum(k=np.stack([spec.k, spec.k[::-1]]), amplitude=np.stack([spec.amplitude] * 2),
                     weight=np.stack([spec.weight] * 2))
    return [(spec, packet(i_vec=i_vec[0], alpha=alpha)), (spec, packet(i_vec=i_vec, alpha=alpha)),
            (batch, packet(i_vec=i_vec[:2], alpha=alpha))]


def _budget_results(spec, cfg):
    """The bytes of every pipeline that walks the frames in blocks, on one case."""
    x, t = [0.3, -0.2, 0.5], 0.7
    results = [total_spin(spec, cfg), evaluate_wavefunction(spec, cfg, x, t)]
    results += [sample_spinors(spec, cfg, branch) for branch in (0, +1, -1)]
    results += [eigen_component(spec, cfg, branch, x, t) for branch in (+1, -1)]
    if spec.k.ndim == 2 and cfg.i_vec.ndim == 1:
        fld = spin_field(spec, cfg, position_grid(3, 2.0)[0], t)
        results += [fld.rho, fld.s]
    return [r.tobytes() for r in results]


@pytest.mark.parametrize("budget", [1, 7, 729, 2048])
def test_total_spin_does_not_depend_on_the_frame_budget(budget, monkeypatch):
    # total_spin carries its running total in sample order across blocks, and
    # the other pipelines write each block into its own rows
    cases = _budget_cases()
    monkeypatch.setattr(wavepacket, "_FRAME_BUDGET", 10**6)
    unblocked = [_budget_results(spec, cfg) for spec, cfg in cases]
    monkeypatch.setattr(wavepacket, "_FRAME_BUDGET", budget)
    for (spec, cfg), reference in zip(cases, unblocked):
        assert _budget_results(spec, cfg) == reference


@pytest.mark.parametrize("budget", [1, 3, 10**6])
def test_blocked_total_spin_names_the_global_sample(budget, monkeypatch):
    monkeypatch.setattr(wavepacket, "_FRAME_BUDGET", budget)
    with pytest.raises(DegenerateFrame, match=r"^sample 4 with k = \[-2\.0, 0\.0, 0\.0\] is parallel") as exc:
        total_spin(_seven_samples([-2.0, 0.0, 0.0]), packet())
    assert exc.value.index == (4,)
    with pytest.raises(DegenerateFrame, match=r"^sample 4 with k = \[2\.0, 0\.0, 0\.0\] is parallel") as exc:
        sample_spinors(_seven_samples([2.0, 0.0, 0.0]), packet())
    assert exc.value.index == (4,)
    cfg = packet(i_vec=np.tile(X, (2, 1)))
    with pytest.raises(ReferenceAnnihilated, match=r"^packet 0, sample 4 .*support") as exc:
        total_spin(_seven_samples([0.0, 0.0, -2.0]), cfg)
    assert exc.value.index == (0, 4)
    # a sweep whose budget holds less than the spectrum still names step and sample
    with pytest.raises(ReferenceAnnihilated, match=r"^step 0 \(phi = 0\.0\), sample 4 .*support") as exc:
        total_spin_i_sweep(_seven_samples([0.0, 0.0, -2.0]), packet(), Z, 3)
    assert exc.value.index == (0, 4)


def test_total_spin_memory_is_bounded_by_the_frame_budget():
    import tracemalloc

    # 41^3 = 68921 samples; building every frame at once took about 19 times
    # the spectrum's own arrays
    spec = gaussian_spectrum([0.0, 0.0, 5.0], 0.5, 41, 4.0)
    own = spec.k.nbytes + spec.amplitude.nbytes + spec.weight.nbytes
    cfg = packet(i_vec=[0.0, 0.6, 0.8], alpha=np.array([0.6, 0.8j]))
    # a first call leaves numpy's one-time allocations out of the peak
    total_spin(single_wave(), cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        total_spin(spec, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * own, (peak, own)


def test_total_spin_memory_does_not_grow_with_the_jones_batch():
    import tracemalloc

    # each packet of a Jones batch counts toward the frame budget, so one I and
    # 729 samples under 256 Jones vectors peak no higher than under one; with
    # blocks sized by the frames alone the peak grew with the batch (13.6 MB
    # against 0.9 MB)
    spec = gaussian_spectrum([0.0, 0.3, 5.0], 0.5, 9, 4.0)
    alpha = np.random.default_rng(90).normal(size=(256, 4)).view(complex)
    alpha /= np.linalg.norm(alpha, axis=-1, keepdims=True)
    cfgs = [packet(i_vec=[0.0, 0.6, 0.8], alpha=a) for a in (alpha[0], alpha)]
    # a first call leaves numpy's one-time allocations out of the peaks
    total_spin(spec, cfgs[0])
    peaks = []
    tracemalloc.start()
    try:
        for cfg in cfgs:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            total_spin(spec, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def test_spin_field_memory_is_bounded_by_the_frame_budget():
    import tracemalloc

    # 41^3 = 68921 samples at 125 points; building every frame at once took
    # about 9 times the spectrum's own arrays
    spec = gaussian_spectrum([0.0, 0.0, 5.0], 0.5, 41, 4.0)
    own = spec.k.nbytes + spec.amplitude.nbytes + spec.weight.nbytes
    cfg = packet(i_vec=[0.0, 0.6, 0.8], alpha=np.array([0.6, 0.8j]))
    points = position_grid(5, 3.0)[0]
    # a first call leaves numpy's one-time allocations out of the peak
    spin_field(single_wave(), cfg, points, 0.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spin_field(spec, cfg, points, 0.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * own, (peak, own)


def test_an_empty_packet_batch_gives_empty_results():
    # the frame budget is shared among no packets: one block holds every sample
    spec = gaussian_spectrum([0.0, 0.0, 5.0], 0.5, 3, 2.0)
    cfg = packet(i_vec=np.zeros((0, 3)), alpha=np.array([0.6, 0.8j]))
    assert total_spin(spec, cfg).shape == (0, 3)
    assert sample_spinors(spec, cfg).shape == (0, len(spec), 2)
    assert evaluate_wavefunction(spec, cfg, [0.0, 0.0, 0.0], 0.0).shape == (0, 2)


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


@pytest.mark.parametrize("budget", [1, 729, 3 * 729, 10**6])
def test_sweep_equals_one_total_spin_per_step_for_any_block(budget, monkeypatch):
    # the reference is the per-step loop: rotate I, then one total_spin call
    spec = gaussian_spectrum([0.0, 0.0, 5.0], 0.5, 9, 4.0)
    cfg = packet(i_vec=[0.0, 0.6, 0.8], alpha=np.array([0.6, 0.8j]))
    axis = np.array([0.48, 0.6, 0.64])
    monkeypatch.setattr(wavepacket, "_FRAME_BUDGET", budget)
    phis, spins = total_spin_i_sweep(spec, cfg, axis, 7)
    for phi, s in zip(phis, spins):
        i_rot = so3_rotation(axis, phi) @ cfg.i_vec
        assert s.tobytes() == total_spin(spec, packet(i_vec=i_rot, alpha=cfg.alpha)).tobytes()


def test_sweep_memory_is_bounded_by_the_frame_budget():
    import tracemalloc

    spec = gaussian_spectrum([0.0, 0.0, 5.0], 0.5, 9, 4.0)
    cfg = packet(i_vec=[0.0, 0.6, 0.8], alpha=np.array([0.6, 0.8j]))
    # a first run leaves numpy's one-time allocations out of the peaks
    total_spin_i_sweep(spec, cfg, Y, 8)
    peaks = []
    tracemalloc.start()
    try:
        for steps in (8, 64):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            total_spin_i_sweep(spec, cfg, Y, steps)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_total_spin_frees_each_block_before_the_next():
    import tracemalloc

    # 8 packets against 729 samples run as two sample blocks; with the first
    # block still held while the second was built, the peak was 1.17x that
    # of the first block alone
    spec = gaussian_spectrum([0.0, 0.0, 5.0], 0.5, 9, 4.0)
    per = wavepacket._FRAME_BUDGET // 8
    assert per < len(spec)
    amp = spec.amplitude[:per] / np.sqrt(np.sum(spec.weight[:per] * np.abs(spec.amplitude[:per]) ** 2))
    first = Spectrum(k=spec.k[:per], amplitude=amp, weight=spec.weight[:per])
    i_vecs = np.array([[0.0, np.sin(a), np.cos(a)] for a in np.linspace(0.3, 1.2, 8)])
    cfg = packet(i_vec=i_vecs, alpha=np.array([0.6, 0.8j]))
    peaks = []
    for s in (first, spec):
        total_spin(s, cfg)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            total_spin(s, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks


def test_an_eight_step_sweep_is_one_total_spin_call(monkeypatch):
    # the budget bounds the steps per call; _frame_blocks splits the spectrum
    # by samples, so each block's directions serve all eight steps
    spec = gaussian_spectrum([0.0, 0.0, 5.0], 0.5, 9, 4.0)
    cfg = packet(i_vec=[0.0, 0.6, 0.8], alpha=np.array([0.6, 0.8j]))
    calls = []

    def counted(spec, cfg):
        calls.append(cfg.i_vec.shape)
        return total_spin(spec, cfg)

    monkeypatch.setattr(wavepacket, "total_spin", counted)
    total_spin_i_sweep(spec, cfg, Y, 8)
    assert calls == [(8, 3)]


def test_a_sweep_accepts_an_off_unit_axis_and_i_vec():
    # each off unit by just under EPS_INPUT: rotated about the axis as given,
    # I came out off unit by 2.4e-9 and the sweep raised ValueError
    spec = gaussian_spectrum([0.0, 0.0, 5.0], 0.5, 3, 4.0)
    cfg = packet(i_vec=np.array([0.6, 0.0, 0.8]) * (1.0 + 9.99e-10), alpha=np.array([1.0, 0.0]))
    axis = np.array([0.6, 0.0, 0.8]) * (1.0 - 9.99e-10)
    phis, spins = total_spin_i_sweep(spec, cfg, axis, 8)
    _, unit = total_spin_i_sweep(spec, cfg, axis / np.linalg.norm(axis), 8)
    assert spins.tobytes() == unit.tobytes()


@pytest.mark.parametrize("budget", [4, 6, 2048])
def test_sweep_geometry_error_names_the_step(budget, monkeypatch):
    # I = x rotated about y through step 2's pi/2 is -z, antiparallel to sample
    # 1; with 2 samples, step 2 opens the second block of 2 steps, sits last in
    # the first block of 3, or in the one block of all 8
    monkeypatch.setattr(wavepacket, "_FRAME_BUDGET", budget)
    spec = Spectrum(k=[[0.3, 0.0, 2.0], [0.0, 0.0, 2.0]], amplitude=[0.6, 0.8], weight=[1.0, 1.0])
    with pytest.raises(
        DegenerateFrame, match=r"^step 2 \(phi = 1\.5707963267948966\), sample 1 with k = \[0\.0, 0\.0, 2\.0\] is parallel"
    ) as exc:
        total_spin_i_sweep(spec, packet(), Y, 8)
    assert exc.value.index == (2, 1)
    # the references fail on the sample at -z already at step 0
    below = Spectrum(k=[[0.3, 0.0, 2.0], [0.0, 0.0, -2.0]], amplitude=[0.6, 0.8], weight=[1.0, 1.0])
    with pytest.raises(ReferenceAnnihilated, match=r"^step 0 \(phi = 0\.0\), sample 1 .*support"):
        total_spin_i_sweep(below, packet(), Z, 8)


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
    # signed zeros in either part of an amplitude keep their sign
    amplitude = [complex(-0.0, 1.0), complex(-1.0, -0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    signed = Spectrum(k=[[0.0, 0.0, 2.0]] * 4, amplitude=amplitude, weight=[0.5, 0.5, 1.0, 1.0])
    save_spectrum(signed, path)
    loaded = load_spectrum(path).amplitude
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(loaded, part)), np.signbit(getattr(signed.amplitude, part)))
    assert loaded.tobytes() == signed.amplitude.tobytes()


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


def test_spectrum_field_counts_are_checked_per_line(tmp_path):
    # 5 + 7 fields total 12 = 2 x 6, so only a per-line check refuses this file
    path = tmp_path / "uneven.csv"
    path.write_text("kx,ky,kz,re_A,im_A,weight\n0,0,2,1,0\n0.5,0,0,2,1,0,0.5\n")
    with pytest.raises(ValueError, match="^spectrum line 2 has 5 fields, expected 6$"):
        load_spectrum(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_spectrum_file_parsing_edge_cases(tmp_path, newline):
    path = tmp_path / "edge.csv"
    lines = ["kx,ky,kz,re_A,im_A,weight", "0,0,1_0,1,0,0.5", "", "  ", "0,0, 2.5 ,1,0,0.5"]
    path.write_bytes(newline.join(lines + [""]).encode())
    spec = load_spectrum(path)
    # float() semantics per field: underscores and surrounding spaces are accepted
    assert np.array_equal(spec.k, [[0.0, 0.0, 10.0], [0.0, 0.0, 2.5]])
    assert np.array_equal(spec.amplitude, [1.0, 1.0])
    assert np.array_equal(spec.weight, [0.5, 0.5])
    # blank lines count in the line numbers of errors
    path.write_bytes(newline.join(lines + ["0,0,3,1", ""]).encode())
    with pytest.raises(ValueError, match="^spectrum line 6 has 4 fields, expected 6$"):
        load_spectrum(path)
    path.write_bytes(newline.join(lines + ["0,0,3,1,abc,0", ""]).encode())
    with pytest.raises(ValueError, match="^could not convert string to float: 'abc'$"):
        load_spectrum(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("final", [True, False], ids=["final-newline", "no-final-newline"])
def test_spectrum_line_endings_padding_and_line_numbers(tmp_path, newline, final):
    # every line ending reads as iterating the file in text mode does:
    # blank, whitespace-only and padded lines, with or without a final newline
    path = tmp_path / "ends.csv"
    lines = ["  kx,ky,kz,re_A,im_A,weight\t", "", "0,0,2,1,0,0.25", " \t ", "\x0c",
             "\t0,0,3 ,-0,1,0.25  ", "", "0.5,-0,2,0,-1,0.5"]

    def write(*extra):
        text = newline.join(lines + list(extra))
        path.write_bytes((text + newline if final else text).encode())

    write()
    spec = _assert_reads_as_float(path)
    assert spec.k.tolist() == [[0.0, 0.0, 2.0], [0.0, 0.0, 3.0], [0.5, 0.0, 2.0]]
    # a short line after blank lines, named by its line in the file
    write("", "", "1,2,3")
    with pytest.raises(ValueError, match="^spectrum line 11 has 3 fields, expected 6$"):
        load_spectrum(path)
    write("  ", "1,2,3,4,5,6,7", "1,2")
    with pytest.raises(ValueError, match="^spectrum line 10 has 7 fields, expected 6$"):
        load_spectrum(path)
    write("1,2,3,x,5,6")
    with pytest.raises(ValueError, match="^could not convert string to float: 'x'$"):
        load_spectrum(path)
    # a file of blank lines, or of the header alone
    path.write_bytes(newline.join(["", " ", ""]).encode())
    with pytest.raises(ValueError, match="must start with header"):
        load_spectrum(path)
    path.write_bytes((newline + lines[0] + (newline if final else "")).encode())
    with pytest.raises(ValueError, match=r"^spectrum is not normalized: sum\(weight \|A\|\^2\) = 0.0$"):
        load_spectrum(path)


def _per_field_rows(path):
    """A spectrum file's body as float() reads each field, one row per nonblank line."""
    with open(path) as fh:
        body = [ln for ln in map(str.strip, fh) if ln][1:]
    return np.array([[float(t) for t in ln.split(",")] for ln in body]).reshape(-1, 6)


def _assert_reads_as_float(path):
    spec = load_spectrum(path)
    rows = _per_field_rows(path)
    # each amplitude part as read: re + 1j * im would turn a -0 part into +0
    expected = rows[:, :3], np.ascontiguousarray(rows[:, 3:5]).view(complex)[:, 0], rows[:, 5]
    for got, want in zip((spec.k, spec.amplitude, spec.weight), expected):
        assert got.shape == want.shape
        bits = [np.ascontiguousarray(a).view(np.int64) for a in (got, want)]
        assert np.array_equal(*bits)
    return spec


@pytest.mark.parametrize("k0, n_k", [([0.0, 0.0, 5.0], 9), ([0.3, -0.2, 4.0], 15)])
@pytest.mark.parametrize("permuted", [False, True], ids=["in-order", "permuted"])
def test_saved_spectra_read_as_float_reads_each_field(tmp_path, k0, n_k, permuted):
    path = tmp_path / "spec.csv"
    save_spectrum(gaussian_spectrum(k0, 0.5, n_k, 4.0), path)
    if permuted:
        header, *body = path.read_text().splitlines()
        order = np.random.default_rng(n_k).permutation(len(body))
        path.write_text("\n".join([header, *(body[i] for i in order)]) + "\n")
    _assert_reads_as_float(path)


def test_spectrum_columns_read_as_float_reads_each_field(tmp_path):
    n = 200
    rng = np.random.default_rng(18)
    re_a = rng.uniform(0.5, 1.5, size=n).tolist()
    columns = [
        # first repeat at row 130, past the 64 rows that choose the dict path
        [repr(j % 130 + 0.25) for j in range(n)],
        # equal values under different texts; "-0" must stay -0.0
        ["0", "-0", "0.0", "1_0", " 2.5 "] * (n // 5),
        # the only repeat is rows 0 and 1
        [repr(3.0 + max(j, 1) / 7) for j in range(n)],
        [repr(a) for a in re_a],
        ["0", "-0"] * (n // 2),
        [repr(1.0 / (n * a * a)) for a in re_a],
    ]
    path = tmp_path / "spec.csv"
    rows = (",".join(fields) for fields in zip(*columns))
    path.write_text("\n".join(["kx,ky,kz,re_A,im_A,weight", *rows]) + "\n")
    spec = _assert_reads_as_float(path)
    assert list(np.signbit(spec.k[:5, 1])) == [False, True, False, False, False]
    assert spec.k[:5, 1].tolist() == [0.0, 0.0, 0.0, 10.0, 2.5]


@pytest.mark.parametrize("kx", ["1", "distinct"])
def test_a_bad_field_is_reported_first_in_row_order(tmp_path, kx):
    # kx (a repeating or a distinct column) holds a bad text in row 6, and
    # weight (a repeating column) one in row 3: the error names row 3's, as one
    # conversion of the whole body does, though kx's column converts first
    rows = [[kx if kx != "distinct" else str(j + 1), "0", "5", "1", "0", "0.125"]
            for j in range(8)]
    rows[5][0] = "xyz"
    rows[2][5] = "abc"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["kx,ky,kz,re_A,im_A,weight", *map(",".join, rows)]) + "\n")
    with pytest.raises(ValueError, match="^could not convert string to float: 'abc'$"):
        load_spectrum(path)


def test_load_spectrum_memory_is_bounded_by_its_arrays(tmp_path):
    import tracemalloc

    # 21^3 samples whose values are all distinct; reading them peaked at about
    # 17.5 times the arrays returned when the lines, the joined body and the
    # fields were all held at once
    rng = np.random.default_rng(21)
    n = 21**3
    amplitude = rng.normal(size=n) + 1j * rng.normal(size=n)
    weight = rng.uniform(0.5, 1.5, size=n)
    weight /= np.sum(weight * np.abs(amplitude) ** 2)
    path = tmp_path / "spec.csv"
    save_spectrum(Spectrum(rng.normal(size=(n, 3)) + [0.0, 0.0, 5.0], amplitude, weight), path)
    # a first call leaves numpy's one-time allocations out of the peak
    spec = load_spectrum(path)
    own = spec.k.nbytes + spec.amplitude.nbytes + spec.weight.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        load_spectrum(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 16 * own, (peak, own)


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


@pytest.mark.parametrize("where", ["time", "point"])
def test_plane_wave_evaluators_reject_phases_that_overflow(where):
    # omega |t| or |k| |x| past the float range turned every sum into NaN,
    # with RuntimeWarnings (errors under this suite's pytest settings) and,
    # from spin_field, all-node rows
    spec = gaussian_spectrum([0.0, 0.0, 5.0], 0.5, 3, 2.0)
    points, _ = position_grid(3, 1.0)
    x, t = (points[4], 1e308) if where == "time" else (np.array([0.0, 0.0, 1e308]), 0.5)
    grid = points if where == "time" else np.stack([points[4], x])
    with pytest.raises(ValueError, match="plane-wave phases overflow"):
        evaluate_wavefunction(spec, packet(), x, t)
    with pytest.raises(ValueError, match="plane-wave phases overflow"):
        spin_field(spec, packet(), grid, t)
    # phases within the float range but past pi * 2^53 have no correct digit
    large = (points[4], 1e305) if where == "time" else (np.array([0.0, 0.0, 1e305]), 0.5)
    with pytest.raises(ValueError, match="plane-wave phases leave no correct digit"):
        evaluate_wavefunction(spec, packet(), *large)
    # large phases below that bound still evaluate
    small = (points[4], 1e10) if where == "time" else (np.array([0.0, 0.0, 1e10]), 0.5)
    assert np.isfinite(evaluate_wavefunction(spec, packet(), *small)).all()


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


def test_tensor_axes_read_off_the_runs_are_the_sorted_unique_values():
    # a grid built in order gives its axes bit for bit, -0.0 and a one-value
    # axis included, as do the default field's points and spectrum
    ax = [np.array([-1.0, -0.0, 2.5]), np.array([7.0]), np.array([-3.0, 0.0, 1e-300, 4.0])]
    grid = _mesh(*ax)
    points, _ = position_grid(21, 6.0)
    spec = gaussian_spectrum([0.0, 0.0, 5.0], 0.5, 9, 4.0)
    for a in (grid, points, spec.k):
        want = [np.unique(a[:, i]) for i in range(3)]
        got = wavepacket._tensor_axes(a)
        assert all(np.array_equal(g.view(np.int64), w.view(np.int64)) for g, w in zip(got, want))
    assert all(np.array_equal(g.view(np.int64), w.view(np.int64)) for g, w in zip(wavepacket._tensor_axes(grid), ax))
    # rows whose zeros differ in sign still form a grid of the same values;
    # reordered rows do not
    mixed = grid.copy()
    mixed[1::2, 0] = np.where(mixed[1::2, 0] == 0.0, 0.0, mixed[1::2, 0])
    assert np.signbit(mixed[:, 0]).sum() < np.signbit(grid[:, 0]).sum()
    assert all(np.array_equal(g, w) for g, w in zip(wavepacket._tensor_axes(mixed), ax))
    order = np.random.default_rng(4).permutation(len(grid))
    assert wavepacket._tensor_axes(grid[order]) is None


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


# values whose text or bit pattern is easy to get wrong: signed zeros, NaN of
# either sign and with a payload, infinities, the smallest subnormal
_SPECIAL = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 5e-324, 1e-300, 1e22, -1.5],
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123],
             dtype=np.uint64).view(np.float64),
])


@pytest.mark.parametrize("seed", range(8))
def test_write_table_matches_per_value_formatting(tmp_path, seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(2 * len(_SPECIAL), 80))
    # both zeros in one repeated column: a writer that keys repeated values by
    # float value instead of bit pattern prints them alike
    zeros = rng.choice([0.0, -0.0], size=rows)
    zeros[:2] = [0.0, -0.0]
    columns = [zeros]
    for _ in range(int(rng.integers(1, 7))):
        if rng.random() < 0.5:
            # at most rows / 2 distinct values: formatted once per bit pattern
            pool = rng.choice(_SPECIAL, size=rng.integers(1, len(_SPECIAL) + 1), replace=False)
            columns.append(rng.choice(pool, size=rows))
        else:
            # random bit patterns: all distinct, NaN payloads and subnormals included
            columns.append(np.frombuffer(rng.bytes(8 * rows), dtype=np.float64))
    order = rng.permutation(len(columns))
    table = np.column_stack([columns[j] for j in order])
    header = ",".join(f"c{j}" for j in range(table.shape[1]))
    wavepacket.write_table(tmp_path / "t.csv", header, table)
    assert (tmp_path / "t.csv").read_text() == _per_value_csv(header, table.tolist())


def test_write_table_with_no_row_or_one_row(tmp_path):
    wavepacket.write_table(tmp_path / "empty.csv", "a,b", np.empty((0, 2)))
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"
    wavepacket.write_table(tmp_path / "one.csv", "a,b,c", np.array([[-0.0, np.nan, 1e22]]))
    assert (tmp_path / "one.csv").read_text() == "a,b,c\n-0,nan,1e+22\n"


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


def test_changing_an_input_array_after_construction_changes_nothing():
    # a spectrum and a config keep read-only copies: changing the caller's
    # alpha to (2, 0) gave a total spin of (0, 0, 2), and an amplitude of 3
    # gave (0, 0, 4.5), both past every check
    k, amplitude, weight = np.array([[-0.0, 0.0, 5.0]]), np.array([1.0 - 0.0j]), np.array([1.0])
    i_vec, alpha = np.array([1.0, 0.0, 0.0]), np.array([1.0 + 0.0j, 0.0])
    spec = Spectrum(k=k, amplitude=amplitude, weight=weight)
    cfg = PacketConfig(i_vec=i_vec, alpha=alpha)
    inputs = (k, amplitude, weight, i_vec, alpha)
    kept = (spec.k, spec.amplitude, spec.weight, cfg.i_vec, cfg.alpha)
    # the bits are unchanged, signed zeros included
    assert [x.tobytes() for x in kept] == [x.tobytes() for x in inputs]
    spin = total_spin(spec, cfg)
    assert spin.tolist() == [0.0, 0.0, 0.5]
    # an i_vec of z would be parallel to k
    changes = ((alpha, [2.0, 0.0]), (amplitude, 3.0), (weight, 7.0), (k, [0.0, 3.0, 4.0]), (i_vec, Z))
    for array, value in changes:
        array[...] = value
        assert total_spin(spec, cfg).tobytes() == spin.tobytes()
    for x in kept:
        assert not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0.0


def test_public_dataclasses_compare_and_hash_by_identity():
    from spinpol import DEFAULT_REFERENCES, eigen_spinors, heisenberg_sigma

    # == compared the arrays field by field and raised; hash raised on the frozen ones
    frame = build_frame(Z, X)
    objects = [
        DEFAULT_REFERENCES, FALLBACK_REFERENCES, frame, build_frame(Z, X),
        eigen_spinors(frame), eigen_spinors(build_frame(Z, X)),
        heisenberg_sigma(frame), heisenberg_sigma(frame),
        single_wave(), single_wave(), packet(), packet(),
        spin_field(single_wave(), packet(), [[0.0, 0.0, 0.0]], 0.0),
        spin_field(single_wave(), packet(), [[0.0, 0.0, 0.0]], 0.0),
    ]
    for a in objects:
        for b in objects:
            assert (a == b) is (a is b) and (a != b) is (a is not b)
    assert len(set(objects)) == len(objects)
    assert {DEFAULT_REFERENCES: 1}[DEFAULT_REFERENCES] == 1
