"""Triad construction, ladder operators, eigenspinors, phase bookkeeping."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinpol import (
    DEFAULT_REFERENCES,
    FALLBACK_REFERENCES,
    DegenerateFrame,
    ReferenceAnnihilated,
    ReferenceSpinors,
    build_frame,
    complex_basis,
    compose_spinor,
    dot_sigma,
    eigen_residual,
    eigen_spinors,
    ladder_constants,
    ladder_operators,
    mapping_matrix,
    phase_factor,
    rotate_characterization,
)
from spinpol.frames import _cross

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])

SQRT2 = np.sqrt(2.0)


def random_frame(rng, min_cross=1e-2):
    w = rng.normal(size=3)
    w /= np.linalg.norm(w)
    while True:
        i_vec = rng.normal(size=3)
        i_vec /= np.linalg.norm(i_vec)
        if np.linalg.norm(np.cross(w, i_vec)) > min_cross:
            return build_frame(w, i_vec)


def test_build_frame_fixtures():
    f = build_frame(Z, X)
    assert_allclose(f.u, X, atol=1e-15)
    assert_allclose(f.v, Y, atol=1e-15)
    g = build_frame(Z, Y)
    assert_allclose(g.u, Y, atol=1e-15)
    assert_allclose(g.v, -X, atol=1e-15)


def test_build_frame_rejects_parallel_vectors():
    with pytest.raises(DegenerateFrame):
        build_frame(Z, Z)
    with pytest.raises(DegenerateFrame):
        build_frame(Z, -Z)
    # just below the cutoff: cross norm ~ 1e-9
    tilted = np.array([1e-9, 0.0, 1.0])
    tilted /= np.linalg.norm(tilted)
    with pytest.raises(DegenerateFrame):
        build_frame(Z, tilted)


def test_build_frame_rejects_non_unit_inputs():
    with pytest.raises(ValueError, match="unit"):
        build_frame([0.0, 0.0, 2.0], X)


def test_triad_is_right_handed_orthonormal():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        f = random_frame(rng)
        for vec in (f.u, f.v, f.w):
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert abs(np.dot(f.u, f.v)) < 1e-12
        assert abs(np.dot(f.v, f.w)) < 1e-12
        assert abs(np.dot(f.w, f.u)) < 1e-12
        assert np.linalg.norm(np.cross(f.u, f.v) - f.w) < 1e-12


def test_polar_angle_of_characterization_vector_is_degenerate():
    rng = np.random.default_rng(22)
    for _ in range(200):
        f = random_frame(rng)
        perp = f.i_vec - np.dot(f.i_vec, f.w) * f.w
        perp /= np.linalg.norm(perp)
        theta = rng.uniform(0.05, np.pi - 0.05)
        tilted = np.sin(theta) * perp + np.cos(theta) * f.w
        g = build_frame(f.w, tilted / np.linalg.norm(tilted))
        assert np.linalg.norm(f.u - g.u) < 1e-12
        assert np.linalg.norm(f.v - g.v) < 1e-12


def test_triad_products_close_on_the_axis():
    from spinpol import sigma_product

    rng = np.random.default_rng(33)
    for _ in range(200):
        f = random_frame(rng)
        assert np.linalg.norm(sigma_product(f.u, f.v) - 1j * dot_sigma(f.w)) < 1e-12
        assert np.linalg.norm(sigma_product(f.v, f.w) - 1j * dot_sigma(f.u)) < 1e-12
        assert np.linalg.norm(sigma_product(f.w, f.u) - 1j * dot_sigma(f.v)) < 1e-12


def test_complex_basis_fixture():
    w_plus, w_minus = complex_basis(build_frame(Z, X))
    assert_allclose(w_plus, (X + 1j * Y) / SQRT2, atol=1e-15)
    assert_allclose(w_minus, (Y + 1j * X) / SQRT2, atol=1e-15)


def test_complex_basis_is_orthonormal():
    rng = np.random.default_rng(23)
    for _ in range(300):
        w_plus, w_minus = complex_basis(random_frame(rng))
        assert abs(np.vdot(w_minus, w_plus)) < 1e-12
        assert abs(np.linalg.norm(w_plus) - 1.0) < 1e-12
        assert abs(np.linalg.norm(w_minus) - 1.0) < 1e-12


def test_ladder_operator_fixtures():
    # (sigma_x + i sigma_y)/sqrt2 and (sigma_y + i sigma_x)/sqrt2, by hand
    sig_plus, sig_minus = ladder_operators(build_frame(Z, X))
    assert_allclose(sig_plus, SQRT2 * np.array([[0.0, 1.0], [0.0, 0.0]]), atol=1e-15)
    assert_allclose(sig_minus, SQRT2 * np.array([[0.0, 0.0], [1.0j, 0.0]]), atol=1e-15)


def test_ladder_operators_are_nilpotent_and_shift_eigenvalues():
    rng = np.random.default_rng(24)
    for _ in range(300):
        f = random_frame(rng)
        sig_plus, sig_minus = ladder_operators(f)
        w_sigma = dot_sigma(f.w)
        assert np.linalg.norm(sig_plus @ sig_plus) < 1e-12
        assert np.linalg.norm(sig_minus @ sig_minus) < 1e-12
        assert np.linalg.norm(sig_plus @ w_sigma + sig_plus) < 1e-12
        assert np.linalg.norm(sig_minus @ w_sigma - sig_minus) < 1e-12
        assert np.linalg.norm(w_sigma @ sig_plus - sig_plus) < 1e-12
        assert np.linalg.norm(w_sigma @ sig_minus + sig_minus) < 1e-12


def test_eigen_spinor_fixture():
    pair = eigen_spinors(build_frame(Z, X))
    assert_allclose(pair.chi_plus, [1.0, 0.0], atol=1e-15)
    assert_allclose(pair.chi_minus, [0.0, 1.0j], atol=1e-15)
    assert pair.n_plus == pytest.approx(1.0 / SQRT2, abs=1e-15)
    assert pair.n_minus == pytest.approx(1.0 / SQRT2, abs=1e-15)


def test_eigen_spinor_phase_tracks_azimuth():
    # characterization vector a quarter turn on: chi+ picks up exp(-i pi/2)
    pair = eigen_spinors(build_frame(Z, Y))
    assert_allclose(pair.chi_plus, [-1.0j, 0.0], atol=1e-15)


def test_eigen_spinors_match_direct_diagonalization():
    rng = np.random.default_rng(25)
    for _ in range(300):
        f = random_frame(rng)
        pair = eigen_spinors(f)
        assert eigen_residual(f.w, pair.chi_plus, +1) < 1e-12
        assert eigen_residual(f.w, pair.chi_minus, -1) < 1e-12
        assert abs(np.vdot(pair.chi_plus, pair.chi_minus)) < 1e-12
        # independent route: eigh eigenvectors agree up to a phase
        _, vecs = np.linalg.eigh(dot_sigma(f.w))
        assert abs(abs(np.vdot(vecs[:, 1], pair.chi_plus)) - 1.0) < 1e-12
        assert abs(abs(np.vdot(vecs[:, 0], pair.chi_minus)) - 1.0) < 1e-12


def test_normalization_constants_do_not_depend_on_characterization_vector():
    rng = np.random.default_rng(26)
    for _ in range(200):
        f = random_frame(rng)
        pair = eigen_spinors(f)
        g = rotate_characterization(f, rng.uniform(0.0, 2.0 * np.pi))
        pair_rot = eigen_spinors(g)
        assert abs(pair.n_plus - pair_rot.n_plus) < 1e-12
        assert abs(pair.n_minus - pair_rot.n_minus) < 1e-12


def test_ladder_annihilation_of_own_eigenspinors():
    rng = np.random.default_rng(27)
    for _ in range(200):
        f = random_frame(rng)
        pair = eigen_spinors(f)
        sig_plus, sig_minus = ladder_operators(f)
        assert np.linalg.norm(sig_plus @ pair.chi_plus) < 1e-12
        assert np.linalg.norm(sig_minus @ pair.chi_minus) < 1e-12


def test_annihilated_reference_is_rejected():
    f = build_frame(Z, X)
    bad = ReferenceSpinors(chi1=np.array([1.0, 0.0j]), chi2=DEFAULT_REFERENCES.chi2)
    with pytest.raises(ReferenceAnnihilated, match="chi1"):
        eigen_spinors(f, bad)
    # the swapped pair works on the axis that breaks the default
    down = build_frame(-Z, X)
    with pytest.raises(ReferenceAnnihilated):
        eigen_spinors(down)
    pair = eigen_spinors(down, FALLBACK_REFERENCES)
    assert eigen_residual(down.w, pair.chi_plus, +1) < 1e-12


def test_random_references_are_accepted():
    rng = np.random.default_rng(28)
    for _ in range(100):
        f = random_frame(rng)
        chi1 = rng.normal(size=2) + 1j * rng.normal(size=2)
        chi2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        ref = ReferenceSpinors(
            chi1=chi1 / np.linalg.norm(chi1), chi2=chi2 / np.linalg.norm(chi2)
        )
        pair = eigen_spinors(f, ref)
        assert eigen_residual(f.w, pair.chi_plus, +1) < 1e-12
        assert eigen_residual(f.w, pair.chi_minus, -1) < 1e-12


def test_phase_factor_fixture_and_branch():
    # c = 2 N+ N- chi1^dag sigma- chi2 = sqrt2 i for the default frame and refs
    phi0 = phase_factor(build_frame(Z, X))
    assert phi0 == pytest.approx(np.pi / 2.0, abs=1e-15)
    rng = np.random.default_rng(29)
    for _ in range(200):
        value = phase_factor(random_frame(rng))
        assert -np.pi < value <= np.pi


def test_phase_factor_advances_with_azimuth():
    rng = np.random.default_rng(30)
    for _ in range(200):
        f = random_frame(rng)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        before = phase_factor(f)
        after = phase_factor(rotate_characterization(f, phi))
        # compare as phases to stay clear of the branch cut
        assert abs(np.exp(1j * after) - np.exp(1j * (before + phi))) < 1e-12


def test_ladder_constants_have_fixed_modulus_and_pairing():
    rng = np.random.default_rng(31)
    for _ in range(300):
        f = random_frame(rng)
        c, c_prime = ladder_constants(f)
        assert abs(abs(c) - SQRT2) < 1e-12
        assert abs(abs(c_prime) - SQRT2) < 1e-12
        assert abs(c - 1j * np.conj(c_prime)) < 1e-12
        assert abs(c - SQRT2 * np.exp(1j * phase_factor(f))) < 1e-12
        # phi0 is read from the same expression of c, not from a second formula
        assert phase_factor(f) == np.angle(c)


def test_cross_product_equals_np_cross_bit_for_bit():
    rng = np.random.default_rng(37)
    a, b = rng.normal(size=(2, 1000, 3))
    assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()
    for a_row, b_row in zip(a, b):
        assert _cross(a_row, b_row).tobytes() == np.cross(a_row, b_row).tobytes()


def test_phase_factor_matches_reference_overlap_definition():
    # exp(i phi0) = sqrt2 N+ N- chi1^dag sigma- chi2 = phase of chi1^dag chi-,
    # checked away from -z, where the reference overlap keeps its precision
    ref = DEFAULT_REFERENCES
    rng = np.random.default_rng(36)
    checked = 0
    while checked < 200:
        f = random_frame(rng)
        if f.w[2] < -0.5:
            continue
        pair = eigen_spinors(f)
        _, sig_minus = ladder_operators(f)
        overlap = SQRT2 * pair.n_plus * pair.n_minus * np.vdot(ref.chi1, sig_minus @ ref.chi2)
        assert abs(np.exp(1j * pair.phi0) - overlap) < 1e-12
        chi1_chi_minus = np.vdot(ref.chi1, pair.chi_minus)
        assert abs(np.exp(1j * pair.phi0) - chi1_chi_minus / abs(chi1_chi_minus)) < 1e-12
        checked += 1


def test_mapping_matrix_fixture_and_unitarity():
    varpi = mapping_matrix(build_frame(Z, X))
    assert_allclose(varpi, np.array([[1.0, 0.0], [0.0, 1.0j]]), atol=1e-15)
    rng = np.random.default_rng(32)
    for _ in range(300):
        varpi = mapping_matrix(random_frame(rng))
        assert np.linalg.norm(varpi.conj().T @ varpi - np.eye(2)) < 1e-12


def test_compose_spinor_fixtures():
    varpi = mapping_matrix(build_frame(Z, X))
    assert_allclose(compose_spinor(varpi, [1.0, 0.0]), [1.0, 0.0], atol=1e-15)
    assert_allclose(compose_spinor(varpi, [0.0, 1.0]), [0.0, 1.0j], atol=1e-15)
    mixed = compose_spinor(varpi, np.array([1.0, 1.0]) / SQRT2)
    assert_allclose(mixed, np.array([1.0, 1.0j]) / SQRT2, atol=1e-15)


def test_compose_spinor_validates_inputs():
    varpi = mapping_matrix(build_frame(Z, X))
    with pytest.raises(ValueError, match="normalized"):
        compose_spinor(varpi, [1.0, 1.0])
    with pytest.raises(ValueError, match="unitary"):
        compose_spinor(np.array([[1.0, 0.0], [0.0, 2.0]]), [1.0, 0.0])


def test_non_finite_vectors_are_rejected():
    with pytest.raises(ValueError, match="unit"):
        build_frame([0.0, 0.0, np.nan], X)
    with pytest.raises(ValueError, match="unit"):
        build_frame(Z, [np.inf, 0.0, 0.0])


def _random_units(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_batched_frames_equal_stacked_single_frames():
    rng = np.random.default_rng(34)
    w = _random_units(rng, 50)
    i_vec = _random_units(rng, 50)
    batch = build_frame(w, i_vec)
    singles = [build_frame(w[j], i_vec[j]) for j in range(50)]
    for name in ("u", "v"):
        stacked = np.array([getattr(f, name) for f in singles])
        assert np.abs(getattr(batch, name) - stacked).max() <= 1e-15
    pair = eigen_spinors(batch)
    pairs = [eigen_spinors(f) for f in singles]
    for name in ("chi_plus", "chi_minus", "n_plus", "n_minus", "phi0"):
        stacked = np.array([getattr(p, name) for p in pairs])
        assert np.abs(getattr(pair, name) - stacked).max() <= 1e-15
    assert np.abs(
        mapping_matrix(batch) - np.array([mapping_matrix(f) for f in singles])
    ).max() <= 1e-15
    phases = np.exp(1j * phase_factor(batch))
    assert np.abs(phases - np.exp(1j * np.array([phase_factor(f) for f in singles]))).max() <= 1e-15
    c, c_prime = ladder_constants(batch)
    single_c = np.array([ladder_constants(f) for f in singles])
    assert np.abs(c - single_c[:, 0]).max() <= 1e-15
    assert np.abs(c_prime - single_c[:, 1]).max() <= 1e-15


def test_single_frame_keeps_scalar_types():
    f = build_frame(Z, X)
    pair = eigen_spinors(f)
    assert type(pair.n_plus) is float and type(pair.n_minus) is float
    assert type(phase_factor(f)) is float
    assert all(type(c) is complex for c in ladder_constants(f))
    assert f.u.shape == (3,) and pair.chi_plus.shape == (2,)
    assert mapping_matrix(f).shape == (2, 2)


def test_batch_errors_name_the_first_offending_frame():
    rng = np.random.default_rng(35)
    w = _random_units(rng, 7)
    i_vec = np.array([1.0, 0.0, 0.0])
    w[4] = i_vec
    w[6] = -i_vec
    with pytest.raises(DegenerateFrame, match=r"\[1.0, 0.0, 0.0\]") as info:
        build_frame(w, i_vec)
    assert info.value.index == (4,)
    w = _random_units(rng, 7)
    w[4] = -Z
    with pytest.raises(ReferenceAnnihilated, match="frame 4") as info:
        eigen_spinors(build_frame(w, i_vec))
    assert info.value.index == (4,)
    with pytest.raises(ValueError, match=r"w \(frame 2\) must be a unit vector"):
        build_frame(np.array([Z, Z, 2.0 * Z]), X)


def test_compose_spinor_checks_every_matrix_of_a_batch():
    varpi = mapping_matrix(build_frame(np.array([Z, Y, -Y]), X))
    good = compose_spinor(varpi, np.array([1.0, 0.0]))
    assert_allclose(good, varpi[:, :, 0], atol=1e-15)
    varpi[1, 0, 0] *= 2.0
    with pytest.raises(ValueError, match=r"matrix \(frame 1\) must be unitary"):
        compose_spinor(varpi, np.array([1.0, 0.0]))


def test_references_are_checked_on_construction():
    with pytest.raises(ValueError, match="normalized"):
        ReferenceSpinors(chi1=np.array([1.0, 1.0]), chi2=DEFAULT_REFERENCES.chi2)
    with pytest.raises(ValueError, match="normalized"):
        ReferenceSpinors(chi1=DEFAULT_REFERENCES.chi1, chi2=np.array([np.nan, 0.0]))


@pytest.mark.parametrize("ref", [DEFAULT_REFERENCES, FALLBACK_REFERENCES])
def test_pair_phase_and_mapping_match_the_ladder_definitions(ref):
    rng = np.random.default_rng(36)
    frames = build_frame(_random_units(rng, 40), _random_units(rng, 40))
    pair = eigen_spinors(frames, ref)
    _, sig_minus = ladder_operators(frames)
    lowered_chi2 = sig_minus @ ref.chi2
    ladder = SQRT2 * pair.n_plus * pair.n_minus * (lowered_chi2 @ ref.chi1.conj())
    assert np.abs(np.exp(1j * pair.phi0) - ladder).max() <= 1e-12
    stacked = np.stack((pair.chi_plus, pair.chi_minus), axis=-1)
    assert np.array_equal(pair.mapping, stacked)
    assert np.array_equal(mapping_matrix(frames, ref), stacked)


def test_eigenspinors_stay_normalized_near_the_annihilating_axis():
    # the default references are annihilated at w = -z; 1e-3 rad from it the
    # closed-form normalization constants cancel to ~1e-11
    eps = 1e-3
    azimuth = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    shell = np.stack(
        (
            np.sin(eps) * np.cos(azimuth),
            np.sin(eps) * np.sin(azimuth),
            np.full_like(azimuth, -np.cos(eps)),
        ),
        axis=-1,
    )
    for w in shell:
        f = build_frame(w, X)
        pair = eigen_spinors(f)
        for chi, lam in ((pair.chi_plus, +1), (pair.chi_minus, -1)):
            assert abs(np.linalg.norm(chi) - 1.0) <= 1e-12
            assert eigen_residual(f.w, chi, lam) <= 1e-12
