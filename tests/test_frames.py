"""Triad construction, ladder operators, eigenspinors, phase bookkeeping."""

import itertools

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
    closed_form_residual,
    eigenspinor_rotation_residuals,
    rotate_characterization,
    rotation_residual,
    spv_rotation_residual,
)
from spinpol.algebra import EPS_INPUT, _UNIT_OFF, _check_spinor, _off_unit, _rows
from spinpol.frames import EPS_PARALLEL, Frame, _cross_rows

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


def _near_parallel_frames(cross, seed=24):
    """300 frames with I tilted from w by an angle whose sine is `cross`, and the rng."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(300, 3))
    w /= np.linalg.norm(w, axis=-1, keepdims=True)
    p = np.cross(w, rng.normal(size=(300, 3)))
    p /= np.linalg.norm(p, axis=-1, keepdims=True)
    i_vec = np.sqrt(1.0 - cross**2) * w + cross * p
    i_vec /= np.linalg.norm(i_vec, axis=-1, keepdims=True)
    return build_frame(w, i_vec), rng


@pytest.mark.parametrize("cross", [1e-3, 1e-5, 1e-6, 2 * EPS_PARALLEL])
def test_near_parallel_frames_keep_the_laws_that_do_not_rebuild_from_i(cross):
    # v = (w x I)/|w x I| alone would be normal to w only to about 1e-16/cross
    f, _ = _near_parallel_frames(cross)
    triad = np.stack((f.u, f.v, f.w), axis=-2)
    gram = triad @ triad.swapaxes(-1, -2) - np.eye(3)
    assert np.abs(gram).max() < 1e-12
    assert np.abs(np.cross(f.u, f.v) - f.w).max() < 1e-12
    pair = eigen_spinors(f)
    axis = dot_sigma(f.w)
    for chi, lam in ((pair.chi_plus, 1.0), (pair.chi_minus, -1.0)):
        assert np.abs((axis @ chi[..., None])[..., 0] - lam * chi).max() < 1e-12
    assert closed_form_residual(f).max() < 1e-12


@pytest.mark.parametrize("cross", [1e-3, 1e-5, 1e-6, 2 * EPS_PARALLEL])
def test_near_parallel_rotation_laws_hold_to_rounding_over_the_cross_product(cross):
    # these laws rebuild the frame from R I, and the azimuth of I about w has
    # condition number about 1/|w x I|: the bound scales with it (the worst
    # residual x |w x I| over seeds 24-26 was 8.3e-16)
    for seed in (24, 25, 26):
        f, rng = _near_parallel_frames(cross, seed)
        phi = rng.uniform(-np.pi, np.pi, size=300)
        alpha = rng.normal(size=(300, 2)) + 1j * rng.normal(size=(300, 2))
        alpha /= np.linalg.norm(alpha, axis=-1, keepdims=True)
        for residual in (rotation_residual(f, phi), *eigenspinor_rotation_residuals(f, phi),
                         spv_rotation_residual(f, phi, alpha)):
            assert residual.max() <= 4e-15 / cross


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


def _signed_axis_vectors():
    """+-x, +-y and +-z with each sign of their two zero entries: 24 vectors."""
    vectors = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            for zeros in itertools.product((0.0, -0.0), repeat=2):
                vec = list(zeros)
                vec.insert(axis, sign)
                vectors.append(vec)
    return np.array(vectors)


def _cross(a, b):
    """a x b of (..., 3) vectors that broadcast together, through the frame chain's row kernel."""
    out = np.empty(np.broadcast(a, b).shape)
    _cross_rows(_rows(a, out.ndim), _rows(b, out.ndim), out=_rows(out, out.ndim))
    return out


def test_cross_product_equals_np_cross_bit_for_bit():
    rng = np.random.default_rng(37)
    a, b = rng.normal(size=(2, 1000, 3))
    assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()
    for a_row, b_row in zip(a, b):
        assert _cross(a_row, b_row).tobytes() == np.cross(a_row, b_row).tobytes()
    # exact zeros keep np.cross's signs: (0, -1, 0) x (1, 0, 0) is (-0, 0, 1)
    axes = _signed_axis_vectors()
    assert np.signbit(_cross(np.array([0.0, -1.0, 0.0]), X)).tolist() == [True, False, False]
    assert _cross(axes[:, None, :], axes).tobytes() == np.cross(axes[:, None, :], axes).tobytes()
    a, b = (x.reshape(-1, 3) for x in np.broadcast_arrays(axes[:, None, :], axes))
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
    # the frame's mapping is read-only: spoil a copy
    varpi = varpi.copy()
    varpi[1, 0, 0] *= 2.0
    with pytest.raises(ValueError, match=r"matrix \(frame 1\) must be unitary"):
        compose_spinor(varpi, np.array([1.0, 0.0]))


def test_references_are_checked_on_construction():
    with pytest.raises(ValueError, match="normalized"):
        ReferenceSpinors(chi1=np.array([1.0, 1.0]), chi2=DEFAULT_REFERENCES.chi2)
    with pytest.raises(ValueError, match="normalized"):
        ReferenceSpinors(chi1=DEFAULT_REFERENCES.chi1, chi2=np.array([np.nan, 0.0]))


def test_a_frame_and_a_reference_pair_keep_read_only_copies():
    # a frame kept the caller's w and i_vec, so changing them moved its triad
    # out from under the eigenpair it had cached
    w, i_vec = np.array([0.0, 0.6, 0.8]), np.array([-0.0, 1.0, 0.0])
    frame = build_frame(w, i_vec)
    fresh = build_frame(w.copy(), i_vec.copy())
    arrays = (frame.w, frame.i_vec, frame.u, frame.v)
    assert [a.tobytes() for a in arrays[:2]] == [w.tobytes(), i_vec.tobytes()]
    w[:], i_vec[:] = Z, Z
    assert [a.tobytes() for a in arrays] == [a.tobytes() for a in (fresh.w, fresh.i_vec, fresh.u, fresh.v)]
    rotated, fresh_rotated = rotate_characterization(frame, 0.3), rotate_characterization(fresh, 0.3)
    assert rotated.u.tobytes() == fresh_rotated.u.tobytes()
    assert eigen_spinors(frame).chi_plus.tobytes() == eigen_spinors(fresh).chi_plus.tobytes()
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    # a frame built directly copies its arrays too
    u = frame.u.copy()
    direct = Frame(w=frame.w, i_vec=frame.i_vec, u=u, v=frame.v)
    u[:] = 0.0
    assert direct.u.tobytes() == frame.u.tobytes() and direct.w is frame.w
    chi1 = np.array([0.0, 1.0], dtype=complex)
    ref = ReferenceSpinors(chi1=chi1, chi2=DEFAULT_REFERENCES.chi2)
    chi1[:] = [1.0, 0.0]
    assert ref.chi1.tolist() == [0.0, 1.0] and not ref.chi1.flags.writeable


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


def _pole_shell(eps, pole):
    """64 unit axes eps rad from pole * z, at equally spaced azimuths."""
    azimuth = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    return np.stack((np.sin(eps) * np.cos(azimuth), np.sin(eps) * np.sin(azimuth),
                     np.full(64, pole * np.cos(eps))), axis=-1)


# each reference pair and the pole at which its ladder operators annihilate it
ANNIHILATING_POLES = [(DEFAULT_REFERENCES, -1.0), (FALLBACK_REFERENCES, 1.0)]


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("ref, pole", ANNIHILATING_POLES, ids=["default", "fallback"])
def test_eigenspinors_keep_the_laws_near_the_annihilating_pole(eps, ref, pole):
    # the chart eigenspinors cancel nowhere, so the laws hold at rounding down
    # to 1e-6 rad from the pole, in a block and frame by frame
    f = build_frame(_pole_shell(eps, pole), X)
    pair = eigen_spinors(f, ref)
    axis = dot_sigma(f.w)
    for chi, lam in ((pair.chi_plus, 1.0), (pair.chi_minus, -1.0)):
        assert np.abs((axis @ chi[..., None])[..., 0] - lam * chi).max() <= 1e-12
        assert np.abs(np.linalg.norm(chi, axis=-1) - 1.0).max() <= 1e-12
    assert np.abs(np.sum(pair.chi_plus.conj() * pair.chi_minus, axis=-1)).max() <= 1e-12
    assert closed_form_residual(f, ref).max() <= 1e-12
    for j in range(0, 64, 9):
        one = eigen_spinors(build_frame(f.w[j], X), ref)
        assert eigen_residual(f.w[j], one.chi_plus, +1) <= 1e-12
        assert eigen_residual(f.w[j], one.chi_minus, -1) <= 1e-12


@pytest.mark.parametrize("ref, pole", ANNIHILATING_POLES, ids=["default", "fallback"])
def test_references_are_rejected_only_within_about_1e8_rad_of_their_pole(ref, pole):
    for w in (pole * Z, _pole_shell(1e-8, pole)):
        with pytest.raises(ReferenceAnnihilated, match="chi1 is annihilated"):
            eigen_spinors(build_frame(w, X), ref)
    f = build_frame(_pole_shell(1e-7, pole), X)
    assert closed_form_residual(f, ref).max() <= 1e-12


@pytest.mark.parametrize("scale", [1.0 + 9e-10, 1.0 - 9e-10])
def test_an_accepted_off_unit_axis_gives_a_unit_triad_and_the_laws(scale):
    # |w| within EPS_INPUT = 1e-9 of 1 passes the input check; the frame keeps
    # w / |w|, alone and 5.2e-3 rad from -z, where the two zones compound
    for w in (np.array([0.6, 0.0, 0.8]) * scale, _pole_shell(5.2e-3, -1.0) * (scale + 7e-11)):
        assert np.abs(np.linalg.norm(w, axis=-1) - 1.0).min() >= 8e-10
        f = build_frame(w, X)
        assert np.abs(f.w - w / np.linalg.norm(w, axis=-1, keepdims=True)).max() <= 1e-15
        triad = np.stack((f.u, f.v, f.w), axis=-2)
        assert np.abs(triad @ triad.swapaxes(-1, -2) - np.eye(3)).max() <= 1e-12
        assert np.abs(np.cross(f.u, f.v) - f.w).max() <= 1e-12
        pair = eigen_spinors(f)
        axis = dot_sigma(f.w)
        for chi, lam in ((pair.chi_plus, 1.0), (pair.chi_minus, -1.0)):
            assert np.abs((axis @ chi[..., None])[..., 0] - lam * chi).max() <= 1e-12
        assert np.max(closed_form_residual(f)) <= 1e-12


def test_a_unit_axis_keeps_its_bits():
    # w divided by its norm again would move by an ulp: a frame's own w must
    # build the same frame, so a w unit to rounding is kept as given
    rng = np.random.default_rng(37)
    w = _random_units(rng, 1000)
    f = build_frame(w, X)
    assert f.w.tobytes() == w.tobytes()
    assert build_frame(f.w, X).u.tobytes() == f.u.tobytes()


def test_a_renormalized_axis_is_kept_without_a_copy(monkeypatch):
    # the w / |w| built for an off-unit w is read-only, so the frame keeps
    # that array; the caller's w stays writable and unchanged
    from spinpol import frames

    made = []
    checked_axis = frames._checked_axis
    monkeypatch.setattr(frames, "_checked_axis", lambda name, vec: made.append(checked_axis(name, vec)) or made[-1])
    w = np.array([0.6, 0.0, 0.8]) * (1.0 + 9e-10)
    given = w.copy()
    f = build_frame(w, X)
    assert f.w is made[0] and not f.w.flags.writeable
    assert w.flags.writeable and w.tobytes() == given.tobytes()


@pytest.mark.parametrize(
    "center", [_UNIT_OFF, 9e-10, -9e-10], ids=["unit_off", "plus_9e-10", "minus_9e-10"]
)
def test_one_axis_alone_and_in_a_block_get_the_same_off_and_renormalization(center):
    # _off_unit measures one vector in Python floats and a block with
    # algebra._norm; build_frame renormalizes w where that off exceeds
    # _UNIT_OFF, so both must read the same bits
    rng = np.random.default_rng(38)
    steps = np.arange(-24, 25) * np.finfo(float).eps
    w = _random_units(rng, 8)[:, None, :] * (1.0 + center + steps)[:, None]
    w = w.reshape(-1, 3)
    i_vec = np.cross(w, _random_units(rng, len(w)))
    i_vec /= np.linalg.norm(i_vec, axis=-1, keepdims=True)
    off = _off_unit(w)[0]
    block = build_frame(w, i_vec)
    kept = np.all(block.w == w, axis=-1)
    assert list(kept) == list(off <= _UNIT_OFF)
    if center == _UNIT_OFF:
        assert kept.any() and not kept.all()
    else:
        assert not kept.any()
    for j in range(len(w)):
        assert _off_unit(w[j])[0] == off[j], j
        one = build_frame(w[j], i_vec[j])
        assert (one.w.tobytes(), one.u.tobytes(), one.v.tobytes()) == (
            block.w[j].tobytes(), block.u[j].tobytes(), block.v[j].tobytes()), j


def _accepts_spinor(chi):
    try:
        _check_spinor("chi", chi)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("center", [EPS_INPUT, -EPS_INPUT], ids=["plus_eps_input", "minus_eps_input"])
def test_one_spinor_alone_and_in_a_block_get_the_same_off_and_acceptance(center):
    # a spinor's norm within a few ulps of 1 +- EPS_INPUT: _check_spinor must
    # accept or reject it alike alone and inside a block, so _off_unit must
    # give it the same bits either way
    rng = np.random.default_rng(39)
    steps = np.arange(-24, 25) * np.finfo(float).eps
    chi = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    chi /= np.linalg.norm(chi, axis=-1, keepdims=True)
    chi = (chi[:, None, :] * (1.0 + center + steps)[:, None]).reshape(-1, 2)
    off = _off_unit(chi)[0]
    accepted = off <= EPS_INPUT
    assert accepted.any() and not accepted.all()
    up = np.array([1.0 + 0j, 0j])
    for j in range(len(chi)):
        assert _off_unit(chi[j])[0] == off[j], j
        # beside an exact unit spinor, the block's verdict is chi[j]'s alone
        assert _accepts_spinor(chi[j]) == _accepts_spinor(np.stack([chi[j], up])) == accepted[j], j
