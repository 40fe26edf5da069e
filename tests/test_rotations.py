"""Axis-angle rotations, the 2-to-1 correspondence, and the double-angle laws."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm

from spinpol import (
    build_frame,
    compose_spinor,
    correspondence_residual,
    dot_generators,
    dot_sigma,
    eigen_spinors,
    eigenspinor_rotation_residuals,
    mapping_matrix,
    rotate_characterization,
    so3_generators,
    so3_rotation,
    spv,
    spv_rotation_residual,
    su2_rotation,
)

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_frame(rng):
    w = random_unit(rng)
    while True:
        i_vec = random_unit(rng)
        if np.linalg.norm(np.cross(w, i_vec)) > 1e-2:
            return build_frame(w, i_vec)


def random_jones(rng):
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    return a / np.linalg.norm(a)


def test_generators_match_their_defining_matrices():
    gx, gy, gz = so3_generators()
    assert_allclose(gx, [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], atol=0)
    assert_allclose(gy, [[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]], atol=0)
    assert_allclose(gz, [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], atol=0)


def test_generators_encode_the_cross_product():
    assert_allclose(-1j * dot_generators(Z) @ X, Y, atol=0)
    rng = np.random.default_rng(41)
    for _ in range(300):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert np.linalg.norm(np.cross(a, b) - (-1j * dot_generators(a) @ b)) < 1e-12


def test_dot_generators_projects_each_vector_of_a_batch():
    # like dot_sigma, a (..., 3) stack gives one projection per vector
    stack = np.random.default_rng(43).normal(size=(4, 3))
    assert_array_equal(dot_generators(stack), [dot_generators(a) for a in stack])
    assert_array_equal(dot_generators(np.eye(3)), so3_generators())


def test_generator_action_on_triad():
    rng = np.random.default_rng(42)
    for _ in range(300):
        f = random_frame(rng)
        wg = dot_generators(f.w)
        assert np.linalg.norm(wg @ f.u - 1j * f.v) < 1e-12
        assert np.linalg.norm(wg @ f.v + 1j * f.u) < 1e-12


def test_so3_rotation_fixtures():
    assert_allclose(so3_rotation(Z, 0.0), np.eye(3), atol=0)
    assert_allclose(so3_rotation(Z, np.pi / 2) @ X, Y, atol=1e-15)


def test_so3_rotation_is_proper_and_fixes_axis():
    rng = np.random.default_rng(43)
    for _ in range(300):
        axis = random_unit(rng)
        angle = rng.uniform(-4 * np.pi, 4 * np.pi)
        r = so3_rotation(axis, angle)
        assert r.dtype == np.float64
        assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12
        assert np.linalg.norm(r @ axis - axis) < 1e-12


def test_so3_rotation_group_law():
    rng = np.random.default_rng(44)
    for _ in range(300):
        axis = random_unit(rng)
        a1, a2 = rng.uniform(0, 4 * np.pi, size=2)
        composed = so3_rotation(axis, a1) @ so3_rotation(axis, a2)
        assert np.linalg.norm(composed - so3_rotation(axis, a1 + a2)) < 1e-12


def test_so3_rotation_matches_matrix_exponential():
    rng = np.random.default_rng(45)
    for _ in range(50):
        axis = random_unit(rng)
        angle = rng.uniform(-2 * np.pi, 2 * np.pi)
        direct = expm(-1j * angle * dot_generators(axis))
        assert np.linalg.norm(so3_rotation(axis, angle) - direct) < 1e-12


def test_su2_rotation_fixtures():
    assert_allclose(su2_rotation(Z, 0.0), np.eye(2), atol=0)
    assert_allclose(su2_rotation(Z, 2 * np.pi), -np.eye(2), atol=1e-15)
    quarter = su2_rotation(Z, np.pi / 2)
    assert_allclose(
        quarter, np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]), atol=1e-15
    )


def test_su2_rotation_is_special_unitary_with_double_cover():
    rng = np.random.default_rng(46)
    for _ in range(300):
        axis = random_unit(rng)
        angle = rng.uniform(-4 * np.pi, 4 * np.pi)
        u = su2_rotation(axis, angle)
        assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-12
        assert np.linalg.norm(su2_rotation(axis, angle + 2 * np.pi) + u) < 1e-12


def test_su2_rotation_matches_matrix_exponential():
    rng = np.random.default_rng(47)
    for _ in range(50):
        axis = random_unit(rng)
        angle = rng.uniform(-2 * np.pi, 2 * np.pi)
        direct = expm(-1j * (angle / 2.0) * dot_sigma(axis))
        assert np.linalg.norm(su2_rotation(axis, angle) - direct) < 1e-12


def test_correspondence_fixture_and_sweep():
    # both sides of the quarter turn about z send sigma_x to sigma_y
    assert correspondence_residual(Z, np.pi / 2, X) < 1e-15
    rng = np.random.default_rng(48)
    for _ in range(1000):
        axis = random_unit(rng)
        assert (
            correspondence_residual(axis, rng.uniform(0, 4 * np.pi), rng.normal(size=3))
            < 1e-12
        )
    assert correspondence_residual(random_unit(rng), 0.0, rng.normal(size=3)) < 1e-15


def test_rotate_characterization_fixtures():
    f = build_frame(Z, X)
    assert_allclose(rotate_characterization(f, np.pi / 2).i_vec, Y, atol=1e-15)
    assert_allclose(rotate_characterization(f, 2 * np.pi).i_vec, X, atol=1e-15)


def test_rotate_characterization_rotates_the_whole_triad():
    rng = np.random.default_rng(49)
    for _ in range(200):
        f = random_frame(rng)
        phi = rng.uniform(0, 2 * np.pi)
        r = so3_rotation(f.w, phi)
        g = rotate_characterization(f, phi)
        assert np.linalg.norm(g.u - r @ f.u) < 1e-12
        assert np.linalg.norm(g.v - r @ f.v) < 1e-12
        assert np.linalg.norm(g.w - f.w) == 0.0


def test_eigenspinor_rotation_fixture():
    # quarter turn of the characterization vector: chi+ gains exp(-i pi/2)
    f = build_frame(Z, X)
    rotated = eigen_spinors(rotate_characterization(f, np.pi / 2))
    assert_allclose(rotated.chi_plus, [-1.0j, 0.0], atol=1e-15)
    res_plus, res_minus = eigenspinor_rotation_residuals(f, np.pi / 2)
    assert res_plus < 1e-15 and res_minus < 1e-15
    # a full turn of the characterization vector restores both eigenspinors
    res_plus, res_minus = eigenspinor_rotation_residuals(f, 2 * np.pi)
    assert res_plus < 1e-15 and res_minus < 1e-15


def test_eigenspinor_rotation_sweep():
    rng = np.random.default_rng(50)
    for _ in range(1000):
        f = random_frame(rng)
        res_plus, res_minus = eigenspinor_rotation_residuals(f, rng.uniform(0, 4 * np.pi))
        assert res_plus < 1e-12
        assert res_minus < 1e-12


def test_spv_rotation_fixture():
    # alpha = (1,1)/sqrt2 on the default frame has polarization +y; a quarter
    # turn of the characterization vector flips it to -y
    f = build_frame(Z, X)
    alpha = np.array([1.0, 1.0]) / np.sqrt(2)
    chi = compose_spinor(mapping_matrix(f), alpha)
    assert_allclose(spv(chi), Y, atol=1e-15)
    g = rotate_characterization(f, np.pi / 2)
    chi_rot = compose_spinor(mapping_matrix(g), alpha)
    assert_allclose(spv(chi_rot), -Y, atol=1e-15)
    assert spv_rotation_residual(f, np.pi / 2, alpha) < 1e-15


def test_spv_stays_on_axis_for_pure_branches():
    rng = np.random.default_rng(51)
    for _ in range(100):
        f = random_frame(rng)
        phi = rng.uniform(0, 4 * np.pi)
        chi = compose_spinor(mapping_matrix(rotate_characterization(f, phi)), [1.0, 0.0])
        assert np.linalg.norm(spv(chi) - f.w) < 1e-12


def test_spv_recovers_after_half_turn():
    # phi = pi rotates the polarization by 2 pi, i.e. not at all
    rng = np.random.default_rng(52)
    for _ in range(100):
        f = random_frame(rng)
        alpha = random_jones(rng)
        chi = compose_spinor(mapping_matrix(f), alpha)
        chi_rot = compose_spinor(mapping_matrix(rotate_characterization(f, np.pi)), alpha)
        assert np.linalg.norm(spv(chi_rot) - spv(chi)) < 1e-12


def test_spv_rotation_sweep():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        f = random_frame(rng)
        assert (
            spv_rotation_residual(f, rng.uniform(0, 4 * np.pi), random_jones(rng))
            < 1e-12
        )


def test_rotations_reject_non_unit_axis():
    with pytest.raises(ValueError, match="unit"):
        so3_rotation([1.0, 1.0, 0.0], 0.3)
    with pytest.raises(ValueError, match="unit"):
        su2_rotation([0.0, 0.0, 0.5], 0.3)


@pytest.mark.parametrize("scale", [1.0 + 9.99e-10, 1.0 - 9.99e-10])
def test_an_accepted_off_unit_axis_rotates_to_rounding(scale):
    # |axis| within EPS_INPUT = 1e-9 of 1 passes the input check; the rotations
    # are built on axis / |axis|.  Unscaled, R was off orthogonal and U off
    # unitary by about 1e-9, and correspondence_residual read 2.8e-9
    axis = np.array([0.6, 0.0, 0.8]) * scale
    unit = axis / np.linalg.norm(axis)
    r, u = so3_rotation(axis, 1.1), su2_rotation(axis, 1.1)
    assert np.abs(r @ r.T - np.eye(3)).max() <= 1e-15
    assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-15
    assert r.tobytes() == so3_rotation(unit, 1.1).tobytes()
    assert u.tobytes() == su2_rotation(unit, 1.1).tobytes()
    a = np.array([0.3, -1.2, 0.7])
    assert correspondence_residual(axis, 2.3, a) <= 4e-15 * np.linalg.norm(a)


def _random_batch(rng, n=50):
    frames = [random_frame(rng) for _ in range(n)]
    batch = build_frame(np.array([f.w for f in frames]), np.array([f.i_vec for f in frames]))
    phis = rng.uniform(0, 4 * np.pi, size=n)
    alphas = np.array([random_jones(rng) for _ in range(n)])
    return frames, batch, phis, alphas


def test_batched_residuals_equal_stacked_single_frames():
    rng = np.random.default_rng(54)
    frames, batch, phis, alphas = _random_batch(rng)
    rotated = rotate_characterization(batch, phis)
    singles = [rotate_characterization(f, phi) for f, phi in zip(frames, phis)]
    for name in ("i_vec", "u", "v"):
        stacked = np.array([getattr(g, name) for g in singles])
        assert np.abs(getattr(rotated, name) - stacked).max() <= 1e-15

    pair = eigenspinor_rotation_residuals(batch, phis)
    stacked = np.array([eigenspinor_rotation_residuals(f, phi) for f, phi in zip(frames, phis)])
    assert len(pair) == 2 and pair[0].shape == (50,)
    assert np.abs(np.array(pair) - stacked.T).max() <= 1e-15

    batched = spv_rotation_residual(batch, phis, alphas)
    stacked = [spv_rotation_residual(f, phi, a) for f, phi, a in zip(frames, phis, alphas)]
    assert batched.shape == (50,)
    assert np.abs(batched - stacked).max() <= 1e-15

    axes = np.array([f.w for f in frames])
    vectors = rng.normal(size=(50, 3))
    batched = correspondence_residual(axes, phis, vectors)
    stacked = [correspondence_residual(*args) for args in zip(axes, phis, vectors)]
    assert batched.shape == (50,)
    assert np.abs(batched - stacked).max() <= 1e-15


def test_single_frame_residuals_stay_python_floats():
    f = build_frame(Z, X)
    res = eigenspinor_rotation_residuals(f, 0.3)
    assert type(res) is tuple and all(type(r) is float for r in res)
    assert type(spv_rotation_residual(f, 0.3, [1.0, 0.0])) is float
    assert type(correspondence_residual(Z, 0.3, X)) is float


def test_one_frame_broadcasts_against_many_angles():
    # a shared frame with a batch of angles, and a batch of frames with one angle
    rng = np.random.default_rng(55)
    frames, batch, phis, _ = _random_batch(rng, n=8)
    shared = eigenspinor_rotation_residuals(frames[0], phis)
    assert np.abs(np.array(shared) - np.array(
        [eigenspinor_rotation_residuals(frames[0], phi) for phi in phis]).T).max() <= 1e-15
    one_angle = spv_rotation_residual(batch, 0.7, [1.0, 0.0])
    stacked = [spv_rotation_residual(f, 0.7, [1.0, 0.0]) for f in frames]
    assert np.abs(one_angle - stacked).max() <= 1e-15
