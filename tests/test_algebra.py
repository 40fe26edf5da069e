"""Pauli kernel: projections, products, polarization vector."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinpol import (
    dot_sigma,
    eigen_residual,
    sigma_product,
    so3_rotation,
    spv,
    su2_rotation,
)
from spinpol.algebra import _check_spinor, _check_unit

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


@pytest.mark.parametrize(
    "axis,expected",
    [
        (Z, np.diag([1.0, -1.0])),
        (X, np.array([[0.0, 1.0], [1.0, 0.0]])),
        (Y, np.array([[0.0, -1.0j], [1.0j, 0.0]])),
    ],
)
def test_dot_sigma_cartesian_axes(axis, expected):
    assert_allclose(dot_sigma(axis), expected, atol=0)


def test_dot_sigma_complex_direction():
    # entrywise sum of (sigma_x + i sigma_y)/sqrt2, done by hand
    a = (X + 1j * Y) / np.sqrt(2)
    expected = np.sqrt(2) * np.array([[0.0, 1.0], [0.0, 0.0]])
    assert_allclose(dot_sigma(a), expected, atol=1e-15)


def test_dot_sigma_is_linear():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = rng.normal(size=3), rng.normal(size=3)
        ca = rng.normal() + 1j * rng.normal()
        cb = rng.normal() + 1j * rng.normal()
        lhs = dot_sigma(ca * a + cb * b)
        rhs = ca * dot_sigma(a) + cb * dot_sigma(b)
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_sigma_product_fixtures():
    assert_allclose(sigma_product(X, Y), 1j * np.diag([1.0, -1.0]), atol=0)
    assert_allclose(sigma_product(Z, Z), np.eye(2), atol=0)


def test_sigma_product_expansion_and_anticommutation():
    rng = np.random.default_rng(12)
    eye = np.eye(2)
    for _ in range(300):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        b = rng.normal(size=3)
        b /= np.linalg.norm(b)
        expansion = np.dot(a, b) * eye + 1j * dot_sigma(np.cross(a, b))
        assert np.linalg.norm(sigma_product(a, b) - expansion) < 1e-12
        anti = sigma_product(a, b) + sigma_product(b, a)
        assert np.linalg.norm(anti - 2.0 * np.dot(a, b) * eye) < 1e-12


@pytest.mark.parametrize(
    "chi,expected",
    [
        ([1.0, 0.0], Z),
        ([0.0, 1.0], -Z),
        # componentwise chi^dag sigma chi for (1, i)/sqrt2, done by hand
        (np.array([1.0, 1.0j]) / np.sqrt(2), Y),
    ],
)
def test_spv_fixtures(chi, expected):
    assert_allclose(spv(chi), expected, atol=1e-15)


def test_spv_is_unit_and_chi_is_its_eigenspinor():
    rng = np.random.default_rng(13)
    for _ in range(300):
        chi = rng.normal(size=2) + 1j * rng.normal(size=2)
        chi /= np.linalg.norm(chi)
        s = spv(chi)
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12
        assert eigen_residual(s, chi, +1) < 1e-12


def test_spv_rejects_non_normalized_input():
    with pytest.raises(ValueError, match="not normalized"):
        spv([1.0, 1.0])
    # 1e-9 sloppiness is accepted, and the output is still unit to rounding
    s = spv([1.0 + 5e-10, 0.0])
    assert abs(np.linalg.norm(s) - 1.0) < 1e-12


def test_eigen_residual_fixtures():
    assert eigen_residual(Z, [1.0, 0.0], +1) == 0.0
    assert eigen_residual(Z, [1.0, 0.0], -1) == pytest.approx(2.0, abs=1e-15)
    # sigma_x eigenvectors are (1, +-1)/sqrt2
    assert eigen_residual(X, np.array([1.0, 1.0]) / np.sqrt(2), +1) < 1e-15


def test_eigen_residual_rejects_bad_inputs():
    with pytest.raises(ValueError, match="eigenvalue"):
        eigen_residual(Z, [1.0, 0.0], 2)
    with pytest.raises(ValueError, match="unit"):
        eigen_residual([0.0, 0.0, 2.0], [1.0, 0.0], +1)


def test_single_vector_functions_reject_batches():
    # a batch of unit vectors passes the shared unit and spinor checks, so the
    # single-vector functions must refuse it rather than mix its frames
    spinors = np.eye(2)
    axes = np.array([Z, X])
    with pytest.raises(ValueError, match="single"):
        spv(spinors)
    with pytest.raises(ValueError, match="single"):
        eigen_residual(axes, [1.0, 0.0], +1)
    with pytest.raises(ValueError, match="single"):
        eigen_residual(Z, spinors, +1)
    with pytest.raises(ValueError, match="single"):
        so3_rotation(axes, 0.3)
    with pytest.raises(ValueError, match="single"):
        su2_rotation(axes, 0.3)


def test_input_checks_keep_their_messages_for_one_vector_and_a_batch():
    with pytest.raises(ValueError, match=r"^w must be a unit vector, \|w\| = 2\.0$"):
        _check_unit("w", [0.0, 0.0, 2.0])
    with pytest.raises(ValueError, match=r"^w \(frame 1\) must be a unit vector, \|w\| = 2\.0$"):
        _check_unit("w", [Z, [0.0, 2.0, 0.0]])
    with pytest.raises(ValueError, match=r"^chi is not normalized: \|chi\| = 2\.0$"):
        _check_spinor("chi", [0.0, 2.0j])
    with pytest.raises(ValueError, match=r"^chi \(frame 1\) is not normalized: \|chi\| = 2\.0$"):
        _check_spinor("chi", [[1.0, 0.0], [0.0, 2.0j]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="unit vector"):
            _check_unit("w", [bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="not normalized"):
            _check_spinor("chi", [bad, 0.0])
    # an infinite complex entry is refused by its norm, without a RuntimeWarning
    with pytest.raises(ValueError, match=r"^x \(frame 0\) is not normalized: \|x\| = inf$"):
        _check_spinor("x", [[np.inf, 0.0], [1.0, 0.0]])
    # within EPS_INPUT of 1 passes, one vector or a batch
    assert _check_unit("w", [0.0, 0.0, 1.0 + 5e-10]).shape == (3,)
    assert _check_spinor("chi", [[1.0 + 5e-10, 0.0]]).shape == (1, 2)
