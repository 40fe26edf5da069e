"""A frame computes its eigenpair and its cross-checked phase once per reference pair.

Frame._derived keeps each result under the reference pair object that gave it.
Every later call with that object returns the same read-only result, and no
other object, equal or not, can reach it.  A call that raises stores nothing.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from spinpol import (
    DEFAULT_REFERENCES,
    FALLBACK_REFERENCES,
    ReferenceAnnihilated,
    ReferenceSpinors,
    build_frame,
    closed_form_residual,
    eigen_spinors,
    expectation_spv_residual,
    frames,
    heisenberg,
    heisenberg_sigma,
    ladder_constants,
    mapping_matrix,
    phase_factor,
    rotate_characterization,
    verify,
)
from spinpol.heisenberg import _checked_phase

REFERENCES = {"default": DEFAULT_REFERENCES, "fallback": FALLBACK_REFERENCES}


def _frames():
    """One frame and a (2, 50) block, clear of either reference pair's failing pole."""
    rng = np.random.default_rng(2110)
    w = rng.normal(size=(101, 3))
    w[:, 2] *= 0.5
    w /= np.linalg.norm(w, axis=-1, keepdims=True)
    i_vec = np.cross(w, rng.normal(size=(101, 3)))
    i_vec /= np.linalg.norm(i_vec, axis=-1, keepdims=True)
    return {"single": (w[0], i_vec[0]), "block": (w[1:].reshape(2, 50, 3), i_vec[1:].reshape(2, 50, 3))}


FRAMES = _frames()


def _results(frame, ref):
    """Everything the frame's eigenpair and checked phase feed, as arrays."""
    pair = eigen_spinors(frame, ref)
    hs = heisenberg_sigma(frame, ref)
    return (
        pair.chi_plus, pair.chi_minus, pair.n_plus, pair.n_minus, pair.phi0,
        phase_factor(frame, ref), *ladder_constants(frame, ref), mapping_matrix(frame, ref),
        *_checked_phase(frame, ref), closed_form_residual(frame, ref),
        hs.sigma_u, hs.sigma_v, hs.sigma_w, hs.phi0,
    )


def _bits(results):
    return [np.asarray(x).tobytes() for x in results]


@pytest.fixture
def counted(monkeypatch):
    """Calls of the two computations, as (name, frame) pairs."""
    calls = []
    for module, name in ((frames, "_eigen_pair"), (heisenberg, "_cross_check")):
        compute = getattr(module, name)

        def recorded(frame, ref, compute=compute, name=name):
            calls.append((name, frame))
            return compute(frame, ref)

        monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("ref_name", REFERENCES)
@pytest.mark.parametrize("shape", FRAMES)
def test_repeat_calls_give_the_bits_of_a_fresh_frames_first_call(shape, ref_name, counted):
    ref = REFERENCES[ref_name]
    frame = build_frame(*FRAMES[shape])
    first = _results(frame, ref)
    assert sorted(name for name, _ in counted) == ["_cross_check", "_eigen_pair"]
    again = _results(frame, ref)
    assert len(counted) == 2
    fresh = _results(build_frame(*FRAMES[shape]), ref)
    assert len(counted) == 4
    assert _bits(again) == _bits(fresh) == _bits(first)
    assert eigen_spinors(frame, ref) is eigen_spinors(frame, ref)


def test_an_equal_but_distinct_reference_pair_gets_its_own_entry(counted):
    frame = build_frame(*FRAMES["block"])
    ref = DEFAULT_REFERENCES
    twin = ReferenceSpinors(chi1=ref.chi1.copy(), chi2=ref.chi2.copy())
    pair = eigen_spinors(frame, ref)
    twin_pair = eigen_spinors(frame, twin)
    assert twin_pair is not pair and len(counted) == 2
    assert _bits(_results(frame, twin)) == _bits(_results(frame, ref))
    assert len(frame._cache) == 4
    assert eigen_spinors(frame, twin) is twin_pair and eigen_spinors(frame, ref) is pair


def test_an_entry_answers_only_the_reference_pair_it_holds():
    # an entry under id(ref) that holds another object is never returned,
    # as if ref had taken the id of a pair that no longer exists
    frame = build_frame(*FRAMES["single"])
    stale = object()
    frame._cache[(frames._eigen_pair, id(DEFAULT_REFERENCES))] = (FALLBACK_REFERENCES, stale)
    pair = eigen_spinors(frame)
    assert pair is not stale
    assert _bits(_results(frame, DEFAULT_REFERENCES)) == _bits(
        _results(build_frame(*FRAMES["single"]), DEFAULT_REFERENCES)
    )
    assert frame._cache[(frames._eigen_pair, id(DEFAULT_REFERENCES))] == (DEFAULT_REFERENCES, pair)


@pytest.mark.parametrize("shape", FRAMES)
def test_cached_arrays_are_read_only(shape):
    frame = build_frame(*FRAMES[shape])
    pair = eigen_spinors(frame)
    e, phi0, deviation = _checked_phase(frame, DEFAULT_REFERENCES)
    arrays = [pair.chi_plus, pair.chi_minus, e]
    if shape == "block":
        arrays += [pair.n_plus, pair.n_minus, pair.phi0, phi0, deviation]
    for x in arrays:
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            x *= 2.0
    assert _bits(_results(frame, DEFAULT_REFERENCES)) == _bits(
        _results(build_frame(*FRAMES[shape]), DEFAULT_REFERENCES)
    )


def test_replaced_and_rotated_frames_start_with_empty_caches():
    frame = build_frame(*FRAMES["block"])
    _results(frame, DEFAULT_REFERENCES)
    assert len(frame._cache) == 2
    copy = replace(frame)
    rotated = rotate_characterization(frame, 0.7)
    for other in (copy, rotated, replace(frame, v=-frame.v)):
        assert other._cache == {} and other._cache is not frame._cache
    assert eigen_spinors(copy) is not eigen_spinors(frame)
    assert _bits(_results(copy, DEFAULT_REFERENCES)) == _bits(_results(frame, DEFAULT_REFERENCES))


def test_a_frame_that_raised_raises_again(counted, monkeypatch):
    # -z: sigma+ annihilates the default chi1
    frame = build_frame(np.array([0.0, 0.0, -1.0]), np.array([1.0, 0.0, 0.0]))
    for _ in range(2):
        with pytest.raises(ReferenceAnnihilated):
            eigen_spinors(frame)
        with pytest.raises(ReferenceAnnihilated):
            heisenberg_sigma(frame)
    assert frame._cache == {}
    # a failing cross-check: one closed-form entry off by 1e-11
    closed_entries = heisenberg._closed_entries

    def one_entry_off(e):
        entries = dict(closed_entries(e))
        entries[(0, 0, 1)] = entries[(0, 0, 1)] + 1e-11
        return tuple(entries.items())

    monkeypatch.setattr(heisenberg, "_closed_entries", one_entry_off)
    frame = build_frame(*FRAMES["block"])
    counted.clear()
    for _ in range(2):
        with pytest.raises(RuntimeError, match="closed-form component disagrees"):
            closed_form_residual(frame)
    # the eigenpair is kept, the failed check is not
    assert sorted(name for name, _ in counted) == ["_cross_check", "_cross_check", "_eigen_pair"]
    assert list(frame._cache) == [(frames._eigen_pair, id(DEFAULT_REFERENCES))]


def test_a_heisenberg_block_checks_each_distinct_frame_once(counted):
    verify.run_suite("heisenberg", n_cases=verify.CASE_BLOCK)
    checked = [frame for name, frame in counted if name == "_cross_check"]
    paired = [frame for name, frame in counted if name == "_eigen_pair"]
    # the drawn frame and the two frames rotate_characterization builds from it
    # (one in the suite's phase-shift law, one in rotation_residual)
    assert len(checked) == 3
    for computed in (checked, paired):
        assert len({id(f) for f in computed}) == len(computed) == 3
    assert {id(f) for f in checked} == {id(f) for f in paired}


def test_bypassing_the_cache_leaves_every_result_unchanged(monkeypatch):
    cached = verify.report_lines(verify.run_suites(seed=2, n_cases=100))
    expect = _bits(_results(build_frame(*FRAMES["block"]), DEFAULT_REFERENCES))
    monkeypatch.setattr(frames.Frame, "_derived", lambda self, ref, compute: compute(self, ref))
    assert verify.report_lines(verify.run_suites(seed=2, n_cases=100)) == cached
    frame = build_frame(*FRAMES["block"])
    assert _bits(_results(frame, DEFAULT_REFERENCES)) == expect
    assert frame._cache == {}


def test_the_residuals_share_the_frames_check(counted):
    frame = build_frame(*FRAMES["block"])
    alpha = np.array([0.6, 0.8j])
    for ref, _ in itertools.product(REFERENCES.values(), range(2)):
        heisenberg_sigma(frame, ref)
        closed_form_residual(frame, ref)
        expectation_spv_residual(frame, alpha, ref)
    assert sorted(name for name, _ in counted) == ["_cross_check"] * 2 + ["_eigen_pair"] * 2
