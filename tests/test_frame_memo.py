"""A frame computes what it derives for a reference pair once.

Frame._derived keeps the eigenpair, the mapping matrix, the cross-checked
phase and the Cartesian components of the Heisenberg matrices under the
reference pair object that gave them.  Every later call with that
object returns the same read-only result, and no other object, equal or not,
can reach it.  A call that raises stores nothing.

Two memos of built frames (frames._Last) let callers share those results: a
frame keeps the frame of its last rotate_characterization, keyed by the bits
of the angles, and a PacketConfig keeps the frames of the last spectrum that
sample_spinors walked in one block, keyed by the bits of k_hat and i_vec.
"""

import gc
import itertools
import weakref
from dataclasses import replace

import numpy as np
import pytest

from spinpol import (
    DEFAULT_REFERENCES,
    FALLBACK_REFERENCES,
    PacketConfig,
    ReferenceAnnihilated,
    ReferenceSpinors,
    Spectrum,
    build_frame,
    closed_form_residual,
    eigen_component,
    eigen_spinors,
    expectation_spv_residual,
    frames,
    heisenberg,
    heisenberg_sigma,
    ladder_constants,
    local_spv,
    mapping_matrix,
    phase_factor,
    position_grid,
    rotate_characterization,
    rotations,
    sample_spinors,
    spin_field,
    verify,
    wavepacket,
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
    # the eigenpair, the mapping and the cross-check of each pair
    assert len(frame._cache) == 6
    assert {key[1] for key in frame._cache} == {ref, twin}
    assert eigen_spinors(frame, twin) is twin_pair and eigen_spinors(frame, ref) is pair


def test_an_entry_answers_only_the_reference_pair_it_holds():
    # entries are keyed by the pair object itself: an entry of another pair,
    # equal in every bit or not, is never returned
    frame = build_frame(*FRAMES["single"])
    stale = object()
    twin = ReferenceSpinors(chi1=DEFAULT_REFERENCES.chi1, chi2=DEFAULT_REFERENCES.chi2)
    for other in (FALLBACK_REFERENCES, twin):
        frame._cache[(frames._eigen_pair, other)] = stale
    pair = eigen_spinors(frame)
    assert pair is not stale
    assert _bits(_results(frame, DEFAULT_REFERENCES)) == _bits(
        _results(build_frame(*FRAMES["single"]), DEFAULT_REFERENCES)
    )
    assert frame._cache[(frames._eigen_pair, DEFAULT_REFERENCES)] is pair
    assert eigen_spinors(frame, twin) is stale


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


def _bypass_cache(monkeypatch):
    monkeypatch.setattr(frames.Frame, "_derived", lambda self, ref, compute: compute(self, ref))


@pytest.mark.parametrize("ref_name", REFERENCES)
@pytest.mark.parametrize("shape", FRAMES)
def test_the_mapping_checked_phase_and_components_are_kept_read_only(shape, ref_name, monkeypatch):
    ref = REFERENCES[ref_name]
    frame = build_frame(*FRAMES[shape])
    pair, checked = eigen_spinors(frame, ref), _checked_phase(frame, ref)
    kept = [mapping_matrix(frame, ref), checked[0], heisenberg._cartesian(frame, ref)]
    # later calls return the same objects
    assert eigen_spinors(frame, ref) is pair and _checked_phase(frame, ref) is checked
    assert mapping_matrix(frame, ref) is kept[0] and heisenberg._cartesian(frame, ref) is kept[-1]
    for x in kept:
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0.0
    # each heisenberg_sigma call builds its matrices anew from the kept phase
    hs = heisenberg_sigma(frame, ref)
    sigmas = _bits([hs.sigma_u, hs.sigma_v, hs.sigma_w])
    hs.sigma_u[...] = 0.0
    again = heisenberg_sigma(frame, ref)
    assert again.phi0 is hs.phi0 and _bits([again.sigma_u, again.sigma_v, again.sigma_w]) == sigmas
    # the same bits as a fresh frame's, computed with the cache bypassed, and
    # as EigenPair.mapping and HeisenbergSigma.cartesian, which build anew
    _bypass_cache(monkeypatch)
    other = build_frame(*FRAMES[shape])
    fresh_hs = heisenberg_sigma(other, ref)
    fresh = [mapping_matrix(other, ref), _checked_phase(other, ref)[0], heisenberg._cartesian(other, ref)]
    assert other._cache == {}
    assert _bits(kept) == _bits(fresh)
    assert _bits([fresh_hs.sigma_u, fresh_hs.sigma_v, fresh_hs.sigma_w]) == sigmas
    assert _bits([pair.mapping, again.cartesian()]) == _bits([kept[0], kept[-1]])


def _leaves(x):
    """The arrays and objects in cache entries, through their tuples and lists."""
    if isinstance(x, (tuple, list)):
        return [leaf for y in x for leaf in _leaves(y)]
    return [x] if isinstance(x, (np.ndarray, frames.EigenPair, frames._Last)) else []


def test_a_frame_and_all_it_derives_are_freed_without_the_garbage_collector():
    # the cache holds arrays, tuples of them and the rotated frame, never an
    # object that holds the frame: no reference cycle keeps a block alive
    frame = build_frame(*FRAMES["block"])
    alpha = np.array([0.6, 0.8j])
    for ref in REFERENCES.values():
        _results(frame, ref)
        heisenberg.rotation_residual(frame, 0.3, ref)
        heisenberg.equivalence_residual(frame, 0.3, ref)
        expectation_spv_residual(frame, alpha, ref)
    rotated = weakref.ref(rotate_characterization(frame, 0.3))
    kept, cached = weakref.ref(frame), [weakref.ref(x) for x in _leaves(list(frame._cache.values()))]
    assert len(cached) > len(frame._cache)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del frame
        assert kept() is None and rotated() is None
        assert all(x() is None for x in cached)
    finally:
        if enabled:
            gc.enable()


def test_replaced_and_rotated_frames_start_with_empty_caches():
    frame = build_frame(*FRAMES["block"])
    _results(frame, DEFAULT_REFERENCES)
    # the eigenpair, the mapping and the cross-check
    assert len(frame._cache) == 3
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
    assert list(frame._cache) == [(frames._eigen_pair, DEFAULT_REFERENCES)]


def test_a_heisenberg_block_checks_each_distinct_frame_once(counted):
    verify.run_suite("heisenberg", n_cases=verify.CASE_BLOCK)
    checked = [frame for name, frame in counted if name == "_cross_check"]
    paired = [frame for name, frame in counted if name == "_eigen_pair"]
    # the drawn frame and the one frame rotate_characterization builds from
    # it, which the suite's phase-shift law and rotation_residual share
    assert len(checked) == 2
    for computed in (checked, paired):
        assert len({id(f) for f in computed}) == len(computed) == 2
    assert {id(f) for f in checked} == {id(f) for f in paired}


def _residuals(seed, n_cases):
    """Every suite's per-case residual arrays on one block, as bytes."""
    out = []
    for steps, finish, check, _, suite_id in verify._SUITES.values():
        fields = verify._read_block(np.random.default_rng([seed, suite_id]), n_cases, steps)
        if finish:
            finish(fields)
        out += [np.asarray(r).tobytes() for r in check(**fields)]
    return out


def _bypass_frame_memos(monkeypatch):
    # every rotation and block memo computes afresh, as in the CI step
    monkeypatch.setattr(frames._Last, "get", lambda self, key, compute: compute())


@pytest.mark.parametrize("bypass", ["cache", "memos", "cache and memos"])
def test_bypassing_the_cache_leaves_every_result_unchanged(bypass, monkeypatch):
    # 300 cases: the reports span a full and a partial block
    kept = verify.report_lines(verify.run_suites(seed=2, n_cases=300)), _residuals(2, 100)
    expect = _bits(_results(build_frame(*FRAMES["block"]), DEFAULT_REFERENCES))
    if "cache" in bypass:
        _bypass_cache(monkeypatch)
    if "memos" in bypass:
        _bypass_frame_memos(monkeypatch)
    assert (verify.report_lines(verify.run_suites(seed=2, n_cases=300)), _residuals(2, 100)) == kept
    frame = build_frame(*FRAMES["block"])
    assert _bits(_results(frame, DEFAULT_REFERENCES)) == expect
    assert (frame._cache == {}) == ("cache" in bypass)


def test_the_residuals_share_the_frames_check(counted):
    frame = build_frame(*FRAMES["block"])
    alpha = np.array([0.6, 0.8j])
    for ref, _ in itertools.product(REFERENCES.values(), range(2)):
        heisenberg_sigma(frame, ref)
        closed_form_residual(frame, ref)
        expectation_spv_residual(frame, alpha, ref)
    assert sorted(name for name, _ in counted) == ["_cross_check"] * 2 + ["_eigen_pair"] * 2


def test_a_kept_mapping_is_checked_unitary_once(monkeypatch):
    checked = []
    unitary = frames._unitary

    def recorded(varpi):
        checked.append(varpi.shape)
        return unitary(varpi)

    monkeypatch.setattr(frames, "_unitary", recorded)
    frame = build_frame(*FRAMES["block"])
    alpha = np.array([0.6, 0.8j])
    spec = Spectrum(k=[[0.3, 0.0, 2.0], [0.0, 0.4, 2.0]], amplitude=[0.6, 0.8], weight=[1.0, 1.0])
    cfg = PacketConfig(i_vec=np.array([1.0, 0.0, 0.0]), alpha=alpha)
    for _ in range(2):
        rotations.spv_rotation_residual(frame, np.full((2, 50), 0.7), alpha)
        expectation_spv_residual(frame, alpha)
        sample_spinors(spec, cfg)
    # the frame's mapping, its rotated frame's and the kept spectrum block's
    assert checked == [(2, 50, 2, 2)] * 2 + [(2, 2, 2)]
    # a matrix the caller passes to compose_spinor is checked on every call
    for _ in range(2):
        frames.compose_spinor(mapping_matrix(frame), alpha)
    assert checked[3:] == [(2, 50, 2, 2)] * 2


def test_a_mapping_that_is_not_unitary_fails_when_derived(monkeypatch):
    monkeypatch.setattr(frames.EigenPair, "mapping", property(lambda pair: np.full((2, 2), 0.5 + 0j)))
    frame = build_frame(*FRAMES["single"])
    for _ in range(2):
        with pytest.raises(ValueError, match="mapping matrix must be unitary"):
            mapping_matrix(frame)
    assert (frames._mapping, DEFAULT_REFERENCES) not in frame._cache


@pytest.fixture
def built(monkeypatch):
    """Frames passed out of build_frame, under each name the library calls it by."""
    calls = []
    build = frames.build_frame

    def recorded(w, i_vec):
        calls.append(build(w, i_vec))
        return calls[-1]

    for module in (frames, rotations, wavepacket):
        monkeypatch.setattr(module, "build_frame", recorded)
    return calls


# (build_frame, _eigen_pair, _cross_check) calls per suite in a 100-case run at
# seed 3, where the wavepacket suite keeps every row.  Each distinct frame is
# built, paired and checked once; without the rotation and block memos the
# rotations and heisenberg suites build a second rotated frame and the
# wavepacket suite's eigen components and local_spv build theirs again
SHARED = {"frames": (3, 2, 0), "rotations": (2, 2, 0), "heisenberg": (2, 2, 2), "wavepacket": (4, 4, 1)}
UNSHARED = {"frames": (3, 2, 0), "rotations": (3, 3, 0), "heisenberg": (3, 3, 3), "wavepacket": (7, 7, 1)}


@pytest.mark.parametrize("memos", ["kept", "bypassed"])
@pytest.mark.parametrize("suite", SHARED)
def test_each_suite_builds_pairs_and_checks_each_distinct_frame_once(
    suite, memos, built, counted, monkeypatch
):
    if memos == "bypassed":
        _bypass_frame_memos(monkeypatch)
    verify.run_suite(suite, seed=3, n_cases=100)
    paired = [frame for name, frame in counted if name == "_eigen_pair"]
    checked = [frame for name, frame in counted if name == "_cross_check"]
    assert (len(built), len(paired), len(checked)) == (SHARED if memos == "kept" else UNSHARED)[suite]
    for computed in (paired, checked):
        assert len({id(f) for f in computed}) == len(computed)


def test_the_same_angles_give_the_same_rotated_frame():
    frame = build_frame(*FRAMES["block"])
    phi = np.random.default_rng(5).uniform(0.0, 4.0 * np.pi, size=(2, 50))
    rotated = rotate_characterization(frame, phi)
    # equal bits in another array
    assert rotate_characterization(frame, phi.copy()) is rotated
    fresh = rotate_characterization(build_frame(*FRAMES["block"]), phi)
    assert _bits(_results(rotated, DEFAULT_REFERENCES)) == _bits(_results(fresh, DEFAULT_REFERENCES))
    # other angles, and the same array changed in place, give new frames
    other = rotate_characterization(frame, phi + 1e-3)
    assert other is not rotated
    assert rotate_characterization(frame, phi) is not rotated
    moved = phi.copy()
    before = rotate_characterization(frame, moved)
    moved[1, 7] += 0.25
    after = rotate_characterization(frame, moved)
    assert after is not before
    expect = rotate_characterization(build_frame(*FRAMES["block"]), moved.copy())
    assert _bits([after.u, after.v, after.w]) == _bits([expect.u, expect.v, expect.w])
    # a scalar angle is keyed by its shape too: broadcast to the batch it is a new key
    single = rotate_characterization(frame, 0.7)
    assert rotate_characterization(frame, np.float64(0.7)) is single
    assert rotate_characterization(frame, np.full((2, 50), 0.7)) is not single


def test_a_kept_block_answers_only_its_own_spectrum_i_vec_and_references(built):
    rng = np.random.default_rng(41)
    k = rng.normal(size=(2, 5, 3)) + [0.0, 0.0, 4.0]
    amplitude = np.full(5, 1.0 / np.sqrt(5.0))
    specs = [Spectrum(k=k[j], amplitude=amplitude, weight=np.ones(5)) for j in range(2)]
    i_vec = np.array([0.6, 0.0, 0.8])
    cfg = PacketConfig(i_vec=i_vec, alpha=np.array([0.6, 0.8j]))

    def fresh(i_vec, ref=DEFAULT_REFERENCES):
        # a new config keeps nothing yet
        return PacketConfig(i_vec=i_vec.copy(), alpha=cfg.alpha, ref=ref)

    def outputs(spec, cfg):
        return _bits([sample_spinors(spec, cfg, branch) for branch in (0, +1, -1)])

    first = outputs(specs[0], cfg)
    assert len(built) == 1
    # the eigen components and local_spv walk the same frames
    eigen_component(specs[0], cfg, +1, [0.1, 0.2, 0.3], 0.5)
    local_spv(specs[0], cfg, [0.1, 0.2, 0.3], 0.5)
    assert len(built) == 1
    assert first == outputs(specs[0], fresh(i_vec)) and len(built) == 2
    # another spectrum
    assert outputs(specs[1], cfg) == outputs(specs[1], fresh(i_vec))
    assert len(built) == 4
    # the caller's i_vec array changed in place: cfg keeps its own copy
    i_vec[:] = [0.0, 0.6, 0.8]
    assert outputs(specs[1], cfg) == outputs(specs[1], fresh(np.array([0.6, 0.0, 0.8])))
    assert len(built) == 5
    # cfg's own i_vec changed in place, past its read-only flag: the kept
    # block is keyed by the bits of i_vec, so it is not reused
    cfg.i_vec.flags.writeable = True
    cfg.i_vec[:] = i_vec
    cfg.i_vec.flags.writeable = False
    assert outputs(specs[1], cfg) == outputs(specs[1], fresh(i_vec))
    assert len(built) == 7
    # other references: the kept frames hold no reference pair's results, so a
    # config that shares them gets its own pair's eigenspinors
    other = replace(cfg, ref=FALLBACK_REFERENCES)
    object.__setattr__(other, "_frames", cfg._frames)
    assert outputs(specs[1], other) == outputs(specs[1], fresh(i_vec, FALLBACK_REFERENCES))
    assert outputs(specs[1], other) != outputs(specs[1], cfg)
    assert len(built) == 8


def test_a_spectrum_beyond_one_block_or_a_field_keeps_no_frames(built, monkeypatch):
    k = [[0.0, 0.3, 2.0], [0.2, 0.0, 3.0], [0.0, 0.0, 4.0]]
    spec = Spectrum(k=k, amplitude=np.full(3, 0.5), weight=np.full(3, 4.0 / 3.0))
    cfg = PacketConfig(i_vec=np.array([1.0, 0.0, 0.0]), alpha=np.array([1.0, 0.0]))
    monkeypatch.setattr(wavepacket, "_FRAME_BUDGET", 2)
    sample_spinors(spec, cfg)
    sample_spinors(spec, cfg)
    assert len(built) == 4
    # a field walks its frames once and keeps none in cfg
    spin_field(spec, cfg, position_grid(3, 2.0)[0], 0.0)
    monkeypatch.setattr(wavepacket, "_FRAME_BUDGET", 3)
    spin_field(spec, cfg, position_grid(3, 2.0)[0], 0.0)
    sample_spinors(spec, cfg)
    sample_spinors(spec, cfg)
    assert len(built) == 8
