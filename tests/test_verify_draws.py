"""The fields every `verify` suite checks, pinned by digest."""

import hashlib
import inspect

import numpy as np
import pytest

from spinpol import verify

# seeds 0-3, seeds at which a case of a 100-case wavepacket block draws a
# direction within 1e-4 rad of the south pole (289, 369, 785 and 929), and the
# heisenberg frame near the south pole (130); 300 cases cross CASE_BLOCK
SEEDS = (0, 1, 2, 3, 289, 369, 785, 929, 130)
N_CASES = (1, 7, 100, 300)

# SHA-256 over every (seed, n_cases) run: each checked block's fields in the
# check's argument order (dtype, shape, C-contiguity, bytes), then the
# suite stream's end state.  Recorded from the steps of uniforms (Archimedes
# unit vectors, Duff-basis directions clear of I, Jones vectors from three
# uniforms, Box-Muller normals), none of which rejects a case
DRAW_DIGESTS = {
    "algebra": "408e91e7f32d00ccae999dfca1e028365e036b3a3f9bd070d69ae2c9dcee2b2f",
    "frames": "e7e27a8b0d5571e463ab225b37d069e07ef3e53d308c653c8c8435fca5e4d5d3",
    "rotations": "80ed6dad582f695ce7d6ad3aa9197e759aa6c10ac8e1e83cdd469d18d424dffa",
    "heisenberg": "79051e0969d28048baa64cdc0850cca01bba3acdce15b206f029ee12405cc9a4",
    "wavepacket": "24b7939b04f25f8fb5d394beb033d397a1c1f77d27bd60e051c4444061642919",
}


def _draw_digest(name, monkeypatch):
    check = getattr(verify, f"_check_{name}")
    signature = inspect.signature(check)
    digest = hashlib.sha256()
    made = []
    default_rng = np.random.default_rng

    def recording_rng(*args, **kwargs):
        made.append(default_rng(*args, **kwargs))
        return made[-1]

    def recording_check(*args, **kwargs):
        for field in signature.bind(*args, **kwargs).arguments.values():
            digest.update(repr((field.dtype.str, field.shape, field.flags.c_contiguous)).encode())
            digest.update(field.tobytes())
        return ()

    entry = tuple(recording_check if part is check else part for part in verify._SUITES[name])
    assert entry != verify._SUITES[name]
    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", recording_rng)
        m.setitem(verify._SUITES, name, entry)
        for seed in SEEDS:
            for n_cases in N_CASES:
                verify.run_suite(name, seed=seed, n_cases=n_cases)
                digest.update(repr(made[-1].bit_generator.state).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_checked_fields_and_stream_are_pinned(name, monkeypatch):
    assert _draw_digest(name, monkeypatch) == DRAW_DIGESTS[name]


# the suites' draws before any finish, many cases at a fixed seed
DOMAIN_CASES = 20000
# steps that draw a unit vector clear of another field: (suite, field, clear of)
CLEAR_OF = [("frames", "i_vec", "w"), ("rotations", "i_vec", "w"), ("heisenberg", "i_vec", "w"),
            ("wavepacket", "direction", "i_vec"), ("wavepacket", "d2", "i_vec")]
UNIT_VECTORS = [("algebra", "a"), ("algebra", "b"), ("frames", "w"), ("rotations", "axis"),
                ("rotations", "w"), ("heisenberg", "w"), ("wavepacket", "i_vec")]
JONES = [("algebra", "chi"), ("rotations", "alpha"), ("heisenberg", "alpha"), ("wavepacket", "alpha")]
# real normal samples of each suite: Box-Muller parts
NORMALS = [("algebra", "ca"), ("algebra", "cb"), ("rotations", "a"), ("wavepacket", "x"), ("wavepacket", "amp")]


@pytest.fixture(scope="module")
def domain_draws():
    draws = {}
    for name, (steps, *_, suite_id) in verify._SUITES.items():
        draws[name] = verify._read_block(np.random.default_rng([11, suite_id]), DOMAIN_CASES, steps)
    return draws


def _assert_uniform(samples, lo, hi, bins=20):
    """Each of `bins` equal bins of [lo, hi] holds its binomial share of the samples within 5 sigma."""
    counts = np.histogram(samples, bins=bins, range=(lo, hi))[0]
    assert counts.sum() == len(samples)
    p = 1.0 / bins
    spread = 5.0 * np.sqrt(len(samples) * p * (1.0 - p))
    assert np.all(abs(counts - len(samples) * p) <= spread), counts


@pytest.mark.parametrize("suite, field, clear", CLEAR_OF)
def test_directions_stay_clear_of_their_axis(suite, field, clear, domain_draws):
    d, axis = domain_draws[suite][field], domain_draws[suite][clear]
    assert np.linalg.norm(np.cross(d, axis), axis=1).min() > 1e-2
    # the cosine to the axis is uniform on (-c, c), c = sqrt(1 - 1e-4): the
    # whole band |d x axis| > 1e-2, no narrower
    cos_t = np.sum(d * axis, axis=1)
    _assert_uniform(cos_t, -np.sqrt(1.0 - 1e-4), np.sqrt(1.0 - 1e-4))


def test_the_extreme_uniforms_stay_clear():
    # u = 0 and the largest uniform below 1 give the cosines nearest -c and c
    # on random axes; the rejection they replace was a strict |d x axis| > 1e-2
    rng = np.random.default_rng(12)
    axis = verify._unit(rng.random((1000, 2)), {})
    for u in (0.0, 1.0 - 2.0**-53):
        x = np.column_stack([np.full(len(axis), u), rng.random(len(axis))])
        d = verify._clear_of("axis")(x, {"axis": axis})
        assert np.linalg.norm(np.cross(d, axis), axis=1).min() > 1e-2


@pytest.mark.parametrize("suite, field", UNIT_VECTORS + [entry[:2] for entry in CLEAR_OF])
def test_unit_vectors_are_unit_and_uniform(suite, field, domain_draws):
    v = domain_draws[suite][field]
    assert abs(np.linalg.norm(v, axis=1) - 1.0).max() <= 4 * np.finfo(float).eps
    if (suite, field) in UNIT_VECTORS:
        # Archimedes: z of a uniform unit vector is uniform on [-1, 1]
        _assert_uniform(v[:, 2], -1.0, 1.0)


@pytest.mark.parametrize("suite, field", JONES)
def test_jones_vectors_are_unit_and_uniform(suite, field, domain_draws):
    alpha = domain_draws[suite][field]
    assert abs(np.linalg.norm(alpha, axis=1) - 1.0).max() <= 4 * np.finfo(float).eps
    # uniform on the unit sphere of C^2: |alpha_1|^2 is uniform on [0, 1]
    _assert_uniform(abs(alpha[:, 0]) ** 2, 0.0, 1.0)


@pytest.mark.parametrize("suite, field", NORMALS)
def test_box_muller_samples_are_standard_normal(suite, field, domain_draws):
    z = domain_draws[suite][field]
    parts = np.stack([z.real, z.imag], axis=-1) if np.iscomplexobj(z) else z
    for x in parts.reshape(len(z), -1).T:
        n = len(x)
        # the sample mean and variance of n standard normals have standard
        # deviations 1/sqrt(n) and sqrt(2/n)
        assert abs(x.mean()) <= 5.0 / np.sqrt(n)
        assert abs(x.var() - 1.0) <= 5.0 * np.sqrt(2.0 / n)
