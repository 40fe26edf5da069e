"""The fields every `verify` suite checks, pinned by digest."""

import hashlib
import inspect

import numpy as np
import pytest

from spinpol import verify

# seeds 0-3, seeds at which a case of a 100-case block rejects a vector
# (rotations 21, heisenberg 54, wavepacket 4, 37, 232 and 301) and the
# heisenberg frame near the south pole (912); 300 cases cross CASE_BLOCK
SEEDS = (0, 1, 2, 3, 21, 54, 4, 37, 232, 301, 912)
N_CASES = (1, 7, 100, 300)

# SHA-256 over every (seed, n_cases) run: each checked block's fields in the
# check's argument order (dtype, shape, C-contiguity, bytes), then the
# suite stream's end state
DRAW_DIGESTS = {
    "algebra": "e020fcf42b8ea7474329e8afa2bf8c65050b5e14477cec686d7d78c2810ac75f",
    "frames": "ad7053db4ff9f53985adf5384f5c7de1f03e71c9c59c287aad9ee803d14e07ea",
    "rotations": "a52b74e378c73be3a2170606b6039f029120adfceb1a1449d9002edb8a60a15e",
    "heisenberg": "9b96a4fe33fad95b05f74ae6acc7abb7d8c1d88973d7c74808b0bc87280b54d4",
    "wavepacket": "1de46313484ed8998285cc4b6e888b08cd5c64ebf4ac6cd032186e845c776e93",
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
