"""Search the accepted frame domain for the input that comes closest to each law's bound.

A seeded, batched, multiscale hill climb over (w, I, phi).  A population of
triples moves together: each step adds 10^U(-8, 0) times a standard normal
vector to every triple and keeps a move where the law's score (residual over
bound) grows and |w x I| stays at or above 2 EPS_PARALLEL.  A documented
rejection (DegenerateFrame, ReferenceAnnihilated) counts as no move, and a NaN
residual scores +inf.  With |w| "free", w is off unit by up to EPS_INPUT, as
the input checks accept; with it "fixed", w is normalized in floating point.

Tier-1 runs one seed, 64 triples and 30 steps per law and mode, and replays
the worst input the longer searches found: KNOWN holds it, at 0.676 of the
rotation_residual bound, from 512 triples over seeds 0-11.  The longer search,

    python tests/test_worst_input.py

runs 512 triples for 300 steps at seeds 0, 1 and 2 per law and mode, the
effort of the search that first measured these laws, prints each law's
worst input as one replayable line and exits 1 when any reaches its bound.
It reads 0.644 of the bound for rotation_residual, 0.305 for
correspondence_residual, 0.218 for eigenspinor_rotation_residuals, 0.162
for the anticommutator and at most 3.3e-3 for the 1e-12 laws.  The line's
replay(...) call gives the input's score again, from the tests directory:
python -c "from test_worst_input import replay; print(replay(...))".
"""

import sys

import numpy as np
import pytest

from spinpol import (
    build_frame,
    closed_form_residual,
    correspondence_residual,
    eigen_spinors,
    eigenspinor_rotation_residuals,
    rotation_residual,
    sigma_product,
)
from spinpol.algebra import EPS_INPUT, _eigen_residual, _norm, _vdot
from spinpol.frames import EPS_PARALLEL, DegenerateFrame, ReferenceAnnihilated

SEED = 2026
POPULATION = 64
STEPS = 30


def _cross_norm(w, i_vec):
    return np.linalg.norm(np.cross(w, i_vec), axis=-1)


def _eigen(w, i_vec, phi):
    f = build_frame(w, i_vec)
    pair = eigen_spinors(f)
    return np.maximum(_eigen_residual(f.w, pair.chi_plus, +1), _eigen_residual(f.w, pair.chi_minus, -1))


def _overlap(w, i_vec, phi):
    pair = eigen_spinors(build_frame(w, i_vec))
    return abs(_vdot(pair.chi_plus, pair.chi_minus))


def _normalized(w, i_vec, phi):
    pair = eigen_spinors(build_frame(w, i_vec))
    return np.maximum(abs(_norm(pair.chi_plus) - 1.0), abs(_norm(pair.chi_minus) - 1.0))


def _closed_form(w, i_vec, phi):
    return closed_form_residual(build_frame(w, i_vec))


def _rotation(w, i_vec, phi):
    # the law rebuilds the frame from R I, so it holds to about 1e-16/|w x I|
    return rotation_residual(build_frame(w, i_vec), phi) * _cross_norm(w, i_vec)


def _eigenspinor_rotation(w, i_vec, phi):
    plus, minus = eigenspinor_rotation_residuals(build_frame(w, i_vec), phi)
    return np.maximum(plus, minus) * _cross_norm(w, i_vec)


def _anticommutator(w, i_vec, phi):
    # {a.sigma, b.sigma} = 2 (a.b) 1, per unit |a| |b|
    anti = sigma_product(w, i_vec) + sigma_product(i_vec, w)
    dev = anti - 2.0 * _vdot(w, i_vec)[:, None, None] * np.eye(2)
    return _norm(dev, axis=(-2, -1)) / (_norm(w) * _norm(i_vec))


def _correspondence(w, i_vec, phi):
    # (R a).sigma = U (a.sigma) U^dag about the axis w, per unit |a|
    return correspondence_residual(w, phi, i_vec) / _norm(i_vec)


# name: (law, bound)
LAWS = {
    "eigen_residual": (_eigen, 1e-12),
    "eigenspinor_overlap": (_overlap, 1e-12),
    "eigenspinor_norm": (_normalized, 1e-12),
    "closed_form_residual": (_closed_form, 1e-12),
    "rotation_residual_x_cross": (_rotation, 4e-15),
    "eigenspinor_rotation_residuals_x_cross": (_eigenspinor_rotation, 4e-15),
    "anticommutator_per_unit": (_anticommutator, 4e-15),
    "correspondence_residual_per_unit": (_correspondence, 4e-15),
}
MODES = ("fixed", "free")


def _inputs(x, mode):
    """(w, I, phi) of the (n, 8) search coordinates: raw w and I, phi, and w's off-unit angle."""
    w = x[:, 0:3] / np.linalg.norm(x[:, 0:3], axis=-1, keepdims=True)
    if mode == "free":
        # 0.999 EPS_INPUT keeps rounding of the norm inside the accepted band
        w = w * (1.0 + 0.999 * EPS_INPUT * np.sin(x[:, 7]))[:, None]
    i_vec = x[:, 3:6] / np.linalg.norm(x[:, 3:6], axis=-1, keepdims=True)
    return w, i_vec, x[:, 6]


def _scores(name, w, i_vec, phi):
    """Residual over bound per triple; -inf where the move is rejected, +inf for NaN."""
    law, bound = LAWS[name]
    score = np.full(len(w), -np.inf)
    ok = _cross_norm(w, i_vec) >= 2.0 * EPS_PARALLEL
    while ok.any():
        rows = np.flatnonzero(ok)
        try:
            residual = law(w[rows], i_vec[rows], phi[rows])
        except (DegenerateFrame, ReferenceAnnihilated) as exc:
            # no move for the first rejected triple; the rest are evaluated again
            ok[rows[exc.index[0]]] = False
            continue
        score[rows] = np.where(np.isnan(residual), np.inf, residual / bound)
        break
    return score


def search(name, mode, seed=SEED, steps=STEPS, population=POPULATION):
    """Hill-climb a population of triples; return the worst score and its (w, I, phi)."""
    rng = np.random.default_rng([seed, list(LAWS).index(name), MODES.index(mode)])
    angles = rng.uniform(0.0, 4.0 * np.pi, (population, 2))
    x = np.concatenate([rng.normal(size=(population, 6)), angles], axis=1)
    score = _scores(name, *_inputs(x, mode))
    for _ in range(steps):
        scale = 10.0 ** rng.uniform(-8.0, 0.0, (population, 1))
        y = x + scale * rng.normal(size=x.shape)
        moved = _scores(name, *_inputs(y, mode))
        better = moved > score
        x[better], score[better] = y[better], moved[better]
    worst = int(np.argmax(score))
    w, i_vec, phi = (a[worst] for a in _inputs(x, mode))
    return float(score[worst]), (w, i_vec, float(phi))


def replay(name, w, i_vec, phi):
    """The score of one input: the law's residual over its bound."""
    w, i_vec = np.array([w], dtype=float), np.array([i_vec], dtype=float)
    return float(_scores(name, w, i_vec, np.array([phi]))[0])


def _line(name, mode, score, inputs):
    w, i_vec, phi = inputs
    call = f"replay({name!r}, w={w.tolist()!r}, i_vec={i_vec.tolist()!r}, phi={phi!r})"
    return f"{name} |w| {mode}: {score:.3g} of the bound; {call}"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", LAWS)
def test_no_searched_input_reaches_the_bound(name, mode):
    score, inputs = search(name, mode)
    assert -np.inf < score <= 1.0, _line(name, mode, score, inputs)
    # the line replays to the same score
    assert replay(name, *inputs) == score


# the worst input a longer search found: 512 triples, 300 steps, seeds 0-11
KNOWN = {
    "rotation_residual_x_cross": (
        [-0.7172371065649654, 0.6859842068362558, -0.12246061581176534],
        [0.4482054813150405, 0.7816251880078304, -0.43379017046364315],
        5.216786070919726,
    ),
}


@pytest.mark.parametrize("name", KNOWN)
def test_the_worst_known_input_stays_under_the_bound(name):
    assert replay(name, *KNOWN[name]) <= 1.0


def main():
    failed = False
    for name in LAWS:
        for mode in MODES:
            # the effort of the search that first measured these laws
            runs = [search(name, mode, seed, 10 * STEPS, 8 * POPULATION) for seed in range(3)]
            score, inputs = max(runs, key=lambda run: run[0])
            print(_line(name, mode, score, inputs), flush=True)
            failed |= not -np.inf < score <= 1.0
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
