"""Seeded draws pinned across commits by SHA-256 digests.

Each digest covers the outputs of ``multinomial_draws`` or ``draw_chunk``
for one distribution over several seeds, streams and sample counts.  The
distributions are hand-built with exact dyadic probabilities (so every CDF
entry is exact) or are ``uniform_distribution(n)``, and no step of a draw
goes through BLAS, so the digests are the same on every platform.  A change
that alters any seeded draw (alias sampling, say, or a different stream)
fails here and has to say so and write new digests.  Generated problems
draw from stream 0 alone, and :func:`problem_digest` pins those draws, so a
change of the trial streams that keeps stream 0 keeps them too.

A change of the draws also has to keep them distributed as ``p``, which
``test_sketch.py``'s chi-square test of pooled chunk counts checks.
"""

import hashlib

import numpy as np
import pytest

from levsketch import (
    ProblemSpec,
    RngStream,
    SamplingDistribution,
    generate_problem,
    multinomial_draws,
    uniform_distribution,
)
from levsketch.sketch import TrialStreams, draw_chunk


def _dyadic(weights) -> SamplingDistribution:
    """``weights / 2**k``, with the shortfall to ``2**k`` added to the last
    positive row so the probabilities are exact and sum to exactly 1."""
    w = np.asarray(weights, dtype=np.int64)
    total = 1 << int(w.sum() - 1).bit_length()
    w[np.flatnonzero(w)[-1]] += total - w.sum()
    return SamplingDistribution(probs=w / total)


def _wide_weights(n: int = 3000):
    w = (np.arange(n) * 7919) % 97
    w[100:160] = 0  # a zero run of 60 rows
    w[1000:1013] = 0
    w[-40:] = 0  # a zero tail
    return w


DISTRIBUTIONS = {
    "dyadic-7": lambda: _dyadic([8, 0, 4, 2, 0, 1, 1]),
    "dyadic-zero-tail": lambda: _dyadic([4, 0, 4, 8, 0, 0, 0]),
    "dyadic-one-heavy": lambda: _dyadic([1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1021, 1, 1]),
    "dyadic-wide": lambda: _dyadic(_wide_weights()),
    "one-row": lambda: SamplingDistribution(probs=np.array([1.0])),
    "uniform-5": lambda: uniform_distribution(5),
    "uniform-64": lambda: uniform_distribution(64),
    "uniform-1000": lambda: uniform_distribution(1000),
}

SEEDS = ((0, 0), (12345, 3), (2**63 + 5, 1))


def _sample_counts(n: int):
    return sorted({1, 2, n, 3 * n + 1})


def _update(h, *arrays):
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes())


def draws_digest(p: SamplingDistribution) -> str:
    h = hashlib.sha256()
    for seed, stream in SEEDS:
        for s in _sample_counts(p.n_rows):
            draws = multinomial_draws(p, s, RngStream(seed, stream))
            _update(h, draws.astype(np.int64))
    return h.hexdigest()


def chunk_digest(p: SamplingDistribution) -> str:
    h = hashlib.sha256()
    for seed, first in SEEDS:
        for n_streams in (1, 4):
            for s in _sample_counts(p.n_rows):
                chunk = draw_chunk(p, s, TrialStreams(seed), range(first, first + n_streams))
                _update(h, chunk.unique_rows.astype(np.int64),
                        chunk.weight_sq_sums.astype(np.float64), chunk.offsets.astype(np.int64))
    return h.hexdigest()


DRAWS_DIGESTS = {
    "dyadic-7": "2af9af54083bd3bb65f6f17b18351d7494b50ecfa77b0703b515351507cddf14",
    "dyadic-one-heavy": "5903ec5fd0f8bebdd9e7ed77d75a1c97c04f21490eb203f8f553f522865167ae",
    "dyadic-wide": "9b31fa7283d367cc8c72866afcbfe2ca856b8401ea5ee165f444e21738496e84",
    "dyadic-zero-tail": "1fcbfacec83ab89e62eac39feb5af041eb1672b8958798d590881064e95226ba",
    "one-row": "e3c2af35d1dfc500e16f826a071cc311bf55003a3de77de7ea3376c6b6fa2857",
    "uniform-1000": "c572f856edff4e0f3e8aa6fe017c1f9b57b2e2fa2c791fdddee01eb3ec1393b3",
    "uniform-5": "2c61cd3769ac040e89dc4a8cf6362a7dd7bda7571386fbc6a0f25f2c2ca2910a",
    "uniform-64": "bc690d9b8ac7b2dac0dc02b811b480ccbc52e200ddbc42605e126ebfd1276b75",
}

CHUNK_DIGESTS = {
    "dyadic-7": "074aab50acbb1f49d56d5f8a56b83136d44f3a385df430d6146cda5afff770a1",
    "dyadic-one-heavy": "31196cbcf93180f6ce6a10bdb9cfcff8075d607b10ab76d7fc7d018df391374f",
    "dyadic-wide": "044e7af83a7d5ca1744d7d4494a67af73684b5942f6377881e1ec4589307dadb",
    "dyadic-zero-tail": "0e6cadb8be22fb1ea9b574366c4775665130f719e70246ea4b75b2aaf9dd2eb0",
    "one-row": "bee32629929ed5e6ff266b36ba420749610033fafa0104ea97a98f86883c58de",
    "uniform-1000": "34451d293dce8455b02bee5fed8c3fe660dfcf5984d6f2532111e2b31681833d",
    "uniform-5": "90b7b26eef7b22158f2709f6adc7c8f8a79299bbba916183bc28f470c9394e2c",
    "uniform-64": "1f437f9fe1f44364b766a9fb08c763c8fc67b117d77b570512a9b9ea7438c15c",
}


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_multinomial_draws_are_pinned(name):
    assert draws_digest(DISTRIBUTIONS[name]()) == DRAWS_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
def test_draw_chunk_multisets_are_pinned(name):
    assert chunk_digest(DISTRIBUTIONS[name]()) == CHUNK_DIGESTS[name]


def test_cases_are_exact():
    # The dyadic CDFs are exact, so their digests cannot depend on summation
    # order; the wide case has zero runs and a zero tail.
    for name in DISTRIBUTIONS:
        p = DISTRIBUTIONS[name]()
        if name.startswith("dyadic"):
            assert p.cdf[-1] == 1.0
            assert np.all(p.probs * 2.0 ** 20 == np.round(p.probs * 2.0 ** 20))
    wide = DISTRIBUTIONS["dyadic-wide"]().probs
    assert np.all(wide[100:160] == 0.0) and np.all(wide[-40:] == 0.0) and wide[-41] > 0.0


PROBLEMS = {
    "gaussian-incoherent": ProblemSpec("gaussian-incoherent", 500, 4, rhs_cols=2,
                                       noise_scale=0.5, seed=2**63 + 5),
    "spiked-coherent": ProblemSpec("spiked-coherent", 500, 4, rhs_cols=2,
                                   coherence_target=0.9, seed=12345),
    "consistent": ProblemSpec("consistent", 500, 4, rhs_cols=2, seed=0),
}


def problem_digest(spec: ProblemSpec) -> str:
    """Digest of the stream-0 draws a generated problem keeps as drawn: ``a``
    (but a spiked row 0, rescaled through a Gram solve) and ``x_true``.  ``b``
    is ``a @ x_true`` plus noise, a BLAS product, so it is not pinned."""
    a, _, meta = generate_problem(spec)
    h = hashlib.sha256()
    _update(h, a[1:] if spec.kind == "spiked-coherent" else a, meta["x_true"])
    return h.hexdigest()


PROBLEM_DIGESTS = {
    "consistent": "d7daa22c0b600d52233580f2fcaa3ba3be32fc4d33b24848ef034050d2764a82",
    "gaussian-incoherent": "2af3f701e9a116442c1cceb34cbf10e15cfabefeb4a02fa93a28114986bb4b28",
    "spiked-coherent": "177d8690d2bbf99574a993158b874fa5fda3f6f92f8fc62cee6256d5c5f8e339",
}


@pytest.mark.parametrize("kind", sorted(PROBLEMS))
def test_generated_problems_are_pinned(kind):
    assert problem_digest(PROBLEMS[kind]) == PROBLEM_DIGESTS[kind]

