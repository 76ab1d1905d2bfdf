"""Seeded draws pinned across commits by SHA-256 digests.

Each digest covers the outputs of ``multinomial_draws`` or ``draw_chunk``
for one distribution over several seeds, streams and sample counts.  The
distributions are hand-built with exact dyadic probabilities (so every CDF
entry is exact) or are ``uniform_distribution(n)``, and no step of a draw
goes through BLAS, so the digests are the same on every platform.  A change
that alters any seeded draw (alias sampling, say, or a different stream)
fails here and has to say so and write new digests.
"""

import hashlib

import numpy as np
import pytest

from levsketch import RngStream, SamplingDistribution, multinomial_draws, uniform_distribution
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
    "dyadic-7": "957dc7fd86dda58f11fe4d95d422af7416e3828bf600c287c54d8b803d8d68ad",
    "dyadic-one-heavy": "5903ec5fd0f8bebdd9e7ed77d75a1c97c04f21490eb203f8f553f522865167ae",
    "dyadic-wide": "7a5abcae8a1fcef008e2078ce83eb83f3692ca8a68e96e6a32d10d85ad6fc5b7",
    "dyadic-zero-tail": "e5a0234c3064ca6a95741b317d989f81f363e90cee46586c60bc658f67b639e0",
    "one-row": "e3c2af35d1dfc500e16f826a071cc311bf55003a3de77de7ea3376c6b6fa2857",
    "uniform-1000": "ee6aadb6071dbb78bbb5fb658fb2a6b2a636fe98cafd8bec50ea6f75b5ebd0b4",
    "uniform-5": "e8910c7f7b439b06ef5f03b14cf6e7dee505bc8417523393d837a66985287c95",
    "uniform-64": "66fb09f304ebb14bb06536e701c171e76a4ae7029a58391cb7b4542ba9154331",
}

CHUNK_DIGESTS = {
    "dyadic-7": "b2d38775016166c47841d7b41fc84ef642580509c64304caf04b86ee83f5050e",
    "dyadic-one-heavy": "12eef6435776455b985957a0f8c92ec74f356d02c2ac32390acc93a0752a4ac9",
    "dyadic-wide": "c4d7b01a4660998774c074c0c0f552f006178af52069a57e1b7cc69a32c2d372",
    "dyadic-zero-tail": "6b6dc40a848829b8b2e06149b2508e89e14af7cc6c40522461ff47fce4c4ce2d",
    "one-row": "bee32629929ed5e6ff266b36ba420749610033fafa0104ea97a98f86883c58de",
    "uniform-1000": "e6d5f7a12583e41f9918b84e1eef50da5e3176a85c094c18aeb4ce66ee57e15c",
    "uniform-5": "f979b3710fc2f0fe5afaeeff29d39984ffe8ff1d6a3d4b7d24f6f937794c8717",
    "uniform-64": "1ac045d26eb5b3f5a27e0a405477b92b7663988d11f32c3c0f419037add73320",
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
