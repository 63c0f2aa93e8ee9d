"""Property tests of the chain kernel against the per-chain tuple sampler."""

import random

import pytest

from equihom.slices import chain_alternation_counts

from oracles import chain_alternations, sample_maximal_chain_reference

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                               database=None)


def row_major(v, L):
    position = 0
    for x in v:
        position = position * L + x
    return position


@SETTINGS
@hypothesis.given(L=st.sampled_from((4, 8, 12, 20)), n=st.integers(1, 4),
                  maps=st.integers(1, 5), samples=st.integers(0, 40),
                  blob_seed=st.integers(0, 2 ** 32 - 1),
                  threshold=st.integers(0, 256),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_matches_the_sampler_and_its_draws(L, n, maps, samples, blob_seed,
                                                  threshold, seed):
    # bytes below the threshold are blue: 0 and 256 give one-colour blobs
    colour = bytes(int(b < threshold) for b in range(256))
    blob = random.Random(blob_seed).randbytes(L ** n * maps).translate(colour)
    rng, reference = random.Random(seed), random.Random(seed)
    worst = violations = 0
    for c in range(samples):
        chain = sample_maximal_chain_reference(L, n, reference)
        colours = {v: blob[row_major(v, L) * maps + c % maps] for v in chain}
        alternations = chain_alternations(colours, chain)
        worst = max(worst, alternations)
        violations += alternations > 2
    assert chain_alternation_counts(L, n, rng, samples, blob, maps) == (worst,
                                                                        violations)
    assert rng.getstate() == reference.getstate()
