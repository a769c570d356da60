import threading

import numpy as np
import pytest

from indtrees.graphs import sample_gnp
from indtrees.rng import Seed, reset_generator

EDGE_WORDS = (0, 1, 2**63, 2**64 - 1)


def draws(rng: np.random.Generator) -> list:
    """Draws of every width the library and the tests take: doubles,
    64-bit and buffered 32-bit integers, and the sampler's geometric gaps."""
    return [
        rng.geometric(0.3, 5).tolist(),
        rng.random(3).tolist(),
        rng.integers(2**32, size=3, dtype=np.uint32).tolist(),  # fills the 32-bit buffer
        rng.integers(1000, size=2).tolist(),
        rng.geometric(1e-9, 2).tolist(),
    ]


@pytest.mark.parametrize("master", EDGE_WORDS)
@pytest.mark.parametrize("stream", EDGE_WORDS)
def test_reset_generator_draws_equal_a_fresh_generators(master, stream):
    seed = Seed(master, stream)
    # leave the shared generator mid-stream, with a half-used 32-bit word
    draws(reset_generator(Seed(7, 7)))
    reset_generator(Seed(7, 7)).integers(2**32, dtype=np.uint32)
    rng = reset_generator(seed)
    assert rng.bit_generator.state["state"]["key"].tolist() == [stream, master]
    assert draws(rng) == draws(seed.generator())


def test_sampling_leaves_a_live_generator_alone():
    # a caller's generator keeps its stream while sample_gnp draws, and the
    # graphs equal those sampled with nothing else live
    seeds = [Seed(2**64 - 1, s) for s in (0, 1, 2**63, 2**64 - 1)]
    alone = [sample_gnp(40, 0.3, s) for s in seeds]
    live = Seed(5, 9).generator()
    got, graphs = [], []
    for s in seeds:
        got.append(draws(live))
        graphs.append(sample_gnp(40, 0.3, s))
    fresh = Seed(5, 9).generator()
    assert got == [draws(fresh) for _ in seeds]
    assert graphs == alone


def test_seed_generator_is_fresh_and_private():
    seed = Seed(3, 4)
    a, b = seed.generator(), seed.generator()
    assert a is not b and a.bit_generator is not b.bit_generator
    assert a is not reset_generator(seed)
    first = draws(a)
    assert draws(b) == first  # drawing from a left b at the start
    reset_generator(seed).random(10)
    assert draws(a) == draws(b)  # and resetting the shared one moved neither


def test_each_thread_resets_its_own_generator():
    seen = []
    t = threading.Thread(target=lambda: seen.append(reset_generator(Seed(1))))
    t.start()
    t.join()
    assert seen[0] is not reset_generator(Seed(1))
