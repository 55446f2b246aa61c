import random

import pytest

from abrbench import media, nettrace


class ScriptedPolicy:
    """Replays a fixed per-chunk choice sequence (1-based chunk ordinals)."""

    def __init__(self, choices):
        self.choices = list(choices)

    def select(self, state) -> int:
        return self.choices[state.chunk_index - 1]


@pytest.fixture
def default_manifest():
    return media.synthetic_manifest(segments=8)


@pytest.fixture
def flat_trace():
    return nettrace.parse_trace("0,1000", "pairs", duration_s=1000.0)


def random_trace(rng: random.Random, n_segments=None, ms_aligned=True):
    """Random piecewise trace with millisecond-aligned boundaries."""
    n_segments = n_segments or rng.randint(1, 8)
    t = 0.0
    samples = []
    for _ in range(n_segments):
        samples.append((round(t, 3), rng.choice([0.0, 0.0, 200.0, 500.0, 1000.0, 3000.0, 8000.0, 20000.0])
                        if rng.random() < 0.35 else round(rng.uniform(50.0, 12000.0), 3)))
        t += rng.randint(200, 8000) / 1000.0
    duration = round(t, 3)
    if all(bw == 0.0 for _, bw in samples):
        samples[-1] = (samples[-1][0], 700.0)
    return nettrace.Trace(samples=tuple(samples), duration_s=duration)
