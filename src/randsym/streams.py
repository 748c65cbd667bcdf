"""Deterministic splittable random streams.

Every random draw in this package is keyed by a tuple of integers
``(seed, k1, k2, ...)`` fed to :class:`numpy.random.SeedSequence`:
:func:`substream` gives a generator for the key, and :func:`key_seed`
packs it into one integer seed for APIs that take one, such as
``sample_symmetric`` in the tail and detconc trials, keyed (seed, n,
trial).  Two consequences:

* rerunning with the same seed reproduces every draw bit for bit, and
* work can be fanned out across any number of workers, as long as the
  work units are the keyed substreams themselves.

Long draw streams are split into fixed-size chunks; the value at index i
depends only on (seed, i // CHUNK, position inside the chunk), so chunked
parallel generation matches serial generation exactly.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

CHUNK = 1024


def _sequence(seed: int, key) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), *[int(k) for k in key]])


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the integer key (seed, *key)."""
    return np.random.default_rng(_sequence(seed, key))


def key_seed(seed: int, *key: int) -> int:
    """One integer seed for the key (seed, *key): the first word of its
    SeedSequence state, so distinct keys give independent seeds."""
    return int(_sequence(seed, key).generate_state(1)[0])


def chunk_bounds(count: int, chunk: int = CHUNK) -> Iterator[Tuple[int, int, int]]:
    """Yield (chunk_index, start, stop) covering range(count)."""
    i = 0
    start = 0
    while start < count:
        stop = min(start + chunk, count)
        yield i, start, stop
        i += 1
        start = stop
