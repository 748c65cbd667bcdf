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

A block of keys is keyed at once: when a key part is a 1-D integer
array or a range (array parts broadcast against each other), the key
stands for one key per element, substream returns a StreamBlock and
key_seed an int64 array.  A key's stream is a pure function of the key,
as in counter-based generators, so the block is hashed in one pass:
numpy's SeedSequence hash (pool mixing, then generate_state) runs in
uint32 numpy arithmetic over the whole block, and PCG64 is seeded from
the hashed words by assigning its state, inc = 2 initseq + 1 and state =
(inc + initstate) MULT + inc mod 2^128.  The draws still come from
numpy's own PCG64, one bit generator per block, so stream i of a block
is the generator substream gives for key i alone, bit for bit.  A key
with no array part is the block's one-key case and is hashed by numpy's
SeedSequence itself: about 20 us, where a block pays about 100 us of
numpy calls whatever its size.

key_seed is one 32-bit word, so T trials keyed by it (seed, n, t) repeat
a trial seed, and with it the whole trial, in about T^2 / 2^33 pairs
(the birthday bound): one expected pair at T = 93,000, about 4.7 at
200,000.  The tail and detconc summaries count them (seed_repeats).

Long draw streams are split into fixed-size chunks; the value at index i
depends only on (seed, i // CHUNK, position inside the chunk), so chunked
parallel generation matches serial generation exactly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterator, List, Sequence, Tuple, TypeVar, Union

import numpy as np

CHUNK = 1024

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of
# four uint32 words, hash constants INIT * MULT^i and 16-bit shifts
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
# the multiplier of PCG64's 128-bit LCG
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

Part = Union[int, np.integer, range, Sequence[int], np.ndarray]
R = TypeVar("R")


def _sequence(parts) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(p) for p in parts])


def _is_block(parts) -> bool:
    return not all(isinstance(p, (int, np.integer)) for p in parts)


def substream(seed: Part, *key: Part) -> Union[np.random.Generator, "StreamBlock"]:
    """Independent generator for the integer key (seed, *key); for a block
    of keys (a part an integer array or range), their StreamBlock."""
    parts = (seed, *key)
    if not _is_block(parts):
        return np.random.default_rng(_sequence(parts))
    words = _block_state(parts, 8)
    # generate_state(4, np.uint64): the words in little-endian pairs
    return StreamBlock(np.ascontiguousarray(words.T, dtype="<u4").view("<u8"))


def key_seed(seed: Part, *key: Part) -> Union[int, np.ndarray]:
    """One integer seed for the key (seed, *key): the first word of its
    SeedSequence state, so distinct keys give independent seeds; for a
    block of keys, their seeds as an int64 array."""
    parts = (seed, *key)
    if not _is_block(parts):
        return int(_sequence(parts).generate_state(1)[0])
    return _block_state(parts, 1)[0].astype(np.int64)


class StreamBlock:
    """The streams of a block of keys, in key order: stream i draws what
    substream gives for key i alone.  Draws go through one PCG64 of the
    block's own, set to each key's state in turn, so a block is drawn from
    by one thread at a time; a slice is a block with a generator of its
    own."""

    def __init__(self, states: np.ndarray):
        # (T, 4) words of generate_state(4, np.uint64): initstate and
        # initseq, high word first
        self._states = states
        self._gen = None

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, index: slice) -> "StreamBlock":
        return StreamBlock(self._states[index])

    def __iter__(self) -> Iterator[np.random.Generator]:
        """The block's generator, set to each key's stream in turn: it
        moves to the next stream when the next one is asked for, so a
        caller must be done with it by then."""
        if self._gen is None:
            self._gen = np.random.Generator(np.random.PCG64(0))
        bits = self._gen.bit_generator
        for s_hi, s_lo, q_hi, q_lo in self._states.tolist():
            inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            yield self._gen

    def random(self, size) -> np.ndarray:
        """A (T, *size) stack: row i is stream i's random(size)."""
        shape = (size,) if np.ndim(size) == 0 else tuple(size)
        out = np.empty((len(self),) + shape)
        for gen, row in zip(self, out):
            gen.random(out=row)
        return out

    def map(self, draw: Callable[[np.random.Generator], R]) -> List[R]:
        """draw(generator of stream i) for each stream in turn; the
        generator moves to the next stream when draw returns, so draw must
        not keep it."""
        return [draw(gen) for gen in self]


# ---------------------------------------------------------------------------
# the SeedSequence hash over a block of keys


@lru_cache(maxsize=None)
def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^i mod 2^32 for i < count, as a uint32 column."""
    out, c = [], init
    for _ in range(count):
        out.append(c)
        c = c * mult & 0xFFFFFFFF
    col = np.array(out, dtype=np.uint32).reshape(count, 1)
    col.flags.writeable = False
    return col


def _hashmix(words: np.ndarray, consts: np.ndarray, i: int, count: int) -> np.ndarray:
    """numpy's hashmix of `count` word rows (or one row broadcast), row k
    with hash constant i + k: xor it, multiply by the next, fold the high
    half into the low."""
    h = words ^ consts[i:i + count]
    h *= consts[i + 1:i + count + 1]
    h ^= h >> _SHIFT
    return h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L
    r -= y * _MIX_R
    r ^= r >> _SHIFT
    return r


def _block_state(parts: Tuple[Part, ...], words: int) -> np.ndarray:
    """SeedSequence(list(key)).generate_state(words) for each key of the
    block, as a (words, T) uint32 array."""
    entropy, lengths = _entropy(parts)
    # hashes: 4 to fill the pool, 12 to mix it, 4 per word past it
    a = _constants(_INIT_A, _MULT_A, 4 * len(entropy) + 1)
    pool = _hashmix(entropy[:_POOL], a, 0, _POOL)
    i = _POOL
    for src in range(_POOL):            # every pool word into every other
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src:src + 1], a, i, _POOL - 1))
        i += _POOL - 1
    for r in range(_POOL, len(entropy)):    # words past the pool, key by key
        mixed = _mix(pool, _hashmix(entropy[r:r + 1], a, i, _POOL))
        pool = np.where(lengths > r, mixed, pool)
        i += _POOL
    b = _constants(_INIT_B, _MULT_B, words + 1)
    return _hashmix(pool[np.arange(words) % _POOL], b, 0, words)


def _words(value: int) -> List[int]:
    """numpy's uint32 words of a non-negative int, little-endian; 0 is one word."""
    if value < 0:
        raise ValueError(f"key parts must be non-negative, got {value}")
    out = [value & 0xFFFFFFFF]
    while value >> 32:
        value >>= 32
        out.append(value & 0xFFFFFFFF)
    return out


def _array_part(part) -> np.ndarray:
    """An array key part as uint64; ValueError unless it is 1-D, integer
    and non-negative."""
    if isinstance(part, range):
        if len(part) and min(part[0], part[-1]) < 0:
            raise ValueError(f"key parts must be non-negative, got {part}")
        return np.arange(part.start, part.stop, part.step, dtype=np.int64).astype(np.uint64)
    arr = np.asarray(part)
    if arr.size == 0 and arr.ndim == 1:
        return np.zeros(0, dtype=np.uint64)
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        raise ValueError(f"a key part must be an integer or a 1-D integer array, got {arr.dtype}")
    if arr.dtype.kind == "i" and arr.min() < 0:
        raise ValueError("key parts must be non-negative")
    return arr.astype(np.uint64)


def _entropy(parts: Tuple[Part, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """The keys of a block as SeedSequence reads them, each part's words
    after the other's: an (L, T) uint32 array, key i in column i padded
    with zeros to L >= 4 words (short keys hash as if so padded), and the
    word count of each key."""
    arrays = iter(np.broadcast_arrays(*[_array_part(p) for p in parts
                                        if not isinstance(p, (int, np.integer))]))
    split = []          # per part: low words, high words, wide mask (None, None for an int)
    for p in parts:
        if isinstance(p, (int, np.integer)):
            split.append((_words(int(p)), None, None))
        else:
            v = next(arrays)
            wide = (v >> np.uint64(32)) > 0
            split.append((v.astype(np.uint32), (v >> np.uint64(32)).astype(np.uint32), wide))
    count = len(v)
    lengths = np.zeros(count, dtype=np.int64)
    for low, _, wide in split:
        lengths += len(low) if wide is None else 1 + wide
    entropy = np.zeros((max(_POOL, int(lengths.max(initial=0))), count), dtype=np.uint32)
    cols = np.arange(count)
    at = np.zeros(count, dtype=np.int64)
    for low, high, wide in split:
        if wide is None:
            for j, w in enumerate(low):
                entropy[at + j, cols] = w
            at += len(low)
        else:
            entropy[at, cols] = low
            entropy[at[wide] + 1, cols[wide]] = high[wide]
            at += 1 + wide
    return entropy, lengths


def chunk_bounds(count: int, chunk: int = CHUNK) -> Iterator[Tuple[int, int, int]]:
    """Yield (chunk_index, start, stop) covering range(count)."""
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk!r}")
    i = 0
    start = 0
    while start < count:
        stop = min(start + chunk, count)
        yield i, start, stop
        i += 1
        start = stop
