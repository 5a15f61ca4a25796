"""Counter-based uniform stream (Philox4x64-10).

Each Monte-Carlo trial owns one 256-bit counter block, so any contiguous
slice of the trial range can be generated on its own; results never depend
on how the range is split across workers.
"""

from __future__ import annotations

import numpy as np

_SH11 = np.uint64(11)
_INV53 = 1.0 / float(1 << 53)
# blocks per random_raw call: their words take 128 KiB, so a whole chunk's
# words never sit in memory at once (one call for all 32768 blocks of a
# chunk raised the peak RSS of a 2-thread run by 0.8 to 3.3 MB), and the
# allocator hands the same memory back from one call to the next, where
# 256 KiB steps were returned to the system and faulted in again
_WORD_BLOCKS = 4096


def uniform_lanes(seed: int, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
    """Doubles in [0, 1) from output words 0, 1 and 2 of blocks [start, stop).

    Block b is numpy's Philox4x64-10 run with key (seed, 0) and counter b.
    Lane-major, shape (3, n): row k holds word k of every block; word 3 is
    not used. The three lanes are scaled from the words straight into
    `out` (a new array if None), which is returned; the generator runs on
    in steps of _WORD_BLOCKS blocks, which does not change the stream. Uses
    the top 53 bits of each word, so every value is exactly representable
    and strictly below 1.
    """
    # numpy.random is not loaded by `import numpy`; importing it here keeps
    # it off the package import path
    from numpy.random import Philox

    if stop < start:
        raise ValueError(f"inverted block range [{start}, {stop})")
    n = stop - start
    if out is None:
        out = np.empty((3, n))
    # the generator steps its counter before each block, so start one below
    gen = Philox(key=seed, counter=(start - 1) % 2 ** 256)
    for lo in range(0, n, _WORD_BLOCKS):
        hi = min(lo + _WORD_BLOCKS, n)
        words = gen.random_raw(4 * (hi - lo))
        np.right_shift(words, _SH11, out=words)
        # one pass for the three lanes; the 53-bit words convert to double
        # exactly, and the scale is a power of 2
        np.multiply(words.reshape(-1, 4)[:, :3].T, _INV53, out=out[:, lo:hi])
    return out
