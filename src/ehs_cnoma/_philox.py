"""Counter-based uniform stream (Philox4x64-10).

Each Monte-Carlo trial owns one 256-bit counter block, so any contiguous
slice of the trial range can be generated on its own; results never depend
on how the range is split across workers.
"""

from __future__ import annotations

import numpy as np

_SH11 = np.uint64(11)
_INV53 = 1.0 / float(1 << 53)


def uniform_lanes(seed: int, start: int, stop: int) -> np.ndarray:
    """Doubles in [0, 1) from output words 0, 1 and 2 of blocks [start, stop).

    Block b is numpy's Philox4x64-10 run with key (seed, 0) and counter b.
    Shape (n, 3); word 3 is not used. Uses the top 53 bits of each word, so
    every value is exactly representable and strictly below 1.
    """
    # numpy.random is not loaded by `import numpy`; importing it here keeps
    # it off the package import path
    from numpy.random import Philox

    if stop < start:
        raise ValueError(f"empty or inverted block range [{start}, {stop})")
    n = stop - start
    # the generator steps its counter before each block, so start one below
    gen = Philox(key=seed, counter=(start - 1) % 2 ** 256)
    words = gen.random_raw(4 * n).reshape(n, 4)[:, :3]
    return (words >> _SH11).astype(np.float64) * _INV53
