"""Reference toss stream for ``simulation._block_heads``.

This is the draw as first written: a numpy ``Generator`` over Philox keyed
with (seed, block_index), asked for ``count`` integers in [0, 2) as uint8.
The raw-word reader must give exactly these tosses. Not collected by pytest
(no ``test_`` prefix).
"""

import numpy as np


def block_heads(seed, block_index, count):
    key = np.array([seed, block_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.integers(0, 2, size=count, dtype=np.uint8)
