"""Reference toss streams for ``simulation._draws``.

``block_heads`` is the draw as first written: a numpy ``Generator`` over
Philox keyed with (seed, block_index), asked for ``count`` integers in [0, 2)
as uint8. ``philox_words`` is Philox4x64-10 itself in pure Python, from its
published definition (Salmon, Moraes, Dror and Shaw, "Parallel random
numbers: as easy as 1, 2, 3", SC'11), so the toss contract is also checked
against the algorithm rather than against numpy alone. The raw-word reader
must agree with both. Only ``block_heads`` needs numpy, so ``philox_heads``
also runs where numpy is absent. Not collected by pytest (no ``test_`` prefix).
"""

_MASK = 2**64 - 1
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # key schedule (Weyl) increments


def block_heads(seed, block_index, count):
    import numpy as np

    key = np.array([seed, block_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.integers(0, 2, size=count, dtype=np.uint8)


def philox_words(key, count):
    """The first ``count`` 64-bit outputs of Philox4x64-10 under the 128-bit
    ``key`` (k0, k1): four words per counter value, the 256-bit counter
    starting at 1 as numpy's ``Philox(key=...).random_raw`` does."""
    words = []
    for ctr in range(1, -(-count // 4) + 1):
        c0, c1, c2, c3 = ((ctr >> (64 * i)) & _MASK for i in range(4))
        k0, k1 = key
        for _ in range(10):
            p0, p1 = _M0 * c0, _M1 * c2
            c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK
            k0, k1 = (k0 + _W0) & _MASK, (k1 + _W1) & _MASK
        words += [c0, c1, c2, c3]
    return words[:count]


def philox_heads(seed, block_index, count):
    """Toss i of a block: the top bit of byte i of the little-endian words."""
    words = philox_words((seed, block_index), -(-count // 8))
    return [(w >> (8 * k + 7)) & 1 for w in words for k in range(8)][:count]
