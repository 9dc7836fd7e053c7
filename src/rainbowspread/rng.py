"""Counter-based, splittable 64-bit random number generator.

Every draw is a pure function of (master_seed, stream_id, counter), so
parallel Monte Carlo trials can each open their own stream (stream_id =
trial index) and reproduce byte-identical results on any platform and
with any worker count.  The mixing function is the SplitMix64 finalizer;
test vectors are frozen in tests/test_rng.py.

Because a draw depends on nothing but its stream key and counter, the
array forms below (`mix64_array`, `child_keys`, `stream_draws`) compute
the draws of many streams at once as uint64 operations, bit for bit the
values the scalar methods return.  They import numpy when called, so
importing the package stays free of it.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15
_STREAM_SALT = 0x1F123BB5159A55E5


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective 64-bit mixer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def mix64_array(z):
    """mix64 of every element of a uint64 array (products wrap mod 2**64)."""
    import numpy as np

    z = z ^ (z >> np.uint64(30))
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def child_keys(key: int, stream_ids):
    """RngStream(key, t).key for each stream id t, as a uint64 array."""
    import numpy as np

    ids = np.asarray(stream_ids, dtype=np.uint64) + np.uint64(_STREAM_SALT)
    return mix64_array(ids) ^ np.uint64(mix64(key))


def stream_draws(keys, count: int):
    """(len(keys), count) uint64 array: row k holds the first `count`
    next_u64() values of the stream whose key is keys[k]."""
    import numpy as np

    # in place, the steps released before the mix: three arrays of draws
    # at most, where numpy reuses a temporary by itself only above 256 KiB
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_PHI)
    z = keys[:, None] + z
    return mix64_array(z)


def accept_limits(moduli):
    """Largest draw that randrange(m) accepts, per modulus m, as uint64.

    randrange accepts v < (2**64 // m) * m, which is 2**64 for a power of
    two m, one past what uint64 holds; so the limit is kept as the bound
    minus 1, 2**64 - 1 - (2**64 % m), in uint64 arithmetic on the moduli.
    """
    import numpy as np

    try:
        m = np.asarray(moduli, dtype=np.uint64)
    except OverflowError:  # a modulus below 0 or above 2**64 - 1
        m = None
    if m is None or not m.all():
        raise ValueError("array draws need 1 <= n < 2**64")
    return _MASK - (_MASK % m + 1) % m


class RngStream:
    """One stream of a keyed counter-based generator.

    The stream key is derived from (master_seed, stream_id); output i is
    mix64(key + (i+1)*PHI).  Streams with distinct ids are statistically
    independent for practical purposes.
    """

    __slots__ = ("master_seed", "stream_id", "key", "counter")

    def __init__(self, master_seed: int, stream_id: int = 0):
        for what, value in (("seed", master_seed), ("stream id", stream_id)):
            if not 0 <= value <= _MASK:
                raise ValueError(f"{what} {value} is outside [0, 2**64)")
        self.master_seed, self.stream_id = master_seed, stream_id
        self.key = mix64(master_seed) ^ mix64((stream_id + _STREAM_SALT) & _MASK)
        self.counter = 0

    def child(self, stream_id: int) -> "RngStream":
        """Derive a new stream keyed off this stream's identity."""
        return RngStream(self.key, stream_id)

    def next_u64(self) -> int:
        self.counter += 1
        return mix64((self.key + self.counter * _PHI) & _MASK)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if not 1 <= n <= _MASK + 1:  # above 2**64 every 64-bit draw is rejected
            raise ValueError(f"randrange needs 1 <= n <= 2**64, got n={n}")
        threshold = ((_MASK + 1) // n) * n
        while True:
            v = self.next_u64()
            if v < threshold:
                return v % n

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b] inclusive."""
        return a + self.randrange(b - a + 1)

    def bernoulli(self, p: float) -> bool:
        return self.random() < p

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates permutation of range(n)."""
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.randrange(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct values from range(n), order discarded (sorted)."""
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        # partial Fisher-Yates on a sparse representation
        picked = {}
        out = []
        for i in range(k):
            j = i + self.randrange(n - i)
            out.append(picked.get(j, j))
            picked[j] = picked.get(i, i)
        out.sort()
        return out


def round_half_up(x: float) -> int:
    """Nearest integer, ties rounded up (schedule sizes like N*rho)."""
    import math

    return math.floor(x + 0.5)
