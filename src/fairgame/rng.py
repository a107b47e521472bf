"""SplitMix64: a small, portable, seedable 64-bit generator.

Used for every randomized decision in instance generation and mutation so
that corpora are reproducible bit-for-bit across platforms. The algorithm is
the public-domain SplitMix64 finalizer (gamma 0x9e3779b97f4a7c15).
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform draw from [0, bound) by rejection, bound >= 1."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        # largest multiple of bound that fits in 64 bits
        limit = (MASK64 + 1) - ((MASK64 + 1) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def sample(self, n: int, k: int) -> list:
        """The first min(k, n) entries of a partial Fisher-Yates shuffle of range(n);
        a dict holds the displaced ones. A larger k from the same state extends
        the same picks, which makes liveness mutation monotone in alpha."""
        moved = {}
        picks = []
        for i in range(min(k, n - 1)):
            j = i + self.below(n - i)
            picks.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        if 0 < n <= k:  # the shuffle leaves the last entry in place
            picks.append(moved.get(n - 1, n - 1))
        return picks


def derive_seed(master: int, salt: int) -> int:
    """Independent stream for (master, salt): one extra mixing round."""
    g = SplitMix64((master ^ (salt * 0x9E3779B97F4A7C15)) & MASK64)
    return g.next_u64()
