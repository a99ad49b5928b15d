"""Bit-packed subsets of the point space F_q^n.

Membership lives in a single Python int: bit i is point index i, so unions
and intersections are bitwise ops and cardinality is a popcount.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .field import check_space


@dataclass(frozen=True)
class PointSet:
    """An immutable subset E of F_q^n addressed by point index."""

    q: int
    n: int
    bits: int

    def __post_init__(self) -> None:
        total = check_space(self.q, self.n)
        if self.bits < 0 or self.bits.bit_length() > total:
            raise ValueError("membership bits out of range for the point space")

    @property
    def universe(self) -> int:
        return self.q**self.n

    @cached_property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def contains(self, index: int) -> bool:
        if not 0 <= index < self.universe:
            raise ValueError(f"point index {index} out of range")
        return bool(self.bits >> index & 1)

    def indices(self) -> Iterator[int]:
        """Yield member point indices in increasing order."""
        # one pass over the binary digits, lowest first (clearing one bit at
        # a time would copy the whole int per member)
        for i, digit in enumerate(bin(self.bits)[:1:-1]):
            if digit == "1":
                yield i

    def bits_hex(self) -> str:
        """Lowercase hex of the membership array, LSB = point index 0."""
        width = (self.universe + 3) // 4
        return format(self.bits, f"0{width}x")

    @classmethod
    def empty(cls, q: int, n: int) -> "PointSet":
        return cls(q, n, 0)

    @classmethod
    def full(cls, q: int, n: int) -> "PointSet":
        return cls(q, n, (1 << q**n) - 1)

    @classmethod
    def from_indices(cls, q: int, n: int, indices) -> "PointSet":
        total = q**n
        bits = 0
        for i in indices:
            if not 0 <= i < total:
                raise ValueError(f"point index {i} out of range")
            bits |= 1 << i
        return cls(q, n, bits)
