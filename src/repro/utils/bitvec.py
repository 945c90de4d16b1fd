"""Bit-vector helpers shared by behavioural adder models and the RTL substrate.

All functions operate either on plain Python ints (arbitrary precision) or on
NumPy integer arrays; the array paths are fully vectorised so Monte-Carlo
error simulation over millions of operand pairs stays fast.

Bit indexing convention: bit 0 is the least significant bit, matching the
paper's ``A[L-1:0]`` Verilog-style slices.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

IntLike = Union[int, np.ndarray]


def mask(width: int) -> int:
    """Return an all-ones mask of ``width`` bits (``width`` may be 0)."""
    if width < 0:
        raise ValueError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def bit_length_of(value: int) -> int:
    """Number of bits needed to represent ``value`` (at least 1)."""
    if value < 0:
        raise ValueError("bit_length_of is defined for non-negative ints")
    return max(1, int(value).bit_length())


def bits_of(value: IntLike, width: int) -> Union[List[int], np.ndarray]:
    """Explode ``value`` into ``width`` bits, LSB first.

    For a scalar int, returns a list of 0/1 ints.  For a NumPy array of shape
    ``(...,)`` returns an array of shape ``(..., width)``.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if isinstance(value, np.ndarray):
        shifts = np.arange(width, dtype=value.dtype)
        return (value[..., None] >> shifts) & 1
    return [(int(value) >> i) & 1 for i in range(width)]


def from_bits(bits: Sequence[int]) -> int:
    """Inverse of :func:`bits_of` for scalar bit lists (LSB first)."""
    result = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"bit {i} is {b!r}, expected 0 or 1")
        result |= b << i
    return result


def bit_slice(value: IntLike, high: int, low: int) -> IntLike:
    """Verilog-style slice ``value[high:low]`` (both bounds inclusive)."""
    if low < 0 or high < low:
        raise ValueError(f"invalid slice [{high}:{low}]")
    width = high - low + 1
    return (value >> low) & mask(width)


def concat_fields(fields: Iterable[Tuple[IntLike, int]]) -> IntLike:
    """Concatenate ``(value, width)`` fields, first field at the LSB end.

    Each value is masked to its width before packing, so callers may pass
    values with stray high bits.
    """
    result: IntLike = 0
    offset = 0
    for value, width in fields:
        if width < 0:
            raise ValueError(f"field width must be non-negative, got {width}")
        result = result | ((value & mask(width)) << offset)
        offset += width
    return result


_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def popcount(value: IntLike) -> IntLike:
    """Population count for scalar ints or NumPy arrays.

    Arrays are counted as 64-bit words (negative int64 values by their
    two's-complement pattern) with the branch-free SWAR reduction: pair,
    nibble and byte partial sums, then one multiply gathers the byte
    counts into the top byte.  Returns int64 counts of the input's shape.
    """
    if isinstance(value, np.ndarray):
        v = value.astype(np.uint64)
        t = v >> np.uint64(1)
        t &= _M1
        v -= t
        t = v >> np.uint64(2)
        t &= _M2
        v &= _M2
        v += t
        t = v >> np.uint64(4)
        v += t
        v &= _M4
        v *= _H01
        v >>= np.uint64(56)
        return v.view(np.int64)
    return int(value).bit_count() if hasattr(int, "bit_count") else bin(int(value)).count("1")


def to_unsigned(value: int, width: int) -> int:
    """Two's-complement encode a signed ``value`` into ``width`` bits."""
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    if not lo <= value <= hi:
        raise ValueError(f"{value} does not fit in {width} signed bits")
    return value & mask(width)


def to_signed(value: int, width: int) -> int:
    """Interpret the ``width``-bit pattern ``value`` as two's complement."""
    value &= mask(width)
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def generate_propagate_kill(a: IntLike, b: IntLike) -> Tuple[IntLike, IntLike, IntLike]:
    """Return bitwise (generate, propagate, kill) signals for operands.

    generate = a & b, propagate = a ^ b, kill = ~a & ~b (per used bit).
    Works on scalars and arrays alike; kill is returned unmasked for scalars,
    so callers should mask to the operand width when they need it.
    """
    g = a & b
    p = a ^ b
    k = ~(a | b)
    return g, p, k


def carry_into(a: IntLike, b: IntLike, position: int, carry_in: IntLike = 0) -> IntLike:
    """Exact carry entering bit ``position`` of the addition ``a + b + carry_in``.

    ``position`` 0 returns ``carry_in`` itself.  Vectorised over arrays.
    """
    if position < 0:
        raise ValueError(f"position must be non-negative, got {position}")
    if position == 0:
        return carry_in if isinstance(carry_in, np.ndarray) else int(carry_in)
    m = mask(position)
    total = (a & m) + (b & m) + carry_in
    return (total >> position) & 1


def carry_chain_lengths(a: int, b: int, width: int, carry_in: int = 0) -> List[int]:
    """Lengths of every maximal carry-propagation chain in ``a + b``.

    A chain starts at a bit that *generates* a carry (or at bit 0 when
    ``carry_in`` is set) and extends through consecutive *propagate* bits.
    Returns possibly-empty list of chain lengths (generate bit included).
    """
    g, p, _ = generate_propagate_kill(a, b)
    chains: List[int] = []
    # An incoming carry behaves like a generate just below bit 0.
    current = 1 if carry_in else 0
    for i in range(width):
        gi = (g >> i) & 1
        pi = (p >> i) & 1
        if gi:
            if current:
                chains.append(current)
            current = 1
        elif pi and current:
            current += 1
        else:
            if current:
                chains.append(current)
            current = 0
    if current:
        chains.append(current)
    return chains


def longest_carry_chain(a: IntLike, b: IntLike, width: int) -> IntLike:
    """Longest carry-propagation chain length in ``a + b`` over ``width`` bits.

    This is the classic quantity motivating approximate adders: the exact
    N-bit sum is produced by an adder whose carry window covers the longest
    generate-then-propagate run.  Vectorised over NumPy arrays.

    The chain counts the generating bit plus every consecutive propagating
    bit above it.
    """
    g = a & b
    p = a ^ b
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        g = np.asarray(g)
        p = np.asarray(p)
        best = np.zeros(np.broadcast(g, p).shape, dtype=np.int64)
        run = np.zeros_like(best)
        for i in range(width):
            gi = (g >> i) & 1
            pi = (p >> i) & 1
            run = np.where(gi == 1, 1, np.where((pi == 1) & (run > 0), run + 1, 0))
            best = np.maximum(best, run)
        return best
    best = 0
    run = 0
    for i in range(width):
        gi = (g >> i) & 1
        pi = (p >> i) & 1
        if gi:
            run = 1
        elif pi and run > 0:
            run += 1
        else:
            run = 0
        best = max(best, run)
    return best
