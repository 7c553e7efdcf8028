"""Bit-manipulation and hashing utilities shared across the COBRA framework.

Hardware predictors operate on fixed-width bit vectors: folded histories,
partial tags, saturating counters.  These helpers keep that arithmetic in one
place so components stay readable and the bit-accurate behaviour is testable
in isolation.
"""

from __future__ import annotations

import functools


def mask(bits: int) -> int:
    """Return an all-ones mask of ``bits`` bits (``mask(3) == 0b111``)."""
    if bits < 0:
        raise ValueError(f"bit width must be non-negative, got {bits}")
    return (1 << bits) - 1


def truncate(value: int, bits: int) -> int:
    """Truncate ``value`` to its low ``bits`` bits."""
    return value & mask(bits)


@functools.lru_cache(maxsize=1 << 16)
def fold_history(history: int, history_bits: int, folded_bits: int) -> int:
    """Fold a ``history_bits``-wide history into ``folded_bits`` by XOR.

    This mirrors the cyclic-shift-register folding used by hardware TAGE
    implementations: the history is split into ``folded_bits``-wide chunks
    which are XORed together.  Folding a history into zero bits yields zero.
    (Cached: predictors re-fold the same history at predict and update
    time, exactly as a hardware circular-shift-register fold would hold it.)
    """
    if folded_bits <= 0:
        return 0
    history &= (1 << history_bits) - 1
    chunk_mask = (1 << folded_bits) - 1
    folded = 0
    while history:
        folded ^= history & chunk_mask
        history >>= folded_bits
    return folded


def hash_pc(pc: int, bits: int) -> int:
    """Hash a PC into ``bits`` bits.

    Uses a XOR of shifted copies, the standard cheap hardware PC hash, so
    nearby PCs map to distinct indices without a multiplier.
    """
    if bits <= 0:
        return 0
    h = pc ^ (pc >> bits) ^ (pc >> (2 * bits))
    return h & ((1 << bits) - 1)


def hash_combine(*values: int, bits: int) -> int:
    """Combine several values into a ``bits``-wide index by XOR."""
    h = 0
    for v in values:
        h ^= v
    return truncate(h, bits)


def saturating_update(counter: int, taken: bool, bits: int) -> int:
    """Advance a ``bits``-wide saturating counter toward taken/not-taken."""
    top = mask(bits)
    if taken:
        return counter + 1 if counter < top else top
    return counter - 1 if counter > 0 else 0


def counter_taken(counter: int, bits: int) -> bool:
    """Interpret a saturating counter's MSB as the taken prediction."""
    return bool(counter >> (bits - 1))


def counter_is_weak(counter: int, bits: int) -> bool:
    """True when the counter sits just either side of the decision boundary."""
    mid_hi = 1 << (bits - 1)
    return counter in (mid_hi, mid_hi - 1)


def sign_extend(value: int, bits: int) -> int:
    """Interpret the low ``bits`` bits of ``value`` as a signed integer."""
    value = truncate(value, bits)
    sign_bit = 1 << (bits - 1)
    return (value ^ sign_bit) - sign_bit


def shift_in(history: int, taken: bool, bits: int) -> int:
    """Shift one outcome into the LSB of a ``bits``-wide history register."""
    return ((history << 1) | int(taken)) & ((1 << bits) - 1)


def popcount(value: int) -> int:
    """Count set bits (portable across Python minor versions)."""
    return bin(value).count("1")


def is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def id_bits(count: int) -> int:
    """Bits that name one of ``count`` things (a lane, way, or table id); at least 1."""
    return max(1, (count - 1).bit_length())


def log2_exact(value: int) -> int:
    """Return log2 of an exact power of two, raising otherwise."""
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a power of two")
    return value.bit_length() - 1
