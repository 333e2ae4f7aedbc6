"""Bit-size accounting for the GOSSIP message-size model.

The paper states message sizes in bits: labels cost ``ceil(log2 n)`` bits,
votes live in ``[m] = [n^3]`` and cost ``3 * ceil(log2 n)`` bits, and the
winning certificate (which carries Theta(log n) votes) costs
``O(log^2 n)`` bits.  These helpers centralise those conversions so every
payload class computes its size the same way.
"""

from __future__ import annotations

import math

__all__ = [
    "MAX_KEY_N",
    "bits_for_range",
    "check_key_n",
    "label_bits",
    "vote_bits",
    "color_bits",
    "round_index_bits",
]

#: The largest agent count the exact int64 keys admit: a key packs a
#: value below ``n^3`` with a label as ``value * n + label < n^4``, and
#: ``n^4 < 2^62`` means ``n^2 < 2^31``.
MAX_KEY_N = 46340


def check_key_n(n: int, key: str) -> None:
    """Raise ``ValueError``, naming the limit, if ``n`` overflows ``key``."""
    if n > MAX_KEY_N:
        raise ValueError(
            f"n={n} too large for the int64 {key} key: n must be at "
            f"most {MAX_KEY_N} (n**4 < 2**62)"
        )


def bits_for_range(size: int) -> int:
    """Bits needed to encode one value from a domain of ``size`` elements.

    ``bits_for_range(1) == 1`` by convention (a field is never free).
    """
    if size < 1:
        raise ValueError(f"domain size must be >= 1, got {size}")
    return max(1, math.ceil(math.log2(size))) if size > 1 else 1


def label_bits(n: int) -> int:
    """Bits for an agent label in ``[n]``."""
    return bits_for_range(n)


def vote_bits(m: int) -> int:
    """Bits for a vote value in ``[m]`` (the paper uses ``m = n^3``)."""
    return bits_for_range(m)


def color_bits(num_colors: int) -> int:
    """Bits for a color from a palette of ``num_colors``."""
    return bits_for_range(num_colors)


def round_index_bits(q: int) -> int:
    """Bits for a round index within a phase of ``q`` rounds."""
    return bits_for_range(q)
