"""Exact intersection arithmetic and enumeration for Fano threefold classification.

Everything is computed over exact rationals; no floats anywhere.
"""


def as_int(value, name: str) -> int:
    """value as an int, or a ValueError where int() would change it: 2.0 is 2, 7.5 and "7" raise."""
    n = int(value)
    if n != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return n
