"""Exact intersection arithmetic and enumeration for Fano threefold classification.

Everything is computed over exact rationals; no floats anywhere.
"""


def as_int(value, name: str) -> int:
    """value as an int, or a ValueError where int() would change it or fails:
    2.0 is 2, 7.5, "7", "", None, nan and inf raise."""
    try:
        if (n := int(value)) == value:
            return n
    except (TypeError, ValueError, OverflowError):  # int(None), int("") and int(nan), int(inf)
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")
