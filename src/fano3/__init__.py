"""Exact intersection arithmetic and enumeration for Fano threefold classification.

Everything is computed over exact rationals; no floats anywhere.
"""
