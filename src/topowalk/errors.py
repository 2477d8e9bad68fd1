"""Exception types, and the integer and float rules, shared across the package."""

import numpy as np


class TopowalkError(Exception):
    """Base class for all package errors."""


class WindowOverflowError(TopowalkError):
    """Amplitude reached the lattice edge: the window is too small for the run."""


class NumericalError(TopowalkError):
    """A numerical contract was violated (norm drift, invalid density matrix, ...)."""


class ConfigError(TopowalkError):
    """A run configuration field failed validation."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"config field '{field}': {message}")


def as_integer(value, name: str) -> int:
    """value as an int; a bool, a string or a fractional number is a ValueError naming name."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_float(value, name: str) -> float:
    """value as a float; a bool or a string is a ValueError naming name, as in as_integer."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)
