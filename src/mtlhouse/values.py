"""The number rules that configuration values are checked against.

A JSON ``true`` loads as a bool, which Python counts as an integer; a count,
seed or grid value must be a number proper, so bools are refused.
"""

import numbers


def is_integer(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)
