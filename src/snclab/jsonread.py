"""The JSON typing rule of every reader, as README states it.  Each helper
returns the value it checked or raises the error class its caller passes.
A rational has at most MAX_DIGITS digits in its numerator and in its
denominator; a decimal exponent is checked before it is expanded."""

import re
from fractions import Fraction

MAX_DIGITS = 100  # per numerator and per denominator of a coordinate
_LIMIT = 10 ** MAX_DIGITS
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def expect_object(value, error, what: str, *required: str) -> dict:
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object")
    for key in required:
        if key not in value:
            raise error(f"{what} needs a {key!r} field")
    return value


def expect_list(value, error, what: str, item=None) -> list:
    """The list, or with `item` (another expect_*) the list of its checked entries."""
    if not isinstance(value, list):
        raise error(f"{what} must be a list")
    return value if item is None else [item(x, error, f"an entry of {what}") for x in value]


def expect_int(value, error, what: str) -> int:
    if type(value) is not int:
        raise error(f"{what} must be an integer, not {value!r}")
    return value


def _exponent_too_large(value) -> bool:
    """Whether value's decimal exponent alone gives a nonzero number more
    than MAX_DIGITS digits, found before Fraction expands the power of ten."""
    match = isinstance(value, str) and _EXPONENT.search(value)
    return bool(match) and abs(int(match[1])) > MAX_DIGITS + len(value.strip())


def expect_rational(value, error, what: str) -> Fraction:
    if type(value) is int or isinstance(value, str):
        try:
            number = None if _exponent_too_large(value) else Fraction(value)  # "0.1": 1/10
        except (ValueError, ZeroDivisionError):
            pass
        else:
            if number is not None and max(abs(number.numerator), number.denominator) < _LIMIT:
                return number
            raise error(f"{what} has more than {MAX_DIGITS} digits in numerator or denominator")
    raise error(f"{what} must be an integer or a rational string, not {value!r}")
