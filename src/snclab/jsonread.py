"""The JSON typing rule of every reader, as README states it.  Each helper
returns the value it checked or raises the error class its caller passes."""

from fractions import Fraction


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


def expect_rational(value, error, what: str) -> Fraction:
    if type(value) is int or isinstance(value, str):
        try:
            return Fraction(value)  # exact: "0.1" is 1/10
        except (ValueError, ZeroDivisionError):
            pass
    raise error(f"{what} must be an integer or a rational string, not {value!r}")
