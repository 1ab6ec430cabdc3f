"""Exception types shared across the package, and the one integer check
(as_int, and as_ints for a list of them).

Two failure families matter to callers (and to the CLI exit-code mapping):
malformed input versus a computation whose internal consistency checks
failed.  Everything derives from LatcohError so `except LatcohError` catches
both.
"""
from collections.abc import Iterable


class LatcohError(Exception):
    pass


class InputError(LatcohError):
    """Malformed or out-of-contract input (bad JSON, empty generator list...)."""


class ValidationError(LatcohError):
    """An internal consistency check failed on structurally valid input."""


def as_int(x, where):
    """x itself when it is an int (bools excluded), else InputError naming where."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError("%s: expected an integer, got %r" % (where, x))
    return x


def as_ints(value, where, shape_error):
    """The entries of a non-string iterable as a tuple, each checked by as_int.

    A string or a non-iterable value raises InputError(shape_error).
    """
    if isinstance(value, str) or not isinstance(value, Iterable):
        raise InputError(shape_error)
    return tuple(as_int(x, where) for x in value)
