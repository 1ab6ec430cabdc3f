"""Exception types shared across the package, and the one integer check.

Two failure families matter to callers (and to the CLI exit-code mapping):
malformed input versus a computation whose internal consistency checks
failed.  Everything derives from LatcohError so `except LatcohError` catches
both.
"""


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
