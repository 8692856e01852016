"""Exception types shared across the package, and the integer-argument rule
that ValidationError enforces.

The CLI maps ValidationError to exit code 2 and CapExceeded to exit code 3.
"""

import operator


class ValidationError(ValueError):
    """An input violates a documented precondition or format."""


class CapExceeded(RuntimeError):
    """A desk-scale enumeration cap was exceeded; caps are hard errors."""


class ImproperGraphError(ValidationError):
    """A grid graph has an edge passing through a vertex.

    ``violations`` lists (edge, vertex_index) pairs.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        shown = ", ".join(f"vertex {x} on edge {e}" for e, x in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"graph is not proper: {shown}{more}")


def is_integer(value) -> bool:
    """Whether `value` is an integer argument: it has __index__ and is not a
    bool (a float, a string or True is not)."""
    return hasattr(value, "__index__") and not isinstance(value, bool)


def as_integer(value, name: str) -> int:
    """`value` as an int; ValidationError naming `name` unless is_integer."""
    if not is_integer(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)
