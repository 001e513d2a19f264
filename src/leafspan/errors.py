"""Exception types shared across the package, and `require_int`.

Every package error is a `LeafspanError`.  A value from outside is checked
once, where it enters: `Digraph` checks an instance, `Branching` a parent
array, `max_leaves_packing` a packer's selection, `require_int` a count.
"""


class LeafspanError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(LeafspanError):
    """Vertex ids out of range, duplicate arcs, self-loops, or bad shapes."""


def require_int(name: str, value: object, least: int) -> None:
    """MalformedInput unless ``value`` is an int >= ``least``; by type(), so bools fail."""
    if type(value) is not int or value < least:
        raise MalformedInput(f"{name} must be an integer >= {least}, got {value!r:.20}")


class CycleDetected(LeafspanError):
    """The input digraph contains a directed cycle."""


class NotRooted(LeafspanError):
    """Some vertex is unreachable from the designated root."""


class IllegalExpansion(LeafspanError):
    """A packer selected a set it was not offered, or two sets that overlap."""


class PreconditionViolated(LeafspanError):
    """A solver phase was fed a branching it cannot legally extend."""


class TooLarge(LeafspanError):
    """Instance exceeds the guard of an exhaustive/exact routine."""


class ParseError(LeafspanError):
    """An instance or solution file failed to parse or validate."""
