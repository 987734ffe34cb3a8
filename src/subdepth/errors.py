"""Exception hierarchy shared across the package."""


class SubdepthError(Exception):
    """Base class for all errors raised by this package."""


class CycleParseError(SubdepthError, ValueError):
    """Malformed cycle notation or family spec, repeated point, or point out of range."""


class EnumerationCapExceeded(SubdepthError):
    """A group above the element cap: its enumeration hit the cap before
    closing, or its order, worked out from the orders of its parts, exceeds it.

    ``partial_count`` holds the number of distinct elements found so far, or,
    with ``counted=False``, that order or a lower bound on it, which the
    message then names as such.
    """

    def __init__(self, cap, partial_count, *, counted=True):
        self.cap = cap
        self.partial_count = partial_count
        detail = (f"{partial_count} elements found, closure incomplete" if counted
                  else f"the group order is at least {partial_count}")
        super().__init__(f"enumeration cap {cap} exceeded ({detail})")


class DegreeCapExceeded(SubdepthError):
    """A permutation degree above the element cap, refused before any
    permutation is built: every element holds one image per point."""

    def __init__(self, cap, degree):
        self.cap = cap
        self.degree = degree
        super().__init__(f"degree {degree} exceeds the element cap {cap}")


class NotASubgroupError(SubdepthError, ValueError):
    """An operation that needs H <= G was handed something else."""


class GroupMismatchError(SubdepthError, ValueError):
    """Two class functions (or tables) do not live on the same group."""


class NotACharacterError(SubdepthError, ValueError):
    """A class function failed to decompose with nonnegative integer multiplicities."""


class TableConsistencyError(SubdepthError):
    """A character table failed an exact check.

    For a computed table this signals a bug in the producing code path, so it
    is raised loudly instead of being returned; for a table read by
    ``table_from_obj`` it means the object is malformed or was tampered with.
    """


class InternalConsistencyError(SubdepthError):
    """Two independent computations of the same quantity disagreed."""


class CriterionMismatchError(InternalConsistencyError):
    """The matrix depth criterion and the character-distance criteria disagreed."""
