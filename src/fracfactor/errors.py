"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid caller input: bad vertices, malformed files, bad parameters."""


class ResourceLimitError(RuntimeError):
    """A routine was asked to exceed a fixed cap: an exponential run or an input order."""


class ConstructionError(RuntimeError):
    """A generated extremal graph failed one of its structural self-checks."""
