"""Exception types shared across the package."""


class NuLabError(Exception):
    """Base class for all package errors."""


class LoopRejected(NuLabError):
    """An edge with identical endpoints was supplied; loops are not modeled."""


class IndexOutOfRange(NuLabError):
    """A vertex or edge identifier is outside the valid range."""


class NotCubic(NuLabError):
    pass


class NotPerfect(NuLabError):
    pass


class NoTwoFactor(NuLabError):
    """The cubic graph has no perfect matching, hence no 2-factor split."""


class NotAForest(NuLabError):
    pass


class NotUnicyclic(NuLabError):
    pass


class NotABridge(NuLabError):
    pass


class DeficiencyUndefined(NuLabError):
    """No removal of cycle edges can make the rest k-edge-colorable."""


class MalformedGraph6(NuLabError):
    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class MalformedSparse6(NuLabError):
    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class SinkWriteError(NuLabError):
    pass


class NotInClass(NuLabError):
    """Input graph fails a structural precondition; the message names it."""


class BadParameter(NuLabError, ValueError):
    """A parameter is out of its valid range (also a ValueError)."""


class UnknownFamily(NuLabError):
    pass


class MissingProfileField(NuLabError):
    """A rule is applicable but the profile lacks a value it needs."""


class TooLarge(NuLabError):
    """Instance exceeds the size cap of the exhaustive oracle, or a
    search would recurse deeper than the interpreter allows."""
