"""Exception hierarchy shared across the package.

Protocol-level failures raise subclasses of YodelError so callers can
distinguish them from programming errors; the decoder in particular promises
to raise nothing outside the CodecError branch on arbitrary input bytes.
"""

from __future__ import annotations

__all__ = [
    "YodelError",
    "MalformedYni",
    "CodecError",
    "TruncatedMessage",
    "UnknownKind",
    "DuplicateTlv",
    "LengthMismatch",
    "MalformedFloating",
    "InvariantViolation",
    "RootMismatch",
    "ModelError",
    "DuplicateName",
    "AccessDenied",
    "UnknownUser",
    "UnknownValley",
    "UnknownNamespace",
    "ControlError",
    "UnknownNode",
    "NoEligibleEdge",
    "UnknownFlow",
    "ServiceError",
    "ServiceForbidsSelfLock",
    "InvalidRole",
    "DataplaneError",
    "UncoverableNeighbor",
    "ScenarioError",
]


class YodelError(Exception):
    """Base class for every protocol-level error in this package."""


class MalformedYni(YodelError, ValueError):
    """Node-id text that does not parse back to 10 bytes."""


class CodecError(YodelError, ValueError):
    """Base class for every decode/encode failure; decode raises only these."""


class TruncatedMessage(CodecError):
    """Fewer bytes than the headers claim."""


class UnknownKind(CodecError):
    """Kind byte outside the assigned range."""


class DuplicateTlv(CodecError):
    """The same floating-header tag appeared twice."""


class LengthMismatch(CodecError):
    """Declared lengths disagree with the bytes present."""


class MalformedFloating(CodecError):
    """Unknown tag, non-canonical tag order, or a bad element body."""


class InvariantViolation(CodecError):
    """A field combination the wire contract forbids (e.g. a path tree on a
    data YPP kind)."""


class RootMismatch(YodelError):
    """A sync message arrived at a node that is not its path-tree root."""


class ModelError(YodelError):
    """Base class for tenancy/directory failures."""


class DuplicateName(ModelError):
    """Name already taken within its uniqueness scope."""


class AccessDenied(ModelError):
    """User lacks the right to see or join the target."""


class UnknownUser(ModelError):
    pass


class UnknownValley(ModelError):
    pass


class UnknownNamespace(ModelError):
    pass


class ControlError(YodelError):
    """Base class for controller-side failures."""


class UnknownNode(ControlError):
    pass


class NoEligibleEdge(ControlError):
    """Provisioning found no edge satisfying the request."""


class UnknownFlow(ControlError):
    pass


class ServiceError(YodelError):
    """Base class for service-model policy violations."""


class ServiceForbidsSelfLock(ServiceError):
    """Consumer self-locking is an anycast-family right only."""


class InvalidRole(ServiceError):
    """Role not offered by the community's service model."""


class DataplaneError(YodelError):
    pass


class UncoverableNeighbor(DataplaneError):
    """Strategy selection found a required neighbor with no strategy row."""

    def __init__(self, neighbors):
        self.neighbors = tuple(neighbors)
        super().__init__("no strategy covers: "
                         + ", ".join(str(y) for y in self.neighbors))


class ScenarioError(YodelError):
    """Topology or scenario file rejected, with file/line context."""

    def __init__(self, path: str, line: int, reason: str):
        self.path = path
        self.line = line
        self.reason = reason
        super().__init__(f"{path}:{line}: {reason}")
