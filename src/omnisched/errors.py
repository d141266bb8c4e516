"""Error hierarchy with machine-readable kinds.

Every domain error carries a stable ``kind`` slug plus a context dict so the
CLI can emit structured error objects on stderr.
"""

from __future__ import annotations

from typing import Any


class OmniSchedError(Exception):
    """Base class for all domain errors."""

    kind = "error"

    def __init__(self, message: str, **context: Any):
        super().__init__(message)
        self.message = message
        self.context = context

    def to_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message, "context": self.context}


class TraceParseError(OmniSchedError):
    kind = "trace-parse"


class DuplicateIdError(OmniSchedError):
    kind = "duplicate-id"


class EmptyTraceError(OmniSchedError):
    kind = "empty-file"


class TraceNotFoundError(OmniSchedError):
    kind = "trace-not-found"


class InvalidSpecError(OmniSchedError):
    kind = "invalid-spec"


class OversizeSampleError(OmniSchedError):
    kind = "oversize-sample"


class TooFewUnitsError(OmniSchedError):
    kind = "too-few-units"


class TooFewLayersError(OmniSchedError):
    kind = "too-few-layers"


class EmptyMicrobatchError(OmniSchedError):
    kind = "empty-microbatch"


class RoutingError(OmniSchedError):
    kind = "routing"


class AllocatorError(OmniSchedError):
    kind = "allocator"


class ConfigError(OmniSchedError):
    kind = "invalid-config"


class OutputError(OmniSchedError):
    kind = "output"


class OutOfMemoryError(OmniSchedError):
    kind = "out-of-memory"


class WorkerDiedError(OmniSchedError):
    kind = "worker-died"
