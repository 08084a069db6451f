"""Typed error taxonomy for the serving stack.

Every way a request can fail to produce a normal answer has a named class
here, so callers (and the loadgen's outcome accounting) can distinguish
*shed* (admission said no), *failed* (the backend gave up), and
*infrastructure* (the gateway itself broke) without string-matching.
"""

from __future__ import annotations


class GatewayError(RuntimeError):
    """Base class for gateway admission rejections and serving failures."""


class Overloaded(GatewayError):
    """The admission queue is at ``max_queue_depth``: request shed.

    Load shedding, not failure — the requests already admitted keep their
    latency budget; this caller should back off and retry.
    """


class RateLimited(GatewayError):
    """The tenant's token bucket is empty: request rejected at admission."""


class GatewayClosed(GatewayError):
    """Submitted after :meth:`ServingGateway.close` began."""


class DeadlineExceeded(GatewayError):
    """The request's deadline passed before its batch ran.

    Raised at flush time, not admission time: a request that waited out its
    deadline in the queue is failed instead of being scored — serving a
    result nobody is waiting for only steals compute from live requests.
    """


class FlusherCrashed(GatewayError):
    """The gateway's background flusher died while this request was queued.

    The flusher supervisor fails every pending request with this error and
    restarts the flusher — the queue never silently hangs.  The caller may
    simply retry; admission stays open throughout.
    """


class BackendError(GatewayError):
    """The backend (scorer/engine) failed after retries were exhausted.

    Only raised when a resilience policy is attached; without one the raw
    backend exception propagates unchanged (the historical contract).  The
    original error is preserved as ``__cause__``.
    """


# Related error types that live with their owning layers (the serving
# package must stay importable without dragging those layers' errors here):
#   repro.archive.ArchiveCorrupted — archive checksum mismatch on load
