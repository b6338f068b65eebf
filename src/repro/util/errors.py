"""Exception hierarchy shared by every subsystem in the library.

All library-raised exceptions derive from :class:`ReproError` so that
applications can catch one base class at their outermost boundary while
tests assert on the precise subclass.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed or invoked with invalid parameters."""


class NetworkError(ReproError):
    """A simulated network operation could not be completed."""


class AddressInUseError(NetworkError):
    """A host tried to bind a UDP/TCP port that is already bound."""


class HostUnreachableError(NetworkError):
    """A datagram or connection was addressed to an unknown endpoint."""


class ProtocolError(ReproError):
    """A protocol message was malformed or arrived in the wrong state."""


class StunDecodeError(ProtocolError):
    """Raw bytes could not be parsed as a STUN message."""


class DtlsHandshakeError(ProtocolError):
    """The DTLS-like handshake failed (bad fingerprint, wrong flight...)."""


class DtlsRecordError(ProtocolError):
    """A DTLS record failed authentication or decryption."""


class SdpError(ProtocolError):
    """An SDP-like session description was malformed."""


class HttpError(ProtocolError):
    """An HTTP exchange failed. Carries the response status code."""

    def __init__(self, status: int, message: str = "") -> None:
        super().__init__(message or f"HTTP error {status}")
        self.status = status


class AuthenticationError(ReproError):
    """A peer or customer failed PDN authentication."""


class TokenError(AuthenticationError):
    """An authentication token was invalid, expired, or over-used."""


class IntegrityError(ReproError):
    """Content integrity verification failed (polluted segment, bad SIM)."""


class BlacklistedPeerError(ReproError):
    """A blacklisted peer attempted to interact with the PDN server."""


class ShardWorkerError(ReproError):
    """A sharded-swarm worker process failed or died mid-run.

    Names the shard, the window barrier it was serving (``None`` while
    the worker was still building its shard) and the cause: the
    worker's exception type and message, or how the process ended when
    it died without reporting. ``worker_traceback`` holds the worker's
    formatted traceback when it sent one.
    """

    def __init__(
        self,
        shard: int,
        barrier: float | None,
        cause: str,
        worker_traceback: str = "",
    ) -> None:
        where = "while building" if barrier is None else f"at barrier {barrier!r}"
        super().__init__(f"shard {shard} failed {where}: {cause}")
        self.shard = shard
        self.barrier = barrier
        self.cause = cause
        self.worker_traceback = worker_traceback


class PoolWorkerError(ReproError):
    """One item of a process fan-out failed (:func:`repro.harness.runner.pool_map`).

    Names the item — an experiment, a corpus shard — and the cause: the
    worker's exception type and message, or the exit code of a worker
    that died without reporting. ``worker_traceback`` holds the worker's
    formatted traceback when it sent one.
    """

    def __init__(self, item: str, cause: str, worker_traceback: str = "") -> None:
        super().__init__(f"{item} failed in a worker process: {cause}")
        self.item = item
        self.cause = cause
        self.worker_traceback = worker_traceback
