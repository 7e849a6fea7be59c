"""The one base, result type and abort every migration engine shares."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..db.backup import DEFAULT_CHUNK_BYTES
from ..db.engine import DatabaseEngine
from ..resources.server import Server
from ..simulation import Environment, Process

__all__ = ["MigrationAborted", "MigrationEngine", "MigrationResult"]


class MigrationAborted(Exception):
    """A migration was cancelled before its point of no return.

    Raised from the engine's ``run``.  The source remains authoritative
    and unfrozen; the partially-copied target is discarded.
    """

    def __init__(self, reason: str = ""):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class MigrationResult:
    """Outcome of one migration, whichever engine ran it.

    Fields an engine has no use for keep their zero default.  The
    picklable copy a sweep worker ships home is the same type with
    ``target=None``.
    """

    #: "live", "fluid", "on-demand", "stop-and-copy" or "dump-reimport".
    #: A tenant pulled out of a shared-process daemon is "live".
    kind: str
    #: End-to-end migration time, seconds.
    duration: float
    #: The longest stall a transaction could see: the freeze window
    #: (live), the longest chunk freeze (fluid), the time to
    #: the ownership switch (on-demand), or the whole copy
    #: (stop-and-copy, dump-reimport).
    downtime: float
    #: Bytes moved end to end.
    total_bytes: int
    #: Snapshot volume (live), or the summed chunk copies (fluid).
    snapshot_bytes: int = 0
    #: Delta rounds shipped, the final handover round included (live,
    #: fluid).
    delta_rounds: int = 0
    #: Chunk count and summed per-chunk freeze time (fluid).
    num_chunks: int = 0
    total_freeze_time: float = 0.0
    #: Pages pulled remotely inside transactions (on-demand).
    remote_fetches: int = 0
    #: The engine now serving the tenant; ``None`` once detached.
    target: Optional[DatabaseEngine] = None

    @property
    def average_rate(self) -> float:
        """Mean transfer rate over the whole migration, bytes/second."""
        if self.duration <= 0:
            return 0.0
        return self.total_bytes / self.duration


class MigrationEngine:
    """What every migration engine shares; subclasses add a data plane.

    A subclass writes ``run()`` (a process returning a
    :class:`MigrationResult`), names the :meth:`SlackerNode.migrate_tenant
    <repro.middleware.node.SlackerNode.migrate_tenant>` methods it serves
    in :attr:`methods`, and says when its point of no return has passed
    (:meth:`_past_no_return`).  The abort contract is the same for all:
    :meth:`try_abort` is accepted until that point and interrupts the run
    process, which rolls back to a serving source (:meth:`_rollback`) and
    raises :class:`MigrationAborted`; the fencing gate is consulted
    once more right before the handover.
    """

    #: The ``migrate_tenant`` methods this engine runs.
    methods: tuple[str, ...] = ()
    #: The method needs a rate (a setpoint or a fixed one) to run.
    needs_rate = False
    #: The engine copies at full speed and ignores any rate asked of it.
    full_speed = False
    #: More than one chunk in flight (only the chunked pipeline).
    chunked = False

    def __init__(
        self,
        env: Environment,
        source: DatabaseEngine,
        target_server: Server,
        throttle=None,
        *,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        num_chunks: int = 1,
        token: int = 0,
        on_handover: Optional[Callable[[DatabaseEngine], None]] = None,
        fence: Optional[Callable[[], bool]] = None,
        obs=None,
    ):
        if num_chunks < 1:
            raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        self.env = env
        self.source = source
        self.target_server = target_server
        #: Meters the bulk copy (``None``: unthrottled).
        self.throttle = throttle
        #: Piece size of the bulk copy and of shipped deltas, bytes.
        self.chunk_bytes = chunk_bytes
        #: Chunks the page space hands over in: only the chunked
        #: pipeline splits it, the baselines hand over whole.
        self.num_chunks = num_chunks
        #: Fencing token the ownership commits under.
        self.token = token
        #: Called with the target engine at the handover.
        self.on_handover = on_handover
        #: Fencing gate, consulted immediately before the point of no
        #: return; ``False`` aborts with a full rollback (a node whose
        #: ownership lease has lapsed must never hand the tenant over).
        self.fence = fence
        #: Optional :class:`~repro.obs.Observability`.
        self.obs = obs
        #: The engine serving the tenant on the target, once built.
        self.target: Optional[DatabaseEngine] = None
        #: True once an abort has rolled the tenant back to the source.
        self.rolled_back = False
        self._abort_reason: Optional[str] = None
        self._process: Optional[Process] = None

    @property
    def abort_reason(self) -> Optional[str]:
        return self._abort_reason

    def _past_no_return(self) -> bool:
        """Whether aborts are refused from now on.

        The baselines build their target at the handover itself.
        """
        return self.target is not None

    def try_abort(self, reason: str = "cancelled") -> bool:
        """Request an abort; returns whether it was accepted.

        Accepted until the point of no return: the run process is
        interrupted at its current instant, rolls back and raises
        :class:`MigrationAborted` with the first reason given.
        """
        if self.rolled_back or self._past_no_return():
            return False
        if self._abort_reason is None:
            self._abort_reason = reason
        proc = self._process
        if proc is not None and proc.is_alive and proc is not self.env.active_process:
            proc.interrupt(reason)
        return True

    def _check_abort(self) -> None:
        """Roll back and raise if an abort has been accepted."""
        if self._abort_reason is not None and not self.rolled_back:
            raise self._abort(self._abort_reason)

    def _abort(self, reason: str) -> MigrationAborted:
        """Roll back under the first reason given; returns the exception."""
        self._abort_reason = self._abort_reason or reason
        self._rollback()
        return MigrationAborted(self._abort_reason)

    def _interrupted(self, interrupt) -> MigrationAborted:
        """Roll back after an interrupt; returns the exception to raise."""
        return self._abort(str(interrupt.cause or "interrupted"))

    def _rollback(self) -> None:
        """Restore a serving source: the baselines only thaw it."""
        if self.source.is_frozen:
            self.source.thaw()
        self.rolled_back = True

    def _fence_gate(self, where: str) -> None:
        """Roll back and raise if the fencing gate refuses the handover."""
        if self.fence is not None and not self.fence():
            raise self._abort(f"fencing check failed at {where}")

    def _make_target(self, engine_class=DatabaseEngine, **options) -> DatabaseEngine:
        """Build the target engine: the source's layout, pool and costs."""
        source = self.source
        return engine_class(
            self.env,
            self.target_server,
            source.layout,
            name=f"{source.name}@{self.target_server.name}",
            buffer_bytes=source.buffer_pool.capacity_pages
            * source.buffer_pool.page_size,
            costs=source.costs,
            **options,
        )

    def _hand_over(self, target: DatabaseEngine) -> None:
        """The target takes the tenant: hook first, then retire the source."""
        if self.on_handover is not None:
            self.on_handover(target)
        self.source.stop(successor=target)
