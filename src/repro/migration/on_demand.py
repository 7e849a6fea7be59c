"""An on-demand-pull migration baseline (Zephyr-style, Section 7).

The paper's related work describes Zephyr [Elmore et al., SIGMOD'11]:
"transfers a minimal 'wireframe' of the database and then pulls pages
on demand from the source to the target", and makes a pointed
observation about throttling it: "one issue with on-demand approaches
... is that throttling is problematic, since slowing on-demand pulls
exacerbates latency rather than mitigating it as in a throttled
background transfer."

This module implements that baseline so the claim can be measured:

1. **Wireframe** — a small metadata transfer, after which ownership
   switches immediately to the target (near-zero blackout, like
   Zephyr).
2. **On-demand pulls** — the target starts cold; every buffer-pool
   miss on a page it does not yet hold becomes a *remote* fetch
   (source disk read + network + local write), paid inside the
   transaction's latency.
3. **Background pusher** — the source streams not-yet-pulled pages in
   the background through a throttle.  Slowing this throttle keeps the
   tenant in the painful cold phase longer — the paper's point.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Optional

from ..db.engine import DatabaseEngine
from ..db.transactions import Transaction
from ..resources.server import Server
from ..resources.units import MB, PAGE_SIZE
from ..simulation import Environment, Interrupt, Process
from .result import MigrationAborted, MigrationResult
from .throttle import Throttle

__all__ = ["PartialReplicaEngine", "OnDemandMigration"]

#: Size of the "wireframe" (schema + index metadata), bytes.
WIREFRAME_BYTES = 4 * MB


class PartialReplicaEngine(DatabaseEngine):
    """A target engine whose pages may still live on the source.

    A miss on a page not yet present locally triggers a remote fetch:
    a random read on the *source* disk, a network hop, and a local
    write — all inside the requesting transaction's latency.
    """

    def __init__(self, *args, source: DatabaseEngine, **kwargs):
        super().__init__(*args, **kwargs)
        self.source = source
        #: Pages already copied to the target (by pull or push).
        self.present: set[int] = set()
        self.remote_fetches = 0
        self.remote_fetch_time = 0.0
        #: Pulls that paid the transfer only to find the page had been
        #: delivered (by the pusher) while they were in flight.
        self.redundant_fetches = 0
        #: When the last page arrived (by pull or push).
        self.completed_at: Optional[float] = None

    @property
    def pages_missing(self) -> int:
        return self.layout.num_pages - len(self.present)

    def mark_present(self, page_id: int) -> None:
        """Record that ``page_id`` arrived (pull or background push)."""
        self.present.add(page_id)
        if self.completed_at is None and len(self.present) == self.layout.num_pages:
            self.completed_at = self.env.now

    def _access_page(self, txn: Transaction, page_id: int, write: bool) -> Iterable:
        if page_id not in self.present:
            return self._pull(txn, page_id, write)
        return super()._access_page(txn, page_id, write)

    def _pull(self, txn: Transaction, page_id: int, write: bool) -> Generator:
        """Process: fetch a missing page from the source, then touch it."""
        started = self.env.now
        # Remote pull: source-side random read, the wire, local write.
        yield from self.source.server.disk.read(PAGE_SIZE)
        yield from self.source.server.nic_out.transfer(PAGE_SIZE)
        yield from self.server.disk.write(PAGE_SIZE)
        self.remote_fetch_time += self.env.now - started
        if page_id not in self.present:
            self.mark_present(page_id)
            self.remote_fetches += 1
        else:
            # The pusher delivered it while our transfer was in
            # flight: the latency was paid, but the page must only
            # be counted once for conservation.
            self.redundant_fetches += 1
        yield from super()._access_page(txn, page_id, write)


class OnDemandMigration:
    """Wireframe → immediate switch → pulls + throttled background push.

    Abortable until the ownership switch: only the wireframe has moved
    by then, so the source simply keeps serving.  From the switch on
    the cold target is authoritative and aborts are refused.
    """

    kind = "on-demand"

    def __init__(
        self,
        env: Environment,
        source: DatabaseEngine,
        target_server: Server,
        push_throttle: Optional[Throttle] = None,
        on_handover: Optional[Callable[[DatabaseEngine], None]] = None,
        fence: Optional[Callable[[], bool]] = None,
        obs=None,
    ):
        self.env = env
        self.source = source
        self.target_server = target_server
        self.push_throttle = push_throttle
        self.on_handover = on_handover
        #: Fencing gate, consulted immediately before the switch.
        self.fence = fence
        self.obs = obs
        self.target: Optional[PartialReplicaEngine] = None
        #: When ownership switched to the target (the point of no return).
        self.switched_at: Optional[float] = None
        self.rolled_back = False
        self._abort_reason: Optional[str] = None
        self._process: Optional[Process] = None

    def try_abort(self, reason: str = "cancelled") -> bool:
        """Request an abort; accepted only before the ownership switch."""
        if self.switched_at is not None or self.rolled_back:
            return False
        if self._abort_reason is None:
            self._abort_reason = reason
        proc = self._process
        if proc is not None and proc.is_alive and proc is not self.env.active_process:
            proc.interrupt(reason)
        return True

    def _abort(self, reason: str) -> MigrationAborted:
        self.rolled_back = True
        return MigrationAborted(reason)

    def _make_target(self) -> PartialReplicaEngine:
        return PartialReplicaEngine(
            self.env,
            self.target_server,
            self.source.layout,
            name=f"{self.source.name}@{self.target_server.name}",
            buffer_bytes=self.source.buffer_pool.capacity_pages
            * self.source.buffer_pool.page_size,
            costs=self.source.costs,
            source=self.source,
        )

    def _background_pusher(self, target: PartialReplicaEngine) -> Generator:
        """Stream not-yet-present pages, oldest page id first."""
        pushed = 0
        stream = f"{self.source.name}:push"
        for page_id in range(target.layout.num_pages):
            if page_id in target.present:
                continue
            if self.push_throttle is not None:
                yield from self.push_throttle.acquire(PAGE_SIZE)
            if page_id in target.present:
                # A pull delivered the page while we were queued on the
                # throttle: re-check *before* paying the source read and
                # the wire, or the page's transfer is billed twice.
                continue
            yield from self.source.server.disk.read(
                PAGE_SIZE, sequential=True, stream=stream
            )
            yield from self.source.server.nic_out.transfer(PAGE_SIZE)
            if page_id in target.present:
                continue  # a pull raced us while we were in flight
            yield from self.target_server.disk.write(
                PAGE_SIZE, sequential=True, stream=stream
            )
            if page_id in target.present:
                continue  # a pull won during our local write
            target.mark_present(page_id)
            pushed += 1
        return pushed

    def run(self) -> Generator:
        """Process: run the migration; returns a :class:`MigrationResult`."""
        self._process = self.env.active_process
        started_at = self.env.now
        stream = f"{self.source.name}:wire"
        try:
            if self._abort_reason is None:
                # 1. Wireframe: small, fast metadata transfer.
                yield from self.source.server.disk.read(
                    WIREFRAME_BYTES, sequential=True, stream=stream
                )
                yield from self.source.server.nic_out.transfer(WIREFRAME_BYTES)
                yield from self.target_server.disk.write(
                    WIREFRAME_BYTES, sequential=True, stream=stream
                )
        except Interrupt as interrupt:
            self._abort_reason = self._abort_reason or str(
                interrupt.cause or "interrupted"
            )
        if self._abort_reason is not None:
            raise self._abort(self._abort_reason)
        if self.fence is not None and not self.fence():
            raise self._abort("fencing check failed at ownership switch")

        # 2. Immediate ownership switch: the cold target is authoritative.
        self.target = self._make_target()
        self.switched_at = self.env.now
        if self.obs is not None:
            self.obs.on_migration_freeze(self, self.switched_at - started_at)
        if self.on_handover is not None:
            self.on_handover(self.target)
        # The source stops accepting new work and forwards to the target
        # (which will pull whatever pages it needs back out of the source
        # data files).
        self.source.stop(successor=self.target)

        # 3. Background push until every page has moved.
        pushed = yield self.env.process(self._background_pusher(self.target))

        # The migration is over when the *last page arrived* — a pull
        # can complete the set while the pusher is still scanning past
        # already-present pages, so the pusher's return time overstates.
        finished_at = self.target.completed_at
        if finished_at is None:
            finished_at = self.env.now
        return MigrationResult(
            kind=self.kind,
            duration=finished_at - started_at,
            downtime=self.switched_at - started_at,
            total_bytes=(self.target.remote_fetches + pushed) * PAGE_SIZE,
            remote_fetches=self.target.remote_fetches,
            target=self.target,
        )
