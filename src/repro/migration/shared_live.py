"""Live migration of one tenant out of a shared-process daemon.

The Section 6 / Section 8 extension: with table-level hot backup
available, Slacker's snapshot → delta → handover pipeline applies
unchanged to a consolidated (single-daemon) server — the snapshot scans
one tenant's tablespace, the deltas ship only that tenant's tagged
binlog records, and the handover freeze is a table write-lock that
leaves the other tenants' tables untouched.

The tenant lands in its own dedicated daemon on the target server
(process-level), i.e. this is also the "de-consolidation" path: pull a
noisy tenant out of a shared daemon into isolation.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..db.backup import DEFAULT_CHUNK_BYTES
from ..db.engine import DatabaseEngine
from ..db.shared import SharedProcessEngine, TableLevelBackup
from ..resources.server import Server
from ..resources.units import MB
from ..simulation import Environment
from .fluid import DELTA_THRESHOLD, MAX_DELTA_ROUNDS, MigrationPhase
from .result import MigrationResult
from .throttle import Throttle

__all__ = ["SharedTenantMigration"]


class SharedTenantMigration:
    """Snapshot → delta → handover for one tenant of a shared daemon."""

    def __init__(
        self,
        env: Environment,
        source: SharedProcessEngine,
        tenant_id: int,
        target_server: Server,
        throttle: Throttle,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        target_buffer_bytes: int = 128 * MB,
        on_handover: Optional[Callable[[DatabaseEngine], None]] = None,
    ):
        self.env = env
        self.source = source
        self.tenant_id = tenant_id
        self.target_server = target_server
        self.throttle = throttle
        self.chunk_bytes = chunk_bytes
        self.target_buffer_bytes = target_buffer_bytes
        self.on_handover = on_handover
        self.backup = TableLevelBackup(env, source, tenant_id, chunk_bytes)
        self.phase = MigrationPhase.PENDING
        self.target: Optional[DatabaseEngine] = None

    def _ship(self, nbytes: int, stream: str, throttled: bool = True) -> Generator:
        """Move ``nbytes`` source-disk -> wire -> target-disk."""
        shipped = 0
        while shipped < nbytes:
            size = min(self.chunk_bytes, nbytes - shipped)
            if throttled:
                yield from self.throttle.acquire(size)
            yield from self.source.server.disk.read(
                size, sequential=True, stream=stream
            )
            yield from self.source.server.nic_out.transfer(size)
            yield from self.target_server.disk.write(
                size, sequential=True, stream=stream
            )
            shipped += size

    def run(self) -> Generator:
        """Process: migrate the tenant; returns the result record."""
        tenant = self.source._tenant(self.tenant_id)
        started_at = self.env.now

        # Step 1: table-level snapshot, streamed through the throttle.
        self.phase = MigrationPhase.SNAPSHOT
        snapshot = self.backup.begin()
        restore_stream = f"{self.source.name}:restore-t{self.tenant_id}"
        while not snapshot.complete:
            remaining = snapshot.total_bytes - snapshot.streamed_bytes
            size = min(self.chunk_bytes, remaining)
            yield from self.throttle.acquire(size)
            chunk = yield self.env.process(self.backup.read_chunk(snapshot))
            if chunk is None:
                break
            yield from self.source.server.nic_out.transfer(chunk)
            yield from self.target_server.disk.write(
                chunk, sequential=True, stream=restore_stream
            )

        # Step 1b: prepare the target daemon (replay this tenant's redo).
        self.phase = MigrationPhase.PREPARE
        self.target = DatabaseEngine(
            self.env,
            self.target_server,
            tenant.layout,
            name=f"tenant-{self.tenant_id}@{self.target_server.name}",
            buffer_bytes=self.target_buffer_bytes,
        )
        redo = self.backup.redo_bytes(snapshot)
        yield from self.target.apply_delta_bytes(redo, snapshot.end_lsn)

        # Step 2: tagged delta rounds.
        self.phase = MigrationPhase.DELTA
        rounds: list[int] = []  # bytes shipped per round
        ship_stream = f"{self.source.name}:binlog-t{self.tenant_id}"
        while len(rounds) < MAX_DELTA_ROUNDS:
            pending = self.backup.pending_delta(self.target.replicated_lsn)
            if pending <= DELTA_THRESHOLD:
                break
            to_lsn = self.source.binlog.head_lsn
            yield from self._ship(pending, ship_stream)
            yield from self.target.apply_delta_bytes(pending, to_lsn)
            rounds.append(pending)

        # Step 3: freeze just this tenant's tables and hand over.
        self.phase = MigrationPhase.HANDOVER
        freeze_started = self.env.now
        self.source.freeze_tenant(self.tenant_id)
        yield self.source.write_quiesced(self.tenant_id)
        final_pending = self.backup.pending_delta(self.target.replicated_lsn)
        final_to = self.source.binlog.head_lsn
        if final_pending > 0:
            yield from self._ship(final_pending, ship_stream, throttled=False)
        yield from self.target.apply_delta_bytes(final_pending, final_to)
        self.target.data_version = tenant.data_version
        rounds.append(final_pending)
        downtime = self.env.now - freeze_started
        if self.on_handover is not None:
            self.on_handover(self.target)
        self.source.thaw_tenant(self.tenant_id)
        self.source.drop_tenant(self.tenant_id)

        self.phase = MigrationPhase.COMPLETE
        return MigrationResult(
            kind="shared",
            duration=self.env.now - started_at,
            downtime=downtime,
            total_bytes=snapshot.total_bytes + sum(rounds),
            snapshot_bytes=snapshot.total_bytes,
            delta_rounds=len(rounds),
            target=self.target,
        )
