"""File-based work queue: lease-claimed study cells shared by worker fleets.

The queue is a directory, so any number of worker *processes* (today: on one
host; the layout deliberately also works on a shared filesystem) coordinate
through nothing but atomic filesystem primitives -- the same append/rename
discipline the result store's index journal uses, and the file-system analogue
of the LL/SC and atomic-copy constructions the motivation cites: claims are
``O_CREAT | O_EXCL`` creations (exactly one winner), takeovers of expired
leases are ``os.rename`` (exactly one winner), and every record file is
written via temp-file + rename so readers never observe a torn write.

Layout on disk::

    <root>/
        cells/<key>.json     # one pending work item per cell (spec + tags)
        leases/<key>.lease   # owner of an in-flight cell; mtime = heartbeat
        done/<key>.json      # completion record (run id, worker, seconds)
        failed/<key>.json    # failure record (kind, error, worker)

Lifecycle of a cell: *pending* (cell file, no lease/outcome) -> *leased*
(:meth:`WorkQueue.claim` created the lease; the owner touches it via
:meth:`WorkQueue.heartbeat` while executing) -> *done* or *failed* (outcome
record written first, lease released second, so a cell is never both
unfinished and unclaimable).  A worker that dies mid-cell simply stops
heart-beating: once the lease's mtime is older than ``lease_timeout``,
any other worker's :meth:`~WorkQueue.claim` reclaims the cell -- the expired
lease is *renamed* away (atomic: exactly one reclaimer wins) and the cell is
re-leased and re-run.  Re-running a cell is safe end to end because run ids
are content-hashed: both executions persist to the same store run id.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.specs import ExperimentSpec
from repro.chaos.injection import inject
from repro.store.result_store import atomic_write_json
from repro.telemetry.metrics import counter as _metrics_counter

_M_CLAIMS = _metrics_counter(
    "repro_queue_claims_total", "cell leases won by this process")
_M_TAKEOVERS = _metrics_counter(
    "repro_queue_lease_takeovers_total",
    "expired leases reclaimed from dead workers by this process")

#: Failure kinds recorded by :meth:`WorkQueue.fail` (mirrors the study
#: runner's error taxonomy: cell simulation vs store persistence).
FAILURE_KINDS = ("cell", "store")


def cell_key(cell_id: str, max_length: int = 40) -> str:
    """Filesystem-safe, collision-resistant key for a study cell id."""
    slug = re.sub(r"[^a-z0-9]+", "-", cell_id.lower()).strip("-")
    digest = hashlib.sha256(cell_id.encode()).hexdigest()[:10]
    slug = slug[:max_length].rstrip("-") or "cell"
    return f"{slug}-{digest}"


class LeaseLost(RuntimeError):
    """The caller's lease on a cell no longer exists or changed owners.

    Raised by :meth:`WorkQueue.heartbeat` when a worker discovers it was
    presumed dead (its lease expired and another worker reclaimed the
    cell); the worker should stop treating the cell as its own.
    """


@dataclass(frozen=True)
class QueuedCell:
    """One unit of fleet work: a study cell plus its store tags."""

    key: str
    cell_id: str
    spec: ExperimentSpec
    tags: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {"key": self.key, "cell_id": self.cell_id,
                "spec": self.spec.to_dict(), "tags": list(self.tags)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueuedCell":
        return cls(
            key=str(data["key"]),
            cell_id=str(data["cell_id"]),
            spec=ExperimentSpec.from_dict(data["spec"]),
            tags=tuple(str(t) for t in data.get("tags", ())),
        )


@dataclass(frozen=True)
class LeaseInfo:
    """Parsed owner of one in-flight cell."""

    key: str
    worker: str
    pid: int
    claimed_at: float
    heartbeat_at: float

    def age(self, now: Optional[float] = None) -> float:
        """Seconds since the owner last heart-beat the lease."""
        return (time.time() if now is None else now) - self.heartbeat_at


@dataclass
class QueueStatus:
    """Snapshot of a queue: per-state counts plus per-worker attribution."""

    total: int = 0
    pending: int = 0
    leased: int = 0
    done: int = 0
    failed: int = 0
    leases: List[LeaseInfo] = field(default_factory=list)
    #: worker id -> number of cells that worker completed (done records).
    done_by_worker: Dict[str, int] = field(default_factory=dict)
    #: worker id -> number of cells that worker failed (failure records).
    failed_by_worker: Dict[str, int] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        """Every queued cell has an outcome (False for an empty queue --
        a never-populated or fully-pruned queue has finished nothing)."""
        return self.total > 0 and self.done + self.failed >= self.total

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total": self.total,
            "pending": self.pending,
            "leased": self.leased,
            "done": self.done,
            "failed": self.failed,
            "done_by_worker": dict(self.done_by_worker),
            "failed_by_worker": dict(self.failed_by_worker),
        }


class WorkQueue:
    """Directory-backed queue of study cells with crash-safe lease claims.

    Args:
        root: Queue directory (created on first write).
        lease_timeout: Seconds without a heartbeat after which a lease is
            considered abandoned and its cell reclaimable.
    """

    CELLS_DIR = "cells"
    LEASES_DIR = "leases"
    DONE_DIR = "done"
    FAILED_DIR = "failed"

    def __init__(self, root: Union[str, Path], lease_timeout: float = 60.0):
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        self.root = Path(root)
        self.lease_timeout = float(lease_timeout)

    # -- paths ----------------------------------------------------------
    @property
    def cells_dir(self) -> Path:
        return self.root / self.CELLS_DIR

    @property
    def leases_dir(self) -> Path:
        return self.root / self.LEASES_DIR

    @property
    def done_dir(self) -> Path:
        return self.root / self.DONE_DIR

    @property
    def failed_dir(self) -> Path:
        return self.root / self.FAILED_DIR

    def cell_path(self, key: str) -> Path:
        return self.cells_dir / f"{key}.json"

    def lease_path(self, key: str) -> Path:
        return self.leases_dir / f"{key}.lease"

    def done_path(self, key: str) -> Path:
        return self.done_dir / f"{key}.json"

    def failed_path(self, key: str) -> Path:
        return self.failed_dir / f"{key}.json"

    # -- small file helpers ---------------------------------------------
    @staticmethod
    def _read_json(path: Path) -> Optional[Dict[str, Any]]:
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    # -- populating ------------------------------------------------------
    def populate(self, cells: Sequence[QueuedCell]) -> int:
        """Write the cell files; returns how many were newly added.

        By calling this the caller asserts every listed cell is *pending*
        work, so stale outcome records from a previous invocation -- a
        failure being retried, or a done record whose run no longer counts
        (the store's run was deleted, or the new invocation stores under
        different tags and the coordinator therefore re-queued the cell) --
        are dropped; otherwise ``claim()`` would skip the cell and the
        stale record would masquerade as this invocation's outcome.  Cell
        files are content-idempotent: an existing file is rewritten only
        when the cell's payload (spec or tags) actually changed, so
        re-populating a queue is cheap and never disturbs in-flight leases.
        """
        added = 0
        for cell in cells:
            for stale in (self.failed_path(cell.key),
                          self.done_path(cell.key)):
                if stale.exists():
                    stale.unlink()
            payload = cell.to_dict()
            if self._read_json(self.cell_path(cell.key)) == payload:
                continue
            atomic_write_json(self.cell_path(cell.key), payload)
            added += 1
        return added

    def prune(self, keep: "set[str]") -> int:
        """Drop every queued cell whose key is not in ``keep``.

        The coordinator calls this before :meth:`populate` so a queue
        reused across invocations (it is keyed by study name) only ever
        holds the *current* work-list: a stale cell file from an
        interrupted run with a wider grid would otherwise be claimed and
        simulated with its old spec and tags.  Removes the cell file plus
        any lease/outcome records; returns how many cells were pruned.
        """
        pruned = 0
        # Also sweep tombstones orphaned by reclaimers that died between
        # the lease rename and the unlink -- nothing else removes them.
        if self.leases_dir.is_dir():
            for tombstone in self.leases_dir.glob("*.lease.expired-*"):
                try:
                    tombstone.unlink()
                except FileNotFoundError:
                    pass
        if not self.cells_dir.is_dir():
            return pruned
        for path in sorted(self.cells_dir.glob("*.json")):
            key = path.stem
            if key in keep:
                continue
            for stale in (path, self.lease_path(key), self.done_path(key),
                          self.failed_path(key)):
                try:
                    stale.unlink()
                except FileNotFoundError:
                    pass
            pruned += 1
        return pruned

    def cells(self) -> List[QueuedCell]:
        """Every queued cell, in deterministic (sorted-key) order."""
        if not self.cells_dir.is_dir():
            return []
        cells = []
        for path in sorted(self.cells_dir.glob("*.json")):
            data = self._read_json(path)
            if data is not None:
                cells.append(QueuedCell.from_dict(data))
        return cells

    # -- leases ----------------------------------------------------------
    def _write_lease_fd(self, fd: int, key: str, worker: str) -> None:
        payload = {"key": key, "worker": worker, "pid": os.getpid(),
                   "claimed_at": time.time()}
        os.write(fd, (json.dumps(payload) + "\n").encode())

    def lease_info(self, key: str) -> Optional[LeaseInfo]:
        """The current lease on a cell (None when unleased or unreadable)."""
        path = self.lease_path(key)
        data = self._read_json(path)
        if data is None:
            return None
        try:
            heartbeat = path.stat().st_mtime
        except OSError:
            return None
        return LeaseInfo(
            key=str(data.get("key", key)),
            worker=str(data.get("worker", "?")),
            pid=int(data.get("pid", 0)),
            claimed_at=float(data.get("claimed_at", heartbeat)),
            heartbeat_at=heartbeat,
        )

    def _try_lease(self, key: str, worker: str) -> bool:
        """Attempt to become the exclusive owner of a cell.

        The fresh-claim path is ``O_CREAT | O_EXCL`` (exactly one creator
        wins).  If a lease exists but its heartbeat is older than
        ``lease_timeout``, the claimer *renames* it to a tombstone --
        rename is atomic, so exactly one of any number of concurrent
        reclaimers wins the takeover -- and then retries the exclusive
        create (which may still lose to a third claimer; that is fine,
        somebody owns the cell).
        """
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        path = self.lease_path(key)
        for attempt in range(2):
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                if attempt:
                    return False
                info = self.lease_info(key)
                if info is not None and info.age() <= self.lease_timeout:
                    return False  # live owner
                if info is None:
                    # Unreadable lease: the owner crashed between the
                    # exclusive create and the payload write (or a torn
                    # write).  Fall back to the raw file mtime -- a fresh
                    # one may still be mid-write, but an *old* unreadable
                    # lease must be reclaimable or its cell is wedged
                    # forever (no heartbeat will ever age it out).
                    try:
                        age = time.time() - path.stat().st_mtime
                    except OSError:
                        continue  # vanished: retry the exclusive create
                    if age <= self.lease_timeout:
                        return False
                tombstone = path.with_name(
                    f"{path.name}.expired-{worker}-{os.getpid()}")
                try:
                    os.rename(path, tombstone)
                except OSError:
                    return False  # another reclaimer won the rename
                tombstone.unlink()
                _M_TAKEOVERS.inc()
                continue  # retry the exclusive create
            try:
                # Chaos point: the lease file exists but carries no payload
                # yet -- a crash here leaves an unreadable lease that only
                # the mtime-fallback reclaim path can recover.
                inject("queue.post-claim", key=key, worker=worker)
                self._write_lease_fd(fd, key, worker)
            finally:
                os.close(fd)
            _M_CLAIMS.inc()
            return True
        return False

    def claim(self, worker: str) -> Optional[QueuedCell]:
        """Claim one pending cell for ``worker``; None when nothing claimable.

        ``None`` does *not* mean the queue is finished -- other workers may
        hold live leases; poll :meth:`status` (or :meth:`outstanding`) to
        distinguish "wait" from "done".
        """
        if not self.cells_dir.is_dir():
            return None
        for path in sorted(self.cells_dir.glob("*.json")):
            key = path.stem
            if self._finished(key):
                continue
            if not self._try_lease(key, worker):
                continue
            # Re-check after winning the lease: complete()/fail() write the
            # outcome record *before* releasing the lease, so a claim that
            # slipped between those two steps finds the record here.
            if self._finished(key):
                self.release(key, worker)
                continue
            data = self._read_json(path)
            if data is None:
                # An unreadable cell file must get a *recorded* outcome:
                # skipping it silently would leave it outstanding forever
                # and poll-livelock every worker in the fleet.
                self.fail(key, worker, "unreadable cell file", kind="cell")
                continue
            try:
                return QueuedCell.from_dict(data)
            except (ValueError, KeyError, TypeError) as error:
                self.fail(key, worker,
                          f"invalid cell file: "
                          f"{type(error).__name__}: {error}", kind="cell")
                continue
        return None

    def _owned(self, info: Optional[LeaseInfo], worker: str) -> bool:
        """Whether the calling process holds this lease.

        Both the worker name *and* the pid must match: two fleets sharing
        one queue both name their workers ``worker-1..N``, so after a
        timeout reclaim by a same-named worker of another fleet the name
        alone would falsely read as still-owned (and a stale caller would
        keep heart-beating -- or release -- the usurper's live lease).
        """
        return (info is not None and info.worker == worker
                and info.pid == os.getpid())

    def heartbeat(self, key: str, worker: str) -> None:
        """Refresh the lease mtime; raises :class:`LeaseLost` if not owned."""
        inject("queue.heartbeat", key=key, worker=worker)
        info = self.lease_info(key)
        if not self._owned(info, worker):
            raise LeaseLost(
                f"lease on {key!r} is "
                f"{'gone' if info is None else f'owned by {info.worker!r} (pid {info.pid})'}")
        try:
            os.utime(self.lease_path(key))
        except FileNotFoundError:
            # Reclaimed between the ownership check and the touch: same
            # presumed-dead outcome, same exception contract.
            raise LeaseLost(f"lease on {key!r} was reclaimed mid-heartbeat") \
                from None

    def release(self, key: str, worker: str) -> None:
        """Drop a lease without recording an outcome (only if still owned)."""
        if self._owned(self.lease_info(key), worker):
            try:
                self.lease_path(key).unlink()
            except FileNotFoundError:
                pass

    # -- outcomes ---------------------------------------------------------
    def complete(self, key: str, worker: str, run_id: str,
                 seconds: float = 0.0) -> None:
        """Record a finished cell (outcome first, lease release second).

        A success supersedes any failure record of the same cell: after a
        lease-timeout reclaim, one execution may have failed transiently
        while the other completed -- a cell must never carry both outcomes
        (``status()`` would double-count it and report the queue finished
        early).
        """
        inject("queue.pre-outcome", key=key, worker=worker)
        atomic_write_json(self.done_path(key), {
            "key": key, "worker": worker, "run_id": run_id,
            "seconds": float(seconds), "finished_at": time.time()})
        inject("queue.post-outcome", key=key, worker=worker)
        try:
            self.failed_path(key).unlink()
        except FileNotFoundError:
            pass
        self.release(key, worker)

    def fail(self, key: str, worker: str, error: str,
             kind: str = "cell") -> None:
        """Record a failed cell (kind: ``"cell"`` or ``"store"``).

        A no-op when the cell already has a completion record (a reclaim
        race where the other execution succeeded): the result is in the
        store, so the failure is moot and must not co-exist with the done
        record.
        """
        if kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {kind!r}; "
                             f"known: {FAILURE_KINDS}")
        if self.done_path(key).exists():
            self.release(key, worker)
            return
        inject("queue.pre-outcome", key=key, worker=worker)
        atomic_write_json(self.failed_path(key), {
            "key": key, "worker": worker, "kind": kind, "error": str(error),
            "finished_at": time.time()})
        inject("queue.post-outcome", key=key, worker=worker)
        self.release(key, worker)

    def _finished(self, key: str) -> bool:
        return self.done_path(key).exists() or self.failed_path(key).exists()

    def outstanding(self) -> List[str]:
        """Keys with no outcome yet (pending or in flight), sorted."""
        if not self.cells_dir.is_dir():
            return []
        return [path.stem for path in sorted(self.cells_dir.glob("*.json"))
                if not self._finished(path.stem)]

    def done_records(self) -> Dict[str, Dict[str, Any]]:
        """Completion records by cell key."""
        return self._records(self.done_dir)

    def failed_records(self) -> Dict[str, Dict[str, Any]]:
        """Failure records by cell key."""
        return self._records(self.failed_dir)

    def _records(self, directory: Path) -> Dict[str, Dict[str, Any]]:
        if not directory.is_dir():
            return {}
        records = {}
        for path in sorted(directory.glob("*.json")):
            data = self._read_json(path)
            if data is not None:
                records[path.stem] = data
        return records

    # -- status -----------------------------------------------------------
    def status(self) -> QueueStatus:
        """One consistent-enough snapshot for progress reporting."""
        done = self.done_records()
        failed = self.failed_records()
        status = QueueStatus(done=len(done), failed=len(failed))
        keys = ([path.stem for path in self.cells_dir.glob("*.json")]
                if self.cells_dir.is_dir() else [])
        status.total = len(keys)
        for key in keys:
            if key in done or key in failed:
                continue
            info = self.lease_info(key)
            if info is not None:
                status.leased += 1
                status.leases.append(info)
            else:
                status.pending += 1
        for record in done.values():
            worker = str(record.get("worker", "?"))
            status.done_by_worker[worker] = (
                status.done_by_worker.get(worker, 0) + 1)
        for record in failed.values():
            worker = str(record.get("worker", "?"))
            status.failed_by_worker[worker] = (
                status.failed_by_worker.get(worker, 0) + 1)
        status.leases.sort(key=lambda lease: lease.key)
        return status
