"""Shared-memory transport for NumPy-bearing object trees.

Process-pool campaigns ship large hit/ring arrays between the parent
and its workers.  Pickling those arrays through a pipe copies every
byte twice (serialize + deserialize) and stalls the queue on large
payloads.  ``pack`` instead extracts every sizeable ``ndarray`` from an
arbitrary picklable object tree into a single
:class:`multiprocessing.shared_memory.SharedMemory` block and pickles only
the remaining skeleton (dataclasses, tuples, scalars, small arrays), so a
``TrainingData`` fragment or an ``EventSet`` crosses the process boundary
with one bulk memcpy per side and a few hundred bytes on the pipe.

Ownership protocol (keeps the ``resource_tracker`` quiet): the *creating*
process is the only one that ever calls ``unlink``.  The consumer attaches
by name, copies the arrays out (``unpack`` always returns fresh writable
arrays), and closes its mapping; the creator unlinks once it knows the
payload was consumed (in the executor: when the consumer's next message
arrives).

Crash accounting: every block is named ``repro-shm-<owner pid>-<seq>`` so
a segment orphaned by a killed process is attributable after the fact.
:func:`sweep_stale` removes segments whose owner is no longer alive — the
executor runs it at startup (janitor for previous crashed runs) and after
reaping a dead worker; ``scripts/check_shm.py`` runs it as a CI gate.
"""

from __future__ import annotations

import io
import itertools
import os
import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: Arrays at or above this many bytes travel through shared memory;
#: smaller ones ride the pickle skeleton (a pipe round-trip is cheaper
#: than an extra mmap for tiny payloads).
SHM_THRESHOLD_BYTES = 16_384

#: Every block this module creates is named ``<prefix>-<pid>-<seq>``.
SHM_NAME_PREFIX = "repro-shm"

#: Where POSIX shared memory surfaces as files (Linux).  On platforms
#: without it, :func:`list_segments` degrades to an empty listing.
_SHM_DIR = "/dev/shm"

_name_counter = itertools.count()  # reprolint: disable=WRK001 -- per-process counter, pid-fenced via _next_name


def _next_name() -> str:
    """A process-unique segment name encoding the owning pid."""
    return f"{SHM_NAME_PREFIX}-{os.getpid()}-{next(_name_counter)}"


def owner_pid(name: str) -> int | None:
    """The pid encoded in a segment name, or None for foreign names."""
    parts = name.split("-")
    if len(parts) != 4 or "-".join(parts[:2]) != SHM_NAME_PREFIX:
        return None
    try:
        return int(parts[2])
    except ValueError:
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def list_segments(pids: "set[int] | None" = None) -> list[str]:
    """Names of live ``repro-shm`` segments, optionally filtered by owner.

    Args:
        pids: Restrict to segments owned by these pids (None lists all).
    """
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    out = []
    for entry in entries:
        pid = owner_pid(entry)
        if pid is None:
            continue
        if pids is None or pid in pids:
            out.append(entry)
    return sorted(out)


def sweep_stale(extra_pids: "set[int] | None" = None) -> list[str]:
    """Unlink orphaned segments; return the names removed.

    A segment is orphaned when its owning process is dead — a previous
    run that crashed before its ``unlink``, or a worker the executor had
    to kill.  ``extra_pids`` marks owners known-dead by the caller (a
    just-reaped worker) even if the pid has been recycled.
    """
    removed = []
    extra = extra_pids or set()
    for name in list_segments():
        pid = owner_pid(name)
        if pid in extra or not _pid_alive(pid):
            try:
                seg = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            seg.close()
            try:
                seg.unlink()
            except FileNotFoundError:
                continue
            removed.append(name)
    if removed:
        obs_metrics.inc("shm.segments_swept", len(removed))
    return removed


@dataclass
class PackedPayload:
    """One packed object tree.

    Attributes:
        skeleton: Pickle of the object tree with large arrays replaced by
            persistent-id placeholders.
        shm_name: Name of the shared-memory block holding the extracted
            arrays, or None when nothing crossed the threshold.
        array_meta: Per-extracted-array ``(dtype_str, shape, offset)``.
    """

    skeleton: bytes
    shm_name: str | None
    array_meta: list[tuple[str, tuple[int, ...], int]]


class _ArrayExtractingPickler(pickle.Pickler):
    """Pickler that siphons large ndarrays off into a side list."""

    def __init__(self, file: io.BytesIO, arrays: list[np.ndarray], threshold: int):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._arrays = arrays
        self._threshold = threshold

    def persistent_id(self, obj):  # noqa: D102 (pickle hook)
        if (
            type(obj) is np.ndarray
            and obj.dtype != object
            and obj.nbytes >= self._threshold
        ):
            self._arrays.append(np.ascontiguousarray(obj))
            return len(self._arrays) - 1
        return None


class _ArrayInsertingUnpickler(pickle.Unpickler):
    """Unpickler resolving persistent ids against reconstructed arrays."""

    def __init__(self, file: io.BytesIO, arrays: list[np.ndarray]):
        super().__init__(file)
        self._arrays = arrays

    def persistent_load(self, pid):  # noqa: D102 (pickle hook)
        return self._arrays[pid]


def pack(obj: object, threshold: int = SHM_THRESHOLD_BYTES) -> PackedPayload:
    """Pack a picklable object tree, large arrays into shared memory.

    Args:
        obj: Any picklable object (nested dataclasses/containers fine).
        threshold: Minimum array size in bytes for shm extraction.

    Returns:
        A :class:`PackedPayload` (safe to pickle through a queue).
    """
    with obs_trace.span("shm.pack"):
        buf = io.BytesIO()
        arrays: list[np.ndarray] = []
        _ArrayExtractingPickler(buf, arrays, threshold).dump(obj)
        if not arrays:
            return PackedPayload(
                skeleton=buf.getvalue(), shm_name=None, array_meta=[]
            )
        total = sum(a.nbytes for a in arrays)
        while True:
            # A recycled pid can collide with a dead run's leftover name;
            # advance the counter past it rather than fail the pack.
            try:
                shm = shared_memory.SharedMemory(
                    name=_next_name(), create=True, size=max(total, 1)
                )
                break
            except FileExistsError:
                continue
        meta: list[tuple[str, tuple[int, ...], int]] = []
        offset = 0
        for a in arrays:
            if a.nbytes:
                view = np.ndarray(
                    a.shape, dtype=a.dtype, buffer=shm.buf, offset=offset
                )
                view[...] = a
            meta.append((a.dtype.str, a.shape, offset))
            offset += a.nbytes
        name = shm.name
        shm.close()  # unmap our view; the segment lives until unlink()
        obs_metrics.inc("shm.blocks_created")
        obs_metrics.inc("shm.bytes_packed", total)
        return PackedPayload(skeleton=buf.getvalue(), shm_name=name, array_meta=meta)


def unpack(payload: PackedPayload) -> object:
    """Reconstruct the object tree from a packed payload.

    Arrays are *copied* out of shared memory, so the result stays valid
    after the block is unlinked and is writable like any fresh array.
    """
    with obs_trace.span("shm.unpack"):
        arrays: list[np.ndarray] = []
        if payload.shm_name is not None:
            shm = shared_memory.SharedMemory(name=payload.shm_name)
            try:
                for dtype_str, shape, offset in payload.array_meta:
                    dt = np.dtype(dtype_str)
                    if int(np.prod(shape)) == 0:
                        arrays.append(np.empty(shape, dtype=dt))
                    else:
                        view = np.ndarray(
                            shape, dtype=dt, buffer=shm.buf, offset=offset
                        )
                        arrays.append(view.copy())
            finally:
                shm.close()
            obs_metrics.inc("shm.blocks_attached")
        return _ArrayInsertingUnpickler(
            io.BytesIO(payload.skeleton), arrays
        ).load()


def unlink(payload: PackedPayload) -> None:
    """Release the payload's shared-memory block (creator side).

    Safe to call on array-free payloads and idempotent against an
    already-released block.
    """
    if payload.shm_name is None:
        return
    try:
        shm = shared_memory.SharedMemory(name=payload.shm_name)
    except FileNotFoundError:
        return
    shm.close()
    shm.unlink()
