"""Zero-copy sharing of corpus pack arrays across join worker processes.

The multiprocessing paths of :func:`repro.join.batch.batch_distances` ship
the corpus *trees* to each worker once (pickled through the pool init), and
before this module every worker also had to rebuild its own
:class:`~repro.algorithms.batch_kernel.CorpusPack` — an ``O(Σ n)`` packing
pass plus a full duplicate of the struct-of-arrays tables per process.
Here the parent serializes the pack **once** into a
:class:`multiprocessing.shared_memory.SharedMemory` block and workers map
the same physical pages read-only-by-convention, so attaching is ``O(1)``
per worker and the per-tree arrays plus interned label codes exist once in
RAM regardless of worker count.

Lifecycle / ownership
---------------------
* The **parent** calls :func:`export_pack`, keeps the returned
  :class:`SharedPackHandle` alive while the pool runs, and calls
  :meth:`SharedPackHandle.close` (which unlinks) after the pool has been
  torn down.  A module-level ``atexit`` hook plus a polite ``SIGTERM``
  handler (installed only when the process had none) unlink any still-open
  handles on abnormal parent exit, and blocks are *named*
  ``rted_pack_<pid>_<token>`` so :func:`reap_stale` can remove segments
  orphaned by a parent that died uncleanly (``kill -9`` bypasses every
  in-process hook).
* **Workers** call :func:`attach_pack` with the picklable descriptor.  The
  attached pack's arrays are views into the mapped block; the mapping is
  pinned by the pack's ``_shm`` anchor for the pack's lifetime.  Workers
  never unlink.
* Attaching unregisters the segment from the worker-side
  :mod:`multiprocessing.resource_tracker`, otherwise every worker exit
  would try to destroy the parent's segment (the well-known spurious
  "leaked shared_memory" teardown).

Everything degrades gracefully: platforms without ``shared_memory`` (or
sandboxes denying ``/dev/shm``) make :func:`shared_available` return
``False`` and the join falls back to per-worker pack rebuilds, bit-identical
either way.
"""

from __future__ import annotations

import atexit
import os
import secrets
import signal
import weakref
from typing import Any, Dict, List, Optional, Tuple

try:  # Optional accelerator, mirroring repro.algorithms.workspace.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

from ..algorithms.batch_kernel import CorpusPack
from . import faults

try:
    from multiprocessing import shared_memory as _shm_mod
except ImportError:  # pragma: no cover - ancient/embedded platforms
    _shm_mod = None


def shared_available() -> bool:
    """Whether shared-memory pack export can be attempted at all."""
    return _shm_mod is not None and _np is not None


#: Scalar (non-array) pack fields carried inside the descriptor.
_SCALAR_FIELDS = ("n_trees",)

#: Naming prefix of exported blocks.  Embedding the exporting pid lets
#: :func:`reap_stale` distinguish orphans (owner dead) from live exports.
SHM_PREFIX = "rted_pack_"

#: Where POSIX shared memory surfaces as files (Linux).  ``reap_stale``
#: is a no-op on platforms without it.
_SHM_DIR = "/dev/shm"

# Handles still owning a block, for the crash-exit safety nets below.  A
# WeakSet so the hooks never keep an abandoned handle (or its mapped block)
# alive — `__del__` unlinks a collected one instead.
_LIVE_HANDLES: "weakref.WeakSet[SharedPackHandle]" = weakref.WeakSet()
_HOOKS_INSTALLED = False


def _cleanup_live_handles() -> None:
    """Unlink every still-open exported block (atexit / signal safety net)."""
    for handle in list(_LIVE_HANDLES):
        handle.close()


def _sigterm_cleanup(signum, frame):  # pragma: no cover - signal path
    _cleanup_live_handles()
    # Restore the default disposition and re-deliver, so the process still
    # dies with the conventional termination status.
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _install_cleanup_hooks() -> None:
    """One-time registration of the abnormal-exit safety nets.

    ``atexit`` covers normal interpreter shutdown and unhandled exceptions;
    a ``SIGTERM`` handler covers polite external kills — installed only
    when the process has no handler of its own (never clobber an embedding
    application's signal handling).  ``SIGKILL`` cannot be hooked; those
    orphans are what :func:`reap_stale` is for.
    """
    global _HOOKS_INSTALLED
    if _HOOKS_INSTALLED:
        return
    _HOOKS_INSTALLED = True
    atexit.register(_cleanup_live_handles)
    try:
        if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
            signal.signal(signal.SIGTERM, _sigterm_cleanup)
    except (ValueError, OSError, AttributeError):  # pragma: no cover
        pass  # non-main thread or platform without SIGTERM


class SharedPackHandle:
    """Parent-side owner of one exported pack's shared-memory block."""

    __slots__ = ("_shm", "_closed", "__weakref__")

    def __init__(self, shm) -> None:
        self._shm = shm
        self._closed = False
        _install_cleanup_hooks()
        _LIVE_HANDLES.add(self)

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        """Close and unlink the block (idempotent)."""
        if self._closed:
            return
        self._closed = True
        _LIVE_HANDLES.discard(self)
        try:
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - teardown race
            pass

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        self.close()


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (EPERM counts as alive)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - someone else's process
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return True
    return True


def _owner_pid(block_name: str) -> Optional[int]:
    """The exporting pid embedded in a block name, or ``None`` if foreign."""
    if not block_name.startswith(SHM_PREFIX):
        return None
    rest = block_name[len(SHM_PREFIX):]
    pid_text, _, _token = rest.partition("_")
    try:
        return int(pid_text)
    except ValueError:
        return None


def reap_stale(dry_run: bool = False) -> List[str]:
    """Remove orphaned exported blocks whose owning process is gone.

    Scans ``/dev/shm`` for ``rted_pack_<pid>_*`` entries and unlinks those
    whose pid is dead — the leftovers of a parent killed with ``SIGKILL``
    (no in-process hook can run there).  Blocks of live processes and
    foreign ``psm_*`` segments are never touched.  Returns the names of the
    blocks removed (or, with ``dry_run``, the ones that would be).
    Exposed on the CLI as ``rted shm-reap``.
    """
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:  # pragma: no cover - non-Linux or masked /dev/shm
        return []
    reaped: List[str] = []
    for entry in entries:
        pid = _owner_pid(entry)
        if pid is None or pid == os.getpid() or _pid_alive(pid):
            continue
        if not dry_run:
            try:
                os.unlink(os.path.join(_SHM_DIR, entry))
            except OSError:  # pragma: no cover - concurrent reap
                continue
        reaped.append(entry)
    return reaped


def export_pack(pack: CorpusPack, epoch: int = 0):
    """Serialize ``pack`` into one shared-memory block.

    Returns ``(handle, descriptor)`` — the parent keeps ``handle`` alive
    while workers run and closes it afterwards; ``descriptor`` is a small
    picklable dict for :func:`attach_pack`.  Returns ``None`` when shared
    memory is unavailable or the export fails (callers fall back to
    rebuilding packs per worker).

    ``epoch`` stamps the exporting corpus's version into the descriptor
    (``descriptor["epoch"]``).  Exports are per-fan-out — the parent builds
    them from its epoch-keyed pack cache and unlinks them when the fan-out
    ends — so the stamp is provenance for debugging and tests, not a
    liveness check; blocks orphaned by killed parents are reclaimed by
    :func:`reap_stale` regardless of epoch.
    """
    if not shared_available():
        return None
    layout: List[Tuple[str, int, Tuple[int, ...], str]] = []
    offset = 0
    arrays = []
    for field in CorpusPack.ARRAY_FIELDS:
        arr = _np.ascontiguousarray(getattr(pack, field))
        # 8-byte alignment for every field keeps attached views aligned
        # regardless of the dtype mix (bool fields have 1-byte items).
        offset = (offset + 7) & ~7
        layout.append((field, offset, arr.shape, arr.dtype.str))
        arrays.append((offset, arr))
        offset += arr.nbytes
    shm = None
    size = max(1, offset)
    # Named blocks (pid + random token) so orphans are attributable and
    # reap-able; fall back to an anonymous block if naming ever collides
    # or the platform rejects our names.
    for _ in range(3):
        name = f"{SHM_PREFIX}{os.getpid()}_{secrets.token_hex(4)}"
        try:
            shm = _shm_mod.SharedMemory(create=True, size=size, name=name)
            break
        except FileExistsError:  # pragma: no cover - 32-bit token collision
            continue
        except (OSError, ValueError):  # pragma: no cover - naming quirk
            break
    if shm is None:
        try:
            shm = _shm_mod.SharedMemory(create=True, size=size)
        except (OSError, ValueError):  # pragma: no cover - /dev/shm unavailable
            return None
    try:
        for off, arr in arrays:
            dst = _np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=off)
            dst[...] = arr
    except Exception:  # pragma: no cover - defensive: never leak the block
        shm.close()
        shm.unlink()
        raise
    descriptor: Dict[str, Any] = {
        "shm_name": shm.name,
        "layout": layout,
        "epoch": int(epoch),
    }
    for field in _SCALAR_FIELDS:
        descriptor[field] = int(getattr(pack, field))
    return SharedPackHandle(shm), descriptor


def attach_pack(descriptor: Dict[str, Any]) -> Optional[CorpusPack]:
    """Rebuild a :class:`CorpusPack` over an exported block, zero-copy.

    Every array field is a view into the mapped segment — nothing is
    copied, and the mapping stays alive exactly as long as the returned
    pack (anchored through its ``_shm`` slot).  Returns ``None`` if the
    segment cannot be attached (parent already gone, platform quirk);
    callers then rebuild the pack locally.
    """
    if not shared_available():
        return None
    if faults.shm_attach_fails():
        # Deterministic fault injection: pretend the attach failed so the
        # local-rebuild fallback is exercised (results stay bit-identical).
        return None
    # Attaching must not register the segment with the resource tracker:
    # ownership stays with the exporting parent, and (pre-3.13, where
    # ``track=False`` landed) tracked attachments both spam tracker
    # KeyErrors — forked workers share one tracker, so N attach/unregister
    # cycles double-remove one cache entry — and race to destroy the
    # parent's segment on worker exit.  Suppress registration around the
    # attach instead of unregistering after it.
    try:
        from multiprocessing import resource_tracker

        _register = resource_tracker.register

        def _register_skip_shm(name, rtype):  # pragma: no cover - trivial
            if rtype != "shared_memory":
                _register(name, rtype)

        resource_tracker.register = _register_skip_shm
    except Exception:  # pragma: no cover - tracker is platform-dependent
        resource_tracker = None
        _register = None
    try:
        shm = _shm_mod.SharedMemory(name=descriptor["shm_name"])
    except (OSError, FileNotFoundError):  # pragma: no cover - parent raced away
        return None
    finally:
        if _register is not None:
            resource_tracker.register = _register
    fields: Dict[str, Any] = {"_shm": shm}
    for name in _SCALAR_FIELDS:
        fields[name] = descriptor[name]
    for field, offset, shape, dtype in descriptor["layout"]:
        fields[field] = _np.ndarray(
            shape, dtype=_np.dtype(dtype), buffer=shm.buf, offset=offset
        )
    return CorpusPack(**fields)
