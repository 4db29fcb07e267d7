"""The compiled small-pair kernel: a C translation unit built on demand.

This module holds the C implementation of the unit-cost small-pair program
(the left-path keyroot sweep, unbounded and banded); its Python twin is
:func:`repro.algorithms.batch_kernel.small_pair_regions`.  The single
provider, ``cc``, compiles :data:`_C_SOURCE` with the system compiler
(``$CC`` / ``cc`` / ``gcc`` / ``clang``) on first use and loads it through
:mod:`ctypes` — no third-party dependency at all.

Every entry point degrades gracefully: when no compiler is available — or
the ``RTED_NO_NATIVE=1`` kill-switch is set — callers receive ``None`` and
run the Python twin instead, bit-identically.  Callers never choose: single
pairs (``TedWorkspace.compute_small``) and batch lanes
(``batch_kernel.kernel_chunk_entries``) take the C kernel whenever it is
there.

Bit-identity: the C kernel executes the same integer-valued float64
arithmetic as the twin — every add is by 1.0, every min is exact — and the
bounded mode ports the banded sweep, the per-row abort test and the band
cell accounting statement by statement, so values, subproblem counts and
abort flags are equal, not just close.  The property suite asserts exact
equality whenever a compiler is present.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import shutil
import subprocess
import tempfile
import time
from types import SimpleNamespace
from typing import Optional, Sequence, Tuple

try:  # Optional accelerator, mirroring repro.algorithms.workspace.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None


#: Environment kill-switch: a truthy value (``1``/``true``/``yes``/``on``)
#: disables the compiled provider (CI legs set it to pin the Python twin).
#: Parsed with warn-and-fallback semantics — an unrecognized word warns and
#: leaves the provider enabled instead of silently killing it.
KILL_SWITCH = "RTED_NO_NATIVE"


def _killed() -> bool:
    from ..runtime import env_flag

    return env_flag(KILL_SWITCH, default=False)


# --------------------------------------------------------------------------- #
# The C provider
# --------------------------------------------------------------------------- #
#: The complete C translation unit: a batched port of
#: ``batch_kernel.small_pair_regions`` (unbounded and banded sweeps).  Lanes
#: are post-precheck — the ``|n − m| ≥ cutoff`` case never reaches the
#: kernel — and per-lane outputs mirror the scalar contract: the exact
#: distance, the evaluated cell count, and an abort flag whose value field
#: carries the proving bound (the cutoff, exactly like ``CutoffExceeded``).
_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

void ted_small_batch(
    const int64_t* lml_a, const int64_t* codes_a, const int64_t* kr_a,
    const int64_t* noff_a, const int64_t* koff_a, const int64_t* kcnt_a,
    const int64_t* sizes_a,
    const int64_t* lml_b, const int64_t* codes_b, const int64_t* kr_b,
    const int64_t* noff_b, const int64_t* koff_b, const int64_t* kcnt_b,
    const int64_t* sizes_b,
    const int64_t* fi, const int64_t* gi, int64_t npairs,
    int64_t has_cutoff, double cutoff,
    double* D, double* fd, int64_t fd_stride,
    double* out_val, int64_t* out_cells, uint8_t* out_ab)
{
    const double INF = HUGE_VAL;
    int64_t band_w = 0;
    if (has_cutoff) {
        band_w = (int64_t) ceil(cutoff) - 1;
        if (band_w < 0) band_w = 0;
    }
    for (int64_t p = 0; p < npairs; p++) {
        int64_t ta = fi[p], tb = gi[p];
        const int64_t* lml_f = lml_a + noff_a[ta];
        const int64_t* codes_f = codes_a + noff_a[ta];
        const int64_t* krf = kr_a + koff_a[ta];
        int64_t nkf = kcnt_a[ta];
        int64_t n = sizes_a[ta];
        const int64_t* lml_g = lml_b + noff_b[tb];
        const int64_t* codes_g = codes_b + noff_b[tb];
        const int64_t* krg = kr_b + koff_b[tb];
        int64_t nkg = kcnt_b[tb];
        int64_t m = sizes_b[tb];

        int64_t cells = 0;
        int aborted = 0;

        for (int64_t a = 0; a < nkf && !aborted; a++) {
            int64_t kf = krf[a];
            int64_t lf = lml_f[kf];
            int64_t rows = kf - lf + 2;
            for (int64_t b = 0; b < nkg && !aborted; b++) {
                int64_t kg = krg[b];
                int64_t lg = lml_g[kg];
                int64_t cols = kg - lg + 2;
                int final_region = has_cutoff && kf == n - 1 && kg == m - 1;
                double* row = fd;
                for (int64_t j = 0; j < cols; j++) row[j] = (double) j;
                if (!has_cutoff) {
                    for (int64_t i = 1; i < rows; i++) {
                        int64_t node_f = lf + i - 1;
                        int spans_f = lml_f[node_f] == lf;
                        int64_t code_f = codes_f[node_f];
                        int64_t offset = node_f * m;
                        double* prev = fd + (i - 1) * fd_stride;
                        double* cur = fd + i * fd_stride;
                        double* split_row = fd + (lml_f[node_f] - lf) * fd_stride;
                        cur[0] = (double) i;
                        for (int64_t j = 1; j < cols; j++) {
                            int64_t node_g = lg + j - 1;
                            double best = prev[j] + 1.0;
                            double cand = cur[j - 1] + 1.0;
                            if (cand < best) best = cand;
                            if (spans_f && lml_g[node_g] == lg) {
                                cand = prev[j - 1]
                                    + (code_f == codes_g[node_g] ? 0.0 : 1.0);
                                if (cand < best) best = cand;
                                cur[j] = best;
                                D[offset + node_g] = best;
                            } else {
                                cand = split_row[lml_g[node_g] - lg]
                                    + D[offset + node_g];
                                if (cand < best) best = cand;
                                cur[j] = best;
                            }
                        }
                    }
                    cells += (rows - 1) * (cols - 1);
                    continue;
                }
                /* tau-bounded banded sweep (batch_kernel.small_pair_regions) */
                for (int64_t i = 1; i < rows; i++) {
                    int64_t lo = i - band_w;
                    if (lo < 1) lo = 1;
                    int64_t hi = i + band_w;
                    if (hi > cols - 1) hi = cols - 1;
                    if (lo > hi) break;
                    int64_t node_f = lf + i - 1;
                    int spans_f = lml_f[node_f] == lf;
                    int64_t code_f = codes_f[node_f];
                    int64_t offset = node_f * m;
                    double* prev = fd + (i - 1) * fd_stride;
                    double* cur = fd + i * fd_stride;
                    cur[0] = (double) i;
                    if (lo > 1) cur[lo - 1] = INF;
                    int64_t si = lml_f[node_f] - lf;
                    double* split_row = fd + si * fd_stride;
                    int64_t rem_f_node = node_f - lml_f[node_f];
                    for (int64_t j = lo; j <= hi; j++) {
                        int64_t node_g = lg + j - 1;
                        double best = prev[j] + 1.0;
                        double cand = cur[j - 1] + 1.0;
                        if (cand < best) best = cand;
                        if (spans_f && lml_g[node_g] == lg) {
                            cand = prev[j - 1]
                                + (code_f == codes_g[node_g] ? 0.0 : 1.0);
                            if (cand < best) best = cand;
                            cur[j] = best;
                            D[offset + node_g] = best;
                        } else {
                            int64_t sc = lml_g[node_g] - lg;
                            if (si == 0 || sc == 0
                                || (si - band_w <= sc && sc <= si + band_w))
                                cand = split_row[sc];
                            else
                                cand = INF;
                            int64_t rem_g_node = node_g - lml_g[node_g];
                            int64_t dr = rem_f_node - rem_g_node;
                            if (dr < 0) dr = -dr;
                            if (dr <= band_w)
                                cand += D[offset + node_g];
                            else
                                cand = INF;
                            if (cand < best) best = cand;
                            cur[j] = best;
                        }
                    }
                    if (hi + 1 <= cols - 1) cur[hi + 1] = INF;
                    cells += hi - lo + 1;
                    if (final_region) {
                        /* base.check_row_cutoff(row, cols, rows-1-i, cutoff,
                         * band=1, lo, hi, exact_values=False) */
                        int64_t rem_f = rows - 1 - i;
                        int64_t diag = cols - 1 - rem_f;
                        if (lo <= diag && diag <= hi && cur[diag] < cutoff)
                            continue;
                        double best = INF;
                        if (lo > 0) {
                            int64_t d0 = rem_f - (cols - 1);
                            if (d0 < 0) d0 = -d0;
                            best = cur[0] + (double) d0;
                        }
                        for (int64_t j = lo; j <= hi; j++) {
                            int64_t dj = rem_f - (cols - 1 - j);
                            if (dj < 0) dj = -dj;
                            double t = cur[j] + (double) dj;
                            if (t < best) best = t;
                        }
                        if (best >= cutoff) {
                            aborted = 1;
                            break;
                        }
                    }
                }
            }
        }
        if (aborted) {
            out_val[p] = cutoff;
            out_cells[p] = cells;
            out_ab[p] = 1;
            continue;
        }
        double distance = D[(n - 1) * m + m - 1];
        if (has_cutoff && distance >= cutoff) {
            out_val[p] = cutoff;
            out_cells[p] = cells;
            out_ab[p] = 1;
            continue;
        }
        out_val[p] = distance;
        out_cells[p] = cells;
        out_ab[p] = 0;
    }
}
"""


def _find_compiler() -> Optional[str]:
    explicit = os.environ.get("CC")
    if explicit:
        resolved = shutil.which(explicit)
        if resolved:
            return resolved
    for name in ("cc", "gcc", "clang"):
        resolved = shutil.which(name)
        if resolved:
            return resolved
    return None


#: How long a recorded compile failure suppresses further compiler
#: invocations (seconds).  Long enough that a broken toolchain costs one
#: ``cc`` call per session rather than one per TED call; short enough that
#: a fixed toolchain is picked up without manual cache clearing.
_FAILURE_MARKER_TTL = 600.0


def _atomic_write(path: str, data: str) -> None:
    """Write ``path`` via temp file + atomic rename (no torn reads ever)."""
    directory = os.path.dirname(path)
    with tempfile.NamedTemporaryFile(
        "w", dir=directory, suffix=".tmp", delete=False
    ) as tmp:
        tmp.write(data)
        tmp_path = tmp.name
    os.replace(tmp_path, path)


def _read_failure_marker(marker_path: str) -> Optional[str]:
    """The recorded failure reason, or ``None`` if absent/expired."""
    try:
        age = time.time() - os.path.getmtime(marker_path)
        if age > _FAILURE_MARKER_TTL:
            os.unlink(marker_path)
            return None
        with open(marker_path) as handle:
            return handle.read().strip() or "compile failed"
    except OSError:
        return None


def _compile_cc_library():
    """Compile :data:`_C_SOURCE` and return the loaded ctypes library.

    The shared object is cached in the temp directory keyed by a source
    hash, so repeated processes (multiprocessing workers, test runs) reuse
    one compilation; the build itself is a single ~0.3 s compiler call.
    Both the ``.c`` source and the ``.so`` are written via temp file +
    atomic rename, so concurrent first calls (a worker pool warming up)
    can never observe a torn file.  A failed compile is *negative-cached*
    in a ``.failed`` marker next to the library for
    :data:`_FAILURE_MARKER_TTL` seconds — a broken toolchain degrades to
    the interpreted kernels without re-invoking ``cc`` on every probe.
    Any failure — no compiler, sandboxed temp dir, broken toolchain —
    propagates to the provider probe, which records the backend as
    unavailable.
    """
    import ctypes

    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler on PATH")
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache_dir = os.path.join(tempfile.gettempdir(), "rted-native")
    os.makedirs(cache_dir, exist_ok=True)
    lib_path = os.path.join(cache_dir, f"ted_native_{digest}.so")
    marker_path = lib_path + ".failed"
    if not os.path.exists(lib_path):
        failure = _read_failure_marker(marker_path)
        if failure is not None:
            raise RuntimeError(f"compile previously failed (cached): {failure}")
        src_path = os.path.join(cache_dir, f"ted_native_{digest}.c")
        _atomic_write(src_path, _C_SOURCE)
        with tempfile.NamedTemporaryFile(
            dir=cache_dir, suffix=".so", delete=False
        ) as tmp:
            tmp_path = tmp.name
        try:
            subprocess.run(
                [compiler, "-O2", "-shared", "-fPIC", "-o", tmp_path, src_path, "-lm"],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp_path, lib_path)  # atomic vs. concurrent builders
        except BaseException as exc:
            reason = f"{type(exc).__name__}: {exc}"
            stderr = getattr(exc, "stderr", None)
            if stderr:
                if isinstance(stderr, bytes):
                    stderr = stderr.decode(errors="replace")
                reason = f"{reason}\n{stderr}"
            try:
                _atomic_write(marker_path, reason)
            except OSError:  # pragma: no cover - read-only cache dir
                pass
            raise
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
    try:
        os.unlink(marker_path)  # stale marker from a since-fixed toolchain
    except OSError:
        pass
    lib = ctypes.CDLL(lib_path)
    i64 = ctypes.c_int64
    pi64 = ctypes.POINTER(i64)
    pf64 = ctypes.POINTER(ctypes.c_double)
    pu8 = ctypes.POINTER(ctypes.c_uint8)
    lib.ted_small_batch.restype = None
    lib.ted_small_batch.argtypes = (
        [pi64] * 7 + [pi64] * 7 + [pi64, pi64, i64, i64, ctypes.c_double]
        + [pf64, pf64, i64, pf64, pi64, pu8]
    )
    return lib


# --------------------------------------------------------------------------- #
# Provider discovery (cached; the kill-switch is re-read on every call)
# --------------------------------------------------------------------------- #
_PROVIDER: Optional[str] = None
_PROBED = False
_CC_LIB = None


def _probe() -> Optional[str]:
    global _PROVIDER, _PROBED, _CC_LIB
    if _PROBED:
        return _PROVIDER
    _PROBED = True
    _PROVIDER = None
    if _np is None:
        return None
    try:
        _CC_LIB = _compile_cc_library()
        _PROVIDER = "cc"
    except Exception:
        _CC_LIB = None
    return _PROVIDER


def native_provider() -> Optional[str]:
    """The active compiled provider (``"cc"``) or ``None``."""
    if _killed():
        return None
    return _probe()


def native_available() -> bool:
    """Whether the compiled provider is usable (and not killed by env)."""
    return native_provider() is not None


def _reset_provider_cache() -> None:
    """Testing hook: forget the probe result (e.g. around env changes)."""
    global _PROBED, _PROVIDER, _CC_LIB
    _PROBED = False
    _PROVIDER = None
    _CC_LIB = None


atexit.register(_reset_provider_cache)


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
def native_batch(pack_a, pack_b, fi, gi, cutoff: Optional[float] = None):
    """Batched small-pair TED over :class:`CorpusPack` lanes, compiled.

    Same contract as :func:`repro.algorithms.batch_kernel.run_batch` —
    eligible, post-precheck lanes in, ``(values, cells, aborted)`` out,
    bit-identical to the Python twin — or ``None`` when no provider is
    available (callers run the twin instead).
    """
    provider = native_provider()
    if provider is None:
        return None
    fi = _np.ascontiguousarray(fi, dtype=_np.int64)
    gi = _np.ascontiguousarray(gi, dtype=_np.int64)
    npairs = fi.size
    values = _np.empty(npairs, dtype=_np.float64)
    cells = _np.zeros(npairs, dtype=_np.int64)
    aborted_u8 = _np.zeros(npairs, dtype=_np.uint8)
    if npairs == 0:
        return values, cells, aborted_u8.astype(bool)
    max_n = int(pack_a.sizes[fi].max())
    max_m = int(pack_b.sizes[gi].max())
    has_cutoff = cutoff is not None
    cut = float(cutoff) if has_cutoff else -1.0
    D = _np.zeros(max_n * max_m, dtype=_np.float64)
    arrays_a = (
        pack_a.lml_flat, pack_a.codes_flat, pack_a.kroots,
        pack_a.node_off, pack_a.kr_off, pack_a.kr_count, pack_a.sizes,
    )
    arrays_b = (
        pack_b.lml_flat, pack_b.codes_flat, pack_b.kroots,
        pack_b.node_off, pack_b.kr_off, pack_b.kr_count, pack_b.sizes,
    )
    import ctypes

    fd = _np.zeros((max_n + 1) * (max_m + 1), dtype=_np.float64)
    pi64 = ctypes.POINTER(ctypes.c_int64)
    pf64 = ctypes.POINTER(ctypes.c_double)
    pu8 = ctypes.POINTER(ctypes.c_uint8)

    def _ip(arr):
        return _np.ascontiguousarray(arr, dtype=_np.int64).ctypes.data_as(pi64)

    _CC_LIB.ted_small_batch(
        *[_ip(x) for x in arrays_a],
        *[_ip(x) for x in arrays_b],
        fi.ctypes.data_as(pi64), gi.ctypes.data_as(pi64), npairs,
        1 if has_cutoff else 0, cut,
        D.ctypes.data_as(pf64), fd.ctypes.data_as(pf64), max_m + 1,
        values.ctypes.data_as(pf64), cells.ctypes.data_as(pi64),
        aborted_u8.ctypes.data_as(pu8),
    )
    return values, cells, aborted_u8.astype(bool)


def _one_tree_pack(lml, keyroots, codes, n: int) -> SimpleNamespace:
    """A single-tree stand-in for a :class:`CorpusPack` (the fields
    :func:`native_batch` reads)."""
    return SimpleNamespace(
        lml_flat=_np.asarray(lml, dtype=_np.int64),
        codes_flat=_np.asarray(codes, dtype=_np.int64),
        kroots=_np.asarray(keyroots, dtype=_np.int64),
        node_off=_np.zeros(1, dtype=_np.int64),
        kr_off=_np.zeros(1, dtype=_np.int64),
        kr_count=_np.asarray([len(keyroots)], dtype=_np.int64),
        sizes=_np.asarray([n], dtype=_np.int64),
    )


def native_small_pair(
    arrays_f: Tuple[Sequence[int], Sequence[int], Sequence[int]],
    n: int,
    arrays_g: Tuple[Sequence[int], Sequence[int], Sequence[int]],
    m: int,
    cutoff: Optional[float] = None,
) -> Optional[Tuple[float, int, bool]]:
    """One pair through the compiled kernel.

    ``arrays_*`` are the ``(lml, keyroots, codes)`` triples of
    ``TedWorkspace._small_arrays``.  Returns ``(value, cells, aborted)`` or
    ``None`` when no provider is available.  The per-call array packing
    costs a few µs — still several times cheaper than the Python twin;
    corpus batches amortize it via :func:`native_batch`.
    """
    if native_provider() is None:
        return None
    out = native_batch(
        _one_tree_pack(*arrays_f, n), _one_tree_pack(*arrays_g, m), [0], [0],
        cutoff=cutoff,
    )
    if out is None:
        return None
    values, cells, aborted = out
    return float(values[0]), int(cells[0]), bool(aborted[0])
