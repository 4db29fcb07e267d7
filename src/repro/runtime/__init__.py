"""Cooperative cancellation, deadlines and hardened environment parsing.

The compute kernels of this package are long-running dynamic programs: a
single adversarial pair can keep a row loop busy for seconds.  A serving
layer (:mod:`repro.service`) — or any caller with a latency budget — needs a
way to *cancel* such a computation mid-flight without killing the process.
This module provides the primitives:

:class:`Deadline`
    A monotonic-clock expiry (optionally combined with a
    :class:`CancelToken`).  Kernels test it *amortized*: :meth:`Deadline.tick`
    only reads the clock every N calls, with N adapted on the fly so that
    clock reads happen roughly once per :data:`TARGET_RESOLUTION` seconds —
    the per-row overhead stays below 1% regardless of row cost (measured in
    ``benchmarks/bench_service.py``), while expiry is still detected within a
    small multiple of the resolution.

:class:`CancelToken`
    A thread-safe cancellation flag.  Cancelling a token makes every
    :class:`Deadline` carrying it expire immediately — the serving layer's
    graceful drain uses this to cut short in-flight work.

:func:`deadline_scope` / :func:`active_deadline`
    Thread-local propagation.  ``compute(deadline=...)`` installs the
    deadline for the duration of the call; the row kernels (``spf.py``,
    which ``batch_kernel.run_batch`` also drives, and ``spf_numpy.py``) pick
    it up via :func:`active_deadline` without any per-kernel plumbing.  A ``None``
    scope is a no-op, so nested computations inherit the caller's deadline.

Expiry raises :class:`~repro.exceptions.ComputeTimeoutError` — unlike the
``cutoff=τ`` machinery (which converts its internal ``CutoffExceeded`` into a
:class:`~repro.algorithms.base.BoundedResult`), a deadline carries no partial
answer for a single pair, so it propagates as an exception through the public
API.  The checks read state only and never alter the DP arithmetic: results
on the no-deadline path — and on armed runs that finish in time — stay
bit-identical to deadline-free runs.

The module also centralizes *hardened* environment parsing
(:func:`env_int` / :func:`env_float` / :func:`env_flag`): a malformed value
like ``RTED_CHUNK_TIMEOUT=abc`` warns and falls back to the default instead
of raising at import or call time.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from contextlib import contextmanager
from typing import Iterator, Optional, Union

from ..exceptions import ComputeTimeoutError, ReproError

__all__ = [
    "CancelToken",
    "ComputeTimeoutError",
    "Deadline",
    "TARGET_RESOLUTION",
    "active_deadline",
    "as_deadline",
    "deadline_scope",
    "env_flag",
    "env_float",
    "env_int",
]


# --------------------------------------------------------------------------- #
# Hardened environment parsing
# --------------------------------------------------------------------------- #

def _env_warn(name: str, raw: str, expected: str, default) -> None:
    warnings.warn(
        f"ignoring malformed environment variable {name}={raw!r} "
        f"(expected {expected}); using default {default!r}",
        RuntimeWarning,
        stacklevel=3,
    )


def env_int(
    name: str,
    default: Optional[int] = None,
    minimum: Optional[int] = None,
) -> Optional[int]:
    """Integer environment override with warn-and-fallback semantics.

    A malformed value (``RTED_FOO=abc``) — or one below ``minimum`` — emits a
    :class:`RuntimeWarning` and returns ``default`` instead of raising, so a
    typo in a deployment environment never takes the process down at import
    time.  An unset or empty variable returns ``default`` silently.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        _env_warn(name, raw, "an integer", default)
        return default
    if minimum is not None and value < minimum:
        _env_warn(name, raw, f"an integer >= {minimum}", default)
        return default
    return value


def env_float(
    name: str,
    default: Optional[float] = None,
    minimum: Optional[float] = None,
    positive: bool = False,
) -> Optional[float]:
    """Float environment override with warn-and-fallback semantics."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw)
    except ValueError:
        _env_warn(name, raw, "a number", default)
        return default
    if value != value:  # NaN never represents a usable setting
        _env_warn(name, raw, "a number", default)
        return default
    if positive and value <= 0:
        _env_warn(name, raw, "a positive number", default)
        return default
    if minimum is not None and value < minimum:
        _env_warn(name, raw, f"a number >= {minimum}", default)
        return default
    return value


_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


def env_flag(name: str, default: bool = False) -> bool:
    """Boolean environment override (``1/true/yes/on`` vs ``0/false/no/off``).

    Unrecognized words warn and fall back to ``default`` — consistent with
    :func:`env_int` — rather than silently counting as truthy.  An unset or
    empty variable returns ``default`` silently.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    word = raw.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    _env_warn(name, raw, "a boolean (1/0/true/false/yes/no/on/off)", default)
    return default


# --------------------------------------------------------------------------- #
# Cancellation primitives
# --------------------------------------------------------------------------- #

#: Aimed-for wall-clock spacing of *actual* clock reads inside
#: :meth:`Deadline.tick`.  The adaptive interval grows until consecutive
#: reads are at least ~this far apart (bounding overhead) and shrinks when
#: they drift far beyond it (bounding detection latency).  Override with
#: ``RTED_DEADLINE_RESOLUTION`` (seconds).
TARGET_RESOLUTION: float = env_float("RTED_DEADLINE_RESOLUTION", 0.005, minimum=1e-5)

#: Upper bound on the adaptive tick interval — a backstop so a burst of
#: ultra-cheap ticks can never push the next clock read arbitrarily far out.
_MAX_INTERVAL = 1 << 22


class CancelToken:
    """Thread-safe cooperative cancellation flag.

    Sharable across threads (the serving layer cancels compute threads from
    the event loop); a :class:`Deadline` carrying a cancelled token reports
    itself expired on its next check.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CancelToken(cancelled={self.cancelled})"


class Deadline:
    """A monotonic-clock compute budget, tested amortized inside kernels.

    Parameters
    ----------
    timeout:
        Budget in seconds from now.  ``None`` (with no ``expires_at``) makes
        a deadline that never expires by time — useful to carry only a
        :class:`CancelToken`.
    expires_at:
        Absolute ``time.monotonic()`` expiry, overriding ``timeout``.  On
        Linux the monotonic clock is system-wide, so an absolute expiry is
        meaningful across processes on the same machine.
    token:
        Optional :class:`CancelToken`; cancelling it expires the deadline
        immediately.

    The hot-path method is :meth:`tick`: a counter increment almost always,
    a clock read every ``interval`` calls, where ``interval`` doubles while
    reads arrive faster than :data:`TARGET_RESOLUTION` and halves when they
    lag far behind it.  Kernels may also read :attr:`interval` and keep a
    local countdown, calling :meth:`poll` only when it runs out — the
    cheapest inlined form for scalar row loops.
    """

    __slots__ = ("expires_at", "token", "_count", "_interval", "_last_check")

    def __init__(
        self,
        timeout: Optional[float] = None,
        *,
        expires_at: Optional[float] = None,
        token: Optional[CancelToken] = None,
    ) -> None:
        if expires_at is None and timeout is not None:
            expires_at = time.monotonic() + float(timeout)
        self.expires_at = expires_at
        self.token = token
        self._count = 0
        self._interval = 4  # start conservative; adapts upward in ticks
        self._last_check = time.monotonic()

    # -- introspection -------------------------------------------------- #
    @property
    def interval(self) -> int:
        """Current amortization interval (ticks per clock read)."""
        return self._interval

    def remaining(self) -> float:
        """Seconds until expiry (``inf`` for token-only deadlines)."""
        if self.token is not None and self.token.cancelled:
            return 0.0
        if self.expires_at is None:
            return float("inf")
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        """Whether the budget is exhausted or the token cancelled."""
        if self.token is not None and self.token.cancelled:
            return True
        return self.expires_at is not None and time.monotonic() >= self.expires_at

    # -- checking ------------------------------------------------------- #
    def check(self) -> None:
        """Raise :class:`ComputeTimeoutError` if expired (unamortized)."""
        if self.expired():
            raise ComputeTimeoutError(self._message())

    def poll(self) -> None:
        """One *actual* clock check plus interval adaptation.

        Called by :meth:`tick` every ``interval`` ticks, or directly by
        kernels that inline the countdown themselves.
        """
        now = time.monotonic()
        elapsed = now - self._last_check
        self._last_check = now
        # Adapt: clock reads should land roughly TARGET_RESOLUTION apart.
        if elapsed < 0.25 * TARGET_RESOLUTION:
            if self._interval < _MAX_INTERVAL:
                self._interval <<= 1
        elif elapsed > 4.0 * TARGET_RESOLUTION and self._interval > 1:
            self._interval >>= 1
        if (self.token is not None and self.token.cancelled) or (
            self.expires_at is not None and now >= self.expires_at
        ):
            raise ComputeTimeoutError(self._message())

    def tick(self, weight: int = 1) -> None:
        """Amortized check: counts ``weight`` units, polls every ``interval``."""
        self._count += weight
        if self._count >= self._interval:
            self._count = 0
            self.poll()

    def _message(self) -> str:
        if self.token is not None and self.token.cancelled:
            return "computation cancelled"
        return "compute deadline exceeded"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Deadline(remaining={self.remaining():.3f}s, "
            f"interval={self._interval})"
        )


DeadlineLike = Union[None, int, float, Deadline]


def as_deadline(value: DeadlineLike) -> Optional[Deadline]:
    """Coerce ``None`` / seconds / :class:`Deadline` into a deadline.

    A plain number is a budget in seconds from now; non-positive budgets
    produce an already-expired deadline (checks fire on first tick), and
    invalid types raise :class:`~repro.exceptions.ReproError` so API misuse
    surfaces immediately rather than as a never-expiring deadline.
    """
    if value is None or isinstance(value, Deadline):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ReproError(
            f"deadline must be a number of seconds or a Deadline, "
            f"got {type(value).__name__}"
        )
    return Deadline(float(value))


# --------------------------------------------------------------------------- #
# Thread-local propagation
# --------------------------------------------------------------------------- #

_LOCAL = threading.local()


def active_deadline() -> Optional[Deadline]:
    """The deadline installed by the innermost :func:`deadline_scope`."""
    return getattr(_LOCAL, "deadline", None)


@contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Install ``deadline`` as the ambient deadline of the current thread.

    ``None`` is a no-op that *preserves* any outer scope — so a library call
    without an explicit deadline still honors its caller's budget — while a
    non-``None`` deadline shadows the outer one for the duration.
    """
    if deadline is None:
        yield active_deadline()
        return
    previous = getattr(_LOCAL, "deadline", None)
    _LOCAL.deadline = deadline
    try:
        yield deadline
    finally:
        _LOCAL.deadline = previous
