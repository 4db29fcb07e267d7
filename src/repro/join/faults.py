"""Deterministic fault injection for the supervised batch executor.

Every recovery path of :mod:`repro.join.supervisor` — worker crashes, hung
chunks, poisoned pairs — must be testable in CI without flaky timing
games.  This module injects those faults
*deterministically*: each decision hashes a stable key (fault kind, chunk
index, attempt number, pair indices ...) with a seed, so a given spec
reproduces the same fault schedule on every run, while retries (which bump
the attempt number) can deterministically succeed.

Activation
----------
* **Environment**: ``RTED_FAULT_INJECT="worker_crash:0.1;chunk_hang:0.05"``
  (kind:rate pairs separated by ``;``; ``RTED_FAULT_SEED`` selects the
  schedule).  ``chunk_hang`` accepts an optional duration suffix:
  ``chunk_hang:0.1@30`` hangs for 30 s (the supervisor's timeout is expected
  to kill it long before that).
* **Programmatic**: :func:`install_plan` / :func:`use_plan` with a
  :class:`FaultPlan`.  An installed plan overrides the environment;
  ``install_plan(None)`` explicitly disables injection regardless of the
  environment.

The plan active in the batch parent is threaded through the pool
initializer (``_init_worker`` → :func:`mark_worker`), so workers never
re-read the environment and spawn-based platforms behave like fork.

Fault kinds
-----------
``worker_crash``
    ``os._exit(137)`` at chunk start — an OOM-killed / segfaulting worker.
    Keyed on ``(chunk_index, attempt)``; fires only in worker processes.
``chunk_hang``
    Sleep at chunk start (default 600 s) — a wedged worker.  Keyed on
    ``(chunk_index, attempt)``; fires only in worker processes.
``poison_pair``
    Raises :class:`~repro.exceptions.InjectedFaultError` for the pair on
    *every* rung, including the serial fallback.  Keyed on ``(i, j)`` — a
    poisoned pair stays poisoned across retries, driving the batch all the
    way down to per-pair reporting.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, Optional, Tuple

from ..exceptions import FaultInjectionError, InjectedFaultError

#: Environment variables consumed by :func:`active_plan`.
FAULT_ENV = "RTED_FAULT_INJECT"
SEED_ENV = "RTED_FAULT_SEED"

WORKER_CRASH = "worker_crash"
CHUNK_HANG = "chunk_hang"
POISON_PAIR = "poison_pair"

#: Every recognized fault kind (unknown kinds in a spec raise).
KINDS = (WORKER_CRASH, CHUNK_HANG, POISON_PAIR)

#: Exit status used by injected crashes (mirrors a SIGKILL-ed worker).
CRASH_EXIT_CODE = 137

#: Default injected hang duration; the supervisor's chunk timeout is meant
#: to tear the worker down long before the sleep completes.
DEFAULT_HANG_SECONDS = 600.0


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable fault schedule.

    ``rates`` maps fault kinds to probabilities in ``[0, 1]``; ``seed``
    selects which keys fire at a given rate.  Decisions are pure functions
    of ``(seed, kind, key)`` — see :meth:`decide` — so a plan is
    reproducible across processes and runs.
    """

    rates: Dict[str, float] = field(default_factory=dict)
    seed: int = 0
    hang_seconds: float = DEFAULT_HANG_SECONDS

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> Optional["FaultPlan"]:
        """Parse a ``kind:rate[;kind:rate...]`` spec (``None`` for empty)."""
        spec = (spec or "").strip()
        if not spec:
            return None
        rates: Dict[str, float] = {}
        hang_seconds = DEFAULT_HANG_SECONDS
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            kind, _, rate_text = part.partition(":")
            kind = kind.strip()
            if kind not in KINDS:
                raise FaultInjectionError(
                    f"unknown fault kind {kind!r} in {FAULT_ENV} spec "
                    f"(expected one of {', '.join(KINDS)})"
                )
            rate_text = rate_text.strip()
            if kind == CHUNK_HANG and "@" in rate_text:
                rate_text, _, duration_text = rate_text.partition("@")
                try:
                    hang_seconds = float(duration_text)
                except ValueError:
                    raise FaultInjectionError(
                        f"bad hang duration {duration_text!r} in {FAULT_ENV} spec"
                    ) from None
            try:
                rate = float(rate_text)
            except ValueError:
                raise FaultInjectionError(
                    f"bad rate {rate_text!r} for fault {kind!r} in {FAULT_ENV} spec"
                ) from None
            if not 0.0 <= rate <= 1.0:
                raise FaultInjectionError(
                    f"rate for fault {kind!r} must be in [0, 1], got {rate!r}"
                )
            rates[kind] = rate
        if not any(rates.values()):
            return None
        return cls(rates=rates, seed=seed, hang_seconds=hang_seconds)

    def decide(self, kind: str, *key) -> bool:
        """Deterministic Bernoulli draw for ``kind`` at ``key``."""
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        digest = hashlib.sha256(
            f"{self.seed}|{kind}|{key!r}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64 < rate


@lru_cache(maxsize=8)
def _plan_from_env(spec: str, seed_text: str) -> Optional[FaultPlan]:
    try:
        seed = int(seed_text)
    except ValueError:
        raise FaultInjectionError(f"{SEED_ENV} must be an integer, got {seed_text!r}")
    return FaultPlan.parse(spec, seed=seed)


# Module state: a programmatic override (``_UNSET`` = defer to the
# environment) and whether this process is a supervised worker (the only
# place worker_crash / chunk_hang may fire).
_UNSET = object()
_ACTIVE = _UNSET
_IN_WORKER = False


def active_plan() -> Optional[FaultPlan]:
    """The fault plan in effect: the installed plan, else the environment."""
    if _ACTIVE is not _UNSET:
        return _ACTIVE
    return _plan_from_env(
        os.environ.get(FAULT_ENV, ""), os.environ.get(SEED_ENV, "0")
    )


def install_plan(plan: Optional[FaultPlan]) -> None:
    """Install a programmatic plan (``None`` disables injection entirely)."""
    global _ACTIVE
    _ACTIVE = plan


def clear_plan() -> None:
    """Remove any programmatic plan; the environment applies again."""
    global _ACTIVE
    _ACTIVE = _UNSET


@contextmanager
def use_plan(plan: Optional[FaultPlan]):
    """Context manager around :func:`install_plan` / :func:`clear_plan`."""
    global _ACTIVE
    previous = _ACTIVE
    install_plan(plan)
    try:
        yield plan
    finally:
        _ACTIVE = previous


def mark_worker(plan: Optional[FaultPlan]) -> None:
    """Adopt the parent's plan inside a supervised worker process."""
    global _IN_WORKER
    install_plan(plan)
    _IN_WORKER = True


def fire_worker_faults(chunk_index: int, attempt: int) -> None:
    """Crash or hang the current *worker* process per the active plan.

    No-op in the batch parent — the serial fallback rung must never inherit
    the worker-level failure modes it exists to recover from.
    """
    if not _IN_WORKER:
        return
    plan = active_plan()
    if plan is None:
        return
    if plan.decide(WORKER_CRASH, chunk_index, attempt):
        os._exit(CRASH_EXIT_CODE)
    if plan.decide(CHUNK_HANG, chunk_index, attempt):
        time.sleep(plan.hang_seconds)


def check_pair(i: int, j: int) -> None:
    """Raise :class:`InjectedFaultError` if the pair ``(i, j)`` is poisoned."""
    plan = active_plan()
    if plan is not None and plan.decide(POISON_PAIR, int(i), int(j)):
        raise InjectedFaultError(f"injected poison for pair ({i}, {j})")


def check_pairs(pairs: Iterable[Tuple[int, int]]) -> None:
    """Raise on the first poisoned pair of a chunk (cheap when inactive)."""
    plan = active_plan()
    if plan is None or plan.rates.get(POISON_PAIR, 0.0) <= 0.0:
        return
    for i, j in pairs:
        check_pair(i, j)
