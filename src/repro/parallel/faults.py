"""Fault injection and retry for parallel workers.

Two halves, both deterministic:

* :class:`FaultInjector` — a picklable, *stateless* crash simulator.
  Whether attempt ``a`` of shard ``k`` fails is a pure function of
  ``(seed, k, a)`` (an sha256-derived uniform draw against ``rate``),
  so a run is reproducible across processes and platforms, and a
  retried attempt re-rolls instead of failing forever.  ``mode="raise"``
  leaves a torn ``.part`` file behind and raises (a worker dying
  mid-write); ``mode="kill"`` calls ``os._exit`` (a worker hard-killed,
  which breaks the whole :class:`~concurrent.futures.ProcessPoolExecutor`).
* :class:`RetryPolicy` + :func:`map_with_retry` — bounded retries with
  exponential backoff and deterministic jitter.  ``map_with_retry`` is
  the executor loop under sharded generation: it runs one *round* of all pending tasks per pool, treats a
  broken pool as a failure of that round's unfinished tasks (the pool
  is recreated next round), and raises :class:`RetryBudgetExceeded`
  once any task exhausts its budget — after completed tasks have been
  handed to ``on_success``, so an interrupted run's manifest still
  records everything that finished.

Nothing here imports the generation code; the hooks are generic over
``(key, args)`` task lists.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.obs import get_events, get_metrics

__all__ = [
    "FaultInjectedError",
    "RetryBudgetExceeded",
    "FaultInjector",
    "RetryPolicy",
    "map_with_retry",
    "stable_uniform",
]

#: The ``area`` of :func:`map_with_retry`'s ``task.*`` events, and the
#: prefix of its counters; shard generation is its one caller.
RETRY_AREA = "parallel.generate"


class FaultInjectedError(RuntimeError):
    """Raised by :class:`FaultInjector` to simulate a worker crash."""


class RetryBudgetExceeded(RuntimeError):
    """A task failed more times than the :class:`RetryPolicy` allows."""

    def __init__(self, key: Any, attempts: int, last_error: BaseException, n_failed: int = 1):
        self.key = key
        self.attempts = attempts
        self.last_error = last_error
        self.n_failed = n_failed
        super().__init__(
            f"task {key!r} failed {attempts} time(s), retry budget exhausted "
            f"({n_failed} task(s) failing this round); last error: {last_error!r}"
        )


def stable_uniform(*parts: Any) -> float:
    """A uniform draw in ``[0, 1)`` that is a pure function of ``parts``.

    sha256-based, so identical across processes, platforms, and
    ``PYTHONHASHSEED`` values — the backbone of deterministic fault
    schedules and backoff jitter.
    """
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultInjector:
    """Deterministic crash simulator, safe to pickle into workers.

    ``rate`` is the per-attempt failure probability; ``fail_attempts``
    (when set) overrides it with "fail the first N attempts of every
    shard, then succeed" — handy for asserting exact retry counts.
    """

    rate: float = 0.0
    seed: int = 0
    mode: str = "raise"  # "raise" | "kill"
    fail_attempts: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.mode not in ("raise", "kill"):
            raise ValueError(f"unknown fault mode {self.mode!r}")

    def should_fail(self, key: Any, attempt: int) -> bool:
        if self.fail_attempts is not None:
            return attempt < self.fail_attempts
        return stable_uniform(self.seed, key, attempt) < self.rate

    def maybe_fail(self, key: Any, attempt: int, partial_path: Optional[str] = None) -> None:
        """Crash (by the configured mode) iff this attempt is scheduled to.

        When ``partial_path`` is given, a torn file is left at that path
        first — simulating a worker that died mid-write, so callers can
        prove torn temp files never reach the final shard name.
        """
        if not self.should_fail(key, attempt):
            return
        if partial_path is not None:
            Path(partial_path).write_bytes(b"torn shard: fault injected mid-write")
        if self.mode == "kill":
            os._exit(17)
        raise FaultInjectedError(f"injected fault: task {key!r}, attempt {attempt}")

    def without_kill(self) -> "FaultInjector":
        """The same schedule, but raising instead of hard-exiting.

        The serial (``n_workers <= 1``) path runs workers in-process,
        where ``os._exit`` would take the caller down with the "worker".
        """
        if self.mode == "kill":
            return replace(self, mode="raise")
        return self


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``delay(attempt)`` grows as ``base_delay * multiplier**attempt``,
    capped at ``max_delay``, then stretched by up to ``jitter`` —
    where the jitter fraction is a :func:`stable_uniform` draw over
    ``(seed, token, attempt)``, so the full schedule is reproducible
    under a fixed seed (asserted in tests).
    """

    max_retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be non-negative")

    def delay(self, attempt: int, token: Any = 0) -> float:
        base = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        return base * (1.0 + self.jitter * stable_uniform(self.seed, "delay", token, attempt))

    def schedule(self, token: Any = 0) -> list[float]:
        """The full backoff schedule for one task (one entry per retry)."""
        return [self.delay(attempt, token) for attempt in range(self.max_retries)]


def map_with_retry(
    fn: Callable[..., Any],
    tasks: Sequence[tuple[Any, tuple]],
    *,
    n_workers: int,
    policy: Optional[RetryPolicy] = None,
    injector: Optional[FaultInjector] = None,
    on_success: Optional[Callable[[Any, Any], None]] = None,
) -> dict[Any, Any]:
    """Run ``fn(*args, attempt=..., injector=...)`` per task, with retries.

    ``tasks`` is a list of ``(key, args)``; returns ``{key: result}``.
    Failed tasks (worker exceptions *and* hard-killed workers, which
    surface as a broken pool) are retried up to ``policy.max_retries``
    times with backoff; the pool is rebuilt between rounds so one dead
    worker cannot poison the rest of the run.  Successes are reported to
    ``on_success`` (e.g. a manifest update) as they land, *before* any
    :class:`RetryBudgetExceeded` is raised for tasks that ran dry.

    Emits ``parallel.generate.retries_total`` and
    ``parallel.generate.task_failures_total`` on the ambient registry,
    and per-task lifecycle events (``task.completed`` / ``task.failed`` /
    ``task.retried`` / ``task.budget_exhausted``, each tagged
    ``area="parallel.generate"``) on the ambient event log.
    """
    policy = policy or RetryPolicy()
    metrics = get_metrics()
    events = get_events()
    results: dict[Any, Any] = {}
    attempts: dict[Any, int] = {key: 0 for key, _ in tasks}
    pending: list[tuple[Any, tuple]] = list(tasks)

    def _completed(key: Any, result: Any) -> None:
        results[key] = result
        if events.enabled:
            events.emit(
                "task.completed", area=RETRY_AREA, key=str(key), attempt=attempts[key]
            )
        if on_success is not None:
            on_success(key, result)

    while pending:
        failed: list[tuple[Any, tuple, BaseException]] = []
        if n_workers <= 1:
            serial_injector = injector.without_kill() if injector is not None else None
            for key, args in pending:
                try:
                    result = fn(*args, attempt=attempts[key], injector=serial_injector)
                except Exception as exc:
                    failed.append((key, args, exc))
                else:
                    _completed(key, result)
        else:
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                futures = {
                    pool.submit(fn, *args, attempt=attempts[key], injector=injector): (key, args)
                    for key, args in pending
                }
                for future, (key, args) in futures.items():
                    try:
                        result = future.result()
                    except Exception as exc:
                        # Includes BrokenProcessPool: a killed worker fails
                        # every unfinished task of this round; the pool is
                        # recreated on the next round.
                        failed.append((key, args, exc))
                    else:
                        _completed(key, result)
        if not failed:
            break
        metrics.counter("parallel.generate.task_failures_total").inc(len(failed))
        pending = []
        round_delay = 0.0
        for key, args, exc in failed:
            attempt = attempts[key]
            if events.enabled:
                events.emit(
                    "task.failed",
                    area=RETRY_AREA,
                    key=str(key),
                    attempt=attempt,
                    error=repr(exc),
                )
            if attempt >= policy.max_retries:
                if events.enabled:
                    events.emit(
                        "task.budget_exhausted",
                        area=RETRY_AREA,
                        key=str(key),
                        attempts=attempt + 1,
                    )
                    events.flush()
                raise RetryBudgetExceeded(key, attempt + 1, exc, n_failed=len(failed))
            metrics.counter("parallel.generate.retries_total").inc()
            delay = policy.delay(attempt, token=key)
            round_delay = max(round_delay, delay)
            attempts[key] = attempt + 1
            pending.append((key, args))
            if events.enabled:
                events.emit(
                    "task.retried",
                    area=RETRY_AREA,
                    key=str(key),
                    next_attempt=attempt + 1,
                    delay_s=round(delay, 6),
                )
        if round_delay > 0:
            time.sleep(round_delay)
    return results
