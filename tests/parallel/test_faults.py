"""Tests for fault injection, backoff, retry, and crash/resume.

The headline property (the PR's acceptance criterion): a run whose
workers die mid-shard resumes with ``resume=True`` and ends with a
complete manifest whose per-shard checksums equal a clean single-pass
run's — the torn run is indistinguishable, byte-for-byte, from the
clean one.
"""

import numpy as np
import pytest

from repro.generators import complete_bipartite, cycle_graph
from repro.kronecker import Assumption, make_bipartite_product
from repro.obs import instrument
from repro.parallel import (
    FaultInjectedError,
    FaultInjector,
    RetryBudgetExceeded,
    RetryPolicy,
    generate_chain_shards,
    load_manifest,
    load_shards,
    map_with_retry,
    verify_shards,
)
from repro.parallel.faults import stable_uniform

N_SHARDS = 6
# rate/seed chosen so the first pass completes *some but not all* shards
# (asserted below): the interesting crash, not the trivial ones.
CRASH = dict(rate=0.5, seed=7)


@pytest.fixture
def bk():
    return make_bipartite_product(
        cycle_graph(5), complete_bipartite(2, 3).graph, Assumption.NON_BIPARTITE_FACTOR
    )


@pytest.fixture
def chain(bk):
    return bk.chain


class TestDeterminism:
    def test_stable_uniform_is_stable(self):
        assert stable_uniform(1, "x", 3) == stable_uniform(1, "x", 3)
        assert 0.0 <= stable_uniform(0) < 1.0
        assert stable_uniform(1, 2) != stable_uniform(2, 1)

    def test_backoff_schedule_deterministic_under_seed(self):
        policy = RetryPolicy(max_retries=5, base_delay=0.1, max_delay=1.0, jitter=0.2, seed=11)
        assert policy.schedule() == policy.schedule()
        assert policy.schedule(token=3) == RetryPolicy(
            max_retries=5, base_delay=0.1, max_delay=1.0, jitter=0.2, seed=11
        ).schedule(token=3)
        assert policy.schedule() != RetryPolicy(
            max_retries=5, base_delay=0.1, max_delay=1.0, jitter=0.2, seed=12
        ).schedule()

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_retries=8, base_delay=0.1, max_delay=0.8, multiplier=2.0, jitter=0.25, seed=0
        )
        sched = policy.schedule()
        bases = [min(0.8, 0.1 * 2.0**a) for a in range(8)]
        for delay, base in zip(sched, bases):
            assert base <= delay <= base * 1.25
        # un-jittered base is non-decreasing and capped
        assert bases == sorted(bases)

    def test_injector_deterministic(self):
        inj = FaultInjector(rate=0.5, seed=3)
        decisions = [(k, a, inj.should_fail(k, a)) for k in range(8) for a in range(3)]
        again = FaultInjector(rate=0.5, seed=3)
        assert decisions == [(k, a, again.should_fail(k, a)) for k in range(8) for a in range(3)]
        # a retried attempt re-rolls: not all attempts of a shard agree
        per_shard = {k: {inj.should_fail(k, a) for a in range(6)} for k in range(8)}
        assert any(len(v) == 2 for v in per_shard.values())

    def test_injector_validation(self):
        with pytest.raises(ValueError, match="rate"):
            FaultInjector(rate=1.5)
        with pytest.raises(ValueError, match="mode"):
            FaultInjector(rate=0.5, mode="explode")
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)

    def test_fail_attempts_override(self):
        inj = FaultInjector(rate=0.0, fail_attempts=2)
        assert inj.should_fail(0, 0) and inj.should_fail(5, 1)
        assert not inj.should_fail(0, 2)


class TestMapWithRetry:
    def test_retry_until_success(self):
        inj = FaultInjector(rate=1.0, seed=0, fail_attempts=2)
        policy = RetryPolicy(max_retries=2, base_delay=0.0)

        results = map_with_retry(
            _flaky_square, [(k, (k,)) for k in range(4)],
            n_workers=1, policy=policy, injector=inj,
        )
        assert results == {k: k * k for k in range(4)}

    def test_budget_exceeded_raises(self):
        inj = FaultInjector(rate=1.0, seed=0)  # always fails
        with pytest.raises(RetryBudgetExceeded, match="retry budget exhausted"):
            map_with_retry(
                _flaky_square, [(0, (0,))],
                n_workers=1, policy=RetryPolicy(max_retries=1, base_delay=0.0), injector=inj,
            )

    def test_successes_reported_before_budget_raise(self):
        class OneBad(FaultInjector):
            def should_fail(self, key, attempt):
                return key == 1

        seen = {}
        with pytest.raises(RetryBudgetExceeded):
            map_with_retry(
                _flaky_square, [(k, (k,)) for k in range(3)],
                n_workers=1, policy=RetryPolicy(max_retries=0, base_delay=0.0),
                injector=OneBad(rate=1.0, seed=0),
                on_success=lambda k, r: seen.__setitem__(k, r),
            )
        assert seen == {0: 0, 2: 4}

    def test_retry_metrics_recorded(self):
        inj = FaultInjector(rate=1.0, seed=0, fail_attempts=1)
        with instrument() as (_, metrics):
            map_with_retry(
                _flaky_square, [(k, (k,)) for k in range(3)],
                n_workers=1, policy=RetryPolicy(max_retries=1, base_delay=0.0),
                injector=inj,
            )
            snap = metrics.snapshot()
        assert snap["counters"]["parallel.generate.retries_total"] == 3
        assert snap["counters"]["parallel.generate.task_failures_total"] == 3


class TestGenerateWithFaults:
    def test_every_shard_fails_once_then_succeeds(self, bk, chain, tmp_path):
        inj = FaultInjector(rate=1.0, seed=1, fail_attempts=1)
        with instrument() as (_, metrics):
            paths = generate_chain_shards(
                chain, tmp_path, n_shards=N_SHARDS, n_workers=2,
                retry=RetryPolicy(max_retries=2, base_delay=0.0), fault_injector=inj,
            )
            snap = metrics.snapshot()
        assert snap["counters"]["parallel.generate.retries_total"] == N_SHARDS
        manifest = verify_shards(tmp_path)
        assert manifest.is_complete()
        data = load_shards(paths, manifest=tmp_path)
        assert data["p"].size == bk.M.nnz * bk.B.graph.nnz

    def test_torn_part_files_never_pollute_shards(self, chain, tmp_path):
        inj = FaultInjector(rate=1.0, seed=1, fail_attempts=1)
        generate_chain_shards(
            chain, tmp_path, n_shards=3, n_workers=1,
            retry=RetryPolicy(max_retries=1, base_delay=0.0), fault_injector=inj,
        )
        assert not list(tmp_path.glob("*.part"))
        verify_shards(tmp_path)

    def test_crash_then_resume_matches_clean_run(self, chain, tmp_path):
        """The acceptance criterion, in miniature."""
        clean_paths = generate_chain_shards(
            chain, tmp_path / "clean", n_shards=N_SHARDS, n_workers=2
        )
        clean = load_manifest(tmp_path / "clean")

        crash_dir = tmp_path / "crash"
        with pytest.raises(RetryBudgetExceeded):
            generate_chain_shards(
                chain, crash_dir, n_shards=N_SHARDS, n_workers=2,
                retry=RetryPolicy(max_retries=0, base_delay=0.0),
                fault_injector=FaultInjector(**CRASH),
            )
        partial = load_manifest(crash_dir)
        assert 0 < len(partial.shards) < N_SHARDS  # genuinely partial
        # completed shards are already byte-identical to the clean run's
        for k, entry in partial.shards.items():
            assert entry.checksum == clean.shards[k].checksum

        paths = generate_chain_shards(
            chain, crash_dir, n_shards=N_SHARDS, n_workers=2, resume=True
        )
        resumed = verify_shards(crash_dir)
        assert resumed.is_complete()
        assert {k: e.checksum for k, e in resumed.shards.items()} == {
            k: e.checksum for k, e in clean.shards.items()
        }
        a = load_shards(paths, manifest=crash_dir)
        b = load_shards(clean_paths, manifest=tmp_path / "clean")
        assert np.array_equal(a["p"], b["p"]) and np.array_equal(a["q"], b["q"])

    def test_killed_worker_is_retried(self, bk, chain, tmp_path):
        """A hard-killed worker (os._exit) breaks the pool; the retry
        loop rebuilds it and the run completes."""
        inj = FaultInjector(rate=1.0, seed=2, mode="kill", fail_attempts=1)
        paths = generate_chain_shards(
            chain, tmp_path, n_shards=4, n_workers=2,
            retry=RetryPolicy(max_retries=3, base_delay=0.0), fault_injector=inj,
        )
        manifest = verify_shards(tmp_path)
        assert manifest.is_complete()
        data = load_shards(paths, manifest=tmp_path)
        assert data["p"].size == bk.M.nnz * bk.B.graph.nnz

    def test_serial_path_downgrades_kill_to_raise(self, chain, tmp_path):
        inj = FaultInjector(rate=1.0, seed=2, mode="kill", fail_attempts=1)
        generate_chain_shards(
            chain, tmp_path, n_shards=3, n_workers=1,
            retry=RetryPolicy(max_retries=1, base_delay=0.0), fault_injector=inj,
        )
        assert verify_shards(tmp_path).is_complete()

    def test_injected_error_message(self):
        inj = FaultInjector(rate=1.0, seed=0)
        with pytest.raises(FaultInjectedError, match="task 3, attempt 0"):
            inj.maybe_fail(3, 0)


def _flaky_square(x, attempt=0, injector=None):
    if injector is not None:
        injector.maybe_fail(x, attempt)
    return x * x
