"""Shared fixtures for the benchmark suite.

Heavy shared objects are session-scoped.  Results are *recorded*, not
printed: every bench pushes a one-line summary (plus its numbers) into
the session :class:`~record.BenchRecorder`, which writes one
``BENCH_<name>.json`` run record per bench module at session end and
echoes the summaries into pytest's terminal-summary section — so the
numbers survive a plain ``pytest benchmarks/`` run without ``-s``.

``REPRO_BENCH_QUICK=1`` swaps the unicode-scale factor for a small
stand-in; that mode exists for the CI smoke job (validate the record
plumbing in seconds), not for real measurements.
"""

import os

import pytest
from record import BenchRecorder

from repro.generators import complete_bipartite, konect_unicode_like
from repro.kronecker import Assumption, make_bipartite_product

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))


@pytest.fixture(scope="session")
def unicode_like():
    if QUICK:
        return complete_bipartite(6, 8)
    return konect_unicode_like()


@pytest.fixture(scope="session")
def unicode_product(unicode_like):
    return make_bipartite_product(
        unicode_like, unicode_like, Assumption.SELF_LOOPS_FACTOR, require_connected=False
    )


@pytest.fixture(scope="session")
def bench_recorder(request):
    recorder = BenchRecorder()
    request.config._bench_recorder = recorder
    yield recorder
    recorder.flush()


@pytest.fixture
def record_bench(bench_recorder, request):
    """Callable recording this bench's result row.

    ``record_bench("8.7M entries in 0.01 s", entries=8_700_000)`` files
    the row under the module's record name (``bench_generation`` →
    ``BENCH_generation.json``) keyed by the test function's name.
    """
    record_name = request.module.__name__.removeprefix("bench_")
    bench = request.node.name

    def _record(summary: str, **fields):
        return bench_recorder.add(record_name, bench, summary, quick=QUICK, **fields)

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    recorder = getattr(config, "_bench_recorder", None)
    if recorder is None:
        return
    lines = recorder.summaries()
    if lines:
        terminalreporter.section("bench records")
        for line in lines:
            terminalreporter.write_line(line)
