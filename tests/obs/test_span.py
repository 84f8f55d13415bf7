"""Spans: nesting, exception safety, thread safety, null overhead."""

import threading
import time

import pytest

from repro.obs import NULL_SPAN, NULL_TRACER, NullTracer, Span, Tracer


class TestStandaloneSpan:
    def test_elapsed_nonnegative(self):
        with Span("work") as sp:
            sum(range(1000))
        assert sp.elapsed > 0.0
        assert sp.status == "ok"

    def test_elapsed_tracks_wall_clock(self):
        with Span() as sp:
            time.sleep(0.02)
        assert 0.015 <= sp.elapsed < 1.0

    def test_exit_without_enter_raises(self):
        with pytest.raises(RuntimeError, match="without being entered"):
            Span("never").__exit__(None, None, None)

    def test_attrs_and_counters(self):
        with Span("work", kind="unit") as sp:
            sp.set(rows=3)
            sp.count("blocks")
            sp.count("blocks", 2)
        d = sp.to_dict()
        assert d["attrs"] == {"kind": "unit", "rows": 3}
        assert d["counters"] == {"blocks": 3}

    def test_reusable(self):
        sp = Span("again")
        with sp:
            pass
        first = sp.elapsed
        with sp:
            sum(range(10000))
        assert sp.elapsed > 0.0
        assert sp.elapsed is not first

    def test_exception_marks_error_and_propagates(self):
        sp = Span("boom")
        with pytest.raises(ValueError):
            with sp:
                raise ValueError("nope")
        assert sp.status == "error"
        assert sp.attrs["exception"] == "ValueError"
        assert sp.elapsed > 0.0


class TestTracerNesting:
    def test_children_attach_to_open_parent(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child-a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child-b"):
                pass
        (root,) = tracer.roots()
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert [c.name for c in root.children[0].children] == ["grandchild"]

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots()] == ["first", "second"]

    def test_find_depth_first(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("inner") as sp:
                sp.set(hit=True)
        assert tracer.find("inner").attrs == {"hit": True}
        assert tracer.find("missing") is None

    def test_exception_unwinds_stack(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                with tracer.span("fails"):
                    raise RuntimeError("boom")
        # Stack fully unwound: the next span is a fresh root.
        with tracer.span("after"):
            pass
        assert [r.name for r in tracer.roots()] == ["root", "after"]
        assert tracer.find("fails").status == "error"

    def test_current_tracks_innermost(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer"):
            with tracer.span("inner") as sp:
                assert tracer.current is sp
        assert tracer.current is None

    def test_to_dicts_roundtrip_shape(self):
        tracer = Tracer()
        with tracer.span("root", tag="x"):
            with tracer.span("leaf"):
                pass
        (d,) = tracer.to_dicts()
        assert d["name"] == "root"
        assert d["attrs"] == {"tag": "x"}
        assert [c["name"] for c in d["children"]] == ["leaf"]
        assert d["elapsed_s"] >= 0.0


class TestThreadSafety:
    def test_each_thread_builds_its_own_tree(self):
        tracer = Tracer()
        barrier = threading.Barrier(4)

        def work(tid):
            barrier.wait()
            with tracer.span(f"thread-{tid}"):
                with tracer.span(f"inner-{tid}"):
                    pass

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = tracer.roots()
        assert sorted(r.name for r in roots) == [f"thread-{t}" for t in range(4)]
        for r in roots:
            tid = r.name.split("-")[1]
            assert [c.name for c in r.children] == [f"inner-{tid}"]


class TestNullTracer:
    def test_span_is_shared_noop(self):
        assert NULL_TRACER.span("anything") is NULL_SPAN
        with NULL_TRACER.span("a") as sp:
            with NULL_TRACER.span("b"):
                sp.set(x=1)
                sp.count("y")
        assert NULL_TRACER.roots() == []
        assert NULL_TRACER.to_dicts() == []
        assert NULL_TRACER.find("a") is None

    def test_disabled_flag(self):
        assert not NullTracer().enabled
        assert Tracer().enabled
