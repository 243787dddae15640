"""Unit tests for spans and the tracer."""

import threading

import pytest

from repro.obs import Tracer


class TestNesting:
    def test_children_attach_to_innermost(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                with tracer.span("leaf"):
                    pass
        assert outer.children == [inner]
        assert inner.children[0].name == "leaf"
        assert tracer.roots() == [outer]

    def test_attribution_goes_to_innermost(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.attribute("pages", 1)
            with tracer.span("inner") as inner:
                tracer.attribute("pages", 2)
        assert inner.metrics == {"pages": 2}

    def test_close_rolls_children_up(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.attribute("pages", 1)
            with tracer.span("inner"):
                tracer.attribute("pages", 2)
                tracer.attribute("words", 10)
        assert outer.metrics == {"pages": 3, "words": 10}

    def test_attribute_outside_any_span_is_a_noop(self):
        tracer = Tracer()
        tracer.attribute("pages", 1)
        assert tracer.roots() == []

    def test_current_tracks_the_stack(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("a") as a:
            assert tracer.current is a
            with tracer.span("b") as b:
                assert tracer.current is b
            assert tracer.current is a
        assert tracer.current is None


class TestSpanLifecycle:
    def test_duration_set_on_close(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            assert span.duration_s is None
        assert span.duration_s is not None
        assert span.duration_s >= 0

    def test_double_close_keeps_first_duration(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            tracer.attribute("x", 1)
        duration = span.duration_s
        span.close()
        assert span.duration_s == duration
        assert span.metrics == {"x": 1}  # no double roll-up

    def test_tags_are_stringified(self):
        tracer = Tracer()
        with tracer.span("s", n=5, codec="wah") as span:
            pass
        assert span.tags == {"n": "5", "codec": "wah"}

    def test_exception_inside_span_still_closes_it(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("s") as span:
                raise RuntimeError("boom")
        assert span.duration_s is not None
        assert tracer.current is None

    def test_forgotten_inner_spans_are_closed_defensively(self):
        tracer = Tracer()
        outer_ctx = tracer.span("outer")
        outer = outer_ctx.__enter__()
        inner = tracer.span("inner").__enter__()  # never exited
        outer_ctx.__exit__(None, None, None)
        assert inner.duration_s is not None
        assert tracer.current is None
        assert outer.duration_s is not None


class TestRetention:
    def test_last_filters_by_name(self):
        tracer = Tracer()
        with tracer.span("query", scheme="E"):
            pass
        with tracer.span("experiment"):
            pass
        assert tracer.last().name == "experiment"
        assert tracer.last("query").tags == {"scheme": "E"}
        assert tracer.last("nope") is None

    def test_bounded_roots(self):
        tracer = Tracer(max_roots=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.roots()] == ["s2", "s3", "s4"]
        assert tracer.dropped_roots == 2
        assert tracer.to_dict()["dropped_roots"] == 2

    def test_to_dict_shape(self):
        tracer = Tracer()
        with tracer.span("query", scheme="E"):
            tracer.attribute("pages", 2)
        out = tracer.to_dict()
        (span,) = out["spans"]
        assert span["name"] == "query"
        assert span["tags"] == {"scheme": "E"}
        assert span["metrics"] == {"pages": 2}
        assert span["duration_ms"] >= 0


class TestThreads:
    def test_each_thread_nests_under_its_own_root(self):
        """Concurrent ``query`` -> ``fetch`` nests never cross threads."""
        tracer = Tracer()
        opened = threading.Barrier(2, timeout=10)
        nested = threading.Barrier(2, timeout=10)

        def client(name):
            with tracer.span("query", client=name):
                opened.wait()  # both roots open before either child
                with tracer.span("fetch", client=name):
                    tracer.attribute("pages", 1)
                    nested.wait()  # both children open at once

        threads = [
            threading.Thread(target=client, args=(name,)) for name in "ab"
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()

        roots = tracer.roots()
        assert sorted(root.tags["client"] for root in roots) == ["a", "b"]
        for root in roots:
            assert root.name == "query"
            assert [child.name for child in root.children] == ["fetch"]
            assert root.children[0].tags == root.tags
            assert root.metrics == {"pages": 1}
        assert tracer.current is None
