"""Tests of the benchmark's own arithmetic (no workload is run).

Run with ``python -m pytest perfbench/test_perfbench.py`` or
``python3 -m unittest discover -s perfbench``.
"""

from __future__ import annotations

import unittest

import pbstats
import pbtrace


class FakeClock:
    """A clock that moves only when the test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_leaves_ten_samples_beyond(self):
        self.assertEqual(pbstats.highest_percentile(1000), 99.0)
        self.assertEqual(pbstats.highest_percentile(100), 90.0)
        self.assertEqual(pbstats.highest_percentile(40), 75.0)
        self.assertEqual(pbstats.highest_percentile(10), 0.0)

    def test_rule_holds_at_the_cap_for_every_size(self):
        for n in range(11, 400):
            values = list(range(n))
            q = pbstats.highest_percentile(n)
            value = pbstats.percentile(values, q)
            self.assertEqual(sum(1 for v in values if v > value), 10, n)

    def test_tail_is_capped_by_the_rule(self):
        values = [float(v) for v in range(1, 41)]
        q, value = pbstats.tail_percentile(values, 90)
        self.assertEqual(q, 75.0)
        self.assertEqual(value, 30.0)
        q, value = pbstats.tail_percentile(list(range(1, 201)), 90)
        self.assertEqual((q, value), (90, 180))

    def test_tail_needs_more_than_ten_samples(self):
        with self.assertRaises(ValueError):
            pbstats.tail_percentile(list(range(10)), 90)

    def test_nearest_rank_median_is_a_measured_sample(self):
        self.assertEqual(pbstats.percentile([5, 1, 3, 2], 50), 2)
        self.assertEqual(pbstats.percentile([7], 50), 7)


class FailedFracTest(unittest.TestCase):
    def test_share_of_attempted(self):
        self.assertEqual(pbstats.failed_frac(200, 0), 0.0)
        self.assertEqual(pbstats.failed_frac(10, 1), 0.1)

    def test_rejects_impossible_tallies(self):
        with self.assertRaises(ValueError):
            pbstats.failed_frac(0, 0)
        with self.assertRaises(ValueError):
            pbstats.failed_frac(3, 4)


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_wrapped_children(self):
        clock = FakeClock()
        tracer = pbtrace.Tracer(clock)

        def child():
            clock.advance(3.0)

        child = tracer.wrap_function("child", child)

        def parent():
            clock.advance(2.0)
            child()
            child()

        tracer.wrap_function("parent", parent)()
        self.assertEqual(tracer.layer("parent").calls, 1)
        self.assertEqual(tracer.layer("parent").total, 8.0)
        self.assertEqual(tracer.layer("parent").self_time, 2.0)
        self.assertEqual(tracer.layer("child").calls, 2)
        self.assertEqual(tracer.layer("child").self_time, 6.0)

    def test_generator_is_timed_inside_next_only(self):
        clock = FakeClock()
        tracer = pbtrace.Tracer(clock)

        def produce():
            for item in range(3):
                clock.advance(1.0)
                yield item
            clock.advance(0.5)  # the work that discovers the end

        items = []
        for item in tracer.wrap_generator_function("gen", produce)():
            clock.advance(100.0)  # the consumer's own time
            items.append(item)
        layer = tracer.layer("gen")
        self.assertEqual(items, [0, 1, 2])
        self.assertEqual((layer.calls, layer.items), (1, 3))
        self.assertEqual(layer.total, 3.5)

    def test_generator_time_counts_as_child_of_the_consumer_span(self):
        clock = FakeClock()
        tracer = pbtrace.Tracer(clock)

        def produce():
            clock.advance(1.0)
            yield 1

        produce = tracer.wrap_generator_function("gen", produce)

        def consume():
            clock.advance(4.0)
            return list(produce())

        tracer.wrap_function("outer", consume)()
        self.assertEqual(tracer.layer("outer").total, 5.0)
        self.assertEqual(tracer.layer("outer").self_time, 4.0)

    def test_closing_the_wrapper_closes_the_generator(self):
        closed = []

        def produce():
            try:
                yield 1
                yield 2
            finally:
                closed.append(True)

        iterator = pbtrace.Tracer().wrap_generator_function("gen", produce)()
        next(iterator)
        iterator.close()
        self.assertEqual(closed, [True])

    def test_patch_and_restore_keep_descriptors(self):
        class Target:
            def method(self):
                return "m"

            @classmethod
            def build(cls):
                return cls

        original_method = Target.__dict__["method"]
        original_build = Target.__dict__["build"]
        with pbtrace.Tracer() as tracer:
            tracer.patch(Target, "method", "m")
            tracer.patch(Target, "build", "b", kind="classmethod")
            self.assertEqual(Target().method(), "m")
            self.assertIs(Target.build(), Target)
            self.assertEqual(tracer.layer("m").calls, 1)
            self.assertEqual(tracer.layer("b").calls, 1)
        self.assertIs(Target.__dict__["method"], original_method)
        self.assertIs(Target.__dict__["build"], original_build)


class RequestClassTest(unittest.TestCase):
    def test_script_traffic_sorts_into_classes(self):
        graph = {"path": "/data/g.txt"}
        query = {"graph": graph, "k": 1, "theta_left": 5, "theta_right": 5}
        maximum = dict(query, mode="maximum")
        classifier = pbstats.RequestClassifier()
        steps = [
            ("/v1/enumerate", {"query": query}, {"cached": False}, "update_query"),
            ("/v1/update", {"graph": graph, "insert": [[0, 1]]}, {}, "update"),
            ("/v1/enumerate", {"query": query}, {"cached": False}, "update_query"),
            ("/v1/enumerate", {"query": maximum}, {"cached": False}, "update_query"),
            ("/v1/enumerate", {"query": dict(query, max_results=7)}, {"cached": False}, "cold_query"),
            ("/v1/enumerate", {"query": query}, {"cached": True}, "hot_query"),
            ("/v1/enumerate", {"query": query, "paginate": True}, {}, "open"),
            ("/v1/paginate", {"session_id": "s1", "cursor": "c"}, {}, "page"),
            ("/v1/paginate", {"cursor": "c"}, {}, "resume"),
            ("/v1/update", {"graph": graph, "delete": [[0, 1]]}, {}, "update"),
            ("/v1/enumerate", {"query": dict(maximum, top=None)}, {"cached": False}, "update_query"),
        ]
        for path, body, reply, expected in steps:
            self.assertEqual(classifier.classify(path, body, reply), expected, (path, body))

    def test_update_resets_only_its_own_graph(self):
        other = {"graph": {"dataset": "divorce"}, "k": 1}
        planted = {"graph": {"path": "/data/g.txt"}, "k": 1}
        classifier = pbstats.RequestClassifier()
        classifier.classify("/v1/enumerate", {"query": other}, {"cached": False})
        classifier.classify("/v1/update", {"graph": planted["graph"]}, {})
        self.assertEqual(
            classifier.classify("/v1/enumerate", {"query": dict(other, max_results=3)}, {}),
            "cold_query",
        )

    def test_grouping_keeps_every_class(self):
        grouped = pbstats.group_by_class(
            [("hot_query", 1.0), ("hot_query", 2.0), ("page", 5.0)]
        )
        self.assertEqual(grouped["hot_query"], [1.0, 2.0])
        self.assertEqual(grouped["update"], [])
        self.assertEqual(set(grouped), set(pbstats.REQUEST_CLASSES))


class DigestTest(unittest.TestCase):
    def test_digest_names_the_set_not_the_order(self):
        first = pbstats.solution_digest([({2, 1}, {3}), ({0}, {1, 2})])
        second = pbstats.solution_digest([([0], [2, 1]), ([1, 2], [3])])
        self.assertEqual(first, second)
        self.assertEqual(first[0], 2)
        self.assertNotEqual(first, pbstats.solution_digest([({0}, {1, 2})]))


if __name__ == "__main__":
    unittest.main()
