"""Fixture tests per determinism rule: positive, negative, and
pragma-suppressed cases, each seeded violation proven to fail."""

from __future__ import annotations

from repro.analysis import analyze_source


def live(findings, rule):
    """Unsuppressed findings for one rule."""
    return [f for f in findings if f.rule == rule and not f.suppressed]


class TestDET001WallClock:
    def test_flags_time_time_in_virtual_clock_domain(self):
        src = "import time\nnow = time.time()\n"
        assert live(analyze_source(src, "core/runtime.py"), "DET001")

    def test_flags_perf_counter_and_monotonic_and_sleep(self):
        src = (
            "import time\n"
            "a = time.perf_counter()\n"
            "b = time.monotonic()\n"
            "time.sleep(1)\n"
        )
        assert len(live(analyze_source(src, "gateway/gateway.py"), "DET001")) == 3

    def test_flags_datetime_now(self):
        src = "import datetime\nstamp = datetime.datetime.now()\n"
        assert live(analyze_source(src, "messaging/queue.py"), "DET001")

    def test_flags_from_import_of_clock_reader(self):
        src = "from time import perf_counter\n"
        assert live(analyze_source(src, "cluster/node.py"), "DET001")

    def test_flags_aliased_module(self):
        src = "import time as wallclock\nt = wallclock.time()\n"
        assert live(analyze_source(src, "core/runtime.py"), "DET001")

    def test_clock_free_packages_are_checked_too(self):
        src = "import time\nt = time.time()\n"
        assert live(analyze_source(src, "ml/layers.py"), "DET001")

    def test_allowlisted_files_are_exempt(self):
        src = "import time\nt = time.perf_counter()\n"
        for relpath in ("sim/clock.py", "bench/dispatch_overhead.py"):
            assert not analyze_source(src, relpath), relpath

    def test_virtual_clock_use_is_clean(self):
        src = "def tick(clock):\n    return clock.now() + 1.0\n"
        assert not analyze_source(src, "core/runtime.py")

    def test_non_clock_time_attribute_is_clean(self):
        src = "import time\nzone = time.tzname\n"
        assert not live(analyze_source(src, "core/runtime.py"), "DET001")

    def test_pragma_suppresses_with_reason(self):
        src = (
            "import time\n"
            "t = time.time()  # detlint: allow[DET001] — calibration needs real time\n"
        )
        findings = analyze_source(src, "core/runtime.py")
        assert not live(findings, "DET001")
        assert any(f.rule == "DET001" and f.suppressed for f in findings)


class TestDET002Randomness:
    def test_flags_module_level_random_calls(self):
        src = "import random\nx = random.random()\ny = random.randint(0, 9)\n"
        assert len(live(analyze_source(src, "core/adaptive.py"), "DET002")) == 2

    def test_flags_bare_random_instance_but_not_seeded(self):
        src = "import random\na = random.Random()\nb = random.Random(42)\n"
        findings = live(analyze_source(src, "sim/latency.py"), "DET002")
        assert len(findings) == 1
        assert findings[0].line == 2

    def test_flags_numpy_default_rng_outside_chokepoint(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert live(analyze_source(src, "ml/layers.py"), "DET002")

    def test_flags_legacy_numpy_random(self):
        src = "import numpy as np\nx = np.random.rand(4)\n"
        assert live(analyze_source(src, "matsci/oqmd.py"), "DET002")

    def test_flags_uuid4(self):
        src = "import uuid\nident = str(uuid.uuid4())\n"
        assert live(analyze_source(src, "core/tasks.py"), "DET002")

    def test_flags_from_import_random(self):
        src = "from random import shuffle\n"
        assert live(analyze_source(src, "core/runtime.py"), "DET002")

    def test_chokepoint_module_is_exempt(self):
        src = "import numpy as np\ngen = np.random.default_rng(7)\n"
        assert not analyze_source(src, "sim/rng.py")

    def test_passed_in_generator_is_clean(self):
        src = (
            "def jitter(rng):\n"
            "    return rng.normal(0.0, 1.0)\n"
        )
        assert not analyze_source(src, "sim/latency.py")

    def test_pragma_suppresses(self):
        src = (
            "import uuid\n"
            "# detlint: allow[DET002] — external correlation id, never ordered or replayed\n"
            "ident = uuid.uuid4()\n"
        )
        assert not live(analyze_source(src, "auth/identity.py"), "DET002")


class TestDET003UnorderedIteration:
    def test_flags_for_loop_over_set_call(self):
        src = "def drop(d, keep):\n    for k in set(d) - keep:\n        del d[k]\n"
        assert live(analyze_source(src, "core/fleet.py"), "DET003")

    def test_flags_list_comprehension_over_known_set_local(self):
        src = (
            "def pick(workers):\n"
            "    ready = {w for w in workers}\n"
            "    return [w for w in ready]\n"
        )
        assert live(analyze_source(src, "core/runtime.py"), "DET003")

    def test_flags_tuple_materialization_of_set(self):
        src = "def order(xs):\n    return tuple(set(xs))\n"
        assert live(analyze_source(src, "gateway/scheduler.py"), "DET003")

    def test_flags_sorted_by_id(self):
        src = "def arrange(xs):\n    return sorted(xs, key=id)\n"
        assert live(analyze_source(src, "gateway/gateway.py"), "DET003")

    def test_flags_id_keyed_mapping(self):
        src = "def note(table, obj, v):\n    table[id(obj)] = v\n"
        assert live(analyze_source(src, "core/obsloop.py"), "DET003")

    def test_sorted_wrap_is_clean(self):
        src = "def drop(d, keep):\n    for k in sorted(set(d) - keep):\n        del d[k]\n"
        assert not analyze_source(src, "core/fleet.py")

    def test_membership_test_is_clean(self):
        src = (
            "def check(workers, alive):\n"
            "    names = {w.name for w in alive}\n"
            "    return [w for w in workers if w.name in names]\n"
        )
        assert not analyze_source(src, "core/fleet.py")

    def test_set_name_in_other_function_does_not_taint(self):
        src = (
            "def a(xs):\n"
            "    items = {x for x in xs}\n"
            "    return len(items)\n"
            "def b(xs):\n"
            "    items = list(xs)\n"
            "    return [x for x in items]\n"
        )
        assert not analyze_source(src, "core/fleet.py")

    def test_outside_decision_modules_is_clean(self):
        src = "def order(xs):\n    return tuple(set(xs))\n"
        assert not analyze_source(src, "ml/layers.py")

    def test_pragma_suppresses(self):
        src = (
            "def drop(d, gone):\n"
            "    # detlint: allow[DET003] — deletion is commutative; order cannot observe\n"
            "    for k in set(d) & gone:\n"
            "        del d[k]\n"
        )
        assert not live(analyze_source(src, "core/fleet.py"), "DET003")


class TestDET004FloatOrder:
    def test_flags_sum_over_set_call(self):
        src = "def total(samples):\n    return sum(set(samples))\n"
        assert live(analyze_source(src, "core/metrics.py"), "DET004")

    def test_flags_sum_over_known_set_local(self):
        src = (
            "def total(samples):\n"
            "    uniq = {s for s in samples}\n"
            "    return sum(uniq)\n"
        )
        assert live(analyze_source(src, "core/adaptive.py"), "DET004")

    def test_flags_sum_of_generator_over_set(self):
        src = (
            "def total(weights):\n"
            "    active = set(weights)\n"
            "    return sum(weights[k] for k in active)\n"
        )
        assert live(analyze_source(src, "core/telemetry.py"), "DET004")

    def test_sum_over_list_is_clean(self):
        src = "def total(samples):\n    return sum(list(samples))\n"
        assert not analyze_source(src, "core/metrics.py")

    def test_sum_over_sorted_set_is_clean(self):
        src = "def total(samples):\n    return sum(sorted(set(samples)))\n"
        assert not analyze_source(src, "core/obsloop.py")

    def test_dict_values_is_clean(self):
        src = "def total(by_tenant):\n    return sum(by_tenant.values())\n"
        assert not analyze_source(src, "core/metrics.py")

    def test_outside_accumulation_modules_is_clean(self):
        src = "def total(samples):\n    return sum(set(samples))\n"
        assert not analyze_source(src, "data/store.py")

    def test_pragma_suppresses(self):
        src = (
            "def total(samples):\n"
            "    # detlint: allow[DET004] — integers only; addition associates exactly\n"
            "    return sum(set(samples))\n"
        )
        assert not live(analyze_source(src, "core/metrics.py"), "DET004")


class TestDET005ProcessCounter:
    def test_flags_module_level_count(self):
        src = "import itertools\n_ids = itertools.count(1)\n"
        findings = live(analyze_source(src, "core/tasks.py"), "DET005")
        assert len(findings) == 1 and findings[0].line == 2

    def test_flags_from_imported_and_wrapped_count(self):
        src = "from itertools import count\nnext_id = count().__next__\n"
        assert live(analyze_source(src, "gateway/gateway.py"), "DET005")

    def test_flags_class_level_count(self):
        src = "import itertools\nclass Pool:\n    ids = itertools.count()\n"
        assert live(analyze_source(src, "cluster/hpc.py"), "DET005")

    def test_count_in_a_function_or_on_an_instance_is_clean(self):
        src = (
            "import itertools\n"
            "def fresh():\n"
            "    return itertools.count(1)\n"
            "class Pool:\n"
            "    def __init__(self):\n"
            "        self._ids = itertools.count(1)\n"
            "    factory = staticmethod(lambda: itertools.count(1))\n"
        )
        assert not analyze_source(src, "core/runtime.py")

    def test_pragma_suppresses_with_reason(self):
        src = (
            "import itertools\n"
            "_ids = itertools.count(1)  # detlint: allow[DET005] — fixed width; never priced\n"
        )
        findings = analyze_source(src, "core/tasks.py")
        assert not live(findings, "DET005")
        assert any(f.rule == "DET005" and f.suppressed for f in findings)

