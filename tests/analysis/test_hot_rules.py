"""Fixture tests for HOT001 — hot-path allocation lint."""

from __future__ import annotations

from repro.analysis import analyze_source, domains
from tests.analysis.test_det_rules import live


def _runtime_src(body: str) -> str:
    """A fake ServingRuntime with ``body`` inside ``_next_window``."""
    return (
        "class ServingRuntime:\n"
        "    def _next_window(self, now):\n"
        f"{body}"
    )


class TestHOT001:
    def test_flags_list_comprehension_in_hot_function(self):
        src = _runtime_src("        return [t for t in self.topics]\n")
        assert live(analyze_source(src, "core/runtime.py"), "HOT001")

    def test_flags_set_and_dict_comprehensions(self):
        src = _runtime_src(
            "        a = {t for t in self.topics}\n"
            "        b = {t: 0 for t in self.topics}\n"
            "        return a, b\n"
        )
        assert len(live(analyze_source(src, "core/runtime.py"), "HOT001")) == 2

    def test_flags_copy_call(self):
        src = _runtime_src("        return self.windows.copy()\n")
        assert live(analyze_source(src, "core/runtime.py"), "HOT001")

    def test_flags_nested_helper_inside_hot_function(self):
        src = _runtime_src(
            "        def pick():\n"
            "            return [t for t in self.topics]\n"
            "        return pick()\n"
        )
        assert live(analyze_source(src, "core/runtime.py"), "HOT001")

    def test_generator_expression_is_clean(self):
        src = _runtime_src("        return min(t for t in self.topics)\n")
        assert not analyze_source(src, "core/runtime.py")

    def test_other_methods_in_same_module_are_clean(self):
        src = (
            "class ServingRuntime:\n"
            "    def _next_window_scan(self, now):\n"
            "        return [t for t in self.topics]\n"
        )
        assert not analyze_source(src, "core/runtime.py")

    def test_same_method_name_in_other_class_is_clean(self):
        src = (
            "class SomethingElse:\n"
            "    def _next_window(self, now):\n"
            "        return [t for t in self.topics]\n"
        )
        assert not analyze_source(src, "core/runtime.py")

    def test_unregistered_module_is_clean(self):
        src = _runtime_src("        return [t for t in self.topics]\n")
        assert not analyze_source(src, "core/metrics.py")

    def test_all_registered_hot_functions_fire(self):
        cases = {
            "core/runtime.py": (
                "ServingRuntime", ("_next_window", "serve", "_settle", "_route")
            ),
            "gateway/gateway.py": (
                "ServingGateway", ("_pump", "on_tick", "_derive_budget", "on_settled")
            ),
            "gateway/scheduler.py": (
                "WeightedFairScheduler", ("_pick_under_share", "pop_next")
            ),
            "core/fleet.py": ("FleetController", ("observe",)),
        }
        assert {
            relpath: frozenset(f"{cls}.{method}" for method in methods)
            for relpath, (cls, methods) in cases.items()
        } == domains.HOT_FUNCTIONS
        for relpath, (cls, methods) in cases.items():
            for method in methods:
                src = (
                    f"class {cls}:\n"
                    f"    def {method}(self):\n"
                    "        return [x for x in self.items]\n"
                )
                assert live(analyze_source(src, relpath), "HOT001"), (relpath, method)

    def test_the_per_wakeup_allocations_the_kernel_removed_are_flagged(self):
        """The polled loop's settlement filter and the budget's
        alive-worker list would each need a pragma to come back."""
        settle = (
            "class ServingRuntime:\n"
            "    def _settle(self, now, arrival_times):\n"
            "        done = [p for p in self._pending if p.completed_at <= now]\n"
            "        ids = {id(p) for p in done}\n"
            "        self._pending = [p for p in self._pending if id(p) not in ids]\n"
        )
        assert len(live(analyze_source(settle, "core/runtime.py"), "HOT001")) == 3
        budget = (
            "class ServingGateway:\n"
            "    def _derive_budget(self):\n"
            "        alive = [w for w in self.runtime.workers if w.probe()]\n"
            "        return len(alive)\n"
        )
        assert live(analyze_source(budget, "gateway/gateway.py"), "HOT001")
        route = (
            "class ServingRuntime:\n"
            "    def _route(self, servable_name, now):\n"
            "        for worker in self._hosts[servable_name].copy():\n"
            "            pass\n"
        )
        assert live(analyze_source(route, "core/runtime.py"), "HOT001")

    def test_pragma_suppresses_with_reason(self):
        src = _runtime_src(
            "        # detlint: allow[HOT001] — cold branch, runs only on topology change\n"
            "        return [t for t in self.topics]\n"
        )
        findings = analyze_source(src, "core/runtime.py")
        assert not live(findings, "HOT001")
        assert any(f.rule == "HOT001" and f.suppressed for f in findings)
