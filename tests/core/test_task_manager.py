"""Unit tests for the Task Manager: routing, memoization, liveness."""

import pytest

from repro.core.tasks import TaskRequest, TaskStatus
from repro.core.task_manager import TaskManagerError
from repro.core.zoo import build_zoo, sample_input

from tests.processing import batch_of, process_one


@pytest.fixture(scope="module")
def deployed():
    """A testbed with noop + matminer_util deployed (module-scoped: tests
    here only send traffic, they don't mutate deployment state)."""
    from repro.core.testbed import build_testbed

    testbed = build_testbed(jitter=False)
    zoo = build_zoo(oqmd_entries=50, n_estimators=4)
    for name in ("noop", "matminer_util"):
        testbed.publish_and_deploy(zoo[name])
    return testbed


class TestRouting:
    def test_process_executes_servable(self, deployed):
        result = process_one(deployed.task_manager, TaskRequest("noop"))
        assert result.ok
        assert result.value == "hello world"
        assert result.invocation_time > result.inference_time > 0

    def test_unknown_servable_fails_gracefully(self, deployed):
        result = process_one(deployed.task_manager, TaskRequest("ghost"))
        assert result.status is TaskStatus.FAILED
        assert "not registered" in result.error

    def test_handler_exception_becomes_failed_result(self, deployed):
        result = process_one(
            deployed.task_manager, TaskRequest("matminer_util", args=("NotAFormula!!",))
        )
        assert result.status is TaskStatus.FAILED
        assert "CompositionError" in result.error

    def test_unknown_executor_registration(self, deployed):
        zoo = build_zoo(oqmd_entries=50, n_estimators=4)
        with pytest.raises(TaskManagerError):
            deployed.task_manager.register_servable(
                zoo["cifar10"], None, executor_name="quantum"
            )

    def test_registered_servables_listed(self, deployed):
        assert set(deployed.task_manager.registered_servables()) >= {
            "noop",
            "matminer_util",
        }


class TestMemoization:
    def test_identical_inputs_hit(self, deployed):
        tm = deployed.task_manager
        tm.cache.clear()
        args = sample_input("matminer_util")
        first = process_one(tm, TaskRequest("matminer_util", args=args))
        second = process_one(tm, TaskRequest("matminer_util", args=args))
        assert not first.cache_hit and second.cache_hit
        assert second.value == first.value
        assert second.invocation_time < first.invocation_time / 10

    def test_different_inputs_miss(self, deployed):
        tm = deployed.task_manager
        tm.cache.clear()
        process_one(tm, TaskRequest("matminer_util", args=("NaCl",)))
        result = process_one(tm, TaskRequest("matminer_util", args=("SiO2",)))
        assert not result.cache_hit

    def test_memo_disabled(self):
        from repro.core.testbed import build_testbed

        testbed = build_testbed(jitter=False, memoize_tm=False)
        zoo = build_zoo(oqmd_entries=50, n_estimators=4)
        testbed.publish_and_deploy(zoo["noop"])
        tm = testbed.task_manager
        process_one(tm, TaskRequest("noop"))
        repeat = process_one(tm, TaskRequest("noop"))
        assert not repeat.cache_hit

    def test_batch_memoized_per_item(self, deployed):
        """A batch containing previously-seen inputs dispatches only the
        misses (the acceptance criterion for server-side batching)."""
        tm = deployed.task_manager
        tm.cache.clear()
        executor = deployed.parsl_executor
        seen = process_one(tm, TaskRequest("matminer_util", args=("NaCl",)))
        assert seen.ok and not seen.cache_hit
        served_before = executor.requests_served
        records = batch_of("matminer_util", ("NaCl",), ("SiO2",), ("MgO",))
        _, _, hits, error = tm.process(records)
        assert error is None and all(r.result.ok for r in records)
        assert hits == 1
        assert [r.cache_hit for r in records] == [True, False, False]  # NaCl was seen
        # Only the two misses reached the executor.
        assert executor.requests_served - served_before == 2
        assert records[0].value == seen.value

    def test_fully_cached_batch_never_dispatches(self, deployed):
        tm = deployed.task_manager
        tm.cache.clear()
        executor = deployed.parsl_executor
        first = batch_of("matminer_util", ("NaCl",), ("SiO2",))
        tm.process(first)
        served_before = executor.requests_served
        again = batch_of("matminer_util", ("NaCl",), ("SiO2",))
        _, _, hits, error = tm.process(again)
        assert error is None and all(r.result.ok for r in again)
        assert all(r.cache_hit for r in again)
        assert hits == 2
        assert executor.requests_served == served_before
        assert [r.value for r in again] == [r.value for r in first]
        assert again[0].invocation_time < first[0].invocation_time / 10

    def test_all_hit_batch_skips_routing(self, deployed):
        """A fully-memoized batch returns from cache even when the
        servable is not registered here — mirroring the single-item hit
        path, which also answers before routing."""
        tm = deployed.task_manager
        tm.cache.clear()
        process_one(tm, TaskRequest("matminer_util", args=("NaCl",)))
        registration = tm._registrations.pop("matminer_util")
        try:
            records = batch_of("matminer_util", ("NaCl",), ("NaCl",))
            _, _, hits, error = tm.process(records)
        finally:
            tm._registrations["matminer_util"] = registration
        assert error is None and all(r.result.ok for r in records)
        assert all(r.cache_hit for r in records) and hits == 2

    def test_batch_misses_stored_individually(self, deployed):
        """Each batch miss lands in the cache under its single-item
        signature, so a later single request hits."""
        tm = deployed.task_manager
        tm.cache.clear()
        tm.process(batch_of("matminer_util", ("NaCl",), ("SiO2",)))
        single = process_one(tm, TaskRequest("matminer_util", args=("SiO2",)))
        assert single.cache_hit

    def test_batch_memo_disabled(self):
        from repro.core.testbed import build_testbed

        testbed = build_testbed(jitter=False, memoize_tm=False)
        zoo = build_zoo(oqmd_entries=50, n_estimators=4)
        testbed.publish_and_deploy(zoo["noop"])
        served_before = testbed.parsl_executor.requests_served
        result = batch_of("noop", (), ())
        repeat = batch_of("noop", (), ())
        assert testbed.task_manager.process(result)[3] is None
        _, _, hits, error = testbed.task_manager.process(repeat)
        assert error is None
        assert all(r.result.ok for r in result) and all(r.result.ok for r in repeat)
        assert hits == 0
        assert testbed.parsl_executor.requests_served - served_before == 4


class TestLiveness:
    def test_probe_reflects_crash_and_recover(self):
        from repro.core.testbed import build_testbed

        testbed = build_testbed(jitter=False)
        tm = testbed.task_manager
        assert tm.probe()
        tm.crash()
        assert not tm.probe()
        tm.recover()
        assert tm.probe()

    def test_crashed_worker_refuses_tasks(self):
        from repro.core.testbed import build_testbed

        testbed = build_testbed(jitter=False)
        zoo = build_zoo(oqmd_entries=50, n_estimators=4)
        testbed.publish_and_deploy(zoo["noop"])
        testbed.task_manager.crash()
        with pytest.raises(TaskManagerError, match="down"):
            process_one(testbed.task_manager, TaskRequest("noop"))
        testbed.task_manager.recover()
        assert process_one(testbed.task_manager, TaskRequest("noop")).ok


class TestUnregistration:
    def test_unregister_undeploys_and_stops_routing(self):
        from repro.core.testbed import build_testbed

        testbed = build_testbed(jitter=False)
        zoo = build_zoo(oqmd_entries=50, n_estimators=4)
        testbed.publish_and_deploy(zoo["noop"])
        assert "noop" in testbed.parsl_executor.deployed()
        testbed.task_manager.unregister_servable("noop")
        assert "noop" not in testbed.parsl_executor.deployed()
        assert "noop" not in testbed.task_manager.registered_servables()
        result = process_one(testbed.task_manager, TaskRequest("noop"))
        assert not result.ok and "not registered" in result.error

    def test_unregister_unknown_rejected(self):
        from repro.core.testbed import build_testbed

        testbed = build_testbed(jitter=False)
        with pytest.raises(TaskManagerError, match="not registered"):
            testbed.task_manager.unregister_servable("ghost")
