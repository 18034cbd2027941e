"""Unit tests for task envelopes and the async task store."""

import pytest

from repro.core.tasks import TaskRequest, TaskResult, TaskStatus, TaskStore


class TestTaskRequest:
    def test_uuid_unique(self):
        a = TaskRequest("m")
        b = TaskRequest("m")
        assert a.task_uuid != b.task_uuid

    def test_input_signature_stable(self):
        a = TaskRequest("m", args=(1, 2), kwargs={"k": 3})
        b = TaskRequest("m", args=(1, 2), kwargs={"k": 3})
        assert a.input_signature() == b.input_signature()

    def test_signature_differs_by_inputs(self):
        assert (
            TaskRequest("m", args=(1,)).input_signature()
            != TaskRequest("m", args=(2,)).input_signature()
        )
        assert (
            TaskRequest("m", args=(1,)).input_signature()
            != TaskRequest("other", args=(1,)).input_signature()
        )

    def test_batch_flag(self):
        assert TaskRequest("m", batch=[1, 2]).is_batch
        assert not TaskRequest("m").is_batch


class TestTaskResult:
    def test_ok(self):
        assert TaskResult("u", TaskStatus.SUCCEEDED).ok
        assert not TaskResult("u", TaskStatus.FAILED, error="x").ok


class TestTaskStore:
    def test_lifecycle(self):
        store = TaskStore()
        store.create("t1")
        assert store.status("t1") is TaskStatus.PENDING
        store.mark_running("t1")
        assert store.status("t1") is TaskStatus.RUNNING
        store.complete(TaskResult("t1", TaskStatus.SUCCEEDED, value=42))
        assert store.status("t1") is TaskStatus.SUCCEEDED
        assert store.result("t1").value == 42

    def test_unknown_task(self):
        store = TaskStore()
        with pytest.raises(KeyError):
            store.status("ghost")
        with pytest.raises(KeyError):
            store.result("ghost")
        with pytest.raises(KeyError):
            store.mark_running("ghost")

    def test_result_before_completion(self):
        store = TaskStore()
        store.create("t1")
        with pytest.raises(KeyError):
            store.result("t1")

    def test_failed_result_stored(self):
        store = TaskStore()
        store.create("t1")
        store.complete(TaskResult("t1", TaskStatus.FAILED, error="boom"))
        assert store.status("t1") is TaskStatus.FAILED
        assert store.result("t1").error == "boom"


class TestBatchItemNormalization:
    def test_pair_form_carries_kwargs(self):
        from repro.core.tasks import normalize_batch_item

        assert normalize_batch_item(((1, 2), {"k": 3})) == ((1, 2), {"k": 3})

    def test_tuple_form_is_positional_args(self):
        from repro.core.tasks import normalize_batch_item

        assert normalize_batch_item((1, 2, 3)) == ((1, 2, 3), {})

    def test_scalar_form_wraps_single_argument(self):
        from repro.core.tasks import normalize_batch_item

        assert normalize_batch_item("NaCl") == (("NaCl",), {})
        assert normalize_batch_item([1, 2]) == (([1, 2],), {})
