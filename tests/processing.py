"""Hand requests to a Task Manager as the serving runtime does: as
records, whose outcomes the Task Manager writes in."""

from __future__ import annotations

from repro.core.record import RequestRecord
from repro.core.tasks import TaskRequest, TaskResult


def process_one(task_manager, request: TaskRequest) -> TaskResult:
    """Process ``request`` alone; return its outcome as the Management
    Service reads it."""
    record = RequestRecord(request)
    task_manager.process([record])
    return record.result


def batch_of(servable_name: str, *calls: tuple) -> list[RequestRecord]:
    """One record per args tuple in ``calls``, for one micro-batch."""
    return [RequestRecord(TaskRequest(servable_name, args=args)) for args in calls]
