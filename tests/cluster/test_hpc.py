"""Unit tests for the HPC batch resource (Cobalt/Slurm-like)."""

import pytest

from repro.cluster.hpc import HPCError, HPCResource, JobState
from repro.containers.image import Image, Layer
from repro.sim.clock import VirtualClock


def make_image():
    return Image(
        repository="dlhub/sim",
        tag="v1",
        layers=[Layer("l", extra_bytes=1000)],
        handler=lambda x: x * 10,
    )


@pytest.fixture
def hpc():
    return HPCResource(VirtualClock(), total_nodes=4, base_queue_wait_s=30.0)


class TestSubmission:
    def test_submit_starts_when_nodes_free(self, hpc):
        job = hpc.submit(make_image(), nodes=2)
        assert job.state is JobState.RUNNING
        assert hpc.free_nodes == 2
        assert len(job.instances) == 2

    def test_queue_wait_charged(self, hpc):
        job = hpc.submit(make_image())
        assert job.queue_wait >= 30.0

    def test_oversized_request_rejected(self, hpc):
        with pytest.raises(HPCError):
            hpc.submit(make_image(), nodes=5)
        with pytest.raises(HPCError):
            hpc.submit(make_image(), nodes=0)

    def test_jobs_queue_when_full(self, hpc):
        hpc.submit(make_image(), nodes=4)
        waiting = hpc.submit(make_image(), nodes=1)
        assert waiting.state is JobState.QUEUED
        assert hpc._pending == [waiting]


class TestExecution:
    def test_exec_on_running_job(self, hpc):
        job = hpc.submit(make_image(), nodes=2)
        assert hpc.exec(job, 0, 4) == 40
        assert hpc.exec(job, 1, 5) == 50

    def test_exec_on_queued_job_rejected(self, hpc):
        hpc.submit(make_image(), nodes=4)
        queued = hpc.submit(make_image(), nodes=1)
        with pytest.raises(HPCError):
            hpc.exec(queued, 0, 1)

    def test_instance_index_wraps(self, hpc):
        job = hpc.submit(make_image(), nodes=2)
        assert hpc.exec(job, 5, 1) == 10  # 5 % 2 -> instance 1


class TestReleaseAndBackfill:
    def test_release_frees_and_starts_queued(self, hpc):
        first = hpc.submit(make_image(), nodes=4)
        queued = hpc.submit(make_image(), nodes=2)
        assert queued.state is JobState.QUEUED
        hpc.release(first)
        assert first.state is JobState.COMPLETED
        assert queued.state is JobState.RUNNING
        assert hpc.free_nodes == 2

    def test_fifo_backfill_smaller_job(self, hpc):
        hpc.submit(make_image(), nodes=3)
        big = hpc.submit(make_image(), nodes=4)  # cannot fit yet
        small = hpc.submit(make_image(), nodes=1)  # fits the 1 free node
        assert big.state is JobState.QUEUED
        assert small.state is JobState.RUNNING

    def test_double_release_rejected(self, hpc):
        job = hpc.submit(make_image())
        hpc.release(job)
        with pytest.raises(HPCError):
            hpc.release(job)
