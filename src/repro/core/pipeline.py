"""Multi-step pipelines: chained servables executed server-side.

"Defining these steps as a pipeline means data are automatically passed
between each servable in the pipeline, meaning the entire execution is
performed server-side, drastically lowering both the latency and user
burden" (SS VI-D). A :class:`Pipeline` is an ordered list of
:class:`PipelineStep` references; the Task Manager executes all steps
without returning intermediates to the Management Service — the output
of step *k* feeds step *k+1* over the intra-cluster link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


class PipelineError(RuntimeError):
    """Raised on invalid pipeline definitions."""


@dataclass(frozen=True)
class PipelineStep:
    """One stage: a published servable plus an optional output adapter.

    ``adapter`` reshapes a step's output into the next step's input
    (e.g. wrap a feature vector into a batch) without a round trip.
    """

    servable_name: str
    adapter: Callable[[Any], Any] | None = None


@dataclass
class Pipeline:
    """A named, publishable chain of servables."""

    name: str
    steps: list[PipelineStep] = field(default_factory=list)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise PipelineError("pipeline needs a name")

    def add_step(
        self, servable_name: str, adapter: Callable[[Any], Any] | None = None
    ) -> "Pipeline":
        self.steps.append(PipelineStep(servable_name, adapter))
        return self

    def validate(self) -> None:
        if not self.steps:
            raise PipelineError(f"pipeline {self.name!r} has no steps")
        seen = [s.servable_name for s in self.steps]
        if any(not n for n in seen):
            raise PipelineError("pipeline step with empty servable name")

    @property
    def step_names(self) -> list[str]:
        return [s.servable_name for s in self.steps]
