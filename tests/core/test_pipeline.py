"""Unit tests for pipeline definitions."""

import pytest

from repro.core.pipeline import Pipeline, PipelineError, PipelineStep


class TestDefinition:
    def test_fluent_build(self):
        pipeline = Pipeline("p").add_step("a").add_step("b", adapter=lambda x: [x])
        assert pipeline.step_names == ["a", "b"]
        assert len(pipeline.steps) == 2
        assert pipeline.steps[1].adapter(1) == [1]

    def test_name_required(self):
        with pytest.raises(PipelineError):
            Pipeline("")

    def test_validate_empty(self):
        with pytest.raises(PipelineError):
            Pipeline("p").validate()

    def test_validate_empty_step_name(self):
        pipeline = Pipeline("p")
        pipeline.steps.append(PipelineStep(""))
        with pytest.raises(PipelineError):
            pipeline.validate()

    def test_steps_are_frozen(self):
        step = PipelineStep("a")
        with pytest.raises(AttributeError):
            step.servable_name = "b"  # type: ignore[misc]

    def test_repeated_servables_allowed(self):
        """A pipeline may legitimately call the same servable twice."""
        pipeline = Pipeline("p").add_step("a").add_step("a")
        pipeline.validate()
        assert pipeline.step_names == ["a", "a"]
