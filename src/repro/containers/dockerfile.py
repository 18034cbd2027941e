"""Dockerfile synthesis.

The servable builder generates Dockerfiles programmatically: a base image,
pip dependency installation, COPY of model components, and an
entrypoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class DockerfileError(ValueError):
    """Raised for malformed Dockerfiles."""


_KNOWN_INSTRUCTIONS = {
    "FROM",
    "RUN",
    "COPY",
    "ADD",
    "ENV",
    "WORKDIR",
    "ENTRYPOINT",
    "CMD",
    "LABEL",
    "EXPOSE",
}


@dataclass
class Dockerfile:
    """A structured Dockerfile: ordered ``(instruction, argument)`` pairs."""

    instructions: list[tuple[str, str]] = field(default_factory=list)

    # -- builder-style API ---------------------------------------------------------
    def from_(self, base: str) -> "Dockerfile":
        if any(op == "FROM" for op, _ in self.instructions):
            raise DockerfileError("FROM may only appear once")
        self.instructions.insert(0, ("FROM", base))
        return self

    def pip_install(self, packages: list[str]) -> "Dockerfile":
        if packages:
            self.instructions.append(
                ("RUN", "pip install --no-cache-dir " + " ".join(sorted(packages)))
            )
        return self

    def copy(self, src: str, dst: str) -> "Dockerfile":
        self.instructions.append(("COPY", f"{src} {dst}"))
        return self

    def env(self, key: str, value: str) -> "Dockerfile":
        self.instructions.append(("ENV", f"{key}={value}"))
        return self

    def workdir(self, path: str) -> "Dockerfile":
        self.instructions.append(("WORKDIR", path))
        return self

    def label(self, key: str, value: str) -> "Dockerfile":
        self.instructions.append(("LABEL", f'{key}="{value}"'))
        return self

    def entrypoint(self, command: str) -> "Dockerfile":
        self.instructions.append(("ENTRYPOINT", command))
        return self

    # -- accessors -------------------------------------------------------------------
    @property
    def base_image(self) -> str:
        for op, arg in self.instructions:
            if op == "FROM":
                return arg
        raise DockerfileError("Dockerfile has no FROM instruction")

    def labels(self) -> dict[str, str]:
        out = {}
        for op, arg in self.instructions:
            if op == "LABEL" and "=" in arg:
                key, _, value = arg.partition("=")
                out[key] = value.strip('"')
        return out

    def validate(self) -> None:
        """Check structural invariants; raises :class:`DockerfileError`."""
        if not self.instructions:
            raise DockerfileError("empty Dockerfile")
        if self.instructions[0][0] != "FROM":
            raise DockerfileError("Dockerfile must start with FROM")
        for op, _ in self.instructions:
            if op not in _KNOWN_INSTRUCTIONS:
                raise DockerfileError(f"unknown instruction {op!r}")
