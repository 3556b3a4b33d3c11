"""Exception types shared across the pipeline."""

from __future__ import annotations


class OntomatchError(Exception):
    """Base class for all package errors."""


class OntologyParseError(OntomatchError):
    """Raised when an ontology document cannot be parsed.

    Carries the 1-based line (and column, when known) of the offending input.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class StructureError(OntomatchError):
    """A class expression violates the accepted structural subset."""


class ProviderError(OntomatchError):
    """A provider call failed: retries ran out, the response was malformed or
    an empty completion, or the prompt exceeds the context limit."""


class CapabilityError(ProviderError):
    """The backend lacks a required capability (e.g. token log-probabilities)."""


class DegenerateVectorError(OntomatchError):
    """A zero-norm vector reached a similarity computation."""


class UnparseableJudgementError(OntomatchError):
    """A token distribution contains no recognizable YES or NO variant."""


class MissingArtifactError(OntomatchError):
    """A stage prerequisite artifact is absent from the working directory."""

    def __init__(self, artifact: str, stage: str):
        super().__init__(
            f"missing artifact {artifact!r}: run the {stage!r} stage first"
        )
        self.artifact = artifact
        self.stage = stage


class UndefinedMetricError(OntomatchError):
    """A metric was requested over an empty case list."""


class ConfigError(OntomatchError):
    """Invalid pipeline configuration."""
