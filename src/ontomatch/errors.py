"""Exception types shared across the pipeline.

There are two kinds. An ``ItemError`` is the failure of one item: one
provider call, one judgement, one query vector or one class expression. A
caller that handles items one by one may catch it, skip or flag the item and
go on. Every other ``OntomatchError`` is run-fatal: bad config, an input or
artifact that cannot be parsed, a missing artifact, or a backend that lacks
a capability the run needs. The command line prints either kind as one
``Error:`` line and exits 1.
"""

from __future__ import annotations


class OntomatchError(Exception):
    """Base class for all package errors."""


class ItemError(OntomatchError):
    """One item failed: a provider call (retries ran out, a malformed
    response, an empty completion, a prompt over the context limit), an
    answer its caller cannot use (a definition that is not one non-empty
    paragraph, a token distribution with no usable YES or NO variant), a
    zero-norm or non-finite vector, or a class expression outside the
    accepted structural subset."""


class OntologyParseError(OntomatchError):
    """An input or artifact cannot be parsed: an ontology, a TSV or an
    embedding file.

    Carries the 1-based line (and column, when known) of the offending input.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class CapabilityError(OntomatchError):
    """The backend lacks a required capability (e.g. token log-probabilities)."""


class MissingArtifactError(OntomatchError):
    """A stage prerequisite artifact is absent from the working directory."""

    def __init__(self, artifact: str, stage: str):
        super().__init__(
            f"missing artifact {artifact!r}: run the {stage!r} stage first"
        )
        self.artifact = artifact
        self.stage = stage


class ConfigError(OntomatchError):
    """Invalid pipeline configuration."""
