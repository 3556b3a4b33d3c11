"""Command-line interface.

Each subcommand runs one pipeline stage against the working directory given
by ``--out``; ``run`` executes the whole pipeline. Options override values
from ``--config`` (a JSON file with PipelineConfig keys); credentials come
from environment variables (ONTOMATCH_BASE_URL, ONTOMATCH_API_KEY, ...).
"""

from __future__ import annotations

import functools
import logging
import sys

import click

from .errors import OntomatchError
from .fusion import read_mappings
from .pipeline import Pipeline, PipelineConfig, global_report
from .providers import DEFAULT_PROVIDER_KIND, PROVIDER_KINDS

logger = logging.getLogger(__name__)


def common_options(fn):
    @click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                  default=None, help="JSON config file.")
    @click.option("--source", type=click.Path(exists=True, dir_okay=False), default=None,
                  help="Source ontology file: RDF/XML or concept JSONL, told apart by "
                       "its first non-blank byte ('<' or '{').")
    @click.option("--target", type=click.Path(exists=True, dir_okay=False), default=None,
                  help="Target ontology file.")
    @click.option("--source-name", default=None, help="Display name of the source ontology.")
    @click.option("--target-name", default=None, help="Display name of the target ontology.")
    @click.option("--k", type=int, default=None, help="Candidates per source concept (default 10).")
    @click.option("--lambda-prob", type=float, default=None,
                  help="YES-probability threshold (default 0.99).")
    @click.option("--lambda-cs", type=float, default=None,
                  help="Cosine similarity threshold (default 0.97).")
    @click.option("--few-shot", type=int, default=None,
                  help="Number of few-shot examples for the judge (default 0).")
    @click.option("--no-definitions", "use_definitions", flag_value=False, default=None,
                  help="Ablation: define writes no definitions, so embed and judge "
                       "see none.")
    @click.option("--provider", type=click.Choice(PROVIDER_KINDS), default=None,
                  help="Provider backend (default from config; mock otherwise).")
    @click.option("--cache-dir", type=click.Path(file_okay=False), default=None,
                  help="Response cache directory (default ./cache).")
    @click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
                  help="Working/output directory (default ./out).")
    @click.option("--reference", type=click.Path(exists=True, dir_okay=False), default=None,
                  help="Reference mapping TSV for evaluation.")
    @click.option("--force", is_flag=True, default=False,
                  help="Re-run stages even when inputs are unchanged.")
    @click.option("--limit", type=click.IntRange(min=0), default=None,
                  help="Hand define (both ontologies, source first) or judge at most this many "
                       "items, cached ones included: the same limit again makes no new call.")
    @click.option("--bidirectional", flag_value=True, default=None,
                  help="Union candidates from both retrieval directions.")
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


def build_config(config_path, provider, **overrides) -> PipelineConfig:
    """The config file's values (or the defaults), with every option that
    was given, each named after the field it sets."""
    data = PipelineConfig.from_file(config_path).to_dict() if config_path else PipelineConfig().to_dict()
    data.update((key, value) for key, value in overrides.items() if value is not None)
    if provider is not None and data["provider"].get("kind", DEFAULT_PROVIDER_KIND) != provider:
        data["provider"] = {"kind": provider}
    return PipelineConfig.from_dict(data)


def _run_stages(stages, config_path, force, limit, **kwargs):
    try:
        config = build_config(config_path, **kwargs)
        pipeline = Pipeline(config)
        results = pipeline.run(stages=stages, force=force, limit=limit)
    except OntomatchError as e:
        raise click.ClickException(str(e)) from e
    for stage, status in results.items():
        click.echo(f"{stage}: {status}")


def _stage_command(stage: str, help_text: str):
    @main.command(name=stage, help=help_text)
    @common_options
    def command(config_path, force, limit, **kwargs):
        _run_stages([stage], config_path, force, limit, **kwargs)

    return command


@click.group()
@click.option("-v", "--verbose", is_flag=True, default=False, help="Debug logging.")
def main(verbose):
    """LLM-assisted ontology matching pipeline."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


@main.command(name="run")
@common_options
def run_command(config_path, force, limit, **kwargs):
    """Run all stages (eval only when a reference is configured)."""
    _run_stages(None, config_path, force, limit, **kwargs)


_stage_command("ingest", "Parse both ontologies into concept JSONL artifacts.")
_stage_command("define", "Generate concept definitions with the chat model.")
_stage_command("embed", "Embed concept texts into vectors.")
_stage_command("match", "Retrieve top-k candidate targets per source concept.")
_stage_command("judge", "Classify candidate pairs as equivalent or not.")
_stage_command("fuse", "Filter judgements by thresholds and union exact matches.")


@main.command(name="eval")
@common_options
@click.option("--predictions", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Evaluate this mapping TSV directly instead of the pipeline output.")
def eval_command(config_path, force, limit, predictions, **kwargs):
    """Score mappings against a reference alignment."""
    if predictions is not None:
        try:
            reference = build_config(config_path, **kwargs).reference
            if not reference:
                raise click.UsageError("--predictions requires --reference or a config reference")
            with open(predictions, "r", encoding="utf-8") as fp:
                predicted = read_mappings(fp)
            with open(reference, "r", encoding="utf-8") as fp:
                report = global_report(predicted, read_mappings(fp))
        except (OntomatchError, OSError) as e:  # click checks only a --reference path
            raise click.ClickException(str(e)) from e
        click.echo(report.to_text(), nl=False)
        return
    _run_stages(["eval"], config_path, force, limit, **kwargs)


if __name__ == "__main__":
    main()
