"""ontomatch: LLM-assisted ontology matching.

Aligns two ontologies by enriching concepts with generated definitions,
retrieving nearest candidates in embedding space, judging equivalence from
first-token YES probabilities, and fusing the result with lexical exact
matches under dual thresholds.
"""

from .errors import (
    CapabilityError,
    ConfigError,
    DegenerateVectorError,
    MissingArtifactError,
    OntologyParseError,
    OntomatchError,
    ProviderError,
    StructureError,
    UndefinedMetricError,
    UnparseableJudgementError,
)
from .model import (
    Concept,
    ContextBlock,
    Judgement,
    Mapping,
    MappingSet,
    Ontology,
    concept_context,
    read_concept_jsonl,
    write_concept_jsonl,
)
from .ingest import parse_ontology
from .verbalize import ClassExpression, Intersection, Named, SomeValuesFrom, verbalize
from .providers import (
    AliasTable,
    HttpProvider,
    HttpProviderConfig,
    MockProvider,
    Prompt,
    SamplingParams,
)
from .definitions import (
    build_definition_prompt,
    build_embedding_text,
    definition_prompt,
    generate_definition,
)
from .retrieval import ExactIndex, HnswIndex, HnswParams, build_index, cosine, generate_candidates
from .judge import FewShotExample, build_judgement_prompt, judge_pair, judge_prompt, p_yes
from .fusion import exact_match, filter_and_fuse
from .evaluate import MetricsReport, RankingCase, global_metrics, local_ranking, make_ranking_cases
from .cache import ResponseCache
from .pipeline import Pipeline, PipelineConfig

__version__ = "0.1.0"
