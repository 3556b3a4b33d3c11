"""ontomatch: LLM-assisted ontology matching.

Aligns two ontologies by enriching concepts with generated definitions,
retrieving nearest candidates in embedding space, judging equivalence from
first-token YES probabilities, and fusing the result with lexical exact
matches under dual thresholds. The root exports the names of README's
library example; everything else is imported from its module.
"""

from .cache import ResponseCache
from .judge import judge_candidates
from .model import Concept
from .providers import MockProvider

__version__ = "0.1.0"
