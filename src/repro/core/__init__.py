"""The paper's primary contribution: typing programs and the 3-stage method.

* :mod:`repro.core.typing_program` — the restricted monadic-datalog
  typing language (typed links, single-rule types, programs);
* :mod:`repro.core.notation` — the paper's arrow notation (printer and
  parser);
* :mod:`repro.core.fixpoint` — greatest-fixpoint semantics;
* :mod:`repro.core.delta` — differential GFP and incremental Stage 1
  maintenance under mutation batches;
* :mod:`repro.core.perfect` — Stage 1: minimal perfect typing;
* :mod:`repro.core.roles` — multiple-role decomposition;
* :mod:`repro.core.defect` — excess / deficit / defect measures;
* :mod:`repro.core.distance` — Manhattan and weighted type distances;
* :mod:`repro.core.clustering` — Stage 2: greedy type merging;
* :mod:`repro.core.recast` — Stage 3: recasting objects into the types;
* :mod:`repro.core.sensitivity` — defect-vs-k sweeps (Figure 6);
* :mod:`repro.core.pipeline` — the :class:`SchemaExtractor` façade;
* :mod:`repro.core.sorts` — multiple atomic sorts (Remark 2.1);
* :mod:`repro.core.prior` — a-priori typing knowledge (Section 2);
* :mod:`repro.core.incremental` — typing maintenance under updates
  (Section 6's open problem).
"""

from repro.core.clustering import (
    GreedyMerger,
    MergePolicy,
    MergeRecord,
    Stage2Result,
)
from repro.core.defect import DefectReport, compute_defect, compute_deficit, compute_excess
from repro.core.deficit_sharing import compute_deficit_with_sharing
from repro.core.delta import DeltaStats, SignatureIndex, Stage1Maintainer
from repro.core.distance import (
    WeightedDistance,
    delta_1,
    delta_2,
    delta_3,
    delta_4,
    delta_5,
    manhattan,
)
from repro.core.exact import ExactTyping, optimal_typing
from repro.core.explain import diff_programs, explain_defect, explain_object
from repro.core.fixpoint import (
    FixpointResult,
    greatest_fixpoint,
    least_fixpoint,
)
from repro.core.hierarchy import (
    format_hierarchy,
    hierarchy_edges,
    hierarchy_to_dot,
    subsumption_pairs,
)
from repro.core.incremental import DriftStats, IncrementalTyper
from repro.core.metrics import (
    TypingReport,
    compression_ratio,
    defect_rate,
    program_size,
    typing_report,
)
from repro.core.notation import format_program, format_rule, parse_program
from repro.core.perfect import PerfectTyping, minimal_perfect_typing
from repro.core.prior import PriorKnowledge, combine_with_stage1
from repro.core.pipeline import ExtractionResult, SchemaExtractor
from repro.core.recast import (
    RecastMode,
    RecastResult,
    recast,
    type_new_object,
)
from repro.core.roles import RoleDecomposition, decompose_roles
from repro.core.serialize import (
    StoredExtraction,
    dumps_extraction,
    load_extraction,
    loads_extraction,
    save_extraction,
)
from repro.core.sensitivity import SensitivityPoint, SensitivityResult, sensitivity_sweep
from repro.core.sorts import (
    minimal_perfect_typing_with_sorts,
    sort_of,
    sorted_local_rule,
)
from repro.core.typing_program import (
    ATOMIC,
    Direction,
    TypedLink,
    TypeRule,
    TypingProgram,
)

__all__ = [
    "ATOMIC",
    "DriftStats",
    "ExactTyping",
    "IncrementalTyper",
    "PriorKnowledge",
    "DefectReport",
    "DeltaStats",
    "Direction",
    "ExtractionResult",
    "FixpointResult",
    "GreedyMerger",
    "MergePolicy",
    "MergeRecord",
    "PerfectTyping",
    "RecastMode",
    "RecastResult",
    "RoleDecomposition",
    "SchemaExtractor",
    "SensitivityPoint",
    "SensitivityResult",
    "SignatureIndex",
    "Stage1Maintainer",
    "Stage2Result",
    "StoredExtraction",
    "TypingReport",
    "TypeRule",
    "TypedLink",
    "TypingProgram",
    "WeightedDistance",
    "combine_with_stage1",
    "compute_defect",
    "compute_deficit",
    "compute_deficit_with_sharing",
    "compute_excess",
    "compression_ratio",
    "decompose_roles",
    "defect_rate",
    "dumps_extraction",
    "delta_1",
    "delta_2",
    "delta_3",
    "delta_4",
    "delta_5",
    "diff_programs",
    "explain_defect",
    "explain_object",
    "format_hierarchy",
    "format_program",
    "format_rule",
    "greatest_fixpoint",
    "hierarchy_edges",
    "hierarchy_to_dot",
    "load_extraction",
    "loads_extraction",
    "least_fixpoint",
    "manhattan",
    "minimal_perfect_typing",
    "minimal_perfect_typing_with_sorts",
    "optimal_typing",
    "parse_program",
    "program_size",
    "recast",
    "save_extraction",
    "sensitivity_sweep",
    "sort_of",
    "sorted_local_rule",
    "subsumption_pairs",
    "type_new_object",
    "typing_report",
]
