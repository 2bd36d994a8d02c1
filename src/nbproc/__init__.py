"""Negative-binomial process topic models with exact block Gibbs inference.

Joint count/mixture models over bag-of-words corpora: a family of nine
model variants that differ in how negative-binomial dispersion and
probability parameters are shared across documents and topics, all
inferred with closed-form block Gibbs sweeps built on Chinese restaurant
table and compound-Poisson augmentations.  Includes corpus ingestion,
held-out per-word perplexity, and a joint-distribution (Geweke-style)
correctness harness for every kernel.
"""

from .corpus import (
    Corpus,
    EmptyCorpusError,
    HeldOutSplit,
    ParseError,
    SyntheticGroundTruth,
    SyntheticSpec,
    document_views,
    drop_empty_documents,
    filter_vocabulary,
    flatten_documents,
    load_bag_of_words,
    split_train_test,
    synthesize_corpus,
    write_bag_of_words,
)
from .distributions import (
    CapacityError,
    ParameterError,
    StirlingTriangle,
    crt_pmf,
    sample_beta,
    sample_crt,
    sample_crt_array,
    sample_dirichlet,
    sample_gamma,
    sample_logarithmic,
    sample_nb_compound,
    sample_nb_direct,
)
from .evaluation import (
    EvaluationError,
    GewekeReport,
    GewekeSettings,
    HarnessError,
    SampleAccumulator,
    TraceReport,
    accumulate,
    default_geweke_settings,
    geweke_check,
    heldout_perplexity,
    summarize_parameters,
)
from .models import (
    HyperParams,
    IterationError,
    KindSpec,
    ModelKind,
    ModelState,
    count_active_topics,
    crf_alpha_step,
    forward_draw,
    gibbs_sweep,
    initialize,
    sample_topic_assignments,
    set_topics,
    simulate_data,
    update_topics,
    validate_state,
)
from .rng import RandomSource

__version__ = "0.1.0"
