"""Semi-structured knowledge management engine for task-oriented dialog.

Fuses a structured entity database with free-text documents, tracks an
extended belief state as a parsable text span, runs exact and fuzzy
knowledge operations against the fused base, and evaluates both the
intermediate knowledge management and the end-to-end dialog quality.
"""

from .belief import (
    DialogContext,
    DsvTriple,
    ExtendedBeliefState,
    extend_gold_label,
    extended_prf,
    joint_goal_match,
    make_state,
    parse_belief_span,
    serialize_belief,
)
from .corpus import (
    CorpusSpec,
    Dialog,
    DialogCorpus,
    DialogTurn,
    DomainGoal,
    GoalSpec,
    corpus_stats,
    generate_synthetic_corpus,
    load_corpus,
    save_corpus,
)
from .errors import SeknowError
from .kb import (
    Document,
    Domain,
    Entity,
    KnowledgeBase,
    build_ontology,
    list_entities,
    load_knowledge_base,
    validate_knowledge_base,
    write_knowledge_base,
)
from .knowops import (
    QueryResult,
    QueryVector,
    RetrievedDocument,
    format_query_span,
    fuzzy_similarity,
    knowledge_operation,
    map_query_vector,
    match_entity,
    retrieve_document,
    structured_query,
)
from .metrics import (
    MetricsReport,
    bleu,
    combined_score,
    evaluate_corpus,
    inform_success,
    meteor_simplified,
    retrieval_metrics,
    rouge_l,
)
from .pipeline import (
    CorruptionSample,
    Session,
    TurnOutput,
    corrupt_samples,
    lexicalize,
    make_heuristic_predictor,
    make_oracle_predictor,
    make_template_generator,
    run_turn,
    template_generate,
)
from .topics import (
    DEFAULT_THRESHOLDS,
    TopicIndex,
    TopicWord,
    build_topic_index,
    compute_ca_tfidf,
    compute_tfidf,
    extract_candidates,
    read_index,
    tokenize,
    write_index,
)

__version__ = "0.1.0"
