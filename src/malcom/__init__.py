"""Behavioral community discovery for sparse feature-vector corpora:
tf-idf weighting, pairwise similarity, relation-graph construction and
map-equation community detection with evaluation against known families.
"""
from .dataset import (
    Dataset,
    DatasetError,
    FeatureDictionaryEntry,
    Sample,
    filter_by_scope,
    load_dataset,
    load_dictionary,
    save_dataset,
    save_dictionary,
)
from .errors import MalcomError, ParameterError
from .weighting import (
    TfIdfModel,
    WeightSet,
    compute_tfidf,
    family_similarity,
    feature_frequency,
    pairwise_weights,
)
from .graph import (
    GraphBuildParams,
    GraphError,
    RelationGraph,
    build_en,
    build_epsilon,
    build_graph,
    build_knn,
    percentile_cutoff,
)
from .infomap import (
    DetectorConfig,
    InfomapError,
    MapEquationBreakdown,
    Partition,
    codelength,
    detect,
)
from .metrics import (
    EvalError,
    EvaluationReport,
    accuracy,
    community_family_matrix,
    evaluate,
    rand_statistic,
)
from .baseline import KMeansConfig, KMeansResult, kmeans
from .synth import SynthConfig, feature_dictionary, generate
from .pipeline import PipelineReport, run_pipeline

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
