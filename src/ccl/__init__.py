"""Cluster-driven contrastive refinement of precomputed embeddings."""

from .data import (
    CooccurrenceSet,
    FeatureSet,
    aggregate_tracks,
    build_cooccurrence,
    l2_normalize,
    load_features,
    load_features_csv,
    write_features,
)
from .finch import PartitionHierarchy, finch_hierarchy, first_neighbors, link_components
from .hac import HacResult, ward_hac
from .kmeans import KMeansConfig, minibatch_kmeans
from .metrics import ClusteringReport, bcubed, evaluate_clustering, wcp
from .mining import MiningConfig, PairBatch, apply_video_correction, mine_epoch, rank_clusters
from .pipeline import PipelineConfig, run_ablation, run_pipeline
from .siamese import SiameseModel, TrainConfig, embed, train
from .synth import synth_generate

__all__ = [
    "CooccurrenceSet",
    "FeatureSet",
    "aggregate_tracks",
    "build_cooccurrence",
    "l2_normalize",
    "load_features",
    "load_features_csv",
    "write_features",
    "PartitionHierarchy",
    "finch_hierarchy",
    "first_neighbors",
    "link_components",
    "HacResult",
    "ward_hac",
    "KMeansConfig",
    "minibatch_kmeans",
    "ClusteringReport",
    "bcubed",
    "evaluate_clustering",
    "wcp",
    "MiningConfig",
    "PairBatch",
    "apply_video_correction",
    "mine_epoch",
    "rank_clusters",
    "PipelineConfig",
    "run_ablation",
    "run_pipeline",
    "SiameseModel",
    "TrainConfig",
    "embed",
    "train",
    "synth_generate",
]

__version__ = "0.1.0"
