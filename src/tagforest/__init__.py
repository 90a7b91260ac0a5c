"""tagforest: tree-aware data selection for instruction tuning.

Builds a tag taxonomy, anchors scored instances onto its leaves, and
greedily selects a subset maximizing concave information coverage over
the tree, optionally regularized toward a target leaf distribution.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .anchoring import (
    AnchoredPool,
    AnchoredRecord,
    AnchorReport,
    anchor_pool,
    load_anchored,
    write_anchored,
)
from .io import (
    DuplicateIdError,
    EmbeddingTable,
    Instance,
    InstancePool,
    TargetDistribution,
    dumps_canonical,
    fallback_embedding,
    load_embeddings,
    load_instances,
    load_target,
    load_tree,
    normalize_scores,
    save_target,
    save_tree,
    sha256_file,
    write_embeddings,
)
from .matrices import (
    AncestryMatrix,
    PropagationMatrix,
    build_ancestry_matrix,
    build_propagation_matrix,
)
from .objective import (
    GRADIENT_FLOOR,
    InfoState,
    ObjectiveConfig,
    composite_score,
    gradient_vector,
    kl_penalty,
    state_information,
)
from .sampler import (
    Pick,
    SamplerConfig,
    SelectionTrace,
    derive_target,
    export_subset,
    sample,
    write_trace,
)
from .tree import InvalidTreeError, TagTree, TreeNode, ValidationReport, validate_tree
from .treebuild import TreeBuildConfig, build_tree, kmeans

__all__ = [
    "__version__",
    "AncestryMatrix",
    "AnchorReport",
    "AnchoredPool",
    "AnchoredRecord",
    "DuplicateIdError",
    "EmbeddingTable",
    "GRADIENT_FLOOR",
    "InfoState",
    "Instance",
    "InstancePool",
    "InvalidTreeError",
    "ObjectiveConfig",
    "Pick",
    "PropagationMatrix",
    "SamplerConfig",
    "SelectionTrace",
    "TagTree",
    "TargetDistribution",
    "TreeBuildConfig",
    "TreeNode",
    "ValidationReport",
    "anchor_pool",
    "build_ancestry_matrix",
    "build_propagation_matrix",
    "build_tree",
    "composite_score",
    "derive_target",
    "dumps_canonical",
    "export_subset",
    "fallback_embedding",
    "gradient_vector",
    "kl_penalty",
    "kmeans",
    "load_anchored",
    "load_embeddings",
    "load_instances",
    "load_target",
    "load_tree",
    "normalize_scores",
    "sample",
    "save_target",
    "save_tree",
    "sha256_file",
    "state_information",
    "validate_tree",
    "write_anchored",
    "write_embeddings",
    "write_trace",
]
