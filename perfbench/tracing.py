"""Span recording around tagforest's public functions, from outside the package.

``installed(tracer)`` replaces each traced function in every loaded
``tagforest.*`` module namespace (and each traced method on its class) with a
wrapper that records a span and calls straight through; leaving the block
puts the originals back. Spans stay in memory as tuples
``(span_id, name, start, end, parent_id, run_id)``; the caller writes them
out when the run ends. Self time is derived from them by ``self_times``.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time

# module -> (function name, span name). Span names are "<layer>.<function>";
# file hashing is named for the manifest code in cli that is its only caller.
FUNCTIONS = {
    "tagforest.sampler": [
        ("sample", "sampler.sample"),
        ("derive_target", "sampler.derive_target"),
        ("export_subset", "sampler.export_subset"),
        ("write_trace", "sampler.write_trace"),
    ],
    "tagforest.objective": [
        ("composite_score", "objective.composite_score"),
        ("gradient_vector", "objective.gradient_vector"),
        ("state_information", "objective.state_information"),
        ("kl_penalty", "objective.kl_penalty"),
    ],
    "tagforest.anchoring": [
        ("anchor_pool", "anchoring.anchor_pool"),
        ("load_anchored", "anchoring.load_anchored"),
        ("write_anchored", "anchoring.write_anchored"),
    ],
    "tagforest.matrices": [
        ("build_ancestry_matrix", "matrices.build_ancestry"),
        ("build_propagation_matrix", "matrices.build_propagation"),
    ],
    "tagforest.tree": [("validate_tree", "tree.validate_tree")],
    "tagforest.treebuild": [
        ("build_tree", "treebuild.build_tree"),
        ("kmeans", "treebuild.kmeans"),
        ("cluster_level", "treebuild.cluster_level"),
        ("refine_clusters", "treebuild.refine_clusters"),
    ],
    "tagforest.io": [
        ("load_instances", "io.load_instances"),
        ("normalize_scores", "io.normalize_scores"),
        ("load_embeddings", "io.load_embeddings"),
        ("load_tree", "io.load_tree"),
        ("save_tree", "io.save_tree"),
        ("fallback_embedding", "io.fallback_embedding"),
        ("sha256_file", "cli.sha256"),
    ],
    "tagforest.cli": [
        ("cmd_build_tree", "cli.build_tree"),
        ("cmd_anchor", "cli.anchor"),
        ("cmd_derive_target", "cli.derive_target"),
        ("cmd_sample", "cli.sample"),
    ],
}

# (module, class, method, span name)
METHODS = [
    ("tagforest.objective", "InfoState", "add_contribution", "objective.add_contribution"),
    ("tagforest.matrices", "AncestryMatrix", "tree_counts", "matrices.tree_counts"),
]


class Tracer:
    """Collects spans; parents are tracked per thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        spans = self.spans
        ids = self._ids
        local = self._local
        run_id = self.run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, run_id))

        return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every traced function and method for a recording wrapper."""
    import tagforest  # noqa: F401  (loads every tagforest module)

    replaced = []  # (owner, attribute, original)
    wrappers = {}
    for module_name, entries in FUNCTIONS.items():
        module = sys.modules[module_name]
        for func_name, span_name in entries:
            original = getattr(module, func_name)
            wrappers[id(original)] = (original, tracer.wrap(span_name, original))
    for module_name, module in list(sys.modules.items()):
        if module_name != "tagforest" and not module_name.startswith("tagforest."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                replaced.append((module, attr, value))
                setattr(module, attr, hit[1])
    for module_name, class_name, method, span_name in METHODS:
        cls = getattr(sys.modules[module_name], class_name)
        original = cls.__dict__[method]
        replaced.append((cls, method, original))
        setattr(cls, method, tracer.wrap(span_name, original))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for span_id, _, start, end, parent, _ in spans:
        if parent is not None and parent in own:
            own[parent] -= end - start
    return own
