"""Per-layer figures of the benchmark from one traced run's spans.

A span is a dict with `id`, `name`, `parent` (an id or None), `start`, `end`
(perf_counter seconds) and `counts`, as written by tracing.Tracer.
"""

from __future__ import annotations


def _duration(span) -> float:
    return span["end"] - span["start"]


def self_time(span, spans) -> float:
    """Duration minus the time its child spans cover.

    Spans come from one thread, so children of a span never overlap and
    their union is their sum.
    """
    children = sum(_duration(s) for s in spans if s["parent"] == span["id"])
    return _duration(span) - children


def _total(spans, name, parent_name=None) -> float:
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        if s["name"] != name:
            continue
        parent = by_id.get(s["parent"])
        if parent_name is not None and (parent is None or parent["name"] != parent_name):
            continue
        total += _duration(s)
    return total


def _count(spans, name, key):
    """A counter recorded on the first span of that name; 0 if the layer never ran."""
    for s in spans:
        if s["name"] == name and key in s["counts"]:
            return s["counts"][key]
    return 0


def layer_metrics(spans, counters: dict, untraced_s: float,
                  artifact_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced run (names as in BENCHMARK.json).

    untraced_s is the untraced pipeline time of the same input, and
    artifact_bytes the size of the untraced run's output directory.
    """
    train_span = next(s for s in spans if s["name"] == "siamese.train")
    train_self = self_time(train_span, spans)
    hac_points = _count(spans, "hac.ward", "points")
    k = _count(spans, "kmeans.fit", "k")
    used = _count(spans, "kmeans.fit", "used_clusters")
    top_level = sum(_duration(s) for s in spans if s["parent"] is None)
    return {
        "data.load_s": _total(spans, "data.load"),
        "data.normalize_s": _total(spans, "data.normalize"),
        "data.cooccurrence_s": _total(spans, "data.cooccurrence"),
        "data.cooc_pairs": _count(spans, "data.cooccurrence", "pairs"),
        "data.aggregate_s": _total(spans, "data.aggregate"),
        "finch.hierarchy_s": _total(spans, "finch.hierarchy"),
        "finch.levels": _count(spans, "finch.hierarchy", "levels"),
        "finch.selected_clusters": counters["finch.selected_clusters"],
        "finch.selected_purity": counters["finch.selected_purity"],
        "kmeans.fit_s": _total(spans, "kmeans.fit"),
        "kmeans.k": k,
        "kmeans.used_clusters": used,
        "kmeans.useful_ratio": used / k if k else 0.0,
        "mining.video_correction_s": _total(spans, "mining.video_correction"),
        "mining.evicted_rows": _count(spans, "mining.video_correction", "evicted_rows"),
        "mining.rank_s": _total(spans, "mining.rank"),
        "mining.epoch_s": _total(spans, "mining.epoch", parent_name="siamese.train"),
        "mining.pairs": counters["mining.pairs"],
        "mining.unique_pair_ratio": counters["mining.unique_pair_ratio"],
        "mining.nvid_share": counters["mining.nvid_share"],
        "siamese.train_self_s": train_self,
        "siamese.steps": counters["siamese.steps"],
        "siamese.pairs_per_s": counters["mining.pairs"] / train_self,
        "siamese.gflop": counters["siamese.gflop"],
        "siamese.gflop_per_s": counters["siamese.gflop"] / train_self,
        "siamese.embed_s": _total(spans, "siamese.embed"),
        "siamese.final_loss": counters["siamese.final_loss"],
        "hac.ward_s": _total(spans, "hac.ward"),
        "hac.baseline_ward_s": _total(spans, "hac.baseline_ward"),
        "hac.points": hac_points,
        "hac.dist_matrix_mb": hac_points * hac_points * 8 / 2**20,
        "metrics.evaluate_s": _total(spans, "metrics.evaluate"),
        "pipeline.artifacts_s": _total(spans, "pipeline.artifacts"),
        "pipeline.artifact_bytes": artifact_bytes,
        "pipeline.untraced_gap_s": untraced_s - top_level,
    }
