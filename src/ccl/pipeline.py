"""End-to-end orchestration: features in, refined clustering report out.

`run_pipeline` composes the chain once, timing each stage with a
`StageTimer`: `check_cluster_count` and `check_model_memory` (right after
loading, before any stage or output) -> `prepare_mining` (normalize,
co-occurrence, FINCH level or k-means, video correction, cluster ranks) ->
`train` -> the baseline HAC on the normalized features -> `level_points`
(embed, then track means at track level) -> the "hac" stage (`ward_hac` at
C) -> metrics. Each large array is released after its last reader, so each
HAC holds only its own points: the normalized rows are dropped once
embedded, before the refined HAC; at track level the frame embeddings are
summed per track a block at a time and never held whole.
`eval_units` alone gives the evaluation units' ids and ground truth, which
every score and labels CSV uses. `run_ablation` and the CLI subcommands call
the same functions. Every stage's artifact lands in the output directory and
the report echoes the fully resolved configuration for provenance.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .data import (
    CooccurrenceSet,
    FeatureSet,
    aggregate_tracks,
    build_cooccurrence,
    cluster_means,
    csv_rows,
    l2_normalize,
    load_features,
    load_features_csv,
    track_sums,
    track_units,
)
from .finch import finch_hierarchy, partition_purity
from .hac import check_ward_memory, ward_hac
from .kmeans import KMeansConfig, minibatch_kmeans
from .metrics import evaluate_clustering
from .mining import MiningConfig, apply_video_correction, mine_epoch, rank_clusters, write_pairs_csv
from .siamese import (
    SiameseModel,
    TrainConfig,
    check_model_memory,
    embed,
    embedded_chunks,
    save_model,
    train,
)


log = logging.getLogger(__name__)


class PipelineError(RuntimeError):
    """Failure of the stage ``stage``: "stage '<stage>' failed: <problem>"."""

    def __init__(self, stage: str, problem):
        super().__init__(f"stage '{stage}' failed: {problem}")


# evaluation level -> the id column of its labels CSV
ID_COLUMNS = {"frame": "sample_index", "track": "track_id"}


@dataclass(frozen=True)
class PipelineConfig:
    features: str = ""
    out_dir: str = ""
    partition_index: int = 2
    num_clusters: int = 0          # 0: use the class count from the labels
    eval_level: str = "track"      # "track" or "frame"
    backend: str = "finch"         # "finch" or "kmeans"
    seed: int = 0
    video_correction: bool = True
    mining: MiningConfig = field(default_factory=MiningConfig)
    training: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> None:
        if self.seed < 0:
            raise ValueError(f"pipeline.seed (--seed) must be >= 0, got {self.seed}")
        if self.num_clusters < 0:
            raise ValueError(f"pipeline.num_clusters (--num-clusters) must be >= 0, "
                             f"got {self.num_clusters}")
        if self.partition_index < 1:
            raise ValueError("partition_index must be >= 1")
        if self.eval_level not in ID_COLUMNS:
            raise ValueError(f"eval_level must be 'track' or 'frame', got {self.eval_level!r}")
        if self.backend not in ("finch", "kmeans"):
            raise ValueError(f"backend must be 'finch' or 'kmeans', got {self.backend!r}")
        for name, nested in (("mining", self.mining), ("training", self.training)):
            if nested.seed not in (0, self.seed):
                raise ValueError(f"{name}.seed {nested.seed} disagrees with pipeline.seed "
                                 f"{self.seed}; pipeline.seed (--seed) sets the seed")
        self.resolved_mining().validate()
        self.resolved_training().validate()
        if not (self.mining.use_neg_cluster or self.mining.use_neg_video):
            log.warning("no negative pair source enabled; training may collapse embeddings")

    def resolved_mining(self) -> MiningConfig:
        return replace(self.mining, seed=self.seed)

    def resolved_training(self) -> TrainConfig:
        return replace(self.training, seed=self.seed)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["mining"] = asdict(self.resolved_mining())
        out["training"] = asdict(self.resolved_training())
        return out


# -- flat key-value config files ----------------------------------------

# section -> (the PipelineConfig attribute it writes, "" for the config
# itself; a prefix its key names take as field names; its key names)
_SECTIONS = {
    "pipeline": ("", "", ("partition_index", "num_clusters", "eval_level", "backend", "seed",
                          "video_correction")),
    "sources": ("mining", "use_", ("pos_cluster", "neg_cluster", "neg_video")),
    "mining": ("mining", "", ("z_near", "z_far")),
    "train": ("training", "", ("epochs", "lr", "hidden_dim", "out_dim")),
}


def _resolve(key: str, where: str = "") -> tuple[str, str]:
    """(owner, field) that the dotted ``key`` sets; owner as in _SECTIONS."""
    section, _, name = key.partition(".")
    owner, prefix, names = _SECTIONS.get(section, ("", "", ()))
    if name not in names:
        raise ValueError(f"{where}unknown config key {key!r}")
    return owner, prefix + name


def _parse_value(raw: str):
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def parse_config_file(path) -> dict[str, object]:
    """Flat ``section.key = value`` lines, each typed as its field; '#' starts a comment."""
    values: dict[str, object] = {}
    defaults = PipelineConfig()
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'section.key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        owner, name = _resolve(key, f"{path}:{lineno}: ")
        value = _parse_value(raw)
        expected = type(getattr(getattr(defaults, owner) if owner else defaults, name))
        if type(value) is not expected and not (expected is float and type(value) is int):
            raise ValueError(f"{path}:{lineno}: {key} must be {expected.__name__}, got {raw!r}")
        values[key] = value
    return values


def config_from_values(values: dict[str, object],
                       base: PipelineConfig | None = None) -> PipelineConfig:
    """Apply flat dotted keys on top of a base config (defaults if omitted)."""
    cfg = base or PipelineConfig()
    for key, value in values.items():
        owner, name = _resolve(key)
        if owner:
            cfg = replace(cfg, **{owner: replace(getattr(cfg, owner), **{name: value})})
        else:
            cfg = replace(cfg, **{name: value})
    return cfg


# -- stage artifacts -----------------------------------------------------


def write_partition_csv(hierarchy, path) -> None:
    """CSV sample_index,p1..pL plus a JSON sidecar with cluster counts."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index"] + [f"p{l + 1}" for l in range(hierarchy.num_partitions)])
        stacked = np.stack(hierarchy.partitions, axis=1)
        for i, row in enumerate(stacked.tolist()):
            writer.writerow([i] + row)
    sidecar = {"cluster_counts": hierarchy.cluster_counts,
               "num_partitions": hierarchy.num_partitions}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def _int_cell(path, line: int, row: list[str], column: int) -> int:
    try:
        return int(np.int64(row[column]))
    except (IndexError, ValueError, OverflowError):
        raise ValueError(f"{path} line {line}: expected an integer "
                         f"in the int64 range in column {column + 1}, got {row!r}") from None


def read_partition_csv(path, index: int, num_rows: int) -> np.ndarray:
    """Load one 1-based partition column; one row per feature row, ids in [0, num_rows)."""
    reader = csv_rows(path)
    _, header = next(reader, (0, []))
    depth = len(header) - 1
    if not 1 <= index <= depth:
        raise ValueError(f"partition index {index} out of range: file has L={depth}")
    labels = np.asarray([_int_cell(path, line, row, index) for line, row in reader],
                        dtype=np.int64)
    if labels.size != num_rows:
        raise ValueError(f"{path}: {labels.size} partition rows, expected one per "
                         f"feature row ({num_rows})")
    bad = np.flatnonzero((labels < 0) | (labels >= num_rows))
    if bad.size:
        raise ValueError(f"{path} line {bad[0] + 2}: cluster id {labels[bad[0]]} "
                         f"outside [0, {num_rows})")
    return labels


def write_labels_csv(ids, labels, path, id_column: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([id_column, "label"])
        for unit, lab in zip(np.asarray(ids).tolist(), np.asarray(labels).tolist()):
            writer.writerow([unit, lab])


def read_labels_csv(path) -> tuple[str, np.ndarray, np.ndarray]:
    """(level, unit ids, labels); the header's id column names the level."""
    reader = csv_rows(path)
    _, header = next(reader, (0, []))
    level = next((level for level, column in ID_COLUMNS.items()
                  if header == [column, "label"]), None)
    if level is None:
        expected = " or ".join(f"'{column},label'" for column in ID_COLUMNS.values())
        raise ValueError(f"{path}: header {','.join(header)!r} is not {expected}")
    rows = [(_int_cell(path, line, row, 0), _int_cell(path, line, row, 1))
            for line, row in reader]
    ids, labels = np.asarray(rows, dtype=np.int64).reshape(-1, 2).T
    return level, ids, labels


def read_cooc_csv(path, num_rows: int) -> CooccurrenceSet:
    """Load co-occurring row pairs: two distinct indices in [0, num_rows) per line."""
    first, second = [], []
    reader = csv_rows(path)
    next(reader, None)
    for line, row in reader:
        i, j = _int_cell(path, line, row, 0), _int_cell(path, line, row, 1)
        if not (0 <= i < num_rows and 0 <= j < num_rows) or i == j:
            raise ValueError(f"{path} line {line}: pair ({i}, {j}) is not "
                             f"two distinct rows of the {num_rows} feature rows")
        first.append(i)
        second.append(j)
    return CooccurrenceSet(num_rows, first, second)


def load_any_features(path) -> FeatureSet:
    path = Path(path)
    return load_features_csv(path) if path.suffix == ".csv" else load_features(path)


# -- pipeline ------------------------------------------------------------


class StageTimer:
    """Wall time per named stage; a failure becomes a PipelineError naming it
    (one from a nested stage already names its own)."""

    def __init__(self):
        self.timings: dict[str, float] = {}

    def run(self, name: str, func):
        start = time.perf_counter()
        try:
            result = func()
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(name, exc) from exc
        self.timings[name] = time.perf_counter() - start
        return result


def eval_units(fs: FeatureSet, level: str) -> tuple[np.ndarray, np.ndarray | None]:
    """The level's unit ids (the rows, or the ascending track ids of
    `track_units`) and their ground truth, None when any label is missing or
    unknown (-1); no features are read."""
    if level == "track":
        ids, _, labels = track_units(fs)
    else:
        ids, labels = np.arange(fs.num_samples), fs.label
    return ids, labels if labels is not None and np.all(labels >= 0) else None


def _partition_stats(hierarchy, selected_index, partition, gt) -> dict:
    sizes = np.bincount(partition)
    stats = {
        "cluster_counts": hierarchy.cluster_counts,
        "selected_index": selected_index,
        "selected_num_clusters": int(partition.max()) + 1,
        "largest_cluster": int(sizes.max()),
        "smallest_cluster": int(sizes.min()),
    }
    if gt is not None:
        purity = partition_purity(partition, gt)
        correct = int(round(purity * partition.size))
        stats.update({"purity": purity, "correct_samples": correct,
                      "incorrect_samples": int(partition.size) - correct})
    return stats


def prepare_mining(cfg: PipelineConfig, fs: FeatureSet, timer: StageTimer,
                   partition: np.ndarray | None = None, cooc: CooccurrenceSet | None = None):
    """`run`'s stages up to pair mining: normalize, frame co-occurrence, the
    FINCH hierarchy's selected level (or k-means at its count) and its
    statistics, video correction, cluster ranks. A given ``partition`` or
    ``cooc`` replaces the computed one; with a given partition the hierarchy
    and statistics are None. Returns (normalized, hierarchy, stats, factory),
    the factory mapping an epoch to its pair batches."""
    normalized = timer.run("normalize", lambda: l2_normalize(fs))
    if cooc is None:
        cooc = timer.run("cooccurrence", lambda: (
            build_cooccurrence(normalized) if normalized.frame_id is not None
            else CooccurrenceSet()))
    hierarchy = stats = None
    if partition is None:
        hierarchy = timer.run("finch", lambda: finch_hierarchy(normalized))
        partition = timer.run("select_partition", lambda: hierarchy.partition(cfg.partition_index))
        if cfg.backend == "kmeans":
            k = hierarchy.cluster_counts[cfg.partition_index - 1]
            partition = timer.run("kmeans", lambda: minibatch_kmeans(
                normalized.features, KMeansConfig(k=k, seed=cfg.seed)))
        stats = _partition_stats(hierarchy, cfg.partition_index, partition,
                                 eval_units(normalized, "frame")[1])
    if cfg.video_correction and len(cooc):
        partition = timer.run("video_correction", lambda: apply_video_correction(
            partition, cooc, normalized.features))
    if stats is not None:
        stats["mining_num_clusters"] = int(partition.max()) + 1
    mining_cfg = cfg.resolved_mining()
    ranks = timer.run("rank_clusters", lambda: rank_clusters(
        cluster_means(normalized.features, partition), mining_cfg.z_near, mining_cfg.z_far))
    return normalized, hierarchy, stats, partial(mine_epoch, partition, ranks, cooc, mining_cfg)


def level_points(fs: FeatureSet, level: str, timer: StageTimer,
                 model: SiameseModel | None = None) -> np.ndarray:
    """The level's points: the rows of ``fs``, or with ``model`` their
    embeddings (the "embed" stage), themselves or one new mean per track in
    `eval_units` order (the "aggregate" stage). At track level the embeddings
    are added into the per-track sums a chunk at a time and never held whole.
    Every Ward HAC clusters ``level_points(...)`` in its own "hac" stage."""
    if level == "frame":
        rows = fs if model is None else timer.run("embed", lambda: embed(model, fs))
        return timer.run("aggregate", lambda: rows.features)
    if model is None:
        return timer.run("aggregate", lambda: aggregate_tracks(fs).features)
    tracks = timer.run("embed", lambda: track_sums(track_units(fs), model.dim_hidden,
                                                   embedded_chunks(model, fs)))
    return timer.run("aggregate", lambda: tracks.means().astype(np.float32))


def check_cluster_count(fs: FeatureSet, num_clusters: int, level: str):
    """The level's `eval_units`, checked before any stage runs: refuses units
    it cannot form (an untracked row, a mixed-label track), a cluster count
    outside [1, units] and a Ward distance matrix over the units larger than
    physical memory or the process's cgroup memory limit."""
    if num_clusters < 1:
        raise PipelineError("cluster", f"the cluster count must be >= 1, got {num_clusters}")
    try:
        ids, gt = eval_units(fs, level)
    except ValueError as exc:
        raise PipelineError("aggregate", exc) from None
    if num_clusters > ids.size:
        raise PipelineError("cluster", f"{num_clusters} clusters requested, but there are "
                                       f"only {ids.size} {level}-level units to cluster")
    try:
        check_ward_memory(ids.size, f"{level}-level units")
    except ValueError as exc:
        hint = ("; track-level evaluation (--level track) clusters one point per track"
                if level == "frame" else "")
        raise PipelineError("cluster", f"{exc}{hint}") from None
    return ids, gt


def run_pipeline(cfg: PipelineConfig, fs: FeatureSet | None = None,
                 baseline: dict | None = None) -> dict:
    """Execute the full refinement pipeline; returns the report dict.

    When cfg.out_dir is set, stage artifacts (partition file, pair audit,
    model checkpoint, predicted labels, report.json) are written there.
    ``baseline``, when given, is the report's "baseline" entry of an earlier
    run on the same features, cluster count and level; its HAC is not redone.
    """
    cfg.validate()
    timer = StageTimer()
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if fs is None:
        fs = timer.run("load", lambda: load_any_features(cfg.features))
    num_clusters = cfg.num_clusters or fs.num_classes
    if num_clusters < 1:
        raise PipelineError("cluster", "no cluster count configured and the features "
                                       "carry no labels")
    unit_ids, gt = check_cluster_count(fs, num_clusters, cfg.eval_level)
    check_model_memory(fs.dim, cfg.resolved_training(),
                       fs.num_samples if cfg.eval_level == "frame" else 0)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    normalized, hierarchy, stats, mine = prepare_mining(cfg, fs, timer)
    del fs  # every later stage reads the normalized rows

    def factory(epoch):
        batches = mine(epoch)
        if epoch == 0 and out_dir is not None:
            write_pairs_csv(batches, out_dir / "pairs_epoch0.csv")  # the pair audit
        return batches

    epoch_losses: list[float] = []
    model = timer.run("train", lambda: train(normalized, factory, cfg.resolved_training(),
                                             loss_log=epoch_losses))
    if gt is not None and baseline is None:
        # same units and ground truth as the refined clustering below
        inner = StageTimer()
        baseline = timer.run("baseline", lambda: evaluate_clustering(inner.run("hac", partial(
            ward_hac, level_points(normalized, cfg.eval_level, inner), num_clusters)).labels,
            gt).to_dict())
    # At frame level the embeddings are the points, freed once their HAC has
    # run; at track level they are never held whole.
    points = level_points(normalized, cfg.eval_level, timer, model)
    del normalized  # the refined HAC holds only its points
    hac_result = timer.run("hac", lambda: ward_hac(points, num_clusters))
    del points

    report: dict = {
        "config": cfg.to_dict(),
        "partition_stats": stats,
        "train_epoch_losses": epoch_losses,
        "num_clusters": num_clusters,
    }
    if gt is not None:
        report["ccl"] = timer.run("evaluate", lambda: evaluate_clustering(
            hac_result.labels, gt)).to_dict()
        report["baseline"] = baseline
    report["timings"] = timer.timings

    if out_dir is not None:
        write_partition_csv(hierarchy, out_dir / "partitions.csv")
        if not cfg.training.epochs:  # training mined no epoch, so no audit yet
            write_pairs_csv(mine(0), out_dir / "pairs_epoch0.csv")
        save_model(model, out_dir / "model.ccl")
        write_labels_csv(unit_ids, hac_result.labels, out_dir / "labels.csv",
                         ID_COLUMNS[cfg.eval_level])
        (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


ABLATION_ROWS = [
    ("PosC", (True, False, False)),
    ("NegC", (False, True, False)),
    ("PosC+NVid", (True, False, True)),
    ("PosC+NegC", (True, True, False)),
    ("NegC+NVid", (False, True, True)),
    ("PosC+NegC+NVid", (True, True, True)),
]
# the config keys every ablation row sets, from its (PosC, NegC, NVid)
ABLATION_KEYS = ("sources.pos_cluster", "sources.neg_cluster", "sources.neg_video",
                 "pipeline.video_correction")


def run_ablation(cfg: PipelineConfig, fs: FeatureSet | None = None) -> dict:
    """Baseline (from the first run's report) plus the six pair-source combinations."""
    if fs is None:
        fs = load_any_features(cfg.features)
    if eval_units(fs, "frame")[1] is None:
        raise ValueError("ablation needs ground-truth labels for every row")
    summary: dict = {"rows": []}
    out_root = Path(cfg.out_dir) if cfg.out_dir else None
    baseline = None  # the first run's; no row setting changes the baseline HAC
    for name, (pos_c, neg_c, n_vid) in ABLATION_ROWS:
        row_cfg = replace(config_from_values(
            dict(zip(ABLATION_KEYS, (pos_c, neg_c, n_vid, n_vid))), cfg),
            out_dir=str(out_root / name.replace("+", "_")) if out_root else "")
        report = run_pipeline(row_cfg, fs, baseline)
        if baseline is None:
            baseline = report["baseline"]
            summary["rows"].append({"name": "Base", "sources": {}, "acc": baseline["acc"]})
        summary["rows"].append({
            "name": name,
            "sources": {"PosC": pos_c, "NegC": neg_c, "NVid": n_vid},
            "acc": report["ccl"]["acc"],
        })
    if out_root is not None:
        out_root.mkdir(parents=True, exist_ok=True)
        (out_root / "ablation.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary
