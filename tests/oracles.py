"""Independent brute-force reference implementations used by the tests.

Everything here recomputes from first principles (full adjacency matrices,
breadth-first search, from-scratch variance sums, per-item loops) and shares
no code path with the implementations under test; `loop_minibatch_kmeans`
takes k-means' seeding and assignment from the program and tests its fold.
The exceptions are the last four functions: thin wrappers that reach the
Siamese model's private train-mode forward, loss and step per batch or per
pair, so that tests check the code training runs.
"""

from __future__ import annotations

import numpy as np

from ccl import kmeans
from ccl.data import sq_distances
from ccl.kmeans import _kmeanspp
from ccl.labeling import relabel_contiguous
from ccl.mining import NEG_CLUSTER, NEG_VIDEO, POS_CLUSTER, POS_NEAR, PairBatch
from ccl.siamese import TRAINABLE, _batch_statistics, _pair_loss, _train_step


def unit_rows(points):
    points = np.asarray(points, dtype=np.float64)
    return points / np.linalg.norm(points, axis=1)[:, None]


def brute_first_neighbors(points) -> np.ndarray:
    """Nearest other row by cosine distance, full matrix, ties to low index."""
    unit = unit_rows(points)
    dist = 1.0 - unit @ unit.T
    np.fill_diagonal(dist, np.inf)
    return np.argmin(dist, axis=1)


def adjacency_components(kappa) -> np.ndarray:
    """Labels from the full first-neighbor adjacency matrix via BFS.

    The adjacency includes all three clauses: j == kappa[i], kappa[j] == i,
    and the shared first neighbor kappa[i] == kappa[j].
    """
    kappa = np.asarray(kappa)
    n = kappa.size
    idx = np.arange(n)
    adj = kappa[:, None] == idx[None, :]          # j == kappa[i]
    adj |= adj.T                                  # kappa[j] == i
    adj |= kappa[:, None] == kappa[None, :]       # shared first neighbor
    np.fill_diagonal(adj, False)
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        queue = [start]
        labels[start] = next_label
        while queue:
            node = queue.pop(0)
            for other in np.flatnonzero(adj[node]):
                if labels[other] < 0:
                    labels[other] = next_label
                    queue.append(other)
        next_label += 1
    return labels


def groupby_means(points, labels) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    m = int(labels.max()) + 1
    means = np.stack([points[labels == c].mean(axis=0) for c in range(m)])
    return means / np.linalg.norm(means, axis=1)[:, None]


def add_at_group_sums(points, labels, m: int) -> np.ndarray:
    """Per-group row sums by an unbuffered scatter-add into zeros, row by row."""
    points = np.asarray(points, dtype=np.float64)
    sums = np.zeros((m, points.shape[1]), dtype=np.float64)
    np.add.at(sums, np.asarray(labels, dtype=np.int64), points)
    return sums


def loop_minibatch_kmeans(points, cfg) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous labels and centers, folding each minibatch one cluster at a
    time. Seeding, draws and assignment are the program's; only the fold is
    this loop's."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    rng = np.random.default_rng(cfg.seed)
    sub = rng.choice(n, size=min(n, kmeans.INIT_SUBSAMPLE_FACTOR * cfg.k), replace=False)
    centers = _kmeanspp(points[sub], cfg.k, rng)
    counts = np.zeros(cfg.k, dtype=np.int64)
    batch_size = min(kmeans.BATCH_SIZE, n)
    for _ in range(kmeans.MAX_ITERS):
        batch = rng.choice(n, size=batch_size, replace=False)
        assign = np.argmin(sq_distances(points[batch], centers), axis=1)
        for c in np.unique(assign):
            member = points[batch[assign == c]]
            new_count = counts[c] + member.shape[0]
            centers[c] = (counts[c] * centers[c] + member.sum(axis=0)) / new_count
            counts[c] = new_count
    labels = relabel_contiguous(np.argmin(sq_distances(points, centers), axis=1))
    return labels, centers


def naive_finch(points) -> tuple[list[np.ndarray], list[int]]:
    """Full hierarchy via adjacency matrices and BFS at every level."""
    points = np.asarray(points, dtype=np.float64)
    labels = adjacency_components(brute_first_neighbors(points))
    partitions = [labels]
    counts = [int(labels.max()) + 1]
    while counts[-1] > 2:
        means = groupby_means(points, partitions[-1])
        meta = adjacency_components(brute_first_neighbors(means))
        merged = meta[partitions[-1]]
        m = int(merged.max()) + 1
        if m <= 1 or m >= counts[-1]:
            break
        partitions.append(merged)
        counts.append(m)
    return partitions, counts


def scatter(points) -> float:
    mean = points.mean(axis=0)
    return float(((points - mean) ** 2).sum())


def naive_ward(points, c) -> np.ndarray:
    """Greedy Ward merging, recomputing every cost from scratch at each step."""
    points = np.asarray(points, dtype=np.float64)
    clusters = [[i] for i in range(points.shape[0])]
    while len(clusters) > c:
        best = None
        own = [scatter(points[members]) for members in clusters]
        for p in range(len(clusters)):
            for q in range(p + 1, len(clusters)):
                cost = scatter(points[clusters[p] + clusters[q]]) - own[p] - own[q]
                if best is None or cost < best[0]:
                    best = (cost, p, q)
        _, p, q = best
        clusters[p] = clusters[p] + clusters[q]
        del clusters[q]
    labels = np.empty(points.shape[0], dtype=np.int64)
    for ci, members in enumerate(clusters):
        labels[members] = ci
    return canonical(labels)


def loop_nn_chain_merges(half_d2) -> list[tuple[int, int, float]]:
    """All N-1 Ward merges as (slot_i, slot_j, cost) in chain discovery order.

    The nearest-neighbour chain over a float32 copy of the N x N half squared
    distances half_d2, with an active mask, updated by Lance-Williams over the
    active slots only; cluster sizes are float32 too.
    """
    d2 = np.array(half_d2, dtype=np.float32)
    n = d2.shape[0]
    np.fill_diagonal(d2, np.inf)
    size = np.ones(n, dtype=np.float32)
    active = np.ones(n, dtype=bool)
    merges: list[tuple[int, int, float]] = []
    chain: list[int] = []

    while len(merges) < n - 1:
        if not chain:
            chain.append(int(np.flatnonzero(active)[0]))
        top = chain[-1]
        row = np.where(active, d2[top], np.inf)
        row[top] = np.inf
        nn = int(np.argmin(row))
        dist = row[nn]
        if len(chain) >= 2 and d2[top, chain[-2]] <= dist:
            prev = chain.pop(-2)
            chain.pop()
            merges.append((min(prev, top), max(prev, top), float(d2[top, prev])))
            _lw_update(d2, size, active, min(prev, top), max(prev, top))
        else:
            chain.append(nn)
    return merges


def sq_dist_to_all(points: np.ndarray) -> np.ndarray:
    sq = np.einsum("ij,ij->i", points, points)
    d2 = sq[:, None] + sq[None, :] - 2.0 * points @ points.T
    return np.maximum(d2, 0.0)


def _lw_update(d2, size, active, keep: int, drop: int) -> None:
    """Merge cluster slots keep+drop into keep with the Ward recurrence."""
    na, nb = size[keep], size[drop]
    dab = d2[keep, drop]
    others = np.flatnonzero(active)
    others = others[(others != keep) & (others != drop)]
    ne = size[others]
    merged = ((na + ne) * d2[keep, others] + (nb + ne) * d2[drop, others] - ne * dab) / (na + nb + ne)
    d2[keep, others] = merged
    d2[others, keep] = merged
    d2[keep, keep] = np.inf
    active[drop] = False
    size[keep] = na + nb


class UnionFind:
    """Disjoint sets over 0..n-1 with path halving and union by size."""

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def labels(self) -> np.ndarray:
        """Component labels, renumbered by first occurrence."""
        return canonical([self.find(i) for i in range(len(self.parent))])


def union_find_components(succ) -> np.ndarray:
    """Components of the undirected graph with an edge (i, succ[i]) per i."""
    succ = np.asarray(succ)
    uf = UnionFind(succ.size)
    for i, j in enumerate(succ.tolist()):
        uf.union(i, j)
    return uf.labels()


def union_find_ward_replay(merges, n: int, c: int):
    """Labels and dendrogram merge log of the n-c cheapest merges, via union-find.

    Merges are replayed in stable cost order; each side of a merge is named by
    the dendrogram id last assigned to its current union-find root.
    """
    order = np.argsort(np.array([m[2] for m in merges]), kind="stable")
    uf = UnionFind(n)
    cluster_id = np.arange(n, dtype=np.int64)
    merge_log: list[tuple[int, int, float]] = []
    for t, idx in enumerate(order[: n - c]):
        i, j, cost = merges[idx]
        a = int(cluster_id[uf.find(i)])
        b = int(cluster_id[uf.find(j)])
        merge_log.append((min(a, b), max(a, b), cost))
        uf.union(i, j)
        cluster_id[uf.find(i)] = n + t
    return uf.labels(), merge_log


def canonical(labels) -> np.ndarray:
    """Relabel by first occurrence, independently of ccl.labeling."""
    labels = np.asarray(labels)
    seen: dict[int, int] = {}
    out = np.empty(labels.size, dtype=np.int64)
    for i, lab in enumerate(labels.tolist()):
        if lab not in seen:
            seen[lab] = len(seen)
        out[i] = seen[lab]
    return out


def brute_bcubed(pred, gt) -> tuple[float, float, float]:
    """Item-by-item B-Cubed from the set definitions."""
    pred = list(pred)
    gt = list(gt)
    n = len(pred)
    precisions, recalls = [], []
    for i in range(n):
        cluster = [j for j in range(n) if pred[j] == pred[i]]
        klass = [j for j in range(n) if gt[j] == gt[i]]
        overlap = len(set(cluster) & set(klass))
        precisions.append(overlap / len(cluster))
        recalls.append(overlap / len(klass))
    p = sum(precisions) / n
    r = sum(recalls) / n
    f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f


def brute_wcp(pred, gt) -> float:
    pred = list(pred)
    gt = list(gt)
    total = 0
    for c in set(pred):
        member_gt = [gt[i] for i in range(len(pred)) if pred[i] == c]
        total += max(member_gt.count(v) for v in set(member_gt))
    return total / len(pred)


def pair_set(cooc) -> set[tuple[int, int]]:
    """The (i, j), i < j, pairs a co-occurrence set's codes stand for."""
    return {(int(c) // cooc.n, int(c) % cooc.n) for c in cooc.codes}


def naive_cooccurrence(fs) -> set[tuple[int, int]]:
    """Pairs of distinct rows sharing a frame_id >= 0, by a per-frame double loop."""
    pairs = set()
    order = np.argsort(fs.frame_id, kind="stable")
    sorted_frames = fs.frame_id[order]
    start = 0
    n = fs.num_samples
    while start < n:
        end = start
        while end < n and sorted_frames[end] == sorted_frames[start]:
            end += 1
        if sorted_frames[start] >= 0 and end - start > 1:
            members = np.sort(order[start:end])
            for a in range(members.size):
                for b in range(a + 1, members.size):
                    pairs.add((int(members[a]), int(members[b])))
        start = end
    return pairs


def naive_aggregate_tracks(fs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-track loop over ascending track ids: (float32 l2-normalized mean
    rows, track ids, labels, -1 without labels); mixed labels raise."""
    track_ids = np.unique(fs.track_id)
    labels = fs.label if fs.label is not None else np.full(fs.num_samples, -1, dtype=np.int64)
    means = np.empty((track_ids.size, fs.dim), dtype=np.float64)
    track_labels = np.empty(track_ids.size, dtype=np.int64)
    for t, tid in enumerate(track_ids):
        member = np.flatnonzero(fs.track_id == tid)
        distinct = np.unique(labels[member])
        if distinct.size > 1:
            raise ValueError(f"track {tid} has mixed labels {distinct.tolist()}")
        track_labels[t] = distinct[0]
        means[t] = fs.features[member].astype(np.float64).mean(axis=0)
    unit = means / np.linalg.norm(means, axis=1)[:, None]
    return unit.astype(np.float32), track_ids, track_labels


def naive_video_correction(partition, cooc, points) -> np.ndarray:
    """Video correction re-scanning every co-occurrence pair after each move."""
    labels = np.asarray(partition, dtype=np.int64).copy()
    points = np.asarray(points, dtype=np.float64)
    m = int(labels.max()) + 1
    next_label = m
    pairs = pair_set(cooc)
    for c in range(m):
        while True:
            member_set = set(np.flatnonzero(labels == c).tolist())
            violating = sorted(
                p for p in pairs if p[0] in member_set and p[1] in member_set)
            if not violating:
                break
            i, j = violating[0]
            mean = points[sorted(member_set)].mean(axis=0)
            di = float(np.linalg.norm(points[i] - mean))
            dj = float(np.linalg.norm(points[j] - mean))
            loser = j if di <= dj else i
            labels[loser] = next_label
            next_label += 1
    return labels


def _naive_touching(pairs, rows) -> list[tuple[int, int]]:
    """Pairs with an endpoint in ``rows``, by a linear scan."""
    rows = set(int(r) for r in rows)
    return sorted(p for p in pairs if p[0] in rows or p[1] in rows)


def _naive_contains(pairs, a, b) -> bool:
    return (min(a, b), max(a, b)) in pairs


def naive_draw_subsamples(rng, counts: list[int], quota: int) -> list[list[int]]:
    """`draw_subsamples` over counts >= 1 by per-slot loops, making the same
    draw calls: one call for every pick of the counts below the quota, then
    Floyd's algorithm, one call per step over the other counts. Returns each
    count's picks."""
    small = [c for c in counts if c < quota]
    flat = _bounded(rng, [c for c in small for _ in range(quota)])
    drawn = iter([flat[r * quota:(r + 1) * quota] for r in range(len(small))])
    big = [c for c in counts if c >= quota]
    chosen: list[list[int]] = [[] for _ in big]
    for t in range(quota):
        draws = _bounded(rng, [c - quota + t + 1 for c in big])
        for picked, c, x in zip(chosen, big, draws):
            picked.append(c - quota + t if x in picked else x)
    distinct = iter(chosen)
    return [next(drawn) if c < quota else next(distinct) for c in counts]


def _bounded(rng, bounds: list[int]) -> list[int]:
    """One ``rng.integers`` call with a per-element upper bound."""
    return rng.integers(0, np.array(bounds, dtype=np.int64)).tolist()


def _naive_batch(pos, neg) -> PairBatch:
    rows = pos + neg
    a = np.array([r[0] for r in rows], dtype=np.int64)
    b = np.array([r[1] for r in rows], dtype=np.int64)
    y = np.array([0] * len(pos) + [1] * len(neg), dtype=np.int64)
    source = np.array([r[2] for r in rows], dtype="U9")
    return PairBatch(a, b, y, source)


def naive_mine_epoch(partition, ranks, cooc, cfg, epoch: int = 0) -> list[PairBatch]:
    """Pair mining by per-pair Python loops making the same draw calls as
    `mine_epoch`: every candidate is a tuple, in-cluster pairs are listed by
    a double loop, co-occurrence lookups scan the pair set."""
    cfg.validate()
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    labels = np.asarray(partition, dtype=np.int64)
    m = int(labels.max()) + 1
    if m < 2:
        raise ValueError("mining needs a partition with at least 2 clusters")
    members = [np.flatnonzero(labels == c).tolist() for c in range(m)]
    pairs = pair_set(cooc)
    rng = np.random.default_rng([cfg.seed, epoch])
    order = rng.permutation(m)
    per_batch = cfg.clusters_per_batch
    num_batches = -(-m // per_batch)
    reps = -(-num_batches * per_batch // m)
    slots = np.tile(order, reps)[: num_batches * per_batch].tolist()

    positives: list[list] = []
    for c in slots:
        mem = members[c]
        positives.append([(mem[i], mem[j], POS_CLUSTER) for i in range(len(mem))
                          for j in range(i + 1, len(mem))] if cfg.use_pos_cluster else [])
    near_slots = [s for s, c in enumerate(slots)
                  if cfg.use_pos_cluster and ranks.nearest[c].size
                  and len(members[c]) < cfg.small_cluster_threshold]
    picks = _bounded(rng, [ranks.nearest[slots[s]].size for s in near_slots])
    near = [int(ranks.nearest[slots[s]][p]) for s, p in zip(near_slots, picks)]
    picks = iter(_bounded(rng, [len(members[g]) for s, g in zip(near_slots, near)
                                for _ in members[slots[s]]]))
    for s, g in zip(near_slots, near):
        draws = [(a, members[g][next(picks)]) for a in members[slots[s]]]
        allowed = [(a, b) for a, b in draws if not _naive_contains(pairs, a, b)]
        if not allowed:
            # every draw hit a co-occurrence: enumerate the allowed pairs
            allowed = [(a, b) for g2 in ranks.nearest[slots[s]].tolist()
                       for a in members[slots[s]] for b in members[g2]
                       if not _naive_contains(pairs, a, b)]
        positives[s].extend((a, b, POS_NEAR) for a, b in allowed)

    negatives: list[list] = [[] for _ in slots]
    far_rows = [(s, a) for s, c in enumerate(slots)
                if cfg.use_neg_cluster and ranks.farthest[c].size
                for a in members[c] for _ in range(2)]
    picks = _bounded(rng, [ranks.farthest[slots[s]].size for s, _ in far_rows])
    far = [int(ranks.farthest[slots[s]][p]) for (s, _), p in zip(far_rows, picks)]
    picks = _bounded(rng, [len(members[g]) for g in far])
    for (s, a), g, p in zip(far_rows, far, picks):
        negatives[s].append((a, members[g][p], NEG_CLUSTER))
    if cfg.use_neg_video:
        for s, c in enumerate(slots):
            negatives[s].extend((i, j, NEG_VIDEO) for i, j in _naive_touching(pairs, members[c]))

    chosen = []
    for candidates, quota in ((positives, cfg.pos_per_cluster),
                              (negatives, cfg.neg_per_cluster)):
        listed = [rows for rows in candidates if rows]
        picked = iter(naive_draw_subsamples(rng, [len(rows) for rows in listed], quota))
        chosen.append([[rows[k] for k in next(picked)] if rows else [] for rows in candidates])
    batches = []
    for start in range(0, len(slots), per_batch):
        batch = range(start, start + per_batch)
        batches.append(_naive_batch([row for s in batch for row in chosen[0][s]],
                                    [row for s in batch for row in chosen[1][s]]))
    return batches


def _textbook_train_forward(model, x):
    """Train-mode forward with fresh arrays for every intermediate."""
    z = x @ model.enc_w + model.enc_b
    mu = z.mean(axis=0)
    var = z.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + model.bn_eps)
    zhat = (z - mu) * inv_std
    h = model.bn_gamma * zhat + model.bn_beta
    p = h @ model.proj_w + model.proj_b
    cache = {"x": x, "zhat": zhat, "inv_std": inv_std, "h": h, "mu": mu, "var": var}
    return h, p, cache


def textbook_loss_and_gradients(model, x1, x2, y):
    """Mean contrastive batch loss and analytic gradients, written as plain
    array expressions (every intermediate a new array)."""
    n = x1.shape[0]
    if n == 0:
        raise ValueError("empty pair batch")
    x = np.concatenate([x1, x2]).astype(model.dtype)
    y = np.asarray(y, dtype=model.dtype)
    h, p, cache = _textbook_train_forward(model, x)

    diff = p[:n] - p[n:]
    d = np.sqrt(np.sum(diff ** 2, axis=1))
    hinge = np.maximum(0.0, model.margin - d)
    loss = float(np.mean(0.5 * ((1 - y) * d ** 2 + y * hinge ** 2)))

    ddist = ((1 - y) * d - y * hinge) / n
    with np.errstate(invalid="ignore", divide="ignore"):
        direction = np.where(d[:, None] > 0, diff / np.where(d == 0, 1.0, d)[:, None], 0.0)
    gdiff = ddist[:, None] * direction
    gp = np.concatenate([gdiff, -gdiff]).astype(model.dtype)

    grads = {}
    grads["proj_w"] = h.T @ gp
    grads["proj_b"] = gp.sum(axis=0)
    gh = gp @ model.proj_w.T

    zhat, inv_std = cache["zhat"], cache["inv_std"]
    grads["bn_gamma"] = np.sum(gh * zhat, axis=0)
    grads["bn_beta"] = gh.sum(axis=0)
    gzhat = gh * model.bn_gamma
    rows = x.shape[0]
    gz = (inv_std / rows) * (
        rows * gzhat - gzhat.sum(axis=0) - zhat * np.sum(gzhat * zhat, axis=0))

    grads["enc_w"] = x.T @ gz
    grads["enc_b"] = gz.sum(axis=0)
    return loss, grads, cache


def _textbook_running_stats(model, cache) -> None:
    rows = cache["x"].shape[0]
    var = cache["var"]
    if rows > 1:
        var = var * rows / (rows - 1)
    mom = model.bn_momentum
    model.bn_mean = ((1 - mom) * model.bn_mean + mom * cache["mu"]).astype(model.dtype)
    model.bn_var = ((1 - mom) * model.bn_var + mom * var).astype(model.dtype)


class TextbookAdam:
    """Adam with bias correction, one parameter tensor at a time."""

    def __init__(self, cfg, params):
        self.cfg = cfg
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, model, grads, lr) -> None:
        cfg = self.cfg
        self.step_count += 1
        t = self.step_count
        for name, g in grads.items():
            m = self.m[name] = cfg.beta1 * self.m[name] + (1 - cfg.beta1) * g
            v = self.v[name] = cfg.beta2 * self.v[name] + (1 - cfg.beta2) * g * g
            mhat = m / (1 - cfg.beta1 ** t)
            vhat = v / (1 - cfg.beta2 ** t)
            param = getattr(model, name)
            setattr(model, name,
                    (param - lr * mhat / (np.sqrt(vhat) + cfg.adam_eps)).astype(param.dtype))


def textbook_train(fs, mining_factory, cfg, model, loss_log: list) -> None:
    """Reference training loop: updates ``model`` by rebinding fresh arrays
    after every step and appends each epoch's mean loss to ``loss_log``."""
    features = fs.features.astype(model.dtype)
    optimizer = TextbookAdam(cfg, model.params())
    for epoch in range(cfg.epochs):
        lr = cfg.lr / cfg.lr_drop_factor if epoch >= cfg.lr_drop_epoch else cfg.lr
        losses = []
        for batch in mining_factory(epoch):
            loss, grads, cache = textbook_loss_and_gradients(
                model, features[batch.a], features[batch.b], batch.y)
            optimizer.step(model, grads, lr)
            _textbook_running_stats(model, cache)
            losses.append(loss)
        loss_log.append(float(np.mean(losses)) if losses else float("nan"))


def train_forward(model, x):
    """Train-mode hidden layer and projection of the rows x, normalized with
    their own batch statistics from the program's `_batch_statistics`; p
    leaves out the offset bn_beta @ proj_w + proj_b that every row shares."""
    centred = np.array(x, dtype=model.dtype)
    scale = _batch_statistics(model, centred)[3]
    h = centred @ model.enc_w
    h *= scale
    p = h @ model.proj_w
    h += model.bn_beta
    return h, p


def pair_loss(p1, p2, y, margin: float = 1.0) -> float:
    """The program's contrastive loss of one pair of projections, in float64."""
    diff = np.asarray(p1, dtype=np.float64) - np.asarray(p2, dtype=np.float64)
    return _pair_loss(diff[None], np.float64(y), margin)[0]


def batch_loss(model, x1, x2, y) -> float:
    """The program's mean train-mode loss over a pair batch (batch statistics
    span both branches)."""
    return loss_and_gradients(model, x1, x2, y)[0]


def pair_distances(model, x1, x2) -> np.ndarray:
    """The train step's distances of the pairs (x1[k], x2[k]), with its own
    arithmetic, bit for bit: the pair differences times M."""
    n = x1.shape[0]
    x = np.concatenate([x1, x2]).astype(model.dtype)
    delta = x[:n] - x[n:]
    scale = _batch_statistics(model, x)[3]
    diff = delta @ (model.enc_w @ (scale[:, None] * model.proj_w))
    return _pair_loss(diff, np.zeros(n, model.dtype), model.margin)[1]


def loss_and_gradients(model, x1, x2, y):
    """The program's train step on one pair batch: mean loss, the gradient of
    every trainable tensor (exactly zero outside OPTIMIZED) and the batch
    statistics {"mu", "var"} of the hidden units."""
    grads = {name: np.zeros(getattr(model, name).shape, model.dtype) for name in TRAINABLE}
    x = np.concatenate([x1, x2]).astype(model.dtype)
    loss, mu, var = _train_step(model, x, x1.shape[0], y, grads)
    return loss, grads, {"mu": mu, "var": var}
