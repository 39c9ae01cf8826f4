"""Siamese refinement MLP: linear encoder + batch norm + linear projection.

Both branches share one parameter set. The contrastive objective, with y=0
for positive and y=1 for negative pairs, margin m, and pair distance d

    loss = 1/2 * ((1 - y) * d^2 + y * max(0, m - d)^2),

is minimized with Adam over mined pair batches. d is the (unsquared)
Euclidean distance between the projected pair by default; squared_hinge=True
switches d to the squared distance. Gradients are computed analytically,
including the flow through batch statistics and the summed contribution of
both branches; at the hinge boundary d == m the zero branch is taken.

Embeddings for clustering are the batch-normalized hidden layer in eval
mode, l2-normalized.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .data import FeatureSet

CHECKPOINT_MAGIC = b"CCLM"
CHECKPOINT_VERSION = 1

TRAINABLE = ("enc_w", "enc_b", "bn_gamma", "bn_beta", "proj_w", "proj_b")


@dataclass
class SiameseModel:
    enc_w: np.ndarray
    enc_b: np.ndarray
    bn_gamma: np.ndarray
    bn_beta: np.ndarray
    bn_mean: np.ndarray
    bn_var: np.ndarray
    proj_w: np.ndarray
    proj_b: np.ndarray
    margin: float = 1.0
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1
    squared_hinge: bool = False

    @property
    def dim_in(self) -> int:
        return self.enc_w.shape[0]

    @property
    def dim_hidden(self) -> int:
        return self.enc_w.shape[1]

    @property
    def dim_out(self) -> int:
        return self.proj_w.shape[1]

    @property
    def dtype(self):
        return self.enc_w.dtype

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in TRAINABLE}

    def astype(self, dtype) -> "SiameseModel":
        arrays = {
            name: getattr(self, name).astype(dtype)
            for name in (*TRAINABLE, "bn_mean", "bn_var")
        }
        return replace(self, **arrays)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    lr: float = 1e-5
    lr_drop_epoch: int = 15
    lr_drop_factor: float = 10.0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    hidden_dim: int = 256
    out_dim: int = 2
    margin: float = 1.0
    squared_hinge: bool = False

    def validate(self) -> None:
        if self.epochs < 0 or self.lr <= 0 or self.lr_drop_factor <= 0:
            raise ValueError("epochs must be >= 0, lr and lr_drop_factor positive")
        if self.margin <= 0:
            raise ValueError("margin must be positive")


def init_model(dim_in: int, hidden_dim: int = 256, out_dim: int = 2,
               margin: float = 1.0, seed: int = 0, dtype=np.float32,
               squared_hinge: bool = False) -> SiameseModel:
    """Uniform(+-1/sqrt(fan_in)) weights, zero biases, identity batch norm."""
    rng = np.random.default_rng(seed)
    enc_scale = 1.0 / np.sqrt(dim_in)
    proj_scale = 1.0 / np.sqrt(hidden_dim)
    return SiameseModel(
        enc_w=rng.uniform(-enc_scale, enc_scale, (dim_in, hidden_dim)).astype(dtype),
        enc_b=np.zeros(hidden_dim, dtype=dtype),
        bn_gamma=np.ones(hidden_dim, dtype=dtype),
        bn_beta=np.zeros(hidden_dim, dtype=dtype),
        bn_mean=np.zeros(hidden_dim, dtype=dtype),
        bn_var=np.ones(hidden_dim, dtype=dtype),
        proj_w=rng.uniform(-proj_scale, proj_scale, (hidden_dim, out_dim)).astype(dtype),
        proj_b=np.zeros(out_dim, dtype=dtype),
        margin=float(margin),
        squared_hinge=squared_hinge,
    )


def _forward_rows(model: SiameseModel, x: np.ndarray, train: bool):
    """Shared forward over a stack of rows; returns (h, p, cache)."""
    z = x @ model.enc_w + model.enc_b
    if train:
        mu = z.mean(axis=0)
        var = z.var(axis=0)
    else:
        mu, var = model.bn_mean, model.bn_var
    inv_std = 1.0 / np.sqrt(var + model.bn_eps)
    zhat = (z - mu) * inv_std
    h = model.bn_gamma * zhat + model.bn_beta
    p = h @ model.proj_w + model.proj_b
    cache = {"x": x, "zhat": zhat, "inv_std": inv_std, "h": h,
             "mu": mu, "var": var, "train": train}
    return h, p, cache


def forward(model: SiameseModel, x: np.ndarray, mode: str = "eval"):
    """Hidden representation and projection for one row or a stack of rows."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=model.dtype)
    single = x.ndim == 1
    rows = x[None, :] if single else x
    if rows.shape[1] != model.dim_in:
        raise ValueError(f"expected input dim {model.dim_in}, got {rows.shape[1]}")
    h, p, _ = _forward_rows(model, rows, train=(mode == "train"))
    if single:
        return h[0], p[0]
    return h, p


def _pair_distance(p1: np.ndarray, p2: np.ndarray, squared_hinge: bool) -> np.ndarray:
    dsq = np.sum((p1 - p2) ** 2, axis=-1)
    return dsq if squared_hinge else np.sqrt(dsq)


def contrastive_loss(p1, p2, y, margin: float = 1.0, squared_hinge: bool = False) -> float:
    """Per-pair contrastive loss; y=0 pulls together, y=1 pushes past margin."""
    if margin <= 0:
        raise ValueError("margin must be positive")
    d = _pair_distance(np.asarray(p1, dtype=np.float64), np.asarray(p2, dtype=np.float64),
                       squared_hinge)
    hinge = np.maximum(0.0, margin - d)
    return float(0.5 * ((1 - y) * d ** 2 + y * hinge ** 2))


def batch_loss(model: SiameseModel, x1: np.ndarray, x2: np.ndarray, y: np.ndarray) -> float:
    """Mean train-mode loss over a pair batch (batch statistics span both branches)."""
    x = np.concatenate([x1, x2]).astype(model.dtype)
    _, p, _ = _forward_rows(model, x, train=True)
    n = x1.shape[0]
    d = _pair_distance(p[:n], p[n:], model.squared_hinge)
    hinge = np.maximum(0.0, model.margin - d)
    return float(np.mean(0.5 * ((1 - y) * d ** 2 + y * hinge ** 2)))


def loss_and_gradients(model: SiameseModel, x1: np.ndarray, x2: np.ndarray,
                       y: np.ndarray):
    """Mean batch loss and its gradient for every trainable parameter."""
    n = x1.shape[0]
    if n == 0:
        raise ValueError("empty pair batch")
    x = np.concatenate([x1, x2]).astype(model.dtype)
    y = np.asarray(y, dtype=model.dtype)
    h, p, cache = _forward_rows(model, x, train=True)

    diff = p[:n] - p[n:]
    dsq = np.sum(diff ** 2, axis=1)
    if model.squared_hinge:
        d = dsq
    else:
        d = np.sqrt(dsq)
    hinge = np.maximum(0.0, model.margin - d)
    loss = float(np.mean(0.5 * ((1 - y) * d ** 2 + y * hinge ** 2)))

    # d(loss)/d(d) averaged over pairs, then chain to the pair difference
    ddist = ((1 - y) * d - y * hinge) / n
    if model.squared_hinge:
        gdiff = (2.0 * ddist)[:, None] * diff
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            direction = np.where(d[:, None] > 0, diff / np.where(d == 0, 1.0, d)[:, None], 0.0)
        gdiff = ddist[:, None] * direction
    gp = np.concatenate([gdiff, -gdiff]).astype(model.dtype)

    grads: dict[str, np.ndarray] = {}
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


def _update_running_stats(model: SiameseModel, cache) -> None:
    rows = cache["x"].shape[0]
    var = cache["var"]
    if rows > 1:
        var = var * rows / (rows - 1)
    mom = model.bn_momentum
    model.bn_mean = ((1 - mom) * model.bn_mean + mom * cache["mu"]).astype(model.dtype)
    model.bn_var = ((1 - mom) * model.bn_var + mom * var).astype(model.dtype)


class Adam:
    """Standard Adam with bias correction over a named parameter dict."""

    def __init__(self, cfg: TrainConfig, params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, model: SiameseModel, grads: dict[str, np.ndarray], lr: float) -> None:
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


def train(fs: FeatureSet, mining_factory, cfg: TrainConfig,
          model: SiameseModel | None = None,
          loss_log: list | None = None) -> SiameseModel:
    """Run Adam over cfg.epochs epochs of mined batches.

    mining_factory(epoch) must yield PairBatch objects whose indices address
    fs rows. The learning rate divides by lr_drop_factor from lr_drop_epoch
    on. With epochs=0 the freshly initialized model is returned unchanged.
    """
    cfg.validate()
    if model is None:
        model = init_model(fs.dim, cfg.hidden_dim, cfg.out_dim, cfg.margin, seed=cfg.seed,
                           squared_hinge=cfg.squared_hinge)
    if model.dim_in != fs.dim:
        raise ValueError(f"model expects dim {model.dim_in}, features have {fs.dim}")

    features = fs.features.astype(model.dtype)
    optimizer = Adam(cfg, model.params())
    for epoch in range(cfg.epochs):
        lr = cfg.lr / cfg.lr_drop_factor if epoch >= cfg.lr_drop_epoch else cfg.lr
        losses = []
        for batch_index, batch in enumerate(mining_factory(epoch)):
            x1 = features[batch.a]
            x2 = features[batch.b]
            loss, grads, cache = loss_and_gradients(model, x1, x2, batch.y)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss {loss} at epoch {epoch}, batch {batch_index}")
            optimizer.step(model, grads, lr)
            _update_running_stats(model, cache)
            losses.append(loss)
        if loss_log is not None:
            loss_log.append(float(np.mean(losses)) if losses else float("nan"))
    return model


def embed(model: SiameseModel, fs: FeatureSet, chunk_rows: int = 4096) -> FeatureSet:
    """Eval-mode hidden embeddings, l2-normalized, indices carried through."""
    out = np.empty((fs.num_samples, model.dim_hidden), dtype=np.float32)
    for start in range(0, fs.num_samples, chunk_rows):
        stop = min(start + chunk_rows, fs.num_samples)
        h, _ = forward(model, fs.features[start:stop], mode="eval")
        out[start:stop] = h.astype(np.float32)
    norms = np.linalg.norm(out.astype(np.float64), axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"embedding row {zero[0]} has zero norm")
    return fs.with_features((out / norms[:, None]).astype(np.float32))


def save_model(model: SiameseModel, path) -> None:
    """Versioned binary checkpoint: shape header + little-endian f32 tensors."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIQQQfBff", CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                             model.dim_in, model.dim_hidden, model.dim_out,
                             model.margin, int(model.squared_hinge),
                             model.bn_eps, model.bn_momentum))
        for name in ("enc_w", "enc_b", "bn_gamma", "bn_beta", "bn_mean", "bn_var",
                     "proj_w", "proj_b"):
            fh.write(np.ascontiguousarray(getattr(model, name), dtype="<f4").tobytes())


def load_model(path) -> SiameseModel:
    header_fmt = struct.Struct("<4sIQQQfBff")
    with open(path, "rb") as fh:
        header = fh.read(header_fmt.size)
        if len(header) < header_fmt.size:
            raise ValueError("malformed checkpoint header")
        magic, version, d, hidden, out, margin, squared, eps, momentum = header_fmt.unpack(header)
        if magic != CHECKPOINT_MAGIC or version != CHECKPOINT_VERSION:
            raise ValueError(f"not a model checkpoint (magic={magic!r}, version={version})")
        shapes = {"enc_w": (d, hidden), "enc_b": (hidden,), "bn_gamma": (hidden,),
                  "bn_beta": (hidden,), "bn_mean": (hidden,), "bn_var": (hidden,),
                  "proj_w": (hidden, out), "proj_b": (out,)}
        declared = header_fmt.size + 4 * sum(math.prod(shape) for shape in shapes.values())
        available = os.fstat(fh.fileno()).st_size
        if declared != available:
            problem = "truncated checkpoint" if declared > available else "trailing bytes"
            raise ValueError(f"{problem}: header declares D={d}, H={hidden}, "
                             f"O={out} ({declared} bytes), file has {available}")
        # the size check above guarantees every read below is complete
        arrays = {name: np.frombuffer(fh.read(4 * math.prod(shape)), "<f4").reshape(shape).copy()
                  for name, shape in shapes.items()}
    return SiameseModel(margin=float(margin), squared_hinge=bool(squared),
                        bn_eps=float(eps), bn_momentum=float(momentum), **arrays)
