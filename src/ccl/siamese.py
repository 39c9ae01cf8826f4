"""Siamese refinement MLP: linear encoder + batch norm + linear projection.

Both branches share one parameter set. The contrastive objective, with y=0
for positive and y=1 for negative pairs, margin m, and pair distance d

    loss = 1/2 * ((1 - y) * d^2 + y * max(0, m - d)^2),

is minimized with Adam over mined pair batches. d is the Euclidean
distance between the projected pair, sqrt(sum((p1 - p2)^2)), and
`_pair_loss` is the one implementation of this loss. Gradients are computed
analytically, including the flow through batch statistics and the summed
contribution of both branches; at the hinge boundary d == m the zero branch
is taken.

Train mode has no nonlinearity. A step stacks both branches into R rows x
(R = 2 * pairs), centres them on their column means for the batch
statistics, and projects the n pair differences delta = x[:n] - x[n:], in
which the mean and the offset bn_beta @ proj_w + proj_b of every row cancel:

    diff = delta @ M,   M = enc_w @ diag(s) @ proj_w,   s = bn_gamma / sqrt(var + eps),

where var_j = w_j' C w_j is the batch variance of hidden unit j, read from
the D x D covariance C = x_c' x_c / R. Only C and delta' @ d(loss)/d(diff)
sum over batch rows; the other products are D x H, H x O and D x O, and no
R x H activations are formed. The gradients of enc_b, bn_beta and proj_b
are exactly zero, so training leaves those tensors as they were. var_j read
from C carries an absolute error of order eps * |w_j|' |C| |w_j|, which
matters only for a hidden unit nearly orthogonal to a batch of fewer rows
than features.

Embeddings for clustering are the batch-normalized hidden layer in eval
mode (`forward`, with the running statistics), l2-normalized, computed
one `data.row_blocks` block of rows at a time by `embedded_chunks`.

Memory of a training run: a step gathers its R x D rows into a fresh
array, which it centres in place; no array of a step has R x H elements.
`check_model_memory` and `check_embed_memory` refuse a model or output
larger than `check_memory` allows before anything is allocated: `train` and
`embed` call them, and so do `ccl run` and `ccl train` before any stage.
An epoch's pair batches are freed before the next epoch is mined.
Adam holds the tensors the loss depends on, OPTIMIZED, in flat parameter,
moment and gradient arrays; while training runs, the model's OPTIMIZED
tensors are views of the flat parameters, updated in place, and the model
gets plain copies of all TRAINABLE tensors back when training ends.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .data import FeatureSet, check_declared_size, row_blocks, unit_rows
from .memory import check_memory

CHECKPOINT_MAGIC = b"CCLM"
CHECKPOINT_VERSION = 1
# magic, version, D, H, O, margin, reserved (always 0), bn_eps, bn_momentum
_HEADER = struct.Struct("<4sIQQQfBff")
# the f32 tensors after the header, in file order, each shape in the header's D, H, O
_TENSORS = (("enc_w", "DH"), ("enc_b", "H"), ("bn_gamma", "H"), ("bn_beta", "H"),
            ("bn_mean", "H"), ("bn_var", "H"), ("proj_w", "HO"), ("proj_b", "O"))

TRAINABLE = ("enc_w", "enc_b", "bn_gamma", "bn_beta", "proj_w", "proj_b")
OPTIMIZED = ("enc_w", "bn_gamma", "proj_w")  # the others get exactly zero gradients

# Peak bytes rounded up from tracemalloc peaks: of `train` per model parameter
# (at most 16-46: tensors, Adam's five flat buffers, a step's D x H and H x O arrays),
# of `embed` per output element (5.0-5.1 at 8,000-20,000 rows) and per element
# of its first row block (20-24: the block's float32 and float64 copies).
_PARAM_BYTES = 64
_EMBED_BYTES = 8
_EMBED_BLOCK_BYTES = 32


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

    def validate(self) -> None:
        for key, low in (("epochs", 0), ("hidden_dim", 1), ("out_dim", 1)):
            if getattr(self, key) < low:
                raise ValueError(f"train.{key} must be >= {low}, got {getattr(self, key)}")
        for key in ("lr", "lr_drop_factor", "margin"):
            if not getattr(self, key) > 0:
                raise ValueError(f"train.{key} must be positive, got {getattr(self, key)}")
        for key in ("beta1", "beta2"):
            if not 0 <= getattr(self, key) < 1:
                raise ValueError(f"train.{key} must lie in [0, 1), got {getattr(self, key)}")
        if not 0 < self.adam_eps < math.inf:
            raise ValueError(f"train.adam_eps must be positive and finite, got {self.adam_eps}")
        # the float32 step adds adam_eps and squares the hinge, which is at most margin
        largest = float(np.finfo(np.float32).max)
        if self.adam_eps > largest:
            raise ValueError(f"train.adam_eps must be finite in float32 (at most "
                             f"{largest:.8g}), got {self.adam_eps}")
        if not (self.margin <= largest and float(np.float32(self.margin)) ** 2 <= largest):
            raise ValueError(f"train.margin must keep the squared hinge finite in float32 "
                             f"(at most {math.sqrt(largest):.7g}), got {self.margin}")
        if self.seed < 0:
            raise ValueError(f"training seed must be >= 0, got {self.seed}")


def init_model(dim_in: int, hidden_dim: int = 256, out_dim: int = 2,
               margin: float = 1.0, seed: int = 0, dtype=np.float32) -> SiameseModel:
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
    )


def check_model_memory(dim_in: int, cfg: TrainConfig, rows: int = 0) -> None:
    """ValueError, before anything is allocated, when training cfg's model on
    dim_in features, or with ``rows`` embedding that many rows, may need more
    than `check_memory` allows; the error names train.hidden_dim."""
    d, h, o = dim_in, cfg.hidden_dim, cfg.out_dim
    check_memory(_PARAM_BYTES * (d * h + h * o + 6 * h + o),
                 f"training a {d} x {h} x {o} model (train.hidden_dim = {h}, "
                 f"train.out_dim = {o})")
    if rows:
        check_embed_memory(rows, h)


def check_embed_memory(rows: int, hidden: int) -> None:
    """`embed`'s check of its rows x hidden output and first row block."""
    check_memory(_EMBED_BYTES * rows * hidden
                 + _EMBED_BLOCK_BYTES * row_blocks(rows)[0][1] * hidden,
                 f"the {rows} x {hidden} embeddings (train.hidden_dim = {hidden})")


def _flat_views(flat: np.ndarray, shapes: dict) -> dict[str, np.ndarray]:
    """Consecutive reshaped views of ``flat``, one per named shape, in order."""
    views, start = {}, 0
    for name, shape in shapes.items():
        stop = start + math.prod(shape)
        views[name] = flat[start:stop].reshape(shape)
        start = stop
    return views


def _batch_statistics(model: SiameseModel, x: np.ndarray):
    """Centre the rows of x in place and return (mean, var, inv_std, scale,
    cw): the column means of the rows, the hidden units' batch variances,
    1 / sqrt(var + eps), the batch-norm scale bn_gamma * inv_std and C @ enc_w,
    C being the covariance of the rows."""
    mean = x.mean(axis=0)
    x -= mean
    cov = x.T @ x
    cov /= x.shape[0]
    cw = cov @ model.enc_w
    var = np.einsum("dh,dh->h", model.enc_w, cw)
    inv_std = 1.0 / np.sqrt(var + model.bn_eps)
    scale = model.bn_gamma * inv_std
    return mean, var, inv_std, scale, cw


def forward(model: SiameseModel, x: np.ndarray) -> np.ndarray:
    """Eval-mode hidden representations of a stack of rows, normalized with
    the running batch statistics."""
    x = np.asarray(x, dtype=model.dtype)
    if x.shape[1] != model.dim_in:
        raise ValueError(f"expected input dim {model.dim_in}, got {x.shape[1]}")
    h = x @ model.enc_w
    h += model.enc_b
    h -= model.bn_mean
    h *= 1.0 / np.sqrt(model.bn_var + model.bn_eps)
    h *= model.bn_gamma
    h += model.bn_beta
    return h


def _pair_loss(diff: np.ndarray, y: np.ndarray, margin: float):
    """Mean loss of the pairs whose projections differ by the rows of diff;
    also returns their distances and hinge terms."""
    d = np.sqrt(np.einsum("ko,ko->k", diff, diff))
    hinge = np.maximum(0.0, margin - d)
    loss = float(np.mean(0.5 * ((1 - y) * d ** 2 + y * hinge ** 2)))
    return loss, d, hinge


def _train_step(model: SiameseModel, x: np.ndarray, n: int, y: np.ndarray, grads: dict):
    """Train-mode loss of the n pairs stacked in x (first branch over second)
    and its gradients for the OPTIMIZED tensors, written into grads; returns
    (loss, mu, var), mu and var being the hidden units' batch statistics.
    Centres x in place."""
    if n == 0:
        raise ValueError("empty pair batch")
    y = np.asarray(y, dtype=model.dtype)
    delta = x[:n] - x[n:]
    mean, var, inv_std, scale, cw = _batch_statistics(model, x)
    scaled_proj = scale[:, None] * model.proj_w
    diff = delta @ (model.enc_w @ scaled_proj)
    loss, d, hinge = _pair_loss(diff, y, model.margin)

    # d(loss)/d(diff) = coef * diff: d(loss)/d(d) averaged over pairs, over d
    with np.errstate(invalid="ignore", divide="ignore"):
        coef = np.where(d > 0, ((1 - y) * d - y * hinge) / (n * d), 0.0)
    diff *= coef[:, None]  # now d(loss)/d(diff)

    # diff was delta @ M with M = enc_w @ diag(scale) @ proj_w; gm = d(loss)/dM
    gm = delta.T @ diff
    g_scaled_proj = model.enc_w.T @ gm
    np.multiply(g_scaled_proj, scale[:, None], out=grads["proj_w"])
    g_scale = np.einsum("ho,ho->h", g_scaled_proj, model.proj_w)
    np.multiply(g_scale, inv_std, out=grads["bn_gamma"])
    # enc_w enters M directly and through var_j = w_j' C w_j, where
    # d(loss)/d(var) = -g_scale * scale * inv_std^2 / 2
    g_enc = np.matmul(gm, scaled_proj.T, out=grads["enc_w"])
    g_enc -= cw * (g_scale * scale * inv_std ** 2)
    return loss, mean @ model.enc_w + model.enc_b, var


class _Adam:
    """Adam over flat buffers of the OPTIMIZED tensors, its bias corrections
    folded into the step size and eps (Kingma & Ba, arXiv:1412.6980, Sec. 2).

    Those tensors are copied into one flat array and the model's attributes
    become views of it. ``grad`` has the same layout and ``grads`` are its
    views by name, for a train step to fill; ``step`` then updates every
    optimized tensor with a few in-place operations over the whole buffer.
    The other trainable tensors have zero gradients, on which Adam would
    never move them, so it keeps no state for them.
    """

    def __init__(self, cfg: TrainConfig, model: SiameseModel):
        self.cfg = cfg
        self.step_count = 0
        self.param = np.concatenate([getattr(model, name).ravel() for name in OPTIMIZED],
                                    dtype=model.dtype)
        self.grad = np.zeros_like(self.param)
        self.m = np.zeros_like(self.param)
        self.v = np.zeros_like(self.param)
        self.scratch = np.empty_like(self.param)
        shapes = {name: getattr(model, name).shape for name in OPTIMIZED}
        self.grads = _flat_views(self.grad, shapes)
        for name, view in _flat_views(self.param, shapes).items():
            setattr(model, name, view)

    def step(self, lr: float) -> None:
        cfg = self.cfg
        self.step_count += 1
        t = self.step_count
        grad, m, v, a = self.grad, self.m, self.v, self.scratch
        # m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * g * g
        m *= cfg.beta1
        m += np.multiply(grad, 1 - cfg.beta1, out=a)
        v *= cfg.beta2
        np.multiply(grad, 1 - cfg.beta2, out=a)
        a *= grad
        v += a
        # param -= lr * sqrt(1 - beta2^t) / (1 - beta1^t) * m / (sqrt(v) + eps * sqrt(1 - beta2^t))
        root = math.sqrt(1 - cfg.beta2 ** t)
        np.sqrt(v, out=a)
        a += cfg.adam_eps * root
        np.divide(m, a, out=a)
        a *= lr * root / (1 - cfg.beta1 ** t)
        self.param -= a


def _update_running_stats(model: SiameseModel, mu: np.ndarray, var: np.ndarray,
                          rows: int) -> None:
    mom = model.bn_momentum
    model.bn_mean *= 1 - mom
    model.bn_mean += mom * mu
    model.bn_var *= 1 - mom
    model.bn_var += mom * (var * rows / (rows - 1))  # rows = 2 * pairs >= 2


def _train_epoch(model: SiameseModel, features: np.ndarray, batches, optimizer: _Adam,
                 lr: float, epoch: int) -> list[float]:
    """One Adam step per pair batch of ``batches``; returns the batch losses.
    A diverging step overflows silently: the non-finite loss reports it."""
    losses = []
    with np.errstate(over="ignore", invalid="ignore"):
        for batch_index, batch in enumerate(batches):
            index = np.concatenate([batch.a, batch.b])
            loss, mu, var = _train_step(model, features[index], batch.a.size, batch.y,
                                        optimizer.grads)
            if not np.isfinite(loss):
                raise RuntimeError(f"non-finite loss {loss} at epoch {epoch}, "
                                   f"batch {batch_index}")
            optimizer.step(lr)
            _update_running_stats(model, mu, var, index.size)
            losses.append(loss)
    return losses


def train(fs: FeatureSet, mining_factory, cfg: TrainConfig,
          model: SiameseModel | None = None,
          loss_log: list | None = None) -> SiameseModel:
    """Run Adam over cfg.epochs epochs of mined batches.

    mining_factory(epoch) must yield PairBatch objects whose indices address
    fs rows. The learning rate divides by lr_drop_factor from lr_drop_epoch
    on. With epochs=0 the freshly initialized model is returned unchanged.
    A given model is updated and returned; its tensors are replaced by new
    arrays, so arrays it held before are left as they were; its enc_b,
    bn_beta and proj_b, left out of the step, change its loss only by
    rounding. A tensor the last step made non-finite, or a hidden unit whose
    eval-mode output on unit rows may leave the float32 range, is a
    RuntimeError.
    """
    cfg.validate()
    if model is None:
        check_model_memory(fs.dim, cfg)
        model = init_model(fs.dim, cfg.hidden_dim, cfg.out_dim, cfg.margin, seed=cfg.seed)
    if model.dim_in != fs.dim:
        raise ValueError(f"model expects dim {model.dim_in}, features have {fs.dim}")

    features = fs.features.astype(model.dtype, copy=False)
    optimizer = _Adam(cfg, model)
    model.bn_mean = model.bn_mean.astype(model.dtype)
    model.bn_var = model.bn_var.astype(model.dtype)
    try:
        for epoch in range(cfg.epochs):
            lr = cfg.lr / cfg.lr_drop_factor if epoch >= cfg.lr_drop_epoch else cfg.lr
            # the epoch's batches are freed when it returns, before the next epoch is mined
            losses = _train_epoch(model, features, mining_factory(epoch), optimizer, lr, epoch)
            if loss_log is not None:
                loss_log.append(float(np.mean(losses)) if losses else float("nan"))
        bad = [name for name, _ in _TENSORS if not np.isfinite(getattr(model, name)).all()]
        if bad:
            raise RuntimeError(f"non-finite {bad[0]} after training")
        # on a unit row x, |forward(model, x)[j]| <= |enc_w[:, j]| * |scale[j]| + |offset[j]|
        with np.errstate(invalid="ignore"):
            scale = model.bn_gamma / np.sqrt(model.bn_var.astype(np.float64) + model.bn_eps)
            offset = (model.enc_b - model.bn_mean.astype(np.float64)) * scale + model.bn_beta
            reach = np.linalg.norm(model.enc_w.astype(np.float64), axis=0) * np.abs(scale)
            reach += np.abs(offset)
        over = np.flatnonzero(~(reach <= np.finfo(np.float32).max))
        if over.size:
            raise RuntimeError(f"hidden unit {over[0]} of the trained model leaves the "
                               f"float32 range in eval mode")
    finally:
        for name in TRAINABLE:  # plain arrays again, not views of optimizer.param
            setattr(model, name, getattr(model, name).copy())
    return model


def embedded_chunks(model: SiameseModel, fs: FeatureSet):
    """Eval-mode hidden embeddings of the rows of ``fs``, l2-normalized, as
    float32 blocks of `row_blocks` rows in row order; `embed` stacks them.
    A row the model takes out of float32 is a ValueError naming it."""
    for start, stop in row_blocks(fs.num_samples):
        with np.errstate(over="ignore", invalid="ignore"):
            h = forward(model, fs.features[start:stop])
        bad = np.flatnonzero(~np.isfinite(h).all(axis=1))
        if bad.size:
            raise ValueError(f"non-finite embedding row {start + int(bad[0])}")
        yield unit_rows(h.astype(np.float32, copy=False),
                        lambda r: f"embedding row {start + r}").astype(np.float32)


def embed(model: SiameseModel, fs: FeatureSet) -> FeatureSet:
    """Eval-mode hidden embeddings, l2-normalized, indices carried through."""
    n, h = fs.num_samples, model.dim_hidden
    check_embed_memory(n, h)
    out = np.empty((n, h), dtype=np.float32)
    for (start, stop), rows in zip(row_blocks(n), embedded_chunks(model, fs)):
        out[start:stop] = rows
    return fs.with_features(out)


def save_model(model: SiameseModel, path) -> None:
    """Versioned binary checkpoint: shape header + little-endian f32 tensors."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                              model.dim_in, model.dim_hidden, model.dim_out,
                              model.margin, 0, model.bn_eps, model.bn_momentum))
        for name, _ in _TENSORS:
            fh.write(np.ascontiguousarray(getattr(model, name), dtype="<f4").tobytes())


def load_model(path) -> SiameseModel:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError("malformed checkpoint header")
        magic, version, d, hidden, out, margin, reserved, eps, momentum = _HEADER.unpack(header)
        if magic != CHECKPOINT_MAGIC or version != CHECKPOINT_VERSION:
            raise ValueError(f"not a model checkpoint (magic={magic!r}, version={version})")
        if reserved:
            raise ValueError(f"checkpoint reserved byte is {reserved}, not 0: "
                             f"the squared-distance hinge is not supported")
        dims = {"D": d, "H": hidden, "O": out}
        shapes = {name: tuple(dims[axis] for axis in axes) for name, axes in _TENSORS}
        declared = _HEADER.size + 4 * sum(math.prod(shape) for shape in shapes.values())
        check_declared_size(fh, declared, f"D={d}, H={hidden}, O={out}", "checkpoint", ValueError)
        # the size check above guarantees every read below is complete
        arrays = {name: np.frombuffer(fh.read(4 * math.prod(shape)), "<f4").reshape(shape).copy()
                  for name, shape in shapes.items()}
    for name, value in {"margin": margin, "bn_eps": eps, "bn_momentum": momentum, **arrays}.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"checkpoint {name} holds a non-finite value")
    return SiameseModel(margin=float(margin), bn_eps=float(eps), bn_momentum=float(momentum),
                        **arrays)
