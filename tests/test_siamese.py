import copy
import math
import struct
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccl import data, memory, siamese
from ccl.data import FeatureSet, unit_rows
from ccl.mining import PairBatch
from ccl.siamese import (
    SiameseModel,
    TrainConfig,
    embed,
    forward,
    init_model,
    load_model,
    save_model,
    train,
)

from corruption import corrupt, corruptions
from oracles import (
    batch_loss,
    loss_and_gradients,
    pair_distances,
    pair_loss,
    textbook_loss_and_gradients,
    textbook_train,
    train_forward,
)


def small_model(seed=0, dim_in=9, hidden=6, out=2, dtype=np.float64, **kwargs):
    return init_model(dim_in, hidden, out, seed=seed, dtype=dtype, **kwargs)


def random_batch(rng, n_pairs, dim, dtype=np.float64):
    x1 = rng.normal(size=(n_pairs, dim)).astype(dtype)
    x2 = rng.normal(size=(n_pairs, dim)).astype(dtype)
    y = rng.integers(0, 2, n_pairs)
    return x1, x2, y


def test_forward_identity_encoder():
    model = small_model(dim_in=4, hidden=4)
    model.enc_w = np.eye(4)
    model.enc_b[:] = 0
    model.bn_gamma[:] = math.sqrt(1.0 + model.bn_eps)  # cancels the eval-mode scaling
    x = np.array([0.3, -1.2, 0.0, 2.0])
    h = forward(model, x[None])
    np.testing.assert_allclose(h[0], x, atol=1e-12)


def test_forward_matches_straight_line_recomputation():
    rng = np.random.default_rng(17)
    model = small_model(seed=3)
    x = rng.normal(size=(10, 9))
    h, p = train_forward(model, x)

    # independent recomputation with explicit loops
    z = np.array([[sum(float(x[r, i]) * float(model.enc_w[i, c]) for i in range(9))
                   + float(model.enc_b[c]) for c in range(6)] for r in range(10)])
    mu = z.sum(axis=0) / 10
    var = ((z - mu) ** 2).sum(axis=0) / 10
    zhat = (z - mu) / np.sqrt(var + model.bn_eps)
    h_ref = model.bn_gamma * zhat + model.bn_beta
    p_ref = np.array([[sum(float(h_ref[r, c]) * float(model.proj_w[c, o]) for c in range(6))
                       + float(model.proj_b[o]) for o in range(2)] for r in range(10)])
    np.testing.assert_allclose(h, h_ref, atol=1e-12)
    np.testing.assert_allclose(p, p_ref, atol=1e-12)


def test_forward_dimension_mismatch():
    with pytest.raises(ValueError, match="dim"):
        forward(small_model(), np.ones((1, 5)))


def test_loss_closed_forms():
    p = np.array([0.3, -0.7])
    far = np.array([5.0, 0.0])
    assert pair_loss(p, p, 0) == 0.0
    assert pair_loss(far, -far, 1, margin=1.0) == 0.0
    assert abs(pair_loss(p, p, 1, margin=1.0) - 0.5) < 1e-12


@settings(max_examples=100)
@given(st.lists(st.floats(-5, 5), min_size=4, max_size=4),
       st.integers(0, 1), st.floats(0.1, 3.0))
def test_loss_non_negative(values, y, margin):
    p1 = np.array(values[:2])
    p2 = np.array(values[2:])
    assert pair_loss(p1, p2, y, margin) >= 0.0


def test_gradcheck_against_central_differences():
    rng = np.random.default_rng(99)
    for trial in range(3):
        model = small_model(seed=trial)
        x1, x2, y = random_batch(rng, 8, 9)
        _, grads, _ = loss_and_gradients(model, x1, x2, y)
        for name, grad in grads.items():
            numeric = numeric_gradient(model, name, x1, x2, y)
            err = np.abs(grad - numeric) / np.maximum(np.abs(grad) + np.abs(numeric), 1e-6)
            assert err.max() < 1e-4, f"{name}: {err.max()}"


def numeric_gradient(model, name, x1, x2, y, step=1e-5):
    param = getattr(model, name)
    numeric = np.zeros_like(param)
    flat = param.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        up = batch_loss(model, x1, x2, y)
        flat[i] = original - step
        down = batch_loss(model, x1, x2, y)
        flat[i] = original
        numeric.reshape(-1)[i] = (up - down) / (2 * step)
    return numeric


def test_zero_gradients_when_loss_is_zero():
    rng = np.random.default_rng(5)
    model = small_model()
    model.margin = 1e-9  # every negative pair saturates the hinge
    x_pos = rng.normal(size=(4, 9))
    x1 = np.concatenate([x_pos, rng.normal(size=(4, 9))])
    x2 = np.concatenate([x_pos, rng.normal(size=(4, 9))])  # positives coincide
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    loss, grads, _ = loss_and_gradients(model, x1, x2, y)
    assert loss == 0.0
    for grad in grads.values():
        np.testing.assert_array_equal(grad, np.zeros_like(grad))


def test_hinge_boundary_takes_zero_branch():
    model = small_model(seed=8)
    rng = np.random.default_rng(2)
    x1 = rng.normal(size=(1, 9))
    x2 = rng.normal(size=(1, 9))
    d = float(pair_distances(model, x1, x2)[0])

    model.margin = d  # exactly at the boundary
    loss, grads, _ = loss_and_gradients(model, x1, x2, np.array([1]))
    assert loss == 0.0
    for grad in grads.values():
        np.testing.assert_array_equal(grad, np.zeros_like(grad))

    model.margin = d * (1 + 1e-3)  # just inside: gradients flow
    _, grads, _ = loss_and_gradients(model, x1, x2, np.array([1]))
    assert any(np.abs(g).max() > 0 for g in grads.values())


def test_branch_symmetry():
    rng = np.random.default_rng(3)
    model = small_model(seed=1)
    x1, x2, y = random_batch(rng, 6, 9)
    loss_a, grads_a, _ = loss_and_gradients(model, x1, x2, y)
    loss_b, grads_b, _ = loss_and_gradients(model, x2, x1, y)
    assert loss_a == pytest.approx(loss_b, abs=1e-12)
    for name in grads_a:
        np.testing.assert_allclose(grads_a[name], grads_b[name], atol=1e-12)


def constant_epoch_factory(batches):
    return lambda epoch: batches


def synthetic_training_setup(seed=0):
    from ccl.finch import cluster_means, finch_hierarchy
    from ccl.mining import MiningConfig, mine_epoch, rank_clusters
    from ccl.data import CooccurrenceSet, l2_normalize
    from ccl.synth import synth_generate

    fs = l2_normalize(synth_generate(3, 60, 12, 0.15, 5, 0.0, seed))
    hierarchy = finch_hierarchy(fs)
    partition = hierarchy.partition(min(2, hierarchy.num_partitions))
    cfg = MiningConfig(seed=seed)
    ranks = rank_clusters(cluster_means(fs.features, partition), cfg.z_near, cfg.z_far)
    batches = mine_epoch(partition, ranks, CooccurrenceSet(), cfg)
    return fs, batches


def test_train_zero_epochs_returns_init():
    fs, batches = synthetic_training_setup()
    cfg = TrainConfig(epochs=0, seed=7, hidden_dim=16)
    model = train(fs, constant_epoch_factory(batches), cfg)
    reference = init_model(fs.dim, 16, 2, seed=7)
    np.testing.assert_array_equal(model.enc_w, reference.enc_w)
    np.testing.assert_array_equal(model.proj_w, reference.proj_w)


def test_training_reduces_loss_on_replayed_epoch():
    fs, batches = synthetic_training_setup(seed=4)
    cfg = TrainConfig(epochs=20, lr=1e-3, seed=4, hidden_dim=32)
    losses = []
    train(fs, constant_epoch_factory(batches), cfg, loss_log=losses)
    assert len(losses) == 20
    assert losses[-1] < losses[0]


def test_train_frees_each_epochs_batches_before_mining_the_next():
    fs, batches = synthetic_training_setup(seed=3)

    class Epoch(list):  # a list that weakrefs can follow
        pass

    previous = [lambda: None] * 2  # weakrefs to the last epoch's list and its last batch

    def factory(epoch):
        assert [ref() for ref in previous] == [None, None], f"epoch {epoch - 1} still alive"
        mined = Epoch(PairBatch(b.a.copy(), b.b.copy(), b.y.copy(), b.source.copy())
                      for b in batches)
        previous[:] = weakref.ref(mined), weakref.ref(mined[-1])
        return mined

    train(fs, factory, TrainConfig(epochs=3, lr=1e-3, hidden_dim=16))


def test_train_deterministic():
    fs, batches = synthetic_training_setup(seed=2)
    cfg = TrainConfig(epochs=3, lr=1e-3, seed=9, hidden_dim=16)
    a = train(fs, constant_epoch_factory(batches), cfg)
    b = train(fs, constant_epoch_factory(batches), cfg)
    for name in ("enc_w", "enc_b", "bn_gamma", "bn_beta", "bn_mean", "bn_var", "proj_w", "proj_b"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


STATE = ("enc_w", "enc_b", "bn_gamma", "bn_beta", "bn_mean", "bn_var", "proj_w", "proj_b")
# the train-mode loss depends on p only through pair differences, so these
# tensors get exactly zero gradients and training leaves them as given
ZERO_GRADIENT = ("enc_b", "bn_beta", "proj_b")
ULPS = 2 ** 10  # a train step's error bound, in eps per unit of its error scale


def wide_copy(model, dtype=np.float64):
    twin = copy.deepcopy(model)
    for name in STATE:
        setattr(twin, name, getattr(model, name).astype(dtype))
    return twin


def error_scales(model, x1, x2, y):
    """Round-off scales of one train-mode loss_and_gradients call.

    For the loss and for enc_w, bn_gamma and proj_w: the largest sum of term
    magnitudes over the sums the textbook forward and backward passes form,
    evaluated in float64 with |d loss / d p| bounded per pair. Any correct
    implementation rounds within a modest multiple of eps times this. The
    second value, kappa >= 1, is the condition of the hidden units' batch
    variances read from the covariance C as w' C w: their absolute error
    scales with |w|' |C| |w|, which exceeds var + bn_eps when a hidden unit
    is nearly orthogonal to a rank-deficient batch.
    """
    twin = wide_copy(model)
    n = len(x1)
    _, _, cache = textbook_loss_and_gradients(twin, x1, x2, y)
    h, x = cache["h"], cache["x"]
    p_mag = np.abs(h) @ np.abs(twin.proj_w) + np.abs(twin.proj_b)
    p = h @ twin.proj_w
    diff = p[:n] - p[n:]
    dist = np.sqrt(np.sum(diff ** 2, axis=1))
    p_norm = np.linalg.norm(p_mag[:n] + p_mag[n:], axis=1)
    # the program's two projections of a pair round apart by up to about
    # eps * p_norm, even when the pair is one row twice (dist 0): so no
    # distance counts for less than that rounding, in units of tol
    reach = np.maximum(dist, p_norm / ULPS)
    slope = np.abs((1 - y) * reach - y * np.maximum(0.0, model.margin - dist))
    loss = np.sum(slope * p_norm) / n
    per_pair = np.broadcast_to((slope / n)[:, None], diff.shape)
    gp = np.concatenate([per_pair, per_pair])  # bounds |d loss / d p| per element
    zhat = np.abs(cache["zhat"])
    gh = gp @ np.abs(twin.proj_w).T
    gzhat = gh * np.abs(twin.bn_gamma)
    gz = cache["inv_std"] * (gzhat + gzhat.mean(axis=0) + zhat * np.mean(gzhat * zhat, axis=0))
    scales = {"loss": loss, "proj_w": (np.abs(h).T @ gp).max(),
              "bn_gamma": np.sum(gh * zhat, axis=0).max(), "enc_w": (np.abs(x).T @ gz).max()}
    centred = np.abs(x - x.mean(axis=0))
    w = np.abs(twin.enc_w)
    spread = np.einsum("dh,dh->h", w, (centred.T @ centred / x.shape[0]) @ w)
    return scales, max(1.0, float(np.max(spread / (cache["var"] + model.bn_eps))))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.tuples(*[st.integers(1, 64)] * 3),
       pairs=st.integers(1, 40), margin=st.floats(0.1, 3.0),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_loss_and_gradients_match_textbook(seed, dims, pairs, margin, dtype):
    dim_in, hidden, out = dims
    rng = np.random.default_rng(seed)
    model = init_model(dim_in, hidden, out, margin=margin, seed=seed % 1000, dtype=dtype)
    for name in ("enc_b", "bn_beta", "proj_b"):
        getattr(model, name)[:] = rng.normal(size=getattr(model, name).shape)
    model.bn_gamma[:] = rng.uniform(0.5, 2.0, hidden) * rng.choice([-1, 1], hidden)
    rows = rng.normal(size=(30, dim_in)).astype(np.float32)
    x1, x2 = rows[rng.integers(0, 30, pairs)], rows[rng.integers(0, 30, pairs)]
    y = rng.integers(0, 2, pairs)
    tol = ULPS * np.finfo(dtype).eps

    loss, grads, _ = loss_and_gradients(model, x1, x2, y)
    # the reference, in a wider float than the model's: the textbook's z - mu
    # cancels where the program's centred x does not
    want_loss, want, _ = textbook_loss_and_gradients(wide_copy(model, np.longdouble),
                                                     x1, x2, y)
    scales, kappa = error_scales(model, x1, x2, y)
    assert abs(loss - want_loss) <= tol * (abs(want_loss) + kappa * scales["loss"])
    for name in ("enc_w", "bn_gamma", "proj_w"):
        assert grads[name].dtype == dtype
        err = np.abs(grads[name].astype(np.float64) - want[name]).max()
        assert err <= tol * kappa * scales[name], (name, err, kappa, scales[name])
    for name in ZERO_GRADIENT:
        assert not grads[name].any(), name


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.tuples(*[st.integers(1, 64)] * 3),
       batch_sizes=st.lists(st.integers(1, 40), min_size=1, max_size=4),
       epochs=st.integers(1, 4), lr_drop_epoch=st.integers(0, 4),
       given_model=st.booleans(), dtype=st.sampled_from([np.float32, np.float64]))
def test_train_matches_textbook_loop_within_tolerance(seed, dims, batch_sizes, epochs,
                                                      lr_drop_epoch, given_model, dtype):
    dim_in, hidden, out = dims
    rng = np.random.default_rng(seed)
    num_rows = 30
    fs = FeatureSet(rng.normal(size=(num_rows, dim_in)).astype(np.float32))
    batches = []
    for size in batch_sizes:
        a = rng.integers(0, num_rows, size)
        b = rng.integers(0, num_rows, size)
        b[0] = a[0]  # a pair at distance zero
        y = rng.integers(0, 2, size)
        y[-1] = 1
        batches.append(PairBatch(a, b, y, np.full(size, "PosC")))

    # the batch order rotates with the epoch, so consecutive steps see
    # different row counts
    def factory(epoch):
        shift = epoch % len(batches)
        return batches[shift:] + batches[:shift]

    # train() initializes a float32 model; a given model may be float64
    start = init_model(dim_in, hidden, out, seed=seed % 1000,
                       dtype=dtype if given_model else np.float32)
    if given_model:  # non-zero tensors that training must still leave as given
        for name in ZERO_GRADIENT:
            getattr(start, name)[:] = rng.normal(size=getattr(start, name).shape)
    # Adam moves a parameter by up to lr * (gradient error) / adam_eps per
    # step; at the default adam_eps a round-off difference in a near-zero
    # gradient becomes a step of up to lr, so the comparison uses an
    # adam_eps at which that factor is 10
    cfg = TrainConfig(epochs=epochs, lr=1e-2, lr_drop_epoch=lr_drop_epoch, seed=seed % 1000,
                      hidden_dim=hidden, out_dim=out, adam_eps=1e-3)
    tol = 2 ** 12 * np.finfo(start.dtype).eps

    reference = copy.deepcopy(start)
    expected_losses = []
    textbook_train(fs, factory, cfg, reference, expected_losses)
    losses = []
    if given_model:
        model = copy.deepcopy(start)
        before = {name: getattr(model, name) for name in STATE}
        originals = {name: arr.copy() for name, arr in before.items()}
        assert train(fs, factory, cfg, model=model, loss_log=losses) is model
        for name in STATE:
            assert before[name].tobytes() == originals[name].tobytes()
            assert getattr(model, name).base is None
    else:
        model = train(fs, factory, cfg, loss_log=losses)
    assert len(losses) == len(expected_losses)
    for got, want in zip(losses, expected_losses):
        assert abs(got - want) <= tol * abs(want), (got, want)
    for name in STATE:
        got, want = getattr(model, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
    for name in ZERO_GRADIENT:
        assert getattr(model, name).tobytes() == getattr(start, name).tobytes(), name
    # bn_mean is left out: it follows enc_b, which the textbook moves by
    # Adam steps on its round-off gradients
    for name in ("enc_w", "bn_gamma", "proj_w", "bn_var"):
        got, want = (getattr(m, name).astype(np.float64) for m in (model, reference))
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want), name


def test_train_step_on_the_hinge_moves_no_trainable_tensor():
    fs, batches = synthetic_training_setup(seed=3)
    batch = batches[0]
    # a pair at distance zero and a negative pair exactly on the hinge:
    # neither contributes a gradient, so Adam leaves every trainable tensor
    a, b = batch.a[:2].copy(), batch.b[:2].copy()
    b[0] = a[0]
    start = init_model(fs.dim, 16, 2, seed=5)
    margin = float(pair_distances(start, fs.features[a], fs.features[b])[1])
    start.margin = margin
    cfg = TrainConfig(epochs=2, lr=1e-2, seed=5, hidden_dim=16, margin=margin)
    losses = []
    model = train(fs, constant_epoch_factory([PairBatch(a, b, np.array([1, 1]), batch.source[:2])]),
                  cfg, model=copy.deepcopy(start), loss_log=losses)
    np.testing.assert_allclose(losses, [0.25 * margin ** 2] * 2, rtol=1e-6)
    for name, tensor in start.params().items():
        assert getattr(model, name).tobytes() == tensor.tobytes(), name


def test_running_stats_follow_the_batch_statistics_before_the_step():
    fs, batches = synthetic_training_setup(seed=6)
    rng = np.random.default_rng(6)
    start = init_model(fs.dim, 16, 2, seed=6, dtype=np.float64)
    start.enc_b[:] = rng.normal(size=16)
    start.bn_mean[:] = rng.normal(size=16)
    start.bn_var[:] = rng.uniform(0.5, 2.0, 16)
    batch = batches[0]
    cfg = TrainConfig(epochs=1, lr=1e-2, seed=6, hidden_dim=16)
    model = train(fs, constant_epoch_factory([batch]), cfg, model=copy.deepcopy(start))
    z = fs.features[np.concatenate([batch.a, batch.b])].astype(np.float64) @ start.enc_w
    z += start.enc_b
    rows = z.shape[0]
    mom, tol = start.bn_momentum, 2 ** 10 * np.finfo(np.float64).eps
    np.testing.assert_allclose(model.bn_mean, (1 - mom) * start.bn_mean + mom * z.mean(axis=0),
                               rtol=tol, atol=tol)
    np.testing.assert_allclose(model.bn_var, (1 - mom) * start.bn_var
                               + mom * z.var(axis=0) * rows / (rows - 1), rtol=tol)


def test_train_aborts_on_non_finite_loss():
    fs, batches = synthetic_training_setup()
    cfg = TrainConfig(epochs=1, seed=0, hidden_dim=8)
    model = init_model(fs.dim, 8, 2, seed=0)
    model.enc_w[0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(RuntimeError, match="non-finite"):
            train(fs, constant_epoch_factory(batches), cfg, model=model)


F32_MAX = float(np.finfo(np.float32).max)
# the largest float32 margin whose float32 square is finite: just below 2**64
F32_MARGIN = float(np.nextafter(np.float32(2.0**64), np.float32(0)))


@pytest.mark.parametrize("key, value", [
    ("adam_eps", 1e300), ("adam_eps", 2 * F32_MAX), ("adam_eps", 0.0),
    ("margin", 1e20), ("margin", 2.0**64), ("margin", math.inf),
])
def test_train_config_refuses_values_float32_training_cannot_hold(key, value):
    with pytest.raises(ValueError, match=f"^train.{key} must "):
        TrainConfig(**{key: value}).validate()


@pytest.mark.parametrize("key, value", [("adam_eps", F32_MAX), ("adam_eps", 1e-50),
                                        ("margin", F32_MARGIN)])
def test_train_config_accepts_float32_extremes(key, value):
    TrainConfig(**{key: value}).validate()


def test_diverging_training_is_one_error_and_no_numpy_warning():
    fs, batches = synthetic_training_setup()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="^non-finite loss nan at epoch 1, batch 0$"):
            train(fs, constant_epoch_factory(batches[:1]),
                  TrainConfig(epochs=2, lr=1e10, seed=0, hidden_dim=8))


def test_a_last_step_that_leaves_a_non_finite_tensor_fails_training():
    fs, batches = synthetic_training_setup()
    # float32 cannot hold this step size: the one step makes enc_w non-finite
    cfg = TrainConfig(epochs=1, lr=1e300, seed=0, hidden_dim=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="^non-finite enc_w after training$"):
            train(fs, constant_epoch_factory(batches[:1]), cfg)


def test_an_embedding_out_of_float32_is_an_error_naming_its_row():
    fs, _ = synthetic_training_setup()
    model = init_model(fs.dim, 8, 2, seed=0)
    model.enc_w[:, 3] = 1e30
    model.bn_gamma[3] = 1e30  # finite tensors, but row values of ~1e60
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^non-finite embedding row 0$"):
            embed(model, fs)


def test_embed_properties():
    fs, batches = synthetic_training_setup()
    cfg = TrainConfig(epochs=1, lr=1e-3, seed=1, hidden_dim=24)
    model = train(fs, constant_epoch_factory(batches), cfg)
    emb = embed(model, fs)
    assert emb.features.shape == (fs.num_samples, 24)
    norms = np.linalg.norm(emb.features.astype(np.float64), axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-5)
    np.testing.assert_array_equal(emb.label, fs.label)
    np.testing.assert_array_equal(emb.track_id, fs.track_id)

    # identical inputs produce identical rows; repeated calls are bitwise equal
    dup = FeatureSet(np.vstack([fs.features[0], fs.features[0]]))
    e = embed(model, dup)
    np.testing.assert_array_equal(e.features[0], e.features[1])
    np.testing.assert_array_equal(embed(model, fs).features, emb.features)


def test_embed_in_chunks_matches_one_forward_pass():
    n = 2 * data.BLOCK_ROWS + 37  # two whole chunks and a partial one
    model = init_model(8, 24, 4, seed=0, dtype=np.float32)
    model.bn_mean[:] = 0.25
    fs = FeatureSet(np.random.default_rng(2).normal(size=(n, 8)))
    h = forward(model, fs.features)
    want = unit_rows(h.astype(np.float32, copy=False)).astype(np.float32)
    assert embed(model, fs).features.tobytes() == want.tobytes()


def test_embed_holds_no_float64_copy_of_the_embeddings(monkeypatch):
    monkeypatch.setattr(data, "BLOCK_ROWS", 256)
    n, hidden = 6000, 64
    model = init_model(8, hidden, 4, seed=0, dtype=np.float32)
    fs = FeatureSet(np.random.default_rng(0).normal(size=(n, 8)))
    tracemalloc.start()
    try:
        emb = embed(model, fs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert emb.features.dtype == np.float32
    # the float32 output and its finiteness mask, well under one N x H float64 array
    assert peak < 8 * n * hidden


@pytest.fixture
def one_mib(monkeypatch):
    monkeypatch.setattr(memory, "_physical_memory", lambda: 2**20)
    monkeypatch.setattr(memory, "_cgroup_memory_limit", lambda: None)


def test_a_model_larger_than_memory_is_refused_before_allocating(one_mib):
    fs = FeatureSet(np.random.default_rng(0).normal(size=(50, 64)).astype(np.float32))
    # 88,080 parameters: a few MiB with Adam's buffers and a step's temporaries
    cfg = TrainConfig(epochs=1, hidden_dim=1024, out_dim=16)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^training a 64 x 1024 x 16 model "
                                             r"\(train\.hidden_dim = 1024, train\.out_dim = 16\) "
                                             r"may need \d+ bytes, more than the 1048576 bytes "
                                             r"of physical memory$"):
            train(fs, lambda epoch: [], cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_embeddings_larger_than_memory_are_refused_before_allocating(one_mib):
    model = init_model(4, 1024, 2, seed=0)
    fs = FeatureSet(np.random.default_rng(0).normal(size=(1000, 4)).astype(np.float32))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^the 1000 x 1024 embeddings "
                                             r"\(train\.hidden_dim = 1024\) may need \d+ bytes, "
                                             r"more than the 1048576 bytes of physical memory$"):
            embed(model, fs)  # 4 MB of float32 output
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_embed_zero_norm_error_names_the_global_row(monkeypatch):
    monkeypatch.setattr(data, "BLOCK_ROWS", 16)
    model = init_model(4, 6, 2, seed=0, dtype=np.float32)  # enc_b, bn_mean, bn_beta are 0
    features = np.random.default_rng(1).normal(size=(40, 4))
    features[21] = 0.0  # embeds to the zero vector, in the second chunk
    with pytest.raises(ValueError, match="zero-norm embedding row 21$"):
        embed(model, FeatureSet(features))


def test_checkpoint_round_trip(tmp_path):
    model = init_model(9, 6, 2, margin=1.5, seed=3, dtype=np.float32)
    model.bn_mean[:] = 0.25
    path = tmp_path / "model.ccl"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.margin == pytest.approx(1.5)
    for name in ("enc_w", "enc_b", "bn_gamma", "bn_beta", "bn_mean", "bn_var", "proj_w", "proj_b"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))
    with pytest.raises(ValueError, match="checkpoint"):
        bad = tmp_path / "bad.ccl"
        bad.write_bytes(b"garbage-not-a-checkpoint")
        load_model(bad)


def test_checkpoint_with_a_non_zero_reserved_byte_is_refused(tmp_path):
    path = tmp_path / "model.ccl"
    save_model(init_model(9, 6, 2, seed=0, dtype=np.float32), path)
    raw = bytearray(path.read_bytes())
    reserved = siamese._HEADER.size - 9  # the byte before bn_eps and bn_momentum
    assert raw[reserved] == 0
    raw[reserved] = 1  # a squared-distance-hinge model
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="^checkpoint reserved byte is 1, not 0: "
                                         "the squared-distance hinge is not supported$"):
        load_model(path)


def test_checkpoint_header_larger_than_file_is_rejected(tmp_path):
    model = init_model(9, 6, 2, seed=0, dtype=np.float32)
    path = tmp_path / "model.ccl"
    save_model(model, path)
    raw = path.read_bytes()
    huge = tmp_path / "huge.ccl"
    huge.write_bytes(raw[:8] + struct.pack("<QQQ", 2**31, 2**31, 2**31) + raw[32:])
    with pytest.raises(ValueError, match="truncated checkpoint: header declares"):
        load_model(huge)
    short = tmp_path / "short.ccl"
    short.write_bytes(raw[:-1])
    with pytest.raises(ValueError, match="truncated checkpoint"):
        load_model(short)


@pytest.mark.parametrize("name", ["enc_w", "bn_var", "proj_b", "margin", "bn_eps"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_checkpoint_is_rejected_by_name(tmp_path, name, value):
    model = init_model(5, 4, 2, seed=1, dtype=np.float32)
    if name in ("margin", "bn_eps"):
        setattr(model, name, value)
    else:
        getattr(model, name).flat[-1] = value
    path = tmp_path / "model.ccl"
    save_model(model, path)
    with pytest.raises(ValueError, match=f"^checkpoint {name} holds a non-finite value$"):
        load_model(path)


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ccl") / "valid.ccl"
    save_model(init_model(5, 4, 2, seed=1, dtype=np.float32), path)
    return path


@settings(max_examples=300, deadline=None)
@given(corruption=corruptions)
def test_corrupted_checkpoint_raises_only_domain_errors(valid_checkpoint, corruption):
    path = valid_checkpoint.with_name("corrupt.ccl")
    path.write_bytes(corrupt(valid_checkpoint.read_bytes(), corruption))
    try:
        load_model(path)
    except ValueError:
        return
    assert corruption[0] == "flip", "a file whose size differs from its header loaded"
