"""Distributed logistic-regression quality classifier
(stages/classifier.py): feature determinism, bit-deterministic
training under Ray scheduling, rule agreement, scoring schema."""

import numpy as np
import pyarrow as pa
import pytest

from pdf_to_text_ray.stages.classifier import (
    default_label_batch, hash_features, lr_score_dataset, lr_train)

GOOD = ("the quick brown fox jumps over a lazy dog and then runs to be "
        "free of the field with plenty of words that have normal length "
        "and that keep going for a while longer to clear the minimum")
BAD = "spam spam spam"


def _docs_table(n=120):
    texts = [(GOOD + f" extra{i}") if i % 3 else BAD for i in range(n)]
    return pa.table({"doc_id": pa.array(range(n), pa.int64()),
                     "text": pa.array(texts, pa.string())})


def test_hash_features_shape_and_norm():
    x = hash_features([GOOD, BAD, "", None], dim=64)
    assert x.shape == (4, 64)
    norms = np.linalg.norm(x, axis=1)
    assert np.allclose(norms[:2], 1.0)
    assert norms[2] == norms[3] == 0.0
    # determinism
    assert np.array_equal(x, hash_features([GOOD, BAD, "", None], dim=64))


def test_default_labels():
    y = default_label_batch(_docs_table(6))
    assert y.tolist() == [0.0, 1.0, 1.0, 0.0, 1.0, 1.0]


def test_training_bit_deterministic(ray_session):
    import ray.data as rd

    t = _docs_table()
    # different block splits → different task boundaries/scheduling;
    # canonical partial ordering must still give identical weights
    ds_a = rd.from_arrow(t).repartition(7)
    ds_b = rd.from_arrow(t).repartition(3)
    wa, ba, la = lr_train(ds_a, dim=64, n_iters=5)
    wb, bb, lb = lr_train(ds_b, dim=64, n_iters=5)
    assert np.array_equal(wa, wb) and ba == bb and la == lb


def test_learns_the_rule(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_docs_table()).repartition(4)
    w, b, losses = lr_train(ds, dim=64, n_iters=25)
    assert losses[-1] < losses[0]
    out = lr_score_dataset(ds, w, b).to_pandas().sort_values("doc_id")
    y = default_label_batch(_docs_table())
    agreement = float((out["pred"].to_numpy() == y).mean())
    assert agreement >= 0.95, agreement
    assert sorted(out.columns) == ["doc_id", "pred", "prob"]


def test_train_mod_samples_training_slice(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_docs_table()).repartition(4)
    w, b, _ = lr_train(ds, dim=64, n_iters=10, train_mod=2)
    out = lr_score_dataset(ds, w, b).to_pandas()
    assert len(out) == 120  # scoring still covers the full corpus


def test_lr_train_empty_training_set_raises(ray_session):
    """All-ambiguous labels (or an over-aggressive train_mod) must raise
    a named error, not silently train NaN weights that then score the
    whole corpus as NaN."""
    import ray.data as rd

    ds = rd.from_arrow(_docs_table(24))
    with pytest.raises(ValueError, match="empty effective training set"):
        lr_train(ds, dim=16, n_iters=2,
                 label_fn=lambda t, c="text": np.full(t.num_rows, np.nan))


def test_local_and_distributed_training_bit_identical(ray_session,
                                                      monkeypatch):
    """The small-sample local GD loop and the distributed partials path
    share _grad_partials' fixed-point quantization, so crossing the
    LOCAL_TRAIN_BELOW threshold must not change a single bit."""
    import ray.data as rd

    from pdf_to_text_ray.stages import classifier

    ds = rd.from_arrow(_docs_table()).repartition(5)
    monkeypatch.setattr(classifier, "LOCAL_TRAIN_BELOW", 10_000)
    w_loc, b_loc, l_loc = lr_train(ds, dim=64, n_iters=5)
    monkeypatch.setattr(classifier, "LOCAL_TRAIN_BELOW", 0)
    w_dist, b_dist, l_dist = lr_train(ds, dim=64, n_iters=5)
    assert np.array_equal(w_loc, w_dist)
    assert b_loc == b_dist and l_loc == l_dist
