"""``groups.grouped_partials``: the one small-key grouped aggregate.
Its result must not depend on block cuts or on the order in which the
per-batch partials reach the driver, integer sums must stay exact
int64, and an empty input keeps its columns."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from pdf_to_text_ray.stages.groups import grouped_partials


def _ints(n: int = 3000) -> pa.Table:
    i = np.arange(n, dtype=np.int64)
    return pa.table({"k": i % 7, "j": (i // 7) % 3, "v": i * 31 % 1009,
                     "w": -(i % 11)})


def test_same_result_at_any_block_count(ray_session):
    import ray.data as rd

    t = _ints()
    results = [grouped_partials(rd.from_arrow(t).repartition(b), ["k", "j"],
                                sums=["v"], mins=["w"], maxes=["w2"],
                                count="n",
                                prep=lambda x: x.append_column("w2", x["w"]))
               for b in (1, 8, 64)]
    for got in results[1:]:
        pd.testing.assert_frame_equal(got, results[0], check_exact=True)
    want = (t.to_pandas().groupby(["k", "j"], as_index=False)
            .agg(v=("v", "sum"), w=("w", "min"), w2=("w", "max"),
                 n=("v", "size")))
    pd.testing.assert_frame_equal(results[0], want, check_exact=True)


def test_bit_identical_when_partials_arrive_shuffled(ray_session):
    """Float sums depend on the order they are added in: the merge
    orders the partials by content, so any arrival order gives the same
    bits."""
    import ray.data as rd

    rng = np.random.default_rng(5)
    parts = [pa.table({"k": rng.integers(0, 4, 200),
                       "x": rng.standard_normal(200) * 10.0 ** rng.integers(
                           -8, 9, 200)}) for _ in range(12)]
    results = []
    for seed in range(4):
        order = np.random.default_rng(seed).permutation(len(parts))
        ds = rd.from_arrow([parts[i] for i in order])
        results.append(grouped_partials(ds, "k", sums=["x"], count="n"))
    for got in results[1:]:
        pd.testing.assert_frame_equal(got, results[0], check_exact=True)


def test_int64_sums_exact_above_2_53(ray_session):
    import ray.data as rd

    big = 2 ** 53 + 1
    t = pa.table({"k": ["a", "b"] * 8,
                  "v": pa.array([big] * 16, pa.int64())})
    out = grouped_partials(rd.from_arrow(t).repartition(8), "k", sums=["v"])
    assert out["v"].dtype == np.int64
    assert out["v"].tolist() == [8 * big, 8 * big]
    assert out["k"].tolist() == ["a", "b"]


def test_empty_input_keeps_its_columns(ray_session):
    import ray.data as rd

    t = pa.table({"k": pa.array([], pa.string()),
                  "v": pa.array([], pa.int64())})
    out = grouped_partials(rd.from_arrow(t), "k", sums=["v"], count="n")
    assert list(out.columns) == ["k", "v", "n"]
    assert len(out) == 0
    # a prep that filters every row out behaves the same
    out = grouped_partials(rd.from_arrow(_ints()), ["k", "j"], maxes=["v"],
                           prep=lambda x: x.slice(0, 0))
    assert list(out.columns) == ["k", "j", "v"]
    assert len(out) == 0
