"""Property/randomized tests (FIXTURES.md §4): round-trips must match by
construction; arbitrary inputs must fail safely, never crash or hang."""

import math
import random
import sys

from hypothesis import example, given, settings, strategies as st

from pdf_to_text_ray.fixtures.htmlgen import make_html_page
from pdf_to_text_ray.fixtures.pdfgen import make_pdf
from pdf_to_text_ray.functions.scalars import (
    parse_float_or_zero,
    parse_int_or_zero,
    to_fixed,
)
from pdf_to_text_ray.stages.html_extract import (
    _WS_COLLAPSE_RE,
    _collapse,
    extract_html_text,
    parse_html,
)
from pdf_to_text_ray.stages.pdf_extract import PdfError, extract_pdf_text
from pdf_to_text_ray.stages.reading_order import Run, page_text
from pdf_to_text_ray.stages.segment import extract_blocks, parse_block_records


# ── generator round-trips over the whole parameter space ─────────────

@given(st.integers(0, 10_000), st.booleans(), st.booleans(),
       st.sampled_from(["table", "stream", "stream_pred"]))
@settings(max_examples=40, deadline=None)
def test_pdf_roundtrip_property(seed, objstm, two_col, style):
    rng = random.Random(seed)
    pdf, expected, n = make_pdf(
        rng, n_pages=rng.randrange(1, 4), xref_style=style,
        use_objstm=objstm, two_column=two_col,
        with_sucursal=rng.random() < 0.5)
    r = extract_pdf_text(pdf)
    assert r.text == expected and r.n_pages == n


@given(st.integers(0, 10_000), st.booleans(), st.booleans(),
       st.sampled_from(["en", "es", "de"]))
@settings(max_examples=60, deadline=None)
def test_html_roundtrip_property(seed, sucursal, malformed, lang):
    rng = random.Random(seed)
    html, expected = make_html_page(rng, lang=lang, with_sucursal=sucursal,
                                    malformed=malformed)
    assert extract_html_text(html.decode("utf-8")) == expected


# ── fail-safe on arbitrary bytes ─────────────────────────────────────

@given(st.binary(min_size=0, max_size=4096))
@settings(max_examples=80, deadline=None)
def test_pdf_fuzz_fails_safely(data):
    try:
        extract_pdf_text(b"%PDF-1.4\n" + data)
    except PdfError:
        pass  # safe failure is the contract


@given(st.text(max_size=4096))
@settings(max_examples=80, deadline=None)
def test_html_fuzz_never_crashes(text):
    out = extract_html_text(text)
    assert isinstance(out, str)
    parse_html(text)  # tree builder is total too


# every code point str.split() breaks a word on, derived, not listed
_SPLIT_WS = [chr(c) for c in range(sys.maxunicode + 1)
             if len(("a" + chr(c) + "a").split()) == 2]


def _between_letters_each(test):
    # hypothesis draws unevenly from a list, so pin one example per
    # code point: "a<c>b" is where a forgotten one shows
    for c in _SPLIT_WS:
        test = example("a" + c + "b")(test)
    return test


# one of those per string: a code point the fast path forgets shows
# only when no other one sends the string to the regex path
@_between_letters_each
@given(st.sampled_from(_SPLIT_WS).flatmap(lambda w: st.text(
    alphabet=st.sampled_from(
        [w, " ", "\n", "\xa0", "\u200b", "\ufeff", "a", "b", "é"]),
    max_size=40)))
@settings(max_examples=400, deadline=None)
def test_collapse_equals_regex_collapse(s):
    """The split/join fast path collapses exactly like the spec's regex,
    whatever whitespace the string holds."""
    assert _collapse(s) == _WS_COLLAPSE_RE.sub(" ", s).strip()


@given(st.text(max_size=4096))
@settings(max_examples=60, deadline=None)
def test_link_meta_fuzz_never_crashes(text):
    from pdf_to_text_ray.stages.html_links import (
        extract_links,
        extract_page_meta,
    )

    links = extract_links(text, "https://ex0.test/p0")
    assert all(l["dst_url"].startswith(("http://", "https://"))
               for l in links)
    meta = extract_page_meta(text)
    assert isinstance(meta["title"], str) and meta["n_links"] >= 0


@given(st.text(max_size=256))
@settings(max_examples=80, deadline=None)
def test_resolve_href_total(href):
    from pdf_to_text_ray.stages.html_links import resolve_href

    out = resolve_href("https://host.test/dir/page?q=1", href)
    # total function: either a normalized absolute http(s) URL or None
    assert out is None or (
        out.startswith(("http://", "https://")) and "#" not in out)


# ── segmenter invariants ─────────────────────────────────────────────

@given(st.lists(st.sampled_from([
    "Sucursal 1 - A", "8412345678905 2 24.95", "random line",
    "* Total importe en la sucursal: 74.85", "", "sUcursal 2",
    "* TOTAL IMPORTE EN LA SUCURSAL: 3",
]), max_size=40))
@settings(max_examples=100, deadline=None)
def test_segmenter_invariants(lines):
    text = "\n".join(lines)
    blocks = extract_blocks(text)
    # every block starts with the case-insensitive marker
    assert all(b.lower().startswith("sucursal") for b in blocks)
    # block count == number of marker lines (each opens a block)
    n_markers = sum(1 for ln in lines if ln.lower().startswith("sucursal"))
    assert len(blocks) == n_markers
    # records parse without error; quantities are ints, importes floats
    for b in blocks:
        for _, ean, qty, imp in parse_block_records(b):
            assert ean.isdigit() and isinstance(qty, int) and isinstance(imp, float)


# ── scalar coercions are total ───────────────────────────────────────

@given(st.text(max_size=64))
@settings(max_examples=150, deadline=None)
def test_coercions_total(s):
    assert isinstance(parse_int_or_zero(s), int)
    assert isinstance(parse_float_or_zero(s), float)


@given(st.floats(allow_nan=False, allow_infinity=False,
                 min_value=-1e12, max_value=1e12))
@settings(max_examples=200, deadline=None)
def test_to_fixed_is_within_half_cent(x):
    got = float(to_fixed(x, 2))
    # tolerance: half a cent plus the float representation gap at |x|
    assert abs(got - x) <= 0.005 + 4 * math.ulp(abs(x) + 1.0)


# ── reading order invariants ─────────────────────────────────────────

@given(st.lists(st.tuples(
    st.floats(0, 600, allow_nan=False), st.floats(0, 760, allow_nan=False),
    st.text(st.characters(codec="ascii", exclude_characters="\n\x00"),
            min_size=1, max_size=12)),
    max_size=25))
@settings(max_examples=80, deadline=None)
def test_page_text_conserves_runs(coords):
    runs = [Run(x, y, t.strip()) for x, y, t in coords]
    out = page_text(runs)
    # every non-empty run text appears in the output
    for r in runs:
        if r.text:
            assert r.text in out
    # emission order never matters when positions are distinct
    if len({(r.x, r.y) for r in runs}) == len(runs):
        assert page_text(list(reversed(runs))) == out


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=120),
    seed=st.integers(min_value=0, max_value=10_000),
    buckets=st.integers(min_value=1, max_value=8),
)
def test_bucketed_group_apply_matches_plain_groupby(ray_session, n, seed, buckets):
    """Hash-bucketed grouped execution == a single-node pandas groupby
    for an order-insensitive per-group reduction, for any key skew."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from pdf_to_text_ray.stages.groups import bucketed_group_apply

    rng = np.random.RandomState(seed)
    df = pd.DataFrame({
        "k": rng.randint(0, max(n // 4, 1), size=n),
        "s": rng.choice(["a", "b", "c"], size=n),
        "v": rng.normal(size=n),
    })
    expected = (df.groupby(["k", "s"], as_index=False)["v"].sum()
                if n else pd.DataFrame({"k": [], "s": [], "v": []}))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["k", "s"], sort=False, as_index=False)["v"].sum()

    if n == 0:
        return  # rd.from_pandas of an empty frame is degenerate
    got = bucketed_group_apply(
        rd.from_pandas(df), ["k", "s"], per_bucket, num_buckets=buckets
    ).to_pandas()
    got = got.sort_values(["k", "s"]).reset_index(drop=True)
    expected = expected.sort_values(["k", "s"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"k": "int64"}), expected.astype({"k": "int64"}),
        check_exact=False, rtol=1e-9)


# ── mergeable-primitive properties (round-6 ops) ─────────────────────

@given(st.lists(st.floats(min_value=-1e3, max_value=1e3,
                          allow_nan=False), min_size=8, max_size=200),
       st.integers(min_value=2, max_value=6))
@settings(max_examples=40, deadline=None)
def test_moments_merge_matches_direct(xs, n_parts):
    import numpy as np

    from pdf_to_text_ray.pipelines.queries import _merge_moments

    v = np.asarray(xs, np.float64)
    parts = np.array_split(v, n_parts)
    acc = (0, 0.0, 0.0, 0.0, 0.0)
    for p in parts:
        if len(p) == 0:
            continue
        mu = p.mean()
        c = p - mu
        acc = _merge_moments(acc, (len(p), mu, (c**2).sum(),
                                   (c**3).sum(), (c**4).sum()))
    n, m, M2, M3, M4 = acc
    c = v - v.mean()
    scale = max(np.abs(c).max() ** 2, 1.0)
    assert n == len(v)
    assert math.isclose(m, v.mean(), rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(M2, (c**2).sum(), rel_tol=1e-7,
                        abs_tol=1e-6 * scale)
    assert math.isclose(M3, (c**3).sum(), rel_tol=1e-6,
                        abs_tol=1e-5 * scale ** 1.5)
    assert math.isclose(M4, (c**4).sum(), rel_tol=1e-6,
                        abs_tol=1e-5 * scale ** 2)


@given(st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=4),
                min_size=1, max_size=400))
@settings(max_examples=30, deadline=None)
def test_cms_never_undercounts(tokens):
    import numpy as np
    import pandas as pd

    from pdf_to_text_ray.pipelines.queries import _CMS_D, _CMS_SALTS, _CMS_W

    cms = np.zeros((_CMS_D, _CMS_W), np.int64)
    h = pd.util.hash_array(np.asarray(tokens, object))
    for d in range(_CMS_D):
        idx = ((h * _CMS_SALTS[d]) >> np.uint64(40)) % _CMS_W
        np.add.at(cms[d], idx.astype(np.int64), 1)
    exact = pd.Series(tokens).value_counts()
    for tok, n in exact.items():
        hh = pd.util.hash_array(np.asarray([tok], object))[0]
        idx = ((np.uint64(hh) * _CMS_SALTS) >> np.uint64(40)) % _CMS_W
        est = int(cms[np.arange(_CMS_D), idx.astype(np.int64)].min())
        assert est >= n                      # CMS never undercounts
        assert est <= len(tokens)            # and never exceeds the stream


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_weighted_sample_uniform_is_engine_portable(doc_id):
    """The md5-derived uniform must equal DuckDB's
    ('0x' || substr(md5(id), 1, 8))::UBIGINT / 2^32 exactly."""
    import hashlib

    import duckdb

    py = int(hashlib.md5(str(doc_id).encode()).hexdigest()[:8], 16)
    (sql,) = duckdb.sql(
        f"select ('0x' || substr(md5('{doc_id}'), 1, 8))::UBIGINT"
    ).fetchone()
    assert py == sql


@given(st.lists(st.tuples(st.integers(0, 30), st.sampled_from("abc")),
                max_size=40),
       st.lists(st.tuples(st.integers(0, 30), st.sampled_from("abc")),
                max_size=40))
@settings(max_examples=30, deadline=None)
def test_snapshot_diff_matches_dict_reference(old_rows, new_rows):
    """snapshot_diff's bucketed classification equals the obvious
    dict-based diff for any pair of (key → hash) snapshots."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from pdf_to_text_ray.stages.joins import snapshot_diff

    old = dict(old_rows)   # last write wins, mirrors unique-key input
    new = dict(new_rows)
    want = {}
    for k in old.keys() | new.keys():
        if k not in new:
            want[k] = "removed"
        elif k not in old:
            want[k] = "added"
        elif old[k] != new[k]:
            want[k] = "changed"

    def tbl(d):
        return pa.table({
            "k": pa.array(sorted(d), pa.int64()),
            "h": pa.array([d[k] for k in sorted(d)], pa.string())})

    out = snapshot_diff(rd.from_arrow(tbl(old)), rd.from_arrow(tbl(new)),
                        key_col="k", num_buckets=4).to_pandas()
    got = dict(zip(out["k"], out["change"])) if len(out) else {}
    assert got == want


@given(st.lists(st.one_of(st.none(), st.binary(max_size=64)), max_size=40),
       st.integers(0, 10), st.integers(0, 10),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_binary_views_property(vals, off, length, large):
    """Zero-copy views == to_pylist for ANY value mix, slice offsets,
    and both 32/64-bit offset widths (stages/zerocopy.py)."""
    import pyarrow as pa

    from pdf_to_text_ray.stages.zerocopy import binary_views

    arr = pa.array(vals, pa.large_binary() if large else pa.binary())
    sl = arr.slice(min(off, len(arr)),
                   min(length, max(len(arr) - off, 0)))
    got = [None if v is None else bytes(v) for v in binary_views(sl)]
    assert got == sl.to_pylist()
    # high-byte equality semantics survive the cast (the BOM gotcha)
    for v, ref in zip(binary_views(sl), sl.to_pylist()):
        if v is not None and len(ref) >= 2:
            assert (v[:2] == ref[:2]) is True


@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=0, max_value=100))
@settings(max_examples=60, deadline=None)
def test_rank_for_matches_duckdb_quantile_disc(n, qk):
    """Cross-engine property: for any table size n and any 2-decimal
    quantile literal q, _rank_for picks EXACTLY the element DuckDB's
    quantile_disc returns (identity data ⇒ value == rank). Guards the
    exact-decimal ceil(q·n)−1 rule against both float drift (the
    0.55×6000 regression) and DuckDB semantics changes."""
    import duckdb

    from pdf_to_text_ray.stages.quantiles import _rank_for

    q = qk / 100.0
    con = duckdb.connect()
    got = con.execute(
        f"SELECT quantile_disc(v, {q!r}) FROM range({n}) t(v)"
    ).fetchone()[0]
    assert got == _rank_for(q, n)
