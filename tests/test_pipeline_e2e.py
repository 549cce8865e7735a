"""End-to-end golden runs: corpus → pipeline → join to goldens on url →
byte-equality for every row (SURVEY.md §5.3), plus dedup + resume tests."""

import os

import pyarrow as pa
import pytest

from pdf_to_text_ray.fixtures.corpus import make_pages_table
from pdf_to_text_ray.pipelines.extract import (
    dedup_pages_latest,
    extract_pages,
    run_extract,
)
from pdf_to_text_ray.state import manifest as mstate


@pytest.fixture(scope="module")
def corpus():
    return make_pages_table(n_rows=120, seed=42)


def _written(out_dir, wave_idx):
    """Every file under a wave's output dir. Ray names written files
    uniquely per execution, so a re-run wave shows new names."""
    wdir = mstate.wave_dir(out_dir, wave_idx)
    return sorted(os.path.relpath(os.path.join(d, f), wdir)
                  for d, _, fs in os.walk(wdir) for f in fs)


def test_e2e_byte_identity(ray_session, corpus):
    import ray.data as rd

    pages, golden = corpus
    ds = rd.from_arrow(pages)
    out = dedup_pages_latest(extract_pages(ds, batch_size=16)).to_pandas()
    gold = golden.to_pandas().set_index("url")
    got = out.set_index("url")
    assert set(got.index) == set(gold.index)
    got = got.reindex(gold.index)
    mismatch = [
        u for u in gold.index
        if got.loc[u, "text_extracted"] != gold.loc[u, "text_extracted"]
    ]
    assert mismatch == [], f"{len(mismatch)} rows differ, e.g. {mismatch[:3]}"
    # doc_type + n_pages also match the goldens
    assert (got["doc_type"] == gold["doc_type"]).all()
    assert (got["n_pages"].astype(int) == gold["n_pages"].astype(int)).all()
    # broken-xref rows surface as fallback, not failure
    assert got["parse_failure"].sum() == 0


def test_dedup_keeps_max_warc_ts(ray_session, corpus):
    import ray.data as rd

    pages, _ = corpus
    n_unique = len(set(pages["url"].to_pylist()))
    assert n_unique < pages.num_rows  # corpus does contain duplicates
    ds = rd.from_arrow(pages.select(["url", "warc_ts", "lang"]))
    out = dedup_pages_latest(ds).to_pandas()
    assert len(out) == n_unique
    import pandas as pd

    expected_max = (
        pages.select(["url", "warc_ts"]).to_pandas().groupby("url")["warc_ts"].max()
    )
    got = out.set_index("url")["warc_ts"]
    pd.testing.assert_series_equal(
        got.sort_index(), expected_max.sort_index(), check_names=False
    )


def _crash_at_manifest(monkeypatch, n_written: int):
    """Make ``write_manifest`` raise on its (n_written+1)-th call: that
    wave's output is written and renamed into place, but no manifest
    marks it complete — a crash between the rename and the manifest."""
    real = mstate.write_manifest
    calls = []

    def write(out_dir, wave_idx, payload):
        if len(calls) == n_written:
            raise RuntimeError(f"crash before the manifest of wave {wave_idx}")
        calls.append(wave_idx)
        return real(out_dir, wave_idx, payload)

    monkeypatch.setattr(mstate, "write_manifest", write)


def test_wave_resume(ray_session, tmp_path, corpus, monkeypatch):
    import pyarrow.parquet as pq

    pages, golden = corpus
    in_dir = str(tmp_path / "in")
    out_dir = str(tmp_path / "out")
    os.makedirs(in_dir)
    # 4 input shards → 4 waves of 1 file
    n = pages.num_rows
    for s in range(4):
        pq.write_table(pages.slice(s * n // 4, (s + 1) * n // 4 - s * n // 4),
                       os.path.join(in_dir, f"part-{s}.parquet"))

    # the first run writes wave 2 but dies before its manifest
    with monkeypatch.context() as m:
        _crash_at_manifest(m, 2)
        with pytest.raises(RuntimeError, match="crash before the manifest"):
            run_extract(in_dir, out_dir, files_per_wave=1)
    assert set(mstate.load_manifests(out_dir)) == {0, 1}
    assert _written(out_dir, 2)  # renamed into place, not complete
    before = {w: _written(out_dir, w) for w in (0, 1)}
    assert all(before.values())

    # restart completes only the remaining waves
    summary = run_extract(in_dir, out_dir, files_per_wave=1)
    assert set(mstate.load_manifests(out_dir)) == {0, 1, 2, 3}
    assert summary["waves"] == 4
    assert {w: _written(out_dir, w) for w in (0, 1)} == before

    # output urls exactly equal golden urls (no dups, no gaps)
    import ray.data as rd

    out_urls = sorted(
        rd.read_parquet(out_dir, columns=["url"]).to_pandas()["url"]
    )
    assert out_urls == sorted(golden["url"].to_pylist())
    # manifests metrics sum consistently
    metrics = summary["metrics"]
    assert metrics["rows"] == len(out_urls)
    assert metrics["parse_failures"] == 0
    # the run's rate is total rows over total wave time, not a sum of
    # the four waves' rates
    assert metrics["docs_per_sec"] == round(
        metrics["rows"] / metrics["wall_sec"], 2)


def test_fresh_wave_is_one_execution(ray_session, tmp_path, corpus,
                                     monkeypatch):
    """A fresh one-wave run reads parquet through Ray twice: the winners
    scan and the wave itself. Metrics and the survivor digest come from
    the written files, not from further Ray reads."""
    import pyarrow.parquet as pq
    import ray.data as rd

    pages, golden = corpus
    in_dir = str(tmp_path / "in")
    out_dir = str(tmp_path / "out")
    os.makedirs(in_dir)
    pq.write_table(pages, os.path.join(in_dir, "part-0.parquet"))
    calls = []
    real = rd.read_parquet

    def counting(*args, **kwargs):
        calls.append(kwargs.get("columns"))
        return real(*args, **kwargs)

    monkeypatch.setattr(rd, "read_parquet", counting)
    summary = run_extract(in_dir, out_dir, files_per_wave=1)
    assert calls == [["url", "warc_ts"], None]
    assert summary["metrics"]["rows"] == golden.num_rows
    m = mstate.load_manifests(out_dir)[0]
    assert m["survivor_digest"].endswith(f":{golden.num_rows}")


def test_input_replaced_during_its_wave_reruns(ray_session, tmp_path,
                                               corpus, monkeypatch):
    """The manifest records the input signatures taken BEFORE the wave
    read its files: a file replaced while its wave runs must not vouch
    for output built from its old content, so the restart re-runs it."""
    import pyarrow.parquet as pq

    from pdf_to_text_ray.pipelines import extract

    pages, _ = corpus
    in_dir = str(tmp_path / "in")
    out_dir = str(tmp_path / "out")
    os.makedirs(in_dir)
    path = os.path.join(in_dir, "part-0.parquet")
    pq.write_table(pages, path)
    real = extract.extract_pages

    def touching(ds, **kwargs):
        st = os.stat(path)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        return real(ds, **kwargs)

    monkeypatch.setattr(extract, "extract_pages", touching)
    run_extract(in_dir, out_dir, files_per_wave=1)
    monkeypatch.undo()
    before = _written(out_dir, 0)
    assert before
    run_extract(in_dir, out_dir, files_per_wave=1)
    assert not set(_written(out_dir, 0)) & set(before)


def test_oversized_row_among_small(ray_session):
    """A multi-MB PDF in a batch of small rows must extract correctly and
    not fail the batch (size-skew path, SURVEY.md §4.2)."""
    import random

    import pyarrow as pa
    import ray.data as rd

    from pdf_to_text_ray.fixtures.pdfgen import make_pdf

    rng = random.Random(77)
    big_pdf, big_expected, n_pages = make_pdf(
        rng, n_pages=30, lines_per_page=1600, compress=False)
    assert len(big_pdf) > 2_000_000  # genuinely oversized vs its peers
    pages, golden = make_pages_table(30, seed=30)
    big_row = pa.table({
        "url": ["https://big.test/doc"],
        "warc_ts": pa.array([pages["warc_ts"][0].as_py()], pa.timestamp("us")),
        "html": pa.array([big_pdf], pa.binary()),
        "text": pa.array([None], pa.string()),
        "lang": ["en"],
    })
    all_pages = pa.concat_tables([pages, big_row])
    out = extract_pages(rd.from_arrow(all_pages), batch_size=8).to_pandas()
    big = out[out["url"] == "https://big.test/doc"].iloc[0]
    assert big["text_extracted"] == big_expected
    assert big["n_pages"] == n_pages
    assert out["parse_failure"].sum() == 0


def test_gzip_payloads_transparently_decompressed(ray_session):
    """Common-Crawl-style gzipped payload bodies: sniffed on the
    decompressed prefix, fully decompressed at extraction."""
    import gzip
    import random

    import pyarrow as pa
    import ray.data as rd

    from pdf_to_text_ray.fixtures.htmlgen import make_html_page
    from pdf_to_text_ray.fixtures.pdfgen import make_pdf

    rng = random.Random(60)
    html, html_exp = make_html_page(rng)
    pdf, pdf_exp, _ = make_pdf(rng, n_pages=2)
    t = pa.table({
        "url": ["https://gz-html.test/", "https://gz-pdf.test/", "https://gz-junk.test/"],
        "warc_ts": pa.array([1, 2, 3], pa.timestamp("us")),
        "html": pa.array([gzip.compress(html), gzip.compress(pdf), b"\x1f\x8b broken"],
                         pa.binary()),
        "text": pa.array([None, None, None], pa.string()),
        "lang": ["en", "en", "en"],
    })
    out = extract_pages(rd.from_arrow(t), batch_size=4).to_pandas().set_index("url")
    assert out.loc["https://gz-html.test/", "text_extracted"] == html_exp
    assert out.loc["https://gz-pdf.test/", "text_extracted"] == pdf_exp
    assert out.loc["https://gz-pdf.test/", "doc_type"] == "pdf"
    # corrupt gzip fails safely as an empty text row, not a crash
    assert out.loc["https://gz-junk.test/", "text_extracted"] == ""


def test_meta_charset_redecode(ray_session):
    """Legacy-encoded pages (meta charset) decode via the declared
    charset when UTF-8 produces replacement characters."""
    import pyarrow as pa
    import ray.data as rd

    body = ('<html><head><meta charset="iso-8859-1"></head><body>'
            '<article><p>' + "café résumé niño " * 30 + "</p></article>"
            "</body></html>")
    payload = body.encode("latin-1")  # NOT valid UTF-8 for é/ñ
    t = pa.table({
        "url": ["https://legacy.test/"],
        "warc_ts": pa.array([1], pa.timestamp("us")),
        "html": pa.array([payload], pa.binary()),
        "text": pa.array([None], pa.string()),
        "lang": ["fr"],
    })
    out = extract_pages(rd.from_arrow(t), batch_size=4).to_pandas()
    assert "café résumé niño" in out.iloc[0]["text_extracted"]
    assert "�" not in out.iloc[0]["text_extracted"]


def test_partitioned_wave_output(ray_session, tmp_path, corpus):
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    pages, golden = corpus
    in_dir = str(tmp_path / "pin")
    os.makedirs(in_dir)
    pq.write_table(pages, os.path.join(in_dir, "part-0.parquet"))
    out_dir = str(tmp_path / "pout")
    run_extract(in_dir, out_dir, files_per_wave=1, partition_output=8)
    wave0 = os.path.join(out_dir, "wave=00000")
    parts = sorted(p for p in os.listdir(wave0) if p.startswith("part_id="))
    assert len(parts) >= 4  # hash partitioning spread urls over dirs
    urls = sorted(rd.read_parquet(wave0).to_pandas()["url"])
    assert urls == sorted(golden["url"].to_pylist())
    # the digest read back through the hive layout matches the
    # input-side scan, so a restart rewrites nothing
    before = _written(out_dir, 0)
    run_extract(in_dir, out_dir, files_per_wave=1, partition_output=8)
    assert _written(out_dir, 0) == before


def test_cross_wave_dedup(ray_session, tmp_path):
    """Duplicate urls split ACROSS wave boundaries: only the global
    max-warc_ts row may survive (regression: per-wave winner maps let
    both survive)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from pdf_to_text_ray.fixtures.htmlgen import make_html_page
    import random

    rng = random.Random(5)
    old_html, _ = make_html_page(rng)
    new_html, new_exp = make_html_page(rng)
    in_dir = str(tmp_path / "xin")
    os.makedirs(in_dir)
    # file 0 (wave 0): stale row; file 1 (wave 1): fresh row, same url
    pq.write_table(pa.table({
        "url": ["https://dup.test/x"], "warc_ts": pa.array([100], pa.timestamp("us")),
        "html": pa.array([old_html], pa.binary()),
        "text": pa.array([None], pa.string()), "lang": ["en"],
    }), os.path.join(in_dir, "part-0.parquet"))
    pq.write_table(pa.table({
        "url": ["https://dup.test/x"], "warc_ts": pa.array([200], pa.timestamp("us")),
        "html": pa.array([new_html], pa.binary()),
        "text": pa.array([None], pa.string()), "lang": ["en"],
    }), os.path.join(in_dir, "part-1.parquet"))

    out_dir = str(tmp_path / "xout")
    run_extract(in_dir, out_dir, files_per_wave=1)
    out = rd.read_parquet(out_dir).to_pandas()
    assert len(out) == 1                      # stale row never extracted
    assert out.iloc[0]["text_extracted"] == new_exp
    # wave 0 is fully deduped: it writes no file, records zero rows and
    # the empty digest, and a restart skips it
    m0 = mstate.load_manifests(out_dir)[0]
    assert m0["metrics"]["rows"] == 0
    assert m0["survivor_digest"] == "0000000000000000:0"
    path = mstate.manifest_path(out_dir, 0)
    st = os.stat(path)
    run_extract(in_dir, out_dir, files_per_wave=1)
    again = os.stat(path)
    assert (again.st_ino, again.st_mtime_ns) == (st.st_ino, st.st_mtime_ns)


def test_midwave_crash_no_duplicate_rows(ray_session, tmp_path, corpus,
                                         monkeypatch):
    """A crash DURING a wave's write leaves partial parquet in the wave
    dir with no manifest; the restart must not merge its own rows with
    the stale partial output (Ray parquet file names are unique per
    execution, so without cleanup the rows silently duplicate)."""
    import shutil

    import pyarrow.parquet as pq
    import ray.data as rd

    pages, golden = corpus
    in_dir = str(tmp_path / "in")
    out_dir = str(tmp_path / "out")
    os.makedirs(in_dir)
    n = pages.num_rows
    for s in range(2):
        pq.write_table(pages.slice(s * n // 2, (s + 1) * n // 2 - s * n // 2),
                       os.path.join(in_dir, f"part-{s}.parquet"))

    with monkeypatch.context() as m:
        _crash_at_manifest(m, 1)
        with pytest.raises(RuntimeError, match="crash before the manifest"):
            run_extract(in_dir, out_dir, files_per_wave=1)

    # simulate a crash mid-write of wave 1: partial parquet, no manifest
    w0 = mstate.wave_dir(out_dir, 0)
    w1 = mstate.wave_dir(out_dir, 1)
    os.makedirs(w1, exist_ok=True)
    src = next(f for f in os.listdir(w0) if f.endswith(".parquet"))
    shutil.copy(os.path.join(w0, src), os.path.join(w1, "stale-" + src))
    # and a crash between write and rename: a leftover temp dir
    os.makedirs(w1 + ".__tmp__", exist_ok=True)
    shutil.copy(os.path.join(w0, src), w1 + ".__tmp__/stale2-" + src)

    run_extract(in_dir, out_dir, files_per_wave=1)
    out_urls = sorted(
        rd.read_parquet(out_dir, columns=["url"]).to_pandas()["url"])
    assert out_urls == sorted(golden["url"].to_pylist())  # no dups/gaps


def test_cli_on_two_cpus(ray_session, tmp_path, corpus):
    """``python -m pdf_to_text_ray.run`` finishes on a 2-CPU local
    session of its own and keeps the rows an in-process run keeps. A
    stage whose workers are sized apart from the cluster could hold
    every CPU so that the read tasks feeding it never ran."""
    import json
    import signal
    import subprocess
    import sys

    import pyarrow.parquet as pq

    pages, _ = corpus
    in_dir = str(tmp_path / "in")
    os.makedirs(in_dir)
    pq.write_table(pages, os.path.join(in_dir, "part-0.parquet"))
    want = run_extract(in_dir, str(tmp_path / "out_lib"),
                       files_per_wave=1)["metrics"]["rows"]

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pdf_to_text_ray.run", "--in-dir", in_dir,
         "--out-dir", str(tmp_path / "out_cli"), "--cpus", "2"],
        cwd=root, env=dict(os.environ, PYTHONPATH=root),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the CLI and its Ray session
        proc.communicate()
        pytest.fail("CLI run on 2 CPUs did not finish in 120 s")
    assert proc.returncode == 0, err[-2000:]
    summary = json.loads(
        [ln for ln in out.splitlines() if ln.startswith("{")][-1])
    assert summary["metrics"]["rows"] == want


def test_one_dedup_path(tmp_path):
    """Dedup has one path: ``run_extract`` names any winners_mode but
    "broadcast" in its error, and the CLI has no option to pick one."""
    from pdf_to_text_ray.run import main

    with pytest.raises(ValueError, match="'bucketed'"):
        run_extract(str(tmp_path), str(tmp_path / "out"),
                    winners_mode="bucketed")
    with pytest.raises(SystemExit) as exit_:
        main(["--in-dir", str(tmp_path), "--out-dir", str(tmp_path / "out"),
              "--winners-mode", "bucketed"])
    assert exit_.value.code == 2


def test_sorted_output_rows_globally_ordered(ray_session, tmp_path, corpus):
    """sort_output=True: rows across a wave's output files, read in
    file order, are globally sorted by url (byte-stable diffable
    layout) — and the row set still exactly matches the goldens."""
    import pyarrow.parquet as pq
    import ray.data as rd

    pages, golden = corpus
    in_dir = str(tmp_path / "in")
    out_dir = str(tmp_path / "out")
    os.makedirs(in_dir)
    pq.write_table(pages, os.path.join(in_dir, "part-0.parquet"))
    run_extract(in_dir, out_dir, files_per_wave=1, sort_output=True)

    wdir = mstate.wave_dir(out_dir, 0)
    urls = []
    for f in sorted(os.listdir(wdir)):
        if f.endswith(".parquet"):
            urls.extend(pq.read_table(os.path.join(wdir, f),
                                      columns=["url"])["url"].to_pylist())
    assert urls == sorted(urls)
    assert sorted(urls) == sorted(golden["url"].to_pylist())


def test_incremental_append_shifts_waves_and_self_heals(ray_session,
                                                        tmp_path, corpus):
    """Incremental corpus growth: a file appended AFTER a completed run
    that sorts BEFORE the existing shards shifts every wave's
    membership. The lineage check (manifest input_files vs current
    composition) must reprocess the shifted waves — no dropped files,
    no double-processed rows."""
    import pyarrow.parquet as pq
    import ray.data as rd

    pages, golden = corpus
    in_dir = str(tmp_path / "in")
    out_dir = str(tmp_path / "out")
    os.makedirs(in_dir)
    n = pages.num_rows
    # hold back the first quarter; write the rest as shards m..z
    held = pages.slice(0, n // 4)
    rest = pages.slice(n // 4)
    m = rest.num_rows
    for s in range(3):
        lo = s * m // 3
        pq.write_table(rest.slice(lo, (s + 1) * m // 3 - lo),
                       os.path.join(in_dir, f"part-m{s}.parquet"))

    run_extract(in_dir, out_dir, files_per_wave=2)
    done_before = set(mstate.load_manifests(out_dir))

    # append the held shard under a name that SORTS FIRST
    pq.write_table(held, os.path.join(in_dir, "part-a0.parquet"))
    summary = run_extract(in_dir, out_dir, files_per_wave=2)

    out = rd.read_parquet(out_dir, columns=["url"]).to_pandas()
    assert sorted(out["url"]) == sorted(golden["url"].to_pylist())
    assert summary["metrics"]["rows"] == len(out)
    assert len(done_before) >= 1  # first run did complete waves


def test_incremental_append_newer_duplicate_demotes_old_winner(
        ray_session, tmp_path, corpus):
    """A file appended AFTER a completed run that sorts LAST (waves
    unshifted) carrying a NEWER warc_ts for an existing url must demote
    the already-written row: the survivor-digest lineage check reruns
    exactly the affected wave, so the url appears ONCE with the new
    timestamp."""
    import pyarrow.parquet as pq
    import ray.data as rd

    pages, golden = corpus
    in_dir = str(tmp_path / "in")
    out_dir = str(tmp_path / "out")
    os.makedirs(in_dir)
    n = pages.num_rows
    for s in range(2):
        lo = s * n // 2
        pq.write_table(pages.slice(lo, (s + 1) * n // 2 - lo),
                       os.path.join(in_dir, f"part-{s}.parquet"))
    run_extract(in_dir, out_dir, files_per_wave=1)

    # newer duplicate of the first wave's first url, in a last-sorting
    # file: wave composition is unchanged, only the winner set moves
    victim = pages.slice(0, 1).to_pydict()
    import pandas as pd
    dup = pages.slice(0, 1)
    tbl = dup.set_column(
        dup.schema.get_field_index("warc_ts"), "warc_ts",
        pa.array([pd.Timestamp(max(pages["warc_ts"].to_pylist()))
                  + pd.Timedelta(days=1)], type=dup.schema.field("warc_ts").type))
    pq.write_table(tbl, os.path.join(in_dir, "part-zzz.parquet"))

    run_extract(in_dir, out_dir, files_per_wave=1)
    out = rd.read_parquet(out_dir, columns=["url", "warc_ts"]).to_pandas()
    url = victim["url"][0]
    rows = out[out["url"] == url]
    assert len(rows) == 1, f"duplicate url rows after append: {len(rows)}"
    assert rows["warc_ts"].iloc[0] == tbl["warc_ts"][0].as_py()
    # no other url duplicated either
    assert out["url"].is_unique


def test_repointed_in_dir_same_basenames_reruns(ray_session, tmp_path):
    """Lineage must compare CONTENT signatures, not basenames: two
    different corpora whose shards share file names must not false-match
    a previous run's manifests (ADVICE r02 — the survivor digest only
    guards the dedup path, so this is tested with dedup OFF)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    pages_a, _ = make_pages_table(n_rows=40, seed=7)
    pages_b, golden_b = make_pages_table(n_rows=24, seed=99)
    out_dir = str(tmp_path / "out")
    for name, pages in (("a", pages_a), ("b", pages_b)):
        d = str(tmp_path / name)
        os.makedirs(d)
        pq.write_table(pages, os.path.join(d, "part-0.parquet"))

    run_extract(str(tmp_path / "a"), out_dir, files_per_wave=1, dedup=False)
    # re-point at corpus B — same basename, different content
    run_extract(str(tmp_path / "b"), out_dir, files_per_wave=1, dedup=False)
    out_urls = sorted(
        rd.read_parquet(out_dir, columns=["url"]).to_pandas()["url"])
    assert out_urls == sorted(pages_b["url"].to_pylist())


def test_pubsec_pdf_quarantines_with_distinct_error_kind(ray_session,
                                                         tmp_path):
    """A certificate-encrypted PDF (public-key handler, spec §7.6.4)
    cannot be decrypted without a recipient private key: it must
    quarantine CLEANLY under its own error_kind ('PdfPubSecError' —
    distinct from password-protected 'PdfEncryptedError'), never crash
    the wave, and never invent text."""
    import random

    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest
    import ray.data as rd

    from pdf_to_text_ray.fixtures.pdfgen import make_pdf
    from pdf_to_text_ray.pipelines.extract import (extract_pages,
                                                   quarantine_failures)
    from pdf_to_text_ray.stages.pdf_extract import (PdfEncryptedError,
                                                    PdfPubSecError,
                                                    extract_pdf_text)

    rng = random.Random(17)
    pub, _, _ = make_pdf(rng, n_pages=1, encrypt="pubsec")
    ok, ok_text, _ = make_pdf(random.Random(18), n_pages=1)

    # unit level: typed raise, subclass of the generic encrypted error
    with pytest.raises(PdfPubSecError):
        extract_pdf_text(pub)
    assert issubclass(PdfPubSecError, PdfEncryptedError)

    pages = pa.table({
        "url": ["https://cert.test/doc", "https://ok.test/doc"],
        "warc_ts": pa.array([1, 2], pa.int64()),
        "html": [pub, ok],
        "text": pa.array([None, None], pa.string()),
        "lang": ["en", "en"],
    })
    out = extract_pages(rd.from_arrow(pages)).to_pandas() \
        .set_index("url")
    assert out.loc["https://cert.test/doc", "parse_failure"]
    assert out.loc["https://cert.test/doc", "error_kind"] \
        == "PdfPubSecError"
    assert out.loc["https://cert.test/doc", "text_extracted"] == ""
    assert out.loc["https://ok.test/doc", "text_extracted"] == ok_text

    qdir = str(tmp_path / "q")
    n = quarantine_failures(extract_pages(rd.from_arrow(pages)), qdir)
    q = pq.read_table(qdir).to_pandas()
    assert n == 1 and q["error_kind"].tolist() == ["PdfPubSecError"]


def test_quarantine_failures_dead_letter(ray_session, tmp_path):
    """Failed parses carry their exception CLASS into a dead-letter
    parquet keyed by url; good rows never quarantine, and the
    quarantined urls can drive a reprocessing semi-join."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from pdf_to_text_ray.fixtures.htmlgen import make_html_page
    from pdf_to_text_ray.pipelines.extract import (extract_pages,
                                                   quarantine_failures)
    import random

    html, _expected = make_html_page(random.Random(3), lang="en")
    pages = pa.table({
        "url": ["https://ok.test/1", "https://bad.test/pdf",
                "https://bad.test/gzip"],
        "warc_ts": pa.array([1, 2, 3], pa.int64()),
        # a true-magic-bytes PDF whose body is garbage must FAIL (not
        # salvage to empty success), and a gzip header with a truncated
        # stream must fail during decompression
        "html": [html, b"%PDF-1.4 garbage without any xref",
                 b"\x1f\x8b\x08\x00trunc"],
        "text": pa.array([None, None, None], pa.string()),
        "lang": ["en", "en", "en"],
    })
    out = extract_pages(rd.from_arrow(pages)).to_pandas()
    assert not out.loc[out["url"] == "https://ok.test/1",
                       "parse_failure"].iloc[0]
    assert out.loc[out["url"] == "https://ok.test/1",
                   "error_kind"].isna().all()

    qdir = str(tmp_path / "quarantine")
    n = quarantine_failures(
        extract_pages(rd.from_arrow(pages)), qdir)
    q = pq.read_table(qdir).to_pandas().sort_values("url")
    assert n == len(q) == out["parse_failure"].sum()
    assert "https://ok.test/1" not in set(q["url"])
    # error kinds are concrete exception class names, present per row
    assert q["error_kind"].notna().all()
    assert (q["error_kind"].str.len() > 0).all()
