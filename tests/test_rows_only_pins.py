"""Value hashes of the 16 registry queries that have no DuckDB oracle
(extraction, link graph, media and artifact round trips), pinned at
sf0.001 with ``tools/check_oracles.value_hash``. Each hash held across
3 runs with the tables read in 1 block and in 8; the tests read them in
8 (the autouse fixture in conftest.py). A change that moves one of
these values must say why and re-pin it."""

from __future__ import annotations

import pytest

SF = "/root/testdata/sf0.001"

ROWS_ONLY_HASHES = {
    "anchor_text_index": "34377ada372b27a69295a375955cb469",
    "artifact_roundtrip": "8b7cf958d654508421c0d5f23806f18f",
    "block_quality": "892878205cf79c8013a322b41e94754f",
    "doc_compression_ratio": "efe2d1e0785046074955f09e605a8a68",
    "extract_corpus": "72851985bb5322f64bf01aa1b13ef26d",
    "extract_records": "9631ef51ba2e6e5032896c306e6af21b",
    "host_hits": "2fa4f0a0de08c669e5d72cf00eb31ef8",
    "host_link_summary": "4f8b29d21f4c9dc109b4773e828c0f20",
    "host_pagerank": "4a849e6cdeb0c7545af6622ae6d6a3df",
    "media_features": "c73dae796e67f5ac3f639db19c6390a2",
    "media_phash_neardup": "b7c969ae0fad6b5d2b534e2990400722",
    "media_thumbnails": "962c5d5e03adbfa7e44caa2c1768363b",
    "page_links": "20aedf7484350a1e08c011f3cf6ec730",
    "page_metadata": "6000f51ab7836c425b5951310224d70a",
    "quarantine_roundtrip": "b9decdc8ff50d144d12496e85fd42052",
    "video_frames": "4e7782285594b4f50b720f9224e8b41c",
}


def test_pins_cover_every_rows_only_query():
    from pdf_to_text_ray.pipelines import queries

    assert set(ROWS_ONLY_HASHES) == set(queries.QUERIES) - set(
        queries.ORACLE_SQL)


@pytest.mark.parametrize("name", sorted(ROWS_ONLY_HASHES))
def test_rows_only_value_hash(ray_session, name):
    from pdf_to_text_ray.pipelines import queries
    from tools.check_oracles import to_pandas, value_hash

    got = to_pandas(queries.QUERIES[name](SF))
    assert value_hash(got) == ROWS_ONLY_HASHES[name]
