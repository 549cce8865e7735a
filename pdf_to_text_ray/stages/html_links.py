"""Hyperlink-graph and page-metadata extraction over parsed HTML.

The reference is a PDF-only converter (no link handling anywhere in
/root/reference/src/main.ts:133-263); this module belongs to the north
rule's web-scale tier: Common-Crawl-style pipelines materialize the
hyperlink graph (outlink edges, host-level summaries, PageRank inputs)
and per-page metadata (title, declared language, canonical URL)
alongside main-content text, from the SAME parse of the page.

Built on the in-repo forgiving HTML parser (``html_extract.parse_html``
— no bs4/lxml) plus the public stdlib ``urllib.parse`` for RFC 3986
reference resolution. All entry points are stateless pure functions →
they run inside ``map_batches`` tasks; one parse per page yields both
the edge rows and the metadata row.
"""

from __future__ import annotations

import html as _htmlmod
import zlib
from urllib.parse import urljoin, urlsplit, urlunsplit

import pyarrow as pa

from .html_extract import Element, _collapse, parse_html
from .sniff import DOC_TYPE_HTML, sniff_doc_type, unwrap_payload

# hrefs that are not navigable document references
_SKIP_SCHEMES = ("javascript:", "mailto:", "tel:", "data:", "about:")
# ancestors that mark a link as boilerplate navigation
_NAV_TAGS = {"nav", "header", "footer", "aside"}
_HEADING_TAGS = {"h1", "h2", "h3", "h4", "h5", "h6"}


def normalize_url(u: str) -> str | None:
    """Drop the fragment, lowercase scheme+host, default empty paths to
    "/". Returns None for non-http(s) results (the graph keeps only
    navigable document URLs)."""
    try:
        p = urlsplit(u)
    except ValueError:
        return None
    if p.scheme not in ("http", "https"):
        return None
    return urlunsplit((p.scheme.lower(), p.netloc.lower(),
                       p.path or "/", p.query, ""))


def resolve_href(base_url: str, href: str) -> str | None:
    """RFC 3986 reference resolution + normalization; None for
    fragment-only, scripted, and malformed refs."""
    href = href.strip()
    if not href or href.startswith("#"):
        return None
    low = href.lower()
    if any(low.startswith(s) for s in _SKIP_SCHEMES):
        return None
    try:
        return normalize_url(urljoin(base_url, href))
    except ValueError:
        return None


def host_of(url: str) -> str:
    try:
        return urlsplit(url).netloc.lower()
    except ValueError:
        return ""


def _subtree_text(el: Element) -> str:
    parts: list[str] = []

    def walk(node):
        for ch in node.children:
            if isinstance(ch, str):
                parts.append(ch)
            elif ch.tag not in ("script", "style", "template"):
                walk(ch)

    walk(el)
    return _collapse("".join(parts))


def iter_links(root: Element):
    """Yield (href, anchor_text, rel, is_nav) for every <a href> in
    document order. ``is_nav`` marks links under nav/header/footer/
    aside ancestors (boilerplate navigation vs in-content links)."""

    def walk(node: Element, in_nav: bool):
        for ch in node.children:
            if isinstance(ch, str):
                continue
            nav = in_nav or ch.tag in _NAV_TAGS
            if ch.tag == "a" and "href" in ch.attrs:
                yield (ch.attrs["href"], _subtree_text(ch),
                       ch.attrs.get("rel", ""), nav)
            yield from walk(ch, nav)

    yield from walk(root, False)


def extract_links(src: str, base_url: str) -> list[dict]:
    """Parse + resolve: one dict per kept outlink of the page."""
    out = []
    base_host = host_of(base_url)
    for href, anchor, rel, is_nav in iter_links(parse_html(src)):
        dst = resolve_href(base_url, href)
        if dst is None:
            continue
        out.append({
            "dst_url": dst,
            "anchor": anchor,
            "rel": rel,
            "is_nav": is_nav,
            "is_internal": host_of(dst) == base_host,
        })
    return out


def extract_page_meta(src: str) -> dict:
    """One metadata row per page from a single parse: <title> (rawtext
    child), <html lang>, <meta name=description>, <link rel=canonical>,
    heading/link/script counts."""
    root = parse_html(src)
    meta = {"title": "", "html_lang": "", "meta_description": "",
            "canonical": "", "n_links": 0, "n_headings": 0,
            "n_scripts": 0}

    def walk(node: Element):
        for ch in node.children:
            if isinstance(ch, str):
                continue
            tag = ch.tag
            if tag == "html" and not meta["html_lang"]:
                meta["html_lang"] = ch.attrs.get("lang", "")
            elif tag == "title" and not meta["title"]:
                # rawtext children are stored entity-raw by the
                # tokenizer; titles are text, so decode entities here
                meta["title"] = _collapse(_htmlmod.unescape("".join(
                    c for c in ch.children if isinstance(c, str))))
            elif tag == "meta":
                if (ch.attrs.get("name", "").lower() == "description"
                        and not meta["meta_description"]):
                    meta["meta_description"] = _collapse(
                        ch.attrs.get("content", ""))
            elif tag == "link":
                if ("canonical" in ch.attrs.get("rel", "").lower()
                        and not meta["canonical"]):
                    meta["canonical"] = ch.attrs.get("href", "")
            elif tag == "a" and "href" in ch.attrs:
                meta["n_links"] += 1
            elif tag in _HEADING_TAGS:
                meta["n_headings"] += 1
            elif tag == "script":
                meta["n_scripts"] += 1
            walk(ch)

    walk(root)
    return meta


def _decode_html(payload: bytes) -> str | None:
    """Payload → HTML source, or None for non-HTML rows (PDF, plain
    text) — the sniffer's routing, applied row-wise."""
    if payload is None:
        return None
    doc_type, is_gzip, is_http = sniff_doc_type(payload)
    if doc_type != DOC_TYPE_HTML:
        return None
    try:
        payload, hint = unwrap_payload(payload, is_gzip, is_http)
    except (OSError, EOFError, zlib.error):
        # truncated members raise EOFError, corrupt deflate
        # zlib.error — neither is an OSError subclass
        return None
    from .charset import decode_payload

    return decode_payload(payload, hint)


def links_batch(t: pa.Table, payload_col: str = "html") -> pa.Table:
    """Pages batch → exploded outlink edge rows (src_url, dst_url,
    anchor, rel, is_nav, is_internal). Non-HTML rows contribute no
    edges. flat_map-shaped: output row count is unrelated to input."""
    urls = t["url"].to_pylist()
    payloads = t[payload_col].to_pylist()
    cols = {"src_url": [], "dst_url": [], "anchor": [], "rel": [],
            "is_nav": [], "is_internal": []}
    for url, payload in zip(urls, payloads):
        src = _decode_html(payload)
        if src is None:
            continue
        try:
            edges = list(extract_links(src, url))
        except RecursionError:
            continue  # pathological nesting: skip the page, not the task
        for e in edges:
            cols["src_url"].append(url)
            cols["dst_url"].append(e["dst_url"])
            cols["anchor"].append(e["anchor"])
            cols["rel"].append(e["rel"])
            cols["is_nav"].append(e["is_nav"])
            cols["is_internal"].append(e["is_internal"])
    return pa.table({
        "src_url": pa.array(cols["src_url"], pa.string()),
        "dst_url": pa.array(cols["dst_url"], pa.string()),
        "anchor": pa.array(cols["anchor"], pa.string()),
        "rel": pa.array(cols["rel"], pa.string()),
        "is_nav": pa.array(cols["is_nav"], pa.bool_()),
        "is_internal": pa.array(cols["is_internal"], pa.bool_()),
    })


def page_meta_batch(t: pa.Table, payload_col: str = "html") -> pa.Table:
    """Pages batch → one metadata row per HTML page."""
    urls = t["url"].to_pylist()
    payloads = t[payload_col].to_pylist()
    rows = {"url": [], "title": [], "html_lang": [],
            "meta_description": [], "canonical": [], "n_links": [],
            "n_headings": [], "n_scripts": []}
    for url, payload in zip(urls, payloads):
        src = _decode_html(payload)
        if src is None:
            continue
        try:
            m = extract_page_meta(src)
        except RecursionError:
            continue  # pathological nesting: skip the page, not the task
        rows["url"].append(url)
        for k in ("title", "html_lang", "meta_description", "canonical"):
            rows[k].append(m[k])
        for k in ("n_links", "n_headings", "n_scripts"):
            rows[k].append(m[k])
    return pa.table({
        "url": pa.array(rows["url"], pa.string()),
        "title": pa.array(rows["title"], pa.string()),
        "html_lang": pa.array(rows["html_lang"], pa.string()),
        "meta_description": pa.array(rows["meta_description"], pa.string()),
        "canonical": pa.array(rows["canonical"], pa.string()),
        "n_links": pa.array(rows["n_links"], pa.int64()),
        "n_headings": pa.array(rows["n_headings"], pa.int64()),
        "n_scripts": pa.array(rows["n_scripts"], pa.int64()),
    })
