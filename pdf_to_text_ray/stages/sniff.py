"""Content sniffing / routing stage.

Generalizes the reference's extension→MIME switch (src/main.ts:277-280)
into the router the north rule requires: classify each row's payload
bytes as PDF (``%PDF-`` magic prefix), HTML (doctype / common tag within
the first 1 KiB), or plain text, and attach a ``doc_type`` column plus
the ``is_gzip``/``is_http`` flags the dispatch stage unwraps by.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from ..schemas import DOC_TYPE_HTML, DOC_TYPE_PDF, DOC_TYPE_TEXT

_HTML_HINT = re.compile(
    rb"<!doctype\s+html|<html[\s>]|<head[\s>]|<body[\s>]|<article[\s>]|"
    rb"<div[\s>]|<p[\s>]|<meta[\s>]|<title[\s>]|<h1[\s>]"
)


GZIP_MAGIC = b"\x1f\x8b"

# WARC `response` records store the FULL HTTP response: status line +
# headers + CRLFCRLF + entity body, where the body may additionally be
# Transfer-Encoding: chunked and/or Content-Encoding: gzip/deflate
# (RFC 9112 §6/§7). The reference never sees this (its input is an
# uploaded bare PDF, src/main.ts:136-148); a Common-Crawl-shaped
# pipeline must unwrap it or every framed row misroutes as text.
_HTTP_MAGIC = re.compile(rb"^HTTP/\d(?:\.\d)? +\d{3}")
_TE_CHUNKED = re.compile(rb"transfer-encoding:[ \t]*[^\r\n]*chunked")
_CE_HDR = re.compile(rb"content-encoding:[ \t]*([a-z0-9_-]+)")


def _bfind(buf, needle: bytes, start: int = 0) -> int:
    """bytes.find for any bytes-like object. memoryview has no .find;
    copying the whole payload to get one is exactly the hot-path
    memcpy this avoids. Searches in doubling windows, so only
    O(header) bytes are ever copied when the needle sits in the
    headers (the common case: the CRLFCRLF split)."""
    if isinstance(buf, (bytes, bytearray)):
        return buf.find(needle, start)
    n = len(needle)
    step = 8192
    pos = start
    size = len(buf)
    while pos < size:
        end = min(size, pos + step + n - 1)
        idx = bytes(buf[pos:end]).find(needle)
        if idx != -1:
            return pos + idx
        pos += step
        step = min(step * 2, 1 << 22)
    return -1


def _dechunk(body) -> bytes:
    """Decode HTTP/1.1 chunked transfer coding. TOLERANT: on a
    malformed chunk header the bytes decoded so far plus the raw
    remainder are returned (crawl payloads truncate mid-chunk
    constantly; a typed failure would quarantine salvageable text)."""
    out = bytearray()
    pos = 0
    while True:
        eol = _bfind(body, b"\r\n", pos)
        if eol == -1:
            return bytes(out) + bytes(body[pos:])
        size_field = bytes(body[pos:eol]).split(b";", 1)[0].strip()
        try:
            size = int(size_field, 16)
        except ValueError:
            return bytes(out) + bytes(body[pos:])
        if size == 0:
            return bytes(out)
        start = eol + 2
        out += body[start:start + size]
        pos = start + size + 2  # skip the chunk's trailing CRLF
        if start + size > len(body):
            return bytes(out)


def strip_http_envelope(payload, *, partial: bool = False):
    """HTTP response record → entity body: split headers at the first
    blank line (CRLF or bare LF), undo chunked transfer coding, undo
    gzip/deflate content coding. ``partial=True`` is the sniff path:
    the input is a prefix, so decompression accepts truncation and
    returns what it can. Decoding defects fall back to the raw body
    (tolerant by design — see _dechunk). Accepts any bytes-like object
    (the extract hot path hands zero-copy Arrow-buffer memoryviews)
    and copies only the header region; an unchunked uncompressed body
    comes back as a zero-copy slice of the input."""
    import zlib

    m = _bfind(payload, b"\r\n\r\n")
    sep = 4
    # a bare-LF blank line only wins if it comes BEFORE the CRLF one,
    # so bound the \n\n scan there — otherwise a CRLF-headed record
    # with a huge body would be scanned (and window-copied) in full
    m2 = _bfind(payload[:m] if m != -1 else payload, b"\n\n")
    if m == -1 or (m2 != -1 and m2 < m):
        m, sep = m2, 2
    if m == -1:
        # no blank line: header-only record (or truncated inside the
        # headers) — there is no entity body to extract
        return b""
    head = bytes(payload[:m]).lower()
    body = payload[m + sep:]
    if _TE_CHUNKED.search(head):
        body = _dechunk(body)
    ce = _CE_HDR.search(head)
    if ce and ce.group(1) in (b"gzip", b"x-gzip", b"deflate"):
        wbits = 31 if ce.group(1) != b"deflate" else 15
        try:
            if partial:
                body = zlib.decompressobj(wbits=wbits).decompress(
                    body, 8192)
            else:
                body = zlib.decompress(body, wbits=wbits)
        except zlib.error:
            if ce.group(1) == b"deflate":
                # raw-deflate variant (no zlib header) is common
                try:
                    body = zlib.decompressobj(wbits=-15).decompress(body)
                except zlib.error:
                    pass
    return body


_CT_CHARSET = re.compile(rb"content-type:[^\r\n]*;\s*charset="
                         rb"\"?([A-Za-z0-9._-]+)")


def http_charset(payload) -> str | None:
    """The HTTP header's charset= label (None if absent) — the
    transport-layer hint charset.resolve_charset slots between BOM
    and the in-document meta declaration. Callers pass the FRAMED
    payload (headers still on; any bytes-like object — only the
    header region is ever copied)."""
    m = _bfind(payload, b"\r\n\r\n")
    m2 = _bfind(payload[:m] if m != -1 else payload, b"\n\n")
    if m == -1 or (m2 != -1 and m2 < m):
        m = m2
    head = bytes(payload[:m if m != -1 else 2048]).lower()
    cm = _CT_CHARSET.search(head)
    return cm.group(1).decode("ascii", "ignore") if cm else None


def _gunzip_head(payload: bytes, n: int = 2048) -> bytes:
    """Decompress just enough of a gzip payload to sniff it."""
    import zlib

    try:
        d = zlib.decompressobj(wbits=31)
        return d.decompress(payload[: n * 4], n)
    except zlib.error:
        return b""


def sniff_doc_type(payload: bytes | None) -> tuple[str, bool, bool]:
    """→ (doc_type, is_gzip, is_http). Gzipped payloads (Common-Crawl
    WARC bodies are often stored compressed) are sniffed on a
    decompressed prefix; HTTP-framed payloads are sniffed on the
    unwrapped entity body. The dispatch stage re-applies both
    transforms to the full payload."""
    if not payload:
        return DOC_TYPE_TEXT, False, False
    is_gzip = payload[:2] == GZIP_MAGIC
    if is_gzip:
        payload = _gunzip_head(payload)
        if not payload:
            return DOC_TYPE_TEXT, True, False
    is_http = bool(_HTTP_MAGIC.match(payload[:16]))
    if is_http:
        payload = strip_http_envelope(payload, partial=True)
        if not payload:
            return DOC_TYPE_TEXT, is_gzip, True
    if payload[:5] == b"%PDF-":
        return DOC_TYPE_PDF, is_gzip, is_http
    head = payload[:1024].lower()
    # BOM'd UTF-16 bodies interleave NULs with the ASCII tag bytes —
    # transcode the prefix so the tag hints still match (the extractor
    # decodes the full payload via stages/charset BOM sniffing)
    if payload[:2] in (b"\xff\xfe", b"\xfe\xff"):
        enc = "utf-16-le" if payload[:2] == b"\xff\xfe" else "utf-16-be"
        head = (payload[2:1026].decode(enc, errors="replace")
                .encode("utf-8", errors="replace").lower())
    if _HTML_HINT.search(head):
        return DOC_TYPE_HTML, is_gzip, is_http
    return DOC_TYPE_TEXT, is_gzip, is_http


def sniff_batch(batch: pa.Table, payload_col: str = "html") -> pa.Table:
    """Append doc_type, is_gzip and is_http. The per-row work touches
    only an 8 KiB prefix slice (cheap vs payload size); payload bytes
    stay zero-copy in Arrow."""
    prefixes = pc.binary_slice(batch[payload_col], 0, 8192).to_pylist()
    sniffed = [sniff_doc_type(p) for p in prefixes]
    doc_type = pa.array([s_[0] for s_ in sniffed], pa.string())
    is_gzip = pa.array([s_[1] for s_ in sniffed], pa.bool_())
    is_http = pa.array([s_[2] for s_ in sniffed], pa.bool_())
    return (
        batch.append_column("doc_type", doc_type)
        .append_column("is_gzip", is_gzip)
        .append_column("is_http", is_http)
    )
