"""From-scratch PDF → text extractor.

The reference delegates this to ``unpdf``/``pdfjs-dist``
(src/main.ts:148-154, package.json:8-9); we implement the parser from
public knowledge only (PDF 1.7 spec, ISO 32000-1):

- object layer: one token grammar (``_OBJ_RE``, one match per token:
  each match absorbs the whitespace before it) and one object
  parser (``parse_object_at``) for header, literal/hex strings, names
  with #xx, numbers, dicts, arrays, indirect references (spec §7.3);
  the xref, ObjStm and CMap readers and the content-stream
  interpreter match the same grammar
- cross-reference tables with /Prev chains            (spec §7.5.4)
- cross-reference streams /Type/XRef incl. PNG
  predictors (/DecodeParms /Predictor 10-15)          (spec §7.5.8)
- object streams /Type/ObjStm                         (spec §7.5.7)
- hybrid-reference files: table trailer /XRefStm →
  xref stream loaded before /Prev (stream entries reach
  the ObjStm members the table marks free)            (spec §7.5.8.4)
- stream filters: FlateDecode (zlib, output capped), ASCIIHex (spec §7.4)
- page-tree walk with cycle/depth guards              (spec §7.7.3)
- content-stream text interpreter, one ``finditer`` pass per stream:
  BT/ET, Tf, Td, TD, TL, T*, Tm, Tj, TJ, ', ", q/Q/cm, BI..EI skip
                                                      (spec §9.4)
- Form XObjects: ``name Do`` recurses into /Subtype/Form streams with
  the form /Matrix composed onto the CTM, own /Resources (parent
  fallback), depth-capped + cycle-guarded                (spec §8.10)
- broken-xref salvage: scan for "N G obj" markers (last occurrence
  wins, as incremental updates imply), recover the catalog — sets the
  ``fallback`` flag instead of crashing (unlike the reference's
  whole-request 500 at main.ts:259-262)

Positioned runs go through the frozen reading-order spec in
``reading_order.py``; pages are joined with "\\n" (parity with
main.ts:152-154).

Simple-font decoding (spec §9.6.6, §9.10.3): Latin-1 base overridden by
WinAnsiEncoding tables, /Differences glyph names (Adobe's full
glyph-name-to-Unicode algorithm: AGL subset + ``uniXXXX``/``uXXXX``
forms, ``.suffix`` strip, ``_`` ligatures), and ToUnicode CMaps
(bfchar/bfrange, multi-code-unit targets). Type3 glyph-procedure fonts
(spec §9.6.5) decode through the same /Differences + ToUnicode path
with /Widths scaled by /FontMatrix instead of the /1000 convention;
a Type3 font with no derivable text mapping degrades to
charcode-identity and counts the document as a fallback.

Composite Type0 fonts with Identity-H/V encoding decode 2-byte codes
through their ToUnicode CMap (spec §9.7.4). Writing mode 1 (Identity-V,
*-V predefined CMaps, embedded CMaps with /WMode 1) advances the pen
DOWN the page by the /DW2 default of one em per glyph (§9.7.4.3), so
vertical CJK columns come out top-to-bottom in reading order.

Encrypted documents with the EMPTY user password (the common web case;
the reference's pdf.js handles them via getDocumentProxy,
src/main.ts:149) are decrypted transparently: standard security
handler, RC4 40/128-bit, AES-128-CBC, and AES-256 V5/R6 (spec §7.6 +
ISO 32000-2 §7.6.4, stages/pdf_crypto).
``PdfEncryptedError`` is reserved for genuinely password-protected or
unsupported-revision documents.

Stream filters implemented: Flate (+PNG predictors), ASCIIHex, ASCII85,
RunLength, LZW, DCT (baseline JFIF via ``jpeg_codec``). Predefined
CMaps (spec §9.7.5.2): Uni*-UCS2/UTF16 families decode by identity;
charset-backed families (90ms/90msp/Add/Ext-RKSJ, GBK-EUC, GBK2K,
ETen-B5, KSCms-UHC, KSC/EUC, …) decode each code's bytes through the
matching stdlib codec (the Adobe-registry code→CID→Unicode chain lands
on the same assignments for those charsets; cp932 is the NEC/IBM
superset covering the Add/Ext variants exactly); remaining Mac print
variants (90pv/83pv-RKSJ, GBpc/B5pc) degrade and count as fallback. Known
limitations (documented, fail-safe): no JBIG2/JPX filters (image-only
codecs). Rows that hit these raise ``PdfError`` →
``parse_failure=True``.
"""

from __future__ import annotations

import re
import zlib
from typing import Any, NamedTuple

from .reading_order import Run, document_text

MAX_PAGE_TREE_DEPTH = 64
MAX_PAGES = 100_000
NOMINAL_GLYPH_WIDTH = 0.5  # em fraction used for the x-advance estimate
# Flate output cap per stream: a stream that would inflate past it (a
# decompression bomb) raises instead of exhausting the worker's memory
MAX_INFLATED_BYTES = 64 * 2**20


class PdfError(Exception):
    pass


class PdfEncryptedError(PdfError):
    """Encrypted documents are unsupported (no decryption keys in a
    batch pipeline); terminal — never falls back to salvage."""


class PdfPubSecError(PdfEncryptedError):
    """Certificate (public-key) security handler (spec §7.6.4) — its
    own exception class so quarantine's error_kind distinguishes
    'needs a recipient certificate' from 'password-protected'."""


class PdfStreamTooLargeError(PdfError):
    """A Flate stream inflates past ``MAX_INFLATED_BYTES``."""


class Ref(NamedTuple):
    num: int
    gen: int


class Name(str):
    """A PDF name object (distinct from a literal string)."""
    __slots__ = ()


class Stream:
    __slots__ = ("dict", "raw", "_doc", "obj_num", "gen")

    def __init__(self, d: dict, raw: bytes, doc: "PdfDocument | None",
                 obj_num: int | None = None, gen: int = 0):
        self.dict = d
        self.raw = raw
        self._doc = doc
        self.obj_num = obj_num
        self.gen = gen

    def data(self) -> bytes:
        raw = self.raw
        doc = self._doc
        # decrypt-before-filters (spec §7.6.2); cross-reference streams
        # are never encrypted (§7.5.8.2)
        if (doc is not None and getattr(doc, "decryptor", None) is not None
                and self.obj_num is not None
                and str(self.dict.get("Type", "")) != "XRef"):
            try:
                raw = doc.decryptor.decrypt_stream(raw, self.obj_num, self.gen)
            except Exception as e:  # corrupt ciphertext/padding → typed
                raise PdfError(f"stream decryption failed: {e}") from e
        return decode_stream(self.dict, raw, doc)


# ── tokenizer and object parser ───────────────────────────────────────

_WS = b"\x00\t\n\f\r "
_NAME_HEX_RE = re.compile(rb"#([0-9A-Fa-f]{2})")
_HEX_CLEAN = re.compile(rb"[\x00\t\n\f\r ]")
_ESCAPES = {0x6E: 10, 0x72: 13, 0x74: 9, 0x62: 8, 0x66: 12}


def _literal_string(data: bytes, pos: int) -> tuple[bytes, int]:
    """Decode a literal string whose opening '(' ends just before
    ``pos`` → (value, end_pos): escapes, octal codes, line
    continuations and balanced nested parentheses (spec §7.3.4.2)."""
    out = bytearray()
    depth = 1
    i = pos
    n = len(data)
    while i < n:
        c = data[i]
        if c == 0x5C:  # backslash
            i += 1
            if i >= n:
                break
            e = data[i]
            if e in b"nrtbf":
                out.append(_ESCAPES[e])
                i += 1
            elif e in b"()\\":
                out.append(e)
                i += 1
            elif 0x30 <= e <= 0x37:  # octal, 1-3 digits
                val = 0
                k = 0
                while k < 3 and i < n and 0x30 <= data[i] <= 0x37:
                    val = val * 8 + (data[i] - 0x30)
                    i += 1
                    k += 1
                out.append(val & 0xFF)
            elif e in b"\r\n":  # line continuation
                i += 1
                if e == 0x0D and i < n and data[i] == 0x0A:
                    i += 1
            else:
                out.append(e)
                i += 1
        elif c == 0x28:  # (
            depth += 1
            out.append(c)
            i += 1
        elif c == 0x29:  # )
            depth -= 1
            if depth == 0:
                i += 1
                break
            out.append(c)
            i += 1
        else:
            out.append(c)
            i += 1
    return bytes(out), i


# The one PDF token grammar (spec §7.2), shared by the object parser,
# the xref/ObjStm/CMap readers and the content-stream interpreter. Each
# match absorbs the whitespace before its token, so one match is one
# token; it matches at every position (the final ``.`` takes a stray
# byte), and unnamed matches (comments, stray bytes, trailing
# whitespace) carry no token.
_OBJ_RE = re.compile(
    rb"""[\x00\t\n\f\r ]*
      (?:%[^\r\n]*
      |(?P<num>[+-]?(?:\d+\.\d*|\.\d+|\d+))
      |(?P<name>/[^\x00\t\n\f\r ()<>\[\]{}/%]*)
      |(?P<sstr>\((?:[^()\\]*)\))
      |(?P<lstr>\()
      |(?P<dopen><<)
      |(?P<dclose>>>)
      |(?P<hexstr><[0-9A-Fa-f\x00\t\n\f\r ]*>)
      |(?P<aopen>\[)
      |(?P<aclose>\])
      |(?P<kw>[^\x00\t\n\f\r ()<>\[\]{}/%]+)
      |.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _next_token(data: bytes, pos: int):
    """The first ``_OBJ_RE`` token match at or after ``pos``, or None
    at the end of ``data``."""
    n = len(data)
    while pos < n:
        m = _OBJ_RE.match(data, pos)
        if m.lastgroup is not None:
            return m
        pos = m.end()
    return None


def _num(m) -> int | float:
    s = m.group("num")
    return float(s) if b"." in s else int(s)


def parse_object_at(data: bytes, pos: int) -> tuple[Any, int]:
    """Single-pass iterative parser for ONE object value (dict, array,
    string, name, number, bool, null or indirect reference) starting at
    ``pos`` → (value, end_pos), with no per-token allocation. Indirect
    refs: two ints followed by the ``R`` keyword collapse on the fly.
    Lenient on malformed input: a stray ``R`` is dropped, and a dict
    key with no value or a non-name key is skipped."""
    n = len(data)
    # container stack: list → plain list; dict under construction → list
    # of alternating keys/values flattened at close
    stack: list[tuple[str, list]] = []
    current_kind = ""
    current: list = []
    result_holder: list = []

    def emit(v) -> bool:
        """Append a completed value; True when the top-level value is
        done."""
        if current_kind:
            current.append(v)
            return False
        result_holder.append(v)
        return True

    while pos < n:
        m = _OBJ_RE.match(data, pos)
        pos = m.end()
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "num":
            v = _num(m)
            if current_kind:
                current.append(v)
                continue
            # a bare top-level integer may be "num gen R"
            m2 = _next_token(data, pos) if isinstance(v, int) else None
            if m2 is not None and m2.lastgroup == "num" and b"." not in m2.group("num"):
                m3 = _next_token(data, m2.end())
                if m3 is not None and m3.lastgroup == "kw" and m3.group("kw") == b"R":
                    return Ref(v, int(m2.group("num"))), m3.end()
            return v, pos
        if kind == "name":
            raw = m.group("name")[1:]
            if b"#" in raw:
                raw = _NAME_HEX_RE.sub(lambda g: bytes([int(g.group(1), 16)]), raw)
            if emit(Name(raw.decode("latin-1"))):
                return result_holder[0], pos
            continue
        if kind == "sstr":
            if emit(m.group("sstr")[1:-1]):
                return result_holder[0], pos
            continue
        if kind == "lstr":
            v, pos = _literal_string(data, pos)
            if emit(v):
                return result_holder[0], pos
            continue
        if kind == "hexstr":
            h = _HEX_CLEAN.sub(b"", m.group("hexstr")[1:-1])
            if len(h) % 2:
                h += b"0"
            if emit(bytes.fromhex(h.decode("ascii"))):
                return result_holder[0], pos
            continue
        if kind == "aopen":
            stack.append((current_kind, current))
            current_kind, current = "a", []
            continue
        if kind == "dopen":
            stack.append((current_kind, current))
            current_kind, current = "d", []
            continue
        if kind in ("aclose", "dclose"):
            if not stack:
                raise PdfError("unbalanced container")
            # collapse trailing "int int R" triples produced inline
            items = _collapse_refs(current)
            if kind == "dclose":
                d: dict[str, Any] = {}
                i = 0
                while i + 1 < len(items):
                    k = items[i]
                    if isinstance(k, Name) or isinstance(k, str):
                        d[str(k)] = items[i + 1]
                        i += 2
                    else:
                        i += 1
                v: Any = d
            else:
                v = items
            current_kind, current = stack.pop()
            if emit(v):
                return result_holder[0], pos
            continue
        kw = m.group("kw")
        if kw == b"R" and current_kind:
            current.append(_R_MARK)
            continue
        if kw == b"true":
            if emit(True):
                return result_holder[0], pos
            continue
        if kw == b"false":
            if emit(False):
                return result_holder[0], pos
            continue
        if kw == b"null":
            if emit(None):
                return result_holder[0], pos
            continue
        raise PdfError(f"unexpected keyword {kw!r} in object")
    raise PdfError("unexpected EOF in object")


class _RMark:
    __slots__ = ()


_R_MARK = _RMark()


def _collapse_refs(items: list) -> list:
    """Fold [..., int, int, _R_MARK, ...] runs into Ref objects."""
    if _R_MARK not in items:
        return items
    out: list = []
    i = 0
    n = len(items)
    while i < n:
        if (
            i + 2 < n
            and items[i + 2] is _R_MARK
            and isinstance(items[i], int) and not isinstance(items[i], bool)
            and isinstance(items[i + 1], int) and not isinstance(items[i + 1], bool)
        ):
            out.append(Ref(items[i], items[i + 1]))
            i += 3
        elif items[i] is _R_MARK:
            i += 1  # stray R: drop
        else:
            out.append(items[i])
            i += 1
    return out


# ── stream filters ────────────────────────────────────────────────────

def _png_predictor(data: bytes, columns: int, colors: int = 1, bpc: int = 8) -> bytes:
    bpp = max(1, (colors * bpc) // 8)
    rowlen = (columns * colors * bpc + 7) // 8
    out = bytearray()
    prev = bytes(rowlen)
    i = 0
    n = len(data)
    while i + 1 <= n:
        ft = data[i]
        row = bytearray(data[i + 1 : i + 1 + rowlen])
        if len(row) < rowlen:
            row.extend(bytes(rowlen - len(row)))
        i += 1 + rowlen
        if ft == 1:  # Sub
            for j in range(bpp, rowlen):
                row[j] = (row[j] + row[j - bpp]) & 0xFF
        elif ft == 2:  # Up
            for j in range(rowlen):
                row[j] = (row[j] + prev[j]) & 0xFF
        elif ft == 3:  # Average
            for j in range(rowlen):
                left = row[j - bpp] if j >= bpp else 0
                row[j] = (row[j] + ((left + prev[j]) >> 1)) & 0xFF
        elif ft == 4:  # Paeth
            for j in range(rowlen):
                a = row[j - bpp] if j >= bpp else 0
                b = prev[j]
                c = prev[j - bpp] if j >= bpp else 0
                p = a + b - c
                pa, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc_) else (b if pb <= pc_ else c)
                row[j] = (row[j] + pred) & 0xFF
        elif ft != 0:
            raise PdfError(f"bad PNG predictor filter type {ft}")
        out += row
        prev = bytes(row)
    return bytes(out)


def _ascii85_decode(data: bytes) -> bytes:
    """ASCII85Decode (spec §7.4.3): base-85 groups, 'z' shorthand for
    four zero bytes, '~>' EOD marker, whitespace ignored."""
    import base64

    s = _HEX_CLEAN.sub(b"", data)
    if s.startswith(b"<~"):
        s = s[2:]
    end = s.find(b"~>")
    if end != -1:
        s = s[:end]
    try:
        return base64.a85decode(s, adobe=False)
    except ValueError as e:
        raise PdfError(f"ASCII85Decode failed: {e}") from e


def _runlength_decode(data: bytes) -> bytes:
    """RunLengthDecode (spec §7.4.5): length byte 0-127 → copy L+1
    literal bytes; 129-255 → repeat next byte 257-L times; 128 → EOD."""
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        l = data[i]
        if l == 128:
            break
        if l < 128:
            out += data[i + 1 : i + 2 + l]
            i += 2 + l
        else:
            if i + 1 >= n:
                raise PdfError("truncated RunLength stream")
            out += bytes([data[i + 1]]) * (257 - l)
            i += 2
    return bytes(out)


def _lzw_decode(data: bytes, early_change: int = 1) -> bytes:
    """LZWDecode (spec §7.4.4): MSB-first variable-width codes 9→12
    bits, clear=256, EOD=257; ``EarlyChange`` (default 1) widens the
    code size one code early — the TIFF/PDF convention."""
    out = bytearray()
    table: list[bytes] = [bytes([i]) for i in range(256)] + [b"", b""]
    width = 9
    prev: bytes | None = None
    acc = 0
    nbits = 0
    for byte in data:
        acc = (acc << 8) | byte
        nbits += 8
        while nbits >= width:
            nbits -= width
            code = (acc >> nbits) & ((1 << width) - 1)
            if code == 256:  # clear table
                table = table[:258]
                width = 9
                prev = None
                continue
            if code == 257:  # EOD
                return bytes(out)
            if prev is None:
                if code > 255:
                    raise PdfError("LZW: first code not a literal")
                entry = table[code]
            elif code < len(table):
                entry = table[code]
                table.append(prev + entry[:1])
            elif code == len(table):  # KwKwK case
                entry = prev + prev[:1]
                table.append(entry)
            else:
                raise PdfError("LZW: code out of range")
            out += entry
            prev = entry
            if len(table) + early_change >= (1 << width) and width < 12:
                width += 1
    return bytes(out)


def decode_stream(d: dict, raw: bytes, doc: "PdfDocument | None" = None) -> bytes:
    def res(v):
        return doc.resolve(v) if doc is not None else v

    filters = res(d.get("Filter"))
    if filters is None:
        return raw
    if not isinstance(filters, list):
        filters = [filters]
    parms = res(d.get("DecodeParms") or d.get("DP"))
    if not isinstance(parms, list):
        parms = [parms] * len(filters)
    data = raw
    for filt, parm in zip(filters, parms):
        filt = str(res(filt))
        parm = res(parm) or {}
        if filt in ("FlateDecode", "Fl"):
            # a decompressobj also salvages truncated/over-padded streams
            try:
                data = zlib.decompressobj().decompress(data, MAX_INFLATED_BYTES + 1)
            except zlib.error as e:
                raise PdfError(f"FlateDecode failed: {e}") from e
            if len(data) > MAX_INFLATED_BYTES:
                raise PdfStreamTooLargeError(
                    f"FlateDecode output exceeds {MAX_INFLATED_BYTES} bytes")
        elif filt in ("ASCIIHexDecode", "AHx"):
            h = _HEX_CLEAN.sub(b"", data.rstrip(b">"))
            if len(h) % 2:
                h += b"0"
            data = bytes.fromhex(h.decode("ascii", errors="ignore"))
        elif filt in ("ASCII85Decode", "A85"):
            data = _ascii85_decode(data)
        elif filt in ("RunLengthDecode", "RL"):
            data = _runlength_decode(data)
        elif filt in ("LZWDecode", "LZW"):
            early = int(res(parm.get("EarlyChange", 1))) if isinstance(parm, dict) else 1
            data = _lzw_decode(data, early_change=early)
        elif filt in ("DCTDecode", "DCT"):
            # image samples (spec §7.4.8): baseline JFIF → raw
            # interleaved component bytes. Only image XObjects carry
            # this filter; text extraction never consumes the pixels,
            # but thumbnails/embedded-file consumers can.
            from .jpeg_codec import UnsupportedJpegError, decode_jpeg
            try:
                data = decode_jpeg(data).tobytes()
            except UnsupportedJpegError as e:
                raise PdfError(f"DCTDecode: {e}") from e
        else:
            raise PdfError(f"unsupported filter {filt}")
        pred = res(parm.get("Predictor", 1)) if isinstance(parm, dict) else 1
        if pred and pred >= 10:
            data = _png_predictor(
                data,
                int(res(parm.get("Columns", 1))),
                int(res(parm.get("Colors", 1))),
                int(res(parm.get("BitsPerComponent", 8))),
            )
        elif pred and pred == 2:
            raise PdfError("TIFF predictor unsupported")
    return data


# ── document / xref ───────────────────────────────────────────────────

_OBJ_HEAD_RE = re.compile(rb"(\d+)[\x00\t\n\f\r ]+(\d+)[\x00\t\n\f\r ]+obj\b")
# the trailer keys the salvage scan recovers
_SALVAGE_KEYS = ("Root", "Encrypt", "ID")
_SALVAGE_KEY_RE = re.compile(
    rb"/(Root|Encrypt|ID)(?![^\x00\t\n\f\r ()<>\[\]{}/%])")
_XREF_ENT_RE = re.compile(rb"(\d{10})[ ]?(\d{5})[ ]?([nf])")
_STARTXREF_RE = re.compile(rb"startxref[\x00\t\n\f\r ]+(\d+)")


def _objstm_pairs(data: bytes, n: int) -> list[tuple]:
    """The (object number, offset) pairs heading an object stream
    (spec §7.5.7): up to ``n``, stopping at the first malformed pair."""
    pairs = []
    pos = 0
    for _ in range(n):
        m1 = _next_token(data, pos)
        m2 = _next_token(data, m1.end()) if m1 is not None else None
        if m2 is None or m1.lastgroup != "num" or m2.lastgroup != "num":
            break
        pairs.append((_num(m1), _num(m2)))
        pos = m2.end()
    return pairs


class PdfDocument:
    def __init__(self, data: bytes):
        if data[:5] != b"%PDF-":
            raise PdfError("missing %PDF- header")
        self.data = data
        # objnum -> ("i", offset) | ("s", objstm_num, idx_in_stream)
        self.xref: dict[int, tuple] = {}
        self.trailer: dict[str, Any] = {}
        self.cache: dict[int, Any] = {}
        self.fallback = False
        self.decryptor = None
        try:
            self._load_xref()
            self._setup_encryption()
            if "Root" not in self.trailer:
                raise PdfError("no /Root in trailer")
            # validate the catalog is actually reachable
            root = self.resolve(self.trailer["Root"])
            if not isinstance(root, dict) or "Pages" not in root:
                raise PdfError("invalid catalog")
        except PdfEncryptedError:
            raise
        except PdfError:
            self._salvage()
            if "Encrypt" in self.trailer and self.decryptor is None:
                self._setup_encryption()

    def _setup_encryption(self) -> None:
        """Build the standard security handler (empty user password)
        from the trailer /Encrypt dict — spec §7.6. pdf.js does this
        transparently for the reference (src/main.ts:149); here it
        gates stream/string decryption in Stream.data() and
        _parse_indirect_at. Password-protected or unsupported documents
        raise terminal PdfEncryptedError."""
        enc_ref = self.trailer.get("Encrypt")
        if enc_ref is None:
            return
        from . import pdf_crypto

        enc = self.resolve(enc_ref)
        if not isinstance(enc, dict):
            raise PdfEncryptedError("malformed /Encrypt dictionary")
        enc = {str(k): self.resolve(v) for k, v in enc.items()}
        if isinstance(enc.get("CF"), dict):
            enc["CF"] = {str(k): self.resolve(v) for k, v in enc["CF"].items()}
        ids = self.resolve(self.trailer.get("ID"))
        fid = b""
        if isinstance(ids, list) and ids:
            first = self.resolve(ids[0])
            if isinstance(first, bytes):
                fid = first
        try:
            self.decryptor = pdf_crypto.StandardSecurityHandler(enc, fid)
        except pdf_crypto.PdfEncryptedError as e:
            # preserve the certificate-handler subclass so quarantine's
            # error_kind (the class name) stays distinct
            cls = (PdfPubSecError
                   if isinstance(e, pdf_crypto.PdfPubSecError)
                   else PdfEncryptedError)
            raise cls(str(e)) from e

    def _decrypt_strings(self, value: Any, num: int, gen: int) -> Any:
        """Recursively decrypt literal/hex strings of a DIRECT object
        (strings inside ObjStm-packed objects are not separately
        encrypted — the object stream itself was, §7.6.2)."""
        if isinstance(value, bytes):
            try:
                return self.decryptor.decrypt_string(value, num, gen)
            except Exception as e:
                raise PdfError(f"string decryption failed: {e}") from e
        if isinstance(value, list):
            return [self._decrypt_strings(v, num, gen) for v in value]
        if isinstance(value, dict):
            return {k: self._decrypt_strings(v, num, gen)
                    for k, v in value.items()}
        return value

    # -- normal path ---------------------------------------------------
    def _load_xref(self) -> None:
        tail = self.data[-2048:]
        matches = list(_STARTXREF_RE.finditer(tail))
        if not matches:
            raise PdfError("no startxref")
        offset = int(matches[-1].group(1))
        seen = set()
        while offset is not None and offset not in seen:
            seen.add(offset)
            if offset < 0 or offset >= len(self.data):
                raise PdfError("startxref offset out of range")
            offset = self._load_xref_section(offset)

    def _load_xref_section(self, offset: int) -> int | None:
        data = self.data
        i = offset
        while i < len(data) and data[i] in _WS:
            i += 1
        if data[i : i + 4] == b"xref":
            return self._load_xref_table(i + 4)
        return self._load_xref_stream(i)

    def _load_xref_table(self, pos: int) -> int | None:
        data = self.data
        while True:
            m = _next_token(data, pos)
            if m is None:
                raise PdfError("truncated xref table")
            if m.lastgroup == "kw" and m.group("kw") == b"trailer":
                trailer = parse_object_at(data, m.end())[0]
                if not isinstance(trailer, dict):
                    raise PdfError("bad trailer")
                for k, v in trailer.items():
                    self.trailer.setdefault(k, v)
                xrs = trailer.get("XRefStm")
                if xrs is not None:
                    # hybrid-reference file (spec §7.5.8.4): objects
                    # living in object streams are marked free in (or
                    # absent from) the table section and described
                    # only by this xref STREAM; load it before walking
                    # /Prev so the hybrid section is complete. Its own
                    # /Prev is ignored per spec — the table trailer's
                    # /Prev drives the chain.
                    try:
                        self._load_xref_stream(int(xrs))
                    except (PdfError, TypeError, ValueError):
                        pass  # degrade to the table view of the file
                prev = trailer.get("Prev")
                return int(prev) if prev is not None else None
            if m.lastgroup != "num":
                raise PdfError("bad xref section header")
            start = _num(m)
            m = _next_token(data, m.end())
            if m is None or m.lastgroup != "num":
                raise PdfError("bad xref section count")
            count = _num(m)
            pos = m.end()
            # entries are fixed-width; parse them directly
            while pos < len(data) and data[pos] in _WS:
                pos += 1
            for k in range(count):
                m = _XREF_ENT_RE.match(data, pos)
                if not m:
                    raise PdfError("bad xref entry")
                off, gen, typ = int(m.group(1)), int(m.group(2)), m.group(3)
                num = start + k
                if typ == b"n" and num not in self.xref:
                    self.xref[num] = ("i", off)
                pos = m.end()
                while pos < len(data) and data[pos] in _WS:
                    pos += 1

    def _load_xref_stream(self, pos: int) -> int | None:
        obj = self._parse_indirect_at(pos, resolve_length=False)
        if not isinstance(obj, Stream):
            raise PdfError("xref offset points at a non-stream object")
        d = obj.dict
        if str(d.get("Type", "")) != "XRef":
            raise PdfError("expected /Type /XRef")
        data = obj.data()
        w = [int(x) for x in d["W"]]
        if len(w) != 3:
            raise PdfError("bad /W")
        size = int(d["Size"])
        index = d.get("Index", [0, size])
        index = [int(x) for x in index]
        rowlen = sum(w)
        pos2 = 0
        for s in range(0, len(index), 2):
            start, count = index[s], index[s + 1]
            for k in range(count):
                if pos2 + rowlen > len(data):
                    raise PdfError("truncated xref stream")
                row = data[pos2 : pos2 + rowlen]
                pos2 += rowlen
                fields = []
                o = 0
                for width in w:
                    fields.append(int.from_bytes(row[o : o + width], "big") if width else None)
                    o += width
                t = fields[0] if w[0] else 1
                num = start + k
                if num in self.xref:
                    continue
                if t == 1:
                    self.xref[num] = ("i", fields[1])
                elif t == 2:
                    self.xref[num] = ("s", fields[1], fields[2])
        for k, v in d.items():
            if k not in ("Type", "W", "Index", "Length", "Filter", "DecodeParms"):
                self.trailer.setdefault(k, v)
        prev = d.get("Prev")
        return int(prev) if prev is not None else None

    # -- salvage path --------------------------------------------------
    def _salvage(self) -> None:
        """Broken-xref recovery: scan for `N G obj` markers (pdf.js-style
        recovery); the LAST occurrence of an object number wins, matching
        incremental-update semantics."""
        self.fallback = True
        self.xref.clear()
        self.cache.clear()
        for m in _OBJ_HEAD_RE.finditer(self.data):
            self.xref[int(m.group(1))] = ("i", m.start())
        if not self.xref:
            raise PdfError("no objects found in salvage scan")
        # index object-stream members (a catalog may be compressed into an
        # /ObjStm) and pick up /Root, /Encrypt and /ID from any xref-stream
        # dict found
        from_xrefstm: dict[str, Any] = {}
        for num in sorted(self.xref):
            try:
                obj = self.get_object(num)
            except PdfError:
                continue
            if not isinstance(obj, Stream):
                continue
            typ = str(obj.dict.get("Type", ""))
            if typ == "XRef":
                from_xrefstm.update((k, obj.dict[k]) for k in _SALVAGE_KEYS
                                    if k in obj.dict)
            elif typ == "ObjStm":
                try:
                    data = obj.data()
                    n = int(self.resolve(obj.dict["N"]))
                    for idx, (onum, _) in enumerate(_objstm_pairs(data, n)):
                        if onum not in self.xref:
                            self.xref[onum] = ("s", num, idx)
                except PdfError:
                    continue
        # the catalog: intact trailer /Root, else xref-stream /Root, else
        # the last trailer's, else scan every recovered object. Only a Ref
        # counts as a /Root: one of another kind is what failed the normal
        # load. /Encrypt and /ID come from the same sources, so that a
        # damaged encrypted document still gets its decryptor
        tail = self._last_trailer()
        root_ref = next((r for r in (self.trailer.get("Root"),
                                     from_xrefstm.get("Root"),
                                     tail.get("Root"))
                         if isinstance(r, Ref)), None)
        for k in ("Encrypt", "ID"):
            v = from_xrefstm.get(k, tail.get(k))
            if v is not None:
                self.trailer.setdefault(k, v)
        if root_ref is None:
            for num in sorted(self.xref):
                try:
                    obj = self.get_object(num)
                except PdfError:
                    continue
                if isinstance(obj, dict) and str(obj.get("Type", "")) == "Catalog":
                    root_ref = Ref(num, 0)
                    break
        if root_ref is None:
            raise PdfError("catalog not found in salvage scan")
        self.trailer["Root"] = root_ref

    def _last_trailer(self) -> dict[str, Any]:
        """The last ``trailer`` dict, or, when it does not parse as one,
        each of /Root, /Encrypt and /ID whose value still parses."""
        t = self.data.rfind(b"trailer")
        if t == -1:
            return {}
        try:
            trailer = parse_object_at(self.data, t + 7)[0]
            if isinstance(trailer, dict):
                return trailer
        except PdfError:
            pass
        found: dict[str, Any] = {}
        for m in _SALVAGE_KEY_RE.finditer(self.data, t):
            try:
                found.setdefault(m.group(1).decode(),
                                 parse_object_at(self.data, m.end())[0])
            except PdfError:
                continue
        return found

    # -- object access -------------------------------------------------
    def resolve(self, v: Any, depth: int = 0) -> Any:
        while isinstance(v, Ref):
            if depth > 32:
                raise PdfError("reference chain too deep")
            v = self.get_object(v.num)
            depth += 1
        return v

    def get_object(self, num: int) -> Any:
        if num in self.cache:
            return self.cache[num]
        ent = self.xref.get(num)
        if ent is None:
            return None
        self.cache[num] = None  # break cycles
        if ent[0] == "i":
            obj = self._parse_indirect_at(ent[1], expect_num=num)
        else:
            obj = self._objstm_object(ent[1], ent[2])
        self.cache[num] = obj
        return obj

    def _parse_indirect_at(self, offset: int, expect_num: int | None = None,
                           resolve_length: bool = True) -> Any:
        data = self.data
        m = _OBJ_HEAD_RE.match(data, offset) or _OBJ_HEAD_RE.search(
            data, offset, offset + 64)
        if not m:
            raise PdfError(f"no object header at offset {offset}")
        if expect_num is not None and int(m.group(1)) != expect_num:
            raise PdfError(
                f"xref points {expect_num} at object {m.group(1).decode()}")
        obj_num, obj_gen = int(m.group(1)), int(m.group(2))
        value, end_pos = parse_object_at(data, m.end())
        # stream?
        p0 = end_pos
        while p0 < len(data) and data[p0] in _WS:
            p0 += 1
        if data[p0 : p0 + 6] == b"stream":
            if not isinstance(value, dict):
                raise PdfError("stream without dict")
            p = p0 + 6
            if data[p : p + 2] == b"\r\n":
                p += 2
            elif data[p : p + 1] == b"\n":
                p += 1
            length = value.get("Length")
            if isinstance(length, Ref) and resolve_length:
                length = self.resolve(length)
            if isinstance(length, int) and 0 <= length <= len(data) - p:
                raw = data[p : p + length]
                # verify endstream follows (lenient re-sync otherwise)
                q = p + length
                while q < len(data) and data[q] in _WS:
                    q += 1
                if data[q : q + 9] != b"endstream":
                    end = data.find(b"endstream", p)
                    if end == -1:
                        raise PdfError("unterminated stream")
                    raw = data[p:end].rstrip(b"\r\n")
            else:
                end = data.find(b"endstream", p)
                if end == -1:
                    raise PdfError("unterminated stream")
                raw = data[p:end].rstrip(b"\r\n")
            return Stream(value, raw, self, obj_num=obj_num, gen=obj_gen)
        if self.decryptor is not None:
            value = self._decrypt_strings(value, obj_num, obj_gen)
        return value

    def _objstm_object(self, stm_num: int, idx: int) -> Any:
        stm = self.get_object(stm_num)
        if not isinstance(stm, Stream) or str(stm.dict.get("Type", "")) != "ObjStm":
            raise PdfError(f"object {stm_num} is not an ObjStm")
        data = stm.data()
        n = int(self.resolve(stm.dict["N"]))
        first = int(self.resolve(stm.dict["First"]))
        pairs = _objstm_pairs(data, n)
        if len(pairs) < n:
            raise PdfError("bad ObjStm header")
        if idx >= len(pairs):
            raise PdfError("ObjStm index out of range")
        off = first + pairs[idx][1]
        return parse_object_at(data, off)[0]

    # -- page tree -----------------------------------------------------
    def pages(self) -> list[dict]:
        root = self.resolve(self.trailer["Root"])
        if not isinstance(root, dict):
            raise PdfError("bad catalog")
        pages_ref = root.get("Pages")
        if pages_ref is None:
            raise PdfError("catalog has no /Pages")
        out: list[dict] = []
        seen: set[int] = set()

        def walk(node_ref, depth: int, inherited_res):
            if depth > MAX_PAGE_TREE_DEPTH or len(out) > MAX_PAGES:
                raise PdfError("page tree too deep/large")
            if isinstance(node_ref, Ref):
                if node_ref.num in seen:
                    return
                seen.add(node_ref.num)
            node = self.resolve(node_ref)
            if not isinstance(node, dict):
                return
            res = node.get("Resources", inherited_res)  # spec §7.7.3.4 inheritance
            if "Kids" in node and str(node.get("Type", "Pages")) != "Page":
                for kid in self.resolve(node["Kids"]) or []:
                    walk(kid, depth + 1, res)
            else:
                if "Resources" not in node and res is not None:
                    node = dict(node)
                    node["Resources"] = res
                out.append(node)

        walk(pages_ref, 0, None)
        if not out:
            raise PdfError("no pages")
        return out

    def page_fonts(self, page: dict) -> dict:
        """Font-name → FontDecoder for a page's /Resources /Font dict
        (decoders cached per font object)."""
        try:
            res = self.resolve(page.get("Resources"))
        except PdfError:
            return {}
        return self._fonts_from_resources(res)

    def _fonts_from_resources(self, res) -> dict:
        fonts: dict[str, FontDecoder] = {}
        try:
            if not isinstance(res, dict):
                return fonts
            fdict = self.resolve(res.get("Font"))
            if not isinstance(fdict, dict):
                return fonts
            for name, fref in fdict.items():
                cache_key = ("font", fref.num) if isinstance(fref, Ref) else None
                if cache_key is not None and cache_key in self.cache:
                    fonts[name] = self.cache[cache_key]
                    continue
                fobj = self.resolve(fref)
                if isinstance(fobj, dict):
                    dec = build_font_decoder(self, fobj)
                    fonts[name] = dec
                    if cache_key is not None:
                        self.cache[cache_key] = dec
        except PdfError:
            pass  # fonts are best-effort; Latin-1 fallback applies
        return fonts

    def page_xobjects(self, page: dict, *, _depth: int = 0,
                      _seen: frozenset = frozenset()) -> dict:
        """Form-XObject name → (content bytes, fonts, nested xobjects,
        matrix) for a page or form's /Resources /XObject dict (spec
        §8.10) — the text-bearing containers the ``Do`` operator paints.
        pdf.js renders these transparently (reference main.ts:149-154
        via getDocumentProxy), so skipping them would silently drop any
        text a producer routed through a form. Image XObjects are
        ignored; recursion is depth-capped and cycle-guarded by object
        number."""
        out: dict = {}
        if _depth >= 8:
            return out
        try:
            res = self.resolve(page.get("Resources"))
            if not isinstance(res, dict):
                return out
            xdict = self.resolve(res.get("XObject"))
            if not isinstance(xdict, dict):
                return out
            for name, xref in xdict.items():
                num = xref.num if isinstance(xref, Ref) else None
                if num is not None and num in _seen:
                    continue  # cycle
                xo = self.resolve(xref)
                if not isinstance(xo, Stream):
                    continue
                sub = self.resolve(xo.dict.get("Subtype"))
                if sub != "Form":
                    continue
                try:
                    content = xo.data()
                except PdfError:
                    continue
                # a form usually carries its own /Resources; fall back
                # to the parent's when absent (spec allows inheritance)
                xres = self.resolve(xo.dict.get("Resources"))
                holder = {"Resources": xres if isinstance(xres, dict)
                          else res}
                fonts = self._fonts_from_resources(holder["Resources"])
                seen = _seen | ({num} if num is not None else set())
                nested = self.page_xobjects(holder, _depth=_depth + 1,
                                            _seen=seen)
                mtx = self.resolve(xo.dict.get("Matrix"))
                matrix = (tuple(float(v) for v in mtx)
                          if isinstance(mtx, list) and len(mtx) == 6
                          else None)
                out[name] = (content, fonts, nested, matrix)
        except PdfError:
            pass
        return out

    def page_content(self, page: dict) -> bytes:
        contents = self.resolve(page.get("Contents"))
        if contents is None:
            return b""
        if isinstance(contents, Stream):
            return contents.data()
        if isinstance(contents, list):
            parts = []
            for c in contents:
                c = self.resolve(c)
                if isinstance(c, Stream):
                    parts.append(c.data())
            return b"\n".join(parts)
        return b""


# ── simple-font decoding: encodings + ToUnicode CMaps ────────────────
# (spec §9.6.6 simple-font encodings, §9.10.3 ToUnicode CMaps)

# WinAnsiEncoding codes that differ from Latin-1 (0x80-0x9F block)
# MacRomanEncoding (spec Appendix D.2): the high range IS the Mac OS
# Roman charset, which Python ships as the 'mac_roman' codec. One
# deviation: PDF keeps the pre-Mac-OS-8.5 assignment of 0xDB as the
# generic CURRENCY SIGN where the codec (post-8.5) gives the euro.
_MACROMAN_OVERRIDES = {
    b: bytes([b]).decode("mac_roman") for b in range(128, 256)
}
_MACROMAN_OVERRIDES[0xDB] = "¤"

_WINANSI_OVERRIDES = {
    0x80: "€", 0x82: "‚", 0x83: "ƒ", 0x84: "„",
    0x85: "…", 0x86: "†", 0x87: "‡", 0x88: "ˆ",
    0x89: "‰", 0x8A: "Š", 0x8B: "‹", 0x8C: "Œ",
    0x8E: "Ž", 0x91: "‘", 0x92: "’", 0x93: "“",
    0x94: "”", 0x95: "•", 0x96: "–", 0x97: "—",
    0x98: "˜", 0x99: "™", 0x9A: "š", 0x9B: "›",
    0x9C: "œ", 0x9E: "ž", 0x9F: "Ÿ",
}

# Adobe Glyph List subset for /Differences arrays (public AGL)
_AGL = {
    "space": " ", "exclam": "!", "quotedbl": '"', "numbersign": "#",
    "dollar": "$", "percent": "%", "ampersand": "&", "quotesingle": "'",
    "parenleft": "(", "parenright": ")", "asterisk": "*", "plus": "+",
    "comma": ",", "hyphen": "-", "period": ".", "slash": "/",
    "colon": ":", "semicolon": ";", "less": "<", "equal": "=",
    "greater": ">", "question": "?", "at": "@", "bracketleft": "[",
    "backslash": "\\", "bracketright": "]", "underscore": "_",
    "eacute": "é", "egrave": "è", "aacute": "á",
    "agrave": "à", "iacute": "í", "oacute": "ó",
    "uacute": "ú", "ntilde": "ñ", "ccedilla": "ç",
    "adieresis": "ä", "odieresis": "ö", "udieresis": "ü",
    "Eacute": "É", "Ntilde": "Ñ", "euro": "€",
    "quotedblleft": "“", "quotedblright": "”",
    "quoteleft": "‘", "quoteright": "’", "bullet": "•",
    "endash": "–", "emdash": "—", "degree": "°",
}
for _i in range(10):
    _AGL[["zero", "one", "two", "three", "four", "five", "six", "seven",
          "eight", "nine"][_i]] = str(_i)
for _c in "abcdefghijklmnopqrstuvwxyz":
    _AGL[_c] = _c
    _AGL[_c.upper()] = _c.upper()

_HEX_DIGITS = set("0123456789ABCDEFabcdef")


def glyph_name_to_unicode(name: str) -> str | None:
    """Glyph name → Unicode per Adobe's published "Unicode and Glyph
    Names" algorithm (the same rules pdf.js applies): strip any
    ``.suffix``, split ``_`` ligature components, then map each
    component through the AGL table, the ``uniXXXX[XXXX…]`` form
    (UTF-16BE code units, 4 hex digits per unit) or the ``uXXXX`` –
    ``uXXXXXX`` form (one code point, 4-6 hex digits). None when any
    component has no mapping."""
    base = name.split(".", 1)[0]
    if not base:
        return None
    out: list[str] = []
    for part in base.split("_"):
        ch = _AGL.get(part)
        if ch is None and part.startswith("uni") and len(part) >= 7 \
                and (len(part) - 3) % 4 == 0 \
                and all(c in _HEX_DIGITS for c in part[3:]):
            units = bytes.fromhex(part[3:])
            try:
                ch = units.decode("utf-16-be")
            except UnicodeDecodeError:
                ch = None
        elif ch is None and part.startswith("u") and 5 <= len(part) <= 7 \
                and all(c in _HEX_DIGITS for c in part[1:]):
            cp = int(part[1:], 16)
            if cp <= 0x10FFFF and not (0xD800 <= cp <= 0xDFFF):
                ch = chr(cp)
        if ch is None:
            return None
        out.append(ch)
    return "".join(out)

_BFCHAR_RE = re.compile(rb"beginbfchar(.*?)endbfchar", re.DOTALL)
_BFRANGE_RE = re.compile(rb"beginbfrange(.*?)endbfrange", re.DOTALL)
_HEXPAIR_RE = re.compile(rb"<([0-9A-Fa-f]+)>")
_CODESPACE_RE = re.compile(rb"begincodespacerange(.*?)endcodespacerange", re.DOTALL)
_CIDRANGE_ENT_RE = re.compile(
    rb"<([0-9A-Fa-f]+)>\s*<([0-9A-Fa-f]+)>\s+(\d+)")
_CIDCHAR_ENT_RE = re.compile(rb"<([0-9A-Fa-f]+)>\s+(\d+)")
_CIDRANGE_RE = re.compile(rb"begincidrange(.*?)endcidrange", re.DOTALL)
_CIDCHAR_RE = re.compile(rb"begincidchar(.*?)endcidchar", re.DOTALL)


def parse_codespace_ranges(data: bytes) -> list[tuple[int, bytes, bytes]]:
    """CMap codespacerange sections → [(n_bytes, lo, hi)] — the
    variable-length code segmentation table (spec §9.7.6.2)."""
    out: list[tuple[int, bytes, bytes]] = []
    for seg in _CODESPACE_RE.findall(data):
        hexes = _HEXPAIR_RE.findall(seg)
        for lo, hi in zip(hexes[0::2], hexes[1::2]):
            nb = max(1, (len(lo) + 1) // 2)
            out.append((
                nb,
                bytes.fromhex(lo.decode("ascii").zfill(nb * 2)),
                bytes.fromhex(hi.decode("ascii").zfill(nb * 2)),
            ))
    # shortest codes first: the standard greedy prefix match
    out.sort(key=lambda r: r[0])
    return out


def parse_cid_cmap(data: bytes):
    """Embedded CMap encoding stream (spec §9.7.5.3) → (codespaces,
    code→CID dict). The CID mapping drives glyph/width selection; for
    text extraction the codespace ranges (code segmentation) are the
    load-bearing part — Unicode comes from the sibling ToUnicode CMap,
    which is keyed by the same codes."""
    codespaces = parse_codespace_ranges(data)
    cids: dict[int, int] = {}
    for seg in _CIDRANGE_RE.findall(data):
        for lo, hi, cid in _CIDRANGE_ENT_RE.findall(seg):
            lo_i, hi_i, base = int(lo, 16), int(hi, 16), int(cid)
            for k in range(min(hi_i - lo_i, 65535) + 1):
                cids[lo_i + k] = base + k
    for seg in _CIDCHAR_RE.findall(data):
        for code, cid in _CIDCHAR_ENT_RE.findall(seg):
            cids[int(code, 16)] = int(cid)
    return codespaces, cids


def _hex_to_unicode(h: bytes) -> str:
    """CMap destination hex → unicode string (UTF-16BE code units)."""
    raw = bytes.fromhex(h.decode("ascii"))
    if len(raw) % 2:
        raw = b"\x00" + raw
    return raw.decode("utf-16-be", errors="replace")


def parse_tounicode_cmap(data: bytes) -> dict[int, str]:
    """Parse bfchar/bfrange sections of a ToUnicode CMap (spec §9.10.3).
    Simple (1-2 byte) source codes; returns code → unicode string."""
    out: dict[int, str] = {}
    for seg in _BFCHAR_RE.findall(data):
        hexes = _HEXPAIR_RE.findall(seg)
        for src, dst in zip(hexes[0::2], hexes[1::2]):
            out[int(src, 16)] = _hex_to_unicode(dst)
    for seg in _BFRANGE_RE.findall(data):
        # two forms: <lo> <hi> <dst>  |  <lo> <hi> [<d0> <d1> ...];
        # a string token becomes its bytes, any other token its kind
        vals: list = []
        m = _next_token(seg, 0)
        while m is not None:
            if m.lastgroup in ("sstr", "lstr", "hexstr"):
                v, end = parse_object_at(seg, m.start())
                vals.append(v)
            else:
                vals.append(m.lastgroup)
                end = m.end()
            m = _next_token(seg, end)
        i = 0
        while i + 2 < len(vals):
            lo_b, hi_b, nxt = vals[i : i + 3]
            if not isinstance(lo_b, bytes) or not isinstance(hi_b, bytes):
                i += 1
                continue
            lo = int.from_bytes(lo_b, "big")
            hi = int.from_bytes(hi_b, "big")
            if isinstance(nxt, bytes):
                base_cp = int.from_bytes(nxt, "big")
                width = len(nxt)
                # at most 65,536 codes (as parse_cid_cmap), ending at the
                # last destination that still fits the base's byte width
                n = min(hi - lo, 65535, 256 ** width - 1 - base_cp) if width else -1
                for k in range(n + 1):
                    out[lo + k] = _hex_to_unicode(
                        f"{base_cp + k:0{width * 2}x}".encode())
                i += 3
            elif nxt == "aopen":
                j = i + 3
                k = 0
                while j < len(vals) and vals[j] != "aclose":
                    if isinstance(vals[j], bytes):
                        out[lo + k] = _hex_to_unicode(vals[j].hex().encode())
                        k += 1
                    j += 1
                i = j + 1
            else:
                i += 1
    return out


class FontDecoder:
    """byte string → text for one font.

    Simple (1-byte) fonts: Latin-1 base overridden by WinAnsi table /
    /Differences glyph names / ToUnicode CMap (highest precedence).
    Composite Type0 fonts with Identity-H/V encoding (spec §9.7.4):
    2-byte big-endian codes mapped through the ToUnicode CMap
    (U+FFFD for unmapped codes). Composite fonts with an EMBEDDED CMap
    encoding stream (spec §9.7.5.3): variable-length codes segmented by
    the CMap's codespace ranges, then mapped through ToUnicode."""

    __slots__ = ("trans", "two_byte", "widths", "codespaces",
                 "cids", "cid_widths", "default_width",
                 "unicode_identity", "charset_codec", "vertical",
                 "_ok1", "_ok2", "_long_ranges")

    def __init__(self, overrides: dict[int, str] | None = None,
                 two_byte: bool = False,
                 widths: dict[int, float] | None = None,
                 codespaces: list[tuple[int, bytes, bytes]] | None = None,
                 cids: dict[int, int] | None = None,
                 cid_widths: dict[int, float] | None = None,
                 default_width: float | None = None,
                 unicode_identity: bool = False,
                 charset_codec: str | None = None,
                 vertical: bool = False):
        self.trans = dict(overrides) if overrides else None
        self.two_byte = two_byte
        self.widths = widths  # byte code → glyph width in em units
        self.codespaces = codespaces  # sorted by code length ascending
        self.cids = cids  # code → CID (embedded CMap; None ⇒ identity)
        self.cid_widths = cid_widths  # CID → width in em units (/W)
        self.default_width = default_width  # /DW in em units
        # Uni*-UCS2 / Uni*-UTF16 predefined CMaps: the character CODE
        # is the UCS-2 value / UTF-16BE unit(s) — that is the whole
        # point of those CMaps — so extraction maps codes to Unicode
        # directly; an explicit ToUnicode still wins per code.
        self.unicode_identity = unicode_identity
        # Non-Unicode predefined CMaps (90ms-RKSJ, GBK-EUC, ETen-B5,
        # KSCms-UHC, …) are defined over a legacy charset's byte
        # sequences: the code's Unicode is the stdlib codec decode of
        # its bytes (code→CID→Unicode through the Adobe registry lands
        # on the same assignments for these charsets' assigned codes).
        self.charset_codec = charset_codec
        # Writing mode 1 (Identity-V / *-V CMaps / embedded CMap with
        # /WMode 1, spec §9.7.4.1): glyphs advance DOWN the page by the
        # /DW2 default of one em per glyph (§9.7.4.3) — the per-CID
        # /W2 overrides are not consulted (documented limitation; the
        # default governs virtually all vertical CJK text).
        self.vertical = vertical
        # Segmentation lookup tables: per-byte range membership (spec
        # §9.7.6.2) folded into one 256-entry table for 1-byte codes
        # and one 65536-entry table for 2-byte codes — two probes per
        # glyph instead of a per-range per-byte Python loop on the
        # show-op hot path. Rare 3-/4-byte ranges stay on a slow path.
        if codespaces is not None:
            ok1 = bytearray(256)
            ok2 = bytearray(65536)
            long_ranges = []
            for nb, lo, hi in codespaces:
                if nb == 1:
                    ok1[lo[0]:hi[0] + 1] = b"\x01" * (hi[0] - lo[0] + 1)
                elif nb == 2:
                    w = hi[1] - lo[1] + 1
                    row = b"\x01" * w
                    for b0 in range(lo[0], hi[0] + 1):
                        base = (b0 << 8) + lo[1]
                        ok2[base:base + w] = row
                else:
                    long_ranges.append((nb, lo, hi))
            self._ok1 = bytes(ok1)
            self._ok2 = bytes(ok2)
            self._long_ranges = long_ranges
        else:
            self._ok1 = self._ok2 = None
            self._long_ranges = []

    def _codes_len(self, raw: bytes) -> list[tuple[int, int]]:
        """Variable-length code segmentation per the codespace ranges →
        (code, n_bytes) pairs; an unmatched byte consumes one byte and
        yields (-1, 1) (fail-safe). A code matches a range only if EACH
        byte lies between the corresponding bound bytes (spec §9.7.6.2)
        — per-byte, NOT lexicographic: in GB18030, <95 32 82 36> is a
        4-byte code precisely because its second byte 0x32 falls
        outside the 2-byte range's 0x40-0xFE second-byte band, even
        though <95 32> sorts inside <81 40>-<FE FE>."""
        out: list[tuple[int, int]] = []
        ok1, ok2 = self._ok1, self._ok2
        i, n = 0, len(raw)
        while i < n:
            b0 = raw[i]
            if ok1[b0]:
                out.append((b0, 1))
                i += 1
                continue
            if i + 1 < n:
                c2 = (b0 << 8) | raw[i + 1]
                if ok2[c2]:
                    out.append((c2, 2))
                    i += 2
                    continue
            for nb, lo, hi in self._long_ranges:
                seg = raw[i:i + nb]
                if len(seg) == nb and all(
                        lo[j] <= seg[j] <= hi[j] for j in range(nb)):
                    out.append((int.from_bytes(seg, "big"), nb))
                    i += nb
                    break
            else:
                out.append((-1, 1))
                i += 1
        return out

    def _codes(self, raw: bytes) -> list[int]:
        return [c for c, _ in self._codes_len(raw)]

    def decode_codes(self, codes_len: list[tuple[int, int]]) -> str:
        """Map already-segmented (code, n_bytes) pairs through ToUnicode
        — lets the interpreter segment ONCE per show op instead of
        re-running the per-byte codespace walk for decode/advance/
        word-spacing."""
        trans = self.trans or {}
        if self.unicode_identity:
            out = []
            for c, _ in codes_len:
                ch = trans.get(c)
                if ch is not None:  # explicit ToUnicode wins
                    out.append(ch)
                elif 0 <= c < 0xD800 or 0xE000 <= c <= 0xFFFF:
                    out.append(chr(c))
                elif c > 0xFFFF:  # 4-byte UTF-16 surrogate-pair code
                    hi, lo = c >> 16, c & 0xFFFF
                    if 0xD800 <= hi <= 0xDBFF and 0xDC00 <= lo <= 0xDFFF:
                        out.append(chr(0x10000 + ((hi - 0xD800) << 10)
                                       + (lo - 0xDC00)))
                    else:
                        out.append("�")
                else:  # lone surrogate / unmatched byte
                    out.append("�")
            return "".join(out)
        if self.charset_codec:
            out = []
            for c, nb in codes_len:
                ch = trans.get(c)  # explicit ToUnicode wins per code
                if ch is None and c >= 0:
                    try:
                        ch = c.to_bytes(nb, "big").decode(self.charset_codec)
                    except UnicodeDecodeError:
                        ch = "�"  # unassigned code in the charset
                out.append(ch if ch is not None else "�")
            return "".join(out)
        return "".join(trans.get(c, "�") for c, _ in codes_len)

    def advance_from_codes(self, codes: list[int]) -> float:
        if self.cid_widths is None and self.default_width is None:
            return len(codes) * NOMINAL_GLYPH_WIDTH
        dw = self.default_width if self.default_width is not None else 1.0
        cw = self.cid_widths or {}
        cids = self.cids
        return sum(cw.get(cids.get(c, c) if cids else c, dw) for c in codes)

    def advance_em(self, raw: bytes) -> float:
        """Text-space advance (em units) of the raw string: /Widths per
        byte (simple fonts, spec §9.2.4) or CID /W + /DW (composite
        fonts, §9.7.4.3) when declared, nominal estimate otherwise."""
        if self.codespaces is not None or self.two_byte:
            if self.codespaces is not None:
                codes = self._codes(raw)
            else:
                codes = [int.from_bytes(raw[i:i + 2], "big")
                         for i in range(0, len(raw) - len(raw) % 2, 2)]
            if self.cid_widths is None and self.default_width is None:
                return len(codes) * NOMINAL_GLYPH_WIDTH
            dw = self.default_width if self.default_width is not None else 1.0
            cw = self.cid_widths or {}
            cids = self.cids
            total = 0.0
            for c in codes:
                cid = cids.get(c, c) if cids else c
                total += cw.get(cid, dw)
            return total
        if self.widths is not None:
            w = self.widths
            return sum(w.get(b, NOMINAL_GLYPH_WIDTH) for b in raw)
        return len(raw) * NOMINAL_GLYPH_WIDTH

    def decode(self, raw: bytes) -> str:
        if self.codespaces is not None:
            return self.decode_codes(self._codes_len(raw))
        if self.two_byte:
            trans = self.trans or {}
            if len(raw) % 2:
                raw = raw[:-1]
            return "".join(
                trans.get(int.from_bytes(raw[i : i + 2], "big"), "�")
                for i in range(0, len(raw), 2)
            )
        if raw[:2] == b"\xfe\xff":  # UTF-16BE BOM (PDF text strings, §7.9.2)
            return raw[2:].decode("utf-16-be", errors="replace")
        if raw[:3] == b"\xef\xbb\xbf":  # UTF-8 BOM (PDF 2.0 §7.9.2.2)
            return raw[3:].decode("utf-8", errors="replace")
        s = raw.decode("latin-1")
        if self.trans:
            return s.translate(self.trans)
        return s


_LATIN1_DECODER = FontDecoder()


# Codespace ranges of the common predefined CMaps (ISO 32000-1 §9.7.5.2
# / the published Adobe CMap resources — the RANGES are small public
# facts; the full CID mapping tables are not shipped, and are not
# needed for text: Unicode comes from the code-keyed ToUnicode CMap).
_CS_2BYTE = [(2, b"\x00\x00", b"\xff\xff")]
_CS_GBK = [(1, b"\x00", b"\x80"), (2, b"\x81\x40", b"\xfe\xfe")]
_CS_BIG5 = [(1, b"\x00", b"\x80"), (2, b"\xa1\x40", b"\xfe\xfe")]
_CS_UHC = [(1, b"\x00", b"\x80"), (2, b"\x81\x41", b"\xfe\xfe")]
_CS_RKSJ = [(1, b"\x00", b"\x80"), (1, b"\xa0", b"\xdf"),
            (2, b"\x81\x40", b"\x9f\xfc"), (2, b"\xe0\x40", b"\xfc\xfc")]
_CS_EUC_JP = [(1, b"\x00", b"\x80"), (2, b"\x8e\xa0", b"\x8e\xdf"),
              (2, b"\xa1\xa1", b"\xfe\xfe")]
_CS_GB18030 = _CS_GBK + [(4, b"\x81\x30\x81\x30", b"\xfe\x39\xfe\x39")]
_PREDEFINED_CODESPACES = {
    "GB-EUC": _CS_GBK, "GBpc-EUC": _CS_GBK, "GBK-EUC": _CS_GBK,
    "GBKp-EUC": _CS_GBK, "GBK2K": _CS_GB18030,
    "B5pc": _CS_BIG5, "ETen-B5": _CS_BIG5, "ETenms-B5": _CS_BIG5,
    "HKscs-B5": _CS_BIG5,
    "90ms-RKSJ": _CS_RKSJ, "90msp-RKSJ": _CS_RKSJ, "90pv-RKSJ": _CS_RKSJ,
    "83pv-RKSJ": _CS_RKSJ, "Add-RKSJ": _CS_RKSJ, "Ext-RKSJ": _CS_RKSJ,
    "EUC": _CS_EUC_JP,
    "KSC-EUC": _CS_UHC, "KSCms-UHC": _CS_UHC, "KSCms-UHC-HW": _CS_UHC,
    "KSCpc-EUC": _CS_UHC,
}


# Legacy charset behind each non-Unicode predefined CMap family
# (spec §9.7.5.2 names them by their source charset): the CMap's code
# IS a byte sequence of that charset, so code→Unicode is the stdlib
# codec decode. Only families whose charset equivalence is exact are
# listed — Mac/NEC print variants (90pv/83pv-RKSJ, GBpc/B5pc) keep the
# degrade-and-count path.
_PREDEFINED_CHARSETS = {
    "90ms-RKSJ": "cp932", "90msp-RKSJ": "cp932",   # Microsoft Shift-JIS
    # NEC print variants: Add-RKSJ = JIS X 0208 + NEC Row-13 specials,
    # Ext-RKSJ = + NEC-selected IBM extensions — every code either
    # family defines decodes to the same character under cp932 (cp932
    # is Microsoft's superset of exactly those NEC/IBM extensions), so
    # the charset-backed path is byte-exact for them too
    "Add-RKSJ": "cp932", "Ext-RKSJ": "cp932",
    "EUC": "euc_jp",
    "GB-EUC": "gb2312", "GBK-EUC": "gbk", "GBKp-EUC": "gbk",
    "GBK2K": "gb18030",
    "ETen-B5": "big5", "ETenms-B5": "big5", "HKscs-B5": "big5hkscs",
    "KSC-EUC": "euc_kr", "KSCms-UHC": "cp949", "KSCms-UHC-HW": "cp949",
}


def _predefined_charset(cmap_name: str) -> str | None:
    base = cmap_name[:-2] if cmap_name.endswith(("-H", "-V")) else cmap_name
    return _PREDEFINED_CHARSETS.get(base)


def _predefined_codespaces(cmap_name: str):
    """Segmentation table for a predefined CMap name, or None."""
    base = cmap_name[:-2] if cmap_name.endswith(("-H", "-V")) else cmap_name
    if base.startswith("Uni"):
        if base.endswith("UTF16"):
            # UTF-16BE codespace: 2-byte BMP halves + 4-byte surrogate
            # pairs (the published Uni*-UTF16 shape)
            return [
                (2, b"\x00\x00", b"\xd7\xff"),
                (2, b"\xe0\x00", b"\xff\xff"),
                (4, b"\xd8\x00\xdc\x00", b"\xdb\xff\xdf\xff"),
            ]
        return list(_CS_2BYTE)  # UniGB-UCS2, UniJIS-UCS2, UniKS-UCS2, ...
    cs = _PREDEFINED_CODESPACES.get(base)
    return list(cs) if cs is not None else None


def _cid_font_widths(doc: "PdfDocument", font: dict):
    """(CID→em-width map, /DW em default) from the descendant CIDFont's
    /W array (spec §9.7.4.3: ``c [w...]`` runs and ``c1 c2 w`` ranges,
    glyph-space thousandths). (None, None) when undeclared — callers
    fall back to the nominal estimate."""
    try:
        desc = doc.resolve(font.get("DescendantFonts"))
        if isinstance(desc, list) and desc:
            desc = doc.resolve(desc[0])
        if not isinstance(desc, dict):
            return None, None
        dw = doc.resolve(desc.get("DW"))
        default = float(dw) / 1000.0 if isinstance(dw, (int, float)) else None
        warr = doc.resolve(desc.get("W"))
        if not isinstance(warr, list):
            return None, default
        out: dict[int, float] = {}
        i = 0
        while i < len(warr):
            a = doc.resolve(warr[i])
            nxt = doc.resolve(warr[i + 1]) if i + 1 < len(warr) else None
            if isinstance(nxt, list):
                for j, w in enumerate(nxt):
                    w = doc.resolve(w)
                    if isinstance(w, (int, float)):
                        out[int(a) + j] = float(w) / 1000.0
                i += 2
            elif i + 2 < len(warr):
                c2 = doc.resolve(warr[i + 1])
                w = doc.resolve(warr[i + 2])
                if isinstance(w, (int, float)):
                    for c in range(int(a), min(int(c2), int(a) + 65535) + 1):
                        out[c] = float(w) / 1000.0
                i += 3
            else:
                break
        return (out or None), default
    except (PdfError, TypeError, ValueError):
        return None, None


def build_font_decoder(doc: "PdfDocument", font: dict) -> FontDecoder:
    overrides: dict[int, str] = {}
    enc = doc.resolve(font.get("Encoding"))
    base = None
    diffs = None
    if isinstance(enc, str):
        base = enc
    elif isinstance(enc, dict):
        base = str(doc.resolve(enc.get("BaseEncoding")) or "")
        diffs = doc.resolve(enc.get("Differences"))
    subtype = str(doc.resolve(font.get("Subtype")) or "")
    if subtype == "Type0":
        tu_overrides: dict[int, str] = {}
        tu0 = doc.resolve(font.get("ToUnicode"))
        if isinstance(tu0, Stream):
            try:
                tu_overrides.update(parse_tounicode_cmap(tu0.data()))
            except PdfError:
                pass
        cid_widths, default_width = _cid_font_widths(doc, font)
        # writing mode 1 (spec §9.7.4.1): a CMap NAME ending "-V", or
        # an embedded CMap stream declaring /WMode 1
        if isinstance(enc, Stream):
            wm = doc.resolve(enc.dict.get("WMode", 0))
            vert = isinstance(wm, (int, float)) and int(wm) == 1
        else:
            vert = isinstance(enc, str) and enc.endswith("-V")
        if isinstance(enc, Stream):
            # embedded CMap encoding stream (spec §9.7.5.3)
            cids = None
            try:
                cs, cids = parse_cid_cmap(enc.data())
            except PdfError:
                cs = []
            return FontDecoder(
                tu_overrides,
                codespaces=cs or [(2, b"\x00\x00", b"\xff\xff")],
                cids=cids or None, cid_widths=cid_widths,
                default_width=default_width, vertical=vert)
        if str(base or "").startswith("Identity"):
            return FontDecoder(tu_overrides, two_byte=True,
                               cid_widths=cid_widths,
                               default_width=default_width, vertical=vert)
        # predefined non-identity CMap name: the Adobe registry CID
        # tables are not shipped here, but the published CODESPACE
        # ranges of the common CMaps are — they give correct
        # variable-length segmentation, and extraction Unicode comes
        # from the code-keyed ToUnicode CMap. Fallbacks: the ToUnicode
        # CMap's own codespaces, then 2-byte.
        cs = _predefined_codespaces(str(enc)) if isinstance(enc, str) else None
        # Uni*-UCS2 / Uni*-UTF16: the code IS the Unicode value (the
        # published purpose of those CMaps) — decode identity, exact
        # even with no ToUnicode. pdf.js ships the full registry and
        # lands on the same mapping for these families.
        uni_identity = isinstance(enc, str) and ("-UCS2" in enc
                                                 or "-UTF16" in enc)
        # charset-backed families (RKSJ/GBK/Big5/UHC/EUC): the code's
        # bytes decode through the stdlib codec — real text, no
        # registry tables needed
        codec = _predefined_charset(enc) if isinstance(enc, str) else None
        if not tu_overrides and not uni_identity and codec is None \
                and isinstance(enc, str) and enc:
            # predefined CMap outside the known families AND no
            # ToUnicode: codes segment correctly but cannot be mapped
            # to Unicode — extraction degrades (codes drop); count it
            # as a fallback doc instead of crashing
            doc.fallback = True
        if not cs and isinstance(tu0, Stream):
            try:
                cs = parse_codespace_ranges(tu0.data())
            except (PdfError, ValueError):
                cs = None
        return FontDecoder(
            tu_overrides, codespaces=cs or [(2, b"\x00\x00", b"\xff\xff")],
            cid_widths=cid_widths, default_width=default_width,
            unicode_identity=uni_identity, charset_codec=codec,
            vertical=vert)
    # /Widths scale: simple fonts declare glyph widths in thousandths
    # of an em (spec §9.2.4); Type3 fonts declare them in GLYPH SPACE,
    # mapped to text space by /FontMatrix (spec §9.6.5) — the
    # horizontal scale is the matrix's `a` coefficient.
    w_scale = 0.001
    if subtype == "Type3":
        fm = doc.resolve(font.get("FontMatrix"))
        if isinstance(fm, list) and len(fm) == 6:
            a = doc.resolve(fm[0])
            if isinstance(a, (int, float)) and a != 0:
                w_scale = float(a)
    widths = None
    warr = doc.resolve(font.get("Widths"))
    if isinstance(warr, list) and warr:
        first = int(doc.resolve(font.get("FirstChar", 0)) or 0)
        widths = {
            first + i: float(w) * w_scale
            for i, w in enumerate(warr)
            if isinstance(w, (int, float))
        }
    if base == "WinAnsiEncoding":
        overrides.update(_WINANSI_OVERRIDES)
    elif base == "MacRomanEncoding":
        overrides.update(_MACROMAN_OVERRIDES)
    if isinstance(diffs, list):
        code = 0
        for item in diffs:
            if isinstance(item, (int, float)):
                code = int(item)
            elif isinstance(item, str):  # a Name
                ch = glyph_name_to_unicode(item)
                if ch is not None:
                    overrides[code] = ch
                code += 1
    tu = doc.resolve(font.get("ToUnicode"))
    if isinstance(tu, Stream):
        try:
            overrides.update(parse_tounicode_cmap(tu.data()))
        except PdfError:
            pass  # unparseable CMap: keep encoding-level mapping
    if subtype == "Type3" and not overrides:
        # glyph-procedure font with NO /Differences-derivable names and
        # no ToUnicode: true text would require rendering /CharProcs.
        # Unmapped codes ride the charcode-identity (Latin-1) path —
        # the same fallback pdf.js applies when a glyph has no unicode
        # — but the document is COUNTED as degraded.
        doc.fallback = True
    if overrides or widths:
        return FontDecoder(overrides, widths=widths)
    return _LATIN1_DECODER


# ── content-stream interpreter ────────────────────────────────────────

_ID = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def _mat_mul(m1, m2):
    a1, b1, c1, d1, e1, f1 = m1
    a2, b2, c2, d2, e2, f2 = m2
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
        e1 * a2 + f1 * c2 + e2,
        e1 * b2 + f1 * d2 + f2,
    )


def _translate(tx, ty, m):
    a, b, c, d, e, f = m
    return (a, b, c, d, tx * a + ty * c + e, tx * b + ty * d + f)


def interpret_content(content: bytes, fonts: dict | None = None,
                      xobjects: dict | None = None, *,
                      ctm0: tuple = _ID, _depth: int = 0) -> list[Run]:
    """Execute the text-relevant subset of the content stream, returning
    positioned runs. Unknown operators clear the operand stack (lenient,
    spec-conformant for an extractor). ``fonts`` maps resource font
    names to FontDecoders (Tf switches the active decoder); ``xobjects``
    maps names to Form-XObject tuples (``Do`` recurses into them with
    the form's matrix composed onto the current CTM, spec §8.10.1)."""
    stack: list[Any] = []
    decoder = _LATIN1_DECODER
    runs: list[Run] = []
    tm = _ID
    tlm = _ID
    ctm = ctm0
    ctm_stack: list[tuple] = []
    leading = 0.0
    size = 1.0
    char_spacing = 0.0   # Tc (text-space units, unscaled by size)
    word_spacing = 0.0   # Tw (applies per 0x20 byte, simple fonts)
    arr_stack: list[list] = []

    def emit(text_bytes: bytes):
        nonlocal tm
        if not isinstance(text_bytes, bytes):
            return
        # spec §9.4.4: tx = Σ(w_glyph·Tfs + Tc + (Tw if glyph==space));
        # in writing mode 1 the same sum (with the /DW2 one-em default
        # for w) applies to ty, downward
        vertical = decoder.vertical
        if decoder.codespaces is not None:
            # variable-length CMap font: run the codespace walk ONCE per
            # show op; decode / advance / Tw all reuse the segmentation
            codes_len = decoder._codes_len(text_bytes)
            text = decoder.decode_codes(codes_len)
            n_glyphs = len(codes_len)
            if vertical:
                adv = (size + char_spacing) * n_glyphs
            else:
                codes = [c for c, _ in codes_len]
                adv = decoder.advance_from_codes(codes) * size \
                    + char_spacing * n_glyphs
            if word_spacing:
                # spec §9.3.3: Tw applies only to the SINGLE-BYTE code
                # 32 — possible in mixed-length CMaps, never in 2-byte
                # Identity encodings — in BOTH writing modes
                n_sp = sum(1 for c, nb in codes_len if nb == 1 and c == 0x20)
                adv += word_spacing * n_sp
        else:
            text = decoder.decode(text_bytes)
            multi = decoder.two_byte
            n_glyphs = len(text_bytes) // 2 if multi else len(text_bytes)
            if vertical:
                adv = (size + char_spacing) * n_glyphs
            else:
                adv = decoder.advance_em(text_bytes) * size \
                    + char_spacing * n_glyphs
            if word_spacing and not multi:
                adv += word_spacing * text_bytes.count(b" ")
        x = ctm[0] * tm[4] + ctm[2] * tm[5] + ctm[4]
        y = ctm[1] * tm[4] + ctm[3] * tm[5] + ctm[5]
        if text:
            runs.append(Run(x, y, text))
        if vertical:
            # writing mode 1: the pen moves DOWN the page (spec §9.7.4.3)
            tm = _translate(0.0, -adv, tm)
        else:
            tm = _translate(adv, 0.0, tm)

    n = len(content)
    target: list[Any] = stack
    # one finditer pass; it restarts only after the two jumps (an
    # escaped/nested literal string, an inline image's BI … EI)
    jump: int | None = 0
    while jump is not None:
        tokens = _OBJ_RE.finditer(content, jump)
        jump = None
        for m in tokens:
            kind = m.lastgroup
            if kind == "num":
                s = m.group("num")
                target.append(float(s) if b"." in s else int(s))
                continue
            if kind == "kw":
                if arr_stack:  # malformed: operator inside array — resync
                    arr_stack.clear()
                    target = stack
                    stack.clear()
                    continue
                op = m.group("kw")
                # operators in order of how often they occur
                try:
                    if op == b"Tj":
                        emit(stack[-1])
                    elif op == b"Td":
                        tm = tlm = _translate(float(stack[-2]), float(stack[-1]), tlm)
                    elif op == b"Tm":
                        tm = tlm = tuple(float(v) for v in stack[-6:])
                    elif op == b"'":
                        tm = tlm = _translate(0.0, -leading, tlm)
                        emit(stack[-1])
                    elif op == b"Tf":
                        if len(stack) >= 1 and isinstance(stack[-1], (int, float)):
                            size = float(stack[-1])
                        if fonts and len(stack) >= 2 and isinstance(stack[-2], str):
                            decoder = fonts.get(stack[-2], _LATIN1_DECODER)
                    elif op == b"BT":
                        tm = tlm = _ID
                    elif op == b"TL":
                        leading = float(stack[-1])
                    elif op == b"TJ":
                        arr = stack[-1] if stack and isinstance(stack[-1], list) else []
                        text_parts = [e for e in arr if isinstance(e, bytes)]
                        emit(b"".join(text_parts))
                        kern = sum(e for e in arr if isinstance(e, (int, float)))
                        # the adjustment applies along the WRITING direction
                        # (spec §9.4.3): x in horizontal mode, y in vertical
                        if decoder.vertical:
                            tm = _translate(0.0, -kern / 1000.0 * size, tm)
                        else:
                            tm = _translate(-kern / 1000.0 * size, 0.0, tm)
                    elif op == b'"':
                        # aw ac string " — set word/char spacing, then T* + show
                        if len(stack) >= 3:
                            word_spacing = float(stack[-3])
                            char_spacing = float(stack[-2])
                        tm = tlm = _translate(0.0, -leading, tlm)
                        emit(stack[-1])
                    elif op == b"TD":
                        tx, ty = float(stack[-2]), float(stack[-1])
                        leading = -ty
                        tm = tlm = _translate(tx, ty, tlm)
                    elif op == b"Tc":
                        char_spacing = float(stack[-1])
                    elif op == b"Tw":
                        word_spacing = float(stack[-1])
                    elif op == b"T*":
                        tm = tlm = _translate(0.0, -leading, tlm)
                    elif op == b"q":
                        ctm_stack.append(ctm)
                    elif op == b"Q":
                        if ctm_stack:
                            ctm = ctm_stack.pop()
                    elif op == b"cm":
                        ctm = _mat_mul(tuple(float(v) for v in stack[-6:]), ctm)
                    elif op == b"Do":
                        name = stack[-1] if stack else None
                        if (xobjects and isinstance(name, str)
                                and name in xobjects and _depth < 8):
                            xc, xfonts, xnested, xmatrix = xobjects[name]
                            inner = xmatrix if xmatrix is not None else _ID
                            runs.extend(interpret_content(
                                xc, xfonts, xnested,
                                ctm0=_mat_mul(inner, ctm), _depth=_depth + 1))
                    elif op == b"BI":
                        # inline image (spec §8.9.7): skip past EI. The image
                        # data is raw binary and may contain the bytes "EI", so
                        # require whitespace on both sides (spec: EI is a
                        # whitespace-delimited operator) instead of taking the
                        # first occurrence.
                        end = content.find(b"EI", m.end())
                        while end != -1:
                            before_ws = end == 0 or content[end - 1] in _WS
                            after_ws = end + 2 >= n or content[end + 2] in _WS
                            if before_ws and after_ws:
                                break
                            end = content.find(b"EI", end + 2)
                        jump = n if end == -1 else end + 2
                except (IndexError, TypeError, ValueError):
                    pass  # malformed operands: ignore op (lenient)
                stack.clear()
                if jump is not None:
                    break
                continue
            if kind == "sstr":  # simple literal string, no escapes/nesting
                target.append(m.group("sstr")[1:-1])
            elif kind == "name":
                target.append(Name(m.group("name")[1:].decode("latin-1")))
            elif kind == "lstr":  # escaped/nested literal string: jump
                v, jump = _literal_string(content, m.end())
                target.append(v)
                break
            elif kind == "aopen":
                arr: list[Any] = []
                arr_stack.append(arr)
                target = arr
            elif kind == "aclose":
                if arr_stack:
                    arr = arr_stack.pop()
                    target = arr_stack[-1] if arr_stack else stack
                    target.append(arr)
            elif kind == "hexstr":
                h = _HEX_CLEAN.sub(b"", m.group("hexstr")[1:-1])
                if len(h) % 2:
                    h += b"0"
                target.append(bytes.fromhex(h.decode("ascii")))
            elif kind == "dopen":  # operand dictionary: collect nothing
                depth = 1
                for m in tokens:
                    if m.lastgroup == "dopen":
                        depth += 1
                    elif m.lastgroup == "dclose":
                        depth -= 1
                        if not depth:
                            break
            # dclose, comments and stray bytes carry nothing
    return runs


# ── top-level API ─────────────────────────────────────────────────────

class PdfResult(NamedTuple):
    text: str
    n_pages: int
    fallback: bool


def extract_pdf_text(data: bytes) -> PdfResult:
    """bytes → (text, n_pages, fallback). Raises PdfError on failure.
    Accepts any bytes-like input (the dispatch stage hands zero-copy
    Arrow memoryviews); the tokenizer needs an owned contiguous buffer, so
    the one payload copy on the whole extract path happens here."""
    if not isinstance(data, (bytes, bytearray)):
        data = bytes(data)
    doc = PdfDocument(data)
    pages = doc.pages()
    page_runs = [
        interpret_content(doc.page_content(p), doc.page_fonts(p),
                          doc.page_xobjects(p))
        for p in pages
    ]
    return PdfResult(document_text(page_runs), len(pages), doc.fallback)
