import random
import zlib

import pytest

from pdf_to_text_ray.fixtures.pdfgen import make_pdf
from pdf_to_text_ray.stages.pdf_extract import (
    Name,
    PdfDocument,
    PdfError,
    Ref,
    Stream,
    _png_predictor,
    decode_stream,
    extract_pdf_text,
    interpret_content,
    parse_object_at,
    parse_tounicode_cmap,
)


# ── object layer ──────────────────────────────────────────────────────

def _parse(src: bytes):
    return parse_object_at(src, 0)[0]


def test_parse_basic_values():
    assert _parse(b"42") == 42
    assert _parse(b"-3.14") == -3.14
    assert _parse(b".5") == 0.5
    assert _parse(b"true") is True
    assert _parse(b"null") is None
    assert _parse(b"/Name") == "Name"
    assert _parse(b"/A#20B") == "A B"  # name #xx escape


def test_parse_strings():
    assert _parse(rb"(hello)") == b"hello"
    assert _parse(rb"(a\(b\)c)") == b"a(b)c"
    assert _parse(rb"(back\\slash)") == b"back\\slash"
    assert _parse(rb"(nest(ed)ok)") == b"nest(ed)ok"
    assert _parse(rb"(\101\102\103)") == b"ABC"
    assert _parse(rb"(\n\t)") == b"\n\t"
    assert _parse(b"<48656C6C6F>") == b"Hello"
    assert _parse(b"<48 65 6C>") == b"Hel"
    assert _parse(b"<486>") == b"H`"  # odd length padded with 0


def test_parse_containers_and_refs():
    assert _parse(b"[1 2 /X (s)]") == [1, 2, "X", b"s"]
    d = _parse(b"<< /A 1 /B [2 3] /C << /D /E >> >>")
    assert d == {"A": 1, "B": [2, 3], "C": {"D": "E"}}
    assert _parse(b"12 0 R") == Ref(12, 0)
    assert _parse(b"[1 0 R 2]") == [Ref(1, 0), 2]
    assert _parse(b"<< /Parent 2 0 R /N 5 >>") == {"Parent": Ref(2, 0), "N": 5}


def test_comments_skipped():
    assert _parse(b"% comment\n 7") == 7


def test_parse_malformed_leniently():
    # a stray R is dropped, and a dict key with no value is skipped
    assert _parse(b"[1 R 2]") == [1, 2]
    assert _parse(b"[1 0 R 0 R]") == [Ref(1, 0), 0]
    assert _parse(b"<< /A >>") == {}
    # only an integer pair before R makes a reference
    assert _parse(b"1.5 0 R") == 1.5


def test_tounicode_bfrange_forms():
    cmap = (b"3 beginbfrange\n"
            b"<41> <43> [<0061> <00620063> <D83DDE00>]\n"  # array form
            b"<0044> <0045> <00E9>\n"                      # incrementing
            b"<0050> <0051> <D83DDE00>\n"                  # surrogate pair
            b"endbfrange\n")
    assert parse_tounicode_cmap(cmap) == {
        0x41: "a", 0x42: "bc", 0x43: "\U0001F600",
        0x44: "\u00e9", 0x45: "\u00ea",
        0x50: "\U0001F600", 0x51: "\U0001F601"}


@pytest.mark.parametrize("trailer", [b"7", b"[ /Size 3 ]", b"(x)", b"/Root"])
def test_table_trailer_not_a_dict_salvages(trailer):
    """A table trailer that is not a dict fails the xref load, so the
    salvage scan recovers the catalog and flags the fallback."""
    rng = random.Random(3)
    pdf, expected, _ = make_pdf(rng, n_pages=2, xref_style="table")
    head, sep, tail = pdf.rpartition(b"trailer")
    end = tail.index(b"startxref")
    doc = sep + b"\n" + trailer + b"\n" + tail[end:]
    r = extract_pdf_text(head + doc)
    assert r.fallback and r.text == expected


# ── filters ───────────────────────────────────────────────────────────

def test_flate_roundtrip():
    raw = zlib.compress(b"payload data")
    assert decode_stream({"Filter": Name("FlateDecode")}, raw) == b"payload data"


def test_asciihex():
    assert decode_stream({"Filter": Name("ASCIIHexDecode")}, b"48656C6C6F>") == b"Hello"


def test_unsupported_filter_raises():
    with pytest.raises(PdfError):
        decode_stream({"Filter": Name("DCTDecode")}, b"x")


def test_png_up_predictor():
    rows = [bytes([1, 2, 3]), bytes([4, 5, 6])]
    enc = bytearray()
    prev = bytes(3)
    for r in rows:
        enc += bytes([2]) + bytes((r[i] - prev[i]) & 0xFF for i in range(3))
        prev = r
    assert _png_predictor(bytes(enc), columns=3) == b"\x01\x02\x03\x04\x05\x06"


# ── content interpreter ───────────────────────────────────────────────

def test_interpret_td_lines():
    content = b"BT /F1 12 Tf 50 742 Td (one) Tj 0 -14 Td (two) Tj ET"
    runs = interpret_content(content)
    assert [(r.x, r.y, r.text) for r in runs] == [(50, 742, "one"), (50, 728, "two")]


def test_interpret_tstar_and_quote():
    content = b"BT /F1 12 Tf 14 TL 50 742 Td (a) Tj (b) ' 1 2 (c) \" ET"
    runs = interpret_content(content)
    assert [r.text for r in runs] == ["a", "b", "c"]
    assert [r.y for r in runs] == [742, 728, 714]


def test_interpret_tj_concatenation():
    content = b"BT 1 0 0 1 50 742 Tm [(Hel) -18 (lo) 5 ( world)] TJ ET"
    runs = interpret_content(content)
    assert len(runs) == 1 and runs[0].text == "Hello world"


def test_interpret_tm_and_cm():
    content = b"q 1 0 0 1 10 20 cm BT 1 0 0 1 50 700 Tm (x) Tj ET Q"
    runs = interpret_content(content)
    assert runs[0].x == 60 and runs[0].y == 720


def test_inline_image_skipped():
    content = b"BT 1 0 0 1 50 700 Tm (a) Tj ET BI /W 1 /H 1 ID \xff\xfe EI BT 1 0 0 1 50 686 Tm (b) Tj ET"
    runs = interpret_content(content)
    assert [r.text for r in runs] == ["a", "b"]


def test_inline_image_data_containing_ei_bytes():
    # raw image bytes happen to contain "EI" NOT whitespace-delimited —
    # the skip must not terminate there (spec §8.9.7: EI is an operator,
    # hence whitespace-delimited)
    img = b"\x10EI\x20no(stray)EIx\xffEI\xfe"
    content = (b"BT (a) Tj ET BI /W 2 /H 2 /BPC 8 ID " + img +
               b" EI BT (b) Tj ET")
    runs = interpret_content(content)
    assert [r.text for r in runs] == ["a", "b"]


# ── end-to-end fixture round-trips ────────────────────────────────────

@pytest.mark.parametrize("seed", range(8))
def test_roundtrip_classic_xref(seed):
    rng = random.Random(seed)
    pdf, expected, n = make_pdf(rng, n_pages=rng.randrange(1, 5))
    r = extract_pdf_text(pdf)
    assert r.text == expected
    assert r.n_pages == n
    assert not r.fallback


@pytest.mark.parametrize("style", ["stream", "stream_pred"])
@pytest.mark.parametrize("seed", range(4))
def test_roundtrip_xref_stream(seed, style):
    rng = random.Random(100 + seed)
    pdf, expected, n = make_pdf(rng, n_pages=2, xref_style=style)
    r = extract_pdf_text(pdf)
    assert r.text == expected and r.n_pages == 2 and not r.fallback


@pytest.mark.parametrize("seed", range(4))
def test_roundtrip_objstm(seed):
    rng = random.Random(200 + seed)
    pdf, expected, n = make_pdf(rng, n_pages=1, xref_style="stream", use_objstm=True)
    assert b"/ObjStm" in pdf
    r = extract_pdf_text(pdf)
    assert r.text == expected and not r.fallback


def test_roundtrip_two_column():
    rng = random.Random(300)
    pdf, expected, _ = make_pdf(rng, n_pages=1, two_column=True)
    r = extract_pdf_text(pdf)
    assert r.text == expected
    # structural check: left column emitted before right column
    assert expected.index("\n") > 0


def test_roundtrip_multipage_large():
    rng = random.Random(400)
    pdf, expected, n = make_pdf(rng, n_pages=50)
    r = extract_pdf_text(pdf)
    assert r.text == expected and r.n_pages == 50


def test_broken_xref_salvage_sets_fallback():
    rng = random.Random(500)
    pdf, expected, _ = make_pdf(rng, n_pages=2, broken=True)
    r = extract_pdf_text(pdf)
    assert r.fallback
    assert r.text == expected  # salvage must still recover full text


def test_sucursal_text_survives_pdf_path():
    rng = random.Random(600)
    pdf, expected, _ = make_pdf(rng, n_pages=1, with_sucursal=True)
    r = extract_pdf_text(pdf)
    assert "ucursal" in r.text  # "Sucursal" or "sUcursal"
    assert r.text == expected


def test_fuzz_bytes_fail_safely():
    rng = random.Random(700)
    for _ in range(30):
        junk = bytes(rng.randrange(256) for _ in range(rng.randrange(10, 2000)))
        with pytest.raises(PdfError):
            extract_pdf_text(junk)
    # valid header + garbage body must also raise, not hang or crash
    with pytest.raises(PdfError):
        extract_pdf_text(b"%PDF-1.4\n" + bytes(1000))


def test_truncated_pdf_fails_safely():
    rng = random.Random(800)
    pdf, _, _ = make_pdf(rng, n_pages=2)
    for frac in (0.3, 0.6, 0.9):
        cut = pdf[: int(len(pdf) * frac)]
        try:
            extract_pdf_text(cut)  # salvage may succeed partially — fine
        except PdfError:
            pass  # failing safely is also fine; crashing/hanging is not


def test_broken_xref_with_objstm_salvage():
    # catalog compressed inside an /ObjStm AND startxref corrupted:
    # salvage must index ObjStm members (regression: seed-7 corpus rows)
    rng = random.Random(901)
    pdf, expected, _ = make_pdf(rng, n_pages=2, xref_style="stream",
                                use_objstm=True, broken=True)
    r = extract_pdf_text(pdf)
    assert r.fallback and r.text == expected


def test_encrypted_pdf_rejected_not_salvaged():
    rng = random.Random(950)
    pdf, _, _ = make_pdf(rng, n_pages=1)
    # splice an /Encrypt entry into the trailer dict
    pdf2 = pdf.replace(b"trailer\n<< ", b"trailer\n<< /Encrypt 99 0 R ")
    assert b"/Encrypt" in pdf2
    from pdf_to_text_ray.stages.pdf_extract import PdfEncryptedError
    with pytest.raises(PdfEncryptedError):
        extract_pdf_text(pdf2)


@pytest.mark.parametrize("variant,needle", [
    ("differences", "caf\xe9 ma\xf1ana"),
    ("winansi", "“quoted” dash — here"),
    ("macroman", "café • –— done"),
    ("tounicode", "go → ①②③"),
])
def test_font_encoding_variants(variant, needle):
    # /Differences glyph names, WinAnsiEncoding table, ToUnicode CMap
    rng = random.Random(1000)
    pdf, expected, _ = make_pdf(rng, n_pages=2, font_variant=variant)
    r = extract_pdf_text(pdf)
    assert needle in r.text
    assert r.text == expected


def test_font_variant_with_objstm_and_xref_stream():
    rng = random.Random(1001)
    pdf, expected, _ = make_pdf(rng, n_pages=1, font_variant="tounicode",
                                xref_style="stream", use_objstm=True)
    assert extract_pdf_text(pdf).text == expected


def test_incremental_update_prev_chain():
    # appended update replaces the page content; /Prev chain walked,
    # newest xref section wins (spec §7.5.6)
    from pdf_to_text_ray.fixtures.pdfgen import make_incremental_pdf

    rng = random.Random(1100)
    pdf, expected, _ = make_incremental_pdf(rng)
    assert pdf.count(b"%%EOF") == 2  # genuinely incremental
    r = extract_pdf_text(pdf)
    assert r.text == expected
    assert not r.fallback  # resolved via the xref chain, not salvage


def test_cid_type0_identity_h():
    # composite Type0 font, Identity-H: 2-byte codes through ToUnicode
    rng = random.Random(1200)
    pdf, expected, _ = make_pdf(rng, n_pages=1, font_variant="cid")
    r = extract_pdf_text(pdf)
    assert "Cid Text 中文" in r.text
    assert r.text == expected


def test_ascii85_and_runlength_filters():
    import base64

    from pdf_to_text_ray.stages.pdf_extract import _runlength_decode

    payload = b"BT 1 0 0 1 50 700 Tm (a85 works) Tj ET"
    enc = base64.a85encode(payload) + b"~>"
    assert decode_stream({"Filter": Name("ASCII85Decode")}, enc) == payload
    # RunLength: literal run + repeat run + EOD
    rl = bytes([2]) + b"abc" + bytes([257 - 4]) + b"x" + bytes([128])
    assert _runlength_decode(rl) == b"abc" + b"x" * 4
    assert decode_stream({"Filter": Name("RunLengthDecode")}, rl) == b"abcxxxx"
    # filter chains resolve in order
    chained = decode_stream(
        {"Filter": [Name("ASCII85Decode")]}, base64.a85encode(payload) + b"~>")
    assert chained == payload


def test_utf16be_text_string():
    # BOM-prefixed UTF-16BE literal (PDF text-string encoding, §7.9.2)
    payload = "﻿Unicode ✓ text".encode("utf-16-be")
    content = b"BT 1 0 0 1 50 700 Tm <" + payload.hex().encode() + b"> Tj ET"
    runs = interpret_content(content)
    assert runs[0].text == "Unicode ✓ text"


def test_nonfinite_coordinates_dropped():
    from pdf_to_text_ray.stages.reading_order import Run, page_text

    runs = [Run(50, 700, "keep"), Run(float("nan"), 700, "dropnan"),
            Run(50, float("inf"), "dropinf")]
    assert page_text(runs) == "keep"


def test_widths_based_advance():
    """/Widths + /FirstChar drive the x-advance of unpositioned
    sequential shows (spec 9.2.4/9.4.4)."""
    from pdf_to_text_ray.stages.pdf_extract import FontDecoder

    # A (65) is 0.5em, B (66) is 1.0em
    dec = FontDecoder(widths={65: 0.5, 66: 1.0})
    fonts = {"F1": dec}
    content = b"BT /F1 12 Tf 1 0 0 1 100 700 Tm (AB) Tj (C) Tj ET"
    runs = interpret_content(content, fonts)
    assert runs[0].x == 100
    # advance = (0.5 + 1.0) em * 12 = 18
    assert runs[1].x == 100 + 18


def test_char_and_word_spacing_advance():
    content = (b"BT /F1 10 Tf 2 Tc 5 Tw 1 0 0 1 0 700 Tm (a b) Tj (x) Tj ET")
    runs = interpret_content(content)
    # nominal 0.5em * 10 * 3 glyphs + Tc 2*3 + Tw 5*1 space = 15+6+5 = 26
    assert runs[1].x == 26


def test_quote_operator_sets_spacing():
    content = b'BT /F1 10 Tf 12 TL 1 0 0 1 0 700 Tm 4 2 (ab) " (z) Tj ET'
    runs = interpret_content(content)
    # " shows at the next line, then advance = 2*0.5*10 + 2*2 = 14
    assert runs[0].text == "ab" and runs[1].x == 14


# ── encryption (standard security handler, spec §7.6) ────────────────

class TestEncryption:
    def test_aes128_fips197_vector(self):
        from pdf_to_text_ray.stages.pdf_crypto import AES128

        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        ct = AES128(key).encrypt_block(pt)
        assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"
        assert AES128(key).decrypt_block(ct) == pt

    def test_rc4_vector(self):
        from pdf_to_text_ray.stages.pdf_crypto import rc4

        assert rc4(b"Key", b"Plaintext").hex() == "bbf316e8d940af0ad3"
        assert rc4(b"Key", rc4(b"Key", b"round trip")) == b"round trip"

    def test_cbc_roundtrip_and_padding(self):
        from pdf_to_text_ray.stages.pdf_crypto import (aes_cbc_decrypt,
                                                       aes_cbc_encrypt)

        key, iv = bytes(16), bytes(range(16))
        for n in (0, 1, 15, 16, 17, 100):
            msg = bytes(range(256))[:n]
            assert aes_cbc_decrypt(key, aes_cbc_encrypt(key, iv, msg)) == msg

    # "+owner" = owner-password-locked, empty USER password: spec
    # §7.6.3 — the document must still decrypt (the round-2 verdict's
    # untested tail); pdf.js opens these transparently, so do we
    @pytest.mark.parametrize("mode", ["rc4-40", "rc4-128", "aes-128",
                                      "rc4-128+owner", "aes-128+owner"])
    @pytest.mark.parametrize("xref_style", ["table", "stream"])
    def test_encrypted_byte_identity(self, mode, xref_style):
        import random

        from pdf_to_text_ray.fixtures.pdfgen import make_pdf

        for seed in (1, 5, 9):
            rng = random.Random(seed)
            data, expected, _ = make_pdf(
                rng, n_pages=2, xref_style=xref_style,
                use_objstm=(seed == 9), encrypt=mode)
            r = extract_pdf_text(data)
            assert r.text == expected
            assert not r.fallback

    def test_password_protected_raises(self):
        import random

        from pdf_to_text_ray.fixtures.pdfgen import make_pdf
        from pdf_to_text_ray.stages.pdf_extract import PdfEncryptedError

        rng = random.Random(3)
        data, _, _ = make_pdf(rng, encrypt="rc4-128")
        idx = data.find(b"/U <")
        bad = data[:idx + 4] + b"00112233445566778899aabbccddeeff" + data[idx + 36:]
        with pytest.raises(PdfEncryptedError):
            extract_pdf_text(bad)

    def test_unsupported_revision_raises(self):
        import random

        from pdf_to_text_ray.fixtures.pdfgen import make_pdf
        from pdf_to_text_ray.stages.pdf_extract import PdfEncryptedError

        rng = random.Random(4)
        data, _, _ = make_pdf(rng, encrypt="rc4-128")
        bad = data.replace(b"/V 2 /R 3", b"/V 5 /R 6")
        with pytest.raises(PdfEncryptedError):
            extract_pdf_text(bad)


# ── CID fonts with embedded CMap encodings (spec §9.7.5.3) ───────────

class TestCidCmap:
    def test_parse_cid_cmap(self):
        from pdf_to_text_ray.stages.pdf_extract import parse_cid_cmap

        data = (b"2 begincodespacerange\n<00> <7f>\n<8140> <fefe>\n"
                b"endcodespacerange\n"
                b"1 begincidrange\n<20> <7e> 1\nendcidrange\n"
                b"1 begincidchar\n<8140> 100\nendcidchar\n")
        cs, cids = parse_cid_cmap(data)
        assert cs == [(1, b"\x00", b"\x7f"), (2, b"\x81\x40", b"\xfe\xfe")]
        assert cids[0x20] == 1 and cids[0x7e] == 0x5f and cids[0x8140] == 100

    def test_variable_length_segmentation(self):
        from pdf_to_text_ray.stages.pdf_extract import FontDecoder

        dec = FontDecoder(
            {0x41: "A", 0x8140: "中"},
            codespaces=[(1, b"\x00", b"\x7f"), (2, b"\x81\x40", b"\xfe\xfe")])
        assert dec.decode(b"\x41\x81\x40\x41") == "A中A"
        # unmatched lead byte consumes one byte, fail-safe
        assert dec.decode(b"\x80\x41") == "�A"

    @pytest.mark.parametrize("xref_style", ["table", "stream"])
    @pytest.mark.parametrize("encrypt", [None, "aes-128"])
    def test_cid_cmap_byte_identity(self, xref_style, encrypt):
        import random

        from pdf_to_text_ray.fixtures.pdfgen import make_pdf

        for seed in (1, 4, 6):
            rng = random.Random(seed)
            data, expected, _ = make_pdf(rng, n_pages=2, xref_style=xref_style,
                                         font_variant="cid_cmap",
                                         encrypt=encrypt)
            r = extract_pdf_text(data)
            assert r.text == expected
            assert "中文字" in r.text


# ── DCTDecode filter (spec §7.4.8) ───────────────────────────────────

class TestDctDecode:
    def test_decode_stream_dct_samples(self):
        import numpy as np

        from pdf_to_text_ray.stages.jpeg_codec import encode_jpeg
        from pdf_to_text_ray.stages.pdf_extract import decode_stream

        img = np.full((16, 24, 3), 128, np.uint8)
        payload = encode_jpeg(img, quality=95)
        out = decode_stream({"Filter": "DCTDecode"}, payload)
        arr = np.frombuffer(out, np.uint8).reshape(16, 24, 3)
        assert np.abs(arr.astype(int) - 128).max() <= 3  # lossy but flat

    def test_decode_stream_dct_garbage_is_pdf_error(self):
        import pytest

        from pdf_to_text_ray.stages.pdf_extract import PdfError, decode_stream

        with pytest.raises(PdfError):
            decode_stream({"Filter": "DCTDecode"}, b"\xff\xd8not a jpeg")


# ── LZWDecode filter (spec §7.4.4) ───────────────────────────────────

class TestLzw:
    def test_roundtrip_cases(self):
        import os
        import random

        from pdf_to_text_ray.fixtures.pdfgen import _lzw_encode
        from pdf_to_text_ray.stages.pdf_extract import _lzw_decode

        rng = random.Random(7)
        cases = [b"", b"A", b"AAAAAAAA", b"-----A---B",
                 os.urandom(4096),             # incompressible
                 b"ab" * 4000,                  # width growth 9->12
                 b"lorem ipsum " * 2500,        # table reset at 4095
                 bytes(rng.randrange(4) for _ in range(20000))]
        for c in cases:
            assert _lzw_decode(_lzw_encode(c)) == c

    def test_kwkwk_and_width_pattern(self):
        from pdf_to_text_ray.stages.pdf_extract import _lzw_decode

        # the ISO 32000 §7.4.4 example structure (x*5, y, x*3, z):
        # prefix-growing codes + the KwKwK case
        enc = bytes.fromhex("800B6050220C0C8501")
        assert _lzw_decode(enc) == b"-----A---B"

    def test_lzw_pdf_byte_identity(self):
        import random

        from pdf_to_text_ray.fixtures.pdfgen import make_pdf

        for seed in (1, 3, 5):
            rng = random.Random(seed)
            data, expected, _ = make_pdf(rng, n_pages=2, compress="lzw")
            assert b"/LZWDecode" in data
            r = extract_pdf_text(data)
            assert r.text == expected


# ── CID /W width arrays (spec §9.7.4.3) ──────────────────────────────

class TestCidWidths:
    def _doc_with_cid_widths(self):
        import random

        from pdf_to_text_ray.fixtures.pdfgen import make_pdf
        from pdf_to_text_ray.stages.pdf_extract import PdfDocument

        rng = random.Random(2)
        data, _, _ = make_pdf(rng, font_variant="cid")
        # graft a DescendantFonts entry with /W onto the Type0 font
        data = data  # fixture has none; test the parser directly instead
        return PdfDocument(data)

    def test_w_array_parse_and_advance(self):
        from pdf_to_text_ray.stages.pdf_extract import FontDecoder

        # c [w...] run + c1 c2 w range, via the decoder directly
        cw = {0x20: 0.25, 0x21: 0.3, 100: 1.0, 101: 1.0}
        dec = FontDecoder({}, two_byte=True, cid_widths=cw, default_width=0.9)
        # codes 0x0020 (w 0.25) + 0x0064=100 (w 1.0) + 0x9999 (default 0.9)
        raw = (0x20).to_bytes(2, "big") + (100).to_bytes(2, "big") + (0x9999).to_bytes(2, "big")
        assert abs(dec.advance_em(raw) - (0.25 + 1.0 + 0.9)) < 1e-12
        # undeclared widths -> nominal estimate
        dec2 = FontDecoder({}, two_byte=True)
        assert dec2.advance_em(raw) == pytest.approx(3 * 0.5)

    def test_w_array_via_document(self):
        from pdf_to_text_ray.stages.pdf_extract import (PdfDocument,
                                                        build_font_decoder)
        import zlib

        # minimal doc exercising _cid_font_widths through resolve()
        body = []
        def obj(n, s): body.append(f"{n} 0 obj\n".encode() + s + b"\nendobj\n")
        cmap = zlib.compress(b"1 beginbfchar\n<0041> <0041>\nendbfchar\n")
        objs = {
            1: b"<< /Type /Catalog /Pages 2 0 R >>",
            2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
            3: b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] >>",
            4: (b"<< /Type /Font /Subtype /Type0 /BaseFont /X "
                b"/Encoding /Identity-H /DescendantFonts [5 0 R] >>"),
            5: (b"<< /Type /Font /Subtype /CIDFontType2 /BaseFont /X "
                b"/DW 800 /W [ 65 [ 500 600 ] 100 102 250 ] >>"),
        }
        out = bytearray(b"%PDF-1.7\n")
        offsets = {}
        for n in sorted(objs):
            offsets[n] = len(out)
            out += f"{n} 0 obj\n".encode() + objs[n] + b"\nendobj\n"
        xref_off = len(out)
        out += b"xref\n0 6\n0000000000 65535 f \n"
        for n in range(1, 6):
            out += f"{offsets[n]:010d} 00000 n \n".encode()
        out += (b"trailer\n<< /Size 6 /Root 1 0 R >>\nstartxref\n"
                + str(xref_off).encode() + b"\n%%EOF\n")
        doc = PdfDocument(bytes(out))
        dec = build_font_decoder(doc, doc.get_object(4))
        # CID 65 -> 0.5, 66 -> 0.6, 100..102 -> 0.25, others -> DW 0.8
        raw = (65).to_bytes(2, "big") + (66).to_bytes(2, "big") \
            + (101).to_bytes(2, "big") + (9999).to_bytes(2, "big")
        assert dec.advance_em(raw) == pytest.approx(0.5 + 0.6 + 0.25 + 0.8)

    def test_corrupt_ciphertext_is_typed_error(self):
        """Byte-flipped encrypted streams must surface as PdfError
        (parse_failure in the pipeline), not bare ValueError."""
        import random

        from pdf_to_text_ray.fixtures.pdfgen import make_pdf
        from pdf_to_text_ray.stages.pdf_extract import PdfError

        rng = random.Random(1)
        data, _, _ = make_pdf(rng, n_pages=2, encrypt="aes-128")
        buf = bytearray(data)
        stream_at = data.find(b"stream\n") + 7
        for k in range(24):
            buf[stream_at + k] ^= 0xA5
        try:
            extract_pdf_text(bytes(buf))
        except PdfError:
            pass  # typed (includes the decryption-failure wrap)


# ── AES-256 / V5 R6 (ISO 32000-2 §7.6.4) ─────────────────────────────

class TestAes256:
    def test_aes256_fips197_vector(self):
        from pdf_to_text_ray.stages.pdf_crypto import AES128

        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f"
                            "101112131415161718191a1b1c1d1e1f")
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        ct = AES128(key).encrypt_block(pt)
        assert ct.hex() == "8ea2b7ca516745bfeafc49904b496089"
        assert AES128(key).decrypt_block(ct) == pt

    def test_v5r6_byte_identity(self):
        """Empty-user-password V5/R6 documents decrypt transparently;
        the Algorithm-2.B hardened hash makes each open ~0.5s by
        design, so only two round-trips here (a wider sweep ran in
        development)."""
        import random

        from pdf_to_text_ray.fixtures.pdfgen import make_pdf

        for seed, xref in ((1, "table"), (5, "stream")):
            rng = random.Random(seed)
            data, expected, _ = make_pdf(rng, n_pages=2, xref_style=xref,
                                         encrypt="aes-256")
            r = extract_pdf_text(data)
            assert r.text == expected

    def test_v5_owner_locked_empty_user_decrypts(self):
        """V5/R6 owner-password-only document (non-empty owner, empty
        user): /O and /OE differ but the empty-user path via /U + /UE
        must still unwrap the file key (spec §7.6.3)."""
        import random

        from pdf_to_text_ray.fixtures.pdfgen import make_pdf

        rng = random.Random(7)
        data, expected, _ = make_pdf(rng, n_pages=1,
                                     encrypt="aes-256+owner")
        r = extract_pdf_text(data)
        assert r.text == expected

    def test_v5_tampered_u_rejected(self):
        import random

        from pdf_to_text_ray.fixtures.pdfgen import make_pdf
        from pdf_to_text_ray.stages.pdf_extract import PdfEncryptedError

        rng = random.Random(3)
        data, _, _ = make_pdf(rng, encrypt="aes-256")
        idx = data.find(b"/U <")
        bad = data[:idx + 4] + b"00" * 32 + data[idx + 4 + 64:]
        with pytest.raises(PdfEncryptedError):
            extract_pdf_text(bad)


def test_type3_font_differences_decode():
    """Type3 fonts ride the simple-font path: /Differences (+ToUnicode
    when present) map codes; /CharProcs glyph programs are irrelevant
    to text extraction."""
    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 5 0 R >> >> /Contents 4 0 R >>"),
        5: (b"<< /Type /Font /Subtype /Type3 /FontBBox [0 0 10 10] "
            b"/FontMatrix [0.01 0 0 0.01 0 0] /CharProcs << >> "
            b"/Encoding << /Differences [ 65 /eacute /ntilde ] >> "
            b"/FirstChar 65 /LastChar 66 /Widths [ 500 500 ] >>"),
    }
    content = b"BT /F1 12 Tf 1 0 0 1 50 700 Tm (cafAB) Tj ET\n"
    objs[4] = (b"<< /Length " + str(len(content)).encode()
               + b" >>\nstream\n" + content + b"\nendstream")
    out = bytearray(b"%PDF-1.7\n")
    offsets = {}
    for nn in sorted(objs):
        offsets[nn] = len(out)
        out += f"{nn} 0 obj\n".encode() + objs[nn] + b"\nendobj\n"
    xref_off = len(out)
    out += b"xref\n0 6\n0000000000 65535 f \n"
    for nn in range(1, 6):
        out += f"{offsets[nn]:010d} 00000 n \n".encode()
    out += (b"trailer\n<< /Size 6 /Root 1 0 R >>\nstartxref\n"
            + str(xref_off).encode() + b"\n%%EOF\n")
    assert extract_pdf_text(bytes(out)).text == "caféñ"


def test_predefined_cmap_codespace_segmentation():
    """A predefined CMap NAME (no embedded stream, ToUnicode without
    codespacerange): segmentation comes from the published codespace
    ranges of the named CMap family (mixed 1-/2-byte GBK shape)."""
    import zlib

    # ToUnicode WITHOUT codespacerange: segmentation must come from the
    # predefined-name table, not this stream
    tu = (b"1 beginbfrange\n<20> <7e> <0020>\nendbfrange\n"
          b"2 beginbfchar\n<8140> <4e2d>\n<8141> <6587>\nendbfchar\n")
    tuz = zlib.compress(tu)
    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 5 0 R >> >> /Contents 4 0 R >>"),
        5: (b"<< /Type /Font /Subtype /Type0 /BaseFont /Fake "
            b"/Encoding /GBK-EUC-H /ToUnicode 6 0 R >>"),
        6: (b"<< /Filter /FlateDecode /Length " + str(len(tuz)).encode()
            + b" >>\nstream\n" + tuz + b"\nendstream"),
    }
    codes = b"go " + b"\x81\x40\x81\x41" + b"!"
    content = (b"BT /F1 12 Tf 1 0 0 1 50 700 Tm <"
               + codes.hex().encode() + b"> Tj ET\n")
    objs[4] = (b"<< /Length " + str(len(content)).encode()
               + b" >>\nstream\n" + content + b"\nendstream")
    out = bytearray(b"%PDF-1.7\n")
    offsets = {}
    for nn in sorted(objs):
        offsets[nn] = len(out)
        out += f"{nn} 0 obj\n".encode() + objs[nn] + b"\nendobj\n"
    xref_off = len(out)
    out += b"xref\n0 7\n0000000000 65535 f \n"
    for nn in range(1, 7):
        out += f"{offsets[nn]:010d} 00000 n \n".encode()
    out += (b"trailer\n<< /Size 7 /Root 1 0 R >>\nstartxref\n"
            + str(xref_off).encode() + b"\n%%EOF\n")
    assert extract_pdf_text(bytes(out)).text == "go 中文!"


def test_predefined_codespace_table():
    from pdf_to_text_ray.stages.pdf_extract import _predefined_codespaces

    assert _predefined_codespaces("GBK-EUC-H") == [
        (1, b"\x00", b"\x80"), (2, b"\x81\x40", b"\xfe\xfe")]
    assert _predefined_codespaces("UniJIS-UCS2-V") == [
        (2, b"\x00\x00", b"\xff\xff")]
    assert _predefined_codespaces("90ms-RKSJ-H")[0][0] == 1
    assert _predefined_codespaces("NoSuch-CMap") is None


def test_cmap_word_spacing_single_byte_space_only():
    """Tw applies to the 1-byte code 32 in mixed-length CMap fonts
    (spec §9.3.3), never to 2-byte codes."""
    from pdf_to_text_ray.stages.pdf_extract import FontDecoder

    dec = FontDecoder(
        {0x20: " ", 0x41: "A", 0x8140: "中"},
        codespaces=[(1, b"\x00", b"\x7f"), (2, b"\x81\x40", b"\xfe\xfe")])
    pairs = dec._codes_len(b"A \x81\x40")
    assert pairs == [(0x41, 1), (0x20, 1), (0x8140, 2)]


def test_utf16_predefined_codespaces_surrogates():
    from pdf_to_text_ray.stages.pdf_extract import (FontDecoder,
                                                    _predefined_codespaces)

    cs = _predefined_codespaces("UniGB-UTF16-H")
    dec = FontDecoder({0x41: "A"}, codespaces=cs)
    # BMP 2-byte + a surrogate PAIR as one 4-byte code
    raw = b"\x00\x41" + b"\xd8\x3d\xde\x00" + b"\x00\x41"
    pairs = dec._codes_len(raw)
    assert [nb for _, nb in pairs] == [2, 4, 2]
    assert pairs[1][0] == 0xD83DDE00


def test_form_xobject_text_extracted():
    """Text painted via /XObject /Form + Do must extract (pdf.js does
    this transparently; spec §8.10). The form carries its own
    /Resources and a /Matrix translation; reading order should place
    the form's line between the page lines per its y position."""
    from pdf_to_text_ray.stages.pdf_extract import extract_pdf_text

    def obj(n, body):
        return f"{n} 0 obj\n".encode() + body + b"\nendobj\n"

    font = b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>"
    page_content = (b"BT /F1 12 Tf 72 700 Td (Top line) Tj ET\n"
                    b"q 1 0 0 1 0 0 cm /Fm1 Do Q\n"
                    b"BT /F1 12 Tf 72 600 Td (Bottom line) Tj ET")
    form_content = b"BT /F1 12 Tf 0 0 Td (Inside the form) Tj ET"
    # form Matrix translates to y=650 → between the two page lines
    parts = [b"%PDF-1.7\n"]
    parts.append(obj(1, b"<< /Type /Catalog /Pages 2 0 R >>"))
    parts.append(obj(2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>"))
    parts.append(obj(
        3, b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
           b"/Resources << /Font << /F1 4 0 R >> "
           b"/XObject << /Fm1 6 0 R >> >> /Contents 5 0 R >>"))
    parts.append(obj(4, font))
    parts.append(obj(5, f"<< /Length {len(page_content)} >>\nstream\n"
                  .encode() + page_content + b"\nendstream"))
    parts.append(obj(
        6, f"<< /Type /XObject /Subtype /Form /Matrix [1 0 0 1 72 650] "
           f"/Resources << /Font << /F1 4 0 R >> >> "
           f"/Length {len(form_content)} >>\nstream\n".encode()
           + form_content + b"\nendstream"))
    offsets = []
    pdf = b""
    for part in parts:
        if part != parts[0]:
            offsets.append(len(pdf))
        pdf += part
    xref_pos = len(pdf)
    xref = b"xref\n0 7\n0000000000 65535 f \n" + b"".join(
        f"{off:010d} 00000 n \n".encode() for off in offsets)
    pdf += xref + (b"trailer\n<< /Size 7 /Root 1 0 R >>\nstartxref\n"
                   + str(xref_pos).encode() + b"\n%%EOF\n")

    r = extract_pdf_text(pdf)
    assert r.text == "Top line\nInside the form\nBottom line", repr(r.text)
    assert r.n_pages == 1 and not r.fallback


def _one_page_pdf(font_body: bytes, content: bytes) -> bytes:
    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 5 0 R >> >> /Contents 4 0 R >>"),
        4: (b"<< /Length " + str(len(content)).encode()
            + b" >>\nstream\n" + content + b"\nendstream"),
        5: font_body,
    }
    out = bytearray(b"%PDF-1.7\n")
    offsets = {}
    for nn in sorted(objs):
        offsets[nn] = len(out)
        out += f"{nn} 0 obj\n".encode() + objs[nn] + b"\nendobj\n"
    xref_off = len(out)
    out += b"xref\n0 6\n0000000000 65535 f \n"
    for nn in range(1, 6):
        out += f"{offsets[nn]:010d} 00000 n \n".encode()
    out += (b"trailer\n<< /Size 6 /Root 1 0 R >>\nstartxref\n"
            + str(xref_off).encode() + b"\n%%EOF\n")
    return bytes(out)


def test_predefined_cmap_without_tounicode_decodes_via_charset():
    """A Type0 font naming /GBK-EUC-H with NO ToUnicode: the CMap's
    codes are GBK byte sequences, so the charset-backed path recovers
    the exact text (it used to degrade-and-count before the charset
    mapping landed); never raises."""
    pdf = _one_page_pdf(
        b"<< /Type /Font /Subtype /Type0 /BaseFont /Fake "
        b"/Encoding /GBK-EUC-H >>",
        b"BT /F1 12 Tf 1 0 0 1 50 700 Tm <8140b0a1> Tj ET\n")
    r = extract_pdf_text(pdf)
    assert r.text == b"\x81\x40\xb0\xa1".decode("gbk")  # 丂啊
    assert not r.fallback
    assert r.n_pages == 1


def test_ucs2_predefined_cmap_identity_decodes():
    """Uni*-UCS2 CMaps: the character code IS the UCS-2 value, so text
    extracts exactly with no ToUnicode at all (and is NOT counted as a
    fallback — nothing degraded)."""
    pdf = _one_page_pdf(
        b"<< /Type /Font /Subtype /Type0 /BaseFont /Fake "
        b"/Encoding /UniJIS-UCS2-H >>",
        b"BT /F1 12 Tf 1 0 0 1 50 700 Tm <4e2d658700200041> Tj ET\n")
    r = extract_pdf_text(pdf)
    assert r.text == "中文 A"
    assert not r.fallback


def test_utf16_predefined_cmap_surrogate_pairs_decode():
    """Uni*-UTF16 CMaps: 4-byte surrogate-pair codes decode to their
    supplementary-plane character (U+20BB7 here)."""
    pdf = _one_page_pdf(
        b"<< /Type /Font /Subtype /Type0 /BaseFont /Fake "
        b"/Encoding /UniJIS2004-UTF16-H >>",
        b"BT /F1 12 Tf 1 0 0 1 50 700 Tm <0041d842dfb70042> Tj ET\n")
    r = extract_pdf_text(pdf)
    assert r.text == "A\U00020BB7B"
    assert not r.fallback


@pytest.mark.parametrize("seed", range(3))
def test_roundtrip_ucs2_cmap_variant(seed):
    """Corpus font variant 'ucs2_cmap': a predefined /UniJIS-UCS2-H
    Type0 font with NO ToUnicode round-trips byte-identically via the
    identity decode."""
    rng = random.Random(seed)
    pdf, expected, _ = make_pdf(rng, n_pages=2, font_variant="ucs2_cmap")
    r = extract_pdf_text(pdf)
    assert r.text == expected and not r.fallback


def test_cross_feature_conformance_sweep():
    """Randomized byte-identity sweep across the FULL feature cross
    product — xref styles (incl. hybrid), ObjStm, every font variant
    (Type3, RKSJ/GBK charset CMaps, vertical columns, MacRoman, …),
    RC4/AES encryption incl. owner-locks, Flate/LZW/uncompressed,
    two-column layouts and Form XObjects — the combinations the
    per-feature tests don't pairwise-cover."""
    import itertools
    rng_master = random.Random(20260818)
    styles = ["table", "stream", "stream_pred", "hybrid"]
    variants = ["standard", "differences", "winansi", "macroman",
                "tounicode", "cid", "cid_cmap", "ucs2_cmap", "type3",
                "rksj_cmap", "rksj_msp_cmap", "rksj_add_cmap",
                "vertical_cid"]
    encrypts = [None, None, "rc4-40", "rc4-128", "aes-128",
                "rc4-128+owner", "aes-128+owner"]
    for i in range(48):
        rng = random.Random(rng_master.randrange(1 << 30))
        kwargs = dict(
            n_pages=rng.randrange(1, 4),
            xref_style=rng.choice(styles),
            use_objstm=rng.random() < 0.5,
            font_variant=rng.choice(variants),
            encrypt=rng.choice(encrypts),
            compress=rng.choice([True, True, "lzw", False]),
            two_column=rng.random() < 0.3,
            with_form=rng.random() < 0.3,
        )
        pdf, expected, _ = make_pdf(rng, **kwargs)
        r = extract_pdf_text(pdf)
        assert r.text == expected, f"sweep draw {i}: {kwargs}"
        assert not r.fallback, f"sweep draw {i} fell back: {kwargs}"


# ── hybrid-reference files (spec §7.5.8.4) ────────────────────────────

@pytest.mark.parametrize("seed", range(3))
def test_hybrid_reference_file_roundtrip(seed):
    """Corpus xref style 'hybrid': a PDF-1.4-style table whose trailer
    points at an xref STREAM via /XRefStm; the catalog/pages/font live
    in an ObjStm and are FREE in the table — only the stream's type-2
    entries reach them. Must resolve via /XRefStm, not salvage."""
    rng = random.Random(seed)
    pdf, expected, _ = make_pdf(rng, n_pages=2, xref_style="hybrid")
    tbl = pdf[pdf.rfind(b"\nxref\n"):]
    assert b"/XRefStm" in pdf
    assert tbl.count(b"65535 f") >= 4  # obj 0 + the hidden members
    r = extract_pdf_text(pdf)
    assert r.text == expected
    assert not r.fallback


def test_hybrid_reference_file_encrypted():
    rng = random.Random(9)
    pdf, expected, _ = make_pdf(rng, n_pages=1, xref_style="hybrid",
                                encrypt="aes-128", font_variant="cid")
    r = extract_pdf_text(pdf)
    assert r.text == expected and not r.fallback


def test_hybrid_bogus_xrefstm_degrades_to_salvage():
    """A corrupt /XRefStm offset must not crash: the table alone cannot
    reach the ObjStm members, so extraction recovers via the salvage
    scan and counts the fallback."""
    import re as _re
    rng = random.Random(11)
    pdf, expected, _ = make_pdf(rng, n_pages=1, xref_style="hybrid")
    pdf2 = _re.sub(rb"/XRefStm \d+", b"/XRefStm 999999999", pdf)
    assert pdf2 != pdf
    r = extract_pdf_text(pdf2)
    assert r.text == expected  # salvage finds the same objects
    assert r.fallback


# ── charset-backed predefined CMaps (spec §9.7.5.2) ───────────────────

@pytest.mark.parametrize("cmap,codec,text", [
    ("90ms-RKSJ-H", "cp932", "Mix 日本語テキスト ｶﾀｶﾅ ok"),
    ("90msp-RKSJ-V", "cp932", "縦書き text"),
    ("GBK-EUC-H", "gbk", "mix 中文字 ok"),
    ("ETen-B5-H", "big5", "mix 中文字 ok"),
    ("HKscs-B5-H", "big5hkscs", "mix 中文 ok"),
    ("KSCms-UHC-H", "cp949", "mix 한국어 ok"),
    ("KSC-EUC-H", "euc_kr", "mix 한국어 ok"),
    ("EUC-H", "euc_jp", "mix 日本語 ｶﾅ ok"),
    ("GB-EUC-H", "gb2312", "mix 中文 ok"),
    ("GBK2K-H", "gb18030", "mix 中文𠀀 ok"),  # incl. a 4-byte code
])
def test_charset_backed_predefined_cmaps(cmap, codec, text):
    """Non-Unicode predefined CMaps over a legacy charset (RKSJ → cp932,
    GBK-EUC → gbk, ETen-B5 → big5, KSCms-UHC → cp949, …) with NO
    ToUnicode decode exactly: each code's bytes ARE a charset sequence,
    so the stdlib codec reproduces the registry code→CID→Unicode
    assignment. No fallback counting for these families."""
    codes = text.encode(codec)
    pdf = _one_page_pdf(
        ("<< /Type /Font /Subtype /Type0 /BaseFont /Fake "
         f"/Encoding /{cmap} >>").encode(),
        b"BT /F1 12 Tf 1 0 0 1 50 700 Tm <" + codes.hex().encode()
        + b"> Tj ET\n")
    r = extract_pdf_text(pdf)
    assert r.text == text
    assert not r.fallback


def test_codespace_match_is_per_byte_not_lexicographic():
    """Spec §9.7.6.2: a code matches a codespace range only if EACH
    byte is between the corresponding bound bytes. <95 32 82 36> in
    GB18030 must segment as ONE 4-byte code (second byte 0x32 is
    outside the 2-byte range's 0x40-0xFE band) even though <95 32>
    sorts lexicographically inside <81 40>-<FE FE>."""
    from pdf_to_text_ray.stages.pdf_extract import FontDecoder
    dec = FontDecoder(codespaces=[
        (1, b"\x00", b"\x80"),
        (2, b"\x81\x40", b"\xfe\xfe"),
        (4, b"\x81\x30\x81\x30", b"\xfe\x39\xfe\x39"),
    ])
    assert dec._codes_len(b"\x95\x32\x82\x36") == [(0x95328236, 4)]
    assert dec._codes_len(b"\x81\x40") == [(0x8140, 2)]
    # second byte below the 2-byte band and not a valid 4-byte shape:
    # fail-safe single-byte consumption, not a bogus 2-byte match
    assert dec._codes_len(b"\x82\x20") == [(-1, 1), (0x20, 1)]


@pytest.mark.parametrize("seed", range(3))
def test_roundtrip_rksj_cmap_variant(seed):
    """Corpus font variant 'rksj_cmap': predefined /90ms-RKSJ-H with no
    ToUnicode round-trips byte-identically via the cp932 decode."""
    rng = random.Random(seed)
    pdf, expected, _ = make_pdf(rng, n_pages=2, font_variant="rksj_cmap")
    r = extract_pdf_text(pdf)
    assert "日本語" in r.text
    assert r.text == expected and not r.fallback


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("variant,needle", [
    ("rksj_msp_cmap", "変種"),   # /90msp-RKSJ-H proportional variant
    ("rksj_add_cmap", "①"),     # /Add-RKSJ-H NEC Row-13 specials
])
def test_roundtrip_rksj_print_variants(variant, needle, seed):
    """NEC/proportional RKSJ print variants (90msp-RKSJ-H, Add-RKSJ-H)
    decode byte-identically through the cp932 charset-backed path —
    cp932 is Microsoft's superset of exactly the NEC Row-13 / IBM
    extensions those variants add over JIS X 0208."""
    rng = random.Random(seed)
    pdf, expected, _ = make_pdf(rng, n_pages=2, font_variant=variant)
    r = extract_pdf_text(pdf)
    assert needle in r.text
    assert r.text == expected and not r.fallback


def test_print_variant_cmap_still_degrades_and_counts():
    """Mac print-variant families (90pv/83pv-RKSJ, GBpc-EUC, B5pc)
    have no exact stdlib charset twin: they keep the degrade-and-count
    path — no text invented, fallback flagged, never a crash."""
    for enc in (b"/90pv-RKSJ-H", b"/83pv-RKSJ-H", b"/GBpc-EUC-H",
                b"/B5pc-H"):
        pdf = _one_page_pdf(
            b"<< /Type /Font /Subtype /Type0 /BaseFont /Fake "
            b"/Encoding " + enc + b" >>",
            b"BT /F1 12 Tf 1 0 0 1 50 700 Tm <8140> Tj ET\n")
        r = extract_pdf_text(pdf)
        assert r.fallback, enc


# ── vertical writing mode (spec §9.7.4.1 WMode 1) ─────────────────────

@pytest.mark.parametrize("seed", range(3))
def test_roundtrip_vertical_cid_variant(seed):
    """Corpus font variant 'vertical_cid': an Identity-V font's
    consecutive shows stack DOWN the page (one em per glyph, the /DW2
    default) — the upper show must come first in reading order."""
    rng = random.Random(seed)
    pdf, expected, _ = make_pdf(rng, n_pages=2, font_variant="vertical_cid")
    r = extract_pdf_text(pdf)
    assert r.text == expected and not r.fallback
    assert r.text.find("縦書 col") < r.text.find("second part")


def test_vertical_wmode_from_embedded_cmap():
    """An embedded CMap stream declaring /WMode 1 triggers vertical
    advance just like a -V CMap name."""
    import zlib
    cmap = zlib.compress(
        b"begincmap\n1 begincodespacerange\n<0000> <ffff>\n"
        b"endcodespacerange\nendcmap\n")
    tu = zlib.compress(
        b"begincmap\n1 beginbfrange\n<0020> <007e> <0020>\nendbfrange\n"
        b"endcmap\n")
    objs = (
        b"<< /Type /Font /Subtype /Type0 /BaseFont /F "
        b"/Encoding 6 0 R /ToUnicode 7 0 R >>")
    # build via _one_page_pdf-style assembly with two extra streams
    content = (b"BT /F1 12 Tf 1 0 0 1 300 700 Tm <00610062> Tj "
               b"<0063> Tj ET\n")
    body = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 5 0 R >> >> /Contents 4 0 R >>"),
        4: (b"<< /Length " + str(len(content)).encode()
            + b" >>\nstream\n" + content + b"\nendstream"),
        5: objs,
        6: (b"<< /Type /CMap /WMode 1 /Filter /FlateDecode /Length "
            + str(len(cmap)).encode() + b" >>\nstream\n" + cmap
            + b"\nendstream"),
        7: (b"<< /Filter /FlateDecode /Length " + str(len(tu)).encode()
            + b" >>\nstream\n" + tu + b"\nendstream"),
    }
    out = bytearray(b"%PDF-1.7\n")
    offsets = {}
    for nn in sorted(body):
        offsets[nn] = len(out)
        out += f"{nn} 0 obj\n".encode() + body[nn] + b"\nendobj\n"
    xref_off = len(out)
    out += b"xref\n0 8\n0000000000 65535 f \n"
    for nn in range(1, 8):
        out += f"{offsets[nn]:010d} 00000 n \n".encode()
    out += (b"trailer\n<< /Size 8 /Root 1 0 R >>\nstartxref\n"
            + str(xref_off).encode() + b"\n%%EOF\n")
    r = extract_pdf_text(bytes(out))
    # "ab" at y=700, then "c" one show lower (2 glyphs × 12 = 24 below):
    # separate lines, top-down order
    assert r.text == "ab\nc"


def test_vertical_tj_kern_moves_down_the_page():
    """In writing mode 1, TJ kern numbers adjust the VERTICAL
    coordinate (spec §9.4.3): a positive kern tightens the downward
    advance; the column still reads top-to-bottom."""
    import zlib
    tu = zlib.compress(
        b"begincmap\n1 beginbfrange\n<0020> <007e> <0020>\nendbfrange\n"
        b"endcmap\n")
    content = (b"BT /F1 12 Tf 1 0 0 1 300 700 Tm "
               b"[<0061> -500 <0062>] TJ <0063> Tj ET\n")
    body = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 5 0 R >> >> /Contents 4 0 R >>"),
        4: (b"<< /Length " + str(len(content)).encode()
            + b" >>\nstream\n" + content + b"\nendstream"),
        5: (b"<< /Type /Font /Subtype /Type0 /BaseFont /F "
            b"/Encoding /Identity-V /ToUnicode 6 0 R >>"),
        6: (b"<< /Filter /FlateDecode /Length " + str(len(tu)).encode()
            + b" >>\nstream\n" + tu + b"\nendstream"),
    }
    out = bytearray(b"%PDF-1.7\n")
    offsets = {}
    for nn in sorted(body):
        offsets[nn] = len(out)
        out += f"{nn} 0 obj\n".encode() + body[nn] + b"\nendobj\n"
    xref_off = len(out)
    out += b"xref\n0 7\n0000000000 65535 f \n"
    for nn in range(1, 7):
        out += f"{offsets[nn]:010d} 00000 n \n".encode()
    out += (b"trailer\n<< /Size 7 /Root 1 0 R >>\nstartxref\n"
            + str(xref_off).encode() + b"\n%%EOF\n")
    r = extract_pdf_text(bytes(out))
    assert r.text == "ab\nc" and not r.fallback


# ── Type3 glyph-procedure fonts (spec §9.6.5) ─────────────────────────

def test_glyph_name_to_unicode_algorithm():
    """Adobe 'Unicode and Glyph Names' algorithm: AGL lookup, uniXXXX
    (multi-unit UTF-16BE), uXXXX-uXXXXXX, .suffix strip, _ ligatures;
    unknown names and lone surrogates map to None."""
    from pdf_to_text_ray.stages.pdf_extract import glyph_name_to_unicode as g
    assert g("eacute") == "é"
    assert g("three") == "3"
    assert g("uni4E2D") == "中"
    assert g("uni00480065") == "He"      # two UTF-16BE units
    assert g("u6587") == "文"
    assert g("u1F600") == "\U0001F600"   # 5-hex-digit code point
    assert g("eacute.sc") == "é"         # variant suffix stripped
    assert g("f_i") == "fi"              # ligature components
    assert g("uniD800") is None          # lone surrogate
    assert g("glyph42") is None          # private name: no mapping
    assert g("uni4E2") is None           # not a multiple of 4 hex digits
    assert g("") is None


@pytest.mark.parametrize("seed", range(3))
def test_roundtrip_type3_variant(seed):
    """Corpus font variant 'type3': text recovered purely from
    /Differences glyph names (AGL + uniXXXX/uXXXX forms), widths in
    glyph space scaled by /FontMatrix."""
    rng = random.Random(seed)
    pdf, expected, _ = make_pdf(rng, n_pages=2, font_variant="type3")
    r = extract_pdf_text(pdf)
    assert "Type3 font works 中文 ok" in r.text
    assert r.text == expected and not r.fallback


def test_type3_variant_through_objstm_and_encryption():
    rng = random.Random(31)
    pdf, expected, _ = make_pdf(rng, n_pages=1, font_variant="type3",
                                xref_style="stream", use_objstm=True,
                                encrypt="aes-128")
    r = extract_pdf_text(pdf)
    assert r.text == expected and not r.fallback


def test_type3_fontmatrix_scales_widths():
    """Type3 /Widths are glyph-space values mapped by /FontMatrix
    (0.01 here → width 50 = 0.5 em); the /1000 convention of simple
    fonts must NOT apply."""
    from pdf_to_text_ray.stages.pdf_extract import (PdfDocument,
                                                    build_font_decoder)
    pdf = _one_page_pdf(
        b"<< /Type /Font /Subtype /Type3 /FontBBox [0 0 100 100] "
        b"/FontMatrix [0.01 0 0 0.01 0 0] /CharProcs << >> "
        b"/Encoding << /Differences [ 65 /A ] >> "
        b"/FirstChar 65 /LastChar 66 /Widths [ 50 75 ] >>",
        b"BT /F1 12 Tf 1 0 0 1 50 700 Tm (A) Tj ET\n")
    doc = PdfDocument(pdf)
    font = doc.resolve(doc.resolve(doc.resolve(
        doc.pages()[0]["Resources"])["Font"])["F1"])
    dec = build_font_decoder(doc, font)
    assert dec.widths == {65: 0.5, 66: 0.75}
    assert dec.decode(b"A") == "A"


def test_type3_without_text_mapping_degrades_not_crashes():
    """A Type3 font with no /Differences-derivable names and no
    ToUnicode cannot yield true text without rendering /CharProcs: the
    document extracts via the charcode-identity fallback (what pdf.js
    emits for unicode-less glyphs) and is COUNTED as a fallback."""
    pdf = _one_page_pdf(
        b"<< /Type /Font /Subtype /Type3 /FontBBox [0 0 100 100] "
        b"/FontMatrix [0.001 0 0 0.001 0 0] /CharProcs << >> "
        b"/Encoding << /Differences [ 65 /g1 /g2 ] >> >>",
        b"BT /F1 12 Tf 1 0 0 1 50 700 Tm (AB) Tj ET\n")
    r = extract_pdf_text(pdf)
    assert r.fallback
    assert "AB" in r.text  # charcode identity, flagged as degraded
