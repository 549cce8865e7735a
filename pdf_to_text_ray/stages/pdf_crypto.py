"""PDF standard security handler (ISO 32000-1 §7.6) — from scratch.

Supports what the web actually contains: documents encrypted with the
*empty user password* (readable by any viewer — the reference's pdf.js
decrypts them transparently via ``getDocumentProxy``,
/root/reference/src/main.ts:149). Algorithms:

- RC4 ("V2" crypt filter; V=1/2, R=2/3) — §7.6.2, Algorithm 1
- AES-128-CBC ("AESV2" crypt filter; V=4, R=4) — §7.6.2, with the
  16-byte IV prefix and PKCS#7 padding
- AES-256-CBC ("AESV3" crypt filter; V=5, R=5/6) — ISO 32000-2
  §7.6.4: Algorithm 2.B hardened hash, /U//UE file-key unwrap, the
  256-bit file key used directly (no per-object derivation)
- key derivation / user-password authentication — §7.6.3.3
  Algorithms 2, 4, 5 (+2.A/2.B for V5); owner/U/UE/O/OE/Perms entries
  (Algorithms 3, 8, 9, 10) implemented for the fixture generator

Password-protected documents (empty-user-password check fails) and
unsupported handlers (public-key, crypt-filter exotica) raise
``PdfEncryptedError`` — terminal, never salvage.

Both directions (decrypt for the extractor, encrypt for
fixtures/pdfgen.py) are implemented so golden tests are
round-trip-by-construction. Pure Python: RC4/AES here run only on the
rare encrypted tail of a corpus, not the hot path.
"""

from __future__ import annotations

import hashlib
import struct


class PdfEncryptedError(Exception):
    """Raised via stages.pdf_extract (re-exported there); defined here
    too so the crypto layer has no import cycle."""


class PdfPubSecError(PdfEncryptedError):
    """Certificate (public-key) security handler (spec §7.6.4:
    /Adobe.PubSec, /Adobe.PPKLite, /Adobe.PPKMS) — decryption needs a
    recipient private key that a crawl pipeline cannot have, so these
    documents quarantine under their OWN error_kind (the exception
    class name), distinguishing 'needs a certificate' from
    'password-protected' for reprocessing routers."""


#: Known public-key (certificate) security handler /Filter names.
# Recipient RSA private keys [(n, d), ...] for the public-key
# (certificate) security handler — spec §7.6.4. A crawl pipeline has
# none (documents quarantine as PdfPubSecError); a consumer holding
# the recipient certificate registers its key here (or passes
# recipient_keys=) and such documents decrypt like any other.
RECIPIENT_KEYS: list[tuple[int, int]] = []

PUBKEY_HANDLERS = frozenset({"Adobe.PubSec", "Adobe.PPKLite",
                             "Adobe.PPKMS"})


_PAD = bytes([
    0x28, 0xBF, 0x4E, 0x5E, 0x4E, 0x75, 0x8A, 0x41, 0x64, 0x00, 0x4E, 0x56,
    0xFF, 0xFA, 0x01, 0x08, 0x2E, 0x2E, 0x00, 0xB6, 0xD0, 0x68, 0x3E, 0x80,
    0x2F, 0x0C, 0xA9, 0xFE, 0x64, 0x53, 0x69, 0x7A,
])


def rc4(key: bytes, data: bytes) -> bytes:
    """Classic RC4 (KSA + PRGA). Symmetric: encrypt == decrypt."""
    S = list(range(256))
    j = 0
    klen = len(key)
    for i in range(256):
        j = (j + S[i] + key[i % klen]) & 0xFF
        S[i], S[j] = S[j], S[i]
    out = bytearray(len(data))
    i = j = 0
    for idx, ch in enumerate(data):
        i = (i + 1) & 0xFF
        j = (j + S[i]) & 0xFF
        S[i], S[j] = S[j], S[i]
        out[idx] = ch ^ S[(S[i] + S[j]) & 0xFF]
    return bytes(out)


# ── AES-128 (FIPS-197) ───────────────────────────────────────────────

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]
_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(a: int) -> int:
    a <<= 1
    return (a ^ 0x1B) & 0xFF if a & 0x100 else a


def _gmul(a: int, b: int) -> int:
    p = 0
    while b:
        if b & 1:
            p ^= a
        a = _xtime(a)
        b >>= 1
    return p


class AES128:
    """AES block cipher (FIPS-197), 128- or 256-bit keys,
    list-of-16-bytes column-major state. (Name kept from the AES-128
    original; AES-256 support — Nk=8, Nr=14, the extra SubWord step —
    was added for the V5/R6 handler.)"""

    def __init__(self, key: bytes):
        if len(key) not in (16, 32):
            raise ValueError("AES needs a 16- or 32-byte key")
        nk = len(key) // 4
        self.n_rounds = nk + 6
        w = [list(key[i:i + 4]) for i in range(0, len(key), 4)]
        for i in range(nk, 4 * (self.n_rounds + 1)):
            t = list(w[i - 1])
            if i % nk == 0:
                t = t[1:] + t[:1]
                t = [_SBOX[b] for b in t]
                t[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                t = [_SBOX[b] for b in t]
            w.append([w[i - nk][j] ^ t[j] for j in range(4)])
        self.round_keys = [sum(w[4 * r:4 * r + 4], [])
                           for r in range(self.n_rounds + 1)]

    @staticmethod
    def _add_round_key(s, rk):
        return [s[i] ^ rk[i] for i in range(16)]

    def encrypt_block(self, block: bytes) -> bytes:
        s = self._add_round_key(list(block), self.round_keys[0])
        for rnd in range(1, self.n_rounds + 1):
            s = [_SBOX[b] for b in s]
            # ShiftRows on the column-major flat layout (byte (r,c) at
            # index 4c+r): new[4c+r] = old[4((c+r)%4)+r]
            s = [s[(4 * (c + r) + r) % 16] for c in range(4) for r in range(4)]
            if rnd < self.n_rounds:
                s = self._mix_columns(s)
            s = self._add_round_key(s, self.round_keys[rnd])
        return bytes(s)

    @staticmethod
    def _mix_columns(s):
        out = [0] * 16
        for c in range(4):
            col = s[4 * c:4 * c + 4]
            out[4 * c + 0] = _gmul(col[0], 2) ^ _gmul(col[1], 3) ^ col[2] ^ col[3]
            out[4 * c + 1] = col[0] ^ _gmul(col[1], 2) ^ _gmul(col[2], 3) ^ col[3]
            out[4 * c + 2] = col[0] ^ col[1] ^ _gmul(col[2], 2) ^ _gmul(col[3], 3)
            out[4 * c + 3] = _gmul(col[0], 3) ^ col[1] ^ col[2] ^ _gmul(col[3], 2)
        return out

    @staticmethod
    def _inv_mix_columns(s):
        out = [0] * 16
        for c in range(4):
            col = s[4 * c:4 * c + 4]
            out[4 * c + 0] = (_gmul(col[0], 14) ^ _gmul(col[1], 11)
                              ^ _gmul(col[2], 13) ^ _gmul(col[3], 9))
            out[4 * c + 1] = (_gmul(col[0], 9) ^ _gmul(col[1], 14)
                              ^ _gmul(col[2], 11) ^ _gmul(col[3], 13))
            out[4 * c + 2] = (_gmul(col[0], 13) ^ _gmul(col[1], 9)
                              ^ _gmul(col[2], 14) ^ _gmul(col[3], 11))
            out[4 * c + 3] = (_gmul(col[0], 11) ^ _gmul(col[1], 13)
                              ^ _gmul(col[2], 9) ^ _gmul(col[3], 14))
        return out

    def decrypt_block(self, block: bytes) -> bytes:
        s = self._add_round_key(list(block), self.round_keys[self.n_rounds])
        for rnd in range(self.n_rounds - 1, -1, -1):
            # InvShiftRows: new[4c+r] = old[4((c-r)%4)+r]
            s = [s[(4 * (c - r) + r) % 16] for c in range(4) for r in range(4)]
            s = [_INV_SBOX[b] for b in s]
            s = self._add_round_key(s, self.round_keys[rnd])
            if rnd > 0:
                s = self._inv_mix_columns(s)
        return bytes(s)


def aes_cbc_encrypt(key: bytes, iv: bytes, data: bytes) -> bytes:
    """PKCS#7-padded CBC encrypt; returns iv || ciphertext (the PDF
    stream layout, §7.6.2)."""
    cipher = AES128(key)
    pad = 16 - (len(data) % 16)
    data = data + bytes([pad]) * pad
    out = bytearray(iv)
    prev = iv
    for i in range(0, len(data), 16):
        block = bytes(a ^ b for a, b in zip(data[i:i + 16], prev))
        prev = cipher.encrypt_block(block)
        out += prev
    return bytes(out)


# ── numpy-vectorized decrypt path ────────────────────────────────────
# CBC DECRYPT parallelizes across blocks (ECB-decrypt all ciphertext
# blocks at once, then XOR with the shifted ciphertext); the scalar
# path above would cost ~100 µs/block in pure Python — ~200× too slow
# for the corpus pipeline's encrypted tail.

import numpy as np

_SBOX_NP = np.array(_SBOX, dtype=np.uint8)
_INV_SBOX_NP = np.array(_INV_SBOX, dtype=np.uint8)
_GF_T = {m: np.array([_gmul(x, m) for x in range(256)], dtype=np.uint8)
         for m in (9, 11, 13, 14)}
# InvShiftRows on the column-major flat layout (byte (r,c) at 4c+r),
# shaped [column, row]: new[c][r] = old[4((c-r)%4)+r]
_INV_SHIFT_IDX = np.array(
    [[(4 * (c - r) + r) % 16 for r in range(4)] for c in range(4)], dtype=np.intp)
# Table-driven equivalent inverse cipher (FIPS-197 §5.3.5): _TD[r][x] is
# the column (little-endian uint32, row i in byte i) that InvSubBytes
# then InvMixColumns make of byte x in row r. A round is one
# InvShiftRows gather, 16 lookups XORed per block and a round key that
# went through InvMixColumns once per call.
_INV_MIX = ((14, 11, 13, 9), (9, 14, 11, 13), (13, 9, 14, 11), (11, 13, 9, 14))
_TD = np.array([sum(_GF_T[_INV_MIX[i][r]][_INV_SBOX_NP].astype("<u4") << 8 * i
                    for i in range(4)) for r in range(4)])
_ROWS = np.arange(4)


def _aes_ecb_decrypt_blocks(cipher: AES128, blocks: np.ndarray) -> np.ndarray:
    nr = cipher.n_rounds
    rk = np.array(cipher.round_keys, dtype=np.uint8)
    # InvMixColumns of the inner round keys (SubBytes undoes the tables'
    # InvSubBytes)
    dk = np.bitwise_xor.reduce(
        _TD[_ROWS, _SBOX_NP[rk[1:nr]].reshape(-1, 4, 4)], axis=2)
    s = np.empty((len(blocks), 4), "<u4")  # state columns
    s8 = s.view(np.uint8)
    np.bitwise_xor(blocks, rk[nr], out=s8)
    for rnd in range(nr - 1, 0, -1):
        np.bitwise_xor.reduce(_TD[_ROWS, s8[:, _INV_SHIFT_IDX]], axis=2, out=s)
        s ^= dk[rnd - 1]
    return _INV_SBOX_NP[s8[:, _INV_SHIFT_IDX]].reshape(-1, 16) ^ rk[0]


def aes_cbc_encrypt_nopad(key: bytes, iv: bytes, data: bytes) -> bytes:
    """Raw CBC encrypt, NO padding, NO iv prefix (data must be a
    multiple of 16) — the /UE//OE and Algorithm-2.B shape."""
    if len(data) % 16:
        raise ValueError("nopad CBC needs 16-aligned data")
    cipher = AES128(key)
    out = bytearray()
    prev = iv
    for i in range(0, len(data), 16):
        block = bytes(a ^ b for a, b in zip(data[i:i + 16], prev))
        prev = cipher.encrypt_block(block)
        out += prev
    return bytes(out)


def aes_cbc_decrypt_nopad(key: bytes, iv: bytes, data: bytes) -> bytes:
    """Raw CBC decrypt, no padding, explicit iv."""
    if len(data) % 16:
        raise ValueError("nopad CBC needs 16-aligned data")
    cipher = AES128(key)
    arr = np.frombuffer(data, dtype=np.uint8).reshape(-1, 16)
    prevs = np.vstack([np.frombuffer(iv, np.uint8), arr[:-1]]) if len(arr) \
        else arr
    return (_aes_ecb_decrypt_blocks(cipher, arr) ^ prevs).tobytes()


def hash_2b(password: bytes, salt: bytes, udata: bytes = b"") -> bytes:
    """ISO 32000-2 Algorithm 2.B (the R6 hardened hash): iterated
    SHA-256/384/512 rounds keyed by an AES-128-CBC pass, terminating
    when round ≥ 64 and the last byte of E ≤ round - 32."""
    k = hashlib.sha256(password + salt + udata).digest()
    i = 0
    e = b"\xff"
    while i < 64 or e[-1] > i - 32:
        k1 = (password + k + udata) * 64
        e = aes_cbc_encrypt_nopad(k[:16], k[16:32], k1)
        mod = sum(e[:16]) % 3
        if mod == 0:
            k = hashlib.sha256(e).digest()
        elif mod == 1:
            k = hashlib.sha384(e).digest()
        else:
            k = hashlib.sha512(e).digest()
        i += 1
    return k[:32]


def aes_cbc_decrypt(key: bytes, data: bytes) -> bytes:
    """Inverse of aes_cbc_encrypt: data = iv || ciphertext.
    Vectorized: all blocks ECB-decrypted in one numpy pass, then XORed
    with the shifted ciphertext (CBC chaining)."""
    if len(data) < 32 or len(data) % 16:
        raise ValueError("bad AES-CBC payload length")
    cipher = AES128(key)
    arr = np.frombuffer(data, dtype=np.uint8).reshape(-1, 16)
    ct = arr[1:]                      # ciphertext blocks
    pt = _aes_ecb_decrypt_blocks(cipher, ct) ^ arr[:-1]
    out = pt.tobytes()
    pad = out[-1]
    # full padding check (not just the length byte): corrupt ciphertext
    # otherwise has a 16/256 chance of slipping through as silently
    # truncated garbage instead of a typed error
    if not 1 <= pad <= 16 or out[-pad:] != bytes([pad]) * pad:
        raise ValueError("bad PKCS#7 padding")
    return out[:-pad]


# ── standard security handler ────────────────────────────────────────

class StandardSecurityHandler:
    """Decrypting handler authenticated with the EMPTY user password.

    ``enc`` is the resolved /Encrypt dictionary; ``file_id`` the first
    element of the trailer /ID array (bytes). Raises PdfEncryptedError
    for password-protected or unsupported documents.
    """

    def __init__(self, enc: dict, file_id: bytes,
                 recipient_keys: list[tuple[int, int]] | None = None):
        filt = str(enc.get("Filter", ""))
        if filt != "Standard":
            if filt in PUBKEY_HANDLERS or "Recipients" in enc:
                keys = (recipient_keys if recipient_keys is not None
                        else list(RECIPIENT_KEYS))
                if keys:
                    try:
                        self._init_pubsec(enc, file_id, keys)
                        return
                    except PdfEncryptedError:
                        raise
                    except Exception as e:
                        raise PdfPubSecError(
                            f"certificate handler decryption failed: {e}"
                        ) from e
                raise PdfPubSecError(
                    f"certificate security handler {filt!r} — needs a "
                    "recipient private key")
            raise PdfEncryptedError(
                f"unsupported security handler {filt!r}")
        self.v = int(enc.get("V", 0))
        self.r = int(enc.get("R", 2))
        self.length = int(enc.get("Length", 40))
        self.o = bytes(enc.get("O") or b"")
        self.u = bytes(enc.get("U") or b"")
        self.p = int(enc.get("P", -1))
        self.encrypt_metadata = bool(enc.get("EncryptMetadata", True))
        self.cfm_stm = self.cfm_str = "V2"
        if self.v in (4, 5):
            cf = enc.get("CF") or {}
            for attr, which in (("cfm_stm", "StmF"), ("cfm_str", "StrF")):
                name = str(enc.get(which, "Identity"))
                if name == "Identity":
                    setattr(self, attr, "Identity")
                    continue
                sub = cf.get(name) or {}
                setattr(self, attr, str(sub.get("CFM", "None")))
                if "Length" in sub:
                    # CF /Length is in BYTES (spec table 25)
                    self.length = int(sub["Length"]) * 8
        if (self.v, self.r) not in ((1, 2), (1, 3), (2, 2), (2, 3), (4, 4),
                                    (5, 5), (5, 6)):
            raise PdfEncryptedError(
                f"unsupported encryption V={self.v} R={self.r}")
        allowed = ("V2", "AESV2", "Identity") if self.v < 5 \
            else ("AESV3", "Identity")
        for cfm in (self.cfm_stm, self.cfm_str):
            if cfm not in allowed:
                raise PdfEncryptedError(f"unsupported crypt filter {cfm}")
        self.file_id = file_id
        if self.v == 5:
            self.oe = bytes(enc.get("OE") or b"")
            self.ue = bytes(enc.get("UE") or b"")
            self.key = self._file_key_v5(b"")
        else:
            self.key = self._file_key(b"")
            if not self._check_user_password():
                raise PdfEncryptedError("password-protected (empty user "
                                        "password rejected)")

    def _init_pubsec(self, enc: dict, file_id: bytes,
                     keys: list[tuple[int, int]]) -> None:
        """Public-key (certificate) security handler, spec §7.6.4:
        unwrap the PKCS#7 envelope in /Recipients with a registered
        RSA private key, derive the file key as SHA-1(seed ‖ every
        recipient blob [‖ FFFFFFFF if !EncryptMetadata]), then reuse
        the standard per-object derivation (§7.6.4 note: Algorithm 1
        applies unchanged once the file key is known)."""
        from . import pkcs7

        self.v = int(enc.get("V", 4))
        # Spec default for /Length is 40 bits for V=1 handlers
        # (adbe.pkcs7.s3), mirroring the standard handler; 128 only V>=2.
        self.length = int(enc.get("Length", 40 if self.v < 2 else 128))
        self.o = self.u = b""
        self.p = 0
        self.r = 4 if self.v >= 4 else 2
        self.encrypt_metadata = True
        self.cfm_stm = self.cfm_str = "V2"
        recipients = enc.get("Recipients")
        if self.v in (4, 5):
            cf = enc.get("CF") or {}
            for attr, which in (("cfm_stm", "StmF"), ("cfm_str", "StrF")):
                name = str(enc.get(which, "Identity"))
                if name == "Identity":
                    setattr(self, attr, "Identity")
                    continue
                sub = cf.get(name) or {}
                setattr(self, attr, str(sub.get("CFM", "None")))
                if "Length" in sub:
                    # CF /Length is in BYTES (spec table 25)
                    self.length = int(sub["Length"]) * 8
                if recipients is None and "Recipients" in sub:
                    # adbe.pkcs7.s5 puts the envelopes on the filter
                    recipients = sub["Recipients"]
                self.encrypt_metadata = bool(
                    sub.get("EncryptMetadata", True))
        if recipients is None:
            raise PdfPubSecError("certificate handler has no /Recipients")
        if isinstance(recipients, bytes):
            recipients = [recipients]
        blobs = [bytes(r) for r in recipients if isinstance(r, bytes)]
        if not blobs:
            raise PdfPubSecError("empty /Recipients array")
        for cfm in (self.cfm_stm, self.cfm_str):
            if cfm not in ("V2", "AESV2", "Identity"):
                raise PdfEncryptedError(
                    f"unsupported pubsec crypt filter {cfm}")
        content = None
        for blob in blobs:
            env = pkcs7.parse_enveloped(blob)
            try:
                content = env.decrypt_content(keys)
                break
            except ValueError:
                continue
        if content is None or len(content) < 24:
            raise PdfPubSecError(
                "no registered recipient key opens this document")
        # content = 20-byte seed + 4-byte permissions
        self.key = pkcs7.pubsec_file_key(
            content[:20], blobs, min(16, max(5, self.length // 8)),
            encrypt_metadata=self.encrypt_metadata)
        self.file_id = file_id

    # ISO 32000-2 §7.6.4.4.10/11 (Algorithms 11/2.A): authenticate the
    # empty USER password against /U and unwrap the file key from /UE
    def _file_key_v5(self, password: bytes) -> bytes:
        if len(self.u) < 48 or len(self.ue) < 32:
            raise PdfEncryptedError("malformed V5 /U or /UE")
        vsalt, ksalt = self.u[32:40], self.u[40:48]
        if self.r == 6:
            h = hash_2b(password, vsalt)
        else:  # R5 (the deprecated Adobe extension): plain SHA-256
            h = hashlib.sha256(password + vsalt).digest()
        if h != self.u[:32]:
            raise PdfEncryptedError("password-protected (empty user "
                                    "password rejected)")
        ikey = (hash_2b(password, ksalt) if self.r == 6
                else hashlib.sha256(password + ksalt).digest())
        return aes_cbc_decrypt_nopad(ikey, bytes(16), self.ue[:32])

    # Algorithm 2
    def _file_key(self, password: bytes) -> bytes:
        n = 5 if self.r == 2 else max(5, self.length // 8)
        h = hashlib.md5()
        h.update((password + _PAD)[:32])
        h.update(self.o[:32])
        h.update(struct.pack("<i", self.p))
        h.update(self.file_id)
        if self.r >= 4 and not self.encrypt_metadata:
            h.update(b"\xff\xff\xff\xff")
        key = h.digest()
        if self.r >= 3:
            for _ in range(50):
                key = hashlib.md5(key[:n]).digest()
        return key[:n]

    # Algorithms 4/5
    def _compute_u(self, key: bytes) -> bytes:
        if self.r == 2:
            return rc4(key, _PAD)
        h = hashlib.md5(_PAD + self.file_id).digest()
        u = rc4(key, h)
        for i in range(1, 20):
            u = rc4(bytes(b ^ i for b in key), u)
        return u + bytes(16)

    def _check_user_password(self) -> bool:
        u = self._compute_u(self.key)
        if self.r == 2:
            return u == self.u[:32]
        return u[:16] == self.u[:16]

    # Algorithm 1
    def _obj_key(self, num: int, gen: int, cfm: str) -> bytes:
        salt = b"sAlT" if cfm == "AESV2" else b""
        m = hashlib.md5(
            self.key + num.to_bytes(3, "little") + gen.to_bytes(2, "little")
            + salt
        ).digest()
        return m[: min(len(self.key) + 5, 16)]

    def _apply(self, data: bytes, num: int, gen: int, cfm: str,
               encrypt: bool, iv: bytes | None = None) -> bytes:
        if cfm == "Identity" or not data:
            return data
        if cfm == "AESV3":
            # V5: the 256-bit FILE key is used directly (no per-object
            # derivation, ISO 32000-2 §7.6.3.3)
            if encrypt:
                return aes_cbc_encrypt(self.key, iv or bytes(16), data)
            return aes_cbc_decrypt(self.key, data)
        key = self._obj_key(num, gen, cfm)
        if cfm == "AESV2":
            if encrypt:
                return aes_cbc_encrypt(key, iv or bytes(16), data)
            return aes_cbc_decrypt(key, data)
        return rc4(key, data)

    def decrypt_stream(self, data: bytes, num: int, gen: int) -> bytes:
        return self._apply(data, num, gen, self.cfm_stm, encrypt=False)

    def decrypt_string(self, data: bytes, num: int, gen: int) -> bytes:
        return self._apply(data, num, gen, self.cfm_str, encrypt=False)

    def encrypt_stream(self, data: bytes, num: int, gen: int,
                       iv: bytes | None = None) -> bytes:
        return self._apply(data, num, gen, self.cfm_stm, encrypt=True, iv=iv)

    def encrypt_string(self, data: bytes, num: int, gen: int,
                       iv: bytes | None = None) -> bytes:
        return self._apply(data, num, gen, self.cfm_str, encrypt=True, iv=iv)


def make_encrypt_dict(file_id: bytes, *, mode: str = "rc4-128",
                      p: int = -4, owner_password: bytes = b"",
                      ) -> tuple[dict, "StandardSecurityHandler"]:
    """Fixture-side: build an /Encrypt dict (EMPTY user password,
    ``owner_password`` as the owner password — spec §7.6.3: a document
    locked with only an owner password must still open, and decrypt,
    with the empty user password, which is exactly what pdf.js does in
    the reference) plus a handler keyed for it. ``mode``: "rc4-40"
    (V1/R2), "rc4-128" (V2/R3), "aes-128" (V4/R4 AESV2), "aes-256"
    (V5/R6 AESV3 per ISO 32000-2 Algorithms 8/9/10)."""
    if mode == "aes-256":
        # deterministic "random" material derived from the file id so
        # fixtures are byte-reproducible
        rnd = hashlib.sha512(b"fixture-v5:" + file_id).digest()
        file_key = rnd[:32]
        uvs, uks = rnd[32:40], rnd[40:48]
        u = hash_2b(b"", uvs) + uvs + uks                       # Alg 8
        ue = aes_cbc_encrypt_nopad(hash_2b(b"", uks), bytes(16), file_key)
        rnd2 = hashlib.sha512(b"fixture-v5-o:" + file_id).digest()
        ovs, oks = rnd2[:8], rnd2[8:16]
        opw = owner_password[:127]
        o = hash_2b(opw, ovs, u) + ovs + oks                    # Alg 9
        oe = aes_cbc_encrypt_nopad(hash_2b(opw, oks, u), bytes(16), file_key)
        perms_plain = (struct.pack("<i", p) + b"\xff\xff\xff\xff"
                       + b"T" + b"adb" + rnd2[16:20])           # Alg 10
        perms = AES128(file_key).encrypt_block(perms_plain)
        enc = {"Filter": "Standard", "V": 5, "R": 6, "Length": 256,
               "P": p, "O": o, "U": u, "OE": oe, "UE": ue, "Perms": perms,
               "CF": {"StdCF": {"CFM": "AESV3", "Length": 32,
                                "AuthEvent": "DocOpen"}},
               "StmF": "StdCF", "StrF": "StdCF"}
        probe = object.__new__(StandardSecurityHandler)
        probe.v, probe.r, probe.length = 5, 6, 256
        probe.o, probe.u, probe.p = o, u, p
        probe.encrypt_metadata = True
        probe.file_id = file_id
        probe.cfm_stm = probe.cfm_str = "AESV3"
        probe.key = file_key
        return enc, probe
    if mode == "rc4-40":
        v, r, length = 1, 2, 40
    elif mode == "rc4-128":
        v, r, length = 2, 3, 128
    elif mode == "aes-128":
        v, r, length = 4, 4, 128
    else:
        raise ValueError(f"unknown mode {mode}")
    n = 5 if r == 2 else length // 8

    # Algorithm 3: the /O entry from the owner password (empty unless
    # the fixture asks for an owner-locked document; the USER password
    # stays empty either way, so the reader-side handler authenticates
    # identically)
    okey = hashlib.md5((owner_password + _PAD)[:32]).digest()
    if r >= 3:
        for _ in range(50):
            okey = hashlib.md5(okey[:n]).digest()
    okey = okey[:n]
    o = rc4(okey, _PAD)  # RC4 of the padded (empty) USER password
    if r >= 3:
        for i in range(1, 20):
            o = rc4(bytes(b ^ i for b in okey), o)

    enc: dict = {"Filter": "Standard", "V": v, "R": r, "Length": length,
                 "P": p, "O": o}
    if v == 4:
        enc["CF"] = {"StdCF": {"CFM": "AESV2", "Length": length // 8,
                               "AuthEvent": "DocOpen"}}
        enc["StmF"] = "StdCF"
        enc["StrF"] = "StdCF"
    # U needs the file key, which needs O and P — compute via a probe
    # handler with U check bypassed
    probe = object.__new__(StandardSecurityHandler)
    probe.v, probe.r, probe.length, probe.o, probe.p = v, r, length, o, p
    probe.encrypt_metadata = True
    probe.file_id = file_id
    probe.cfm_stm = probe.cfm_str = "AESV2" if mode == "aes-128" else "V2"
    probe.key = probe._file_key(b"")
    enc["U"] = probe._compute_u(probe.key)
    handler = probe  # fully initialized for encryption use
    return enc, handler
