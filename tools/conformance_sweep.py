"""Randomized byte-identity conformance sweep over the full PDF
feature matrix — xref styles × object streams × filters (raw/Flate/
LZW) × font variants (incl. CID/embedded-CMap) × encryption modes
(none/RC4-40/RC4-128/AES-128[, AES-256 with --v5]) × layout options.

Every config round-trips a generated document through the extractor and
asserts byte identity against the generator's by-construction golden.

Usage: python tools/conformance_sweep.py [N] [--v5]
(default N=400; --v5 adds aes-256 configs — ~1 s/doc by hardened-hash
design, so keep N modest with it)
"""

from __future__ import annotations

import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pdf_to_text_ray.fixtures.pdfgen import make_pdf  # noqa: E402
from pdf_to_text_ray.stages.pdf_extract import extract_pdf_text  # noqa: E402


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    n = int(args[0]) if args else 400
    enc_modes = [None, None, "rc4-40", "rc4-128", "aes-128"]
    if "--v5" in sys.argv:
        enc_modes.append("aes-256")
    fails = 0
    for seed in range(n):
        rng = random.Random(20_000 + seed)
        kwargs = dict(
            n_pages=rng.randrange(1, 5),
            xref_style=rng.choice(["table", "stream", "stream_pred"]),
            use_objstm=rng.random() < 0.3,
            compress=rng.choice([True, False, "lzw"]),
            two_column=rng.random() < 0.2,
            with_sucursal=rng.random() < 0.3,
            with_form=rng.random() < 0.3,
            font_variant=rng.choice(["standard", "differences", "winansi",
                                     "tounicode", "cid", "cid_cmap"]),
            encrypt=rng.choice(enc_modes),
        )
        data, expected, _ = make_pdf(rng, **kwargs)
        r = extract_pdf_text(data)
        if r.text != expected:
            fails += 1
            print(f"MISMATCH seed={seed} {kwargs}")
            if fails > 5:
                break
    print(f"{n} random configs, {fails} mismatches")
    return 1 if fails else 0


if __name__ == "__main__":
    raise SystemExit(main())
