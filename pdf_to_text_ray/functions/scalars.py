"""Scalar functions with exact parity to the reference's coercions.

Reference behaviors reproduced (src/main.ts):
- ``parseInt(x, 10) || 0``        main.ts:44
- ``parseFloat(x) || 0``          main.ts:45
- ``Number.prototype.toFixed(2)`` main.ts:51
- fenced ```json ...``` payload extraction  main.ts:25-36
"""

from __future__ import annotations

import json
import re
from decimal import ROUND_FLOOR, Decimal

_INT_PREFIX = re.compile(r"^[+-]?\d+")
_FLOAT_PREFIX = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_FENCED_JSON = re.compile(r"```json([\s\S]+?)```")


def parse_int_or_zero(value) -> int:
    """JS ``parseInt(x, 10) || 0``: leading-prefix integer parse, 0 on NaN.

    Note the ``|| 0`` also maps a parsed 0 to 0, so the only observable
    contract is: longest leading [+-]?digits prefix, else 0.
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return int(value) if value == value and abs(value) != float("inf") else 0
    m = _INT_PREFIX.match(str(value).strip())
    return int(m.group(0)) if m else 0


def parse_float_or_zero(value) -> float:
    """JS ``parseFloat(x) || 0``: leading-prefix float parse, 0 on NaN."""
    if value is None:
        return 0.0
    if isinstance(value, bool):
        return 0.0
    if isinstance(value, (int, float)):
        v = float(value)
        return v if v == v else 0.0
    m = _FLOAT_PREFIX.match(str(value).strip())
    if not m:
        return 0.0
    try:
        v = float(m.group(0))
    except ValueError:
        return 0.0
    return v if v == v else 0.0


def to_fixed(value: float, digits: int = 2) -> str:
    """JS ``Number.prototype.toFixed`` parity (main.ts:51).

    ECMA-262: pick integer n minimizing |n / 10^digits - x|; on a tie pick
    the LARGER n (i.e. round half toward +infinity on the exact binary
    value of the double). ``Decimal(value)`` is the exact binary value, so
    floor(x * 10^d + 0.5) implements the spec, including negatives.
    """
    if value != value:  # NaN
        return "NaN"
    q = Decimal(value) * (10 ** digits) + Decimal("0.5")
    n = int(q.to_integral_value(rounding=ROUND_FLOOR))
    sign = "-" if n < 0 else ""
    s = str(abs(n)).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}" if digits else f"{sign}{s}"


def extract_fenced_json(response_text: str) -> str:
    """Extract a ```json ...``` fenced payload, else the whole text; validate
    by parsing; raise ValueError on invalid JSON (main.ts:25-36)."""
    m = _FENCED_JSON.search(response_text)
    payload = m.group(1).strip() if m else response_text.strip()
    try:
        json.loads(payload)
    except json.JSONDecodeError as e:
        raise ValueError("Invalid JSON response") from e
    return payload
