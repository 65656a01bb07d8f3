"""Bit-exact file formats for truth tables and vectorial lookup tables.

BF format (Boolean function):

    BF n=<int> field=<hex modulus>
    <2^n bits packed 4 per hex character>

The payload character at position p carries table indices 4p..4p+3, index
4p in the least significant bit of the nibble.  A single payload line,
lowercase hex on write, either case of the ASCII hex digits accepted on
read.

VF format (vectorial function):

    VF n=<int> m=<int> t=<int> field=<hex modulus>
    <2^n lines of output values>

Each output line is the subfield value in hex, followed by "." and the
extra bits in hex when t > 0.  Any character other than ASCII hex digits,
"." and whitespace is a parse error at its line and column.

Header values are ASCII decimal digits (hex for `field`); anything else
is a parse error at that field's column.

The field model is built from the header modulus, or a reader's `modulus`
override: the shipped generator when the modulus matches the built-in
table, otherwise the least primitive element for that modulus.  Writes
are atomic (temp file + rename) and carry no timestamps.
"""

from __future__ import annotations

import os
import re
import tempfile

import numpy as np

from .boolfun import BooleanFunction
from .errors import FieldError, ParseError
from .gf2n import PRIMITIVE_POLYNOMIALS, FieldSpec, _check_degree
from .vectorial import VectorialFunction


def field_from_modulus(n, modulus):
    """FieldSpec for a header modulus, deterministic generator choice."""
    if PRIMITIVE_POLYNOMIALS.get(n) == modulus:
        return FieldSpec.default(n)
    return FieldSpec.with_least_generator(n, modulus)


def atomic_write_text(path, text):
    """Write text to path atomically (same-directory temp + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bentvec-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# hex digit -> nibble for the 256 lowest code points; 255 marks the rest
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_NIBBLE = np.full(256, 255, dtype=np.uint8)
_NIBBLE[_HEX_DIGITS] = np.arange(16)
_NIBBLE[np.frombuffer(b"ABCDEF", dtype=np.uint8)] = np.arange(10, 16)

# anything but hex digits, the extra-bits dot and whitespace in a VF body
_VF_BAD_CHAR = re.compile(r"[^0-9a-fA-F.\s]")


def _pack_bits(table):
    """Truth-table bits as BF payload hex, four bits per lowercase digit."""
    packed = np.packbits(np.asarray(table, dtype=np.uint8), bitorder="little")
    nibs = np.stack((packed & 15, packed >> 4), axis=1).reshape(-1)
    return _HEX_DIGITS[nibs[: (len(table) + 3) // 4]].tobytes().decode("ascii")


def _unpack_bits(payload, size):
    """BF payload hex to a uint8 table of `size` bits; bad digits raise."""
    # one code point per character, so an index is a column
    codes = np.frombuffer(payload.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    # code points above 255 land on entry 255, which is not a digit
    low = np.minimum(codes, 255, out=np.empty(codes.size, np.uint8), casting="unsafe")
    nibs = _NIBBLE[low]
    bad = np.flatnonzero(nibs > 15)
    if bad.size:
        p = int(bad[0])
        raise ParseError(f"bad hex character {payload[p]!r}", line=2, column=p + 1)
    if size % 4 and nibs[-1] >> size % 4:
        raise ParseError("padding bits must be zero", line=2, column=len(payload))
    if nibs.size % 2:
        nibs = np.append(nibs, np.uint8(0))
    return np.unpackbits(nibs[0::2] | (nibs[1::2] << 4), count=size, bitorder="little")


def bf_to_text(f: BooleanFunction):
    header = f"BF n={f.n} field={f.field.modulus:x}"
    return header + "\n" + _pack_bits(f.table) + "\n"


def write_bf(path, f: BooleanFunction):
    atomic_write_text(path, bf_to_text(f))


def parse_header(line, expected_tag, keys):
    tokens = line.split()
    if not tokens or tokens[0] != expected_tag:
        raise ParseError(f"expected header tag {expected_tag!r}", line=1, column=1)
    values, columns = {}, {}
    col = len(expected_tag) + 1
    for token in tokens[1:]:
        col = line.index(token, col - 1) + 1
        if "=" not in token:
            raise ParseError(f"malformed header field {token!r}", line=1, column=col)
        key, _, raw = token.partition("=")
        if key not in keys:
            raise ParseError(f"unknown header field {key!r}", line=1, column=col)
        hex_value = key == "field"
        try:
            # int() alone would take signs, "_" and non-ASCII digits
            if not re.fullmatch("[0-9a-fA-F]+" if hex_value else "[0-9]+", raw):
                raise ValueError(raw)
            values[key] = int(raw, 16 if hex_value else 10)
            columns[key] = col
        except ValueError:
            raise ParseError(
                f"bad value for header field {key!r}", line=1, column=col
            ) from None
        col += len(token) + 1
    missing = [k for k in keys if k not in values]
    if missing:
        raise ParseError(f"missing header fields {missing}", line=1, column=1)
    return values, columns


def _header_field(header, columns, modulus):
    """The field model of a parsed header, or of a reader's modulus override.

    A header modulus of the wrong degree is a parse error at its column.
    """
    n = header["n"]
    if not 1 <= n <= 24:
        raise ParseError(f"n={n} out of range", line=1, column=1)
    if modulus is None:
        modulus = header["field"]
        try:
            _check_degree(n, modulus)
        except FieldError as exc:
            raise ParseError(str(exc), line=1, column=columns["field"]) from None
    return field_from_modulus(n, modulus)


def bf_from_text(text, modulus=None):
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", line=1, column=1)
    header, columns = parse_header(lines[0], "BF", ("n", "field"))
    n = header["n"]
    spec = _header_field(header, columns, modulus)
    if len(lines) < 2:
        raise ParseError("missing truth-table payload", line=2, column=1)
    payload = lines[1].strip()
    size = 1 << n
    expect = (size + 3) // 4
    if len(payload) != expect:
        raise ParseError(
            f"payload must be {expect} hex characters, got {len(payload)}",
            line=2,
            column=len(payload) + 1,
        )
    table = _unpack_bits(payload, size)
    for extra, line in enumerate(lines[2:], start=3):
        if line.strip():
            raise ParseError("unexpected trailing content", line=extra, column=1)
    return BooleanFunction(spec, table)


def read_bf(path, modulus=None):
    with open(path, "r") as handle:
        return bf_from_text(handle.read(), modulus=modulus)


def vf_to_text(F: VectorialFunction):
    header = f"VF n={F.n} m={F.m} t={F.t} field={F.field.modulus:x}"
    lines = [header]
    if F.t:
        for value, extra in zip(F.values, F.extra):
            lines.append(f"{int(value):x}.{int(extra):x}")
    else:
        lines.extend(f"{int(value):x}" for value in F.values)
    return "\n".join(lines) + "\n"


def write_vf(path, F: VectorialFunction):
    atomic_write_text(path, vf_to_text(F))


def vf_from_text(text, modulus=None):
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", line=1, column=1)
    header, columns = parse_header(lines[0], "VF", ("n", "m", "t", "field"))
    n, m, t = header["n"], header["m"], header["t"]
    spec = _header_field(header, columns, modulus)
    bad = _VF_BAD_CHAR.search(text, len(lines[0]))
    if bad:
        # every line break is whitespace, so the bad character ends the
        # last line of the text up to and including it
        head = text[: bad.start() + 1].splitlines()
        raise ParseError(
            f"bad character {bad.group()!r}", line=len(head), column=len(head[-1])
        )
    size = 1 << n
    body = lines[1:]
    if len([ln for ln in body if ln.strip()]) != size:
        raise ParseError(
            f"expected {size} output lines, got {len([l for l in body if l.strip()])}",
            line=len(lines) + 1,
            column=1,
        )
    values = np.zeros(size, dtype=np.int64)
    extra = np.zeros(size, dtype=np.int64)
    row = 0
    for lineno, line in enumerate(body, start=2):
        entry = line.strip()
        if not entry:
            continue
        value_part, dot, extra_part = entry.partition(".")
        if t == 0 and dot:
            raise ParseError("t=0 entries must not carry extra bits", line=lineno, column=len(value_part) + 1)
        if t > 0 and not dot:
            raise ParseError("entry is missing its extra bits", line=lineno, column=len(entry) + 1)
        try:
            values[row] = int(value_part, 16)
        except (ValueError, OverflowError):
            raise ParseError(f"bad hex value {value_part!r}", line=lineno, column=1) from None
        if t:
            try:
                extra[row] = int(extra_part, 16)
            except (ValueError, OverflowError):
                raise ParseError(
                    f"bad hex extra bits {extra_part!r}",
                    line=lineno,
                    column=len(value_part) + 2,
                ) from None
        row += 1
    try:
        return VectorialFunction(spec, m, values, extra, t)
    except FieldError as exc:
        line, column = 2, 1
        if exc.point is not None:
            # the bad row's line, then its value or its extra bits
            rows = [i for i, entry in enumerate(body, start=2) if entry.strip()]
            line = rows[exc.point]
            entry = lines[line - 1]
            if exc.extra:
                column = entry.index(".") + 2
            else:
                column = len(entry) - len(entry.lstrip()) + 1
        raise ParseError(
            f"inconsistent table: {exc}", line=line, column=column
        ) from None


def read_vf(path, modulus=None):
    with open(path, "r") as handle:
        return vf_from_text(handle.read(), modulus=modulus)


def read_any(path, modulus=None):
    """Read a BF or VF file, dispatching on the header tag."""
    with open(path, "r") as handle:
        text = handle.read()
    tag = text.split(None, 1)[0] if text.split() else ""
    if tag == "BF":
        return bf_from_text(text, modulus=modulus)
    if tag == "VF":
        return vf_from_text(text, modulus=modulus)
    raise ParseError(f"unrecognized header tag {tag!r}", line=1, column=1)
