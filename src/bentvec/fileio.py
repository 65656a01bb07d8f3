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
"." and whitespace is a parse error at its line and column.  Lines are
those of str.splitlines; blank lines, blanks around an entry and either
case of the digits are accepted on read.

Neither format runs Python code per point or per line.  A VF file is
written a block of about _CHUNK characters at a time, each block one
character matrix with a row per point, decoded from the coordinate word,
with leading zeros masked out.  It is read from the positions of its
separators (dots and whitespace): every row is located and tested at
once, and the values are read by Horner over digit columns.  A row that
fails a test (not one token, a dot where t says there is none, an empty
part, more than 15 digits) goes alone to the one-entry parser, which
gives its error or its value.

A parse error in either body, or a byte that is not UTF-8, is raised at
a position of the text, and one helper turns that position into a line
and a column.  Lines are those of str.splitlines, and every column counts
from the first character of its line, blanks included.

Header values are ASCII decimal digits (hex for `field`); anything else,
or a key given twice, is a parse error at that field's column.  So are a
header modulus that makes no field, of the wrong degree or not
irreducible, and a VF header's m that does not divide n and m + t above
32, before the body is read.

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
from .gf2n import MAX_N, PRIMITIVE_POLYNOMIALS, FieldSpec
from .vectorial import VectorialFunction, _basis_tables, _check_dimensions


def field_from_modulus(n, modulus):
    """FieldSpec for a header modulus, deterministic generator choice."""
    if PRIMITIVE_POLYNOMIALS.get(n) == modulus:
        return FieldSpec.default(n)
    return FieldSpec.with_least_generator(n, modulus)


def atomic_write_text(path, text):
    """Write text to path atomically (same-directory temp + rename), as
    UTF-8 with no newline translation: the same bytes on every OS."""
    _atomic_write(path, [text])


def _atomic_write(path, texts):
    """Write the strings of `texts` to path, in order, as `atomic_write_text`
    writes one.

    A temp file that cannot be made and a failed rename name the
    destination alone: the temp file's name is random, and the file is
    removed before the error propagates.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bentvec-")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(texts)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# hex digit -> nibble for the 256 lowest code points; 255 marks the rest
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_NIBBLE = np.full(256, 255, dtype=np.uint8)
_NIBBLE[_HEX_DIGITS] = np.arange(16)
_NIBBLE[np.frombuffer(b"ABCDEF", dtype=np.uint8)] = np.arange(10, 16)

# anything but hex digits, the extra-bits dot and whitespace in a VF body,
# as a pattern for text with wide characters and as a table for ASCII codes
_VF_BAD_CHAR = re.compile(r"[^0-9a-fA-F.\s]")
_VF_OK = np.array([_VF_BAD_CHAR.match(chr(c)) is None for c in range(256)])

# the line breaks of str.splitlines; "\r\n" is one break starting at "\r".
# Its first alternative keeps re from merging them all into one class,
# which, holding code points above 255, would build a 64K-entry map and
# raise the peak RSS of every import.
_LINE_BREAK = re.compile("\r\n?|[\n\x0b\x0c\x1c-\x1e\x85]|\u2028|\u2029")

# separator kind of each ASCII code: the ones a VF body can hold after its
# scan are ".", a line break of str.splitlines, or other whitespace
_DOT, _SPACE, _BREAK = 0, 1, 2
_VF_KIND = np.full(256, _SPACE, dtype=np.uint8)
_VF_KIND[ord(".")] = _DOT
_VF_KIND[np.frombuffer(b"\n\r\x0b\x0c\x1c\x1d\x1e", dtype=np.uint8)] = _BREAK

# the first character of trailing content after a BF payload line
_NON_BLANK = re.compile(r"\S")


def _located(message, text, pos):
    """The ParseError for text[pos], at the line and column that
    str.splitlines gives it: the lines of text[:pos] and a stand-in for
    the character at pos, which may be the end of the text."""
    lines = (text[:pos] + "?").splitlines()
    return ParseError(message, line=len(lines), column=len(lines[-1]))


def _pack_bits(table):
    """Truth-table bits as BF payload hex, four bits per lowercase digit."""
    packed = np.packbits(np.asarray(table, dtype=np.uint8), bitorder="little")
    nibs = np.stack((packed & 15, packed >> 4), axis=1).reshape(-1)
    return _HEX_DIGITS[nibs[: (len(table) + 3) // 4]].tobytes().decode("ascii")


def _unpack_bits(text, start, payload, size):
    """BF payload hex, found at text[start], to a uint8 table of `size`
    bits; a bad digit or nonzero padding raises at its position."""
    # one byte per character, so an index is an offset into the payload;
    # every non-ASCII character (a lone surrogate too) becomes "?", which
    # is not a digit
    codes = np.frombuffer(payload.encode("ascii", "replace"), dtype=np.uint8)
    nibs = _NIBBLE[codes]
    bad = np.flatnonzero(nibs > 15)
    if bad.size:
        p = int(bad[0])
        raise _located(f"bad hex character {payload[p]!r}", text, start + p)
    if size % 4 and nibs[-1] >> size % 4:
        raise _located("padding bits must be zero", text, start + len(payload) - 1)
    if nibs.size % 2:
        nibs = np.append(nibs, np.uint8(0))
    return np.unpackbits(nibs[0::2] | (nibs[1::2] << 4), count=size, bitorder="little")


def bf_to_text(f: BooleanFunction):
    header = f"BF n={f.n} field={f.field.modulus:x}"
    return header + "\n" + _pack_bits(f.table) + "\n"


def write_bf(path, f: BooleanFunction):
    atomic_write_text(path, bf_to_text(f))


# a hex value, in a header or an argument: int(x, 16) alone would take
# signs, "0x", "_" and non-ASCII digits
HEX_VALUE = re.compile("[0-9a-fA-F]+")


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
        if key in values:
            raise ParseError(f"duplicate header field {key!r}", line=1, column=col)
        hex_value = key == "field"
        try:
            if not re.fullmatch(HEX_VALUE if hex_value else "[0-9]+", raw):
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

    A header modulus that makes no field, of the wrong degree or not
    irreducible, is a parse error at its column.
    """
    n = header["n"]
    if not 1 <= n <= MAX_N:
        raise ParseError(f"n={n} out of range", line=1, column=1)
    if modulus is not None:
        return field_from_modulus(n, modulus)
    try:
        return field_from_modulus(n, header["field"])
    except FieldError as exc:
        raise ParseError(str(exc), line=1, column=columns["field"]) from None


def bf_from_text(text, modulus=None):
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", line=1, column=1)
    header, columns = parse_header(lines[0], "BF", ("n", "field"))
    n = header["n"]
    spec = _header_field(header, columns, modulus)
    if len(lines) < 2:
        raise ParseError("missing truth-table payload", line=2, column=1)
    # the payload line begins after the header's break, "\r\n" or one
    # character; its digits begin after its leading blanks
    begin = len(lines[0]) + 1 + text.startswith("\r\n", len(lines[0]))
    payload = lines[1].lstrip()
    start = begin + len(lines[1]) - len(payload)
    payload = payload.rstrip()
    size = 1 << n
    expect = (size + 3) // 4
    if len(payload) != expect:
        message = f"payload must be {expect} hex characters, got {len(payload)}"
        raise _located(message, text, start + len(payload))
    table = _unpack_bits(text, start, payload, size)
    stray = _NON_BLANK.search(text, begin + len(lines[1]))
    if stray:
        raise _located("unexpected trailing content", text, stray.start())
    return BooleanFunction._adopt(spec, table)


def _read_text(path):
    """The file's text as UTF-8 whatever the locale, line breaks kept: both
    parsers split lines as str.splitlines does.  A byte that is not UTF-8
    is a parse error at its line and column."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        message = f"byte {data[exc.start]:#04x} is not UTF-8"
        raise _located(message, head, len(head)) from None


def read_bf(path, modulus=None):
    return bf_from_text(_read_text(path), modulus=modulus)


def vf_to_text(F: VectorialFunction):
    """The VF text of F: the blocks of `_vf_blocks`, joined."""
    return "".join(_vf_blocks(F))


def write_vf(path, F: VectorialFunction):
    _atomic_write(path, _vf_blocks(F))


# characters, or rows, per block of the VF reader's whole-array passes, and
# characters per block of the VF writer's text at most
_CHUNK = 1 << 16


def _vf_blocks(F):
    """The header line of F's VF text, then its rows, about _CHUNK
    characters a block.

    A block is one character matrix with a row per point: every hex digit
    a value can have, ceil(n/4), ".", every digit the extra bits can have,
    ceil(t/4), when t > 0, and a newline.  A mask drops leading zeros but
    keeps the last digit, so 0 is written "0".  The values and extra bits
    are decoded from the word a block at a time.
    """
    yield f"VF n={F.n} m={F.m} t={F.t} field={F.field.modulus:x}\n"
    combos, _ = _basis_tables(F.field, F.m)
    widths = [-(-F.n // 4)] + [-(-F.t // 4)] * (F.t > 0)
    row = sum(widths) + len(widths)
    step = max(1, _CHUNK // row)
    for lo in range(0, F.field.size, step):
        word = F.word[lo : lo + step]
        # zip() stops at the widths: the extra bits are written only when t > 0
        parts = [combos[word & np.uint32((1 << F.m) - 1)], word >> np.uint32(F.m)]
        chars = np.empty((len(word), row), dtype=np.uint8)
        keep = np.ones(chars.shape, dtype=bool)
        col = 0
        for part, width in zip(parts, widths):
            for shift in range(4 * width - 4, -1, -4):
                digits = part >> shift
                if shift:
                    np.not_equal(digits, 0, out=keep[:, col])
                digits &= 15
                chars[:, col] = _HEX_DIGITS[digits]
                col += 1
            chars[:, col] = ord(".")
            col += 1
        chars[:, -1] = ord("\n")
        yield chars[keep].tobytes().decode("ascii")


def _vf_codes(text, head):
    r"""The text as uint8 codes, one per character, once the body from
    `head` on is found to hold only hex digits, dots and whitespace.

    ASCII text is checked on its codes through `_VF_OK`, a chunk at a
    time, and other text by `_VF_BAD_CHAR`.  Only whitespace is then left
    outside ASCII; it becomes \x0b if it breaks lines, else a space.  Not
    \n, so that "\r" and a following "\u2028" stay two breaks, as in
    str.splitlines.
    """
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        for lo in range(head, codes.size, _CHUNK):
            ok = _VF_OK.take(codes[lo : lo + _CHUNK])
            if not ok.all():
                pos = lo + int(ok.argmin())
                raise _located(f"bad character {text[pos]!r}", text, pos)
        return codes
    bad = _VF_BAD_CHAR.search(text, head)
    if bad:
        raise _located(f"bad character {bad.group()!r}", text, bad.start())
    text = re.sub("[^\x00-\x7f]", " ", re.sub("\x85|\u2028|\u2029", "\x0b", text))
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


def _separators(codes, head, pos_type):
    """Positions of every non-digit from `head` on, then len(codes).

    Past the scan, every code below "0" is whitespace or "." and every
    other one a hex digit.  Found a chunk at a time, so no bool or int64
    array spans the text.
    """
    chunks = []
    for lo in range(head, codes.size, _CHUNK):
        hits = np.flatnonzero(codes[lo : lo + _CHUNK] < ord("0")).astype(pos_type)
        hits += lo
        chunks.append(hits)
    chunks.append(np.array([codes.size], dtype=pos_type))
    return np.concatenate(chunks)


def _vf_rows(codes, head, t):
    """Locate and test the rows of the body that starts at `head`.

    A token is the text between two whitespace separators that are not
    adjacent, and a row is the tokens of one line.  Per row, in line
    order: the positions of its first non-whitespace character, of the
    first separator after that (its dot, if the row is well formed with
    t > 0) and of the end of its last token, and whether it is fast: one
    token, a dot when t > 0 and only then, at most one, and parts 1 to 15
    digits long.  Then len(text.splitlines()).  Positions are int32 while
    the text is shorter than 2^31 characters.
    """
    pos_type = np.int32 if codes.size < 1 << 31 else np.int64
    seps = _separators(codes, head, pos_type)
    at = codes.take(seps, mode="clip")
    kind = _VF_KIND.take(at)
    kind[-1] = _SPACE  # the end of the text closes the last token
    # the "\n" of "\r\n" ends no line of its own
    cr = np.flatnonzero(at[:-1] == 13)
    cr = cr[(at.take(cr + 1) == 10) & (seps.take(cr + 1) == seps.take(cr) + 1)]
    kind[cr + 1] = _SPACE
    del at, cr
    ws = np.flatnonzero(kind != _DOT).astype(pos_type)
    ws_pos = seps.take(ws)
    is_break = kind.take(ws) == _BREAK
    del kind
    # token i lies between whitespace separators tok[i] and tok[i] + 1
    tok = np.flatnonzero(ws_pos[1:] - ws_pos[:-1] > 1).astype(pos_type)
    first = ws.take(tok)
    dots = ws.take(tok + 1)
    dots -= first
    dots -= 1
    del ws
    first += 1
    dot = seps.take(first)
    del seps, first
    start = ws_pos.take(tok)
    start += 1
    end = ws_pos.take(tok + 1)
    del ws_pos
    line = np.cumsum(is_break, dtype=pos_type)
    del is_break
    lines = int(line[-1]) + int(_VF_KIND[codes[-1]] != _BREAK)
    line = line.take(tok)
    line += 1
    del tok
    fast = dots == (t > 0)
    del dots
    stop = dot if t else end
    fast &= (stop > start) & (stop - start <= 15)
    if t:
        fast &= (end > dot + 1) & (end - dot <= 16)
    shared = np.flatnonzero(line[1:] == line[:-1])
    if shared.size:
        # the tokens of one line make one row, which is never fast
        first = np.ones(line.size, dtype=bool)
        first[shared + 1] = False
        last = np.roll(first, -1)
        fast &= first & last
        start, dot, fast = (a[first] for a in (start, dot, fast))
        end = end[last]
    return start, dot, end, fast, lines


def _hex_parts(codes, start, stop, fast):
    """int64 value of the hex digits codes[start:stop] of every fast row.

    Horner over right-aligned digit columns: one step per digit of the
    longest part, each over a block of rows, so that the gathers' intp
    indices stay small.  Rows that are not fast read as 0.
    """
    acc = np.zeros(start.size, dtype=np.int64)
    for lo in range(0, start.size, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        length = stop[rows] - start[rows]
        length *= fast[rows]
        width = int(length.max(initial=0))
        pos = stop[rows] - np.intp(width)
        out = acc[rows]
        for k in range(width, 0, -1):
            digit = _NIBBLE[codes[pos]]
            digit *= length >= k
            out <<= 4
            out |= digit
            pos += 1
    return acc


def _vf_entry(text, start, end, t):
    """(value, extra) of the VF row text[start:end], or its ParseError."""
    value_part, dot, extra_part = text[start:end].partition(".")
    at_dot = start + len(value_part)
    if t == 0 and dot:
        raise _located("t=0 entries must not carry extra bits", text, at_dot)
    if t > 0 and not dot:
        raise _located("entry is missing its extra bits", text, end)
    try:
        value = _int64_hex(value_part)
    except ValueError:
        raise _located(f"bad hex value {value_part!r}", text, start) from None
    if not t:
        return value, 0
    try:
        return value, _int64_hex(extra_part)
    except ValueError:
        raise _located(f"bad hex extra bits {extra_part!r}", text, at_dot + 1) from None


def _int64_hex(part):
    """int(part, 16), refused with ValueError when int64 cannot hold it."""
    value = int(part, 16)
    if value >> 63:
        raise ValueError(part)
    return value


def vf_from_text(text, modulus=None):
    """Read a VF file with no per-line Python step for well-formed rows.

    Every row is located and tested at once (see `_vf_rows`), and the
    values of the fast rows are read by Horner over digit columns.  Each
    other row goes to the one-entry parser, in line order, which raises
    its parse error or returns its value.
    """
    if not text:
        raise ParseError("empty file", line=1, column=1)
    first_break = _LINE_BREAK.search(text)
    header_end = first_break.start() if first_break else len(text)
    header, columns = parse_header(text[:header_end], "VF", ("n", "m", "t", "field"))
    n, m, t = header["n"], header["m"], header["t"]
    spec = _header_field(header, columns, modulus)
    # dimensions no function has are refused before the body is read
    try:
        _check_dimensions(n, m, t)
    except FieldError as exc:
        raise ParseError(
            str(exc), line=1, column=columns["t" if exc.extra else "m"]
        ) from None
    size = 1 << n
    codes = _vf_codes(text, header_end)
    start, dot, end, fast, lines = _vf_rows(codes, header_end, t)
    if start.size != size:
        raise ParseError(
            f"expected {size} output lines, got {start.size}", line=lines + 1, column=1
        )
    values = _hex_parts(codes, start, dot if t else end, fast)
    extra = _hex_parts(codes, dot + 1, end, fast) if t else None
    del codes
    for r in np.flatnonzero(~fast).tolist():
        value, bits = _vf_entry(text, int(start[r]), int(end[r]), t)
        values[r] = value
        if t:
            extra[r] = bits
    try:
        return VectorialFunction(spec, m, values, extra, t)
    except FieldError as exc:
        if exc.point is None:
            raise ParseError(f"inconsistent table: {exc}", line=2, column=1) from None
        # the bad row's value, or the character after its dot
        pos = int(start[exc.point])
        if exc.extra:
            pos = text.index(".", pos) + 1
        raise _located(f"inconsistent table: {exc}", text, pos) from None


def read_vf(path, modulus=None):
    return vf_from_text(_read_text(path), modulus=modulus)


def read_any(path, modulus=None):
    """Read a BF or VF file, dispatching on the header tag."""
    text = _read_text(path)
    # the first run of non-whitespace, found without splitting the text
    tag = re.match(r"\s*(\S*)", text).group(1)
    if tag == "BF":
        return bf_from_text(text, modulus=modulus)
    if tag == "VF":
        return vf_from_text(text, modulus=modulus)
    raise ParseError(f"unrecognized header tag {tag!r}", line=1, column=1)
