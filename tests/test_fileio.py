"""BF/VF file formats: round trips and parse diagnostics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentvec import BooleanFunction, FieldSpec, VectorialFunction, fileio
from bentvec.errors import BentvecError, FieldError, ParseError
from bentvec.fileio import (
    bf_from_text,
    bf_to_text,
    field_from_modulus,
    read_any,
    read_bf,
    read_vf,
    vf_from_text,
    vf_to_text,
    write_bf,
    write_vf,
)

F16 = FieldSpec.default(4)


def kasami(field):
    k = field.n // 2
    return VectorialFunction.from_univariate(field, k, [(1, (1 << k) + 1)])


def test_bf_roundtrip_bit_exact():
    rng = np.random.default_rng(41)
    for n in (1, 2, 4, 6, 8):
        spec = FieldSpec.default(n)
        f = BooleanFunction(spec, rng.integers(0, 2, size=spec.size))
        text = bf_to_text(f)
        assert bf_from_text(text) == f
        assert bf_to_text(bf_from_text(text)) == text


def test_reading_an_n20_bf_file_stays_small(tmp_path):
    # one table, unpacked from the payload and taken without a copy or a
    # whole-table mask: 2.13 MB traced
    n = 20
    x = np.arange(1 << n, dtype=np.uint32)
    table = (np.bitwise_count(x & 1023 & (x >> 10)) & 1).astype(np.uint8)
    path = tmp_path / "bent20.bf"
    write_bf(path, BooleanFunction(FieldSpec.default(n), table))
    assert np.array_equal(read_bf(path).table, table)  # field tables built first
    tracemalloc.start()
    try:
        f = read_bf(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not f.table.flags.writeable
    assert peak <= 2.2 * 2**20


def test_the_constructor_copies_the_callers_table():
    table = np.zeros(16, dtype=np.uint8)
    f = BooleanFunction(F16, table)
    table[0] = 1
    assert f.weight() == 0 and table.flags.writeable
    with pytest.raises(FieldError, match="entries must be bits"):
        BooleanFunction(F16, np.full(16, 2, dtype=np.int64))


def test_bf_header_and_payload_shape():
    f = BooleanFunction(F16, [1] + [0] * 15)
    text = bf_to_text(f)
    lines = text.splitlines()
    assert lines[0] == "BF n=4 field=13"
    assert lines[1] == "1000"  # index 0 in the low bit of the first nibble


def test_bf_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        bf_from_text("XX n=4 field=13\nffff\n")
    assert info.value.line == 1
    with pytest.raises(ParseError) as info:
        bf_from_text("BF n=4 field=13\nfff\n")
    assert info.value.line == 2 and info.value.column == 4
    with pytest.raises(ParseError) as info:
        bf_from_text("BF n=4 field=13\nffgf\n")
    assert info.value.line == 2 and info.value.column == 3
    with pytest.raises(ParseError) as info:
        bf_from_text("BF n=4 field=13\n")
    assert info.value.line == 2
    with pytest.raises(ParseError) as info:
        bf_from_text("BF n=4\nffff\n")
    assert info.value.line == 1
    with pytest.raises(ParseError) as info:
        bf_from_text("BF n=4 field=13\nffff\nstray\n")
    assert info.value.line == 3


@pytest.mark.parametrize(
    "header, column",
    [
        ("BF n=\u0664 field=13", 4),  # Arabic-Indic four
        ("BF n=0_4 field=13", 4),
        ("BF n=+4 field=13", 4),
        ("BF n=4 field=\uff11\uff13", 8),  # fullwidth one three
        ("BF n=4 field=1_3", 8),
        ("BF n=4 field=0x13", 8),
        ("BF n=4 field=+13", 8),
        ("VF n=\u0664 m=2 t=0 field=13", 4),
        ("VF n=4 m=+2 t=0 field=13", 8),
        ("VF n=4 m=2 t=0_0 field=13", 12),
        ("VF n=4 m=2 t=0 field=1_3", 16),
        ("VF n=4 m=2 t=0 field=\uff11\uff13", 16),
    ],
)
def test_header_values_take_ascii_digits_only(header, column):
    body = "0000\n" if header.startswith("BF") else "0\n" * 16
    read = bf_from_text if header.startswith("BF") else vf_from_text
    with pytest.raises(ParseError) as info:
        read(f"{header}\n{body}")
    assert (info.value.line, info.value.column) == (1, column)
    assert "bad value for header field" in str(info.value)


def test_bf_rejects_nonzero_padding():
    # n=1: two table bits in one nibble, high bits must be zero
    spec = FieldSpec.default(1)
    good = bf_from_text("BF n=1 field=3\n3\n")
    assert list(good.table) == [1, 1]
    with pytest.raises(ParseError):
        bf_from_text("BF n=1 field=3\n7\n")


def test_vf_roundtrip():
    G = kasami(F16)
    text = vf_to_text(G)
    assert text.splitlines()[0] == "VF n=4 m=2 t=0 field=13"
    assert vf_from_text(text) == G
    f1 = BooleanFunction(F16, F16.linear_form_table(3))
    f2 = BooleanFunction(F16, F16.linear_form_table(5))
    aug = G.augment([f1, f2])
    text = vf_to_text(aug)
    assert "." in text.splitlines()[2]
    assert vf_from_text(text) == aug


def test_vf_parse_errors():
    G = kasami(F16)
    lines = vf_to_text(G).splitlines()
    truncated = "\n".join(lines[:-3]) + "\n"
    with pytest.raises(ParseError):
        vf_from_text(truncated)
    bad_value = "\n".join([lines[0], "zz"] + lines[2:]) + "\n"
    with pytest.raises(ParseError) as info:
        vf_from_text(bad_value)
    assert info.value.line == 2
    too_wide = "\n".join([lines[0], "f" * 40] + lines[2:]) + "\n"
    with pytest.raises(ParseError) as info:
        vf_from_text(too_wide)  # does not fit the int64 table
    assert info.value.line == 2
    with_dot = "\n".join([lines[0], "0.1"] + lines[2:]) + "\n"
    with pytest.raises(ParseError):
        vf_from_text(with_dot)  # t=0 entries must not carry extras
    # declared t=1 but entries carry no extra bits
    header_t1 = lines[0].replace("t=0", "t=1")
    with pytest.raises(ParseError):
        vf_from_text("\n".join([header_t1] + lines[1:]) + "\n")


def test_vf_rejects_outputs_outside_subfield():
    text = "VF n=4 m=2 t=0 field=13\n" + "\n".join(["2"] * 16) + "\n"
    with pytest.raises(ParseError):
        vf_from_text(text)
    # outside the field altogether
    text = "VF n=4 m=2 t=0 field=13\n" + "\n".join(["ff"] * 16) + "\n"
    with pytest.raises(ParseError):
        vf_from_text(text)


def test_vf_parse_reports_only_table_errors(monkeypatch):
    # a fault that is not bad data must not be disguised as a parse error
    text = vf_to_text(kasami(F16))

    def broken(*args, **kwargs):
        raise RuntimeError("bug")

    monkeypatch.setattr(VectorialFunction, "__init__", broken)
    with pytest.raises(RuntimeError):
        vf_from_text(text)


def test_read_any_dispatch(tmp_path):
    f = BooleanFunction(F16, [0] * 15 + [1])
    bf_path = tmp_path / "f.bf"
    write_bf(bf_path, f)
    assert read_any(bf_path) == f
    G = kasami(F16)
    vf_path = tmp_path / "g.vf"
    write_vf(vf_path, G)
    assert read_any(vf_path) == G
    junk = tmp_path / "x.txt"
    junk.write_text("hello\n")
    with pytest.raises(ParseError):
        read_any(junk)


def test_write_is_deterministic(tmp_path):
    G = kasami(F16)
    p1, p2 = tmp_path / "a.vf", tmp_path / "b.vf"
    write_vf(p1, G)
    write_vf(p2, G)
    assert p1.read_bytes() == p2.read_bytes()


def test_written_bytes_are_the_same_on_every_os(tmp_path, monkeypatch):
    # the temp file is opened as UTF-8 with no newline translation, so no
    # platform's line separator or locale reaches the bytes
    opened = []
    fdopen = fileio.os.fdopen

    def recording(fd, *args, **kwargs):
        opened.append((args, kwargs))
        return fdopen(fd, *args, **kwargs)

    monkeypatch.setattr(fileio.os, "fdopen", recording)
    G = kasami(F16).augment([BooleanFunction(F16, F16.linear_form_table(3))])
    path = tmp_path / "g.vf"
    write_vf(path, G)
    monkeypatch.undo()
    [(args, kwargs)] = opened
    assert args == ("w",) and kwargs == {"encoding": "utf-8", "newline": ""}
    assert path.read_bytes() == vf_to_text(G).encode("ascii")


def test_field_from_modulus():
    assert field_from_modulus(4, 0x13) == F16
    aes = field_from_modulus(8, 0x11B)
    assert aes.generator == 3


def test_read_with_field_override(tmp_path):
    f = BooleanFunction(F16, [0, 1] * 8)
    path = tmp_path / "f.bf"
    write_bf(path, f)
    other = FieldSpec.with_least_generator(4, 0x19)  # x^4+x^3+1
    g = read_bf(path, modulus=0x19)
    assert np.array_equal(g.table, f.table)
    assert g.field == other
    with pytest.raises(FieldError):
        read_bf(path, modulus=0x11B)  # degree 8, the header says n=4


def oracle_bf_payload(table):
    """The BF payload by its definition: index 4p + j is bit j of digit p."""
    digits = []
    for p in range(0, len(table), 4):
        nib = sum(int(b) << j for j, b in enumerate(table[p : p + 4]))
        digits.append("0123456789abcdef"[nib])
    return "".join(digits)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), upper=st.booleans())
def test_bf_write_read_round_trip(n, seed, upper):
    spec = FieldSpec.default(n)
    table = np.random.default_rng(seed).integers(0, 2, spec.size, dtype=np.uint8)
    f = BooleanFunction(spec, table)
    text = bf_to_text(f)
    assert text == f"BF n={n} field={spec.modulus:x}\n{oracle_bf_payload(table)}\n"
    lines = text.splitlines()
    payload = lines[1].upper() if upper else lines[1]
    assert bf_from_text(f"{lines[0]}\n{payload}\n") == f


# characters int(ch, 16) accepts or that look like hex, none in the format
NOT_HEX = ["g", "x", "_", "+", "-", " ", ".", "\u0663", "\uff11", "\u00e9", "\ud800"]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 10), data=st.data())
def test_bf_bad_character_column(n, data):
    spec = FieldSpec.default(n)
    payload = list(bf_to_text(BooleanFunction.zero(spec)).splitlines()[1])
    p = data.draw(st.integers(0, len(payload) - 1))
    ch = data.draw(st.sampled_from(NOT_HEX))
    if ch == " " and p in (0, len(payload) - 1):
        ch = "g"  # an outer blank is stripped, so the length check fires
    payload[p] = ch
    text = f"BF n={n} field={spec.modulus:x}\n{''.join(payload)}\n"
    with pytest.raises(ParseError) as info:
        bf_from_text(text)
    assert (info.value.line, info.value.column) == (2, p + 1)
    assert f"bad hex character {ch!r}" in str(info.value)


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("BF n=4 field=13\n  0z00\n", "bad hex character 'z'", 4),
        ("BF n=4 field=13\n \t0z00\n", "bad hex character 'z'", 4),
        ("BF n=4 field=13\n  000\n", "payload must be 4 hex characters, got 3", 6),
        ("BF n=1 field=3\n \t8\n", "padding bits must be zero", 3),
        ("BF n=4 field=13\n0000\n \t x\n", "unexpected trailing content", 4),
        ("BF n=4 field=13\n\t0000\n\n  0\n", "unexpected trailing content", 3),
        # a blank payload line: the column after its blanks, on line 2
        ("BF n=4 field=13\n  \n", "payload must be 4 hex characters, got 0", 3),
        ("BF n=4 field=13\n\n", "payload must be 4 hex characters, got 0", 1),
        ("BF n=4 field=13\r\n \t\r\n", "payload must be 4 hex characters, got 0", 3),
    ],
)
def test_bf_columns_count_leading_blanks(text, message, column):
    line = 2 if "trailing" not in message else len(text.splitlines())
    with pytest.raises(ParseError) as info:
        bf_from_text(text)
    assert str(info.value) == f"{message} at line {line}, col {column}"


@pytest.mark.parametrize(
    "payload, ch, column",
    [
        ("0\u00e900", "\u00e9", 2),
        ("  0\U0001f600\u00e90", "\U0001f600", 4),
        ("\t00f\U0001f600", "\U0001f600", 5),
        (" \u00e9\U0001f60000", "\u00e9", 2),
    ],
)
def test_bf_non_ascii_character_is_one_column(tmp_path, payload, ch, column):
    # each character, astral ones too, is one column in the file
    path = tmp_path / "f.bf"
    path.write_text(f"BF n=4 field=13\n{payload}\n", encoding="utf-8")
    for read in (read_bf, read_any):
        with pytest.raises(ParseError) as info:
            read(path)
        assert str(info.value) == f"bad hex character {ch!r} at line 2, col {column}"


def test_bf_lone_surrogate_is_one_column():
    # no UTF-8 file decodes to a lone surrogate, but a str can hold one
    for payload, column in (("0\ud80000", 2), ("  00\udfff\U0001f600", 5)):
        with pytest.raises(ParseError) as info:
            bf_from_text(f"BF n=4 field=13\n{payload}\n")
        ch = payload[column - 1]
        assert str(info.value) == f"bad hex character {ch!r} at line 2, col {column}"


def test_bf_rejects_unicode_digits():
    # int("\u0663", 16) == 3, but the format allows ASCII hex digits only
    for ch in ("\u0663", "\uff13", "\U0001d7d1"):
        with pytest.raises(ParseError) as info:
            bf_from_text(f"BF n=4 field=13\nff{ch}f\n")
        assert (info.value.line, info.value.column) == (2, 3)


@pytest.mark.parametrize(
    "entry, column",
    [("0x1", 2), ("+1", 1), ("-1", 1), ("1_0", 2), ("\u0661", 1), ("  1g", 4), ("1.\u0661", 3)],
)
def test_vf_rejects_non_hex_spellings(entry, column):
    lines = vf_to_text(kasami(F16)).splitlines()
    # the t=1 header makes every row carry a dot, so only the bad
    # character can be at fault
    header = lines[0].replace("t=0", "t=1")
    body = [f"{row}.0" for row in lines[1:]]
    body[5] = entry if "." in entry else f"{entry}.0"
    with pytest.raises(ParseError) as info:
        vf_from_text("\n".join([header] + body) + "\n")
    assert (info.value.line, info.value.column) == (7, column)
    assert "bad character" in str(info.value)


def test_vf_bad_character_after_blank_and_crlf_lines():
    lines = vf_to_text(kasami(F16)).splitlines()
    text = "\r\n".join(lines[:3] + ["", lines[3] + "z"] + lines[4:]) + "\r\n"
    with pytest.raises(ParseError) as info:
        vf_from_text(text)
    assert (info.value.line, info.value.column) == (5, len(lines[3]) + 1)



@pytest.mark.parametrize("bad", ["z", "-", "\u0663"])
@pytest.mark.parametrize("nel", ["\x85", "\x0b"])  # ASCII text has no \x85
@pytest.mark.parametrize("space", ["", " "])
def test_vf_bad_character_after_crlf_nel_and_space(bad, nel, space):
    # ASCII text is checked on its codes, other text by the pattern; both
    # report the line and column that str.splitlines gives
    lines = vf_to_text(kasami(F16)).splitlines()
    text = (
        f"{lines[0]}\n{lines[1]}\r\n{lines[2]}{nel}{lines[3]}{nel}"
        f"{space}{bad}{lines[4]}\n" + "\n".join(lines[5:]) + "\n"
    )
    with pytest.raises(ParseError) as info:
        vf_from_text(text)
    assert str(info.value) == f"bad character {bad!r} at line 5, col {len(space) + 1}"

def _mutate(text, edits):
    chars = list(text)
    for op, pos, ch in edits:
        pos %= len(chars) + 1
        if op == 0:
            chars.insert(pos, ch)
        elif chars:
            pos %= len(chars)
            if op == 1:
                chars[pos] = ch
            else:
                del chars[pos]
    return "".join(chars)


EDITS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 10**6), st.characters()), max_size=8
)


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from(["bf", "vf", ""]), edits=EDITS, vf=st.booleans())
def test_fuzzed_text_raises_only_bentvec_errors(base, edits, vf):
    # edits of valid files, and short random texts grown from nothing
    texts = {
        "bf": bf_to_text(BooleanFunction(F16, [0, 1, 1, 0] * 4)),
        "vf": vf_to_text(kasami(F16)),
        "": "",
    }
    text = _mutate(texts[base], edits)
    try:
        (vf_from_text if vf else bf_from_text)(text)
    except BentvecError:
        pass


@pytest.mark.parametrize(
    "row, entry, column, message",
    [
        # 2 is not in the subfield F_4 of GF(16); 16 is not in GF(16)
        (9, "2.0", 1, "outputs must lie in the subfield F_(2^2)"),
        (3, "  10.1", 3, "outputs must be elements of GF(2^4)"),
        (12, "1.2", 3, "extra bits out of range for t appended coordinates"),
        (0, " 0.3", 4, "extra bits out of range for t appended coordinates"),
    ],
)
def test_vf_inconsistent_entry_is_reported_at_its_line(row, entry, column, message):
    body = ["0.0"] * 16
    body[row] = entry
    # a blank line before the entries shifts every row down one line
    text = "VF n=4 m=2 t=1 field=13\n\n" + "\n".join(body) + "\n"
    with pytest.raises(ParseError) as info:
        vf_from_text(text)
    assert (info.value.line, info.value.column) == (row + 3, column)
    assert str(info.value).startswith(f"inconsistent table: {message} at line")


@pytest.mark.parametrize(
    "row, t, message, column",
    [
        ("   1.1", 0, "t=0 entries must not carry extra bits", 5),
        ("   1", 1, "entry is missing its extra bits", 5),
        ("   .1", 1, "bad hex value ''", 4),
        ("   1.", 1, "bad hex extra bits ''", 6),
        ("   1 1", 0, "bad hex value '1 1'", 4),
        ("   1 1", 1, "entry is missing its extra bits", 7),
        ("\t 1\t.", 1, "bad hex extra bits ''", 6),
        ("\xa0 f" + "0" * 16, 0, f"bad hex value {'f' + '0' * 16!r}", 3),
    ],
)
def test_vf_entry_errors_count_columns_from_the_line_start(row, t, message, column):
    # the same rule as every other error: blanks before the entry count
    body = ["0.0" if t else "0"] * 16
    body[3] = row
    text = f"VF n=4 m=2 t={t} field=13\n" + "\n".join(body) + "\n"
    with pytest.raises(ParseError) as info:
        vf_from_text(text)
    assert str(info.value) == f"{message} at line 5, col {column}"


def test_vf_inconsistent_value_line_without_extra_bits():
    body = ["0"] * 16
    body[9] = "2"
    with pytest.raises(ParseError) as info:
        vf_from_text("VF n=4 m=2 t=0 field=13\n" + "\n".join(body) + "\n")
    assert (info.value.line, info.value.column) == (11, 1)


@pytest.mark.parametrize(
    "text, column",
    [
        ("BF n=4 field=111\n0000\n", 8),
        ("VF n=4 m=2 t=0 field=111\n" + "0\n" * 16, 16),
        ("VF field=7 n=4 m=2 t=0\n" + "0\n" * 16, 4),
    ],
)
def test_header_modulus_of_wrong_degree_is_a_parse_error(text, column):
    read = bf_from_text if text.startswith("BF") else vf_from_text
    with pytest.raises(ParseError) as info:
        read(text)
    assert (info.value.line, info.value.column) == (1, column)
    modulus = text.split("field=")[1].split()[0]
    assert str(info.value).startswith(f"modulus 0x{modulus} does not have degree 4")


@pytest.mark.parametrize(
    "header, message, column",
    [
        ("VF n=4 m=3 t=0 field=13", "output dimension 3 must divide n=4", 8),
        ("VF n=4 m=0 t=0 field=13", "output dimension 0 must divide n=4", 8),
        ("VF n=4 m=2 t=40 field=13", "at most 32 output bits, got m + t = 42", 12),
        ("VF t=31 m=2 n=4 field=13", "at most 32 output bits, got m + t = 33", 4),
        ("BF n=4 field=13 n=4", "duplicate header field 'n'", 17),
        ("VF n=4 m=2 t=0 field=13 field=13", "duplicate header field 'field'", 25),
        ("VF n=4 m=2 m=2 t=0 field=13", "duplicate header field 'm'", 12),
        ("BF n=0 field=13", "n=0 out of range", 1),
        ("BF n=25 field=13", "n=25 out of range", 1),
        ("VF n=0 m=2 t=0 field=13", "n=0 out of range", 1),
        ("VF n=25 m=2 t=0 field=13", "n=25 out of range", 1),
        # n = 24 is in range, so the next header check is the one that fails
        ("BF n=24 field=13", "modulus 0x13 does not have degree 24", 9),
        ("VF n=24 m=5 t=0 field=1000087", "output dimension 5 must divide n=24", 9),
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2 has degree 4 but makes no field
        ("BF n=4 field=15", "modulus 0x15 is not irreducible", 8),
        ("VF n=4 m=2 t=0 field=15", "modulus 0x15 is not irreducible", 16),
        ("BF n=4 field=13 junk", "malformed header field 'junk'", 17),
        ("VF n=4 m=2 junk t=0 field=13", "malformed header field 'junk'", 12),
    ],
)
def test_header_dimensions_and_repeats_are_header_errors(header, message, column):
    # refused from the header alone: the body, which is not even hex, is
    # never read
    read = bf_from_text if header.startswith("BF") else vf_from_text
    for body in ("zz\n" * 16, "0.0\n" * 16):
        with pytest.raises(ParseError) as info:
            read(header + "\n" + body)
        assert str(info.value) == f"{message} at line 1, col {column}"
