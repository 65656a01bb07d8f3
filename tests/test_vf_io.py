"""The VF reader and writer against the line-by-line oracles of oracles.py."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bentvec import FieldSpec, VectorialFunction
from bentvec.errors import ParseError
from bentvec.fileio import read_any, vf_from_text, vf_to_text, write_vf

from oracles import naive_vf_from_text, naive_vf_to_text


def random_vf(n, m, t, seed, zero=False):
    field = FieldSpec.default(n)
    rng = np.random.default_rng(seed)
    sub = field.subfield(m)
    if zero:
        values = np.zeros(field.size, dtype=np.int64)
        extra = np.zeros(field.size, dtype=np.int64)
    else:
        values = sub[rng.integers(0, sub.size, field.size)]
        extra = rng.integers(0, 1 << t, field.size)
    return VectorialFunction(field, m, values, extra if t else None, t)


@st.composite
def shapes(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    return n, m, draw(st.integers(0, 3))


def outcome(read, text):
    """What a reader makes of a text: the function, or its parse error."""
    try:
        return read(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.column)


@settings(max_examples=80, deadline=None)
@given(shape=shapes(), seed=st.integers(0, 2**32 - 1), zero=st.booleans())
@example(shape=(17, 1, 2), seed=17, zero=False)  # 2^17 rows: several blocks
def test_write_is_the_oracle_text(shape, seed, zero):
    F = random_vf(*shape, seed, zero)
    text = vf_to_text(F)
    assert text == naive_vf_to_text(F)
    assert vf_from_text(text) == F


# line breaks of str.splitlines, and other whitespace around entries
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
BLANKS = [" ", "\t", "  \t", "\x1f", "\xa0", "\u3000"]


def respell(text, rng, rate):
    """The same table in other legal spellings, chosen row by row."""
    header, *rows = text.splitlines()
    out = [header]
    for row in rows:
        value, dot, extra = row.partition(".")
        if rng.random() < rate:
            value = "0" * rng.choice([1, 3, 16, 20]) + value
        if dot and rng.random() < rate:
            extra = "0" * rng.choice([1, 16]) + extra
        if dot and rng.random() < rate / 2:
            # int() takes blanks around the parts, so the dot may have them
            dot = rng.choice([" .", ". ", "\t.\t"])
        row = value + dot + extra
        if rng.random() < rate:
            row = row.upper()
        if rng.random() < rate:
            row = rng.choice(BLANKS) + row + rng.choice(BLANKS + [""])
        if rng.random() < rate / 2:
            out.append(rng.choice(["", " ", "\t\xa0"]))  # a blank line
        out.append(row)
    breaks = [rng.choice(BREAKS) if rng.random() < rate else "\n" for _ in out]
    tail = rng.choice(["", "\n", "\r\n", "\n\n", " "])
    return "".join(line + brk for line, brk in zip(out, breaks))[:-1] + tail


@settings(max_examples=120, deadline=None)
@given(
    shape=shapes(),
    seed=st.integers(0, 2**32 - 1),
    rate=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
def test_legal_spellings_read_as_the_oracle_reads_them(shape, seed, rate):
    F = random_vf(*shape, seed)
    text = respell(vf_to_text(F), random.Random(seed), rate)
    assert naive_vf_from_text(text) == F
    assert vf_from_text(text) == F


def plant(text, fault, rng, n, m, t):
    """The text with one fault planted on a random row."""
    header, *rows = text.splitlines()
    rows = rows or [""]  # earlier faults may have removed every row
    r = rng.randrange(len(rows))
    value, dot, extra = rows[r].partition(".")
    if fault == "no dot":
        rows[r] = value
    elif fault == "dot":
        rows[r] = value + ".1" if not dot else value + "." + extra + ".0"
    elif fault == "double dot":
        rows[r] = value + ".." + (extra or "1")
    elif fault == "empty part":
        rows[r] = rng.choice(["." + (extra or "0"), value + ".", ".", ""])
    elif fault == "two tokens":
        rows[r] = rows[r] + rng.choice([" ", "\t", "\xa0"]) + rows[r]
    elif fault == "bad character":
        entry = list(rows[r])
        entry.insert(rng.randrange(len(entry) + 1), rng.choice("gx_+-\u0663\uff11"))
        rows[r] = "".join(entry)
    elif fault == "overflow":
        big = rng.choice(["8" + "0" * 15, "f" * 17, "1" + "0" * 16])
        rows[r] = big + dot + extra if rng.random() < 0.5 or not dot else value + dot + big
    elif fault == "outside":
        field = FieldSpec.default(n)
        sub = set(field.subfield(m).tolist())
        outside = [v for v in range(min(field.size, 512) + 1) if v not in sub]
        rows[r] = f"{rng.choice(outside):x}" + dot + extra
    elif fault == "extra bits":
        rows[r] = value + "." + f"{rng.randrange(1 << t, 1 << (t + 2)):x}"
    elif fault == "few rows":
        del rows[r]
    elif fault == "many rows":
        rows.insert(r, rows[r])
    return "\n".join([header] + rows) + "\n"


FAULTS = [
    "no dot", "dot", "double dot", "empty part", "two tokens", "bad character",
    "overflow", "outside", "extra bits", "few rows", "many rows",
]


@settings(max_examples=300, deadline=None)
@given(
    shape=shapes(),
    seed=st.integers(0, 2**32 - 1),
    faults=st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3),
    rate=st.sampled_from([0.0, 0.3]),
)
def test_planted_faults_are_reported_as_the_oracle_reports_them(shape, seed, faults, rate):
    n, m, t = shape
    rng = random.Random(seed)
    text = vf_to_text(random_vf(n, m, t, seed))
    for fault in faults:
        if fault == "extra bits" and t == 0:
            fault = "dot"
        text = plant(text, fault, rng, n, m, t)
    if rate:
        text = respell(text, rng, rate)
    want = outcome(naive_vf_from_text, text)
    assert outcome(vf_from_text, text) == want


def test_spellings_that_only_the_one_entry_parser_reads():
    # each is legal, and each fails a layout test of the whole-array pass
    F = random_vf(4, 2, 1, seed=5)
    rows = vf_to_text(F).splitlines()
    value, _, extra = rows[3].partition(".")
    for entry in [f"{'0' * 20}{value}.{extra}", f"{value} .{extra}", f"{value}. {extra}"]:
        text = "\n".join(rows[:3] + [entry] + rows[4:]) + "\n"
        assert vf_from_text(text) == naive_vf_from_text(text) == F


@pytest.mark.parametrize(
    "text, tag",
    [
        ("\n\n  VF n=4 m=2 t=0 field=13\n" + "0\n" * 16, "VF"),
        ("\r\n\u2028\tBF n=4 field=13\n0000\n", "BF"),
        (" \n\t\u3000\n\x85", ""),
        ("", ""),
    ],
)
def test_read_any_finds_the_tag_after_leading_whitespace(tmp_path, text, tag):
    path = tmp_path / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError) as info:
        read_any(path)
    # a blank first line is not a header, whichever reader the tag picks
    expected = f"expected header tag {tag!r}" if tag else "unrecognized header tag ''"
    assert str(info.value) == f"{expected} at line 1, col 1"


def test_reading_a_gold_sized_file_stays_small():
    # the layout of a (16, 4+2) file as `construct --family gold` writes it
    F = random_vf(16, 4, 2, seed=7)
    text = vf_to_text(F)
    assert vf_from_text(text) == F  # field tables are built before the trace
    tracemalloc.start()
    try:
        vf_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 4.1 MB measured; the line-by-line reader peaks at 6.5 MB here, most
    # of it one str per line
    assert peak < 5_000_000


def test_writing_an_n18_file_stays_small(tmp_path):
    # the text is built and written a block of rows at a time: 12.0 MB were
    # traced when it was built whole, 0.48 MB now
    F = random_vf(18, 6, 2, seed=18)
    path = tmp_path / "F.vf"
    write_vf(path, F)  # field tables are built before the trace
    tracemalloc.start()
    try:
        write_vf(path, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20
    assert path.read_text() == vf_to_text(F)
