"""Every parse error that `verify` reports lies inside the file it read.

Random single-character edits of valid BF and VF files (inserts,
replacements and deletions, line breaks and non-ASCII blanks among them,
and bytes that are not UTF-8) are written to a file and verified through
`cli.main`.  Each run exits 0, or exits 1 with one stderr line naming a
line of the file, or the line after its last, and a column of that line
or the one after its last character.
"""

import contextlib
import io
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from bentvec import BooleanFunction, FieldSpec, VectorialFunction
from bentvec.cli import main
from bentvec.fileio import bf_to_text, vf_to_text

# bodies longer than their headers, so that most edits land in a body
F64 = FieldSpec.default(6)
F256 = FieldSpec.default(8)
KASAMI = VectorialFunction.from_univariate(F64, 3, [(1, 9)])
BASES = [
    bf_to_text(BooleanFunction(F256, F256.linear_form_table(5))),
    bf_to_text(BooleanFunction(FieldSpec.default(1), [1, 0])),
    vf_to_text(KASAMI),
    vf_to_text(KASAMI.augment([BooleanFunction(F64, F64.linear_form_table(3))])),
]

# the line breaks of str.splitlines, blanks in and outside ASCII, and the
# characters the formats are made of
SPECIAL = list("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029 \t\x1f\xa0\u3000.=0123456789abcdefABCg")
CHARS = st.one_of(
    st.sampled_from(SPECIAL), st.characters(blacklist_categories=("Cs",))
)
EDIT = st.tuples(st.sampled_from(["insert", "replace", "delete"]), st.integers(0, 10**6), CHARS)

LOCATED = re.compile(r"parse error: .* at line ([0-9]+), col ([0-9]+)\n")


def edit(text, op, pos, ch):
    pos %= len(text) + 1
    if op == "insert":
        return text[:pos] + ch + text[pos:]
    pos = min(pos, len(text) - 1)
    if op == "replace":
        return text[:pos] + ch + text[pos + 1 :]
    return text[:pos] + text[pos + 1 :]


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from(BASES),
    edits=st.lists(EDIT, min_size=1, max_size=4),
    byte=st.tuples(st.integers(0, 3), st.integers(0, 10**6), st.integers(0x80, 0xFF)),
)
def test_every_parse_error_is_located_inside_the_file(tmp_path_factory, base, edits, byte):
    text = base
    for op, pos, ch in edits:
        text = edit(text, op, pos, ch)
    data = text.encode("utf-8")
    one_in_four, pos, value = byte
    if one_in_four == 3:
        # a byte from 0x80 up is never valid UTF-8 where it lands
        pos %= len(data) + 1
        data = data[:pos] + bytes([value]) + data[pos:]
    path = tmp_path_factory.mktemp("edits") / "edited"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    err = err.getvalue()
    if code == 0:
        assert err == ""
        return
    assert code == 1, err
    located = LOCATED.fullmatch(err)
    assert located, err
    line, column = int(located.group(1)), int(located.group(2))
    # a byte that is not UTF-8 is one character of its line
    lines = data.decode("utf-8", "surrogateescape").splitlines()
    assert 1 <= line <= len(lines) + 1, (err, lines)
    width = len(lines[line - 1]) if line <= len(lines) else 0
    assert 1 <= column <= width + 1, (err, lines)
