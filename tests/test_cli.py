"""CLI surface: exit codes, file outputs, determinism, round trips."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import bentvec

from bentvec import BooleanFunction, FieldSpec, VectorialFunction, constructions
from bentvec.cli import main
from bentvec.errors import ParseError
from bentvec.fileio import parse_header, read_vf, write_bf, write_vf

F16 = FieldSpec.default(4)


def run(argv):
    return main(argv)


def test_construct_kasami_n8(tmp_path, capsys):
    out = tmp_path / "k8.vf"
    code = run(
        [
            "construct", "--family", "kasami", "--n", "8", "--tau", "4",
            "--poly", "X1*X2*X3", "--auto-u", "--out", str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "vectorial bent (8,4)" in stdout
    assert out.exists()
    report = json.loads((tmp_path / "k8.vf.report.json").read_text())
    assert report["ok"] is True
    assert report["degree_measured"] == "3"
    assert report["family"] == "kasami"


def test_construct_usage_error():
    assert run(["construct", "--family", "kasami", "--out", "x.vf"]) == 1
    assert run(["bogus"]) == 1


def test_construct_precondition_exit():
    # gcd(2, 4) != 1 for n=8 Niho
    code = run(
        [
            "construct", "--family", "niho", "--n", "8", "--r", "2",
            "--auto-u", "--out", "/tmp/never-written.vf",
        ]
    )
    assert code == 2
    # missing both --u and --auto-u
    code = run(
        ["construct", "--family", "kasami", "--n", "4", "--out", "/tmp/x.vf"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "family, n, message",
    [
        (["kasami"], 3, "Kasami family needs even n"),
        (["kasami"], 1, "Kasami family needs even n"),
        (["niho", "--r", "2"], 5, "Niho family needs even n"),
        (["gold"], 5, "Gold-like family needs n = 4k"),
        (["gold"], 2, "Gold-like family needs n = 4k"),
    ],
    ids=["kasami-n3", "kasami-n1", "niho-n5", "gold-n5", "gold-n2"],
)
def test_auto_u_reports_the_family_precondition_on_n(tmp_path, capsys, family, n, message):
    # the recipe refuses n as the family does, before choosing any u
    out = str(tmp_path / "z.vf")
    for us in (["--auto-u"], ["--u", "1"]):
        argv = ["construct", "--family", *family, "--n", str(n), *us, "--out", out]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(out)


def test_construct_verify_roundtrip(tmp_path, capsys):
    out = tmp_path / "n6.vf"
    code = run(
        [
            "construct", "--family", "niho", "--n", "6", "--r", "2",
            "--tau", "2", "--poly", "X1*X2", "--auto-u", "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads((out.parent / "n6.vf.report.json").read_text())
    capsys.readouterr()
    assert run(["verify", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert report["verified_class"] in stdout


def test_construct_with_tail(tmp_path):
    out = tmp_path / "hat.vf"
    code = run(
        [
            "construct", "--family", "kasami", "--n", "4", "--tau", "2",
            "--poly", "X1*X2", "--t", "2", "--seed", "5",
            "--auto-u", "--out", str(out),
        ]
    )
    assert code == 0
    hat = read_vf(out)
    assert hat.t == 2 and hat.out_bits == 4
    report = json.loads((tmp_path / "hat.vf.report.json").read_text())
    assert report["bent_components_measured"] == "12"
    assert report["plateaued_iff_ok"] is True


def test_construct_deterministic(tmp_path):
    args = [
        "construct", "--family", "gold", "--n", "8", "--tau", "2",
        "--poly", "X1*X2", "--auto-u",
    ]
    a, b = tmp_path / "a.vf", tmp_path / "b.vf"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ra = (tmp_path / "a.vf.report.json").read_bytes()
    rb = (tmp_path / "b.vf.report.json").read_bytes()
    assert ra == rb


def test_construct_stamp_adds_timestamp(tmp_path):
    out = tmp_path / "s.vf"
    assert run(
        [
            "construct", "--family", "kasami", "--n", "4", "--tau", "2",
            "--poly", "X1*X2", "--auto-u", "--stamp", "--out", str(out),
        ]
    ) == 0
    report = json.loads((tmp_path / "s.vf.report.json").read_text())
    assert "timestamp" in report


def test_verify_bf_zero_function(tmp_path, capsys):
    path = tmp_path / "zero.bf"
    write_bf(path, BooleanFunction.zero(F16))
    assert run(["verify", str(path)]) == 0
    stdout = capsys.readouterr().out
    assert "Plateaued(16)" in stdout


def test_verify_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.bf"
    bad.write_text("BF n=4 field=13\nff\n")
    assert run(["verify", str(bad)]) == 1
    assert "line 2" in capsys.readouterr().err
    missing = tmp_path / "missing.bf"
    assert run(["verify", str(missing)]) == 1


def test_verify_unreadable_path_is_an_error(tmp_path, capsys):
    # a directory cannot be read as a file: exit 1, no traceback
    assert run(["verify", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_with_jobs(tmp_path, capsys):
    out = tmp_path / "k.vf"
    assert run(
        [
            "construct", "--family", "kasami", "--n", "6", "--tau", "3",
            "--poly", "X1*X2*X3", "--auto-u", "--out", str(out),
        ]
    ) == 0
    capsys.readouterr()
    assert run(["verify", str(out)]) == 0
    assert "vectorial bent (6,3)" in capsys.readouterr().out
    # the thread-pool flag is gone: a usage error now
    assert run(["verify", str(out), "--jobs", "4"]) == 1
    assert "--jobs" in capsys.readouterr().err


VERIFY_K4_T2 = """\
VF n=4 m=2 t=2 field=13
class: vectorial plateaued (4,4)
degree: 2
bent components: 12 (bound 12)
  component lambda=0 v=1: Plateaued(16), degree 1
  component lambda=0 v=2: Plateaued(16), degree 1
  component lambda=0 v=3: Plateaued(16), degree 1
  component lambda=1 v=0: Bent(4), degree 2
  component lambda=1 v=1: Bent(4), degree 2
  component lambda=1 v=2: Bent(4), degree 2
  component lambda=1 v=3: Bent(4), degree 2
  component lambda=6 v=0: Bent(4), degree 2
  component lambda=6 v=1: Bent(4), degree 2
  component lambda=6 v=2: Bent(4), degree 2
  component lambda=6 v=3: Bent(4), degree 2
  component lambda=7 v=0: Bent(4), degree 2
  component lambda=7 v=1: Bent(4), degree 2
  component lambda=7 v=2: Bent(4), degree 2
  component lambda=7 v=3: Bent(4), degree 2
"""

VERIFY_ODD_N5 = """\
VF n=5 m=1 t=1 field=25
class: not vectorial plateaued (5,2)
degree: 3
bent components: 0 (bound n/a)
  component lambda=0 v=1: Plateaued(8), degree 3
  component lambda=1 v=0: Plateaued(8), degree 2
  component lambda=1 v=1: Mixed{4,12,20}, degree 3
"""


def test_verify_vf_full_stdout_with_tail(tmp_path, capsys):
    out = tmp_path / "hat.vf"
    assert run(
        [
            "construct", "--family", "kasami", "--n", "4", "--tau", "2",
            "--poly", "X1*X2", "--t", "2", "--seed", "5",
            "--auto-u", "--out", str(out),
        ]
    ) == 0
    capsys.readouterr()
    assert run(["verify", str(out)]) == 0
    assert capsys.readouterr().out == VERIFY_K4_T2


def test_verify_vf_full_stdout_odd_n(tmp_path, capsys):
    # (Tr(x^3), Tr(x^7)) on GF(32): odd n has no bent components, yet
    # verify still prints a count
    f32 = FieldSpec.default(5)
    xs = np.arange(f32.size)
    tr = f32.abs_trace_table()
    F = VectorialFunction(
        f32, 1, tr[f32.pow_elems(xs, 3)], tr[f32.pow_elems(xs, 7)], t=1
    )
    path = tmp_path / "odd.vf"
    write_vf(path, F)
    assert run(["verify", str(path)]) == 0
    assert capsys.readouterr().out == VERIFY_ODD_N5


VERIFY_BF_N1 = """\
BF n=1 field=3
class: Plateaued(2)
degree: 1
weight: 1 (balanced: True)
spectrum |W| counts: 0: 1, 2: 1
"""

VERIFY_BF_N10 = """\
BF n=10 field=409
class: Mixed{0,4,8,12,16,20,24,28,...(25 values)}
degree: 9
weight: 498 (balanced: False)
spectrum |W| counts: 0: 58, 4: 100, 8: 102, 12: 101, 16: 89, 20: 78, 24: 65, \
28: 68, 32: 59, 36: 53, 40: 56, 44: 41, 48: 36, 52: 19, 56: 22, 60: 24, 64: 8, \
68: 14, 72: 11, 76: 7, 80: 5, 84: 5, 92: 1, 96: 1, 116: 1
"""

VERIFY_BF_N16 = """\
BF n=16 field=1100b
class: Mixed{0,64,128,192,256,320,384,448,...(16 values)}
degree: 3
weight: 32768 (balanced: True)
spectrum |W| counts: 0: 6462, 64: 12608, 128: 11704, 192: 9840, 256: 7840, \
320: 6032, 384: 4288, 448: 2848, 512: 1836, 576: 928, 640: 496, 704: 432, \
768: 112, 832: 80, 896: 24, 1024: 6
"""


def test_verify_bf_full_stdout_n1_padding(tmp_path, capsys):
    # two table bits in one digit: f(0) = 0, f(1) = 1, high bits padding
    path = tmp_path / "n1.bf"
    path.write_text("BF n=1 field=3\n2\n")
    assert run(["verify", str(path)]) == 0
    assert capsys.readouterr().out == VERIFY_BF_N1


def test_verify_bf_full_stdout_n10_mixed(tmp_path, capsys):
    f = FieldSpec.default(10)
    table = np.random.default_rng(10).integers(0, 2, f.size)
    path = tmp_path / "n10.bf"
    write_bf(path, BooleanFunction(f, table))
    assert run(["verify", str(path)]) == 0
    assert capsys.readouterr().out == VERIFY_BF_N10


def test_verify_bf_full_stdout_n16(tmp_path, capsys):
    # Tr(x^257 + x^7) on GF(2^16): a cubic with 16 distinct |W| values
    f = BooleanFunction.from_univariate(FieldSpec.default(16), [(1, 257), (1, 7)])
    path = tmp_path / "n16.bf"
    write_bf(path, f)
    assert run(["verify", str(path)]) == 0
    assert capsys.readouterr().out == VERIFY_BF_N16


def test_verify_override_checks_header_n_first(tmp_path, capsys):
    # n=30 is out of range; the override must not build GF(2^30) first
    bad = tmp_path / "bad.bf"
    bad.write_text("BF n=30 field=13\n0\n")
    assert run(["verify", str(bad)]) == 1
    plain = capsys.readouterr().err
    assert "line 1, col 1" in plain
    assert run(["verify", str(bad), "--field-modulus", "13"]) == 1
    assert capsys.readouterr().err == plain
    assert run(["propp", str(bad), "--field-modulus", "13", "--u", "1"]) == 1
    assert "line 1, col 1" in capsys.readouterr().err


def test_verify_locates_a_header_modulus_that_is_not_irreducible(tmp_path, capsys):
    # x^4 + x^2 + 1 has degree 4 but is (x^2 + x + 1)^2
    files = [("BF n=4 field=15\n0000\n", 8), ("VF n=2 m=1 t=0 field=5\n0\n1\n1\n0\n", 16)]
    for text, column in files:
        bad = tmp_path / "bad"
        bad.write_text(text)
        assert run(["verify", str(bad)]) == 1
        modulus = text.split("field=")[1].split()[0]
        assert capsys.readouterr().err == (
            f"parse error: modulus 0x{modulus} is not irreducible at line 1, col {column}\n"
        )
    # an override is no position in the file: the field model's own error
    bad.write_text("BF n=4 field=13\n0000\n")
    assert run(["verify", str(bad), "--field-modulus", "15"]) == 2
    assert capsys.readouterr().err == "error: modulus 0x15 is not irreducible\n"


def test_propp_affine_holds(tmp_path, capsys):
    path = tmp_path / "affine.bf"
    write_bf(path, BooleanFunction(F16, F16.linear_form_table(7)))
    assert run(["propp", str(path), "--u", "1,2,4"]) == 0
    assert "holds" in capsys.readouterr().out


def test_propp_violation_exit_two(tmp_path, capsys):
    f2 = FieldSpec.default(2)
    path = tmp_path / "and.bf"
    write_bf(path, BooleanFunction(f2, [0, 0, 0, 1]))
    assert run(["propp", str(path), "--u", "1,2"]) == 2
    out = capsys.readouterr().out
    assert "fails" in out and "x = 0" in out


def test_propp_search(tmp_path, capsys):
    path = tmp_path / "kd.bf"
    from bentvec import VectorialFunction

    G = VectorialFunction.from_univariate(F16, 2, [(1, 5)])
    write_bf(path, G.component(1).dual())
    assert run(["propp", str(path), "--search", "2", "--limit", "4"]) == 0
    out = capsys.readouterr().out
    assert "found 4 defining set(s)" in out
    assert "truncated" in out


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_propp_limit_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch, limit):
    import bentvec.cli as cli

    path = tmp_path / "kd.bf"
    G = VectorialFunction.from_univariate(F16, 2, [(1, 5)])
    write_bf(path, G.component(1).dual())
    searched = []
    monkeypatch.setattr(cli, "find_defining_sets", lambda *a, **k: searched.append(1))
    assert run(["propp", str(path), "--search", "2", "--limit", limit]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not searched
    assert captured.err == f"error: --limit must be at least 1, got {int(limit)}\n"
    monkeypatch.undo()
    assert run(["propp", str(path), "--search", "2", "--limit", "1"]) == 0
    assert capsys.readouterr().out.endswith(
        "found 1 defining set(s) of size 2 (truncated at limit; more may exist)\n"
    )


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_propp_node_budget_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch, budget):
    import bentvec.cli as cli

    path = tmp_path / "kd.bf"
    G = VectorialFunction.from_univariate(F16, 2, [(1, 5)])
    write_bf(path, G.component(1).dual())
    searched = []
    monkeypatch.setattr(cli, "find_defining_sets", lambda *a, **k: searched.append(1))
    assert run(["propp", str(path), "--search", "2", "--node-budget", budget]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not searched
    assert captured.err == f"error: --node-budget must be at least 1, got {int(budget)}\n"
    monkeypatch.undo()
    assert run(["propp", str(path), "--search", "2", "--node-budget", "1000"]) == 0
    assert capsys.readouterr().out.endswith("defining set(s) of size 2\n")


@pytest.mark.parametrize(
    "command, flag, text",
    [
        ("propp", "--field-modulus", "1_3"),
        ("propp", "--field-modulus", "0x13"),
        ("propp", "--field-modulus", "+13"),
        ("propp", "--field-modulus", "\u0661\u0663"),  # Arabic-Indic 13
        ("construct", "--field-modulus", "0x1100b"),
        ("propp", "--u", "+3"),
        ("propp", "--u", "0x2"),
        ("propp", "--u", "_2"),
        ("propp", "--u", "\u0663"),
        ("construct", "--u", "-1"),
    ],
)
def test_hex_arguments_take_ascii_hex_digits_only(tmp_path, capsys, command, flag, text):
    # int(x, 16) would read each of these; a header's field value would not
    path = tmp_path / "f.bf"
    write_bf(path, BooleanFunction(F16, F16.linear_form_table(7)))
    if command == "propp":
        argv = ["propp", str(path), "--u", "1,2"]
    else:
        argv = ["construct", "--family", "kasami", "--n", "4", "--tau", "2",
                "--poly", "X1*X2", "--u", "1,2", "--out", str(tmp_path / "k.vf")]
    if flag == "--u":
        argv[argv.index("--u") + 1] = f"1,{text}"
    else:
        argv += [flag, text]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument {flag}: invalid hexadecimal value: {text!r}\n"
    )
    assert not (tmp_path / "k.vf").exists()
    with pytest.raises(ParseError, match="bad value for header field 'field'"):
        parse_header(f"BF n=4 field={text}", "BF", ("n", "field"))


def test_verify_names_a_byte_that_is_not_utf8(tmp_path, capsys):
    # universal newlines: "\r\n" and "\r" each end one line, as on read
    for raw, where in (
        (b"BF n=4 field=13\n00\xff0\n", "byte 0xff is not UTF-8 at line 2, col 3"),
        (b"BF n=4 field=13\r\n \xc3\xa90\xfe\n", "byte 0xfe is not UTF-8 at line 2, col 4"),
        (b"VF n=2 m=1 t=0 field=7\r0\n1\r\n1\n\x80\n", "byte 0x80 is not UTF-8 at line 5, col 1"),
    ):
        path = tmp_path / "bad"
        path.write_bytes(raw)
        for argv in (["verify", str(path)], ["propp", str(path), "--search", "2"]):
            assert run(argv) == 1
            assert capsys.readouterr().err == f"parse error: {where}\n"


def test_verify_reads_lf_crlf_and_cr_lines_alike(tmp_path, capsys):
    G = VectorialFunction.from_univariate(F16, 2, [(1, 5)])
    tail = BooleanFunction(F16, F16.linear_form_table(3))
    path = tmp_path / "f"
    for write, f in ((write_bf, G.component(1)), (write_vf, G.augment([tail]))):
        write(path, f)
        text = path.read_bytes()
        outs = []
        for newline in (b"\n", b"\r\n", b"\r"):
            path.write_bytes(text.replace(b"\n", newline))
            assert run(["verify", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]
    # a bad character after "\r\n" lines keeps its line and column
    for raw, where in (
        (b"BF n=4 field=13\r\n 0g00\r\n", "bad hex character 'g' at line 2, col 3"),
        (
            b"VF n=2 m=1 t=0 field=7\r\n0\r\n1\r\n 1g\r\n0\r\n",
            "bad character 'g' at line 4, col 3",
        ),
    ):
        path.write_bytes(raw)
        assert run(["verify", str(path)]) == 1
        assert capsys.readouterr().err == f"parse error: {where}\n"


def test_verify_builds_no_field_permutation_or_trace_table(tmp_path, capsys, monkeypatch):
    import bentvec.gf2n as gf2n

    # spies on the cached table functions, rebound wherever a module imported them
    calls = []
    for name in ("_walsh_permutation", "_abs_trace_table"):
        original = getattr(gf2n, name)

        def spy(spec, _name=name, _original=original):
            calls.append(_name)
            return _original(spec)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("bentvec"):
                if vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, spy)
    # a field no other test builds: n = 14 with its least generator
    field = FieldSpec.with_least_generator(14, 0x402B)
    x = np.arange(field.size, dtype=np.uint32)
    half = np.uint32((1 << 7) - 1)
    bent = (np.bitwise_count(x & half & (x >> 7)) & 1).astype(np.uint8)
    rng = np.random.default_rng(14)
    for table, klass in ((bent, "Bent(128)"), (rng.integers(0, 2, field.size), "Mixed")):
        path = tmp_path / "f.bf"
        write_bf(path, BooleanFunction(field, table))
        assert run(["verify", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith(f"class: {klass}")
    vf = tmp_path / "k.vf"
    write_vf(vf, VectorialFunction.from_univariate(F16, 2, [(1, 5)]))
    assert run(["verify", str(vf)]) == 0
    assert "class: vectorial bent (4,2)" in capsys.readouterr().out
    assert calls == []


def test_vf_reads_and_verify_build_no_exp_log_tables(tmp_path, capsys):
    from bentvec.gf2n import _exp_log, _subfield
    from bentvec.vectorial import _basis_tables

    # Tr^4_1(lambda x^17) is bent for every lambda != 0, in either field
    aes = FieldSpec.with_least_generator(8, 0x11B)
    bent = VectorialFunction.from_univariate(FieldSpec.default(8), 4, [(1, 17)])
    tail = BooleanFunction(aes, aes.linear_form_table(7))
    plateaued = VectorialFunction.from_univariate(aes, 4, [(1, 17)]).augment([tail])
    paths = [tmp_path / "bent.vf", tmp_path / "plateaued.vf"]
    write_vf(paths[0], bent)
    write_vf(paths[1], plateaued)
    # every table a VF read builds is rebuilt here, not taken from a cache
    for cache in (_exp_log, _subfield, _basis_tables):
        cache.cache_clear()
    for path, klass in zip(paths, ("vectorial bent (8,4)", "vectorial plateaued (8,5)")):
        assert run(["verify", str(path)]) == 0
        assert f"class: {klass}" in capsys.readouterr().out
    # not bent, so the witness comes from component()
    check = read_vf(paths[1]).is_vectorial_bent()
    assert not check.ok and check.selector == (0, 1)
    assert _exp_log.cache_info().misses == 0


def test_propp_requires_mode(tmp_path):
    path = tmp_path / "f.bf"
    write_bf(path, BooleanFunction.zero(F16))
    assert run(["propp", str(path)]) == 2


@pytest.mark.parametrize(
    "flags, code, out, err, reads",
    [
        # the spelling --help documents
        (["--search", "tau=2", "--limit", "1"], 0,
         "found 1 defining set(s) of size 2 (truncated at limit; more may exist)\n", "", 1),
        (["--search", "2", "--u", "+3,\u0663"], 1,
         "", "error: argument --u: not allowed with argument --search\n", 0),
        (["--u", "1,2", "--search", "2"], 1,
         "", "error: argument --search: not allowed with argument --u\n", 0),
        (["--u", "1,2", "--limit", "5"], 1,
         "", "error: --limit is only allowed with --search\n", 0),
        (["--u", "1,2", "--node-budget", "5"], 1,
         "", "error: --node-budget is only allowed with --search\n", 0),
        (["--limit", "5"], 1, "", "error: --limit is only allowed with --search\n", 0),
        (["--search", "tau=x"], 1,
         "", "error: argument --search: invalid tau value: 'tau=x'\n", 0),
        ([], 2, "", "error: supply --u or --search\n", 1),
        # only tau= is a prefix
        (["--search", "foo=2"], 1,
         "", "error: argument --search: invalid tau value: 'foo=2'\n", 0),
        (["--search", "=2"], 1,
         "", "error: argument --search: invalid tau value: '=2'\n", 0),
        # ASCII digits only, with no sign, space or underscore
        (["--search", "1_0"], 1,
         "", "error: argument --search: invalid tau value: '1_0'\n", 0),
        (["--search", "\u0662"], 1,
         "", "error: argument --search: invalid tau value: '\u0662'\n", 0),
        (["--search", "tau= +2"], 1,
         "", "error: argument --search: invalid tau value: 'tau= +2'\n", 0),
    ],
)
def test_propp_refuses_options_its_mode_would_ignore(
    tmp_path, capsys, monkeypatch, flags, code, out, err, reads
):
    import bentvec.fileio as fileio

    path = tmp_path / "kd.bf"
    G = VectorialFunction.from_univariate(F16, 2, [(1, 5)])
    write_bf(path, G.component(1).dual())
    read, calls = fileio.read_bf, []
    monkeypatch.setattr(fileio, "read_bf", lambda *a, **k: calls.append(1) or read(*a, **k))
    assert run(["propp", str(path), *flags]) == code
    captured = capsys.readouterr()
    assert captured.out.endswith(out) if out else captured.out == ""
    assert captured.err.endswith(err)
    assert len(calls) == reads


CONSTRUCT_K4 = ["construct", "--family", "kasami", "--n", "4", "--tau", "2",
                "--poly", "X1*X2", "--auto-u", "--out"]


@pytest.mark.parametrize("text", ["1_0", "\u0666", " +7"])
@pytest.mark.parametrize(
    "command, flag",
    [("construct", flag) for flag in ("--n", "--r", "--tau", "--t", "--seed")]
    + [("propp", "--limit"), ("propp", "--node-budget")],
)
def test_integer_options_take_ascii_decimal_digits_only(tmp_path, capsys, command, flag, text):
    # int() would read each of these
    path = tmp_path / "f.bf"
    write_bf(path, BooleanFunction(F16, F16.linear_form_table(7)))
    if command == "propp":
        argv = ["propp", str(path), "--search", "2", flag, text]
    else:
        argv = [*CONSTRUCT_K4, str(tmp_path / "k.vf"), flag, text]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {flag}: invalid decimal value: {text!r}\n")
    assert not (tmp_path / "k.vf").exists()


@pytest.mark.parametrize(
    "flags, err",
    [
        (["--u", "1,2"], "error: argument --u: not allowed with argument --auto-u\n"),
        (["--r", "2"], "error: --r is only allowed with --family niho\n"),
        (["--t", "-1"], "error: --t must be at least 0, got -1\n"),
        (["--poly", "X\u0661*X\u0662"],
         "parse error: variable needs an index, like X2 at line 1, col 1\n"),
        (["--poly", "X1*X\u00b2"],
         "parse error: variable needs an index, like X2 at line 1, col 4\n"),
        (["--n", "0"], "error: --n must be in 1..24, got 0\n"),
        (["--n", "25"], "error: --n must be in 1..24, got 25\n"),
        (["--n", "-2"], "error: --n must be in 1..24, got -2\n"),
    ],
)
def test_construct_refuses_ignored_options_and_non_ascii_indices(tmp_path, capsys, flags, err):
    out = tmp_path / "k.vf"
    assert run([*CONSTRUCT_K4, str(out), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(err)
    assert not out.exists()


@pytest.mark.parametrize("poly", ["X1*X2", "0"])
def test_construct_refuses_a_negative_tau_before_reading_the_polynomial(
    tmp_path, capsys, poly
):
    out = tmp_path / "k.vf"
    argv = ["construct", "--family", "kasami", "--n", "6", "--auto-u",
            "--tau", "-1", "--poly", poly, "--out", str(out)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --tau must be at least 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "n, m, t, bound",
    [(5, 1, 0, "n/a"), (7, 7, 0, "n/a"), (8, 1, 2, "n/a"), (8, 2, 1, "n/a"),
     (8, 2, 2, "15"), (8, 4, 0, "15"), (6, 3, 1, "14")],
)
def test_verify_bound_is_na_outside_the_formula_domain(tmp_path, capsys, n, m, t, bound):
    # the Pott et al. bound needs n even and m + t >= n/2
    field = FieldSpec.default(n)
    rng = np.random.default_rng(n * 100 + m * 10 + t)
    values = np.asarray(field.subfield(m))[rng.integers(0, 1 << m, field.size)]
    extra = rng.integers(0, 1 << t, field.size)
    path = tmp_path / "f.vf"
    write_vf(path, VectorialFunction(field, m, values, extra=extra, t=t))
    assert run(["verify", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].endswith(f" (bound {bound})")


def test_field_modulus_override(tmp_path, capsys):
    out = tmp_path / "alt.vf"
    code = run(
        [
            "construct", "--family", "kasami", "--n", "4", "--tau", "2",
            "--poly", "X1*X2", "--auto-u", "--field-modulus", "19",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "field=19" in out.read_text().splitlines()[0]
    capsys.readouterr()
    assert run(["verify", str(out)]) == 0
    assert "vectorial bent (4,2)" in capsys.readouterr().out


# runs one CLI command, then reports whether numpy.ma was imported
RUN_AND_REPORT_NUMPY_MA = """\
import sys
from bentvec.cli import main
code = main(sys.argv[1:])
sys.stderr.write(f"numpy.ma imported: {'numpy.ma' in sys.modules}\\n")
sys.exit(code)
"""


def test_construct_and_verify_do_not_import_numpy_ma(tmp_path):
    # np.unique's plain form imports numpy.ma, a cost larger than a small job
    rng = np.random.default_rng(3)
    F64 = FieldSpec.default(6)
    values = np.asarray(F64.subfield(3))[rng.integers(0, 8, 64)]
    write_vf(tmp_path / "mixed.vf", VectorialFunction(F64, 3, values))
    src = os.path.dirname(os.path.dirname(bentvec.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    commands = [
        ["construct", "--family", "kasami", "--n", "8", "--tau", "3", "--poly",
         "X1*X2*X3", "--t", "1", "--auto-u", "--out", "H.vf"],
        ["verify", "H.vf"],
        ["verify", "mixed.vf"],
    ]
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-c", RUN_AND_REPORT_NUMPY_MA, *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.endswith("numpy.ma imported: False\n"), (argv, proc.stderr)
    assert "Mixed{" in proc.stdout


KASAMI_N6 = ["construct", "--family", "kasami", "--n", "6", "--tau", "2",
             "--poly", "X1*X2", "--auto-u", "--out"]


def test_construct_mismatch_exits_3_and_still_writes(tmp_path, capsys, monkeypatch):
    # a predicted degree one above X1*X2's 2 fails the report's degree check
    monkeypatch.setattr(constructions, "_lift_degree", lambda poly, u: poly.degree() + 1)
    out = tmp_path / "k6.vf"
    assert run(KASAMI_N6 + [str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "VERIFICATION MISMATCH\n"
    assert "degree: predicted 3, measured 2" in captured.out
    assert read_vf(out).n == 6
    report = json.loads((tmp_path / "k6.vf.report.json").read_text())
    assert report["ok"] is False and report["degree_match"] is False


def test_verification_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # coordinate degrees one off contradict the component degrees, which
    # VectorialFunction.degree() reads from one packed Möbius transform
    out = tmp_path / "k6.vf"
    assert run(KASAMI_N6 + [str(out)]) == 0
    capsys.readouterr()
    degree = BooleanFunction.degree
    monkeypatch.setattr(BooleanFunction, "degree", lambda self: degree(self) + 1)
    assert run(["verify", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "verification mismatch: component degree 2 (first reached by component "
        "(1, 0)) != coordinate degree 3 (first reached by coordinate 0)\n"
    )
    # no part of the report is printed before the check fails
    assert captured.out == ""


@pytest.mark.parametrize(
    "name, error",
    [("out", "[Errno 21] Is a directory"), ("missing/H.vf", "[Errno 2] No such file or directory")],
    ids=["directory", "missing-directory"],
)
def test_construct_onto_a_directory_leaves_no_temp_file(tmp_path, capsys, name, error):
    # the temp file is made beside the target, and the rename onto a
    # directory fails; in a missing directory, no temp file can be made:
    # exit 1, one line naming the target alone, and no temp file is left
    target = tmp_path / name
    if name == "out":
        target.mkdir()
    assert run(KASAMI_N6 + [str(target)]) == 1
    assert capsys.readouterr().err == f"error: {error}: '{target}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out"] if name == "out" else [])
    if name == "out":
        assert list(target.iterdir()) == []


# caps its own address space a margin above what it has mapped after
# importing bentvec.cli, then verifies the file
VERIFY_UNDER_A_CAP = """\
import resource, sys
from bentvec.cli import main
with open("/proc/self/status") as status:
    mapped = next(int(l.split()[1]) << 10 for l in status if l.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (mapped + (64 << 20), resource.RLIM_INFINITY))
sys.exit(main(["verify", sys.argv[1]]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_verify_out_of_memory_is_one_line_and_exit_1(tmp_path):
    # a random n = 24 BF file: its spectrum alone is 64 MB of int32
    n = 24
    rng = np.random.default_rng(24)
    nibbles = rng.integers(0, 16, 1 << (n - 2), dtype=np.uint8)
    digits = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)[nibbles]
    path = tmp_path / "r24.bf"
    path.write_text(f"BF n={n} field={FieldSpec.default(n).modulus:x}\n{digits.tobytes().decode()}\n")
    del nibbles, digits
    src = os.path.dirname(os.path.dirname(bentvec.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", VERIFY_UNDER_A_CAP, str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    # numpy's message names the bytes it asked for
    assert re.fullmatch(
        r"error: out of memory: Unable to allocate [0-9.]+ [KMG]iB .*\n", proc.stderr
    ), proc.stderr
