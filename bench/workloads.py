"""The benchmark workloads: seeded CLI inputs and independent output checks.

WORKLOADS maps each name to `prepare(seed, work, run)`, which makes the
inputs under `work` and returns a Job: the CLI arguments, the files the command writes in
its working directory, and `check(stdout, files)`, which returns a list
of problems (empty when the output is right).  `run(argv, cwd)` runs a
CLI command in a fresh process and returns its exit code; only
verify-vf's set-up uses it, to build its input with the gold family.
"""

from __future__ import annotations

import functools
import json
from typing import Callable, NamedTuple

import gen


class SetupError(RuntimeError):
    """The program failed while the benchmark built a workload's inputs."""


class Job(NamedTuple):
    argv: list
    outputs: tuple
    check: Callable


def _expect_line(problems, lines, index, expected):
    got = lines[index] if index < len(lines) else None
    if got != expected:
        problems.append(f"line {index + 1}: expected {expected!r}, got {got!r}")


def prepare_construct_kasami(n, seed, work, run):
    """construct of the Kasami family with one tail coordinate, degree-3 lift."""
    m = n // 2
    argv = ["construct", "--family", "kasami", "--n", str(n), "--tau", "3",
            "--poly", "X1*X2*X3", "--t", "1", "--auto-u", "--seed", str(seed), "--out", "H.vf"]
    # the theorems fix every line: bent lift, closed-form duals, degree
    # deg F = 3, and 2^(m+t) - 2^t bent components for t = 1 tail
    klass, bent = f"vectorial bent ({n},{m})", (1 << (m + 1)) - 2
    expected = (
        "wrote H.vf and H.vf.report.json\n"
        f"family=kasami n={n} class: {klass}\n"
        "dual formulas match: True\n"
        "degree: predicted 3, measured 3\n"
        f"bent components: {bent} (predicted {bent})\n"
        "ok\n"
    )

    def check(stdout, files):
        problems = []
        if stdout != expected:
            problems.append(f"construct output {stdout!r}, expected {expected!r}")
        report = json.loads(files["H.vf.report.json"])
        for key, value in (("ok", True), ("verified_class", klass),
                           ("bent_components_measured", str(bent)), ("seed", str(seed))):
            if report.get(key) != value:
                problems.append(f"report {key} = {report.get(key)!r}, expected {value!r}")
        vf = files["H.vf"].decode().split("\n")
        header = f"VF n={n} m={m} t=1 field={gen.MODULI[n]:x}"
        if vf[0] != header or len(vf) != (1 << n) + 2:
            problems.append(f"H.vf: header {vf[0]!r} with {len(vf) - 2} rows")
        return problems

    return Job(argv, ("H.vf", "H.vf.report.json"), check)


def prepare_verify_vf(seed, work, run):
    """verify of a (16, 4+2) VF file built by the gold construct."""
    gen_dir = work / "gen"
    gen_dir.mkdir()
    code = run(["construct", "--family", "gold", "--n", "16", "--tau", "2", "--poly", "X1*X2",
                "--t", "2", "--auto-u", "--seed", str(seed), "--out", "G.vf"], gen_dir)
    report = json.loads((gen_dir / "G.vf.report.json").read_text()) if code == 0 else {}
    if report.get("ok") is not True:
        raise SetupError(f"gold construct for verify-vf exited {code}, report ok={report.get('ok')}")
    bent = int(report["bent_components_measured"])
    klass = "vectorial plateaued" if report["hat_plateaued"] else "not vectorial plateaued"

    def check(stdout, files):
        problems = []
        lines = stdout.splitlines()
        _expect_line(problems, lines, 0, f"VF n=16 m=4 t=2 field={gen.MODULI[16]:x}")
        _expect_line(problems, lines, 1, f"class: {klass} (16,6)")
        _expect_line(problems, lines, 3, f"bent components: {bent} (bound n/a)")
        rows = [line for line in lines if line.startswith("  component lambda=")]
        listed = sum(1 for line in rows if ": Bent(256)," in line)
        if len(rows) != 63 or listed != bent:
            problems.append(f"{len(rows)} component rows with {listed} bent, expected 63 with {bent}")
        return problems

    return Job(["verify", str(gen_dir / "G.vf")], (), check)


def prepare_verify_bf(n, seed, work, run):
    """verify of a seeded Maiorana-McFarland bent BF file with n variables."""
    table = gen.maiorana_mcfarland(n, seed)
    path = work / "input.bf"
    path.write_text(gen.bf_text(n, table))
    r = 1 << (n // 2)
    expected = (
        f"BF n={n} field={gen.MODULI[n]:x}\n"
        f"class: Bent({r})\n"
        f"degree: {gen.anf_degree(table)}\n"
        f"weight: {int(table.sum())} (balanced: False)\n"
        f"spectrum |W| counts: {r}: {1 << n}\n"
    )

    def check(stdout, files):
        if stdout == expected:
            return []
        return [f"verify output {stdout!r}, expected {expected!r}"]

    return Job(["verify", str(path)], (), check)


WORKLOADS = {
    "construct-kasami": functools.partial(prepare_construct_kasami, 12),
    "verify-vf": prepare_verify_vf,
    "verify-bf-n20": functools.partial(prepare_verify_bf, 20),
}
