"""Command-line surface: construct, verify, propp.

Exit codes: 0 success, 1 usage or parse error, 2 precondition failure,
3 verification mismatch (a falsified identity; should never happen).
Outputs are deterministic; a timestamp enters the report only with
--stamp.
"""

from __future__ import annotations

import argparse
import datetime
import json
import re
import sys

from . import fileio
from .boolfun import BooleanFunction
from .constructions import (
    gold_auto_u,
    gold_family,
    kasami_auto_u,
    kasami_family,
    niho_auto_u,
    niho_family,
    vectorial_class_string,
)
from .errors import BentvecError, ParseError, PreconditionError, VerificationError
from .gf2n import FieldSpec
from .redpoly import DefiningSet, ReducedPolynomial
from .propp import find_defining_sets, satisfies_p
from .vectorial import _bent_components_bound_or_none

FAMILIES = {
    "kasami": (kasami_family, kasami_auto_u),
    "niho": (niho_family, niho_auto_u),
    "gold": (gold_family, gold_auto_u),
}


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2, reserved here for
    # precondition failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser():
    parser = _Parser(prog="bentvec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build a family instance and verify it")
    con.add_argument("--family", choices=sorted(FAMILIES), required=True)
    con.add_argument("--n", type=decimal, required=True)
    con.add_argument("--r", type=decimal, help="Niho exponent parameter")
    con.add_argument("--tau", type=decimal, help="defining-set size for the bent lift")
    con.add_argument("--t", type=decimal, default=0, help="appended plateaued coordinates")
    con.add_argument(
        "--poly",
        action="append",
        default=None,
        help="reduced polynomial; first use is the lift F, later uses are tail F_i",
    )
    u_source = con.add_mutually_exclusive_group()
    u_source.add_argument("--u", help="comma-separated hex defining elements")
    u_source.add_argument("--auto-u", action="store_true", help="derive u from the built-in basis recipes")
    con.add_argument("--seed", type=decimal, default=0, help="seed for generated tail polynomials")
    con.add_argument("--out", required=True, help="output VF path (report goes to <out>.report.json)")
    con.add_argument("--stamp", action="store_true", help="include a timestamp in the report")
    _common_flags(con)

    ver = sub.add_parser("verify", help="classify a BF/VF file exhaustively")
    ver.add_argument("file")
    _common_flags(ver)

    pro = sub.add_parser("propp", help="second-derivative property checks")
    pro.add_argument("file", help="BF truth-table file")
    mode = pro.add_mutually_exclusive_group()
    mode.add_argument("--u", help="comma-separated hex defining elements")
    mode.add_argument(
        "--search",
        type=tau,
        metavar="TAU",
        help="search for defining sets of this size (accepts 2 or tau=2)",
    )
    pro.add_argument("--limit", type=decimal, help="cap the number of reported sets")
    pro.add_argument("--node-budget", type=decimal, help="cap on search nodes")
    _common_flags(pro)
    return parser


def decimal(text):
    # ASCII digits and a minus sign only: int() alone would also take
    # "1_0", " +7" or "\u0666"
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(text)
    return int(text)


def tau(text):
    # ASCII digits only: int() alone would also take "1_0", " +2" or "\u0662"
    if not re.fullmatch(r"(tau=)?[0-9]+", text):
        raise ValueError(text)
    return int(text.removeprefix("tau="))


def hexadecimal(text):
    if not fileio.HEX_VALUE.fullmatch(text):
        raise ValueError(text)
    return int(text, 16)


def _common_flags(cmd):
    cmd.add_argument("--field-modulus", type=hexadecimal, help="hex override for the modulus table")


def _field_for(n, args):
    if args.field_modulus is not None:
        return fileio.field_from_modulus(n, args.field_modulus)
    return FieldSpec.default(n)


def _parse_u_list(field, raw):
    values = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            value = hexadecimal(part)
        except ValueError:
            raise ValueError(f"argument --u: invalid hexadecimal value: {part!r}") from None
        values.append(field.check(value))
    return values


def cmd_construct(args):
    if args.r is not None and args.family != "niho":
        raise ValueError("--r is only allowed with --family niho")
    for flag, value in (("--tau", args.tau), ("--t", args.t)):
        if value is not None and value < 0:
            raise ValueError(f"{flag} must be at least 0, got {value}")
    if args.family == "niho" and args.r is None:
        raise PreconditionError("--family niho requires --r")
    field = _field_for(args.n, args)
    build, auto_u = FAMILIES[args.family]
    if args.auto_u:
        u_values = auto_u(field)
    elif args.u:
        u_values = _parse_u_list(field, args.u)
    else:
        raise PreconditionError("supply --u or --auto-u")

    polys = args.poly if args.poly else ["0"]
    main_poly = ReducedPolynomial.parse(polys[0], tau=args.tau)
    explicit_tails = [
        ReducedPolynomial.parse(text, tau=len(u_values)) for text in polys[1:]
    ]
    tails = list(explicit_tails)
    while len(tails) < args.t:
        tails.append(
            ReducedPolynomial.random(
                len(u_values), len(u_values), seed=args.seed + len(tails)
            )
        )
    if args.t and len(tails) > args.t:
        raise PreconditionError(
            f"--t {args.t} but {len(tails)} tail polynomials supplied"
        )

    generated = len(tails) - len(explicit_tails)
    kwargs = dict(tail_polys=tuple(tails), seed=args.seed if generated else None)
    if args.family == "niho":
        result = build(field, args.r, u_values, main_poly, **kwargs)
    else:
        result = build(field, u_values, main_poly, **kwargs)

    report = result.report.to_json_dict()
    if args.stamp:
        report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    out_obj = result.H_hat if result.H_hat is not None else result.H
    fileio.write_vf(args.out, out_obj)
    fileio.atomic_write_text(
        args.out + ".report.json", json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {args.out} and {args.out}.report.json")
    print(f"family={args.family} n={args.n} class: {result.report.verified_class}")
    print(f"dual formulas match: {result.report.dual_match}")
    if result.report.degree_match is not None:
        print(
            f"degree: predicted {result.report.degree_predicted}, "
            f"measured {result.report.degree_measured}"
        )
    if result.report.bent_components_measured is not None:
        print(
            f"bent components: {result.report.bent_components_measured}"
            + (
                f" (predicted {result.report.bent_components_predicted})"
                if result.report.bent_components_predicted is not None
                else ""
            )
        )
    if not result.report.ok:
        print("VERIFICATION MISMATCH", file=sys.stderr)
        return 3
    print("ok")
    return 0


def _classify_components(F):
    """verify's report lines for a VF file, all read from F.profile()."""
    rows = F.profile()
    # counted here, not by bent_component_count, which refuses odd n
    bent = sum(1 for _, cls, _ in rows if cls.kind == "bent")
    bound = _bent_components_bound_or_none(F.n, F.out_bits)
    lines = [
        f"class: {vectorial_class_string(F)}",
        f"degree: {F.degree()}",
        f"bent components: {bent} (bound {'n/a' if bound is None else bound})",
    ]
    lines.extend(
        f"  component lambda={lam:x} v={v:x}: {cls}, degree {deg}"
        for (lam, v), cls, deg in rows
    )
    return lines


def cmd_verify(args):
    obj = fileio.read_any(args.file, modulus=args.field_modulus)
    if isinstance(obj, BooleanFunction):
        spectrum = obj.walsh()
        print(f"BF n={obj.n} field={obj.field.modulus:x}")
        print(f"class: {spectrum.classification}")
        print(f"degree: {obj.degree()}")
        print(f"weight: {obj.weight()} (balanced: {obj.is_balanced()})")
        absv, counts = spectrum.abs_counts()
        print(
            "spectrum |W| counts: "
            + ", ".join(f"{v}: {c}" for v, c in zip(absv.tolist(), counts.tolist()))
        )
        return 0
    print(f"VF n={obj.n} m={obj.m} t={obj.t} field={obj.field.modulus:x}")
    for line in _classify_components(obj):
        print(line)
    return 0


def cmd_propp(args):
    for flag, value in (("--limit", args.limit), ("--node-budget", args.node_budget)):
        if value is not None and args.search is None:
            raise ValueError(f"{flag} is only allowed with --search")
        if value is not None and value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    f = fileio.read_bf(args.file, modulus=args.field_modulus)
    if args.search is not None:
        sets = find_defining_sets(
            f, args.search, limit=args.limit, node_budget=args.node_budget
        )
        for ds in sets:
            print(",".join(f"{u:x}" for u in ds.elements))
        truncated = args.limit is not None and len(sets) >= args.limit
        print(
            f"found {len(sets)} defining set(s) of size {args.search}"
            + (" (truncated at limit; more may exist)" if truncated else "")
        )
        return 0
    if not args.u:
        raise PreconditionError("supply --u or --search")
    us = _parse_u_list(f.field, args.u)
    check = satisfies_p(f, DefiningSet(f.field, tuple(us)))
    if check.holds:
        print(f"property (P_{len(us)}) holds for u = {args.u}")
        return 0
    i, j = check.pair
    print(
        f"property fails: D_u{i} D_u{j} g is 1 at x = {check.witness:x} "
        f"(u{i} = {us[i - 1]:x}, u{j} = {us[j - 1]:x})"
    )
    return 2


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    handlers = {
        "construct": cmd_construct,
        "verify": cmd_verify,
        "propp": cmd_propp,
    }
    try:
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return 3
    except BentvecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
