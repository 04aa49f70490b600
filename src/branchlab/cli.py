"""Command-line front end: parses arguments, loads the cases, and formats
what ``verify.run_case`` returns as a text table or a deterministic JSON
report.  Which checks run on a case is decided in ``verify``, not here.
The JSON encoding and the writing go through ``catalog.to_json`` and
``catalog.write_output``, which the catalog export uses too.

Exit codes: 0 = no check failed (an inconclusive check is not a failure),
1 = at least one mathematical check failed, 2 = usage or configuration error.
A reader that closes stdout early (``| head``) changes none of these.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from fractions import Fraction

from . import catalog, verify, weights

TEXT, JSON = "text", "json"


def _emit(args, text_lines, payload) -> int:
    """Write the report; returns 0, or 2 when ``--out`` cannot be written."""
    if args.format == JSON:
        text = catalog.to_json(payload)
    else:
        text = "\n".join(text_lines)
    return catalog.write_output(text, args.out)


def _load_cases(args):
    records = catalog.load_default(max_n=args.max_n)
    if args.cases == ["all"]:
        return records
    index = {r.id.tag: [] for r in records}
    for r in records:
        index[r.id.tag].append(r)
    chosen = []
    # a repeated tag selects its cases once, in the order of first mention
    tags = dict.fromkeys(tag.replace("'", "_prime").replace("*", "star") for tag in args.cases)
    for tag in tags:
        if tag not in index:
            if tag in catalog.TAG_ORDER:
                raise SystemExit2(
                    "case %r needs a larger --max-n (its base case is not instantiated)" % tag
                )
            raise SystemExit2("unknown case id %r" % tag)
        chosen.extend(index[tag])
    return chosen


class SystemExit2(Exception):
    pass


def _group_line(record) -> str:
    g = record.groups
    return "%s/%s ≃ %s/%s" % (
        g["gtilde"].name,
        g["htilde"].name,
        g["g"].name,
        g["h"].name,
    )


def cmd_list(args) -> int:
    records = _load_cases(args)
    lines = [
        "%-14s %-58s K=%-18s ranks=%s degrees P=%s Q=%s"
        % (
            str(r.id),
            _group_line(r),
            r.groups["k"].name,
            "(%d,%d,%d)" % r.rank3,
            list(r.degrees_p),
            list(r.degrees_q),
        )
        for r in records
    ]
    payload = {
        "schema": 1,
        "cases": [
            {
                "id": str(r.id),
                "tag": r.id.tag,
                "n": r.id.n,
                "groups": {k: g.name for k, g in r.groups.items()},
                "rank_triple": list(r.rank3),
                "degrees_p": list(r.degrees_p),
                "degrees_q": list(r.degrees_q),
                "alias_of": str(r.alias_of) if r.alias_of else None,
            }
            for r in records
        ],
    }
    return _emit(args, lines, payload)


def _check_line(case, entry) -> str:
    if "inconclusive" in entry:
        verdict = "inconclusive (%s)" % entry["inconclusive"]
    elif entry["failed"]:
        verdict = "FAIL (%d run, %d failed)" % (entry["run"], entry["failed"])
    else:
        verdict = "pass (%d run)" % entry["run"]
    return "%-14s %-30s %s" % (case, entry["name"], verdict)


def cmd_verify(args) -> int:
    if args.bound < 0 or args.degree < 0:
        raise SystemExit2("bound and degree must be >= 0")
    results = []
    lines = []
    for r in _load_cases(args):
        checks = verify.run_case(r, args.bound, args.degree)
        results.append({"case": str(r.id), "bound": args.bound, "checks": checks})
        lines.extend(_check_line(r.id, c) for c in checks)
    payload = {"schema": 1, "bound": args.bound, "degree": args.degree, "cases": results}
    failed = any(c["failed"] for case in results for c in case["checks"])
    return _emit(args, lines, payload) or int(failed)


def _parse_numbers(flag: str, text: str, parse) -> tuple:
    try:
        return tuple(parse(x) for x in text.split(",")) if text else ()
    except (ValueError, ZeroDivisionError):
        raise SystemExit2("%s takes comma-separated numbers, got %r" % (flag, text))


def cmd_transfer(args) -> int:
    records = _load_cases(args)
    if len(records) != 1:
        raise SystemExit2("transfer needs exactly one case (got %d)" % len(records))
    record = records[0]
    tau = _parse_numbers("--tau", args.tau, int)
    lam = _parse_numbers("--lam", args.lam, Fraction)
    try:
        smap = record.transfer(tau)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    if len(lam) != smap.source:
        raise SystemExit2(
            "lambda needs %d coordinates, got %d" % (smap.source, len(lam))
        )
    image = smap.apply(lam)
    # canonicalized on the integers image·scale by the transfer check's
    # ``weights._canonical_kernel``, which also multiplies by the coordinate
    # count modulo the trace
    scale = math.lcm(*(x.denominator for x in image))
    ints = [int(x * scale) for x in image]
    canon2 = weights._canonical_kernel(record.nu_group.weyl, record.mod_trace)(ints)
    canon = [Fraction(x, scale * (len(ints) if record.mod_trace else 1)) for x in canon2]
    frac = catalog.fraction_str
    shown = {
        "matrix": [[frac(x) for x in row] for row in smap.matrix],
        "offset": [frac(x) for x in smap.offset],
        "lambda": [frac(x) for x in lam],
        "image": [frac(x) for x in image],
        "canonical": [frac(x) for x in canon],
    }
    lines = [
        "case %s, tau=%s" % (record.id, list(tau)),
        "matrix: %s" % shown["matrix"],
        "offset: %s" % shown["offset"],
        "S_tau(%s) = %s" % (shown["lambda"], shown["image"]),
        "canonical (mod W(g_C)): %s" % shown["canonical"],
    ]
    payload = {"schema": 1, "case": str(record.id), "tau": list(tau), **shown}
    return _emit(args, lines, payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchlab",
        description="exact verification of the invariant-operator catalog",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cases", default="all", help="comma-separated case tags, or 'all'")
        p.add_argument("--max-n", type=int, default=2, dest="max_n")
        p.add_argument("--format", choices=(TEXT, JSON), default=TEXT)
        p.add_argument("--out", default=None)

    p_list = sub.add_parser("list", help="print the case table")
    common(p_list)
    p_list.set_defaults(func=cmd_list)

    p_verify = sub.add_parser("verify", help="run every stored check")
    common(p_verify)
    p_verify.add_argument("--bound", type=int, default=8)
    p_verify.add_argument("--degree", type=int, default=2)
    p_verify.set_defaults(func=cmd_verify)

    p_transfer = sub.add_parser("transfer", help="print one transfer map and an image")
    common(p_transfer)
    p_transfer.add_argument("--tau", default="", help="comma-separated tau parameters")
    p_transfer.add_argument("--lam", default="", help="comma-separated lambda coordinates")
    p_transfer.set_defaults(func=cmd_transfer)
    return parser


def _attach_signed_values(argv: list) -> list:
    """argv with each ``--tau V`` or ``--lam V`` whose V starts with "-" and a
    digit, "." or "/" joined into ``--tau=V``: argparse takes a separate
    "-7/2" or "-1,2" for an option, and the "=" form for a value."""
    out: list = []
    for arg in argv:
        if out and out[-1] in ("--tau", "--lam") and re.match(r"-[\d./]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_signed_values(argv))
    args.cases = [c.strip() for c in args.cases.split(",") if c.strip()]
    try:
        if not args.cases:
            raise SystemExit2("--cases names no case; give case tags or 'all'")
        if args.max_n < 1:
            raise SystemExit2("max-n must be >= 1")
        if args.out == "":
            raise SystemExit2(catalog.EMPTY_OUT)
        return args.func(args)
    except SystemExit2 as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
