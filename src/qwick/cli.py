"""Command-line front end: diagram listings, expansions and verification runs.

Everything is emitted in a machine-readable form (JSON by default, CSV or a
pretty text rendering on request) with canonical ordering, so repeated runs
with the same flags are byte-identical.  Exit codes: 0 on success, 1 when a
verification run reports a failure, 2 on usage or domain errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .algebra import Expansion, QPolynomial
from .diagrams import GroundSet, _block_forbid, _walk, ensure_within_cap
from .errors import QwickError
from .verify import CHECKS, VerifyConfig, run_check
from .wick import expand

FORMATS = ("json", "csv", "pretty")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _block_list(text: str) -> tuple[int, ...]:
    try:
        blocks = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"blocks must be comma-separated integers: {text!r}")
    if not blocks or any(b <= 0 for b in blocks):
        raise argparse.ArgumentTypeError(f"block sizes must be positive: {text!r}")
    return blocks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwick",
        description="Exact diagram-sum calculus for q-Gaussian variables with a "
        "brute-force operator oracle.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="json")
    common.add_argument("--cap", type=int, default=None, help="enumeration size cap override")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "diagrams", parents=[common], help="list diagrams with crossing statistics"
    )
    p.add_argument("--n", type=int, default=None, help="ground size")
    p.add_argument("--blocks", type=_block_list, default=None, help="block sizes a,b,c")
    p.set_defaults(func=cmd_diagrams)

    p = sub.add_parser("moments", parents=[common], help="joint moment expansion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--free", action="store_true", help="restrict to the q=0 formula")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser(
        "wick", parents=[common], help="convert between Wick and plain products"
    )
    p.add_argument("direction", choices=("to-normal", "to-wick"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--free", action="store_true")
    p.set_defaults(func=cmd_wick)

    p = sub.add_parser(
        "product", parents=[common], help="products of Wick products over blocks"
    )
    p.add_argument("--blocks", type=_block_list, required=True)
    p.add_argument("--free", action="store_true")
    p.add_argument(
        "--expectation", action="store_true", help="emit the expectation instead"
    )
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("check", choices=sorted(CHECKS))
    p.add_argument("--n", type=int, default=None, help="maximum instance size")
    p.add_argument("--blocks", type=_block_list, default=None)
    p.add_argument(
        "--q", type=_rational, default=None, help="rational as num/den; a negative one as --q=-1/3"
    )
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def _emit_json(payload) -> None:
    print(_json_text(payload))


_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for dicts with str keys,
    lists, tuples, str, int, bool and None; anything else raises TypeError.
    With indent set, CPython 3.11's json falls back to its pure-Python
    encoder, which takes about twice as long as this."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in value.items()
        ]
        return "{" + inner + sep.join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + sep.join([_json_text(v, inner) for v in value]) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit_csv(rows, fieldnames) -> None:
    writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def _expansion_rows(expansion: Expansion) -> list[dict]:
    rows = []
    for (cov, word), poly in expansion.sorted_terms():
        rows.append(
            {
                "cov": ";".join(f"{i}-{j}" for i, j in cov.factors),
                "word": " ".join(str(h) for h in word.indices),
                "kind": word.kind,
                "poly": poly.pretty(),
            }
        )
    return rows


def _emit_expansion(expansion: Expansion, meta: dict, fmt: str) -> None:
    if fmt == "json":
        _emit_json({**meta, "terms": expansion.to_json()})
    elif fmt == "csv":
        _emit_csv(_expansion_rows(expansion), ("cov", "word", "kind", "poly"))
    else:
        print(expansion.pretty())


def cmd_diagrams(args) -> int:
    if args.blocks is not None and args.n is not None:
        raise QwickError("diagrams takes --n or --blocks, not both")
    if args.blocks is not None:
        ground = GroundSet(sum(args.blocks), args.blocks)
        forbid = _block_forbid(ground)
    elif args.n is not None:
        ground = GroundSet(args.n)
        forbid = None
    else:
        raise QwickError("diagrams needs --n or --blocks")
    ensure_within_cap(ground.size, args.cap)

    records = []
    summary = {
        "total": 0,
        "complete": 0,
        "complete_noncrossing": 0,
        "noncrossing": 0,
        "strongly_noncrossing": 0,
        "gap_free": 0,
    }
    complete_crossings = Counter()
    for pairs, singles, c, d, g in _walk(ground.size, forbid=forbid):
        noncrossing, strongly_noncrossing, gap_free = c == 0, c + d == 0, g == 0
        summary["total"] += 1
        if not singles:
            summary["complete"] += 1
            complete_crossings[c] += 1
            summary["complete_noncrossing"] += noncrossing
        summary["noncrossing"] += noncrossing
        summary["strongly_noncrossing"] += strongly_noncrossing
        summary["gap_free"] += gap_free
        records.append(
            {
                "pairs": pairs,
                "singletons": singles,
                "c": c,
                "d": d,
                "tc": c + d,
                "g": g,
                "a": g - c,
                "noncrossing": noncrossing,
                "strongly_noncrossing": strongly_noncrossing,
                "gap_free": gap_free,
            }
        )
    crossing_poly = QPolynomial(complete_crossings)

    if args.format == "json":
        _emit_json(
            {
                "size": ground.size,
                "blocks": list(ground.blocks) if ground.blocks else None,
                "summary": summary,
                "complete_crossing_polynomial": {
                    "coeffs": crossing_poly.to_json(),
                    "pretty": crossing_poly.pretty(),
                },
                "diagrams": records,
            }
        )
    elif args.format == "csv":
        rows = [
            {
                **rec,
                "pairs": ";".join(f"{i}-{j}" for i, j in rec["pairs"]),
                "singletons": " ".join(str(s) for s in rec["singletons"]),
            }
            for rec in records
        ]
        _emit_csv(
            rows,
            (
                "pairs",
                "singletons",
                "c",
                "d",
                "tc",
                "g",
                "a",
                "noncrossing",
                "strongly_noncrossing",
                "gap_free",
            ),
        )
    else:
        print(
            "total={total} complete={complete} complete_noncrossing={complete_noncrossing} "
            "noncrossing={noncrossing} strongly_noncrossing={strongly_noncrossing} "
            "gap_free={gap_free}".format(**summary)
        )
        print(f"sum of q^c over complete diagrams: {crossing_poly.pretty()}")
        for rec in records:
            pairs = "".join(f"({i},{j})" for i, j in rec["pairs"]) or "-"
            singles = ",".join(str(s) for s in rec["singletons"]) or "-"
            print(
                f"pairs={pairs} singletons={singles} c={rec['c']} d={rec['d']} "
                f"tc={rec['tc']} g={rec['g']} a={rec['a']}"
            )
    return 0


def cmd_moments(args) -> int:
    expansion = expand("moment", args.n, args.free, args.cap)
    _emit_expansion(expansion, {"n": args.n, "free": args.free}, args.format)
    return 0


def cmd_wick(args) -> int:
    name = "wick-to-normal" if args.direction == "to-normal" else "normal-to-wick"
    expansion = expand(name, args.n, args.free, args.cap)
    _emit_expansion(
        expansion,
        {"direction": args.direction, "n": args.n, "free": args.free},
        args.format,
    )
    return 0


def cmd_product(args) -> int:
    name = "product-expectation" if args.expectation else "product-expansion"
    expansion = expand(name, args.blocks, args.free, args.cap)
    ground = GroundSet(sum(args.blocks), args.blocks)
    meta = {
        "blocks": list(args.blocks),
        "expectation": args.expectation,
        "free": args.free,
        # position p (1-based) carries the lexicographic label labels[p-1]
        "labels": [list(label) for label in ground.lex_labels()],
    }
    _emit_expansion(expansion, meta, args.format)
    return 0


def cmd_verify(args) -> int:
    reports = run_check(
        args.check, **{field.name: getattr(args, field.name) for field in fields(VerifyConfig)}
    )
    failures = sum(1 for r in reports if not r.passed)
    if args.format == "json":
        _emit_json(
            {
                "check": args.check,
                "reports": [r.to_json() for r in reports],
                "failures": failures,
            }
        )
    elif args.format == "csv":
        rows = [
            {
                "check": r.check,
                "instance": json.dumps(r.instance, sort_keys=True),
                "status": r.status,
            }
            for r in reports
        ]
        _emit_csv(rows, ("check", "instance", "status"))
    else:
        for r in reports:
            print(f"{r.status.upper():4} {r.check} {json.dumps(r.instance, sort_keys=True)}")
        print(f"{len(reports) - failures}/{len(reports)} instances passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QwickError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
