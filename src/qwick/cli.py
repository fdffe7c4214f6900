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
import os
import sys
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .algebra import QPolynomial, _monomial_str, _pretty_sum, _term_pretty
from .diagrams import GroundSet, _block_forbid, _walk, ensure_within_cap
from .errors import QwickError
from .verify import CHECKS, VerifyConfig, run_check
from .wick import terms

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
        get = _JSON_SCALARS.get
        items = [
            f"{encode_basestring_ascii(k)}: {s(v) if (s := get(type(v))) else _json_text(v, inner)}"
            for k, v in value.items()
        ]
        return "{" + inner + sep.join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + sep.join([_json_text(v, inner) for v in value]) + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_csv(header, rows) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# The streaming writers below render each term, diagram or report as it is
# yielded, with the text _json_text would give at that depth: a term or record
# sits at indent 4 and its fields at indent 6.


def _json_pairs(pairs) -> str:
    if not pairs:
        return "[]"
    inner = ",\n        ".join([f"[\n          {i},\n          {j}\n        ]" for i, j in pairs])
    return "[\n        " + inner + "\n      ]"


def _json_ints(values) -> str:
    if not values:
        return "[]"
    return "[\n        " + ",\n        ".join(map(str, values)) + "\n      ]"


def _write_json_list(meta: dict, key: str, items, after: dict | None = None) -> None:
    """Write the JSON object of meta, then key's list, one rendered item at a
    time, then the fields of after."""
    write = sys.stdout.write
    indent = "\n  "
    write("{")
    for k, v in meta.items():
        write(f"{indent}{encode_basestring_ascii(k)}: {_json_text(v, indent)},")
    write(f'{indent}"{key}": [')
    sep = "\n    "
    for item in items:
        write(sep + item)
        sep = ",\n    "
    write("]" if sep == "\n    " else "\n  ]")
    for k, v in (after or {}).items():
        write(f",{indent}{encode_basestring_ascii(k)}: {_json_text(v, indent)}")
    write("\n}\n")


def _csv_pairs(pairs) -> str:
    return ";".join([f"{i}-{j}" for i, j in pairs])


def _write_terms(stream, meta: dict, fmt: str) -> None:
    """Write a wick.terms stream as the expansion it sums to, term by term,
    byte for byte as Expansion.to_json, Expansion.pretty or the CSV rows of
    its sorted terms would render it.  The stream is already in sorted term
    order with one term per key, so nothing is collected or sorted."""
    if fmt == "json":
        _write_json_list(
            meta,
            "terms",
            (
                f'{{\n      "cov": {_json_pairs(pairs)},\n      "word": {_json_ints(singles)},'
                f'\n      "kind": "{kind}",\n      "poly": [\n        {{\n          "exp": {exp},'
                f'\n          "num": {coeff},\n          "den": 1\n        }}\n      ]\n    }}'
                for pairs, singles, kind, exp, coeff in stream
            ),
        )
    elif fmt == "csv":
        _write_csv(
            ("cov", "word", "kind", "poly"),
            (
                (_csv_pairs(pairs), " ".join(map(str, singles)), kind, _monomial_str(exp, coeff))
                for pairs, singles, kind, exp, coeff in stream
            ),
        )
    else:
        pieces = (
            _term_pretty(_monomial_str(exp, coeff), True, pairs, singles, kind)
            for pairs, singles, kind, exp, coeff in stream
        )
        for piece in _pretty_sum(pieces):
            sys.stdout.write(piece)
        sys.stdout.write("\n")


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

    if args.format == "csv":
        _write_csv(
            (
                "pairs", "singletons", "c", "d", "tc", "g", "a",
                "noncrossing", "strongly_noncrossing", "gap_free",
            ),
            (
                (
                    _csv_pairs(pairs), " ".join(map(str, singles)), c, d, c + d, g, g - c,
                    c == 0, c + d == 0, g == 0,
                )
                for pairs, singles, c, d, g in _walk(ground.size, forbid=forbid)
            ),
        )
        return 0

    # the summary comes first, so the listing walks the diagrams twice
    # rather than holding them all
    summary = {
        "total": 0,
        "complete": 0,
        "complete_noncrossing": 0,
        "noncrossing": 0,
        "strongly_noncrossing": 0,
        "gap_free": 0,
    }
    complete_crossings = Counter()
    for _, singles, c, d, g in _walk(ground.size, forbid=forbid):
        noncrossing = c == 0
        summary["total"] += 1
        if not singles:
            summary["complete"] += 1
            complete_crossings[c] += 1
            summary["complete_noncrossing"] += noncrossing
        summary["noncrossing"] += noncrossing
        summary["strongly_noncrossing"] += c + d == 0
        summary["gap_free"] += g == 0
    crossing_poly = QPolynomial(complete_crossings)
    walk = _walk(ground.size, forbid=forbid)

    if args.format == "json":
        meta = {
            "size": ground.size,
            "blocks": list(ground.blocks) if ground.blocks else None,
            "summary": summary,
            "complete_crossing_polynomial": {
                "coeffs": crossing_poly.to_json(),
                "pretty": crossing_poly.pretty(),
            },
        }
        flag = {True: "true", False: "false"}
        _write_json_list(
            meta,
            "diagrams",
            (
                f'{{\n      "pairs": {_json_pairs(pairs)},'
                f'\n      "singletons": {_json_ints(singles)},'
                f'\n      "c": {c},\n      "d": {d},\n      "tc": {c + d},'
                f'\n      "g": {g},\n      "a": {g - c},'
                f'\n      "noncrossing": {flag[c == 0]},'
                f'\n      "strongly_noncrossing": {flag[c + d == 0]},'
                f'\n      "gap_free": {flag[g == 0]}\n    }}'
                for pairs, singles, c, d, g in walk
            ),
        )
    else:
        print(
            "total={total} complete={complete} complete_noncrossing={complete_noncrossing} "
            "noncrossing={noncrossing} strongly_noncrossing={strongly_noncrossing} "
            "gap_free={gap_free}".format(**summary)
        )
        print(f"sum of q^c over complete diagrams: {crossing_poly.pretty()}")
        for pairs, singles, c, d, g in walk:
            pairs = "".join(f"({i},{j})" for i, j in pairs) or "-"
            singles = ",".join(str(s) for s in singles) or "-"
            print(f"pairs={pairs} singletons={singles} c={c} d={d} tc={c + d} g={g} a={g - c}")
    return 0


def cmd_moments(args) -> int:
    stream = terms("moment", args.n, args.free, args.cap)
    _write_terms(stream, {"n": args.n, "free": args.free}, args.format)
    return 0


def cmd_wick(args) -> int:
    name = "wick-to-normal" if args.direction == "to-normal" else "normal-to-wick"
    stream = terms(name, args.n, args.free, args.cap)
    _write_terms(
        stream, {"direction": args.direction, "n": args.n, "free": args.free}, args.format
    )
    return 0


def cmd_product(args) -> int:
    name = "product-expectation" if args.expectation else "product-expansion"
    stream = terms(name, args.blocks, args.free, args.cap)
    ground = GroundSet(sum(args.blocks), args.blocks)
    meta = {
        "blocks": list(args.blocks),
        "expectation": args.expectation,
        "free": args.free,
        # position p (1-based) carries the lexicographic label labels[p-1]
        "labels": [list(label) for label in ground.lex_labels()],
    }
    _write_terms(stream, meta, args.format)
    return 0


def cmd_verify(args) -> int:
    reports = run_check(
        args.check, **{field.name: getattr(args, field.name) for field in fields(VerifyConfig)}
    )
    failures = sum(1 for r in reports if not r.passed)
    if args.format == "json":
        at = "\n      "
        items = (  # the fields of VerifyReport.to_json, in its order
            f'{{{at}"check": {encode_basestring_ascii(r.check)},{at}"instance": '
            f'{_json_text(r.instance, at)},{at}"status": {encode_basestring_ascii(r.status)},'
            f'{at}"witness": {_json_text(r.witness, at)}\n    }}'
            for r in reports
        )
        _write_json_list({"check": args.check}, "reports", items, {"failures": failures})
    elif args.format == "csv":
        _write_csv(
            ("check", "instance", "status"),
            ((r.check, json.dumps(r.instance, sort_keys=True), r.status) for r in reports),
        )
    else:
        for r in reports:
            print(f"{r.status.upper():4} {r.check} {json.dumps(r.instance, sort_keys=True)}")
        print(f"{len(reports) - failures}/{len(reports)} instances passed")
    return 1 if failures else 0


# parse_args leaves the parser as it was, so every call of main shares it
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        # flushed here, so that a closed pipe is reported below and not
        # at interpreter exit
        sys.stdout.flush()
        return code
    except QwickError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early; what is still buffered goes to
        # devnull, or the flush at exit would fail again with a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was complete", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
