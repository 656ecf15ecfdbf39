"""Deterministic command-line surface.

Subcommands: snakes, normal-form, cup, betti, ring-table, springer,
verify, experiment.  Every command accepts --json for schema-stable
machine output; text output carries no timestamps and uses frozen
orderings, so identical invocations produce identical bytes.

Exit codes: 0 success, 1 verification or backend disagreement, 2 usage or
parse error, 3 internal error (a broken invariant, ConventionError).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import groupby
from operator import itemgetter
from typing import Iterator

from . import __version__
from .core import (ENUMERATION_CAP, CapExceeded, IndexSet, ParseError, SignedPermutation,
                   _check_cap, enumerate_snakes, index_set, parse_sp, springer)
from .normalform import (BACKENDS, REWRITE_CAP, SOLVE_CAP,
                         coefficient_range_experiment, normal_form)
from .oracle import (CHECKS, ORACLE_CAP, VERIFY_CAP, chain_of,
                     check_betti_identity, check_relations_vanish,
                     solve_in_snake_cycles, verify_suite)
from .relations import ConventionError
from .ring import (BETTI_CAP, RING_TABLE_CAP, _ring_products, _snake_json, betti_table,
                   cup_basis)


def _parse_set(text: str) -> tuple[int, ...]:
    """Comma-separated ASCII decimal integers, spaces around each allowed;
    ``int`` alone would also take other scripts' digits, "1_0" and "+1"."""
    if not text.strip():
        return ()
    parts = text.split(",")
    try:
        if not all(re.fullmatch(r" *[0-9]+ *", part) for part in parts):
            raise ValueError("expected comma-separated ASCII decimal integers")
        return index_set(int(part) for part in parts)
    except ValueError as exc:
        raise ParseError(f"bad index set {text!r}: {exc}") from None


def _size(text: str) -> int:
    """The value of --n, --r and --unsafe-cap: ASCII decimal digits, spaces
    around them allowed, as in an index set; 0 is the empty index set (and,
    for --unsafe-cap, the default caps)."""
    if not re.fullmatch(r" *[0-9]+ *", text):
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_snakes(args) -> int:
    elems = _parse_set(args.set)
    _check_cap("|I|", len(elems), "enumeration", args.unsafe_cap or ENUMERATION_CAP)
    snakes = enumerate_snakes(elems)
    if args.json:
        _emit({"set": list(elems), "count": len(snakes),
               "snakes": [list(s.word) for s in snakes]})
    else:
        for s in snakes:
            print(s)
        print(f"count: {len(snakes)}")
    return 0


def cmd_springer(args) -> int:
    cap = args.unsafe_cap or ENUMERATION_CAP
    if args.table:
        values = [springer(k, cap) for k in range(args.r + 1)]
        if args.json:
            _emit({"r": args.r, "values": values})
        else:
            for k, v in enumerate(values):
                print(f"springer({k}) = {v}")
    else:
        v = springer(args.r, cap)
        if args.json:
            _emit({"r": args.r, "value": v})
        else:
            print(f"springer({args.r}) = {v}")
    return 0


def cmd_normal_form(args) -> int:
    x = parse_sp(args.perm)
    if args.set is not None and _parse_set(args.set) != x.support:
        raise ParseError(f"--set {args.set!r} does not match the inferred "
                         f"support {x.support}")
    cap = args.unsafe_cap or None
    nf = normal_form(x, backend=args.backend, cap=cap)
    disagreement = []
    if args.check_oracle:
        other = "solve" if args.backend == "rewrite" else "rewrite"
        alt = normal_form(x, backend=other, cap=cap)
        if alt != nf:
            disagreement.append(f"backend {other} disagrees: {alt}")
        orc = solve_in_snake_cycles(chain_of(x), x.support, cap or ORACLE_CAP)
        if orc != nf:
            disagreement.append(f"oracle disagrees: {orc}")
    if args.json:
        obj = nf.to_json(snake_basis=True)
        if args.check_oracle:
            obj["cross_checked"] = not disagreement
        _emit(obj)
    else:
        print(nf)
    for msg in disagreement:
        print(msg, file=sys.stderr)
    return 1 if disagreement else 0


def cmd_cup(args) -> int:
    left = parse_sp(args.left)
    right = parse_sp(args.right)
    union = set(left.support) | set(right.support)
    _check_cap("|I1 u I2|", len(union), "enumeration", args.unsafe_cap or ENUMERATION_CAP)
    prod = cup_basis(left, right)
    if args.json:
        _emit({"left": left.to_json(), "right": right.to_json(),
               "product": prod.to_json(snake_basis=True)})
    else:
        print(prod)
    return 0


def cmd_betti(args) -> int:
    cap = args.unsafe_cap or BETTI_CAP
    table = betti_table(args.n, cap)
    if args.json:
        _emit({"n": args.n, "betti": table})
    else:
        print(" ".join(map(str, table)))
    return 0


def _ring_table_lines(n: int) -> Iterator[str]:
    """The ``ring-table --json`` output, one string per left snake: the
    line ``json.dumps(_record(left, right, product))`` for each product,
    spliced from parts encoded once each.  Those are every snake, and the
    zero product of each support, which all but a few thousand share."""
    snakes: dict[SignedPermutation, str] = {}
    zeros: dict[IndexSet, str] = {}

    def snake(x: SignedPermutation) -> str:
        if x not in snakes:
            snakes[x] = json.dumps(_snake_json(x))
        return snakes[x]

    for left, group in groupby(_ring_products(n), key=itemgetter(0)):
        head = '{"left": ' + snake(left) + ', "right": '
        lines = []
        for _, right, prod in group:
            if prod:
                body = json.dumps(prod.to_json(snake_basis=True))
            elif prod.support in zeros:
                body = zeros[prod.support]
            else:
                body = zeros[prod.support] = json.dumps(prod.to_json(snake_basis=True))
            lines.append(f'{head}{snake(right)}, "product": {body}}}\n')
        yield "".join(lines)


def cmd_ring_table(args) -> int:
    _check_cap("n", args.n, "ring-table", args.unsafe_cap or RING_TABLE_CAP)
    if args.json:
        for text in _ring_table_lines(args.n):
            sys.stdout.write(text)
    else:
        for left, right, prod in _ring_products(args.n):
            print(f"{left} * {right} = {prod}")
    return 0


def _resolve_check(label: str) -> str:
    if label in CHECKS:
        return label
    matches = [name for name in CHECKS if label in name]
    if len(matches) == 1:
        return matches[0]
    raise ParseError(f"unknown check {label!r}; known: {', '.join(CHECKS)}")


def cmd_verify(args) -> int:
    cap = args.unsafe_cap or VERIFY_CAP
    if args.full and args.lemma:
        raise ParseError("--full sweeps every hat-complex check and cannot be "
                         "combined with --lemma")
    only = [_resolve_check(v) for v in args.lemma] if args.lemma else None
    results = verify_suite(args.n, only=only, cap=cap)
    if args.full:
        results.append(check_betti_identity(ORACLE_CAP))
        results.append(check_relations_vanish(ORACLE_CAP))
    failed = [r for r in results if not r.passed]
    if args.json or failed:
        _emit([r.to_json() for r in results])
    else:
        for r in results:
            print(f"{r.check}: PASS ({r.instances} instances)")
        print("all checks passed")
    return 1 if failed else 0


def cmd_experiment(args) -> int:
    cap = args.unsafe_cap or SOLVE_CAP
    report = coefficient_range_experiment(tuple(range(1, args.r + 1)),
                                          backend=args.backend, cap=cap)
    if args.json:
        _emit(report.to_json())
    else:
        print(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsnakes",
        description="Snake-basis cohomology rings of type-B real "
                    "permutohedral varieties, with exact rational arithmetic.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snakes", help="enumerate the B-snakes on an index set")
    p.add_argument("--set", required=True, help="comma-separated indices, e.g. 1,2,3")
    p.add_argument("--json", action="store_true")
    p.add_argument("--unsafe-cap", type=_size, default=0)
    p.set_defaults(fn=cmd_snakes)

    p = sub.add_parser("springer", help="Springer numbers b_r")
    p.add_argument("--r", type=_size, required=True)
    p.add_argument("--table", action="store_true", help="print b_0..b_r")
    p.add_argument("--json", action="store_true")
    p.add_argument("--unsafe-cap", type=_size, default=0)
    p.set_defaults(fn=cmd_springer)

    p = sub.add_parser("normal-form", help="snake-basis normal form of a word")
    p.add_argument("perm", help='bracket notation, e.g. "[1/23]"')
    p.add_argument("--backend", choices=BACKENDS, default="rewrite")
    p.add_argument("--set", default=None,
                   help="optional support, validated against the word")
    p.add_argument("--check-oracle", action="store_true",
                   help="cross-validate against the other backend and the "
                        "simplicial oracle (exit 1 on disagreement)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--unsafe-cap", type=_size, default=0,
                   help=f"lift the caps (rewrite {REWRITE_CAP}, solve {SOLVE_CAP})")
    p.set_defaults(fn=cmd_normal_form)

    p = sub.add_parser("cup", help="cup product of two basis snakes")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--json", action="store_true")
    p.add_argument("--unsafe-cap", type=_size, default=0)
    p.set_defaults(fn=cmd_cup)

    p = sub.add_parser("betti", help="Betti numbers in degrees 0..n")
    p.add_argument("--n", type=_size, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--unsafe-cap", type=_size, default=0)
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("ring-table", help="all basis products over subsets of [n]")
    p.add_argument("--n", type=_size, required=True)
    p.add_argument("--json", action="store_true", help="JSON-lines, one product per line")
    p.add_argument("--unsafe-cap", type=_size, default=0)
    p.set_defaults(fn=cmd_ring_table)

    p = sub.add_parser("verify", help="run the structural verification suite")
    p.add_argument("--n", type=_size, required=True)
    p.add_argument("--lemma", action="append", default=None, metavar="CHECK",
                   help="restrict to one named check, e.g. --lemma "
                        "join-factorization (repeatable; unique substrings "
                        f"accepted; known: {', '.join(CHECKS)})")
    p.add_argument("--full", action="store_true",
                   help=f"additionally sweep hat-complex checks up to |I| = {ORACLE_CAP}")
    p.add_argument("--json", action="store_true")
    p.add_argument("--unsafe-cap", type=_size, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("experiment", help="reports that never fail the build")
    p.add_argument("what", choices=["coeffs"])
    p.add_argument("--r", type=_size, required=True)
    p.add_argument("--backend", choices=BACKENDS, default="rewrite")
    p.add_argument("--json", action="store_true")
    p.add_argument("--unsafe-cap", type=_size, default=0)
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, CapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConventionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
