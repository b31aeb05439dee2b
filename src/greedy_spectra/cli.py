"""Command-line front end.

Every verb prints JSON (or DOT for ``export --format dot``) to stdout.
Exit codes: 0 success, 1 a verification sweep reported failure, 2 invalid
input, 3 enumeration cap exceeded.  Trees are read as JSON from a file
argument or stdin, or built on the fly from ``--degseq``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .degree_sequences import parse_degree_sequence
from .enumeration import (
    CAP_ENV_VAR,
    build_remark_pair,
    enumerate_trees,
    verify_greedy_maximality,
    verify_majorization_monotonicity,
    verify_spectral_corollaries,
    verify_volkmann_conjecture,
)
from .errors import CapExceededError, GreedySpectraError, NotRealizableError
from .spectral import characteristic_polynomial, eigenvalues, estrada_index
from .trees import build_greedy_tree, build_volkmann_tree, from_json, to_dot, to_json, tree_to_dict
from .walks import _decimal_strings, spectral_moments_up_to

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greedy-spectra",
        description="Greedy trees and spectral moments for given degree sequences.",
        epilog=f"The enumeration cap defaults to 12 and can be set via {CAP_ENV_VAR}.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("greedy", help="greedy tree of a degree sequence")
    p.add_argument("degseq", help="degree sequence, e.g. 3,2,2,1,1,1 or 3^2,1^4")

    p = sub.add_parser("volkmann", help="greedy tree of the dominant bounded-degree sequence")
    p.add_argument("n", type=int)
    p.add_argument("max_degree", type=int)

    for verb, help_text in (
        ("moments", "closed-walk counts M_0..M_k of a tree"),
        ("estrada", "Estrada index of a tree, cross-checked two ways"),
        ("spectrum", "adjacency eigenvalues of a tree"),
        ("charpoly", "characteristic polynomial, constant term first"),
        ("export", "re-emit a tree as JSON or DOT"),
    ):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument(
            "tree",
            nargs="?",
            help="tree JSON file, - for stdin (default), or an inline degree sequence",
        )
        p.add_argument("--degseq", help="build the greedy tree of this sequence instead")
        if verb == "moments":
            p.add_argument("--k", type=int, required=True)
        if verb in ("estrada", "spectrum"):
            p.add_argument("--tol", type=float, default=1e-8 if verb == "estrada" else 1e-10)
        if verb == "export":
            p.add_argument("--format", choices=("json", "dot"), default="json")
        p.add_argument("--json", action="store_true", help="wrap output in a labeled object")

    p = sub.add_parser("enumerate", help="all trees with a degree sequence, up to isomorphism")
    p.add_argument("degseq")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("remark-pair", help="moment-tying tree pair for parameter r")
    p.add_argument("r", type=int)

    p = sub.add_parser("verify", help="sweep a claim and report pass/fail")
    vsub = p.add_subparsers(dest="claim", required=True)

    v = vsub.add_parser("maximality", help="greedy tree maximizes all moments in its class")
    v.add_argument("degseq")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--cap", type=int, default=None)

    v = vsub.add_parser("majorization", help="majorization of sequences lifts to moments")
    v.add_argument("degseq_b")
    v.add_argument("degseq_d")
    v.add_argument("--k", type=int, required=True)

    v = vsub.add_parser("volkmann", help="degree-bounded maximality of the Volkmann-type tree")
    v.add_argument("n", type=int)
    v.add_argument("max_degree", type=int)
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--cap", type=int, default=None)

    v = vsub.add_parser("corollaries", help="radius, Estrada and char-poly dominance")
    v.add_argument("degseq")
    v.add_argument("--cap", type=int, default=None)
    v.add_argument("--tol", type=float, default=1e-9)

    return parser


def _load_tree(args):
    if getattr(args, "degseq", None):
        return build_greedy_tree(parse_degree_sequence(args.degseq))
    source = getattr(args, "tree", None)
    if source not in (None, "-") and not Path(source).exists():
        # Accept an inline degree sequence in the tree slot for one-liners.
        try:
            d = parse_degree_sequence(source)
        except NotRealizableError:
            raise NotRealizableError(
                f"{source} is neither a readable file nor a degree sequence"
            ) from None
        return build_greedy_tree(d)
    try:
        text = sys.stdin.read() if source in (None, "-") else Path(source).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise NotRealizableError(f"cannot read tree file {source or '-'}: {exc}") from exc
    if not text.strip():
        raise NotRealizableError("no tree given: pass a file, --degseq, or JSON on stdin")
    return from_json(text)


def _run(args: argparse.Namespace) -> int:
    if args.verb == "greedy":
        print(to_json(build_greedy_tree(parse_degree_sequence(args.degseq))))
        return 0
    if args.verb == "volkmann":
        print(to_json(build_volkmann_tree(args.n, args.max_degree)))
        return 0
    if args.verb == "moments":
        mv = spectral_moments_up_to(_load_tree(args), args.k)
        if args.json:
            print(json.dumps({"k_max": args.k, "moments": _decimal_strings(mv)}))
        else:
            print(mv.to_json())
        return 0
    if args.verb == "estrada":
        value = estrada_index(_load_tree(args), args.tol)
        if args.json:
            print(json.dumps({"estrada_index": value, "tol": args.tol}))
        else:
            print(value)
        return 0
    if args.verb == "spectrum":
        spec = eigenvalues(_load_tree(args), args.tol)
        if args.json:
            print(json.dumps({"eigenvalues": list(spec.values), "tol": spec.tol}))
        else:
            print(json.dumps(list(spec.values)))
        return 0
    if args.verb == "charpoly":
        coeffs = characteristic_polynomial(_load_tree(args))
        payload = _decimal_strings(coeffs)
        if args.json:
            print(json.dumps({"coefficients_constant_first": payload}))
        else:
            print(json.dumps(payload))
        return 0
    if args.verb == "export":
        tree = _load_tree(args)
        print(to_dot(tree) if args.format == "dot" else to_json(tree))
        return 0
    if args.verb == "enumerate":
        trees = list(enumerate_trees(parse_degree_sequence(args.degseq), args.cap))
        if args.count_only:
            print(json.dumps({"count": len(trees)}) if args.json else len(trees))
        else:
            print(json.dumps([tree_to_dict(t) for t in trees]))
        return 0
    if args.verb == "remark-pair":
        greedy, partner = build_remark_pair(args.r)
        print(json.dumps({"greedy": tree_to_dict(greedy), "partner": tree_to_dict(partner)}))
        return 0
    if args.verb == "verify":
        if args.claim == "maximality":
            report = verify_greedy_maximality(
                parse_degree_sequence(args.degseq), args.k, args.cap
            )
        elif args.claim == "majorization":
            report = verify_majorization_monotonicity(
                parse_degree_sequence(args.degseq_b),
                parse_degree_sequence(args.degseq_d),
                args.k,
            )
        elif args.claim == "volkmann":
            report = verify_volkmann_conjecture(args.n, args.max_degree, args.k, args.cap)
        else:
            report = verify_spectral_corollaries(
                parse_degree_sequence(args.degseq), cap=args.cap, tol=args.tol
            )
        print(report.to_json())
        return 0 if report.status in ("pass", "pass-with-ties") else 1
    raise AssertionError(f"unhandled verb {args.verb!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GreedySpectraError, OverflowError) as exc:
        # OverflowError: an integer argument too large for a size or index
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; ask for a smaller size", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
