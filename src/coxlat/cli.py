"""Command-line surface: build lattices, print characteristic polynomials
and series, run the verification suite, browse the catalog.

Exit codes: 0 success, 1 verification failure, 2 input or validation error
(including inputs over the size limits, and, as a last resort, any other
internal error: only a failed check exits 1).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import CoxlatError, NotAStarLattice, TooLarge
from .exact import poly_to_string
from .lattice import Lattice, char_poly, coxeter_matrix, star_char_polys
from .series import hilbert_P, p_and_q, poincare_direct
from .star import (
    build,
    catalog,
    catalog_names,
    fuchsian_invariants,
    invariants_from_json,
    invariants_from_star,
    kleinian_invariants,
    lattices_from_minus,
    validate,
)
from .verify import (
    DEFAULT_ORDER,
    DEFAULT_RANDOM_COUNT,
    DEFAULT_SEED,
    Subject,
    run_check,
    run_suite,
    verify_lattices,
)
# Not called here; perfbench/spans.py wraps these bindings by attribute.
from .exact import series_from_rational  # noqa: F401
from .series import hilbert_Q  # noqa: F401

# Largest accepted rank of V_plus, series order and count of random inputs.
# Wall times of one command on a shared 2-vCPU Intel Xeon host.  At rank
# 900 and order 200, `verify` takes 0.10 to 0.13 s on D898 and on the
# Fuchsian star (2, 3, 895), and 0.76 to 0.94 s on the Fuchsian star of 299
# arms with alpha = 3 and one with alpha = 300.  A star's Gram rows, its
# tau columns (each a window of a suffix of V_plus's reflection word that
# stops at its last active step), their residuals, the chain elimination
# and the arm periods (O(alpha) word steps per arm) grow linearly in the
# rank, except the r + 2 border columns of a many-arm star, each of which
# runs the whole word: O(r * rank).  The orbit walk grows as the order
# times the number of distinct arm lengths.  At order 10000, `poincare`
# takes 0.08 to 0.09 s on D898, 0.23 to 0.4 s on the 300-arm star and 0.21
# to 0.39 s on the star of 440 arms with alpha = 2 (rank 443), whose
# quotient divides out the 440 factors 1 - t^2 in turn; `hilbert` takes
# 0.08 to 0.16 s on D898 and 0.15 to 0.28 s on the 300-arm star, whose
# walks run each arm as a delay line, and 0.42 to
# 0.8 s on D297's V_zero given as --gram with --root 297 (E-u), which steps
# the reflection word of rank 298; with no --root that Gram is rooted at E
# and takes 0.1 to 0.16 s.  A --gram input may be any root lattice; the word
# of a dense Gram has a term per entry, and `hilbert` at order 5 takes about
# 0.25 s and 24 MB at rank 298, the largest Gram MAX_GRAM_RANK admits.
# `charpoly --gram` eliminates a star Gram in 0.1 to 0.18 s at ranks 296 to
# 298, but Berkowitz on a tau that fills in takes 2.3 s on a dense +-1 Gram
# of rank 80, 5.4 s at rank 100 and 24 s at rank 120, hence
# MAX_BERKOWITZ_RANK for any other Gram.  `verify --all --random 500` at
# order 200 takes 0.9 to 1.9 s.
MAX_RANK = 900
MAX_GRAM_RANK = 300
MAX_BERKOWITZ_RANK = 100
MAX_ORDER = 10000
MAX_RANDOM = 500


def _parse_alphas(text: str):
    try:
        alphas = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise CoxlatError(f"could not parse ramification indices from {text!r}")
    if not alphas:
        raise CoxlatError("expected a comma-separated list of ramification indices")
    return alphas


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_input_options(sub, with_gram=True):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--kleinian", metavar="A,A,...",
                       help="ramification indices, Kleinian pattern (b=2, beta=alpha-1)")
    group.add_argument("--fuchsian", metavar="A,A,...",
                       help="ramification indices, genus-0 Fuchsian pattern (b=r-2, beta=1)")
    group.add_argument("--name", metavar="NAME", help="catalog entry, e.g. E8 or D5")
    group.add_argument("--invariants", metavar="FILE",
                       help="JSON file with orbit invariants")
    if with_gram:
        group.add_argument("--gram", metavar="FILE",
                           help="JSON file with a lattice ({labels, gram})")
    return group


def _load_invariants(args):
    if getattr(args, "kleinian", None) is not None:
        return kleinian_invariants(_parse_alphas(args.kleinian))
    if getattr(args, "fuchsian", None) is not None:
        return fuchsian_invariants(_parse_alphas(args.fuchsian))
    if getattr(args, "name", None) is not None:
        return catalog(args.name)
    if getattr(args, "invariants", None) is not None:
        with open(args.invariants, encoding="utf-8") as handle:
            return invariants_from_json(json.load(handle))
    return None


def _load_input(args):
    """The input of any route: (invariants, None), or (None, lattice) for --gram.

    Before any matrix is built, the rank of V_plus, read off the
    ramification indices, is refused over MAX_RANK, and the rank of a Gram,
    its row count, over MAX_GRAM_RANK - 2.
    """
    inv = _load_invariants(args)
    if inv is not None:
        rank = sum(a - 1 for a in inv.alphas) + 3
        if rank > MAX_RANK:
            raise TooLarge(f"V_plus would have rank {rank}, above the limit {MAX_RANK}")
        return inv, None
    with open(args.gram, encoding="utf-8") as handle:
        obj = json.load(handle)
    if isinstance(obj, dict) and isinstance(obj.get("gram"), list):
        rank = len(obj["gram"])
        if rank > MAX_GRAM_RANK - 2:
            raise TooLarge(f"a --gram input has rank {rank}, above the limit {MAX_GRAM_RANK - 2}")
    return None, Lattice.from_json(obj)


def _star_lattices(args):
    """Resolve any input choice to StarLattices (decoding a Gram if needed)."""
    inv, lat = _load_input(args)
    if inv is not None:
        return build(inv)
    inv, kind, arms = invariants_from_star(lat)
    return lattices_from_minus(lat, inv, kind, arms, lat.rank - 1)


def _emit_json(obj):
    print(json.dumps(obj))


def _print_lattice(title: str, lat: Lattice):
    print(f"{title}  (rank {lat.rank})")
    print("  basis:", " ".join(lat.labels))
    width = max(len(str(x)) for row in lat.gram for x in row)
    for row in lat.gram:
        print("  " + " ".join(f"{x:>{width}}" for x in row))


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(args) -> int:
    lats = build(_load_input(args)[0])
    if args.format == "json":
        _emit_json({"minus": lats.minus.to_json(),
                    "zero": lats.zero.to_json(),
                    "plus": lats.plus.to_json()})
    else:
        print(f"{lats.kind.value} {lats.invariants.describe()}")
        for title, lat in (("V_minus", lats.minus), ("V_zero", lats.zero), ("V_plus", lats.plus)):
            _print_lattice(title, lat)
    return 0


def cmd_charpoly(args) -> int:
    inv, lat = _load_input(args)
    if lat is None:
        subject = Subject(build(inv))
        deltas = {which: subject.delta(which) for which in ("minus", "zero", "plus")}
    else:
        # A star Gram is V_minus, V_zero or V_plus, with its center the last,
        # second or third vertex; any other root lattice takes Berkowitz.
        by_core = (star_char_polys(lat, lat.rank - size) for size in (1, 2, 3))
        prefixes = next((d for d in by_core if d is not None), None)
        if prefixes is None and lat.rank > MAX_BERKOWITZ_RANK:
            raise TooLarge(f"a Gram outside the star shapes has rank {lat.rank}, "
                           f"above the limit {MAX_BERKOWITZ_RANK} for Berkowitz on tau")
        deltas = {"charpoly": char_poly(coxeter_matrix(lat)) if prefixes is None else prefixes[-1]}
    if args.format == "json":
        _emit_json(deltas)
    else:
        for which, delta in deltas.items():
            print(f"{which:<5}: {poly_to_string(delta)}")
    return 0


def cmd_poincare(args) -> int:
    subject = Subject(_star_lattices(args))
    kind = subject.lats.kind
    rows = {}
    if args.route in ("direct", "both"):
        rows["direct"] = poincare_direct(subject.lats.invariants, kind, args.order)
    if args.route in ("quotient", "both"):
        rows["quotient"] = subject.quotient(kind.top, args.order)
    if args.format == "json":
        _emit_json({key: s.to_json() for key, s in rows.items()})
    else:
        for key, s in rows.items():
            print(f"{key:<8}: {s}")
    return 0


def cmd_hilbert(args) -> int:
    if args.root is not None and args.gram is None:
        raise CoxlatError("--root needs a --gram input; the other inputs root the series at E")
    inv, lat = _load_input(args)
    if lat is not None:
        root = args.root  # None: E on V_zero's star shape, else the last vertex
    else:
        lats = build(inv)
        lat, root = lats.zero, lats.center
    series = dict(zip(("P", "Q"), p_and_q(hilbert_P(lat, root, args.order + 1))))
    rows = {key: s for key, s in series.items() if args.series in (key, "both")}
    if args.format == "json":
        _emit_json({key: s.to_json() for key, s in rows.items()})
    else:
        for key, s in rows.items():
            print(f"{key}: {s}")
    return 0


def _emit_reports(reports, fmt: str) -> int:
    failures = [r for r in reports if not r.passed]
    if fmt == "json":
        for report in reports:
            _emit_json(report.to_json())
    else:
        for report in reports:
            print(report.row())
        total = len(reports)
        if failures:
            print(f"{len(failures)} of {total} checks FAILED")
        else:
            print(f"all {total} checks passed")
    return 1 if failures else 0


def cmd_verify(args) -> int:
    if args.all:
        if args.format == "json":
            _emit_json({"check": "suite-config", "status": "info", "order": args.order,
                        "seed": args.seed, "random_inputs": args.random})
        else:
            print(f"# catalog + {args.random} random Fuchsian inputs, "
                  f"order {args.order}, seed {args.seed}")
        reports = run_suite(order=args.order, n_random=args.random, seed=args.seed)
        return _emit_reports(reports, args.format)
    label = args.gram and f"gram:{Path(args.gram).name}"
    decoded = []

    def witnesses():     # a Gram that is not a star fails a check; it is not an input error
        try:
            decoded.append(_star_lattices(args))
        except NotAStarLattice as exc:
            yield {"identity": "Gram decodes as a star configuration", "index": exc.index,
                   "expected": "chain attached to center", "got": str(exc)}

    report = run_check("star-structure", label, 0, witnesses())
    reports = verify_lattices(decoded[0], args.order, label) if decoded else [report]
    return _emit_reports(reports, args.format)


def cmd_catalog(args) -> int:
    entries = []
    for name in catalog_names():
        inv = catalog(name)
        kind = validate(inv)
        entries.append({"name": name, "kind": kind.value,
                        "alpha": list(inv.alphas), "b": inv.b,
                        "pairs": [list(p) for p in inv.pairs]})
    if args.format == "json":
        _emit_json({"entries": entries})
    else:
        for entry in entries:
            alphas = ",".join(str(a) for a in entry["alpha"])
            print(f"{entry['name']:<5} {entry['kind']:<9} alpha=({alphas}) b={entry['b']}")
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="coxlat",
        description="Exact star-lattice Coxeter elements and Poincare series",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("--format", choices=("text", "json"), default="text")

    sub = subparsers.add_parser("build", help="print the three star lattices")
    _add_input_options(sub, with_gram=False)
    common(sub)
    sub.set_defaults(handler=cmd_build)

    sub = subparsers.add_parser("charpoly", help="characteristic polynomials of the Coxeter elements")
    _add_input_options(sub)
    common(sub)
    sub.set_defaults(handler=cmd_charpoly)

    sub = subparsers.add_parser("poincare", help="Poincare series by either route")
    _add_input_options(sub)
    sub.add_argument("--order", type=nonnegative, default=DEFAULT_ORDER)
    sub.add_argument("--route", choices=("direct", "quotient", "both"), default="both")
    common(sub)
    sub.set_defaults(handler=cmd_poincare)

    sub = subparsers.add_parser("hilbert", help="orbit series P and Q of (V_zero, E)")
    _add_input_options(sub)
    sub.add_argument("--order", type=nonnegative, default=DEFAULT_ORDER)
    sub.add_argument("--series", choices=("P", "Q", "both"), default="both")
    sub.add_argument("--root", type=int, default=None,
                     help="basis index of the distinguished root (gram input only); "
                          "default E on a Gram of V_zero's star shape, else the last")
    common(sub)
    sub.set_defaults(handler=cmd_hilbert)

    sub = subparsers.add_parser("verify", help="run the identity checks")
    group = _add_input_options(sub)
    group.add_argument("--all", action="store_true",
                       help="whole catalog plus seeded random Fuchsian tuples")
    sub.add_argument("--order", type=nonnegative, default=DEFAULT_ORDER)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--random", type=nonnegative, default=DEFAULT_RANDOM_COUNT,
                     metavar="N", help="number of random Fuchsian inputs for --all")
    common(sub)
    sub.set_defaults(handler=cmd_verify)

    sub = subparsers.add_parser("catalog", help="list the named entries")
    common(sub)
    sub.set_defaults(handler=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        order = getattr(args, "order", 0)
        if order > MAX_ORDER:
            raise TooLarge(f"--order {order} is above the limit {MAX_ORDER}")
        count = getattr(args, "random", 0)
        if count > MAX_RANDOM:
            raise TooLarge(f"--random {count} is above the limit {MAX_RANDOM}")
        return args.handler(args)
    except CoxlatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:    # last resort: exit 1 is reserved for a failed check
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
