"""Command-line entry point.

One binary, subcommand style: ``lr``, ``dims``, ``filter``, ``series``,
``growth``, ``oracle``.  Human-readable tables by default, ``--format
json`` (and ``csv`` for series) for scripting.  Exit codes: 0 success or
true verdict, 1 false verdict, 2 usage error, 3 enumeration cap
exceeded.  ``FILTERALG_DIM_CAP`` overrides the oracle ambient cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dims import dimension_record
from .filters import Filter
from .lr import lr_coefficient, outer_product
from .oracle import (
    DIM_CAP,
    CapExceeded,
    EE_DEGREE_CAP,
    SuperBasis,
    check_ideal,
    evaluate_identity,
    is_identity_EE,
    module_W,
    named_poly,
)
from .partitions import (
    display_partition,
    enumerate_partitions,
    parse_partition,
)
from .series import series, verify_growth
from .dims import w_dim


def _dim_cap() -> int:
    raw = os.environ.get("FILTERALG_DIM_CAP")
    return int(raw) if raw else DIM_CAP


def _print_json(obj) -> None:
    print(json.dumps(obj))


def _cmd_lr(args) -> int:
    mu = parse_partition(args.mu)
    lam = parse_partition(args.lam)
    if args.nu is not None:
        nu = parse_partition(args.nu)
        c = lr_coefficient(mu, lam, nu)
        if args.format == "json":
            _print_json(
                {"mu": list(mu), "lam": list(lam), "nu": list(nu), "coefficient": c}
            )
        else:
            print(c)
        return 0
    exp = outer_product(mu, lam)
    if args.format == "json":
        _print_json(
            {
                "mu": list(mu),
                "lam": list(lam),
                "degree": exp.degree,
                "terms": [
                    {"nu": list(nu), "coeff": c} for nu, c in exp.terms.items()
                ],
            }
        )
    else:
        for nu, c in exp.terms.items():
            print(f"{display_partition(nu)}={c}")
    return 0


def _cmd_dims(args) -> int:
    rec = dimension_record(parse_partition(args.lam), args.k, args.l)
    if args.format == "json":
        _print_json(
            {
                "lambda": list(rec.lam),
                "k": args.k,
                "l": args.l,
                "f": rec.f,
                "schur": rec.schur,
                "w": rec.w,
            }
        )
    else:
        print(f"f={rec.f} schur={rec.schur} w={rec.w}")
    return 0


def _cmd_filter_minimize(args) -> int:
    filt = Filter.load(args.file)
    if args.format == "json":
        _print_json(filt.to_json())
    else:
        for g in filt.generators:
            print(display_partition(g))
    return 0


def _cmd_filter_member(args) -> int:
    verdict = Filter.load(args.file).member(parse_partition(args.lam))
    if args.format == "json":
        _print_json({"member": verdict})
    else:
        print("true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_filter_complement(args) -> int:
    shapes = Filter.load(args.file).complement_at(args.n)
    if args.format == "json":
        _print_json({"n": args.n, "complement": [list(s) for s in shapes]})
    else:
        for s in shapes:
            print(display_partition(s))
    return 0


def _cmd_filter_hr(args) -> int:
    value = Filter.load(args.file).hr()
    if args.format == "json":
        _print_json({"hr": value})
    else:
        print(value)
    return 0


def _cmd_filter_pi(args) -> int:
    filt = Filter.load(args.file)
    if getattr(args, "super"):
        witness = filt.is_pi_super()
        label = "b"
    else:
        witness = filt.is_pi_classical()
        label = "c"
    if args.format == "json":
        _print_json({"pi": witness is not None, label: witness})
    else:
        print(f"{label}={witness}" if witness is not None else "not-pi")
    return 0 if witness is not None else 1


def _cmd_series(args) -> int:
    ser = series(Filter.load(args.file), args.n_max)
    if args.format == "json":
        _print_json(
            {
                "k": ser.k,
                "l": ser.l,
                "n_max": args.n_max,
                "values": list(ser.values),
            }
        )
    elif args.format == "csv":
        for n, d in enumerate(ser.values):
            print(f"{n},{d}")
    else:
        width = max(len(str(d)) for d in ser.values)
        for n, d in enumerate(ser.values):
            print(f"{n:4d} {d:>{width}}")
    return 0


def _cmd_growth(args) -> int:
    report = verify_growth(Filter.load(args.file), args.n_max)
    _print_json(report.to_json())
    return 0 if report.passed else 1


def _cmd_oracle_decompose(args) -> int:
    basis = SuperBasis(args.k, args.l)
    n = args.n
    cap = _dim_cap()
    detail = []
    ok = True
    total = 0
    for lam in enumerate_partitions(n):
        sub = module_W(lam, basis, n, cap)
        expected = w_dim(lam, args.k, args.l)
        ok = ok and sub.dim == expected
        total += sub.dim
        detail.append({"lambda": list(lam), "module": sub.dim, "w": expected})
    ok = ok and total == basis.dim**n
    if args.format == "json":
        _print_json(
            {
                "k": args.k,
                "l": args.l,
                "n": n,
                "total": total,
                "expected_total": basis.dim**n,
                "blocks": detail,
                "verdict": "PASS" if ok else "FAIL",
            }
        )
    else:
        for entry in detail:
            print(
                f"{display_partition(tuple(entry['lambda']))} "
                f"module={entry['module']} w={entry['w']}"
            )
        print(f"{'PASS' if ok else 'FAIL'} total={total} expected={basis.dim ** n}")
    return 0 if ok else 1


def _filter_with_basis(path: str, action: str) -> tuple[Filter, SuperBasis]:
    filt = Filter.load(path)
    if filt.ambient is None:
        raise ValueError(f"filter file must set k and l for {action}")
    return filt, SuperBasis(*filt.ambient)


def _cmd_oracle_check_ideal(args) -> int:
    filt, basis = _filter_with_basis(args.file, "check-ideal")
    members = [
        lam
        for n in range(args.n_max + 1)
        for lam in enumerate_partitions(n)
        if filt.member(lam)
    ]
    ok = check_ideal(members, basis, args.n_max, _dim_cap())
    if args.format == "json":
        _print_json({"n_max": args.n_max, "verdict": "PASS" if ok else "FAIL"})
    else:
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_oracle_identity(args) -> int:
    filt, basis = _filter_with_basis(args.file, "identity")
    # Above degree --n no substitution of total degree n exists.
    g = named_poly(args.poly, max_degree=args.n)
    ok = evaluate_identity(g, filt, basis, args.n, _dim_cap())
    if args.format == "json":
        _print_json(
            {"poly": args.poly, "n": args.n, "verdict": "PASS" if ok else "FAIL"}
        )
    else:
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_oracle_ee(args) -> int:
    g = named_poly(args.poly, max_degree=EE_DEGREE_CAP)
    ok = is_identity_EE(g)
    if args.format == "json":
        _print_json(
            {"poly": args.poly, "degree": g.degree, "verdict": "PASS" if ok else "FAIL"}
        )
    else:
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filteralg",
        description="Exact computations with partition-filter algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lr", help="Littlewood-Richardson coefficients")
    p.add_argument("--mu", required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--nu")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_lr)

    p = sub.add_parser("dims", help="block dimensions for one shape")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_dims)

    text_or_json = argparse.ArgumentParser(add_help=False)
    text_or_json.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("filter", help="filter queries")
    actions = p.add_subparsers(dest="action", required=True)
    filter_file = argparse.ArgumentParser(add_help=False, parents=[text_or_json])
    filter_file.add_argument("--file", required=True)

    a = actions.add_parser("minimize", parents=[filter_file])
    a.set_defaults(func=_cmd_filter_minimize)

    a = actions.add_parser("member", parents=[filter_file])
    a.add_argument("--lambda", dest="lam", required=True)
    a.set_defaults(func=_cmd_filter_member)

    a = actions.add_parser("complement", parents=[filter_file])
    a.add_argument("--n", type=int, required=True)
    a.set_defaults(func=_cmd_filter_complement)

    a = actions.add_parser("hr", parents=[filter_file])
    a.set_defaults(func=_cmd_filter_hr)

    a = actions.add_parser("pi", parents=[filter_file])
    a.add_argument("--super", action="store_true")
    a.set_defaults(func=_cmd_filter_pi)

    p = sub.add_parser("series", help="graded dimension series")
    p.add_argument("--file", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("growth", help="verify the growth exponent")
    p.add_argument("--file", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("oracle", help="brute-force tensor checks")
    actions = p.add_subparsers(dest="action", required=True)

    a = actions.add_parser("decompose", parents=[text_or_json])
    a.add_argument("--k", type=int, required=True)
    a.add_argument("--l", type=int, required=True)
    a.add_argument("--n", type=int, required=True)
    a.set_defaults(func=_cmd_oracle_decompose)

    a = actions.add_parser("check-ideal", parents=[text_or_json])
    a.add_argument("--file", required=True)
    a.add_argument("--n-max", type=int, required=True)
    a.set_defaults(func=_cmd_oracle_check_ideal)

    a = actions.add_parser("identity", parents=[text_or_json])
    a.add_argument("--file", required=True)
    a.add_argument("--poly", required=True)
    a.add_argument("--n", type=int, required=True)
    a.set_defaults(func=_cmd_oracle_identity)

    a = actions.add_parser("ee", parents=[text_or_json])
    a.add_argument("--poly", required=True)
    a.set_defaults(func=_cmd_oracle_ee)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
