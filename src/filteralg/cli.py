"""Command-line entry point.

One binary, subcommand style: ``lr``, ``dims``, ``filter``, ``series``,
``growth``, ``oracle``.  Human-readable tables by default, ``--format
json`` (and ``csv`` for series) for scripting; ``growth`` always prints
JSON.  Each command returns its exit code, a JSON payload and its text
lines, and :func:`main` prints one of the two.  Exit codes: 0 success or
true verdict, 1 false verdict, 2 usage error, 3 enumeration cap
exceeded or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .dims import f_lambda, schur_dim, w_dim
from .filters import Filter
from .lr import lr_coefficient, outer_product
from .oracle import (
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

# What every ``_cmd_*`` returns: exit code, JSON payload, text lines.
Result = tuple[int, dict, list[str]]


def _verdict(ok: bool, payload: dict, lines: list[str]) -> Result:
    """An oracle check's result: ``"verdict"`` goes last in the payload,
    and the verdict word leads the last text line (or is the only one)."""
    word = "PASS" if ok else "FAIL"
    lines = lines[:-1] + [" ".join([word, *lines[-1:]])]
    return (0 if ok else 1), {**payload, "verdict": word}, lines


def _cmd_lr(args) -> Result:
    mu = parse_partition(args.mu)
    lam = parse_partition(args.lam)
    if args.nu is not None:
        nu = parse_partition(args.nu)
        c = lr_coefficient(mu, lam, nu)
        payload = {"mu": list(mu), "lam": list(lam), "nu": list(nu), "coefficient": c}
        return 0, payload, [str(c)]
    exp = outer_product(mu, lam)
    payload = {
        "mu": list(mu),
        "lam": list(lam),
        "degree": exp.degree,
        "terms": [{"nu": list(nu), "coeff": c} for nu, c in exp.terms.items()],
    }
    return 0, payload, [f"{display_partition(nu)}={c}" for nu, c in exp.terms.items()]


def _cmd_dims(args) -> Result:
    lam = parse_partition(args.lam)
    f, schur = f_lambda(lam), schur_dim(lam, args.k, args.l)
    payload = {
        "lambda": list(lam),
        "k": args.k,
        "l": args.l,
        "f": f,
        "schur": schur,
        "w": f * schur,
    }
    return 0, payload, [f"f={f} schur={schur} w={f * schur}"]


def _cmd_filter_minimize(args) -> Result:
    filt = Filter.load(args.file)
    return 0, filt.to_json(), [display_partition(g) for g in filt.generators]


def _cmd_filter_member(args) -> Result:
    verdict = Filter.load(args.file).member(parse_partition(args.lam))
    return (0 if verdict else 1), {"member": verdict}, ["true" if verdict else "false"]


def _cmd_filter_complement(args) -> Result:
    shapes = Filter.load(args.file).complement_at(args.n)
    payload = {"n": args.n, "complement": [list(s) for s in shapes]}
    return 0, payload, [display_partition(s) for s in shapes]


def _cmd_filter_hr(args) -> Result:
    value = Filter.load(args.file).hr()
    return 0, {"hr": value}, [str(value)]


def _cmd_filter_pi(args) -> Result:
    filt = Filter.load(args.file)
    if getattr(args, "super"):
        witness, label = filt.is_pi_super(), "b"
    else:
        witness, label = filt.is_pi_classical(), "c"
    pi = witness is not None
    text = f"{label}={witness}" if pi else "not-pi"
    return (0 if pi else 1), {"pi": pi, label: witness}, [text]


def _cmd_series(args) -> Result:
    ser = series(Filter.load(args.file), args.n_max)
    payload = {"k": ser.k, "l": ser.l, "n_max": args.n_max, "values": list(ser.values)}
    if args.format == "csv":
        return 0, payload, [f"{n},{d}" for n, d in enumerate(ser.values)]
    width = max(len(str(d)) for d in ser.values)
    return 0, payload, [f"{n:4d} {d:>{width}}" for n, d in enumerate(ser.values)]


def _cmd_growth(args) -> Result:
    report = verify_growth(Filter.load(args.file), args.n_max)
    return (0 if report.passed else 1), report.to_json(), []


def _cmd_oracle_decompose(args) -> Result:
    basis = SuperBasis(args.k, args.l)
    n = args.n
    blocks = []
    lines = []
    for lam in enumerate_partitions(n):
        dim = module_W(lam, basis, n).dim
        w = w_dim(lam, args.k, args.l)
        blocks.append({"lambda": list(lam), "module": dim, "w": w})
        lines.append(f"{display_partition(lam)} module={dim} w={w}")
    # After the loop, which refuses n < 0 before 0**n can divide by zero.
    expected_total = basis.dim**n
    total = sum(b["module"] for b in blocks)
    ok = all(b["module"] == b["w"] for b in blocks) and total == expected_total
    payload = {
        "k": args.k,
        "l": args.l,
        "n": n,
        "total": total,
        "expected_total": expected_total,
        "blocks": blocks,
    }
    return _verdict(ok, payload, lines + [f"total={total} expected={expected_total}"])


def _filter_with_basis(path: str) -> tuple[Filter, SuperBasis]:
    filt = Filter.load(path)
    return filt, SuperBasis(*filt._require_ambient())


def _cmd_oracle_check_ideal(args) -> Result:
    filt, basis = _filter_with_basis(args.file)
    # A generator: check_ideal refuses an over-cap n_max before any shape is listed.
    members = (
        lam
        for n in range(args.n_max + 1)
        for lam in enumerate_partitions(n)
        if filt.member(lam)
    )
    ok = check_ideal(members, basis, args.n_max)
    return _verdict(ok, {"n_max": args.n_max}, [])


def _cmd_oracle_identity(args) -> Result:
    filt, basis = _filter_with_basis(args.file)
    # Above degree --n no substitution of total degree n exists.
    g = named_poly(args.poly, max_degree=args.n)
    ok = evaluate_identity(g, filt, basis, args.n)
    return _verdict(ok, {"poly": args.poly, "n": args.n}, [])


def _cmd_oracle_ee(args) -> Result:
    g = named_poly(args.poly, max_degree=EE_DEGREE_CAP)
    return _verdict(is_identity_EE(g), {"poly": args.poly, "degree": g.degree}, [])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    :func:`main` call in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="filteralg",
        description="Exact computations with partition-filter algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    text_or_json = argparse.ArgumentParser(add_help=False)
    text_or_json.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser(
        "lr", help="Littlewood-Richardson coefficients", parents=[text_or_json]
    )
    p.add_argument("--mu", required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--nu")
    p.set_defaults(func=_cmd_lr)

    p = sub.add_parser(
        "dims", help="block dimensions for one shape", parents=[text_or_json]
    )
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=_cmd_dims)

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
    p.set_defaults(func=_cmd_growth, format="json")

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
        code, payload, lines = args.func(args)
    except (CapExceeded, MemoryError) as exc:
        reason = "out of memory" if isinstance(exc, MemoryError) else exc
        print(f"cap exceeded: {reason}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)
    return code


def run() -> None:
    raise SystemExit(main())
