"""The benchmark's workloads: seeded query lists with their answer checks.

Each builder returns a list of :class:`Query`.  All inputs are drawn
here, from ``random.Random(f"{workload}:{seed}")``, before the first
query runs; the package only ever receives the generated inputs.  The
seed sets the query order and draws the randomized inputs from fixed
size classes, so the cost of a run does not depend on the seed.

Every call into the package goes through an attribute lookup on the
package or one of its modules at call time (``fa.series(...)``, never a
name bound at import), so the traced run sees the wrapped functions.

Fixed queries are compared with the exact answers recorded in
``expected.json``; seed-drawn queries are checked with identities the
package guarantees.  ``python3 perfbench/child.py --record`` rewrites
``expected.json`` from the current code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional

WORKLOADS = ("formula-series", "oracle-decompose", "oracle-verdicts")
SIZES = ("full", "tiny")

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# Mirrors CATALOG_SPECS in tests/conftest.py: a spread of ambients,
# generator counts and growth behaviours (nilpotent, polynomial,
# exponential).  Copied rather than imported so the benchmark does not
# depend on the test suite or pytest.
CATALOG = [
    ([()], (1, 1)),
    ([(1,)], (2, 0)),
    ([(2,)], (2, 0)),
    ([(1, 1)], (2, 0)),
    ([(3,)], (1, 0)),
    ([(3,), (1, 1)], (1, 0)),
    ([(2, 1)], (2, 0)),
    ([(1, 1, 1)], (2, 0)),
    ([(2, 2)], (2, 0)),
    ([(2, 2)], (1, 1)),
    ([(1, 1)], (1, 1)),
    ([(2,)], (1, 1)),
    ([(2, 1)], (1, 1)),
    ([(3, 2)], (2, 1)),
    ([(2, 2), (4,)], (2, 0)),
    ([(1, 1)], (0, 2)),
    ([(2,)], (0, 2)),
    ([(3, 3, 3)], (2, 2)),
    ([(2, 2, 2)], (1, 2)),
    ([(2,)], (1, 0)),
    ([(4,), (2, 2), (1, 1, 1, 1)], (2, 2)),
    ([(3, 1)], (2, 0)),
    ([(5,), (1, 1)], (1, 1)),
    ([(2, 1)], (3, 3)),
]


class Query(NamedTuple):
    qid: str
    run: Callable[[], Any]
    # Returns True when the answer is right.  ``None`` marks a fixed
    # query, checked against expected.json.
    check: Optional[Callable[[Any], bool]] = None


def canon(answer) -> str:
    """Canonical text of an answer; long answers are kept as a digest."""
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    if len(text) > 160:
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    return text


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


# -- input generation (no package calls) -----------------------------------


def _partitions(n: int, max_part: Optional[int] = None):
    """All partitions of ``n`` with parts at most ``max_part``."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        out.extend((first,) + rest for rest in _partitions(n - first, first))
    return out


def _in_hook(lam, k: int, l: int) -> bool:
    return len(lam) <= k or lam[k] <= l


def _contains(mu, lam) -> bool:
    return len(mu) <= len(lam) and all(m <= p for m, p in zip(mu, lam))


def _members_upto(gens, ambient, n_max: int):
    k, l = ambient
    gens = list(gens) + [((l + 1),) * (k + 1)]
    return [
        lam
        for n in range(n_max + 1)
        for lam in _partitions(n)
        if any(_contains(g, lam) for g in gens)
    ]


def _spec_id(gens, ambient) -> str:
    return f"{[list(g) for g in gens]}@{ambient[0]},{ambient[1]}".replace(" ", "")


def _fmt(lam) -> str:
    return ",".join(map(str, lam)) if lam else "()"


def _cli_ok(fa, argv, codes=(0, 1)):
    """Run ``filteralg.cli.main`` and return its parsed JSON output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fa.cli.main(argv)
    if code == 3:
        raise fa.CapExceeded(f"cli exit 3 for {argv}")
    if code not in codes:
        raise RuntimeError(f"cli exit {code} for {argv}")
    return json.loads(buf.getvalue())


# -- formula-series ----------------------------------------------------------


def _formula_series(fa, rng, tiny: bool, tmpdir: str) -> list[Query]:
    n_series, n_growth, n_comp = (10, 8, 6) if tiny else (40, 30, 12)
    specs = CATALOG[:6] if tiny else CATALOG
    queries: list[Query] = []
    for i, (gens, ambient) in enumerate(specs):
        sid = _spec_id(gens, ambient)
        filt = fa.Filter(gens, ambient)
        k, l = ambient
        # A third of the catalog goes through the command line, fed by a
        # filter file written here, as a CLI user would run it.
        if i % 3 == 0:
            path = os.path.join(tmpdir, f"filter{i}.json")
            with open(path, "w") as fh:
                json.dump({"k": k, "l": l, "generators": [list(g) for g in gens]}, fh)
            queries += [
                Query(f"cli:series:{sid}:{n_series}", lambda p=path: _cli_ok(
                    fa, ["series", "--file", p, "--n-max", str(n_series), "--format", "json"])["values"]),
                Query(f"cli:growth:{sid}:{n_growth}", lambda p=path: _rounded(_cli_ok(
                    fa, ["growth", "--file", p, "--n-max", str(n_growth)]))),
                Query(f"cli:complement:{sid}:{n_comp}", lambda p=path: _cli_ok(
                    fa, ["filter", "complement", "--file", p, "--n", str(n_comp), "--format", "json"])["complement"]),
                Query(f"cli:hr:{sid}", lambda p=path: _cli_ok(
                    fa, ["filter", "hr", "--file", p, "--format", "json"])["hr"]),
                Query(f"cli:pi-super:{sid}", lambda p=path: _cli_ok(
                    fa, ["filter", "pi", "--super", "--file", p, "--format", "json"])),
            ]
            if l == 0:
                queries.append(Query(f"cli:pi:{sid}", lambda p=path: _cli_ok(
                    fa, ["filter", "pi", "--file", p, "--format", "json"])))
        else:
            queries += [
                Query(f"series:{sid}:{n_series}", lambda f=filt: list(fa.series(f, n_series).values)),
                Query(f"growth:{sid}:{n_growth}", lambda f=filt: _rounded(fa.verify_growth(f, n_growth).to_json())),
                Query(f"complement:{sid}:{n_comp}", lambda f=filt: [list(s) for s in f.complement_at(n_comp)]),
                Query(f"hr:{sid}", lambda f=filt: f.hr()),
                Query(f"pi-super:{sid}", lambda f=filt: f.is_pi_super()),
            ]
            if l == 0:
                queries.append(Query(f"pi:{sid}", lambda f=filt: f.is_pi_classical()))
        queries.append(Query(f"nilpotency:{sid}", lambda f=filt: f.nilpotency_bound()))

    big_gens, big_ambient, big_n = [(4,), (2, 2), (1, 1, 1, 1)], (2, 2), (14 if tiny else 60)
    big = fa.Filter(big_gens, big_ambient)
    queries.append(Query(f"series:{_spec_id(big_gens, big_ambient)}:{big_n}",
                         lambda: list(fa.series(big, big_n).values)))

    # Littlewood-Richardson: fixed products with recorded terms, and
    # seed-drawn pairs of shapes of size 8-10 checked by the degree count
    # sum_nu c^nu_{mu,lam} f_nu = binom(|mu|+|lam|, |mu|) f_mu f_lam.
    fixed_lr = [((3, 2, 1), (2, 2)), ((4, 2), (2, 1, 1))]
    for mu, lam in fixed_lr:
        queries.append(Query(f"lr:{_fmt(mu)}x{_fmt(lam)}", lambda mu=mu, lam=lam: sorted(
            [list(nu), c] for nu, c in fa.outer_product(mu, lam).terms.items())))
    queries.append(Query("cli:lr:3,3,1x2,2,1", lambda: _cli_ok(
        fa, ["lr", "--mu", "3,3,1", "--lam", "2,2,1", "--format", "json"])["terms"]))
    sizes = (3, 4) if tiny else (8, 9, 10)
    pools = {n: _partitions(n) for n in sizes}
    for j in range(4 if tiny else 160):
        mu = rng.choice(pools[rng.choice(sizes)])
        lam = rng.choice(pools[rng.choice(sizes)])
        queries.append(Query(f"lr-rand:{j}", lambda mu=mu, lam=lam: (mu, lam, fa.outer_product(mu, lam)),
                             lambda ans, fa=fa: _lr_degree_ok(fa, *ans)))

    # hs_eval at seed-drawn rational points: homogeneous of degree |lam|,
    # and equal to schur_dim at the all-ones point.
    hs_classes = [((2, 2), 8), ((3, 1), 8), ((2, 1), 10), ((1, 2), 9)]
    for j in range(2 if tiny else 10):
        for (k, l), n in hs_classes:
            if tiny:
                n = 4
            lam = rng.choice([p for p in _partitions(n) if _in_hook(p, k, l)])
            xs = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(k)]
            ys = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(l)]
            queries.append(Query(
                f"hs-rand:{k},{l}:{j}",
                lambda lam=lam, xs=xs, ys=ys: (
                    fa.hs_eval(lam, xs, ys),
                    fa.hs_eval(lam, [2 * x for x in xs], [2 * y for y in ys]),
                    fa.hs_eval(lam, [1] * len(xs), [1] * len(ys)),
                    fa.schur_dim(lam, len(xs), len(ys)),
                    sum(lam),
                ),
                lambda ans: ans[1] == ans[0] * 2 ** ans[4] and ans[2] == ans[3],
            ))
    rng.shuffle(queries)
    return queries


def _rounded(report: dict) -> list:
    # The slope is a float: compare it to 9 significant digits so libm
    # differences in the last bit do not read as wrong answers.
    slope = report["slope"]
    return [report["alpha"], None if slope is None else float(f"{slope:.9g}"), report["verdict"]]


def _lr_degree_ok(fa, mu, lam, expansion) -> bool:
    total = sum(c * fa.f_lambda(nu) for nu, c in expansion.terms.items())
    a, b = sum(mu), sum(lam)
    return (
        expansion.degree == a + b
        and all(c > 0 for c in expansion.terms.values())
        and total == math.comb(a + b, a) * fa.f_lambda(mu) * fa.f_lambda(lam)
    )


# -- oracle-decompose --------------------------------------------------------


def _oracle_decompose(fa, rng, tiny: bool, tmpdir: str) -> list[Query]:
    ambients = [(2, 0, 3), (1, 1, 3), (2, 1, 3)] if tiny else [(2, 0, 6), (1, 1, 6), (0, 2, 6), (2, 1, 5)]
    single = ((3, 1), (2, 0), 4) if tiny else ((5, 3), (2, 0), 8)
    blocks = [(lam, k, l, n) for k, l, n in ambients for lam in _partitions(n)]
    blocks.append((single[0], *single[1], single[2]))
    rng.shuffle(blocks)
    totals: dict = {}

    def block(lam, k, l, n):
        dim = fa.module_W(lam, fa.SuperBasis(k, l), n).dim
        totals[(k, l, n)] = totals.get((k, l, n), 0) + dim
        return dim, fa.w_dim(lam, k, l)

    queries = [
        Query(f"module_W:{_fmt(b[0])}@{b[1]},{b[2]}", lambda b=b: block(*b), lambda ans: ans[0] == ans[1])
        for b in blocks
    ]
    # Each decomposition must fill the whole degree slice: (k+l)^n.
    queries += [
        Query(f"total:{k},{l},{n}", lambda key=(k, l, n): totals.get(key),
              lambda ans, key=(k, l, n): ans == (key[0] + key[1]) ** key[2])
        for k, l, n in ambients
    ]
    return queries


# -- oracle-verdicts ---------------------------------------------------------


def _oracle_verdicts(fa, rng, tiny: bool, tmpdir: str) -> list[Query]:
    o = fa.oracle
    c = o.free_commutator(o.free_var(0), o.free_var(1))
    lie3 = o.multilinear_from_free(o.free_commutator(c, o.free_var(2)), 3)
    B20, B11 = fa.SuperBasis(2, 0), fa.SuperBasis(1, 1)
    if tiny:
        polys = {"popov5b": fa.popov5b(), "s4": fa.standard_poly(4), "commutators:2": fa.commutator_product(2)}
        kernel_dims = [4]
        ev_max = 4
        ideal_n = 3
    else:
        polys = {
            "popov5a": fa.popov5a(),
            "popov5b": fa.popov5b(),
            "s4": fa.standard_poly(4),
            "br-cube": fa.br_cube(),
            "commutators:3": fa.commutator_product(3),
            "br-cube*x7": o.multilinearize(o.free_mul(o.free_mul(o.free_mul(c, c), c), o.free_var(2))),
            "s7": fa.standard_poly(7),
        }
        kernel_dims = [5, 6]
        ev_max = 6
        ideal_n = 5

    queries = [Query(f"ee:{name}", lambda g=g: fa.is_identity_EE(g)) for name, g in polys.items()]
    queries += [Query(f"kernel:{d}", lambda d=d: fa.ee_identity_kernel_dim(d)) for d in kernel_dims]

    evals = [("comm", fa.commutator_product(1), [(1, 1)], (2, 0), n) for n in range(2, ev_max + 1)]
    evals += [("lie3", lie3, [(1, 1)], (1, 1), n) for n in range(3, ev_max + 1)]
    evals += [
        ("comm", fa.commutator_product(1), [(2, 2)], (2, 0), 2),
        ("lie3", lie3, [(2,)], (1, 1), 3),
    ]
    if not tiny:
        evals.append(("commutators:3", fa.commutator_product(3), [(2, 2)], (2, 0), 6))
    queries += [
        Query(f"identity:{name}:{_spec_id(gens, amb)}:{n}",
              lambda g=g, f=fa.Filter(gens, amb), b=fa.SuperBasis(*amb), n=n: fa.evaluate_identity(g, f, b, n))
        for name, g, gens, amb, n in evals
    ]

    # check_ideal: member sets of filters are ideals; these sets are not.
    for gens in ([(1, 1)], [(2,)], [(2, 1)], [(2, 2)]):
        for amb in ((2, 0), (1, 1)):
            members = _members_upto(gens, amb, ideal_n)
            queries.append(Query(f"ideal:{_spec_id(gens, amb)}:{ideal_n}",
                                 lambda m=members, b=fa.SuperBasis(*amb): fa.check_ideal(m, b, ideal_n)))
    for shapes, amb, n in (([(2,)], (2, 0), 3), ([(1, 1)], (1, 1), 3), ([(2, 1)], (2, 0), 4)):
        queries.append(Query(f"ideal:set{shapes}@{amb}:{n}".replace(" ", ""),
                             lambda s=shapes, b=fa.SuperBasis(*amb), n=n: fa.check_ideal(s, b, n)))

    sym_rel = [{(1, 2): 1, (2, 1): -1}]
    wedge_rel = [{(i, j): 1, (j, i): 1} for i in (1, 2) for j in (1, 2) if i <= j]
    for name, rel in (("sym", sym_rel), ("wedge", wedge_rel)):
        for n in range(2, ev_max + 1):
            queries.append(Query(f"generated:{name}:{n}", lambda r=rel, n=n: fa.generated_ideal(r, B20, n).dim))

    # check_annihilation on seed-drawn monomial tuples.  Both polynomials
    # are identities of the Grassmann square, and every tuple over (1,1)
    # in these size classes is annihilated on this code; s4 with four
    # distinct even letters is the fixed counterexample.
    s4, B40 = fa.standard_poly(4), fa.SuperBasis(4, 0)
    queries.append(Query("annihilation:s4@4,0",
                         lambda: fa.check_annihilation(s4, [(1,), (2,), (3,), (4,)], B40)))
    anni_g = fa.popov5b() if tiny else fa.br_cube()
    for j in range(4 if tiny else 24):
        tup = [(rng.choice((1, 2)),) for _ in range(anni_g.degree)]
        queries.append(Query(f"annihilation-rand:single:{j}",
                             lambda t=tup: fa.check_annihilation(anni_g, t, B11), lambda ans: ans is True))
    if not tiny:
        p5 = fa.popov5a()
        for j in range(12):
            tup = [(rng.choice((1, 2)),) for _ in range(5)]
            tup[rng.randrange(5)] = (rng.choice((1, 2)), rng.choice((1, 2)))
            queries.append(Query(f"annihilation-rand:mixed:{j}",
                                 lambda t=tup: fa.check_annihilation(p5, t, B11), lambda ans: ans is True))
    rng.shuffle(queries)
    return queries


_BUILDERS = {
    "formula-series": _formula_series,
    "oracle-decompose": _oracle_decompose,
    "oracle-verdicts": _oracle_verdicts,
}


def build(fa, workload: str, seed: int, size: str, tmpdir: str) -> list[Query]:
    """The query list of one workload pass, drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](fa, rng, size == "tiny", tmpdir)
