import os
import subprocess
import sys
from types import ModuleType

import pytest

import filteralg
from filteralg import (
    Filter,
    LRExpansion,
    SuperBasis,
    outer_product,
    series,
    verify_growth,
)

# Every name ``import filteralg`` offers besides its submodules.  Adding
# one is a decision about the package's surface, so it goes here too.
PUBLIC_NAMES = {
    "CapExceeded",
    "DimensionSeries",
    "Filter",
    "GrowthReport",
    "LRExpansion",
    "MultilinearPoly",
    "Partition",
    "SuperBasis",
    "br_cube",
    "check_annihilation",
    "check_ideal",
    "check_partition",
    "classical_identity_degree",
    "commutator_product",
    "conjugate",
    "contains",
    "dim_quotient",
    "display_partition",
    "ee_identity_kernel_dim",
    "enumerate_partitions",
    "evaluate_identity",
    "f_lambda",
    "format_partition",
    "generated_ideal",
    "hook_rectangle",
    "hs_eval",
    "ideal_subspace",
    "in_hook",
    "is_identity_EE",
    "lr_coefficient",
    "module_W",
    "multilinear_from_free",
    "multilinearize",
    "named_poly",
    "outer_product",
    "parse_partition",
    "popov5a",
    "popov5b",
    "s3_cubed",
    "schur_dim",
    "series",
    "standard_poly",
    "standard_tableau",
    "verify_growth",
    "w_dim",
}

# Test references (now in tests/reference.py), deleted wrappers and caps,
# by the module that used to define them.
GONE = {
    "partitions": ["c_stat"],
    "lr": ["count_lr_tableaux"],
    "dims": [
        "DimensionRecord",
        "dimension_record",
        "f_lambda_by_recursion",
        "iter_super_tableaux",
        "schur_dim_by_enumeration",
    ],
    "oracle": [
        "DEGREE_CAP",
        "compose",
        "full_symmetrizer",
        "sign_symmetrizer",
        "tableau_symmetrizer",
    ],
}


def test_public_names_are_pinned():
    public = {
        name
        for name, value in vars(filteralg).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == PUBLIC_NAMES
    for module, names in GONE.items():
        for name in names:
            assert not hasattr(filteralg, name), name
            assert not hasattr(getattr(filteralg, module), name), (module, name)


# Loaded by ``dataclasses`` and by nothing else a command needs; every
# command and benchmark child pays for them on a cold import.
INTROSPECTION_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")

# Prints the modules ``import filteralg, filteralg.cli`` loads.
IMPORT_PROBE = (
    "import sys; before = set(sys.modules); import filteralg, filteralg.cli; "
    "print(' '.join(sorted(set(sys.modules) - before)))"
)


def test_import_loads_no_introspection_modules():
    src = os.path.dirname(os.path.dirname(os.path.abspath(filteralg.__file__)))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    loaded = set(out.stdout.split())
    assert {"filteralg", "filteralg.cli"} <= loaded
    assert loaded.isdisjoint(INTROSPECTION_MODULES), sorted(
        loaded.intersection(INTROSPECTION_MODULES)
    )


# The five value types are named tuples: one instance of each, built
# twice, with the repr the earlier dataclasses printed.
def _records():
    quadratic = Filter([(1, 1)], (2, 0))
    return [
        (
            lambda: Filter([(3,), (2, 1)], (1, 1)),
            "Filter(generators=((3,), (2, 1)), ambient=(1, 1))",
        ),
        (lambda: SuperBasis(2, 1), "SuperBasis(k=2, l=1)"),
        (
            lambda: outer_product((1,), (1,)),
            "LRExpansion(terms={(2,): 1, (1, 1): 1}, degree=2)",
        ),
        (
            lambda: series(quadratic, 3),
            "DimensionSeries(filter=Filter(generators=((1, 1),), ambient=(2, 0)),"
            " k=2, l=0, values=(1, 2, 3, 4))",
        ),
        (
            lambda: verify_growth(quadratic, 10),
            "GrowthReport(alpha=1, slope=0.23978952727983707, passed=True,"
            " n_max=10, d_last=11)",
        ),
    ]


RECORDS = pytest.mark.parametrize(
    "build, text", [pytest.param(*r, id=r[1].split("(")[0]) for r in _records()]
)


@RECORDS
def test_record_repr(build, text):
    assert repr(build()) == text


@RECORDS
def test_record_is_immutable(build, text):
    record = build()
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


@RECORDS
def test_record_equal_and_hashed_by_value(build, text):
    a, b = build(), build()
    assert a == b and a is not b
    assert a == tuple(getattr(a, name) for name in a._fields)
    if isinstance(a, LRExpansion):
        # Its terms are a dict, so it has no hash, as before.
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_replace_builds_through_the_constructor():
    f = Filter([(2,)], (1, 1))
    assert f._replace(generators=[[3], (2, 1), (2, 2)]) == Filter([(3,), (2, 1)], (1, 1))
    assert f._replace(ambient=[2, 0]) == Filter([(2,)], (2, 0))
    assert f._replace(ambient=(2, 0)).generators == ((2,), (1, 1, 1))
    assert Filter._make([[(1,), (1, 1)], None]) == Filter([(1,)])
    for bad in [dict(generators=[(1, 2)]), dict(ambient=(1,)), dict(ambient=(-1, 0))]:
        with pytest.raises(ValueError) as replaced:
            f._replace(**bad)
        with pytest.raises(ValueError) as built:
            Filter(**{**f._asdict(), **bad})
        assert str(replaced.value) == str(built.value)
    b = SuperBasis(1, 1)
    assert b._replace(l=2) == SuperBasis(1, 2)
    assert SuperBasis._make((2, 0)).dim == 2
    for bad in [dict(k=-1), dict(l=1.5), dict(k=True)]:
        with pytest.raises(ValueError) as replaced:
            b._replace(**bad)
        with pytest.raises(ValueError) as built:
            SuperBasis(**{**b._asdict(), **bad})
        assert str(replaced.value) == str(built.value)
