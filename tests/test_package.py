from types import ModuleType

import filteralg

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
