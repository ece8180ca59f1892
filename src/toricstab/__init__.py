"""toricstab: executable combinatorics of fans, non-resultant systems, and
their stability dimensions.

The public names resolve lazily (PEP 562): ``import toricstab`` loads no
submodule, and the first access to a name imports the module that defines
it, so a ``toricctl`` call loads only the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

# exported name -> (defining module, attribute there)
_EXPORTS = {
    **{name: ("complexes", name) for name in (
        "CapExceededError", "JsonPointerError", "PointInProduct", "SimplicialComplex",
        "UndefinedValueError", "UnsupportedFanError", "complex_power", "dim_arrangement",
        "dim_config", "in_arrangement", "in_polyhedral_product", "minimal_non_faces",
        "primitive_collections", "r_min", "underlying_complex",
    )},
    **{name: ("fans", name) for name in (
        "Fan", "FanJsonError", "FanStructureError", "ValidationReport", "builtin_fan",
        "cox_group_rank", "degree_is_null", "fan_from_complex", "fan_from_json",
        "fan_from_max_cones", "fan_power", "fan_to_json", "find_degree_vector", "is_complete",
        "is_simplicial", "is_smooth", "load_fan", "primitive_ray", "spans_lattice",
        "validate_fan",
    )},
    "exact_rank": ("exactla", "rank"),
    **{name: ("hermite", name) for name in (
        "HermiteSpec", "RankCheck", "bundle_rank", "confluent_vandermonde",
        "hermite_dimension", "hermite_solution", "stacked_system", "verify_rank_claim",
    )},
    **{name: ("polynomials", name) for name in (
        "GaussianRational", "JetTuple", "MembershipResult", "PolySystem", "RationalPoly",
        "RootPoly", "derivative", "evaluate_jet", "gcd_monic", "is_member", "jet",
        "jet_section", "mult_part", "n_of", "phi_map", "stabilize", "system_from_json",
        "system_to_json",
    )},
    **{name: ("stability", name) for name in (
        "BandResult", "E1Support", "StabilityReport", "connectivity_bound", "e1_support",
        "min_unknown_band", "stability_dim", "stability_dim_n1", "stability_dim_projective",
        "stability_report", "truncation_dim",
    )},
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
