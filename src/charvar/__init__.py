"""charvar: executable character-variety toolkit.

Deformation retractions from SL(n,C)-representation tuples to SU(n) ones,
Kempf-Ness Newton flow, exact trace-coordinate maps and their inverses for
low-rank free-group character varieties, and semi-algebraic membership tests
for the images.

``import charvar`` loads no submodule: each name below imports its home
module the first time it is read (PEP 562), so a CLI command compiles only
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Every public name, keyed by its home module.
_EXPORTS = {
    "linalg": (
        "DEFAULT_TOL",
        "NotHermitian",
        "NotPositive",
        "PolarParts",
        "Singular",
        "exp_herm",
        "haar_su",
        "herm_eig",
        "polar",
        "psd_power",
        "unitary_eig",
    ),
    "groups": (
        "DimensionMismatch",
        "GroupDescriptor",
        "NotInGroup",
        "Quaternion",
        "RepTuple",
        "cartan",
        "conjugate_tuple",
        "from_quaternion",
        "in_group",
        "sample_tuple",
        "sl",
        "su",
        "to_quaternion",
        "tuple_from_json",
        "tuple_to_json",
        "validate",
    ),
    "retraction": ("NotDiagonal", "RetractionPath", "abelian_retract", "phi", "retract_tuple", "retraction_path"),
    "invariants": (
        "ComplexInput",
        "MinorsRecord",
        "PQRecord",
        "RSTInvariants",
        "SU2Rank2Coords",
        "SU2Rank3Coords",
        "SU3Rank2Traces",
        "UCoords",
        "Word",
        "fricke_check",
        "invariant_record",
        "pq",
        "relation_residual",
        "rst",
        "su2_rank2_coords",
        "su2_rank3_coords",
        "su3_minors",
        "su3_traces",
        "trace_word",
        "transpose_tuple",
        "u_coords",
    ),
    "semialgebraic": (
        "AlcovePoint",
        "RegionVerdict",
        "UnknownRegion",
        "alcove_lambda",
        "classify_B",
        "in_S_plus",
        "in_su2_rank2_image",
        "in_su2_rank3_image",
        "product_condition",
        "region_grid",
        "sigma",
        "su3_alcove_check",
        "su3_delta",
        "tetrahedron_check",
        "theta",
    ),
    "reconstruct": (
        "DegenerateSpectrum",
        "LiftResult",
        "NotInImage",
        "su2_rank2_lift",
        "su2_rank3_lift",
        "unitary_conjugacy",
    ),
    "kempfness": (
        "CompositeResult",
        "FlowTrace",
        "MomentResidual",
        "composite_retraction",
        "kn_flow",
        "kn_functional",
        "moment_residual",
        "orbit_closed",
    ),
    "poincare": ("IntPolynomial", "NonPolynomial", "baird_poly", "surface_counterexample_polys"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
