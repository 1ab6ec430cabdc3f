"""Multibranch curve singularities: Hilbert grids, weights, cohomology.

The one-variable machinery in :mod:`latcoh.weight1d` and :mod:`latcoh.graded`
covers irreducible branches.  This subpackage handles curves with several
branches: exact Hilbert-function grids computed from parametrizations,
the multivariable weight function, sublevel cube complexes, and the graded
cohomology modules they carry.
"""
from .complexes import (
    EulerDeltaReport,
    LatticeCohomology,
    QCohomology,
    cohomology,
    euler_delta_check,
    lattice_cohomology,
    root_from_grid,
    sublevel_complex,
)
from .hilbert import (
    SeriesData,
    WeightGrid,
    hilbert_from_parametrization,
    series,
    weight_grid_extend,
)
from .parametrization import BranchParametrization, make_parametrization

__all__ = [
    "BranchParametrization",
    "make_parametrization",
    "WeightGrid",
    "SeriesData",
    "hilbert_from_parametrization",
    "weight_grid_extend",
    "series",
    "sublevel_complex",
    "cohomology",
    "root_from_grid",
    "lattice_cohomology",
    "LatticeCohomology",
    "QCohomology",
    "euler_delta_check",
    "EulerDeltaReport",
]
