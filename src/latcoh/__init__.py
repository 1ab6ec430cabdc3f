"""Analytic lattice cohomology of curve singularities.

The one-branch pipeline runs semigroup -> weight sequence -> tower module
(read off the walk by ``module_from_weight``, or through the graded root)
and back: the module alone determines the semigroup, and
``reconstruct_semigroup`` performs that inversion.  The multibranch pipeline
computes Hilbert grids of parametrized curves, their weight functions,
sublevel cubical complexes, and the full graded cohomology with its
Euler-characteristic/delta comparison.
"""
from .errors import InputError, LatcohError, ValidationError
from .graded import (
    GradedRoot,
    SweepReport,
    TowerModule,
    conjecture_sweep,
    module_from_root,
    module_from_weight,
    root_from_weight,
    roots_isomorphic,
)
from .multibranch import (
    BranchParametrization,
    EulerDeltaReport,
    LatticeCohomology,
    QCohomology,
    SeriesData,
    WeightGrid,
    cohomology,
    euler_delta_check,
    hilbert_from_parametrization,
    lattice_cohomology,
    make_parametrization,
    root_from_grid,
    series,
    sublevel_complex,
    weight_grid_extend,
)
from .reconstruct import (
    InitialPart,
    compute_e,
    detect_lg1_equals_2,
    initial_part,
    multiplicity_from_module,
    reconstruct_semigroup,
)
from .semigroup import (
    CofiniteSet,
    GcdChain,
    NumericalSemigroup,
    enumerate_plane_branch_semigroups,
    from_generators,
    from_members,
    gcd_chain,
    is_plane_branch,
)
from .weight1d import (
    WeightSequence,
    check_gorenstein_symmetry,
    min_w0,
    weight_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "BranchParametrization",
    "CofiniteSet",
    "EulerDeltaReport",
    "GcdChain",
    "GradedRoot",
    "InitialPart",
    "InputError",
    "LatcohError",
    "LatticeCohomology",
    "NumericalSemigroup",
    "QCohomology",
    "SeriesData",
    "SweepReport",
    "TowerModule",
    "ValidationError",
    "WeightGrid",
    "WeightSequence",
    "check_gorenstein_symmetry",
    "cohomology",
    "compute_e",
    "conjecture_sweep",
    "detect_lg1_equals_2",
    "enumerate_plane_branch_semigroups",
    "euler_delta_check",
    "from_generators",
    "from_members",
    "gcd_chain",
    "hilbert_from_parametrization",
    "initial_part",
    "is_plane_branch",
    "lattice_cohomology",
    "make_parametrization",
    "min_w0",
    "module_from_root",
    "module_from_weight",
    "multiplicity_from_module",
    "reconstruct_semigroup",
    "root_from_grid",
    "root_from_weight",
    "roots_isomorphic",
    "series",
    "sublevel_complex",
    "weight_grid_extend",
    "weight_sequence",
    "__version__",
]
