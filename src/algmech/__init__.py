"""Mechanics on skew-symmetric algebroids.

Connection computation from a bundle metric, geodesic and forced dynamics,
and the verification battery for kinematic reduction, decoupling sections and
Hamilton-Jacobi solutions of nonholonomic control systems.
"""

# Before the submodules: the report documents carry it.
__version__ = "0.1.0"

from .expr import (
    EvalError,
    Expr,
    ExprError,
    ParseError,
    fd_directional,
    fd_gradient,
    fd_partial,
    diff,
    parse,
    partial,
)
from .algebroid import (
    AlgebroidStructure,
    ChartDomain,
    Exclusion,
    OneForm,
    Section,
    Trajectory,
    anchor_apply,
    bracket,
    d_function,
    d_oneform,
    jacobiator,
    lie_closure_rank,
    span_rank,
    vector_field_bracket,
)
from .geometry import (
    BundleMetric,
    ChristoffelTensor,
    ForceField,
    Potential,
    SingularMetricError,
    christoffel,
    christoffel_field,
    covariant_derivative,
    covariant_derivative_along,
    flat,
    gradient,
    gradient_section,
    sharp,
    symmetric_product,
    symprod_via_lifts,
)
from .dynamics import (
    ControlSignal,
    TotalPoint,
    base_flow,
    energy,
    integrate,
    lift,
    spray_field,
)
from .reduction import (
    Projector,
    Subbundle,
    VerificationReport,
    geodesic_invariance_check,
    hj_residual,
    hj_trajectory_equivalence,
    is_decoupling,
    kinematic_reduction_check,
    maximal_reducibility_check,
    reparam_admissible,
    symmetric_closure,
)
from .systems import (
    BUILTINS,
    SpecError,
    SystemDefinition,
    builtin,
    dump_spec,
    euclidean,
    induced_algebroid,
    load_spec,
    load_spec_file,
    planar_body,
    robotic_leg,
    snakeboard,
    suslov,
)
from .report import christoffel_table, hj_algebraic_check, render_text, run_battery

