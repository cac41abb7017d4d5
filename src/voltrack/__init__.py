"""Quadratic tracking for linear systems with persistent memory.

Three independent synthesis routes for the same finite-horizon problem:
direct discretized quadratic minimization (:mod:`voltrack.qp`), the
costate integral-equation route (:mod:`voltrack.fredholm`), and the
memory-Riccati feedback synthesis (:mod:`voltrack.riccati`), all built
on the shared plant model and integrators in :mod:`voltrack.model`.
:mod:`voltrack.stateops` checks the operator form of the synthesis on
the finite-memory state space, and :mod:`voltrack.cli` is the batch
front end.
"""

from .errors import BlowUpError, ConfigurationError, SingularSystemError
from .fredholm import (
    CostateTrajectory,
    ResolventKernel,
    SynthesisKernels,
    TrackingKernel,
    apply_synthesis,
    build_forcing,
    build_kernel,
    costate_residual,
    optimal_control_fredholm,
    resolvent,
    resolvent_norms,
    solve_fredholm,
    synthesis_kernels,
)
from .model import (
    ControlSignal,
    FundamentalMatrix,
    InitialState,
    ReferenceSignal,
    StateTrajectory,
    SystemSpec,
    TimeGrid,
    cost,
    exponential_kernel,
    extend_state,
    fundamental_matrix,
    simulate,
    trapezoid_weights,
    voc_solution,
    zero_kernel,
)
from .qp import (
    DiscreteAffineMap,
    build_affine_map,
    gradient_check,
    qp_cost,
    qp_gradient,
    solve_qp,
)
from .riccati import (
    DIReport,
    RiccatiField,
    TrackingField,
    closed_loop,
    di_residual,
    feedback_control,
    solve_riccati,
    solve_tracking,
    value_function,
)
from .stateops import (
    StateElement,
    make_domain_element,
    riccati_operator,
    riccati_operator_residual,
    state_inner,
    state_operator,
    tracking_element,
    tracking_operator_residual,
)

__version__ = "0.1.0"
