"""Quadratic tracking for linear systems with persistent memory.

Three independent synthesis routes for the same finite-horizon problem:
direct discretized quadratic minimization (:mod:`voltrack.qp`), the
costate integral-equation route (:mod:`voltrack.fredholm`), and the
memory-Riccati feedback synthesis (:mod:`voltrack.riccati`), all built
on the shared plant model and integrators in :mod:`voltrack.model`.
:mod:`voltrack.stateops` checks the operator form of the synthesis on
the finite-memory state space, and :mod:`voltrack.cli` is the batch
front end.  The public API is the ``__all__`` of every module but
:mod:`voltrack.cli`; the package re-exports each of them.
"""

from .errors import *
from .fredholm import *
from .model import *
from .qp import *
from .riccati import *
from .stateops import *

__version__ = "0.1.0"
