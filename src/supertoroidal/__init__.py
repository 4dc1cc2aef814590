"""Exact vertex-operator-plus-boson model of the toroidal gl(M|N)
superalgebra, with a seeded verifier for every bracket relation.

All arithmetic is exact rational; every operator application on a state
is a finite computation with no truncation parameter.
"""

from types import ModuleType as _Module

from .lattice import LatticeConfig, LatticeVector, bilinear, cocycle, parity
from .fock_lattice import (
    LatticeFockState,
    effective_mode_bound,
    group_multiply,
    heisenberg_apply,
    normal_ordered_pair_sum,
    vanishing_bound,
    vertex_mode_apply,
    vertex_modes,
    vertex_product_sum,
)
from .fock_boson import BosonState, depth, phi_apply, phi_star_apply
from .superalgebra import (
    GLElement,
    Superalgebra,
    ToroidalElement,
    d_cocycle,
)
from .representation import (
    CentralImage,
    Current,
    DiagCurrent,
    NormalPairSum,
    OpProduct,
    OpSum,
    PhiMode,
    PhiStarMode,
    SOp,
    TensorState,
    VertexMode,
    VertexProductSum,
    apply,
    rho,
    s_mode_apply,
    super_commutator,
)
from .verifier import CheckConfig, gen_state, replay_counterexample, run

# The public names are the ones bound above; submodules are not among them.
__all__ = sorted(n for n, v in globals().items()
                 if not n.startswith("_") and not isinstance(v, _Module))

__version__ = "0.1.0"
