"""Exact computer algebra for meromorphic open-string vertex algebras.

Truncated algebra and module instances over exact rationals, the opposite /
transport / contragredient constructions, and axiom checkers that verify
vacuum, derivative, grading, Mobius and weak-associativity identities as
exact coefficient matches on certified windows.
"""

from .checks import (audit_pole_order, check_contragredient, check_derivative,
                     check_grading, check_mobius, check_region_consistency,
                     check_vacuum, check_weak_associativity, run_suite)
from .constructions import (OppositeWitness, contragredient_module,
                            opposite_mosva, opposite_vertex_components,
                            transport_module)
from .correlators import (CorrelationSeries, PoleOrderWitness, correlate,
                          estimate_pole_orders, reconstruct_rational)
from .document import deserialize, from_document, load, save, serialize, to_document
from .errors import SchemaError, WindowError
from .expansion import ExpandedSeries, RationalFn, Region, expand_rational
from .factory import (build_heisenberg, build_matrix_mosva, matrix_units_mosva,
                      self_module, with_scaled_entry)
from .graded import (DualVec, GradedOp, GradedSpace, Vec, basis_dual, basis_vec,
                     dual_space, exp_op_series, pair, transpose_op)
from .laurent import LaurentPoly, taylor_shift
from .report import Report
from .scalars import Scalar, format_scalar, parse_scalar
from .vertex import (AlgebraInstance, ModuleInstance, VertexMap, mode_apply,
                     validate_instance, vertex_series)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
