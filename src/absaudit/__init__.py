"""absaudit: audit and classify abstraction maps between causal models.

The package models finite structural causal models with explicit exogenous
distributions, builds the free category over their graphs, represents
two-layer abstraction maps (nodes/morphisms plus outcome matrices), audits
them against a catalog of structural and distributional properties, and
classifies them against a taxonomy of abstraction types whose canonical
witnesses reproduce the shipped admissibility tables.

`audit`, `taxonomy` and `dot` are registered in `sys.modules` at import but
run on first attribute access, so a command that does not use them does not
pay for them.  A name of `__all__` that is not imported below is looked up
in `audit`, then in `taxonomy`, on first use, which runs that module.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from .abstraction import (
    GLOBAL,
    Abstraction,
    Direction,
    OutcomeMap,
    StructuralMap,
    preimage,
    pushforward,
    validate_abstraction,
)
from .errors import (
    AbsauditError,
    CapacityError,
    KernelUndefinedError,
    ModelError,
    ParseError,
    RenormalizationRequiredError,
    TOL,
)
from .freecat import hom_set, path_counts
from .scm import (
    Dag,
    Distribution,
    Exogenous,
    Kernel,
    Scm,
    ValidationReport,
    Variable,
    intervene,
    joint_distribution,
    marginal,
    mechanism_kernel,
    topological_order,
    underlying_graph,
    validate_scm,
)
from .textfmt import Document, emit_document, parse_document, parse_path


def _lazy(name: str):
    """The submodule `name`, in `sys.modules` with its body not yet run."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


audit = _lazy("audit")
dot = _lazy("dot")
taxonomy = _lazy("taxonomy")


def __getattr__(name: str):
    """A name of `__all__` not imported above: from `audit`, else from `taxonomy`."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(audit if hasattr(audit, name) else taxonomy, name)


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "1.0.0"

__all__ = [
    "TOL",
    "GLOBAL",
    "Abstraction",
    "AbsauditError",
    "Admissibility",
    "CapacityError",
    "Dag",
    "Direction",
    "Distribution",
    "DistributionalType",
    "Document",
    "Exogenous",
    "Kernel",
    "KernelUndefinedError",
    "ModelError",
    "OutcomeMap",
    "ParseError",
    "PropertyMatrix",
    "PropertyProfile",
    "RenormalizationRequiredError",
    "Scm",
    "StructuralMap",
    "StructuralType",
    "ValidationReport",
    "Variable",
    "audit_abstraction",
    "audit_functor",
    "audit_node_map",
    "audit_outcome_map",
    "canonical_witness",
    "detect_types",
    "distributional_matrix",
    "emit_document",
    "hom_set",
    "intervene",
    "joint_distribution",
    "marginal",
    "mechanism_kernel",
    "parse_document",
    "parse_path",
    "path_counts",
    "preimage",
    "pushforward",
    "shipped_table",
    "structural_matrix",
    "topological_order",
    "tri_and",
    "underlying_graph",
    "validate_abstraction",
    "validate_scm",
]
