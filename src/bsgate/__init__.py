"""bsgate: branched-surface complexes, weight systems, and contact charts."""

from .errors import (
    AmbiguousRoles,
    BadMove,
    BsgateError,
    ChartError,
    InvalidLocus,
    InvariantViolation,
    MalformedSystem,
    NoConsistentRoles,
    ParseError,
    PreconditionFailed,
    TracingInconsistency,
    WeightsNotSatisfying,
)
from .surface import (
    BoundaryWord,
    BranchSegment,
    BranchedSurfaceComplex,
    DoublePoint,
    FreeItem,
    RoleAssignment,
    Sector,
    SegItem,
    SegmentEnd,
    derive_roles,
    validate,
)
from .parser import parse_complex, parse_weights, print_complex, print_weights
from .weights import (
    CONCLUSION,
    ISC,
    NEG_TISC,
    POS_TISC,
    brute_force,
    build_system,
    criterion,
    feasible,
    verify_certificate,
)
from .assembly import assemble
from .splitting import (
    SplitLocus,
    all_loci,
    good_loci,
    is_bad_move,
    pushforward_weights,
    run_plan,
    run_schedule,
    safe_split,
    split,
)

__version__ = "0.1.0"

# the chart layer needs numpy, which the exact layers never do: its names
# are served on first use (PEP 562), so importing bsgate leaves numpy out
_CHART_NAMES = (
    "ChartReport", "SlopeGrid", "check_box", "check_cylinder",
    "contact_oracle_box", "extend_cell", "holonomy_map", "parse_grid",
    "print_grid", "purify_box", "purify_cylinder", "sample_annulus",
    "sample_box", "sample_cylinder",
)


def __getattr__(name: str):
    if name in _CHART_NAMES:
        from . import charts
        return getattr(charts, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_CHART_NAMES))

__all__ = [
    "AmbiguousRoles",
    "BadMove",
    "BoundaryWord",
    "BranchSegment",
    "BranchedSurfaceComplex",
    "BsgateError",
    "CONCLUSION",
    "ChartError",
    "ChartReport",
    "DoublePoint",
    "FreeItem",
    "InvalidLocus",
    "InvariantViolation",
    "MalformedSystem",
    "NoConsistentRoles",
    "ParseError",
    "PreconditionFailed",
    "RoleAssignment",
    "Sector",
    "SegItem",
    "SegmentEnd",
    "SlopeGrid",
    "SplitLocus",
    "TracingInconsistency",
    "WeightsNotSatisfying",
    "ISC",
    "NEG_TISC",
    "POS_TISC",
    "all_loci",
    "assemble",
    "brute_force",
    "build_system",
    "check_box",
    "check_cylinder",
    "contact_oracle_box",
    "criterion",
    "derive_roles",
    "extend_cell",
    "feasible",
    "good_loci",
    "holonomy_map",
    "is_bad_move",
    "parse_complex",
    "parse_grid",
    "parse_weights",
    "print_complex",
    "print_grid",
    "print_weights",
    "purify_box",
    "purify_cylinder",
    "pushforward_weights",
    "sample_annulus",
    "sample_box",
    "sample_cylinder",
    "run_plan",
    "run_schedule",
    "safe_split",
    "split",
    "validate",
    "verify_certificate",
    "__version__",
]
