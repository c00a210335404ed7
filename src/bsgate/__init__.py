"""bsgate: branched-surface complexes, weight systems, and contact charts."""

from importlib import import_module as _import_module

from .errors import (
    BadMove,
    BsgateError,
    ChartError,
    InvalidLocus,
    InvariantViolation,
    MalformedSystem,
    NoConsistentRoles,
    ParseError,
    PreconditionFailed,
    WeightsNotSatisfying,
)

__version__ = "0.1.0"

# every public name but the errors, by the layer that defines it; each is
# served from there on first use (PEP 562), so importing bsgate loads no
# layer, and a command loads only the layers it runs (numpy comes with
# charts alone)
_LAYER_NAMES = {
    "surface": (
        "BoundaryWord", "BranchSegment", "BranchedSurfaceComplex",
        "DoublePoint", "FreeItem", "RoleAssignment", "Sector", "SegItem",
        "SegmentEnd", "derive_roles", "validate",
    ),
    "parser": ("parse_complex", "parse_weights", "print_complex"),
    "weights": (
        "CONCLUSION", "ISC", "NEG_TISC", "POS_TISC", "brute_force",
        "build_system", "criterion", "feasible", "verify_certificate",
    ),
    "assembly": ("assemble",),
    "splitting": (
        "SplitLocus", "all_loci", "good_loci", "is_bad_move",
        "pushforward_weights", "run_plan", "safe_split", "split",
    ),
    "charts": (
        "ChartReport", "SlopeGrid", "check_box", "check_cylinder",
        "contact_oracle_box", "extend_cell", "holonomy_map", "parse_grid",
        "print_grid", "purify_box", "purify_cylinder", "sample_annulus",
        "sample_box", "sample_cylinder",
    ),
}
_HOME = {name: layer for layer, names in _LAYER_NAMES.items()
         for name in names}
# the layers served as bsgate.<layer> even before anything imports them
_MODULES = ("assembly", "parser", "simplex", "splitting", "surface",
            "weights")


def __getattr__(name: str):
    if name in _HOME:
        return getattr(_import_module(f".{_HOME[name]}", __name__), name)
    if name in _MODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_MODULES))


__all__ = [
    "BadMove",
    "BsgateError",
    "ChartError",
    "InvalidLocus",
    "InvariantViolation",
    "MalformedSystem",
    "NoConsistentRoles",
    "ParseError",
    "PreconditionFailed",
    "WeightsNotSatisfying",
    *_HOME,
    "__version__",
]
