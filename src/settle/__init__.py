"""Extremal settlement configurations on a grid.

A house is blocked when its east, south, and west neighbors are all
occupied; permissible configurations have no blocked house, and maximal
ones additionally admit no further house.  The package provides the grid
model, named periodic patterns with closed-form occupancies, analytic
bounds, exact extremal solvers with an independent brute-force oracle,
integer-program export, and a command-line interface.
"""
from .bounds import (
    AuditCheck,
    BoundsReport,
    audit_passed,
    audit_structural_lemmas,
    bounds_report,
    crude_bounds,
    e_upper_block,
    i_lower_bound,
    r_recurrence,
    row_above_cap,
    seeded_recurrence,
)
from .errors import LimitError, ParseError, SettleError
from .formats import RenderStyle, parse_grid, render, render_json, to_json_dict
from .grid import Boundary, Configuration, Dims, Prop
from .modelgen import (
    Constraint,
    IpModel,
    enumerate_model_optimum,
    export_efficient,
    export_inefficient,
    to_lp,
)
from .patterns import (
    PatternKind,
    Segment,
    SegmentKind,
    brick_comb_best,
    generate_pattern,
    pattern_occupancy,
)
from .solvers import (
    Limits,
    Objective,
    SolveRequest,
    SolveResult,
    brute_force,
    solve,
    solve_max,
    solve_min_maximal,
    table,
)

__version__ = "0.1.0"

__all__ = [
    "AuditCheck",
    "Boundary",
    "BoundsReport",
    "Configuration",
    "Constraint",
    "Dims",
    "IpModel",
    "LimitError",
    "Limits",
    "Objective",
    "ParseError",
    "PatternKind",
    "Prop",
    "RenderStyle",
    "Segment",
    "SegmentKind",
    "SettleError",
    "SolveRequest",
    "SolveResult",
    "audit_passed",
    "audit_structural_lemmas",
    "bounds_report",
    "brick_comb_best",
    "brute_force",
    "crude_bounds",
    "e_upper_block",
    "enumerate_model_optimum",
    "export_efficient",
    "export_inefficient",
    "generate_pattern",
    "i_lower_bound",
    "parse_grid",
    "pattern_occupancy",
    "r_recurrence",
    "render",
    "render_json",
    "row_above_cap",
    "seeded_recurrence",
    "solve",
    "solve_max",
    "solve_min_maximal",
    "table",
    "to_json_dict",
    "to_lp",
    "__version__",
]
