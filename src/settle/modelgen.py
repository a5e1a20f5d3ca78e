"""Integer-program generation and LP-format export.

Two 0/1 models over house variables x_i_j, both at the free boundary: the
efficient model maximizes occupancy subject to one no-blocked-house
constraint per interior-capable cell; the inefficient model minimizes
occupancy over maximal configurations, with an auxiliary binary per
applicable proposition and a covering constraint per cell (plus the same
no-blocked-house constraints so its feasible set is exactly the maximal
configurations).  Every constraint is read from the rule table in rows.py
(BLOCKED and PROPS), cell by cell: a rule with a cell outside the grid is
identically false on the free border and is omitted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LimitError
from .rows import BLOCKED, PROPS, Rule


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[int, str], ...]  # (coefficient, variable)
    op: str  # "<=" or ">="
    rhs: int


@dataclass(frozen=True)
class IpModel:
    sense: str  # "Maximize" or "Minimize"
    objective: tuple[str, ...]  # unit-coefficient variables
    constraints: tuple[Constraint, ...]
    binaries: tuple[str, ...]


def _x(i: int, j: int) -> str:
    return f"x_{i}_{j}"


# One cap on the cells bounds both exports: at 100x100 the inefficient one
# traced an 84 MiB peak through to_lp (8.5-8.8 KB a cell from 50x50 on), far
# below Limits().max_state_bytes, and took 1.7 s via the CLI on 2 cores.
MAX_CELLS = 10_000


def _check_dims(m: int, n: int):
    if m < 1 or n < 1:
        raise ValueError(f"grid dimensions must be at least 1x1, got {m}x{n}")
    if m * n > MAX_CELLS:
        raise LimitError(f"{m}x{n} has {m * n} cells; the IP export takes at most {MAX_CELLS}")


def _houses(rule: Rule, m: int, n: int, i: int, j: int) -> list[str] | None:
    """The house variables of rule at (i, j), in the table's order; None if a
    cell lies off the grid, where the free border's empty lot falsifies it."""
    cells = [(i + a, j + b) for a, b in rule.cells]
    if all(1 <= a <= m and 1 <= b <= n for a, b in cells):
        return [_x(a, b) for a, b in cells]
    return None


def _cells(m: int, n: int):
    return ((i, j) for i in range(1, m + 1) for j in range(1, n + 1))


def _blocked_constraints(m: int, n: int) -> list[Constraint]:
    """No blocked house: one constraint per cell where the rule can hold."""
    return [Constraint(f"blk_{i}_{j}", tuple((1, x) for x in houses), "<=", len(houses) - 1)
            for i, j in _cells(m, n) if (houses := _houses(BLOCKED, m, n, i, j))]


def export_efficient(m: int, n: int) -> IpModel:
    """Model whose optimum is the maximum permissible occupancy."""
    _check_dims(m, n)
    xs = tuple(_x(i, j) for i, j in _cells(m, n))
    return IpModel("Maximize", xs, tuple(_blocked_constraints(m, n)), xs)


def export_inefficient(m: int, n: int) -> IpModel:
    """Model whose optimum is the minimum maximal occupancy."""
    _check_dims(m, n)
    xs = tuple(_x(i, j) for i, j in _cells(m, n))
    constraints = _blocked_constraints(m, n)
    aux_names: list[str] = []
    covers: list[Constraint] = []
    for i, j in _cells(m, n):
        cover_terms: list[tuple[int, str]] = [(1, _x(i, j))]
        for prop, rule in PROPS.items():
            if houses := _houses(rule, m, n, i, j):
                name = f"p{prop.name[0]}_{i}_{j}"
                aux_names.append(name)
                for k, house in enumerate(houses, start=1):
                    constraints.append(Constraint(
                        f"{name}_{k}", ((1, name), (-1, house)), "<=", 0))
                cover_terms.append((1, name))
        covers.append(Constraint(f"cover_{i}_{j}", tuple(cover_terms), ">=", 1))
    constraints.extend(covers)
    return IpModel("Minimize", xs, tuple(constraints), xs + tuple(aux_names))


def _wrap(tokens: list[str], indent: str = " ", width: int = 70) -> list[str]:
    lines: list[str] = []
    cur = ""
    for tok in tokens:
        joined = tok if not cur else f"{cur} {tok}"
        if cur and len(indent) + len(joined) > width:
            lines.append(indent + cur)
            cur = tok
        else:
            cur = joined
    if cur:
        lines.append(indent + cur)
    return lines


def _expr_tokens(terms: tuple[tuple[int, str], ...]) -> list[str]:
    tokens: list[str] = []
    for idx, (coef, var) in enumerate(terms):
        if idx == 0:
            tokens.append(var if coef > 0 else f"- {var}")
        else:
            tokens.append(f"+ {var}" if coef > 0 else f"- {var}")
    return tokens


def to_lp(model: IpModel) -> str:
    """Serialize deterministically in CPLEX LP format."""
    lines = [model.sense]
    lines.extend(_wrap(["obj:"] + _expr_tokens(tuple((1, v) for v in model.objective)), indent=" "))
    lines.append("Subject To")
    for con in model.constraints:
        tokens = [f"{con.name}:"] + _expr_tokens(con.terms) + [con.op, str(con.rhs)]
        lines.extend(_wrap(tokens, indent=" "))
    lines.append("Binaries")
    lines.extend(_wrap(list(model.binaries), indent=" "))
    lines.append("End")
    return "\n".join(lines) + "\n"


def model_feasible(model: IpModel) -> np.ndarray:
    """Whether model holds at each assignment of its objective variables.

    Entry k of the bool array gives the i-th objective variable bit i of k.
    Auxiliary binaries (those outside the objective) must be constrained only
    by pair constraints aux - x <= 0 plus nonnegative appearances in >=
    covers, as produced by export_inefficient; each is set to the largest
    value its pair constraints allow, which is optimal for such covers.
    """
    decision = list(model.objective)
    if len(decision) > 22:
        raise ValueError(f"too many decision variables to enumerate: {len(decision)}")
    index = {v: k for k, v in enumerate(decision)}
    total = 1 << len(decision)
    configs = np.arange(total, dtype=np.int64)
    value = {v: ((configs >> k) & 1).astype(np.int8) for v, k in index.items()}

    bounds: dict[str, list[str]] = {}
    rest: list[Constraint] = []
    for con in model.constraints:
        if (
            len(con.terms) == 2
            and con.op == "<="
            and con.rhs == 0
            and con.terms[0][0] == 1
            and con.terms[1][0] == -1
            and con.terms[0][1] not in index
        ):
            bounds.setdefault(con.terms[0][1], []).append(con.terms[1][1])
        else:
            rest.append(con)
    for aux, houses in bounds.items():
        v = value[houses[0]].copy()
        for house in houses[1:]:
            v &= value[house]
        value[aux] = v

    feasible = np.ones(total, dtype=bool)
    for con in rest:
        lhs = np.zeros(total, dtype=np.int32)
        for coef, var in con.terms:
            lhs += coef * value[var]
        feasible &= (lhs <= con.rhs) if con.op == "<=" else (lhs >= con.rhs)
    return feasible


def enumerate_model_optimum(model: IpModel) -> int:
    """Optimum of a small model by enumeration (model_feasible)."""
    feasible = model_feasible(model)
    if not feasible.any():
        raise ValueError("model is infeasible")
    score = np.bitwise_count(np.arange(len(feasible), dtype=np.uint64)).astype(np.int64)
    score = np.where(feasible, score, -1 if model.sense == "Maximize" else 1 << 30)
    best = score.max() if model.sense == "Maximize" else score.min()
    return int(best)
