"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch (failed --expect, golden
divergence, oracle disagreement), 2 bad input or resource caps.  The
SETTLE_MAX_COLS environment variable overrides both solver column caps.
All JSON payloads carry {"schema": "1"}.
"""
from __future__ import annotations

import functools
import json
import os
import sys

import click

from .bounds import bounds_report
from .errors import SettleError
from .formats import RenderStyle, parse_grid, render, to_json_dict
from .grid import Boundary, Configuration, Dims
from .modelgen import export_efficient, export_inefficient, to_lp
from .patterns import PatternKind, brick_comb_best, generate_pattern
from .solvers import Limits, Objective, SolveRequest, brute_force, solve
from .solvers import table as solve_table

_PATTERN_CHOICES = [k.value for k in PatternKind] + ["brick-comb"]


def _limits() -> Limits:
    cap = os.environ.get("SETTLE_MAX_COLS")
    if cap is None:
        return Limits()
    try:
        v = int(cap)
    except ValueError:
        raise SettleError(f"SETTLE_MAX_COLS must be an integer, got {cap!r}") from None
    return Limits(max_cols=v, max_cols_pairs=v)


def _cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (SettleError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _emit_json(payload: dict, out):
    out.write(json.dumps(payload, indent=2) + "\n")


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


@click.group()
def main():
    """Extremal settlement configurations on a grid."""


@main.command()
@click.option("--pattern", "pattern_name", required=True,
              type=click.Choice(_PATTERN_CHOICES, case_sensitive=False))
@click.option("--rows", required=True, type=int)
@click.option("--cols", required=True, type=int)
@click.option("--max-segments", default=4, show_default=True, type=int,
              help="Segment cap for the brick-comb search.")
@click.option("--style", default="plain", show_default=True,
              type=click.Choice([s.value for s in RenderStyle]))
@click.option("--header", is_flag=True, help="Prefix the grid with 'rows cols boundary'.")
@click.option("--json", "as_json", is_flag=True)
@click.option("-o", "--output", type=click.File("w"), default="-")
@_cli_errors
def gen(pattern_name, rows, cols, max_segments, style, header, as_json, output):
    """Generate a named periodic pattern."""
    pattern_name = pattern_name.lower()
    segments = None
    if pattern_name == "brick-comb":
        config, segments = brick_comb_best(rows, cols, max_segments)
    else:
        config = generate_pattern(PatternKind(pattern_name), rows, cols)
    if as_json:
        payload = {
            "schema": "1",
            "pattern": pattern_name,
            "occupancy": config.occupancy(),
            "density": str(config.density()),
            **to_json_dict(config),
        }
        if segments is not None:
            payload["segments"] = [
                {"kind": s.kind.value, "width": s.width, "mirrored": s.mirrored}
                for s in segments
            ]
        _emit_json(payload, output)
    else:
        output.write(render(config, RenderStyle(style), header=header))


def _verdict(config: Configuration) -> str:
    if not config.is_permissible():
        return "impermissible"
    return "maximal" if config.is_maximal() else "permissible"


@main.command()
@click.argument("input", type=click.File("r"))
@click.option("--boundary", default="free", show_default=True,
              type=click.Choice([b.value for b in Boundary]))
@click.option("--expect", type=click.Choice(["permissible", "maximal", "impermissible"]))
@click.option("--json", "as_json", is_flag=True)
@_cli_errors
def check(input, boundary, expect, as_json):
    """Classify a grid file as impermissible, permissible, or maximal."""
    config = parse_grid(input.read(), Boundary(boundary))
    verdict = _verdict(config)
    blocked = config.blocked_cells()
    addable = config.addable_cells() if verdict != "impermissible" else []
    if as_json:
        empties = []
        for i in range(1, config.dims.rows + 1):
            for j in range(1, config.dims.cols + 1):
                if config.is_occupied(i, j):
                    continue
                props = {p.value: v for p, v in config.propositions_at(i, j).items()}
                empties.append({
                    "row": i, "col": j,
                    "addable": not any(props.values()),
                    "propositions": props,
                })
        payload = {
            "schema": "1",
            "verdict": verdict,
            "permissible": verdict != "impermissible",
            "maximal": verdict == "maximal",
            "occupancy": config.occupancy(),
            "density": str(config.density()),
            "blocked": [[i, j] for i, j in blocked],
            "addable": [[i, j] for i, j in addable],
            "empty_cells": empties,
            **to_json_dict(config),
        }
        _emit_json(payload, click.get_text_stream("stdout"))
    else:
        d = config.dims
        click.echo(f"{d.rows}x{d.cols} {d.boundary.value}: {verdict}")
        click.echo(f"occupancy {config.occupancy()} (density {config.density()})")
        if blocked:
            click.echo("blocked: " + " ".join(f"({i},{j})" for i, j in blocked))
        if addable:
            click.echo("addable: " + " ".join(f"({i},{j})" for i, j in addable))
    if expect is not None:
        # --expect permissible also accepts maximal grids; maximality implies
        # permissibility
        ok = {
            "impermissible": verdict == "impermissible",
            "permissible": verdict != "impermissible",
            "maximal": verdict == "maximal",
        }[expect]
        if not ok:
            click.echo(f"expected {expect}, got {verdict}", err=True)
            sys.exit(1)


@main.command("solve")
@click.option("--objective", default="max", show_default=True,
              type=click.Choice([o.value for o in Objective]))
@click.option("--rows", required=True, type=int)
@click.option("--cols", required=True, type=int)
@click.option("--boundary", default="free", show_default=True,
              type=click.Choice([b.value for b in Boundary]))
@click.option("--witness", "witness_path", type=click.Path(dir_okay=False))
@click.option("--no-witness", is_flag=True,
              help="Solve without a witness; with --json, \"witness\" is null.")
@click.option("--json", "as_json", is_flag=True)
@_cli_errors
def solve_cmd(objective, rows, cols, boundary, witness_path, no_witness, as_json):
    """Compute the exact extremal occupancy."""
    if no_witness and witness_path is not None:
        raise click.UsageError("--no-witness and --witness exclude each other")
    want = not no_witness and (as_json or witness_path is not None)
    req = SolveRequest(Dims(rows, cols, Boundary(boundary)), Objective(objective),
                       want_witness=want, limits=_limits())
    res = solve(req)
    if witness_path is not None:
        with open(witness_path, "w") as fh:
            fh.write(render(res.witness, header=True))
    if as_json:
        payload = {
            "schema": "1",
            "objective": objective,
            "rows": rows,
            "cols": cols,
            "boundary": boundary,
            "optimum": res.optimum,
            "stats": res.stats,
            "witness": to_json_dict(res.witness) if res.witness is not None else None,
        }
        _emit_json(payload, click.get_text_stream("stdout"))
    else:
        kind = "maximum permissible" if objective == "max" else "minimum maximal"
        click.echo(f"{kind} occupancy for {rows}x{cols} ({boundary}): {res.optimum}")


@main.command()
@click.option("--rows", required=True, type=int)
@click.option("--cols", required=True, type=int)
@click.option("--json", "as_json", is_flag=True)
@_cli_errors
def bounds(rows, cols, as_json):
    """Print analytic occupancy bounds."""
    report = bounds_report(rows, cols)
    if as_json:
        payload = {"schema": "1", **report.as_dict()}
        _emit_json(payload, click.get_text_stream("stdout"))
    else:
        data = report.as_dict()
        labels = report.labels
        for key in ("crude_lower", "i_lower", "e_upper_block",
                    "e_upper_recurrence", "crude_upper"):
            click.echo(f"{key:>18} = {data[key]:>8}  ({labels[key]})")


@main.command()
@click.option("--objective", default="max", show_default=True,
              type=click.Choice([o.value for o in Objective]))
@click.option("--rows", "rows_range", required=True, help="Row count or range A..B.")
@click.option("--cols", "cols_range", required=True, help="Column count or range A..B.")
@click.option("--boundary", default="free", show_default=True,
              type=click.Choice([b.value for b in Boundary]))
@click.option("--golden", "golden_path", type=click.Path(exists=True, dir_okay=False),
              help="Compare against a stored table; exit 1 on divergence.")
@click.option("--json", "as_json", is_flag=True)
@_cli_errors
def table(objective, rows_range, cols_range, boundary, golden_path, as_json):
    """Tabulate optima over ranges of grid sizes."""
    result = solve_table(Objective(objective), _parse_range(rows_range),
                         _parse_range(cols_range), Boundary(boundary), _limits())
    if as_json:
        _emit_json({"schema": "1", **result}, click.get_text_stream("stdout"))
    else:
        width = max(
            [len(str(v)) for line in result["values"] for v in line if v is not None]
            + [len(str(c)) for c in result["cols"]]
            + [1],
        )
        header = "m\\n " + " ".join(f"{c:>{width}}" for c in result["cols"])
        click.echo(header)
        for m, line in zip(result["rows"], result["values"]):
            cells = " ".join(f"{'-' if v is None else v:>{width}}" for v in line)
            click.echo(f"{m:>3} {cells}")
        for err in result["errors"]:
            click.echo(f"({err['row']},{err['col']}): {err['error']}", err=True)
    if golden_path is not None:
        with open(golden_path) as fh:
            golden = json.load(fh)
        shaped = (
            isinstance(golden, dict)
            and all(isinstance(golden.get(key), list) for key in ("rows", "cols", "values"))
            and len(golden["values"]) == len(golden["rows"])
            and all(isinstance(line, list) for line in golden["values"])
        )
        if not shaped:
            raise SettleError(f"golden file {golden_path} is not a table: it needs 'rows' and "
                              "'cols' lists and a 'values' list with one list per row")
        want_at = {
            (m, n): want
            for m, want_line in zip(golden["rows"], golden["values"])
            for n, want in zip(golden["cols"], want_line)
        }
        mismatches = []
        for m, got_line in zip(result["rows"], result["values"]):
            for n, got in zip(result["cols"], got_line):
                want = want_at.get((m, n))
                if want is not None and got != want:
                    mismatches.append((m, n, got, want))
        if mismatches:
            for m, n, got, want in mismatches:
                click.echo(f"mismatch at ({m},{n}): got {got}, expected {want}",
                           err=True)
            sys.exit(1)


@main.command("export-ip")
@click.option("--objective", default="max", show_default=True,
              type=click.Choice([o.value for o in Objective]))
@click.option("--rows", required=True, type=int)
@click.option("--cols", required=True, type=int)
@click.option("-o", "--output", type=click.File("w"), default="-")
@_cli_errors
def export_ip(objective, rows, cols, output):
    """Write the 0/1 integer program in LP format."""
    model = (export_efficient if objective == "max" else export_inefficient)(rows, cols)
    output.write(to_lp(model))


@main.command()
@click.option("--objective", default="max", show_default=True,
              type=click.Choice([o.value for o in Objective]))
@click.option("--rows", required=True, type=int)
@click.option("--cols", required=True, type=int)
@click.option("--boundary", default="free", show_default=True,
              type=click.Choice([b.value for b in Boundary]))
@click.option("--compare", is_flag=True,
              help="Also run the dynamic-programming solver; exit 1 if they differ.")
@click.option("--json", "as_json", is_flag=True)
@_cli_errors
def oracle(objective, rows, cols, boundary, compare, as_json):
    """Exhaustively enumerate small grids as an independent cross-check."""
    req = SolveRequest(Dims(rows, cols, Boundary(boundary)), Objective(objective),
                       want_witness=False, limits=_limits())
    brute = brute_force(req)
    solver_val = None
    if compare:
        solver_val = solve(req).optimum
    if as_json:
        payload = {
            "schema": "1",
            "objective": objective,
            "rows": rows,
            "cols": cols,
            "boundary": boundary,
            "brute": brute.optimum,
            "solver": solver_val,
            "agree": None if solver_val is None else solver_val == brute.optimum,
        }
        _emit_json(payload, click.get_text_stream("stdout"))
    else:
        if compare:
            verdict = "agree" if solver_val == brute.optimum else "DISAGREE"
            click.echo(f"brute {brute.optimum} / solver {solver_val}: {verdict}")
        else:
            click.echo(f"brute {brute.optimum}")
    if compare and solver_val != brute.optimum:
        sys.exit(1)


if __name__ == "__main__":
    main()
