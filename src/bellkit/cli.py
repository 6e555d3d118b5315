"""Command-line interface tying the toolkit together.

Every subcommand emits one structured report on standard output, JSON by
default (``--format plain`` for flat ``key = value`` lines).  Reports are
deterministic: identical inputs, including seeds, produce byte-identical
output.  Exact rationals appear as separate ``exact``/``value`` keys and are
never conflated with floats; numeric groups name the method that produced
them.  Exit codes: 0 success, 1 input error, 2 internal failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .builtins import (
    builtin_expression,
    builtin_magnitude,
    builtin_names,
    g_paper_expansion_fixture_path,
)
from .errors import BellkitError, NoRootError, NoViolationError, ParseError
from .exprformat import (
    _assignment_keys,
    _check_assignment_digits,
    parse_expansion,
    parse_expression,
)
from .lhv import (
    DEFAULT_ENUMERATION_CAP,
    _check_same_scenario,
    diff_expansion,
    expand_full_joint,
    local_bounds,
)
from .scenario import BellExpression

# The quantum, noise and optimizer layers are imported by the commands that
# run them, so bound and expand never load them.  numpy loads at the first
# array a command builds, so bound, --version and --help never load it.

SCHEMA_VERSION = 1


class _UsageError(Exception):
    """Bad usage, with the usage text of the parser that refused it, if one did."""

    def __init__(self, message: str, usage: str = ""):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; route through code 1 instead
    def error(self, message):
        raise _UsageError(message, self.format_usage())

    # no command takes arguments it does not know, so the parser left holding
    # one refuses it, and a subcommand's own usage follows the error
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _positive_int(text: str) -> int:
    """An ``int`` argument of 1 or more; argparse names the flag that refused it."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _f12(value: Optional[float]) -> Optional[float]:
    """Round to 12 significant digits for stable, readable reports."""
    if value is None:
        return None
    return float(f"{value:.12g}")


def _rational(value: Fraction, field: str) -> dict:
    """An exact value as report field ``field``: its text and its rounded float.
    A value whose text passes the interpreter's digit limit for an integer, or
    that lies past the largest float, is refused by name."""
    try:
        return {"exact": str(value), "value": _f12(float(value))}
    except ValueError:  # str() of an integer past the digit limit
        what = (
            f"with more than {sys.get_int_max_str_digits()} digits, "
            "past the limit for writing an integer"
        )
    except OverflowError:  # float() of a value past the largest float
        what = "past the largest float"
    raise BellkitError(f"report field {field!r} holds an exact value {what}")


def _read(path: str, parse) -> tuple:
    """(parse(text), identity) of the file at ``path``, read once: the identity
    block ``{"path": path, "sha256": digest}`` holds the SHA-256 of its bytes,
    and ``text`` is those bytes as UTF-8 without a leading byte-order mark, with
    CRLF and CR line ends read as LF.  The mark is dropped after decoding, so an
    error's byte offset counts from the start of the file.

    The digest comes from the interpreter's own SHA-256 module, as ``random``
    gets its SHA-512: ``hashlib`` loads OpenSSL, a few MB for a few KB hashed."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:  # a build without the built-in hashes
            from hashlib import sha256

    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse(text), {"path": path, "sha256": sha256(data).hexdigest()}


def _load_expression(args):
    if args.builtin is not None and args.expr is not None:
        raise _UsageError("give either an expression file or --builtin, not both")
    if args.builtin is not None:
        expr = builtin_expression(args.builtin)
        identity = {"builtin": args.builtin}
        default_magnitude = builtin_magnitude(args.builtin)
    elif args.expr is not None:
        expr, identity = _read(args.expr, parse_expression)
        default_magnitude = False
    else:
        raise _UsageError(
            f"an expression file or --builtin is required "
            f"(builtins: {', '.join(builtin_names())})"
        )
    magnitude = getattr(args, "magnitude", None)  # expand takes no --magnitude
    magnitude = default_magnitude if magnitude is None else magnitude
    return expr, identity, magnitude


def _load_model(spec: str):
    from .quantum import ghz_state, paper_model, parse_model

    if spec == "paper":
        return ghz_state(3), paper_model(), "paper"
    (state, model), identity = _read(spec, parse_model)
    return state, model, identity


def _local_block(bounds, scenario) -> dict:
    return {
        "method": "exhaustive enumeration of deterministic strategies",
        "strategy_count": scenario.assignment_count,
        "max": _rational(bounds.max, "max"),
        "min": _rational(bounds.min, "min"),
        "magnitude": _rational(bounds.magnitude, "magnitude"),
        "maximizers": _assignment_keys(scenario, bounds.maximizers),
        "minimizers": _assignment_keys(scenario, bounds.minimizers),
    }


def _quantum_block(expr, valuation, magnitude: bool) -> dict:
    keys = expr.terms if isinstance(expr, BellExpression) else zip(expr.terms, repeat(None))
    terms = zip(keys, expr.terms.values(), valuation.term_values, valuation.breakdown)
    return {
        "method": "projector expectation values",
        "value": _f12(valuation.value),
        "magnitude": _f12(abs(valuation.value)),
        "magnitude_convention": magnitude,
        "breakdown": [
            {
                "settings": list(settings),
                "outcomes": None if outcomes is None else list(outcomes),
                "coefficient": _rational(coefficient, "coefficient"),
                "term_value": _f12(term_value),
                "contribution": _f12(contribution),
            }
            for (settings, outcomes), coefficient, term_value, contribution in terms
        ],
    }


def _violation_block(report, magnitude: bool) -> dict:
    return {
        "quantum_value": _f12(report.quantum_value),
        "local_bound": _rational(report.local_max, "local_bound"),
        "factor": _f12(report.violation_factor),
        "amount": _f12(report.violation_amount),
        "violated": report.violated,
        "magnitude_convention": magnitude,
    }


def _noise_block(expr, coefficients, state, model, value, bounds, magnitude) -> dict:
    from .noise import AGREEMENT_TOL, _closed_form, _root_scan

    closed = _closed_form(coefficients, expr.scenario.parties, value, bounds, magnitude)
    scanned, evaluations = _root_scan(expr, state, model, bounds, coefficients.band, magnitude)
    term_count_value = closed.p_critical_term_count
    return {
        "quantum_value": _f12(closed.quantum_value),
        "local_bound": _rational(closed.local_max, "local_bound"),
        "outcome_cells": closed.outcome_cells,
        "coefficient_sum": _rational(closed.coefficient_sum, "coefficient_sum"),
        "positive_terms": closed.positive_terms,
        "negative_terms": closed.negative_terms,
        "magnitude_convention": magnitude,
        "p_critical": {
            "value": _f12(closed.p_critical),
            "method": "closed form from affine mixing",
        },
        "p_critical_root_scan": {
            "value": _f12(scanned),
            "method": "false position with a bisection safeguard on the mixing fraction",
            "evaluations": evaluations,
            "gap": _f12(scanned - closed.p_critical),
            "agrees_with_closed_form": abs(scanned - closed.p_critical) <= AGREEMENT_TOL,
        },
        "p_critical_term_count_rule": {
            "value": _f12(term_count_value),
            "method": "positive-minus-negative term count in place of the coefficient sum",
            "agrees_with_closed_form": closed.interpretations_agree,
        },
    }


def _expansion_block(expansion, list_terms: bool) -> dict:
    grid, scale = expansion.grid, expansion.scale
    block = {
        "method": "per-term completion of unmeasured slots",
        "assignment_count": grid.size,
        "coefficient_sum": _rational(expansion.coefficient_sum, "coefficient_sum"),
        "min": _rational(Fraction(int(grid.min()), scale), "min"),
        "max": _rational(Fraction(int(grid.max()), scale), "max"),
    }
    if list_terms:
        assignments, values = zip(*expansion.items())
        keys = _assignment_keys(expansion.scenario, assignments)
        block["terms"] = [
            {"assignment": key, "coefficient": _rational(coefficient, "coefficient")}
            for key, coefficient in zip(keys, values)
        ]
    return block


def _load_fixture(path: str, scenario) -> tuple:
    """The fixture at ``path``, refused unless it covers ``scenario``, and the
    keys that name it in its diff block."""
    fixture, identity = _read(path, parse_expansion)
    _check_same_scenario(scenario, fixture.scenario, path)
    return fixture, {"fixture": path, "fixture_sha256": identity["sha256"]}


def _diff_block(expansion, fixture, named: dict) -> dict:
    entries = diff_expansion(expansion, fixture)
    keys = _assignment_keys(expansion.scenario, [entry.assignment for entry in entries])
    return {
        **named,
        "mismatches": len(entries),
        "entries": [
            {
                "assignment": key,
                "computed": _rational(entry.computed, "computed"),
                "fixture": _rational(entry.fixture, "fixture"),
            }
            for key, entry in zip(keys, entries)
        ],
    }


def _cmd_bound(args, expr, magnitude) -> tuple:
    _check_assignment_digits(expr.scenario)  # the report lists extremizers by key
    bounds = local_bounds(expr, args.cap)
    return {"magnitude": magnitude}, {"local": _local_block(bounds, expr.scenario)}


def _cmd_expand(args, expr, magnitude) -> tuple:
    fixture = None if args.diff is None else _load_fixture(args.diff, expr.scenario)
    _check_assignment_digits(expr.scenario)  # the report lists every assignment by key
    expansion = expand_full_joint(expr, args.cap)
    payload = {"expansion": _expansion_block(expansion, list_terms=True)}
    if fixture is not None:
        # mismatches are findings, not failures; exit stays 0
        payload["diff"] = _diff_block(expansion, *fixture)
    return {"diff": args.diff}, payload


def _cmd_quantum(args, expr, magnitude) -> tuple:
    from .quantum import expression_value

    state, model, model_identity = _load_model(args.model)
    valuation = expression_value(expr, state, model)
    inputs = {"model": model_identity, "magnitude": magnitude}
    return inputs, {"quantum": _quantum_block(expr, valuation, magnitude)}


def _cmd_noise(args, expr, magnitude) -> tuple:
    from .noise import _intake

    state, model, model_identity = _load_model(args.model)
    value, bounds, coefficients = _intake(expr, state, model, args.cap)
    noise_block = _noise_block(expr, coefficients, state, model, value, bounds, magnitude)
    inputs = {"model": model_identity, "magnitude": magnitude}
    return inputs, {"noise": noise_block}


def _cmd_optimize(args, expr, magnitude) -> tuple:
    from .optimize import OptimizerConfig, optimize_measurements
    from .quantum import _model_document, ghz_state, parse_model

    if args.state == "ghz":
        state, state_identity = ghz_state(expr.scenario.parties), "ghz"
    else:
        (state, _), state_identity = _read(args.state, parse_model)
    config = OptimizerConfig(  # a flag not given keeps the config's default
        **{
            field.name: getattr(args, field.name)
            for field in dataclasses.fields(OptimizerConfig)
            if getattr(args, field.name) is not None
        }
    )
    result = optimize_measurements(expr, state, config, magnitude=magnitude)
    inputs = {
        "state": state_identity,
        "magnitude": magnitude,
        **dataclasses.asdict(config),
    }
    return inputs, {
        "optimization": {
            "method": "see-saw ascent over Bloch vectors with seeded random restarts",
            "best_value": _f12(result.best_value),
            "evaluations": result.evaluations,
            "converged_starts": result.converged_starts,
            "restarts": config.restarts,
            "seed": config.seed,
            "magnitude_convention": magnitude,
            "model": _model_document(
                result.best_angles, None if args.state == "ghz" else state
            ),
        }
    }


def _cmd_report(args, expr, magnitude) -> tuple:
    from .noise import ViolationReport, _coefficient_pass
    from .quantum import expression_value

    state, model, model_identity = _load_model(args.model)
    diff_path = args.diff
    if diff_path is None and args.builtin == "g-paper":
        diff_path = str(g_paper_expansion_fixture_path())
    fixture = None if diff_path is None else _load_fixture(diff_path, expr.scenario)
    valuation = expression_value(expr, state, model)  # checks the model before the sweep
    expansion = expand_full_joint(expr, args.cap)  # its cap, at most 10^7, before the sweep
    bounds = local_bounds(expr, args.cap)
    extremes = (bounds.min, bounds.max)  # the one sweep, which the extremizers need
    coefficients = _coefficient_pass(expr)
    violation = ViolationReport.of(valuation.value, extremes, magnitude, coefficients.band)

    try:
        noise_block = _noise_block(
            expr, coefficients, state, model, valuation.value, extremes, magnitude
        )
        noise_block["defined"] = True
    except (NoViolationError, NoRootError) as exc:
        noise_block = {"defined": False, "reason": str(exc)}

    scenario = expr.scenario
    expression_block = {
        "kind": "probability" if isinstance(expr, BellExpression) else "correlator",
        "scenario": {
            "parties": scenario.parties,
            "settings_per_party": list(scenario.settings_per_party),
            "outcomes_per_setting": [list(row) for row in scenario.outcomes_per_setting],
        },
        "term_count": coefficients.positive + coefficients.negative,  # probability form
        "stored_term_count": expr.term_count,
        "coefficient_sum": _rational(coefficients.total, "coefficient_sum"),
    }

    expansion_block = _expansion_block(expansion, list_terms=False)
    if fixture is not None:
        expansion_block["diff"] = _diff_block(expansion, *fixture)

    inputs = {
        "model": model_identity,
        "magnitude": magnitude,
        "diff": diff_path,
    }
    return inputs, {
        "expression": expression_block,
        "local": _local_block(bounds, scenario),
        "quantum": _quantum_block(expr, valuation, magnitude),
        "violation": _violation_block(violation, magnitude),
        "noise": noise_block,
        "expansion": expansion_block,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bellkit",
        description="Exact local bounds, quantum values, and noise robustness "
        "for Bell expressions.",
    )
    parser.add_argument("--version", action="version", version=f"bellkit {__version__}")
    subparsers = parser.add_subparsers(dest="command", metavar="command")

    # shared flags, each given only to the subcommands that read it
    source, magnitude, cap, model = (_Parser(add_help=False) for _ in range(4))
    source.add_argument("expr", nargs="?", help="expression document path")
    source.add_argument(
        "--builtin",
        metavar="NAME",
        help=f"use a builtin expression ({', '.join(builtin_names())})",
    )
    source.add_argument(
        "--format", choices=("json", "plain"), default="json", help="output format"
    )
    magnitude.add_argument(
        "--magnitude",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="report by |value| (default: the builtin's convention, else signed)",
    )
    cap.add_argument(
        "--cap",
        type=_positive_int,
        default=DEFAULT_ENUMERATION_CAP,
        help="enumeration size cap for the strategy space",
    )
    model.add_argument("--model", default="paper", help="'paper' or a model document path")

    # each command carries its handler, which _run_handler calls
    subparsers.add_parser(
        "bound", help="exact local bounds and extremizers", parents=[source, magnitude, cap]
    ).set_defaults(handler=_cmd_bound)
    p_expand = subparsers.add_parser(
        "expand",
        help="full-joint expansion, optionally diffed against a fixture",
        parents=[source, cap],
    )
    p_expand.add_argument("--diff", metavar="FIXTURE", help="expansion fixture to audit")
    p_expand.set_defaults(handler=_cmd_expand)
    subparsers.add_parser(
        "quantum",
        help="quantum value with per-term breakdown",
        parents=[source, magnitude, model],
    ).set_defaults(handler=_cmd_quantum)
    subparsers.add_parser(
        "noise", help="white-noise tolerance", parents=[source, magnitude, cap, model]
    ).set_defaults(handler=_cmd_noise)
    p_optimize = subparsers.add_parser(
        "optimize",
        help="search measurement angles for the best value",
        parents=[source, magnitude],
    )
    p_optimize.add_argument(
        "--state", default="ghz", help="'ghz' or a model document path (its state is used)"
    )
    # each defaults to OptimizerConfig's own, filled in by the command
    p_optimize.add_argument("--restarts", type=int)
    p_optimize.add_argument("--seed", type=int)
    p_optimize.add_argument("--tolerance", type=float)
    p_optimize.add_argument("--max-evals", type=int)
    p_optimize.set_defaults(handler=_cmd_optimize)

    p_report = subparsers.add_parser(
        "report", help="full analysis report", parents=[source, magnitude, cap, model]
    )
    p_report.add_argument(
        "--diff",
        metavar="FIXTURE",
        help="expansion fixture to audit (default: the packaged g-paper table)",
    )
    p_report.set_defaults(handler=_cmd_report)

    return parser


def _plain_lines(value, prefix: str, out: list) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _plain_lines(item, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(value, list):
        if all(not isinstance(item, (dict, list)) for item in value):
            out.append(f"{prefix} = {json.dumps(value)}")
        else:
            for index, item in enumerate(value):
                _plain_lines(item, f"{prefix}[{index}]", out)
    else:
        out.append(f"{prefix} = {json.dumps(value)}")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        lines: list = []
        _plain_lines(report, "", lines)
        sys.stdout.write("\n".join(lines) + "\n")


def _run_handler(args) -> tuple:
    """Run one command: (exit code, report or None).  It loads the expression,
    the command's handler returns the inputs that follow it and the payload, and
    the report wraps both in its envelope: the schema version, the tool, the
    command and the expression's identity block come first.  A failure writes
    its error line to stderr first; then each warning the command raised
    follows as one line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            expr, identity, magnitude = _load_expression(args)
            inputs, payload = args.handler(args, expr, magnitude)
            return 0, {
                "schema_version": SCHEMA_VERSION,
                "tool": {"name": "bellkit", "version": __version__},
                "command": args.command,
                "inputs": {"expression": identity, **inputs},
                **payload,
            }
        except (_UsageError, BellkitError, OSError, ValueError, OverflowError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1, None
        except Exception as exc:  # pragma: no cover - internal invariant failure
            sys.stderr.write(f"internal error: {exc!r}\n")
            return 2, None
        finally:
            for warning in caught:
                sys.stderr.write(f"warning: {warning.message}\n")


def run_command(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and run one command; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write(exc.usage)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    if args.command is None:
        sys.stderr.write(parser.format_usage())
        return 1
    code, report = _run_handler(args)
    if report is not None:
        _emit(report, args.format)
    return code


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
