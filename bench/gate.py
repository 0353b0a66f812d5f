"""Correctness gate: one solve's result against its known answer."""

from __future__ import annotations

import contextlib
import json

from lbcolor import Coloring, UsageError, validate_coloring


def failure(spec, instance, objective, exit_code, stdout, error, span=None) -> str | None:
    """Why one ``lbcolor solve`` result is wrong, or None when it is right.

    A raised exception is a failure, never an "infeasible" verdict; so is exit
    code 2.  A feasible verdict must carry a witness that ``validate_coloring``
    accepts, and under ``maximize`` an objective that is the witness's own
    profit and no lower than the planted coloring's.  ``span``, when given,
    wraps the ``validate_coloring`` call for the traced run.
    """
    if error is not None:
        return f"exception {type(error).__name__}: {error}"
    if exit_code == 2:
        return "exit 2"
    try:
        doc = json.loads(stdout)
        status = doc["status"]
    except (ValueError, TypeError, KeyError):
        return "unreadable output"
    if exit_code != (0 if status == "feasible" else 1):
        return f"exit {exit_code} with status {status!r}"
    expected = "feasible" if spec.feasible else "infeasible"
    if status != expected:
        return f"verdict {status}, known answer {expected}"
    if status != "feasible":
        return None
    try:
        witness = Coloring(tuple(doc["witness"]["color_of"]))
        with span("instance.validate_coloring") if span else contextlib.nullcontext():
            report = validate_coloring(instance, witness)
    except (TypeError, KeyError, UsageError) as exc:
        return f"malformed witness: {exc}"
    if not report.ok:
        return f"witness rejected: {report.violation}"
    if objective == "maximize":
        profit = sum(instance.profit_of(e, c) for e, c in enumerate(witness.color_of))
        if doc.get("objective") != profit:
            return f"objective {doc.get('objective')} but the witness earns {profit}"
        if profit < spec.planted_profit:
            return f"objective {profit} below the planted profit {spec.planted_profit}"
    return None
