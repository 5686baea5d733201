"""Module-configuration files: exact JSON descriptions of gl-modules.

A config is a JSON document

    {"m": 1, "n": 1, "dim": 3,
     "parity": [0, 0, 1],
     "mu": ["0", "1/2", "0"],
     "action": {"E_0_0": [["1","0","0"], ...], ...}}

with every scalar a string like "p/q" or "p/q+r/si" so exactness
survives the round trip.  The file lists each action as dense rows;
`GlModule` stores sparse columns, so the conversion happens here and
nowhere else.  Loading validates shapes, enforces the vanishing odd
shift entries, and runs the representation-axiom check.
"""

from __future__ import annotations

import json
from pathlib import Path

from .glmodules import GlModule, MuVector, rep_check
from .parser import ParseError, parse_scalar_literal
from .scalars import Scalar, format_scalar
from .superpoly import Signature


class ConfigError(ValueError):
    """Malformed configuration file (CLI exit code 2)."""


class RepCheckFailure(ValueError):
    """Well-formed config whose action matrices are not a representation
    (CLI exit code 1)."""

    def __init__(self, violations: list):
        pairs = ", ".join(str(v[1]) for v in violations[:5])
        super().__init__(f"representation check failed: {pairs}")
        self.violations = violations


def _scalar(text, where: str) -> Scalar:
    if not isinstance(text, str):
        raise ConfigError(f"{where}: scalars must be strings, got {text!r}")
    try:
        return parse_scalar_literal(text)
    except ParseError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_module_config(path) -> tuple[GlModule, MuVector]:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return module_from_dict(doc)


def module_from_dict(doc: dict) -> tuple[GlModule, MuVector]:
    for key in ("m", "n", "dim", "parity", "mu", "action"):
        if key not in doc:
            raise ConfigError(f"missing key {key!r}")
    m, n, dim = doc["m"], doc["n"], doc["dim"]
    if not (type(m) is int and type(n) is int and type(dim) is int):  # no bools
        raise ConfigError("m, n and dim must be integers")
    if m < 1 or n < 1 or dim < 0:
        raise ConfigError("need m >= 1, n >= 1 and dim >= 0")
    parity = doc["parity"]
    if not isinstance(parity, list) or len(parity) != dim:
        raise ConfigError("parity must list one 0/1 entry per basis vector")
    if any(type(p) is not int or p not in (0, 1) for p in parity):
        raise ConfigError("parity entries must be 0 or 1")
    mu_raw = doc["mu"]
    if not isinstance(mu_raw, list) or len(mu_raw) != m + n + 1:
        raise ConfigError(f"mu must list m+n+1 = {m + n + 1} entries")
    mu_vals = [_scalar(v, f"mu[{i}]") for i, v in enumerate(mu_raw)]
    try:
        mu = MuVector(m, n, mu_vals)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    action = doc["action"]
    if not isinstance(action, dict):
        raise ConfigError("action must map E_a_b keys to matrices")
    dirs = Signature(m, n).directions()
    columns = {}
    for a in dirs:
        for b in dirs:
            key = f"E_{a}_{b}"
            if key not in action:
                raise ConfigError(f"missing action matrix {key}")
            rows = action[key]
            if not isinstance(rows, list) or len(rows) != dim or any(
                not isinstance(r, list) or len(r) != dim for r in rows
            ):
                raise ConfigError(f"{key} must be a {dim}x{dim} matrix")
            mat = [[_scalar(c, f"{key}[{i}][{j}]") for j, c in enumerate(row)]
                   for i, row in enumerate(rows)]
            columns[(a, b)] = [[(i, row[j]) for i, row in enumerate(mat) if row[j]]
                               for j in range(dim)]
    known = {f"E_{a}_{b}" for a in dirs for b in dirs}
    extra = set(action) - known
    if extra:
        raise ConfigError(f"unknown action keys: {sorted(extra)}")
    try:
        mod = GlModule(m, n, dim, parity, columns)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    violations = rep_check(mod)
    if violations:
        raise RepCheckFailure(violations)
    return mod, mu


def _dense_rows(cols: list, dim: int) -> list:
    rows = [["0"] * dim for _ in range(dim)]
    for j, col in enumerate(cols):
        for i, c in col:
            rows[i][j] = format_scalar(c)
    return rows


def module_to_dict(mod: GlModule, mu: MuVector) -> dict:
    return {
        "m": mod.m,
        "n": mod.n,
        "dim": mod.dim,
        "parity": list(mod.parities),
        "mu": [format_scalar(v) for v in mu.values],
        "action": {
            f"E_{a}_{b}": _dense_rows(cols, mod.dim)
            for (a, b), cols in mod.columns.items()
        },
    }
