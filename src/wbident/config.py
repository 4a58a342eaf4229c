"""Evaluation configuration: every tolerance of a float check and every
truncation limit used by the numerical operations lives here, never inline
in the operations themselves.  Exact checks have no tolerance: they pass
only at 0.0 (report.EXACT), so no field here sets their threshold.

An operation reads the config it is given, or the one shared default
``EvalConfig()``; nothing in the process environment changes it.  A JSON
file of field overrides (``wbident --config FILE``) is read by load_config.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class EvalConfig:
    # series evaluators (Kummer M, modified Bessel I)
    series_rel_tol: float = 1e-16
    series_max_terms: int = 1000

    # trapezoid quadrature for K_nu
    quad_step: float = 1.0 / 64
    quad_rel_tol: float = 1e-12
    quad_max_halvings: int = 12

    # parameter-degeneracy handling
    k_refuse_threshold: float = 1e-3      # 0 < k below this is refused in double precision
    mu_degeneracy_tol: float = 1e-6       # warn when 2*mu is this close to an integer

    # collocation oracle (50 digits): the largest misfit of a fit it keeps
    collocation_resid_tol: float = 1e-8

    # float check thresholds
    identity_tol: float = 1e-6
    whittaker_eq_tol: float = 1e-9
    kernel_cross_tol: float = 1e-10
    realness_tol: float = 1e-10
    constants_relation_tol: float = 1e-10
    reconstruction_tol: float = 1e-6
    oracle_match_tol: float = 1e-8

    # high-precision oracle
    oracle_dps: int = 50

    def __post_init__(self):
        # every float field is a tolerance, step or threshold; the annotations
        # are strings (from __future__ import annotations)
        for field in dataclasses.fields(self):
            if field.type == "float" and not getattr(self, field.name) > 0:
                raise InputError(f"EvalConfig.{field.name} must be positive")
        if self.series_max_terms < 10:
            raise InputError("EvalConfig.series_max_terms must be >= 10")
        if self.quad_max_halvings < 1:
            raise InputError("EvalConfig.quad_max_halvings must be >= 1")
        if self.oracle_dps < 20:
            raise InputError("EvalConfig.oracle_dps must be >= 20")


def load_config(path: str) -> EvalConfig:
    """Read an EvalConfig from a JSON file; missing keys keep their defaults.
    A file that is not a JSON object of known fields raises InputError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object of EvalConfig fields")
    known = {f.name for f in dataclasses.fields(EvalConfig)}
    unknown = set(data) - known
    if unknown:
        raise InputError(f"unknown EvalConfig keys in {path}: {sorted(unknown)}")
    try:
        return EvalConfig(**data)
    except TypeError as exc:
        raise InputError(f"invalid EvalConfig value in {path}: {exc}") from exc


_DEFAULT = EvalConfig()                 # frozen, so every caller can share it


def default_config() -> EvalConfig:
    """The built-in defaults, one shared instance."""
    return _DEFAULT
