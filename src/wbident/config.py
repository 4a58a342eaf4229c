"""Evaluation configuration: every tolerance and truncation limit used by the
numerical operations lives here, never inline in the operations themselves.

The default config can be overridden globally by pointing the environment
variable ``WBIDENT_CONFIG`` at a JSON file whose keys are field names.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

from .errors import InputError

ENV_CONFIG_VAR = "WBIDENT_CONFIG"


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

    # collocation oracle
    collocation_escalate_cond: float = 1e6
    collocation_resid_tol: float = 1e-8

    # check thresholds
    top_coeff_tol: float = 1e-10
    coupled_tol: float = 1e-12
    second_order_tol: float = 1e-12
    identity_tol: float = 1e-6
    ode4_tol: float = 1e-10
    whittaker_eq_tol: float = 1e-9
    kernel_cross_tol: float = 1e-10
    realness_tol: float = 1e-10
    indicial_tol: float = 1e-10
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

    def replace(self, **kw) -> "EvalConfig":
        return dataclasses.replace(self, **kw)


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


def default_config() -> EvalConfig:
    """Built-in defaults, unless WBIDENT_CONFIG points at a JSON override."""
    path = os.environ.get(ENV_CONFIG_VAR)
    if path:
        return load_config(path)
    return EvalConfig()
