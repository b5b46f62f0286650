"""Run configuration: JSON schema, validation, and system construction.

A configuration is a single JSON document::

    {
      "system": {
        "dim": 2,
        "mode": "discrete" | "continuous",
        "euler_h": 0.1,                    // continuous systems only
        "equilibrium": [0.7975, 1.0, 0.1111],   // optional translation
        "regions": [
          {"guards": ["x2 >= 0"], "field": ["0.5*x1", "-0.8*x2 - x1^2"]},
          {"guards": ["x2 < 0"],  "field": ["0.5*x1 + x1*x2", "-0.8*x2"]}
        ]
      },
      "candidate": {"P": [[10, 0], [0, 1]], "rho_c": 0.999, "M": 4, "M_max": 4},
      "search": {
        "S": {"lo": [-1.0, -1.3], "hi": [1.0, 1.3]},
        "delta_min": 0.02,
        "N1": {"lo": [-0.1, -0.1], "hi": [0.1, 0.1]},   // 0 in its interior
        "boundary_spacing": 0.01,
        "P_local": [[...]],                // optional (dim x dim, SPD), else solved
        "rho_local": 0.999,
        "local_delta_min": 0.01            // optional, else scaled delta_min
      },
      "run": {
        "bound_method": "split",           // accepted, has no effect
        "norm_pairing": "linf-l1",         // accepted, has no effect
        "workers": 1,                      // accepted, has no effect
        "quality_gate": 0.5,
        "seed_split": [3, 3],              // optional initial grid
        "trajectory_seeds": [[0.5, 0.5]]   // optional, for exports
      }
    }

Guards use the comparison operators <=, <, >=, > between two expressions.
Dynamics and candidate functions must be twice differentiable, so `abs`
is allowed in guards only.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, ParseError
from .expr import VectorField, contains_abs, parse_expr
from .geometry import HyperRect
from .localyap import local_search_config, max_level_in_box
from .system import (
    CONTINUOUS,
    DISCRETE,
    CandidateV,
    Guard,
    PiecewiseSystem,
    Region,
    euler_discretize,
    translate_system,
)
from .verifier import VerifyConfig

_REL_RE = re.compile(r"(<=|>=|<|>)")

# the accepted values of run.bound_method and run.norm_pairing: checked, so
# a typo is an error, though every value gives the same bound
BOUND_METHODS = ("split", "combined", "best")
NORM_PAIRINGS = ("linf-l1", "l2")


def parse_guard(text: str, dim: int) -> Guard:
    parts = _REL_RE.split(text)
    if len(parts) != 3:
        raise ConfigError(f"guard must contain exactly one comparison: {text!r}")
    lhs, rel, rhs = (p.strip() for p in parts)
    try:
        left = parse_expr(lhs, dim)
        if rhs == "0":
            expr = left
        else:
            from .expr import Bin

            expr = Bin("-", left, parse_expr(rhs, dim))
    except ParseError as exc:
        raise ConfigError(f"bad guard {text!r}: {exc}") from exc
    return Guard(expr, rel)


def _box_from_spec(spec, dim: int, name: str) -> HyperRect:
    try:
        lo_hi = "lo" in spec
        parts = (spec["lo"], spec["hi"]) if lo_hi else (spec["center"], spec["delta"])
        if not all(np.all(np.isfinite(np.asarray(p, dtype=float))) for p in parts):
            raise ValueError("bounds must be finite numbers")
        box = HyperRect.from_bounds(*parts) if lo_hi else HyperRect(*parts)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad box spec for {name}: {exc}") from exc
    if box.n != dim:
        raise ConfigError(f"{name} has dimension {box.n}, expected {dim}")
    return box


@dataclass
class RunConfig:
    raw: dict
    dim: int
    mode: str
    euler_h: Optional[float]
    equilibrium: Optional[np.ndarray]
    regions_src: list
    P: np.ndarray
    rho_c: float
    M: int
    M_max: int
    S: HyperRect
    delta_min: float
    N1: Optional[HyperRect]
    boundary_spacing: float
    P_local: Optional[np.ndarray]
    rho_local: float
    local_delta_min: float
    bound_method: str  # has no effect; kept because bench/micro.py reads it
    norm_pairing: str  # has no effect; kept because bench/micro.py reads it
    workers: int
    quality_gate: float
    seed_split: Optional[list]
    split_longest_only: bool
    trajectory_seeds: list = field(default_factory=list)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Parse and validate a configuration document.

        Any malformed part (a missing key, a value of the wrong type or
        form) raises ConfigError naming it.
        """
        try:
            sys_spec = doc["system"]
            cand = doc["candidate"]
            search = doc["search"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"missing configuration section {exc}") from exc
        try:
            return cls._parse(doc, sys_spec, cand, search)
        except KeyError as exc:
            raise ConfigError(f"missing configuration key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad configuration value: {exc}") from exc

    @classmethod
    def _parse(cls, doc, sys_spec, cand, search) -> "RunConfig":
        run = doc.get("run", {})

        dim = int(sys_spec["dim"])
        mode = sys_spec.get("mode", DISCRETE)
        if mode not in (DISCRETE, CONTINUOUS):
            raise ConfigError(f"unknown mode {mode!r}")
        euler_h = sys_spec.get("euler_h")
        if mode == CONTINUOUS and euler_h is None:
            raise ConfigError("continuous systems need euler_h for the discrete pipeline")
        if euler_h is not None and not (0.0 < float(euler_h) < math.inf):
            raise ConfigError("euler_h must be positive and finite")

        equilibrium = sys_spec.get("equilibrium")
        if equilibrium is not None:
            equilibrium = np.asarray(equilibrium, dtype=float)
            if equilibrium.shape != (dim,):
                raise ConfigError("equilibrium must match the system dimension")
            if not np.all(np.isfinite(equilibrium)):
                raise ConfigError("equilibrium must have finite entries")

        regions_src = sys_spec["regions"]
        if not regions_src:
            raise ConfigError("at least one region is required")

        P = np.asarray(cand["P"], dtype=float)
        rho_c = float(cand.get("rho_c", 0.999))
        M = int(cand.get("M", 1))
        M_max = int(cand.get("M_max", M))

        S = _box_from_spec(search["S"], dim, "S")
        delta_min = float(search["delta_min"])
        N1 = None
        if "N1" in search:
            N1 = _box_from_spec(search["N1"], dim, "N1")
        boundary_spacing = float(search.get("boundary_spacing", delta_min))
        P_local = search.get("P_local")
        if P_local is not None:
            P_local = np.asarray(P_local, dtype=float)
        rho_local = float(search.get("rho_local", 0.999))
        if "local_delta_min" in search:
            local_delta_min = float(search["local_delta_min"])
        elif N1 is not None and S.max_abs_delta > 0.0:  # a flat S fails validation
            # keep the local search resolution proportional to N1
            local_delta_min = delta_min * N1.max_abs_delta / S.max_abs_delta
        else:
            local_delta_min = delta_min

        cfg = cls(
            raw=doc,
            dim=dim,
            mode=mode,
            euler_h=float(euler_h) if euler_h is not None else None,
            equilibrium=equilibrium,
            regions_src=regions_src,
            P=P,
            rho_c=rho_c,
            M=M,
            M_max=M_max,
            S=S,
            delta_min=delta_min,
            N1=N1,
            boundary_spacing=boundary_spacing,
            P_local=P_local,
            rho_local=rho_local,
            local_delta_min=local_delta_min,
            bound_method=run.get("bound_method", "split"),
            norm_pairing=run.get("norm_pairing", "linf-l1"),
            workers=int(run.get("workers", 1)),
            quality_gate=float(run.get("quality_gate", 0.5)),
            seed_split=run.get("seed_split"),
            split_longest_only=bool(run.get("split_longest_only", False)),
            trajectory_seeds=[list(map(float, s)) for s in run.get("trajectory_seeds", [])],
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    # -- validation and derived objects -----------------------------------

    def validate(self):
        matrices = (("candidate", self.P, self.rho_c), ("P_local", self.P_local, self.rho_local))
        for name, P, rho in matrices:
            if P is None:
                continue
            try:
                if P.shape != (self.dim, self.dim):
                    raise ValueError(f"P must be {self.dim} x {self.dim}")
                CandidateV(P, rho)
            except ValueError as exc:
                raise ConfigError(f"bad {name}: {exc}") from exc
        if self.workers < 1:  # accepted for old configs, selects nothing
            raise ConfigError("workers must be >= 1")
        if self.bound_method not in BOUND_METHODS:
            raise ConfigError(f"unknown bound method {self.bound_method!r}")
        if self.norm_pairing not in NORM_PAIRINGS:
            raise ConfigError(f"unknown norm pairing {self.norm_pairing!r}")
        if not (self.boundary_spacing > 0.0):
            raise ConfigError("boundary_spacing must be positive")
        try:
            self.verify_config()
            if self.N1 is not None:
                local_search_config(self.N1, self.local_delta_min, self.rho_local)
                max_level_in_box(np.eye(self.dim), self.N1)  # raises unless 0 is inside N1
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.build_system()  # parses all expressions

    def verify_config(self) -> VerifyConfig:
        """The inputs of the certified-region search."""
        return VerifyConfig(
            S=self.S,
            delta_min=self.delta_min,
            M=self.M,
            M_max=self.M_max,
            rho_c=self.rho_c,
            quality_gate=self.quality_gate,
            seed_split=self.seed_split,
            split_longest_only=self.split_longest_only,
        )

    def build_system(self) -> PiecewiseSystem:
        """The system exactly as configured (continuous stays continuous)."""
        regions = []
        for k, spec in enumerate(self.regions_src):
            guards = tuple(parse_guard(g, self.dim) for g in spec.get("guards", []))
            comps = []
            for text in spec["field"]:
                try:
                    e = parse_expr(text, self.dim)
                except ParseError as exc:
                    raise ConfigError(f"bad field expression {text!r}: {exc}") from exc
                if contains_abs(e):
                    raise ConfigError(
                        "abs appears in dynamics; it is allowed in guards only"
                    )
                comps.append(e)
            if len(comps) != self.dim:
                raise ConfigError(f"region {k} field must have {self.dim} components")
            regions.append(Region(guards, VectorField(self.dim, tuple(comps))))
        sys = PiecewiseSystem(self.dim, self.mode, tuple(regions))
        if self.equilibrium is not None:
            sys = translate_system(sys, self.equilibrium)
        return sys

    def continuous_system(self) -> PiecewiseSystem:
        sys = self.build_system()
        if sys.mode != CONTINUOUS:
            raise ConfigError("configuration does not describe a continuous system")
        return sys

    def discrete_system(self) -> PiecewiseSystem:
        """The discrete-time system the pipeline verifies (Euler if needed)."""
        sys = self.build_system()
        if sys.mode == CONTINUOUS:
            sys = euler_discretize(sys, self.euler_h)
        return sys

    def candidate(self) -> CandidateV:
        return CandidateV(self.P, self.rho_c)

    def digest(self) -> str:
        return config_digest(self.raw)

    def to_dict(self) -> dict:
        return self.raw


def config_digest(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
