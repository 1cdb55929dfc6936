"""Problem definition and config-file ingestion.

A ProblemSpec bundles the discretization, the nonlinearity, and solver
settings.  The JSON schema is closed: unknown keys anywhere are errors,
so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .energy import EnergyAssembly, Nonlinearity, build_assembly, from_tag
from .solver import SolverConfig, _is_real
from .space import SpaceConfig, SpaceModel, build_space

__all__ = ["ProblemSpec"]

_TOP_KEYS = {"alpha", "T", "n", "k_max", "nonlinearity", "solver"}


@dataclass(frozen=True)
class ProblemSpec:
    alpha: float
    T: float
    n: int
    k_max: int
    nonlinearity: Nonlinearity
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        # SpaceConfig owns the numeric validation; construct and discard
        SpaceConfig(alpha=self.alpha, T=self.T, n=self.n, k_max=self.k_max)
        if not isinstance(self.nonlinearity, Nonlinearity):
            raise ValueError("nonlinearity must be a Nonlinearity instance")
        if not isinstance(self.solver, SolverConfig):
            raise ValueError("solver must be a SolverConfig instance")

    @property
    def space_config(self) -> SpaceConfig:
        return SpaceConfig(alpha=self.alpha, T=self.T, n=self.n, k_max=self.k_max)

    def build(self) -> tuple[SpaceModel, EnergyAssembly]:
        """Construct the discrete space and the assembled energy matrices."""
        model = build_space(self.space_config)
        return model, build_assembly(model)

    @classmethod
    def from_config(cls, doc: dict) -> "ProblemSpec":
        """Validate a parsed config document against the closed schema.

        {"alpha": real, "T": real, "n": int, "k_max": int,
         "nonlinearity": {"kind": str, ...params}, "solver": {...}}
        with the solver block optional.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"config root must be an object, got {type(doc).__name__}")
        unknown = set(doc) - _TOP_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {"alpha", "T", "n", "k_max", "nonlinearity"} - set(doc)
        if missing:
            raise ValueError(f"config is missing required keys: {sorted(missing)}")

        nl_doc = doc["nonlinearity"]
        if not isinstance(nl_doc, dict) or "kind" not in nl_doc:
            raise ValueError('config "nonlinearity" must be an object with a "kind"')
        nl_params = {k: v for k, v in nl_doc.items() if k != "kind"}
        try:
            nl = from_tag(nl_doc["kind"], **nl_params)
        except TypeError as exc:
            raise ValueError(
                f"bad parameters for nonlinearity {nl_doc['kind']!r}: {exc}"
            ) from None

        sol_doc = doc.get("solver", {})
        if not isinstance(sol_doc, dict):
            raise ValueError('config "solver" must be an object')
        try:
            solver = SolverConfig(**sol_doc)
        except TypeError as exc:
            raise ValueError(f"bad solver settings: {exc}") from None

        for key in ("alpha", "T"):
            if not _is_real(doc[key]):
                raise ValueError(f"{key} must be a real number, got {doc[key]!r}")
        return cls(
            alpha=float(doc["alpha"]),
            T=float(doc["T"]),
            n=doc["n"],
            k_max=doc["k_max"],
            nonlinearity=nl,
            solver=solver,
        )

    @classmethod
    def load(cls, path) -> "ProblemSpec":
        """Read and validate a JSON config file.  I/O errors propagate."""
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls.from_config(doc)

