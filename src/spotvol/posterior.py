"""Posterior fit container, saved as fit.json plus a .npy file of draws."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import IncompatibleFit
from .ingest import write_json


@dataclass
class PosteriorFit:
    """Merged posterior draws plus diagnostics and training metadata.

    ``draws`` is (n_chains * kept_per_chain, n_params) on the constrained
    scale, chain-major. ``summary`` means are exact column means of draws.
    """

    draws: np.ndarray
    param_names: list
    n_chains: int
    kept_per_chain: int
    diagnostics: dict
    summary: dict
    train_summary: dict = field(default_factory=dict)
    model_family: str = ""

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.param_names.index(name)
        except ValueError:
            raise KeyError(f"no parameter named {name!r}") from None
        return self.draws[:, j]

    def h_draws(self) -> np.ndarray:
        """Draws of the latent log-volatility path, (n_draws_total, T)."""
        idx = [j for j, n in enumerate(self.param_names) if n.startswith("h[")]
        return self.draws[:, idx]

    @property
    def warnings(self) -> list:
        return self.diagnostics.get("warnings", [])

    def save(self, path) -> None:
        """Draws file first, so that a complete fit.json names a complete one."""
        path = Path(path)
        draws = np.ascontiguousarray(self.draws, dtype="<f8")
        np.save(path.with_name(f"{path.stem}.draws.npy"), draws)
        write_json(path, {
            "model_family": self.model_family,
            "param_names": list(self.param_names),
            "n_chains": self.n_chains,
            "kept_per_chain": self.kept_per_chain,
            "draws": {"file": f"{path.stem}.draws.npy",
                      "sha256": hashlib.sha256(draws).hexdigest()},
            "diagnostics": self.diagnostics,
            "summary": self.summary,
            "train_summary": self.train_summary,
        })

    @classmethod
    def load(cls, path) -> "PosteriorFit":
        path = Path(path)
        try:
            d = json.loads(path.read_text())
            ref = d["draws"]
            if "data" in ref:
                raise IncompatibleFit(f"{path} is in an older format; refit")
            draws = np.load(path.with_name(ref["file"]))
            fit = cls(
                draws=draws,
                param_names=list(d["param_names"]),
                n_chains=int(d["n_chains"]),
                kept_per_chain=int(d["kept_per_chain"]),
                diagnostics=d["diagnostics"],
                summary=d["summary"],
                train_summary=d.get("train_summary", {}),
                model_family=d.get("model_family", ""),
            )
            if (draws.shape != (fit.n_chains * fit.kept_per_chain,
                                len(fit.param_names))
                    or hashlib.sha256(draws).hexdigest() != ref["sha256"]):
                raise IncompatibleFit(f"{ref['file']} does not match {path}")
            float(fit.diagnostics["max_rhat"])  # forecast and report read it
            return fit
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise IncompatibleFit(f"cannot read a fit from {path}: "
                                  f"{type(exc).__name__}: {exc}") from None


def summarize_draws(draws: np.ndarray, param_names) -> dict:
    """Per-parameter mean/sd/quantiles; means are exact column means (the
    same reduction a caller gets from draws[:, j].mean()), taken in one
    pass along the rows of a contiguous transposed copy."""
    mean = np.ascontiguousarray(draws.T).mean(axis=1)
    sd = draws.std(axis=0, ddof=1)
    q = np.percentile(draws, [2.5, 50.0, 97.5], axis=0)
    return {
        name: {
            "mean": float(mean[j]),
            "sd": float(sd[j]),
            "q2.5": float(q[0, j]),
            "q50": float(q[1, j]),
            "q97.5": float(q[2, j]),
        }
        for j, name in enumerate(param_names)
    }
