"""Posterior fit container and its JSON round trip."""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import IncompatibleFit
from .ingest import write_json


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return {
        "shape": list(arr.shape),
        "dtype": "<f8",
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _decode_array(d: dict) -> np.ndarray:
    raw = base64.b64decode(d["data"])
    return np.frombuffer(raw, dtype=d["dtype"]).reshape(d["shape"]).copy()


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

    def to_json_dict(self) -> dict:
        return {
            "model_family": self.model_family,
            "param_names": list(self.param_names),
            "n_chains": self.n_chains,
            "kept_per_chain": self.kept_per_chain,
            "draws": _encode_array(self.draws),
            "diagnostics": self.diagnostics,
            "summary": self.summary,
            "train_summary": self.train_summary,
        }

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "PosteriorFit":
        return cls(
            draws=_decode_array(d["draws"]),
            param_names=list(d["param_names"]),
            n_chains=int(d["n_chains"]),
            kept_per_chain=int(d["kept_per_chain"]),
            diagnostics=d["diagnostics"],
            summary=d["summary"],
            train_summary=d.get("train_summary", {}),
            model_family=d.get("model_family", ""),
        )

    @classmethod
    def load(cls, path) -> "PosteriorFit":
        try:
            return cls.from_json_dict(json.loads(Path(path).read_text()))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise IncompatibleFit(
                f"cannot read a fit from {path}: {exc!r}") from None


def summarize_draws(draws: np.ndarray, param_names) -> dict:
    """Per-parameter mean/sd/quantiles; means are exact column means (the
    same reduction a caller gets from draws[:, j].mean())."""
    mean = np.array([draws[:, j].mean() for j in range(draws.shape[1])])
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
