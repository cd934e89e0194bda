"""Finite discrete distributions: the common currency of every check.

Outcome keys are hashable python objects (partition tuples, (outer, inner)
skew pairs, integer vectors).  JSON serialization uses a canonical string
form so that identical (config, seed) runs emit byte-identical files.
"""

from __future__ import annotations

import json


def key_to_str(key) -> str:
    """Canonical string form of an outcome key."""
    if isinstance(key, str):
        return key
    if isinstance(key, tuple) and len(key) == 2 and all(
        isinstance(x, tuple) for x in key
    ):
        outer, inner = key
        return f"{list(outer)}/{list(inner)}"
    if isinstance(key, tuple):
        return json.dumps([int(x) for x in key], separators=(",", ""))
    raise TypeError(f"cannot serialize outcome key {key!r}")


def str_to_key(s: str):
    """Inverse of key_to_str."""
    if "/" in s:
        outer, inner = s.split("/")
        return (tuple(json.loads(outer)), tuple(json.loads(inner)))
    return tuple(json.loads(s))


class DiscreteDistribution:
    """Finite map outcome -> probability, with an optional truncation deficit."""

    def __init__(self, outcomes: dict, mass_deficit: float = 0.0):
        outcomes = {k: float(v) for k, v in outcomes.items() if v != 0.0}
        if any(v < 0 for v in outcomes.values()):
            raise ValueError("negative probability")
        self.outcomes = outcomes
        self.mass_deficit = float(mass_deficit)

    def __getitem__(self, key) -> float:
        return self.outcomes.get(key, 0.0)

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self):
        return len(self.outcomes)

    def items(self):
        return self.outcomes.items()

    def total_mass(self) -> float:
        return sum(self.outcomes.values())

    def check_normalized(self, tol: float) -> None:
        total = self.total_mass()
        if abs(total - 1.0) > tol:
            raise ValueError(f"distribution mass {total} deviates from 1 by > {tol}")

    def expectation(self, f) -> float:
        return sum(p * f(k) for k, p in self.outcomes.items())

    def map_keys(self, f) -> "DiscreteDistribution":
        out: dict = {}
        for k, p in self.outcomes.items():
            nk = f(k)
            out[nk] = out.get(nk, 0.0) + p
        return DiscreteDistribution(out, mass_deficit=self.mass_deficit)

    def to_json_dict(self) -> dict:
        rows = sorted((key_to_str(k), p) for k, p in self.outcomes.items())
        return {
            "outcomes": [{"key": k, "prob": p} for k, p in rows],
            "mass_deficit": self.mass_deficit,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DiscreteDistribution":
        outcomes = {str_to_key(row["key"]): row["prob"] for row in d["outcomes"]}
        return cls(outcomes, mass_deficit=d.get("mass_deficit", 0.0))


def tv_distance(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """(1/2) sum |p - q| over the union of supports."""
    keys = set(p.outcomes) | set(q.outcomes)
    return 0.5 * sum(abs(p[k] - q[k]) for k in keys)
