"""Seeded scenario generators for the benchmark workloads.

Every workload is a scenario document produced from the benchmark's
``--seed`` alone; the program under test receives only the YAML text.
Parameter ranges are fixed here, not chosen per seed, so a seed on which a
row fails is reported, never skipped.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import yaml

# The shipped full matrix, frozen when the benchmark was defined so that a
# later edit of scenarios/full_matrix.yaml cannot change this workload.
FULL_MATRIX_YAML = (Path(__file__).resolve().parent / "scenarios"
                    / "full_matrix.yaml").read_text(encoding="utf-8")

# framekit's DEFAULT_TOLERANCES when the benchmark was defined.  worst_margin
# is measured against these, not against each row's own ``tol``, so a later
# tightening of a tolerance does not read as lost accuracy.
TOL_REF = {
    "div_invariance": 1e-6,
    "scalar_grad_invariance": 1e-6,
    "velgrad_relation": 1e-6,
    "strain_rate_invariance": 1e-6,
    "vorticity_relation": 1e-6,
    "stress_transform": 1e-12,
    "constitutive_invariance": 1e-6,
    "acceleration_decomposition": 1e-5,
    "ns_rhs_equivalence": 1e-4,
}
SCALAR_FIELDS = ("gaussian_T", "linear_T")
SCALAR_CHECKS = ("scalar_grad_invariance",)

NESTED_FD_SAMPLES = 200


def _u(rng: random.Random, lo: float, hi: float, n: int | None = None):
    if n is None:
        return round(rng.uniform(lo, hi), 6)
    return [round(rng.uniform(lo, hi), 6) for _ in range(n)]


def _axis(rng: random.Random) -> list:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = sum(c * c for c in v) ** 0.5
        if norm > 0.1:
            return [round(c / norm, 6) for c in v]


def full_matrix(seed: int) -> str:
    """The shipped 6 x 7 x 9 matrix (252 triples, N=100), seed overridden."""
    text, n = re.subn(r"(?m)^seed: \d+$", f"seed: {seed}", FULL_MATRIX_YAML)
    if n != 1:
        raise ValueError("frozen full_matrix.yaml has no single 'seed:' line")
    return text


def nested_fd(seed: int) -> str:
    """3 seeded rotating frames x 3 flows x the 2 nested/time-FD checks.

    Flow, pressure and material parameters are the shipped matrix's: only
    the frames vary with the seed, so worst_margin does not swing with a
    flow's wavenumber or the viscosity from one seed to the next.
    """
    rng = random.Random(f"nested_fd/{seed}")
    doc = {
        "frames": [
            {"name": "constant_rotation",
             "params": {"axis": _axis(rng), "rate": _u(rng, 0.5, 3.0)}},
            {"name": "wobble",
             "params": {k: _u(rng, -1.0, 1.0, 4)
                        for k in ("angles_x", "angles_y", "angles_z")}},
            {"name": "screw",
             "params": {"axis": _axis(rng), "rate": _u(rng, 0.5, 2.5),
                        "velocity": _u(rng, -1.0, 1.0, 3)}},
        ],
        "fields": [
            {"name": "taylor_green",
             "params": {"amplitude": 1.0, "wavenumber": 1.0,
                        "mod_amp": 0.3, "mod_freq": 2.0}},
            {"name": "shear", "params": {"rate": 3.0}},
            {"name": "rigid_rotation", "params": {"omega": [0.0, 0.0, 2.0]}},
        ],
        "checks": ["acceleration_decomposition", "ns_rhs_equivalence"],
        "box": [[-1.0, 1.0] for _ in range(3)],
        "samples": NESTED_FD_SAMPLES,
        "seed": seed,
        "fd": {"h": 1.0e-3, "ht": 1.0e-5, "order": 4},
        "material": {"mu": 0.7, "rho": 1.2, "g": [0.0, 0.0, -9.81],
                     "conductivity": 2.0},
        "pressure": {"name": "gaussian_T",
                     "params": {"amplitude": 1.0, "width": 0.8}},
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


WORKLOADS = {
    "full_matrix": full_matrix,
    "nested_fd": nested_fd,
}


def expected_triples(doc: dict) -> list:
    """(frame, field, check) in report order, derived from the document alone."""
    def names(entries):
        return [e if isinstance(e, str) else e["name"] for e in entries]

    out = []
    for frame in names(doc["frames"]):
        for field in names(doc["fields"]):
            for check in doc["checks"]:
                if (check in SCALAR_CHECKS) == (field in SCALAR_FIELDS):
                    out.append((frame, field, check))
    return out
