"""Shared builders for the default frame/field matrix used across tests."""

import numpy as np
import pytest
from hypothesis import Verbosity, settings

from framekit import make_field, make_frame

# One hypothesis profile for every test: derandomized and without an example
# database, so a run is repeatable and writes nothing; no deadline, since the
# host's speed varies.  Quiet, because hypothesis's note on a falsifying
# example makes its pytest plugin import libcst, which, where it is
# installed, warns on import and so aborts a run under -W error before the
# remaining tests report.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          verbosity=Verbosity.quiet)
settings.load_profile("tier1")


def builtin_frames():
    """The six built-in frames with the parameters used by the scenarios."""
    return {
        "identity": make_frame("identity"),
        "uniform_translation": make_frame(
            "uniform_translation", velocity=[0.7, -0.3, 0.25]),
        "accelerated_translation": make_frame(
            "accelerated_translation",
            coeffs=[[0.0, 0.4, 0.8, 0.1],
                    [0.0, -0.2, 0.3, 0.0],
                    [0.0, 0.1, -0.5, 0.2]]),
        "constant_rotation": make_frame(
            "constant_rotation", axis=[0, 0, 1], rate=2.0),
        "wobble": make_frame(
            "wobble", angles_x=[0.0, 0.9, 0.4, 0.0],
            angles_y=[0.3, 0.7, 0.0, 0.2],
            angles_z=[0.0, 1.1, -0.3, 0.0]),
        "screw": make_frame(
            "screw", axis=[0, 0, 1], rate=1.5, velocity=[0.0, 0.0, 0.6]),
    }


def seeded_rotation(name, seed):
    """A rotating catalog frame with seeded params, and its factors."""
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    rate = rng.uniform(0.5, 3.0)
    if name == "wobble":
        angles = {k: rng.uniform(-1.0, 1.0, 4).tolist()
                  for k in ("angles_x", "angles_y", "angles_z")}
        factors = list(zip(np.eye(3), angles.values()))
        return make_frame(name, **angles), factors
    params = {"axis": axis.tolist(), "rate": rate}
    if name == "screw":
        params["velocity"] = rng.uniform(-1.0, 1.0, 3).tolist()
    return make_frame(name, **params), [(axis, [0.0, rate])]


def builtin_flows():
    return {
        "uniform": make_field("uniform", velocity=[1.0, 0.0, 0.0]),
        "shear": make_field("shear", rate=3.0),
        "rigid_rotation": make_field("rigid_rotation", omega=[0.0, 0.0, 2.0]),
        "taylor_green": make_field("taylor_green", amplitude=1.0,
                                   wavenumber=1.0, mod_amp=0.3, mod_freq=2.0),
        "poly_linear": make_field("poly_linear", scale=1.0),
    }


def builtin_scalars():
    return {
        "gaussian_T": make_field("gaussian_T", amplitude=1.0, width=0.8),
        "linear_T": make_field("linear_T", coeffs=[1.0, -2.0, 0.5]),
    }


@pytest.fixture
def frames():
    return builtin_frames()


@pytest.fixture
def flows():
    return builtin_flows()


@pytest.fixture
def scalars():
    return builtin_scalars()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
