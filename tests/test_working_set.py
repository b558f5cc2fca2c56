"""The working set of a check call, pinned with tracemalloc: a grouped call's
peak, the memory a finished run still holds, and the frame-jet reuse within
a call that bounding them must keep.  tracemalloc counts the bytes numpy and
Python allocate, so these figures are the same on every run of one build."""

import dataclasses
import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from framekit import frames, load_scenario, make_field, objectivity as obj, parse_scenario
from framekit import run_suite

from conftest import builtin_frames

MB = 1e6
FULL_MATRIX = Path(__file__).parent.parent / "scenarios" / "full_matrix.yaml"
# Three rotating frames x three flows x the time-stencil and nested-stencil
# checks at N = 200: the largest grouped batches of the shipped checks.
NESTED = """
frames:
  - name: constant_rotation
    params: {axis: [0.6, 0.0, 0.8], rate: 2.1}
  - name: wobble
    params: {angles_x: [0.2, -0.7, 0.5, 0.1], angles_y: [-0.4, 0.3, 0.9, -0.6],
             angles_z: [0.8, 0.1, -0.2, 0.4]}
  - name: screw
    params: {axis: [0.0, 0.6, 0.8], rate: 1.3, velocity: [0.4, -0.9, 0.2]}
fields:
  - name: taylor_green
    params: {amplitude: 1.0, wavenumber: 1.0, mod_amp: 0.3, mod_freq: 2.0}
  - name: shear
    params: {rate: 3.0}
  - name: rigid_rotation
    params: {omega: [0.0, 0.0, 2.0]}
checks: [acceleration_decomposition, ns_rhs_equivalence]
samples: 200
material: {mu: 0.7, rho: 1.2}
pressure: {name: gaussian_T, params: {amplitude: 1.0, width: 0.8}}
"""


def traced(call) -> tuple:
    """(peak, held) in bytes above the traced memory before call(): its
    highest, and what is left once its return value is dropped."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        held, peak = tracemalloc.get_traced_memory()
        return peak - before, held - before
    finally:
        tracemalloc.stop()


def scenarios():
    return {"full_matrix": load_scenario(FULL_MATRIX), "nested": parse_scenario(NESTED)}


def test_a_grouped_time_stencil_call_peaks_under_2_mb():
    """acceleration_decomposition on wobble with three flows of 200 samples: its
    time stencil's jet has 2,400 times, folded 512 at a time."""
    frame = builtin_frames()["wobble"]
    flows = [make_field("taylor_green", mod_amp=0.3, mod_freq=2.0),
             make_field("shear", rate=3.0), make_field("rigid_rotation", omega=[0, 0, 2.0])]

    def call():
        obj.check_acceleration_decomposition(
            frame, flows, samples=200, rng=[np.random.default_rng([7, i]) for i in range(3)])
    call()   # numpy's and the library's first-call allocations are not the call's
    peak, held = traced(call)
    assert peak <= 2.0 * MB
    assert held <= 0.05 * MB


@pytest.mark.parametrize("name", ["full_matrix", "nested"])
def test_a_finished_run_keeps_no_jet(name):
    """After run_suite, no frame holds a jet, so almost nothing of the run stays
    in memory."""
    scenario = scenarios()[name]
    run_suite(dataclasses.replace(scenario, samples=1))
    _, held = traced(lambda: run_suite(scenario))
    assert held <= 0.2 * MB
    for _, frame in scenario._built[0]:
        assert frame._last == (None, None)


def test_a_frame_of_a_built_in_frames_parts_leaves_nothing_in_it():
    """A frame built from wobble's rotation parts, each of which folds for
    itself, changes nothing in wobble, and once released holds nothing."""
    wobble = builtin_frames()["wobble"]
    kept = dict(vars(wobble))
    frame = frames.RigidFrameMotion("parts", y=wobble._y, alpha=wobble._alpha)
    t = np.linspace(0.0, 1.0, 1000)
    frame.state(t[:5])   # the first call's allocations are not the jet's
    frame.release()
    _, held = traced(lambda: (frame.state(t), frame.release()))
    assert held <= 0.01 * MB
    assert vars(wobble).keys() == kept.keys()
    assert all(vars(wobble)[key] is value for key, value in kept.items())


def test_a_dropped_built_in_frame_is_freed_without_the_collector():
    """No built-in frame is in a reference cycle: with the cyclic collector
    off, each is freed as soon as it is dropped, after a jet too."""
    gc.disable()
    try:
        built = builtin_frames()
        for frame in built.values():
            frame.state(np.linspace(0.0, 1.0, 9))
        refs = {name: weakref.ref(frame) for name, frame in built.items()}
        del built, frame
        assert {name: ref() for name, ref in refs.items()} == dict.fromkeys(refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("name, reads, misses", [("full_matrix", 282, 60), ("nested", 45, 9)])
def test_a_check_call_still_reuses_its_jets(monkeypatch, name, reads, misses):
    """Releasing a frame after each check call costs no jet evaluation: every
    read of the same times within a call is still a hit."""
    scenario, counts = scenarios()[name], {"reads": 0, "misses": 0}
    state, jet = frames.RigidFrameMotion.state, frames.FrameState

    def counted_state(self, t):
        counts["reads"] += 1
        return state(self, t)

    def counted_jet(*parts):
        counts["misses"] += 1
        return jet(*parts)
    monkeypatch.setattr(frames.RigidFrameMotion, "state", counted_state)
    monkeypatch.setattr(frames, "FrameState", counted_jet)
    assert run_suite(scenario).passed
    assert counts == {"reads": reads, "misses": misses}

