"""Every immutable value type through copy, deepcopy and pickle."""

import copy
import importlib
import json
import pickle
import pkgutil

import numpy as np
import pytest

import g2kit
from g2kit import betti, eguchi_hanson, flow, forms, poincare, scenarios, torus
from g2kit._frozen import Frozen


def frozen_types():
    """Every Frozen subclass defined in a g2kit module."""
    for info in pkgutil.iter_modules(g2kit.__path__):
        importlib.import_module(f"g2kit.{info.name}")
    return {cls for cls in Frozen.__subclasses__()
            if cls.__module__.startswith("g2kit.")}


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """One instance of each value type, built through the library."""
    system = flow.build_mode_system(2, 1)
    Q = flow.random_quadratic(system, 0.1 * system.mu, seed=0)
    x0 = system.random_minus_state(seed=1, norm=0.01)
    traj = flow.integrate_flow(system, Q, x0, T=0.05, samples=3)
    alpha = torus.AffineTorusMap([-1, -1, 1, 1], ["1/2", 0, 0, 0],
                                 lines=[4], name="alpha")
    form = poincare.random_exact_form(2, 2, 2, seed=0)
    path = tmp_path_factory.mktemp("frozen") / "half.json"
    path.write_text(json.dumps({
        "name": "half", "circles": 3, "checks": ["betti"],
        "generators": [{"name": "g", "signs": [-1, -1, -1]}]}))
    report = scenarios.run_scenario("coassoc-5.2", 0)
    b7 = betti.BettiVector([1, 0, 2, 3, 3, 2, 0, 1])
    b6 = betti.BettiVector([1, 0, 2, 2, 2, 0, 1])
    return [
        system, x0, Q, traj, flow.monotone_gap_check(traj),
        eguchi_hanson.kahler_metric_at(1.0, 0.5, 0.25j),
        eguchi_hanson.scaling_identity_probe(
            1.0, 2.0, eguchi_hanson.sample_points(2, 1.0, seed=0)),
        eguchi_hanson.curvature_injectivity_scaling_probe([0.5, 1.0]),
        poincare.ComplexFrac(1, -2), form, poincare.poincare_primitive(form),
        forms.PHI0, forms.LinearMapR([[0, 1], [1, 0]]),
        forms.MetricTensor([[2, 0], [0, 3]]),
        b7, betti.NonSymplecticInvariants(10, 8),
        betti.mv_euler_check(b7, b7, b7, b6),
        alpha, torus.generate_group([alpha]), torus.fixed_set(alpha)[0],
        report, report.rows[0], scenarios.load_scenario(path),
    ]


def same(a, b):
    """a and b hold the same values, field by field and bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Frozen):
        return all(same(getattr(a, n), getattr(b, n)) for n in a.__slots__)
    if isinstance(a, np.ndarray):
        return (a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return (list(a) == list(b)
                and all(same(a[k], b[k]) for k in a))
    if isinstance(a, (float, complex)):
        return repr(a) == repr(b)
    return a == b


ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda o: pickle.loads(pickle.dumps(o)),
}


def test_a_sample_of_every_type(samples):
    assert {type(s) for s in samples} == frozen_types()


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_round_trip_keeps_fields_and_stays_immutable(samples, how):
    for sample in samples:
        got = ROUND_TRIPS[how](sample)
        assert same(got, sample), type(sample).__name__
        if type(sample).__eq__ is not object.__eq__:
            assert got == sample
            if type(sample).__hash__ is not None:
                assert hash(got) == hash(sample)
        for name in sample.__slots__:
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(got, name, None)
