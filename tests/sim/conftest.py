"""Shared fixtures and helpers for the simulator test suite.

The small-torus topology/algorithm/traffic fixtures used to be
duplicated across ``test_simulator.py``, ``test_adaptive.py`` and
``test_measure.py``; they live here now, together with the case factory
and the equality helpers the differential and property suites are built
on.  Algorithms are cached per (radix, name) so the vectorized backend's
compiled path tables are reused across tests.
"""

import math

import numpy as np
import pytest

from repro.routing import IVAL, VAL, DimensionOrderRouting, RLB
from repro.topology import Torus
from repro.traffic import tornado, uniform

#: Algorithm factories available to the sim suites, by CLI-style name.
SIM_ALGORITHMS = {
    "DOR": DimensionOrderRouting,
    "VAL": VAL,
    "IVAL": IVAL,
    "RLB": RLB,
}


@pytest.fixture(scope="session")
def make_sim_case():
    """Factory: ``(k, alg_name, traffic_name) -> (torus, alg, traffic)``.

    Instances are cached for the whole session — a ``Torus`` is
    immutable, and reusing the algorithm objects lets the vectorized
    backend's per-algorithm compiled tables amortize across tests.
    """
    tori: dict[int, Torus] = {}
    algs: dict[tuple[int, str], object] = {}

    def _make(k: int, alg_name: str, traffic_name: str = "uniform"):
        torus = tori.setdefault(k, Torus(k, 2))
        key = (k, alg_name)
        if key not in algs:
            algs[key] = SIM_ALGORITHMS[alg_name](torus)
        traffic = {
            "uniform": lambda: uniform(torus.num_nodes),
            "tornado": lambda: tornado(torus),
        }[traffic_name]()
        return torus, algs[key], traffic

    return _make


@pytest.fixture(scope="module")
def t4():
    return Torus(4, 2)


@pytest.fixture(scope="module")
def dor4(t4):
    return DimensionOrderRouting(t4)


@pytest.fixture(scope="module")
def uniform4(t4):
    return uniform(t4.num_nodes)


@pytest.fixture(scope="module")
def tornado4(t4):
    return tornado(t4)


def assert_results_identical(a, b):
    """Field-by-field identity, treating NaN as equal to NaN.

    Plain dataclass ``==`` is false for any result with an empty
    measurement window (``nan != nan``), so determinism checks that
    must hold at *every* rate — including zero and far past
    saturation — compare through this helper instead.
    """
    import dataclasses

    for field in dataclasses.fields(a):
        x = getattr(a, field.name)
        y = getattr(b, field.name)
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y), field.name
        else:
            assert x == y, (field.name, x, y)


def assert_counts_equal(a, b):
    """Exact agreement on every packet count and derived count ratio.

    This is the hard differential bar: the two backends read the
    same counter-based uniforms, so delivered/injected/dropped/backlog/queue-peak
    and the accepted rate must match exactly, not approximately.
    """
    assert a.injected == b.injected
    assert a.delivered == b.delivered
    assert a.dropped == b.dropped
    assert a.lost == b.lost
    assert a.backlog == b.backlog
    assert a.backlog_growth == b.backlog_growth
    assert a.queue_peak == b.queue_peak
    assert a.accepted_rate == b.accepted_rate
    assert a.measurement_cycles == b.measurement_cycles
    assert a.stable == b.stable


def assert_latency_close(a, b, rel=1e-9):
    """Latency statistics agree within ``rel`` (or are both NaN).

    The backends deliver the *same packets at the same cycles*, so the
    latency samples are identical; only floating-point summation order
    may differ, hence a tight relative tolerance rather than equality.
    """
    for field in ("mean_latency", "p99_latency", "mean_hops"):
        x, y = getattr(a, field), getattr(b, field)
        if math.isnan(x) or math.isnan(y):
            assert math.isnan(x) and math.isnan(y), (field, x, y)
        else:
            assert x == pytest.approx(y, rel=rel), field


def assert_conservation(result):
    """Every injected packet is delivered, queued, dropped, or lost."""
    assert (
        result.injected
        == result.delivered + result.backlog + result.dropped + result.lost
    )


def relabel_traffic(traffic: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Apply a node relabeling to a traffic matrix."""
    return traffic[np.ix_(perm, perm)]
