"""Tests for metric vectors, dominance and Pareto utilities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.casestudies import CASE_STUDIES
from repro.core.metrics import METRIC_NAMES, MetricVector
from repro.core.pareto import (
    ParetoCurve,
    ParetoPoint,
    pareto_front_2d,
    pareto_indices,
    trade_off_range,
)
from repro.core.simulate import run_simulation
from repro.ddt.registry import all_ddt_names, combinations
from repro.net.config import NetworkConfig


def vec(e=1.0, t=1.0, a=100, f=1000):
    return MetricVector(energy_mj=e, time_s=t, accesses=a, footprint_bytes=f)


class TestMetricVector:
    def test_tuple_order_matches_names(self):
        v = vec(1.0, 2.0, 3, 4)
        assert v.as_tuple() == (1.0, 2.0, 3, 4)
        assert METRIC_NAMES == ("energy_mj", "time_s", "accesses", "footprint_bytes")

    def test_get_by_name(self):
        v = vec(1.5, 2.5, 3, 4)
        assert v.get("energy_mj") == 1.5
        assert v.get("footprint_bytes") == 4
        with pytest.raises(KeyError):
            v.get("nope")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            vec(e=-1)
        with pytest.raises(ValueError):
            vec(a=-1)

    def test_dominance(self):
        better = vec(1, 1, 1, 1)
        worse = vec(2, 2, 2, 2)
        mixed = vec(0.5, 3, 1, 1)
        assert better.dominates(worse)
        assert not worse.dominates(better)
        assert not better.dominates(mixed)
        assert not mixed.dominates(better)
        assert not better.dominates(better)  # strictness
        assert better.weakly_dominates(better)

    def test_scaled(self):
        doubled = vec(1, 2, 3, 4).scaled(2)
        assert doubled == vec(2, 4, 6, 8)
        with pytest.raises(ValueError):
            vec().scaled(-1)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6),
                st.floats(min_value=0, max_value=1e6),
                st.integers(min_value=0, max_value=10**9),
                st.integers(min_value=0, max_value=10**9),
            ),
            min_size=2,
            max_size=20,
        )
    )
    def test_dominance_antisymmetric(self, raw):
        vectors = [vec(*t) for t in raw]
        for a in vectors:
            for b in vectors:
                assert not (a.dominates(b) and b.dominates(a))


class TestParetoIndices:
    def test_simple_front(self):
        points = [(1, 2), (2, 1), (2, 2), (3, 3)]
        assert pareto_indices(points) == [0, 1]

    def test_single_point(self):
        assert pareto_indices([(5, 5)]) == [0]

    def test_duplicates_all_kept(self):
        points = [(1, 1), (1, 1), (2, 2)]
        assert pareto_indices(points) == [0, 1]

    def test_4d(self):
        points = [(1, 2, 3, 4), (2, 1, 3, 4), (1, 2, 3, 5)]
        assert pareto_indices(points) == [0, 1]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=50),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_front_is_minimal_and_complete(self, points):
        front = set(pareto_indices(points))
        assert front  # never empty
        for i, p in enumerate(points):
            dominated = any(
                j != i
                and all(x <= y for x, y in zip(points[j], p))
                and any(x < y for x, y in zip(points[j], p))
                for j in range(len(points))
            )
            # a point is on the front iff it is not dominated
            assert (i in front) == (not dominated)


class TestParetoFront2D:
    def test_matches_general_front(self):
        points = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (3.0, 3.0), (0.5, 4.0)]
        assert sorted(pareto_front_2d(points)) == sorted(pareto_indices(points))

    def test_sorted_by_x(self):
        points = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0)]
        front = pareto_front_2d(points)
        xs = [points[i][0] for i in front]
        assert xs == sorted(xs)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_equivalent_to_nd_front(self, points):
        assert sorted(pareto_front_2d(points)) == sorted(pareto_indices(points))


class TestTradeOffRange:
    def test_paper_definition(self):
        assert trade_off_range([10.0, 1.0]) == pytest.approx(0.9)
        assert trade_off_range([5.0, 5.0]) == 0.0
        assert trade_off_range([0.0, 0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trade_off_range([])

    @given(st.lists(st.floats(min_value=0.001, max_value=1e6), min_size=1, max_size=30))
    def test_bounded_zero_one(self, values):
        assert 0.0 <= trade_off_range(values) < 1.0


class TestParetoCurve:
    def test_valid_front_shape(self):
        curve = ParetoCurve(
            x_metric="time_s",
            y_metric="energy_mj",
            config_label="cfg",
            points=(
                ParetoPoint(1.0, 5.0, "A"),
                ParetoPoint(2.0, 3.0, "B"),
                ParetoPoint(4.0, 1.0, "C"),
            ),
        )
        assert curve.is_valid_front()
        assert curve.labels() == ("A", "B", "C")
        assert len(curve) == 3

    def test_invalid_shape_detected(self):
        curve = ParetoCurve(
            x_metric="x",
            y_metric="y",
            config_label="cfg",
            points=(ParetoPoint(1.0, 1.0, "A"), ParetoPoint(2.0, 2.0, "B")),
        )
        assert not curve.is_valid_front()

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            ParetoCurve("x", "y", "cfg", points=())


# ----------------------------------------------------------------------
# the exact front: per-structure dominance prunes no front point
# ----------------------------------------------------------------------
def _part_cost(part):
    return (
        part.energy_pj,
        part.cpu_cycles + part.memory_cycles,
        part.accesses,
        part.footprint_bytes,
    )


@pytest.mark.parametrize("trace", ("Whittemore", "Berry-I"))
@pytest.mark.parametrize("study", CASE_STUDIES, ids=lambda study: study.name)
def test_exhaustive_front_uses_only_undominated_parts(study, trace):
    """A combination whose DDT on one structure is dominated on that
    structure's own part is dominated as a whole (swap in the dominating
    DDT), so every point of the exhaustive 4D front uses, on each
    structure, a DDT whose part no other part dominates.  One
    full-library lane run prices all 100 combinations."""
    library = all_ddt_names()
    structures = study.app_cls.dominant_structures
    config = NetworkConfig(trace, study.configs[0].app_params)
    run = run_simulation(study.app_cls, config, dict.fromkeys(structures, library))
    combos = list(combinations(structures, library))
    front = pareto_indices(
        [run.parts.select(combo).metrics().as_tuple() for combo in combos]
    )
    undominated = {}
    for structure in structures:
        parts = [part for part in run.parts.pools if part.name == structure]
        kept = pareto_indices([_part_cost(part) for part in parts])
        undominated[structure] = {parts[index].ddt for index in kept}
    misses = [
        combos[index]
        for index in front
        if any(combos[index][s] not in undominated[s] for s in structures)
    ]
    assert front and misses == []
