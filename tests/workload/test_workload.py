"""Tests for the BSP workload model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import BSPWorkload


class TestBSPWorkload:
    def test_phases_partition_period(self):
        workload = BSPWorkload(period=180.0, compute_fraction=0.9)
        assert workload.compute_phase == pytest.approx(162.0)
        assert workload.io_phase == pytest.approx(18.0)
        assert workload.compute_phase + workload.io_phase == pytest.approx(180.0)

    def test_io_bandwidth_demand(self):
        workload = BSPWorkload(period=180.0, io_data_per_node=18e6)
        assert workload.io_bandwidth_demand_per_node == pytest.approx(1e5)

    def test_safe_points_spacing(self):
        workload = BSPWorkload(period=100.0)
        points = workload.safe_points(350.0)
        assert points == [0.0, 100.0, 200.0, 300.0]

    def test_quiesce_wait_zero_in_compute_phase(self):
        workload = BSPWorkload(period=100.0, compute_fraction=0.8)
        assert workload.quiesce_wait(10.0) == 0.0
        assert workload.quiesce_wait(79.9) == 0.0

    def test_quiesce_wait_during_io(self):
        workload = BSPWorkload(period=100.0, compute_fraction=0.8)
        # At offset 90 (10 s into the 20 s I/O phase) wait 10 s more.
        assert workload.quiesce_wait(90.0) == pytest.approx(10.0)

    def test_quiesce_wait_wraps_cycles(self):
        workload = BSPWorkload(period=100.0, compute_fraction=0.8)
        assert workload.quiesce_wait(190.0) == pytest.approx(10.0)

    def test_phases_cover_horizon(self):
        workload = BSPWorkload(period=100.0, compute_fraction=0.7)
        phases = list(workload.phases(250.0))
        assert phases[0] == (0.0, 70.0, "compute")
        assert phases[1] == (70.0, 100.0, "io")
        total = sum(end - start for start, end, _ in phases)
        assert total == pytest.approx(250.0)

    def test_pure_compute_has_no_io_phases(self):
        workload = BSPWorkload(period=100.0, compute_fraction=1.0)
        kinds = {kind for _, _, kind in workload.phases(300.0)}
        assert kinds == {"compute"}

    def test_validation(self):
        with pytest.raises(ValueError):
            BSPWorkload(period=0.0)
        with pytest.raises(ValueError):
            BSPWorkload(compute_fraction=1.2)
        with pytest.raises(ValueError):
            BSPWorkload(io_data_per_node=-1.0)
        with pytest.raises(ValueError):
            BSPWorkload().safe_points(0.0)
        with pytest.raises(ValueError):
            BSPWorkload().quiesce_wait(-1.0)

    @given(
        st.floats(min_value=10.0, max_value=1000.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=999.0),
    )
    @settings(max_examples=100)
    def test_quiesce_wait_bounded_by_io_phase(self, period, fraction, offset):
        workload = BSPWorkload(period=period, compute_fraction=fraction)
        wait = workload.quiesce_wait(offset)
        assert 0.0 <= wait <= workload.io_phase + 1e-9
