"""Tests for the host-calibration spin the repository benchmark stamps."""

import pytest

from repro.bench import CALIBRATION_OPS, _calibration_spin, host_calibration


class TestHostCalibration:
    def test_spin_score_is_positive_and_repeatable_shape(self):
        host = host_calibration(repeats=2)
        assert host["spin_ops"] > 0
        assert host["spin_best_s"] > 0
        assert host["ops_per_s"] == pytest.approx(
            host["spin_ops"] / host["spin_best_s"], rel=1e-3
        )

    def test_spin_is_fixed_work(self):
        # The same checksum every call: every score times the same work.
        assert _calibration_spin() == _calibration_spin()
        assert host_calibration(repeats=1)["spin_ops"] == CALIBRATION_OPS

    def test_repeats_below_one_still_measure_once(self):
        host = host_calibration(repeats=0)
        assert host["spin_best_s"] > 0
        assert host["ops_per_s"] > 0
