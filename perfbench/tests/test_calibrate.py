"""Run with ``python3 -m pytest perfbench/tests -q`` from the repository root."""

import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import calibrate  # noqa: E402


def test_factor_uses_the_gaps_on_both_sides_of_the_last_operation():
    calibration = calibrate.Calibration()
    # The median of 0.1, 0.1, 0.1, 0.1, 0.9: one slow sample does not move it.
    calibration.gaps = [[9.0], [0.1, 0.1, 0.1], [0.1, 0.9]]
    assert calibration.factor() == pytest.approx(calibrate.NOMINAL_S / 0.1)


def test_an_operation_needs_a_gap_before_and_after_it():
    calibration = calibrate.Calibration()
    with pytest.raises(ValueError):
        calibration.factor()
    calibration.sample(1)
    with pytest.raises(ValueError):
        calibration.factor()


def test_sample_times_each_task_and_restores_the_collector():
    calibration = calibrate.Calibration()
    calibration.sample(2)
    calibration.sample(1)
    assert [len(gap) for gap in calibration.gaps] == [2, 1]
    assert all(sample > 0 for gap in calibration.gaps for sample in gap)
    assert gc.isenabled()
    assert calibration.factor() > 0


def test_reference_task_is_deterministic():
    assert calibrate.reference_task() == calibrate.reference_task()
