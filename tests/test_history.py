"""Tests for the time-history recorder."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.errors import InputError
from repro.cgyro.presets import small_test
from repro.cgyro.solver import CgyroSimulation
from repro.cgyro.history import TimeHistory
from repro.cgyro.timing import ReportRow
from repro.machine.presets import single_node
from repro.vmpi.world import VirtualWorld


def make_row(step, flux=None, phi2=None, wall=1.0):
    return ReportRow(
        step=step,
        time=step * 0.01,
        wall_s=wall,
        categories={"str_comm": 0.1 * step, "coll_comm": 0.05},
        flux=np.asarray(flux if flux is not None else [0.0, 1.0, 2.0]),
        phi2=np.asarray(phi2 if phi2 is not None else [1.0, 1.0, 1.0]),
    )


def _history(*rows):
    hist = TimeHistory()
    for row in rows:
        hist.append(row)
    return hist


FIRED = []


def _fire():
    FIRED.append(True)
    return "str_comm"


class _Sentinel:
    """Unpickling this runs :func:`_fire`: arbitrary code, as far as a
    loader of untrusted files is concerned."""

    def __reduce__(self):
        return (_fire, ())


class TestAccumulation:
    def test_series_shapes(self):
        hist = _history(make_row(10), make_row(20), make_row(30))
        assert len(hist) == 3
        assert hist.steps.tolist() == [10, 20, 30]
        assert hist.flux.shape == (3, 3)
        assert hist.phi2.shape == (3, 3)
        np.testing.assert_allclose(hist.walls, 1.0)

    def test_non_monotonic_steps_rejected(self):
        hist = TimeHistory()
        hist.append(make_row(10))
        with pytest.raises(InputError, match="monotonic"):
            hist.append(make_row(10))

    def test_shape_change_rejected(self):
        hist = TimeHistory()
        hist.append(make_row(10))
        with pytest.raises(InputError, match="shape"):
            hist.append(make_row(20, flux=[1.0, 2.0]))

    def test_empty_history_arrays(self):
        hist = TimeHistory()
        assert hist.flux.shape == (0, 0)
        assert hist.steps.size == 0


class TestAnalysis:
    def test_saturation_detection(self):
        hist = TimeHistory()
        # growing amplitude: not saturated
        for i, amp in enumerate([1.0, 4.0, 16.0]):
            hist.append(make_row(10 * (i + 1), phi2=[amp, amp, amp]))
        assert not hist.is_saturated()
        # flat amplitude tail: saturated
        for i, amp in enumerate([16.1, 15.9, 16.0]):
            hist.append(make_row(100 + 10 * i, phi2=[amp, amp, amp]))
        assert hist.is_saturated()

    def test_saturation_needs_enough_reports(self):
        hist = TimeHistory()
        hist.append(make_row(10))
        assert not hist.is_saturated()


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        hist = _history(make_row(10), make_row(20))
        path = tmp_path / "hist.npz"
        hist.save(path)
        back = TimeHistory.load(path)
        assert len(back) == 2
        np.testing.assert_allclose(back.flux, hist.flux)
        assert [r.categories for r in back._rows] == [
            r.categories for r in hist._rows
        ]

    def test_empty_save_rejected(self, tmp_path):
        with pytest.raises(InputError):
            TimeHistory().save(tmp_path / "x.npz")

    def test_missing_load(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            TimeHistory.load(tmp_path / "ghost.npz")

    def test_records_real_run(self, tmp_path):
        world = VirtualWorld(single_node(ranks=4))
        sim = CgyroSimulation(world, range(4), small_test(steps_per_report=2))
        hist = _history(*sim.run(3))
        assert len(hist) == 3
        assert np.all(hist.walls > 0)
        path = tmp_path / "run.npz"
        hist.save(path)
        assert TimeHistory.load(path).steps.tolist() == [2, 4, 6]

    def test_pickled_file_refused_and_never_unpickled(self, tmp_path):
        row = make_row(10)
        path = tmp_path / "hist.npz"
        np.savez(
            path, steps=np.array([10]), times=np.array([0.1]), walls=np.array([1.0]),
            flux=row.flux[None], phi2=row.phi2[None],
            categories=np.array([_Sentinel()], dtype=object),
            category_times=np.array([[0.5]]),
        )
        with pytest.raises(InputError, match=re.escape(str(path))):
            TimeHistory.load(path)
        assert not FIRED

    def test_malformed_file_refused(self, tmp_path):
        hist = _history(make_row(10), make_row(20))
        path = tmp_path / "hist.npz"
        hist.save(path)
        with np.load(path) as data:
            fields = dict(data)
        assert fields["categories"].dtype.kind == "U"
        np.savez(path, **dict(fields, walls=fields["walls"][:1]))
        with pytest.raises(InputError, match=re.escape(str(path))):
            TimeHistory.load(path)
        path.write_bytes(b"not an archive")
        with pytest.raises(InputError, match=re.escape(str(path))):
            TimeHistory.load(path)
