"""Tests for input-file parsing/writing and timing CSV round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EnsembleValidationError, InputError
from repro.cgyro import small_test
from repro.cgyro.io import (
    parse_input_file,
    read_timing_csv,
    write_input_file,
    write_timing_csv,
)
from repro.cgyro.timing import CATEGORY_ORDER, ReportRow
from repro.collision.params import SpeciesParams
from repro.xgyro.input import parse_ensemble, write_ensemble


class TestInputFileRoundtrip:
    def test_roundtrip_preserves_input(self, tmp_path):
        inp = small_test(
            nu=0.123,
            dlntdr=(2.5, 4.5),
            gamma_e=0.07,
            nonlinear=True,
            seed=42,
            name="roundtrip",
        )
        path = tmp_path / "input.cgyro"
        write_input_file(inp, path)
        back = parse_input_file(path)
        assert back == inp

    def test_roundtrip_with_custom_species(self, tmp_path):
        species = (
            SpeciesParams("D", 1.0, 1.0, 0.9, 1.1),
            SpeciesParams("W", 10.0, 92.0, 0.01, 1.0),
        )
        inp = small_test(species=species)
        path = tmp_path / "input.cgyro"
        write_input_file(inp, path)
        assert parse_input_file(path).species == species

    def test_comments_and_blanks_ignored(self, tmp_path):
        inp = small_test()
        path = tmp_path / "input.cgyro"
        write_input_file(inp, path)
        text = "# a comment\n\n" + path.read_text() + "\nNU=0.5  # inline\n"
        path.write_text(text)
        assert parse_input_file(path).nu == 0.5

    def test_unknown_key_rejected_with_location(self, tmp_path):
        path = tmp_path / "input.cgyro"
        path.write_text("BOGUS_KEY=1\n")
        with pytest.raises(InputError, match="BOGUS_KEY"):
            parse_input_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "input.cgyro"
        path.write_text("JUST SOME WORDS\n")
        with pytest.raises(InputError, match="KEY=VALUE"):
            parse_input_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            parse_input_file(tmp_path / "nope")

    def test_missing_species_field(self, tmp_path):
        path = tmp_path / "input.cgyro"
        path.write_text("N_SPECIES=2\nZ_1=1.0\nMASS_1=1.0\nDENS_1=1.0\nTEMP_1=1.0\n")
        with pytest.raises(InputError, match="species 2"):
            parse_input_file(path)

    def test_invalid_values_still_validated(self, tmp_path):
        inp = small_test()
        path = tmp_path / "input.cgyro"
        write_input_file(inp, path)
        path.write_text(path.read_text().replace("DELTA_T=0.02", "DELTA_T=-1"))
        with pytest.raises(InputError, match="delta_t"):
            parse_input_file(path)


class TestTimingCsv:
    def _rows(self):
        return [
            ReportRow(
                step=10 * (i + 1),
                time=0.1 * (i + 1),
                wall_s=1.5 + i,
                categories={c: 0.1 * j for j, c in enumerate(CATEGORY_ORDER)},
                flux=np.zeros(2),
                phi2=np.zeros(2),
            )
            for i in range(3)
        ]

    def test_roundtrip(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "out.cgyro.timing"
        write_timing_csv(rows, path)
        back = read_timing_csv(path)
        assert len(back) == 3
        for a, b in zip(back, rows):
            assert a.step == b.step
            assert a.wall_s == pytest.approx(b.wall_s)
            for c in CATEGORY_ORDER:
                assert a.categories[c] == pytest.approx(b.categories[c])

    def test_header_contains_categories(self, tmp_path):
        path = tmp_path / "t.csv"
        write_timing_csv(self._rows(), path)
        header = path.read_text().splitlines()[0]
        for c in CATEGORY_ORDER:
            assert c in header


class TestEnsembleIo:
    def test_write_parse_roundtrip(self, tmp_path):
        base = small_test()
        inputs = [base.with_updates(dlntdr=(g, g), name=f"g{g}") for g in (2.0, 3.0)]
        top = write_ensemble(inputs, tmp_path / "study")
        assert top.name == "input.xgyro"
        back = parse_ensemble(top)
        assert back == inputs

    def test_parse_validates_shareability(self, tmp_path):
        base = small_test()
        bad = [base, base.with_updates(nu=0.9)]
        top = write_ensemble(bad, tmp_path / "study")
        with pytest.raises(EnsembleValidationError):
            parse_ensemble(top)

    def test_count_mismatch_rejected(self, tmp_path):
        top = write_ensemble([small_test()], tmp_path / "study")
        top.write_text(top.read_text().replace("N_ENSEMBLE=1", "N_ENSEMBLE=2"))
        with pytest.raises(InputError, match="N_ENSEMBLE"):
            parse_ensemble(top)

    def test_missing_member_dir(self, tmp_path):
        top = write_ensemble([small_test()], tmp_path / "study")
        (tmp_path / "study" / "member00" / "input.cgyro").unlink()
        with pytest.raises(InputError, match="not found"):
            parse_ensemble(top)

    def test_unknown_key_rejected(self, tmp_path):
        top = write_ensemble([small_test()], tmp_path / "study")
        top.write_text(top.read_text() + "WHAT=1\n")
        with pytest.raises(InputError, match="WHAT"):
            parse_ensemble(top)

    def test_custom_dir_names(self, tmp_path):
        inputs = [small_test(), small_test(seed=2)]
        top = write_ensemble(inputs, tmp_path / "s")
        for m, name in enumerate("ab"):
            (tmp_path / "s" / f"member{m:02d}").rename(tmp_path / "s" / name)
        top.write_text("N_ENSEMBLE=2\nDIR=a\nDIR=b\n")
        assert parse_ensemble(top) == inputs
