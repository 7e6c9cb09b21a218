"""Tests for ensemble rank partitioning and validation."""

from __future__ import annotations

import pytest

from repro.errors import DecompositionError, EnsembleValidationError
from repro.cgyro.presets import small_test
from repro.grid.decomp import Decomposition
from repro.xgyro.partition import ensemble_coll_ranks, partition_ranks
from repro.xgyro.validate import validate_shareable


class TestPartitionRanks:
    def test_contiguous_equal_blocks(self):
        blocks = partition_ranks(range(8), 2)
        assert blocks == [(0, 1, 2, 3), (4, 5, 6, 7)]

    def test_single_member_gets_everything(self):
        assert partition_ranks(range(4), 1) == [(0, 1, 2, 3)]

    def test_uneven_split_rejected(self):
        with pytest.raises(DecompositionError):
            partition_ranks(range(10), 3)

    def test_invalid_member_count(self):
        with pytest.raises(DecompositionError):
            partition_ranks(range(4), 0)


class TestEnsembleCollRanks:
    def test_member_major_ordering(self):
        dims = small_test().grid_dims()
        dec = Decomposition(dims, 2, 2)  # 4 ranks per member
        members = [(0, 1, 2, 3), (4, 5, 6, 7)]
        # toroidal group 0 = local ranks (0, 1) of each member
        assert ensemble_coll_ranks(members, dec, 0) == (0, 1, 4, 5)
        assert ensemble_coll_ranks(members, dec, 1) == (2, 3, 6, 7)

    def test_member_size_mismatch_rejected(self):
        dims = small_test().grid_dims()
        dec = Decomposition(dims, 2, 2)
        with pytest.raises(DecompositionError):
            ensemble_coll_ranks([(0, 1, 2)], dec, 0)


class TestValidateShareable:
    def test_identical_inputs_share(self):
        validate_shareable([small_test(), small_test()])

    def test_gradient_sweep_shares(self):
        """The paper's use case: parameter sweeps over gradients."""
        base = small_test()
        sweep = [base.with_updates(dlntdr=(g, g)) for g in (2.0, 3.0, 4.0, 5.0)]
        validate_shareable(sweep)

    def test_seed_and_shear_sweeps_share(self):
        base = small_test()
        validate_shareable(
            [base, base.with_updates(seed=7), base.with_updates(gamma_e=0.2)]
        )

    def test_nu_mismatch_rejected_with_field_names(self):
        base = small_test()
        with pytest.raises(EnsembleValidationError) as exc:
            validate_shareable([base, base.with_updates(nu=0.9)])
        assert exc.value.mismatched_fields == ("nu",)
        assert "nu" in str(exc.value)

    def test_resolution_mismatch_rejected(self):
        base = small_test()
        other = small_test(n_xi=8)
        with pytest.raises(EnsembleValidationError) as exc:
            validate_shareable([base, other])
        assert "n_xi" in exc.value.mismatched_fields

    def test_dt_mismatch_rejected(self):
        base = small_test()
        with pytest.raises(EnsembleValidationError) as exc:
            validate_shareable([base, base.with_updates(delta_t=0.5)])
        assert exc.value.mismatched_fields == ("dt",)

    def test_offending_member_named(self):
        base = small_test()
        bad = base.with_updates(nu=0.7, name="rogue")
        with pytest.raises(EnsembleValidationError, match="rogue"):
            validate_shareable([base, base, bad])

    def test_empty_ensemble_rejected(self):
        with pytest.raises(EnsembleValidationError):
            validate_shareable([])
