"""Accounting invariants of the shared-cmat coll phase.

Pins down the quantitative bookkeeping the paper's argument rests on:
per-rank AllToAll volumes, coll compute work, and the exact memory
ledger state of an ensemble — complementing the equivalence tests with
"the numbers add up" checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgyro.presets import small_test
from repro.cgyro.solver import CgyroSimulation
from repro.collision.cmat import cmat_total_bytes
from repro.machine.presets import single_node
from repro.vmpi.world import VirtualWorld
from repro.xgyro.driver import XgyroEnsemble


def make_ensemble(k=2, n_ranks=16, **kw):
    base = small_test(**kw)
    inputs = [base.with_updates(dlntdr=(2.0 + m, 2.0 + m), name=f"m{m}") for m in range(k)]
    world = VirtualWorld(single_node(ranks=n_ranks))
    return XgyroEnsemble(world, inputs)


class TestVolumeAccounting:
    def test_ensemble_transpose_moves_one_block_per_rank(self):
        """The shared-coll AllToAll's per-rank send volume equals one
        full STR block — identical to the stock transpose, so the paper
        never claims an AllToAll saving."""
        ens = make_ensemble()
        world = ens.world
        ens.scheme.ensemble_collision_step()
        dec = ens.members[0].decomp
        d = ens.members[0].dims
        block_bytes = d.nc * dec.nv_loc * dec.nt_loc * 16
        for ev in world.trace.filter(kind="alltoall", category="coll_comm"):
            assert ev.nbytes == block_bytes

    def test_coll_compute_work_matches_stock_per_rank(self):
        """Each ensemble rank applies k small blocks whose total flops
        equal one stock nc_loc application — same per-rank coll work."""
        world_a = VirtualWorld(single_node(ranks=8))
        solo = CgyroSimulation(world_a, range(8), small_test())
        solo.collision_phase()
        stock = world_a.category_time("coll_compute", solo.ranks)

        ens = make_ensemble(k=2, n_ranks=16)
        ens.scheme.ensemble_collision_step()
        shared = ens.world.category_time("coll_compute", ens.ranks)
        assert shared == pytest.approx(stock, rel=1e-9)

    def test_transpose_count_is_two_per_group_per_step(self):
        ens = make_ensemble()
        ens.step()
        dec = ens.members[0].decomp
        events = ens.world.trace.filter(kind="alltoall", category="coll_comm")
        assert len(events) == 2 * dec.n_proc_2


class TestLedgerAccounting:
    def test_every_rank_holds_equal_cmat_share(self):
        ens = make_ensemble(k=4, n_ranks=16)
        world = ens.world
        sizes = {world.ledgers[r].size_of("cmat") for r in range(16)}
        assert len(sizes) == 1
        assert sum(world.ledgers[r].size_of("cmat") for r in range(16)) == (
            cmat_total_bytes(ens.members[0].dims)
        )

    def test_member_state_buffers_scale_with_member_width(self):
        """An XGYRO member's non-cmat footprint equals a standalone
        run's at the same rank count (sharing touches only cmat)."""
        world_solo = VirtualWorld(single_node(ranks=8))
        solo = CgyroSimulation(world_solo, range(8), small_test())
        ens = make_ensemble(k=2, n_ranks=16)
        assert (
            ens.members[0].state_bytes_per_rank()
            == solo.state_bytes_per_rank()
        )

    def test_collision_preserves_global_state_norm_bound(self):
        """The shared coll step is contractive on every member (mode-0
        momentum preserved, nothing amplified) — the physics invariant
        surviving the distributed bookkeeping."""
        ens = make_ensemble(k=2, n_ranks=16)
        before = [np.linalg.norm(m.gather_h()[:, :, 0]) for m in ens.members]
        ens.scheme.ensemble_collision_step()
        after = [np.linalg.norm(m.gather_h()[:, :, 0]) for m in ens.members]
        for b, a in zip(before, after):
            assert a <= b * (1 + 1e-12)
