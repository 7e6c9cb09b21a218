"""One STR array per simulation, rank-stacked reductions.

:class:`~repro.cgyro.CgyroSimulation` holds its state as one
``(nc, nv, nt)`` array whose per-rank blocks are views, runs every RK
stage once on it, and hands each comm_1 AllReduce a
:class:`~repro.vmpi.datatypes.RankStacked` view.  Pinned here:

- the physics and the simulated clock are the parent's, bit for bit,
  over the decomposition / option matrix of
  ``tests/goldens/solver_states.json`` (recorded before the change);
- the host-side work per step is what the design says (count gates,
  red at their parents) while every *modeled* count — read off the
  world's trace, where the model lives — is the parent's;
- the views stay views through every phase, restore and restart, and a
  rebinding raises;
- the field solve really goes through the collective (negative
  control), and a mis-stacked operand is refused.
"""

from __future__ import annotations

import collections
import json
from pathlib import Path

import numpy as np
import pytest

import repro.cgyro.solver as solver_module
import repro.vmpi.communicator as communicator_module
from repro.cgyro.solver import CgyroSimulation
from repro.cgyro.fields import FieldSolver
from repro.cgyro.presets import small_test
from repro.cgyro.streaming import StreamingOperator
from repro.check.checker import CollectiveChecker
from repro.errors import CollectiveError, CommunicatorError
from repro.machine.presets import generic_cluster
from repro.resilience.checkpoint import CheckpointStore
from repro.vmpi.communicator import Communicator
from repro.vmpi.datatypes import RankStacked
from repro.vmpi.world import VirtualWorld
from repro.xgyro.baseline import SequentialCgyroBaseline
from repro.xgyro.driver import XgyroEnsemble

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def _machine():
    return generic_cluster(n_nodes=4, ranks_per_node=4)


def _ensemble(overlap="off"):
    """Nonlinear k = 2 on 16 ranks: each member is P1 = 2 x P2 = 4."""
    inputs = [
        small_test(name=f"m{i}", nonlinear=True, dlntdr=(3.0 + 0.1 * i, 3.0 + 0.1 * i))
        for i in range(2)
    ]
    return XgyroEnsemble(VirtualWorld(_machine()), inputs, overlap=overlap)


# ----------------------------------------------------------------------
# same bits as the parent
# ----------------------------------------------------------------------
def _golden_states():
    return json.loads((GOLDEN_DIR / "solver_states.json").read_text())


@pytest.mark.parametrize("name", sorted(_golden_states()))
def test_state_digests_recorded_at_the_parent(name, golden_generator):
    """h, flux, phi2 and the simulated clock after two report intervals
    reproduce the digests written before ``solver.py`` was touched."""
    assert sorted(golden_generator.SOLVER_STATE_CASES) == sorted(_golden_states())
    assert golden_generator.SOLVER_STATE_CASES[name]() == _golden_states()[name]


# ----------------------------------------------------------------------
# deterministic count gate: host work per step, modeled work unchanged
# ----------------------------------------------------------------------
#: modeled collectives and compute charges over the interval below at
#: the parent commit (e50a719), where ``rhs`` read 320 and
#: ``partial_moments`` 832.  The collective figures were first pinned
#: as calls of the like-named host entry points; what they meant — and
#: are now read from — is the world's trace: one event per blocking
#: (``charge_collective``) or posted (``post_collective``) collective.
_MODELED_CALLS_AT_PARENT = {
    "off": {
        "allreduce": 834,
        "iallreduce": 0,
        "alltoall": 100,
        "ialltoall": 0,
        "charge_collective": 934,
        "post_collective": 0,
        "charge_compute": 238,
    },
    "full": {
        "allreduce": 2,
        "iallreduce": 416,
        "alltoall": 60,
        "ialltoall": 160,
        "charge_collective": 62,
        "post_collective": 576,
        "charge_compute": 298,
    },
}


@pytest.mark.parametrize("overlap", sorted(_MODELED_CALLS_AT_PARENT))
def test_a_stage_runs_once_per_member_and_models_what_it_did(monkeypatch, overlap):
    calls = collections.Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(StreamingOperator, "rhs")
    count(FieldSolver, "partial_moments")
    # booked compute charges: the one compute body, which
    # ``charge_compute`` and a chunked field solve both call
    count(VirtualWorld, "_book_compute")
    # host calls on the reduction path (the gate below)
    count(Communicator, "allreduce")
    count(communicator_module, "reduce_ranks")
    count(solver_module, "allreduce_rounds")

    ens = _ensemble(overlap)
    world = ens.world
    world.install_checker(CollectiveChecker())
    calls.clear()  # the cmat build charges compute too
    assert len(world.trace) == 0
    ens.run_report_interval()

    sim = ens.members[0]
    members, steps = len(ens.members), sim.inp.steps_per_report
    p1, n_chunks = sim.decomp.n_proc_1, len(sim.costs.chunks)
    n_mom, p2 = sim.costs.n_moments, sim.decomp.n_proc_2
    assert (p1, n_chunks) == (2, 2)
    # four RK stages and the nl phase solve the fields every step, the
    # diagnostics once more per interval
    field_solves = members * (steps * 5 + 1)
    assert calls["rhs"] == 4 * steps * members
    assert calls["partial_moments"] <= p1 * n_chunks * field_solves

    # the model: one trace event per modeled collective
    modeled = collections.Counter({"charge_compute": calls["_book_compute"]})
    for event in world.trace:
        modeled[("i" if event.nonblocking else "") + event.kind] += 1
        modeled["post_collective" if event.nonblocking else "charge_collective"] += 1
    assert {k: modeled[k] for k in _MODELED_CALLS_AT_PARENT[overlap]} == (
        _MODELED_CALLS_AT_PARENT[overlap]
    )
    assert world.checker.n_completed == len(world.trace)
    per_label = collections.Counter(
        ev.comm_label for ev in world.trace.filter(kind="allreduce")
    )
    # overlapped, a chunk's moments travel in one aggregated iallreduce
    per_group = (1 if overlap == "full" else n_mom) * n_chunks * field_solves // members
    assert per_label == {
        **{c.label: per_group for m in ens.members for c in m.comm1.values()},
        **{m.comm_sim.label: 1 for m in ens.members},  # the diagnostics
    }

    # the host: a blocking field solve is one ``allreduce_rounds`` call
    # over its chunks, one ``reduce_ranks``, and never goes through
    # ``Communicator.allreduce``
    blocks = 0 if overlap == "full" else field_solves
    assert calls["allreduce_rounds"] == blocks
    assert calls["allreduce"] == members  # the diagnostics again
    assert calls["reduce_ranks"] == members + (
        blocks if blocks else p2 * n_chunks * field_solves
    )


# ----------------------------------------------------------------------
# aliasing: ranks hold views of the simulation's array, always
# ----------------------------------------------------------------------
def _assert_views(sim):
    dec = sim.decomp
    assert sim.h_global.flags.c_contiguous and sim.h_global.dtype == np.complex128
    assert tuple(sim.h) == sim.ranks
    for lr, r in enumerate(sim.ranks):
        i1, i2 = dec.coords_of(lr)
        block = sim.h_global[:, dec.nv_slice(i1), dec.nt_slice(i2)]
        assert np.shares_memory(sim.h[r], sim.h_global)
        assert sim.h[r].shape == block.shape and np.array_equal(sim.h[r], block)
        assert sim.h[r].__array_interface__["data"] == block.__array_interface__["data"]
    gathered = sim.gather_h()
    assert np.array_equal(gathered, sim.h_global)
    assert not np.shares_memory(gathered, sim.h_global)


def _changed(sim, advance):
    before = sim.h_global.copy()
    advance()
    return not np.array_equal(before, sim.h_global)


class TestRanksHoldViews:
    def test_through_every_phase_of_a_standalone_simulation(self, tmp_path):
        world = VirtualWorld(_machine(), 8)
        sim = CgyroSimulation(world, range(8), small_test(nonlinear=True))
        _assert_views(sim)
        for phase in (sim.streaming_phase, sim.nonlinear_phase, sim.collision_phase):
            assert _changed(sim, phase)
            _assert_views(sim)
        sim.save_checkpoint(tmp_path / "ck.npz")
        saved = sim.gather_h()
        sim.step()
        assert _changed(sim, lambda: sim.load_checkpoint(tmp_path / "ck.npz"))
        assert np.array_equal(sim.h_global, saved)
        _assert_views(sim)

    @pytest.mark.parametrize("overlap", ["off", "full"])
    def test_through_the_shared_coll_step_and_a_resilience_restore(self, overlap):
        ens = _ensemble(overlap)
        store = CheckpointStore()
        store.save(ens)
        saved = ens.member_states()
        for m in ens.members:
            m.streaming_phase()
            m.nonlinear_phase()
        before = ens.member_states()
        ens.scheme.ensemble_collision_step()
        for m, was, at_save in zip(ens.members, before, saved):
            assert not np.array_equal(m.h_global, was)
            _assert_views(m)
            store.restore_member(m)
            assert np.array_equal(m.h_global, at_save)
            _assert_views(m)

    def test_writing_into_a_block_writes_the_array_and_rebinding_raises(self):
        sim = _ensemble().members[0]
        r = sim.ranks[3]
        i1, i2 = sim.decomp.coords_of(3)
        sim.h[r][...] = 7.0
        block = sim.h_global[:, sim.decomp.nv_slice(i1), sim.decomp.nt_slice(i2)]
        assert (block == 7.0).all() and (sim.h_global == 7.0).sum() == block.size
        with pytest.raises(TypeError):
            sim.h[r] = np.zeros_like(sim.h[r])
        with pytest.raises(TypeError):
            del sim.h[r]
        with pytest.raises(AttributeError):
            sim.h_global = sim.h_global + 1.0


# ----------------------------------------------------------------------
# the stacked operand of a reduction
# ----------------------------------------------------------------------
class TestStackedOperand:
    def _operands(self):
        rng = np.random.default_rng(5)
        partial = rng.normal(size=(3, 2, 4, 6)) + 1j * rng.normal(size=(3, 2, 4, 6))
        view = partial[:, 1, :, 2:4]  # one moment, one toroidal group
        assert not view.flags.c_contiguous
        return partial, view

    def test_result_is_read_only_and_the_operand_untouched(self):
        comm = Communicator(VirtualWorld(_machine()), [5, 2, 9], label="g")
        partial, view = self._operands()
        before = partial.copy()
        out = comm.allreduce(RankStacked(comm.ranks, view))
        assert list(out) == [5, 2, 9]
        assert all(out[r] is out[5] for r in comm.ranks)
        assert not out[5].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            out[5][0, 0] = 0.0
        assert np.array_equal(partial, before)
        assert np.array_equal(out[5], view[0] + view[1] + view[2])
        waited = comm.iallreduce(RankStacked(comm.ranks, view)).wait()
        assert not waited[2].flags.writeable and np.array_equal(waited[2], out[5])

    @pytest.mark.parametrize("nonblocking", [False, True], ids=["blocking", "posted"])
    def test_a_plain_dict_and_its_stack_reduce_and_check_alike(self, nonblocking):
        _, view = self._operands()
        ranks = [5, 2, 9]
        operands = {
            "dict": lambda: {r: np.ascontiguousarray(view[i]) for i, r in enumerate(ranks)},
            "stacked": lambda: RankStacked(ranks, view),
            # rows in another order than the communicator's ranks: read
            # through the mapping, not taken as it stands
            "permuted": lambda: RankStacked([2, 9, 5], view[[1, 2, 0]]),
        }
        results, admitted, clocks, events = {}, {}, {}, {}
        for kind, operand in operands.items():
            world = VirtualWorld(_machine())
            world.install_checker(CollectiveChecker())
            comm = Communicator(world, ranks, label="g")
            if nonblocking:
                results[kind] = comm.iallreduce(operand()).wait()[5]
            else:
                results[kind] = comm.allreduce(operand())[5]
            admitted[kind] = world.checker.completed
            clocks[kind] = world.clock.copy()
            events[kind] = list(world.trace)
        assert len(admitted["dict"]) == 1 and len(events["dict"]) == 1
        for kind in ("stacked", "permuted"):
            assert np.array_equal(results[kind], results["dict"])
            assert results[kind].dtype == results["dict"].dtype
            assert admitted[kind] == admitted["dict"]
            assert np.array_equal(clocks[kind], clocks["dict"])
            assert events[kind] == events["dict"]

    @pytest.mark.parametrize("checker", [False, True], ids=["bare", "checked"])
    @pytest.mark.parametrize("method", ["allreduce", "iallreduce"])
    def test_an_operand_stacked_over_other_ranks_is_refused(self, checker, method):
        world = VirtualWorld(_machine())
        if checker:
            world.install_checker(CollectiveChecker())
        comm = Communicator(world, [0, 1, 2], label="g")
        _, view = self._operands()
        with pytest.raises(CommunicatorError, match=r"participant mismatch.*missing ranks \[2\]"):
            getattr(comm, method)(RankStacked([0, 1, 3], view))
        assert not world.clock.any() and len(world.trace) == 0
        if checker:
            assert world.checker.completed == []

    def test_rows_and_ranks_must_pair_up(self):
        _, view = self._operands()
        with pytest.raises(CollectiveError, match="one row per rank"):
            RankStacked([0, 1], view)
        with pytest.raises(CollectiveError, match="one row per rank"):
            RankStacked([0], np.float64(1.0))
        stacked = RankStacked([4, 6, 8], view)
        assert dict(stacked).keys() == {4, 6, 8} and 5 not in stacked
        assert [v.nbytes for v in stacked.values()] == [view[0].nbytes] * 3
        with pytest.raises(KeyError):
            stacked[5]


# ----------------------------------------------------------------------
# negative control: the fields a stage consumes come from the collective
# ----------------------------------------------------------------------
def _max_abs_vs_member_baseline(ens) -> float:
    base = SequentialCgyroBaseline(
        ens.world.machine, ens.inputs, n_ranks=len(ens.members[0].ranks)
    )
    for sim in base.simulations():
        sim.step()
    ens.step()
    return max(
        float(np.abs(sim.gather_h() - m.h_global).max())
        for sim, m in zip(base.simulations(), ens.members)
    )


@pytest.mark.parametrize("overlap", ["off", "str"])
def test_zeroing_one_ranks_row_of_an_operand_changes_the_physics(monkeypatch, overlap):
    assert _max_abs_vs_member_baseline(_ensemble(overlap)) == 0.0

    ens = _ensemble(overlap)
    victim = ens.members[1].comm1[2]
    tampered = []

    if overlap == "off":
        original = solver_module.allreduce_rounds

        def tampering(comms, stack, columns, *args, **kwargs):
            if victim in comms and not tampered:
                # what comm rank 1 of the victim group contributes
                stack[1, ..., columns[comms.index(victim)]] = 0.0
                tampered.append(victim.label)
            return original(comms, stack, columns, *args, **kwargs)

        monkeypatch.setattr(solver_module, "allreduce_rounds", tampering)
    else:
        original = Communicator.iallreduce

        def tampering(self, values, *args, **kwargs):
            if self is victim and not tampered:
                assert isinstance(values, RankStacked) and values.ranks == self.ranks
                values.array[1] = 0.0  # what comm rank 1 contributes
                tampered.append(self.label)
            return original(self, values, *args, **kwargs)

        monkeypatch.setattr(Communicator, "iallreduce", tampering)
    assert _max_abs_vs_member_baseline(ens) > 0.0
    assert tampered == [victim.label]
