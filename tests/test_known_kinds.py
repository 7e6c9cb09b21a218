"""One kind list: which collectives exist.

:data:`repro.check.checker.KNOWN_KINDS` names the two collectives the model
issues, the str-phase AllReduce and the str<->coll AllToAll.  Every
surface that takes a kind by name follows it: the world and its cost
model charge nothing else, the checker admits nothing else, the trace
lint lists anything else as ``unknown-kind``, the replay and the
traffic matrix refuse it, and ``repro check-trace`` exits 2 on it.

The nine retired kinds each had branches of their own (a root, a
byte-count rule, a star or point-to-point attribution, a membership
exemption), so each is walked through every surface: a leftover branch
would make that kind behave differently from the rest.  ``gossip``
never existed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.check.checker import KNOWN_KINDS, CollectiveChecker
from repro.check.tracelint import lint_trace, replay_trace
from repro.cli import main as cli_main
from repro.errors import CollectiveError, ProtocolError, VmpiError
from repro.machine.presets import generic_cluster
from repro.perf.comm_matrix import communication_matrix
from repro.vmpi.world import VirtualWorld
from repro.vmpi.export import export_trace_json
from repro.vmpi.tracer import CollectiveEvent, TraceLog

RETIRED = (
    "barrier",
    "allgather",
    "bcast",
    "reduce",
    "gather",
    "scatter",
    "reduce_scatter",
    "scan",
    "sendrecv",
)
FOREIGN = RETIRED + ("gossip",)


def _world() -> VirtualWorld:
    return VirtualWorld(generic_cluster(n_nodes=2, ranks_per_node=2))


def _trace(kind: str) -> TraceLog:
    """A one-event trace: 8 bytes of ``kind`` between ranks 0 and 1."""
    log = TraceLog()
    log.record(
        CollectiveEvent(
            seq=1, kind=kind, comm_label="c", ranks=(0, 1), n_nodes=1,
            nbytes=8, algorithm="", t_start=0.0, cost_s=1e-6, category="",
        )
    )
    return log


@pytest.mark.parametrize("kind", FOREIGN)
class TestRefused:
    def test_the_world_charges_nothing(self, kind):
        world = _world()
        with pytest.raises(CollectiveError, match=f"unknown collective kind '{kind}'"):
            world.charge_collective(kind, (0, 1), 0, comm_label="a")
        assert len(world.trace) == 0 and not world.clock.any()

    def test_a_lockstep_block_charges_nothing(self, kind):
        world = _world()
        with pytest.raises(CollectiveError, match=f"unknown collective kind '{kind}'"):
            world.charge_collective_block(
                kind, ((0, 1), (2, 3)), (8, 8), 2,
                comm_labels=("a", "b"), algorithms=(None, None),
            )
        assert len(world.trace) == 0 and not world.clock.any()

    def test_the_cost_model_has_no_formula(self, kind):
        model = _world().cost_model
        with pytest.raises(CollectiveError, match=f"unknown collective kind '{kind}'"):
            model.collective_cost(kind, (0, 1, 2), 1024)

    @pytest.mark.parametrize("entry", ["post", "nb_post"])
    def test_the_checker_does_not_admit_it(self, kind, entry):
        ck = CollectiveChecker()
        with pytest.raises(ProtocolError) as exc:
            getattr(ck, entry)(0, comm_label="c", comm_ranks=(0, 1), kind=kind, nbytes=8)
        assert str(exc.value) == (
            f"unknown collective kind '{kind}' (seq 1: rank 0 {kind} on 'c' (8 B))"
        )
        assert exc.value.code == "unknown-kind"
        assert (exc.value.ranks, exc.value.seqs) == ((0,), (1,))
        assert not ck.rank_is_blocked(0) and ck.n_completed == 0

    def test_the_lint_lists_it_and_nothing_else(self, kind):
        rep = lint_trace(_trace(kind).events)
        assert [(p.seq, p.code) for p in rep.problems] == [(1, "unknown-kind")]
        assert f"unknown collective kind '{kind}'" in rep.render()

    def test_the_replay_refuses_it(self, kind):
        with pytest.raises(ProtocolError) as exc:
            replay_trace(_trace(kind).events)
        assert exc.value.code == "unknown-kind"
        assert f"unknown collective kind '{kind}'" in str(exc.value)

    def test_the_traffic_matrix_refuses_it(self, kind):
        with pytest.raises(VmpiError, match=f"trace event 1: unknown collective kind '{kind}'"):
            communication_matrix(_trace(kind), 4)

    def test_check_trace_exits_2(self, kind, tmp_path, capsys):
        path = tmp_path / "trace.json"
        export_trace_json(_trace(kind), path)
        assert cli_main(["check-trace", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: unknown collective kind '{kind}'")
        assert f"[unknown-kind] seq 1: unknown collective kind '{kind}'" in out


#: how a communicator issues each known kind on its members
_ISSUE = {
    "allreduce": lambda comm: comm.allreduce({r: np.ones(4) for r in comm.ranks}),
    "alltoall": lambda comm: comm.alltoall(
        {r: [np.ones(2) for _ in comm.ranks] for r in comm.ranks}
    ),
}


@pytest.mark.parametrize("kind", sorted(KNOWN_KINDS))
def test_a_known_kind_passes_every_surface(kind, tmp_path, capsys):
    """The positive control: what a communicator issues is charged,
    admitted, linted clean, replayed, attributed and checked."""
    world = _world()
    world.install_checker(CollectiveChecker())
    _ISSUE[kind](world.comm_world())
    assert [ev.kind for ev in world.trace] == [kind]
    assert world.checker.n_completed == 1 and world.clock.all()
    assert lint_trace(world.trace.events).ok
    assert replay_trace(world.trace.events).n_completed == 1
    assert communication_matrix(world.trace, world.n_ranks).sum() > 0.0
    path = tmp_path / "trace.json"
    export_trace_json(world.trace, path)
    assert cli_main(["check-trace", str(path)]) == 0
    assert "replay: 1 collectives re-executed" in capsys.readouterr().out
