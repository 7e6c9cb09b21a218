"""Figure 1 — CGYRO str and coll communication logic.

The paper's Figure 1 is structural: one communicator (comm_1, the nv
split within a toroidal group) is used for BOTH the str-phase
AllReduces (field + upwind partial-transform aggregation) and the
str<->coll AllToAll transpose.  This bench runs a traced simulation
step at the nl03c decomposition, derives the diagram from the executed
trace, verifies every structural property, and prints the rendering.
"""

from __future__ import annotations

import pytest

from repro.cgyro import CgyroSimulation
from repro.perf import render_figure1
from repro.vmpi import VirtualWorld


@pytest.fixture(scope="module")
def traced_sim(frontier32, nl03c):
    world = VirtualWorld(frontier32, enforce_memory=True)
    sim = CgyroSimulation(world, range(world.n_ranks), nl03c)
    sim.step()
    return sim


def test_figure1_comm_logic(benchmark, traced_sim, bench_json):
    """Verify and render the Figure-1 communicator structure."""
    sim = traced_sim
    trace = sim.world.trace

    text = benchmark.pedantic(lambda: render_figure1(sim), rounds=3, iterations=1)
    print()
    print(text)

    ar = trace.filter(kind="allreduce", category="str_comm")
    a2a = trace.filter(kind="alltoall", category="coll_comm")
    assert ar and a2a
    bench_json.record(
        "figure1_comm_logic",
        n_str_allreduce=len(ar),
        n_coll_alltoall=len(a2a),
    )

    # 1. the same communicators carry both collectives (the reuse)
    assert {e.comm_label for e in ar} == {e.comm_label for e in a2a}
    assert "SAME communicator" in text

    # 2. each group has P1 participants and consecutive ranks
    for ev in ar + a2a:
        assert ev.size == sim.decomp.n_proc_1
        assert list(ev.ranks) == list(range(ev.ranks[0], ev.ranks[0] + ev.size))

    # 3. str phase: 4 RK stages x chunks x {field, upwind} per group,
    # plus one more field solve when the nl phase runs
    n_chunks = len(sim.costs.chunks)
    per_group = 4 * n_chunks * 2
    if sim.inp.nonlinear:
        per_group += n_chunks * 2
    for comm in sim.comm1.values():
        count = len([e for e in ar if e.comm_label == comm.label])
        assert count == per_group

    # 4. coll phase: forward + back transpose per group per step
    for comm in sim.comm1.values():
        count = len([e for e in a2a if e.comm_label == comm.label])
        assert count == 2

    # 5. transpose moves the whole per-rank block
    d, dec = sim.dims, sim.decomp
    assert all(e.nbytes == d.nc * dec.nv_loc * dec.nt_loc * 16 for e in a2a)


def test_figure1_nl_phase_uses_cross_group_comm(traced_sim):
    """The nl transpose runs on comm_2 (across toroidal groups),
    disjoint from the comm_1 labels."""
    trace = traced_sim.world.trace
    nl = trace.filter(kind="alltoall", category="nl_comm")
    assert nl
    comm1_labels = {c.label for c in traced_sim.comm1.values()}
    assert all(e.comm_label not in comm1_labels for e in nl)
    for ev in nl:
        assert ev.size == traced_sim.decomp.n_proc_2
