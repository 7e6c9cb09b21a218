"""Communicator-topology diagrams (Figures 1 and 3), from traces.

The paper's Figures 1 and 3 are structural: which processes form the
communicators of each phase, and which communicator each collective
runs on.  These renderers *derive* the diagram from an executed trace
(not from the intended configuration), so producing them is itself a
verification that the implementation wires the communicators the way
the paper describes; the benches additionally assert the structural
properties.
"""

from __future__ import annotations

from typing import Tuple

from repro.cgyro.solver import CgyroSimulation
from repro.xgyro.driver import XgyroEnsemble


def _fmt_ranks(ranks: Tuple[int, ...]) -> str:
    if len(ranks) <= 8:
        return "[" + " ".join(str(r) for r in ranks) + "]"
    return f"[{ranks[0]} {ranks[1]} .. {ranks[-1]}] ({len(ranks)} ranks)"


def render_figure1(sim: CgyroSimulation) -> str:
    """Figure 1: CGYRO str and coll communication logic, from the trace.

    Run at least one traced step before calling.
    """
    trace = sim.world.trace
    dec = sim.decomp
    lines = [
        "Figure 1 — CGYRO str and coll communication logic",
        f"  grid: {dec.describe()}",
        f"  {dec.n_proc_2} toroidal groups; within each group the same "
        f"comm_1 ({dec.n_proc_1} ranks) carries BOTH:",
    ]
    str_events = trace.filter(kind="allreduce", category="str_comm")
    coll_events = trace.filter(kind="alltoall", category="coll_comm")
    for i2, comm in sorted(sim.comm1.items()):
        n_ar = len([e for e in str_events if e.comm_label == comm.label])
        n_a2a = len([e for e in coll_events if e.comm_label == comm.label])
        lines.append(
            f"    group {i2}: ranks {_fmt_ranks(comm.ranks)}  "
            f"str AllReduce x{n_ar} (field+upwind)  |  "
            f"str<->coll AllToAll x{n_a2a}"
        )
    labels_ar = {e.comm_label for e in str_events}
    labels_a2a = {e.comm_label for e in coll_events}
    shared = "SAME" if labels_ar == labels_a2a else "DIFFERENT"
    lines.append(
        f"  => AllReduce and AllToAll ran on the {shared} communicators "
        "(CGYRO reuses comm_1 for both)"
    )
    if trace.filter(kind="alltoall", category="nl_comm"):
        lines.append(
            f"  nl phase: str<->nl AllToAll on comm_2 "
            f"({dec.n_proc_2} ranks across groups)"
        )
    return "\n".join(lines)


def render_figure3(ensemble: XgyroEnsemble) -> str:
    """Figure 3: XGYRO communication logic for k members sharing cmat.

    Run at least one traced ensemble step before calling.
    """
    trace = ensemble.world.trace
    first = ensemble.members[0]
    dec = first.decomp
    k = ensemble.n_members
    lines = [
        f"Figure 3 — XGYRO communication logic, ensemble of k={k} "
        "CGYRO simulations sharing cmat",
        f"  per-member grid: {dec.describe()}",
    ]
    str_events = trace.filter(kind="allreduce", category="str_comm")
    for m, member in enumerate(ensemble.members):
        n_ar = len([e for e in str_events if set(e.ranks) <= set(member.ranks)])
        lines.append(
            f"  member {m} ({member.inp.name}): ranks "
            f"{_fmt_ranks(member.ranks)}  str AllReduce x{n_ar} on "
            f"per-member comm_1 ({dec.n_proc_1} ranks)"
        )
    coll_events = trace.filter(kind="alltoall", category="coll_comm")
    lines.append(
        f"  coll phase: shared cmat distributed over ALL "
        f"{k * dec.n_proc} ranks; per toroidal group the AllToAll spans "
        f"{k} x P1 = {k * dec.n_proc_1} ranks:"
    )
    for i2, comm in sorted(ensemble.scheme.coll_comms.items()):
        n_a2a = len([e for e in coll_events if e.comm_label == comm.label])
        lines.append(
            f"    coll group {i2}: ranks {_fmt_ranks(comm.ranks)}  "
            f"AllToAll x{n_a2a}"
        )
    str_labels = {e.comm_label for e in str_events}
    coll_labels = {e.comm_label for e in coll_events}
    sep = "SEPARATED" if str_labels.isdisjoint(coll_labels) else "SHARED"
    lines.append(
        f"  => str-phase nv communicators and coll communicators are {sep} "
        "(the change XGYRO required)"
    )
    per_member_cmat = ensemble.scheme.cmat_bytes_per_rank(first)
    lines.append(
        f"  per-rank cmat: {per_member_cmat} B "
        f"(= 1/{k} of the private-cmat footprint)"
    )
    return "\n".join(lines)
