"""repro.plan: the decomposition/placement autotuner.

The repo's cost model is calibrated and deterministic, `CollShard`
supports uneven nc splits, and the campaign packer already chooses job
geometry — this package closes the loop (ROADMAP open item 4): search
the space of (k, node subset, collective algorithms, nc split)
*against the cost model* and emit a :class:`Plan` artifact the packer
consumes directly.

Heterogeneous machines are the setting where this pays: per-node
speed/bandwidth multipliers (:mod:`repro.machine.presets`) make the
balanced shard map a straggler machine, and a deliberately
*unbalanced* split (Jackson/Hein/Roach) recovers the loss.  Every
emitted plan is validated by really running the planned job on the
virtual machine, and the tuning is physics-neutral — the differential
oracle stays bit-exact on tuned configurations.

Entry points: :class:`Planner` (search), :func:`validate_plan`
(predicted-vs-actual honesty check), :func:`oracle_plan` (bit-exact
physics check), :func:`load_plan`/:meth:`Plan.save` (the byte-stable
artifact), :func:`predict_plan_interval` (the heterogeneity-aware
predictor).
"""

from repro.plan.artifact import load_plan
from repro.plan.planner import Planner, run_choice, validate_plan
