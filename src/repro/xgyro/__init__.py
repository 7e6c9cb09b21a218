"""XGYRO: ensemble execution with a shared collisional constant tensor.

The paper's contribution.  XGYRO runs k CGYRO simulations as one HPC
job ("a thin MPI initialization and partitioning layer around the
CGYRO codebase"):

- the job's ranks are partitioned into k contiguous member blocks;
- every member runs the standard solver on its own block — str
  AllReduce groups are now k times smaller;
- the one buffer that is *identical* across parameter-sweep members —
  cmat — is stored once, distributed across **all** ranks of the
  ensemble, which required separating the str-phase nv communicator
  from the coll-phase communicator (Figure 3);
- the coll phase transposes every member's state onto the ensemble-
  wide distribution, applies the shared propagator, and transposes
  back.

Sharing is only legal when member inputs agree on every cmat-relevant
parameter; :func:`validate_shareable` enforces this and reports the
offending fields.

Entry points: :class:`XgyroEnsemble` (the ensemble driver),
:class:`SequentialCgyroBaseline` (the paper's comparison mode), and
:class:`SharedCmatScheme` (the collision scheme implementing the
shared distribution).
"""

from repro.xgyro.baseline import SequentialCgyroBaseline
from repro.xgyro.driver import XgyroEnsemble
from repro.xgyro.shared_cmat import SharedCmatScheme
