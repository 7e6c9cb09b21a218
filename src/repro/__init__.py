"""repro: reproduction of the XGYRO shared-cmat ensemble paper (ICPP 2025).

The packages, each name imported from the module that defines it
(``import repro`` loads only the version):

- machine + virtual MPI substrate (``repro.machine``, ``repro.vmpi``),
- phase-space grid and decomposition (``repro.grid``),
- collision operator and the constant tensor ``cmat``
  (``repro.collision``),
- the CGYRO-like solver (``repro.cgyro``),
- the XGYRO ensemble layer — the paper's contribution
  (``repro.xgyro``), and
- performance reporting/analysis (``repro.perf``).

See README.md for a quickstart and DESIGN.md for the architecture.
"""

from repro._version import __version__
