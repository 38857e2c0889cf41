"""repro.check: the verification layer (docs/VERIFICATION.md).

Four parts behind the ``ldp-verify`` CLI
(:mod:`repro.tools.verify_run`):

* :mod:`repro.check.golden` — committed ReplayReport + wire-message
  snapshots with record/verify modes (cross-release byte-identity);
* :mod:`repro.check.differential` — sim-vs-sim byte-identity across
  the config matrix and sim-vs-live per-query outcome and per-source
  placement equality;
* :mod:`repro.check.fuzzing` — shared hypothesis strategies for DNS
  wire messages and trace blobs plus a budgeted never-crash runner
  (imported lazily: it needs the ``hypothesis`` test dependency);
* :mod:`repro.check.invariants` — the ``ReplayConfig(check=True)``
  online invariant checker both backends call into.

The scenario fixtures everything shares live in
:mod:`repro.check.scenarios`.
"""

from repro.check.differential import (DiffResult, compare_sim_live,
                                      diff_sim_live, diff_sim_matrix)
from repro.check.golden import (GOLDEN_DIR, record_goldens,
                                verify_goldens)
from repro.check.invariants import (InvariantChecker,
                                    InvariantViolation, verify_cache,
                                    verify_queriers)

__all__ = [
    "DiffResult", "GOLDEN_DIR", "InvariantChecker",
    "InvariantViolation", "compare_sim_live", "diff_sim_live",
    "diff_sim_matrix", "record_goldens",
    "verify_cache", "verify_goldens", "verify_queriers",
]
