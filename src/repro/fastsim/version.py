"""The fast-model version stamp.

Kept in a leaf module with no imports so that low-level consumers (the
result store derives job keys from it) can
depend on the constant without pulling the model in.

Bump whenever a change to :mod:`repro.fastsim.model` or
:mod:`repro.fastsim.banktables` can change a prediction: the version is
part of every fast job's store spec, so stale fast results are never
served across model revisions (exact results are unaffected — their
specs do not carry the field).
"""

from __future__ import annotations

#: Part of every fast job's store key; see module docstring.
FAST_MODEL_VERSION = 1

#: The fidelity tiers a job or sweep can request.
FIDELITY_EXACT = "exact"
FIDELITY_FAST = "fast"
FIDELITY_AUTO = "auto"

#: Tiers a single job can carry ("auto" is a sweep-level plan, never a
#: per-job identity).
JOB_FIDELITIES = (FIDELITY_EXACT, FIDELITY_FAST)

#: Tiers `repro sweep --fidelity` accepts.
SWEEP_FIDELITIES = (FIDELITY_EXACT, FIDELITY_FAST, FIDELITY_AUTO)
