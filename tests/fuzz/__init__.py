"""The differential fuzzing campaign over random whole systems.

* :mod:`tests.fuzz.oracles` — the oracle bank: soundness, paper
  invariants and engine differentials, run on each built case against
  the references in :mod:`tests.oracles`.
* :mod:`tests.fuzz.runner` — the sharded, resumable campaign runner.
* :mod:`tests.fuzz.shrink` — the delta-debugging minimizer and its
  repro-script / pytest-stub emitters.

Cases come from :mod:`repro.fuzz` (specs, the seeded generator and the
builder).  Run the campaign with ``PYTHONPATH=src python -m tests.fuzz``
from the repository root; see ``docs/fuzzing.md``.  Nothing here imports
pytest or Hypothesis, so the campaign runs on a bare interpreter.
"""
