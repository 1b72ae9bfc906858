"""Replacement policies for the set-associative cache model.

The paper assumes LRU but notes the approach "can also be applied to the
caches with other replacement algorithms with minor modifications"
(Section III-A).  Three policies are modelled:

* ``lru``  — least recently used (the paper's assumption),
* ``fifo`` — first-in first-out (hits do not refresh),
* ``plru`` — tree-based pseudo-LRU as found in many real L1 designs.

Each policy's replacement rule is one replay loop over plain per-set
lists in :mod:`repro.cache.state`.  The inter-task bound of Equation 2 is
policy-independent (each insertion evicts at most one line and a set holds
at most ``L`` lines — see ``tests/test_policies.py`` for the property
check), but the *strong updates* of the RMB/LMB dataflow are justified by
LRU only; :func:`repro.analysis.rmb_lmb.solve_rmb_lmb` degrades to weak
(still sound) updates for other policies.
"""

POLICY_NAMES = ("lru", "fifo", "plru")
