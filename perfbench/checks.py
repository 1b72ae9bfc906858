"""Output checks; every mismatch counts as a failed operation.

* The paper experiments at Cmiss=20 must reproduce the WCETs and the
  Table II reload-line counts recorded in EXPERIMENTS.md.
* Every preemption pair of every result must satisfy
  App.4 <= min(App.2, App.3) <= App.1.
* The same input must give a byte-identical canonical payload however it
  was computed (cold, a what-if revisit, served from a warm store); the
  workloads compare canonical JSON strings for that.
"""

from __future__ import annotations

#: EXPERIMENTS.md reproduction values at Cmiss=20 (cycles, and reload
#: lines per approach 1-4 for each preempted<-preempting pair).
EXPECTED = {
    "exp1": {
        "wcet": {"mr": 22324, "ed": 37151, "ofdm": 50288},
        "lines": {
            "ofdm<-mr": [71, 49, 165, 17],
            "ofdm<-ed": [99, 83, 165, 47],
            "ed<-mr": [71, 31, 79, 25],
        },
    },
    "exp2": {
        "wcet": {"adpcmc": 28533, "adpcmd": 18830, "idct": 27137},
        "lines": {
            "adpcmc<-idct": [82, 44, 160, 38],
            "adpcmc<-adpcmd": [233, 181, 160, 143],
            "adpcmd<-idct": [82, 60, 148, 34],
        },
    },
}


def approach_order_ok(lines: dict) -> bool:
    """App.4 <= min(App.2, App.3) <= App.1 for every pair of a payload's
    ``lines`` (``{"low<-high": {"1": n, ..., "4": n}}``)."""
    for counts in lines.values():
        a1, a2, a3, a4 = (counts[str(k)] for k in (1, 2, 3, 4))
        if not a4 <= min(a2, a3) <= a1:
            return False
    return True


def paper_ok(experiment: str, payload: dict) -> bool:
    """A Cmiss=20 default-geometry payload of *experiment* reproduces the
    recorded WCETs and Table II lines (and keeps the approach order)."""
    expected = EXPECTED[experiment]
    if payload["wcet"] != expected["wcet"]:
        return False
    lines = {
        pair: [payload["lines"][pair][str(k)] for k in (1, 2, 3, 4)]
        for pair in payload["lines"]
    }
    return lines == expected["lines"] and approach_order_ok(payload["lines"])
