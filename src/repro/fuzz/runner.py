"""The sharded, resumable campaign runner.

Reproducibility contract (see ``docs/fuzzing.md``):

* case *i* of a campaign with master seed *S* is
  ``case_from_seed(S, i)`` — a pure function, independent of sharding,
  job count, resume state or prior cases;
* shard ``i/n`` owns indices ``i, i + n, i + 2n, ...``, so *n* shards
  partition the stream exactly and any shard can re-run alone;
* a corpus directory makes a campaign resumable: each shard records how
  many of its indices completed, and every failing case is written out
  as a self-contained JSON entry with its spec, its violations and the
  one-line replay command.

Guard budgets are reused on both axes: the per-case
:class:`~repro.guard.budget.AnalysisBudget` caps each analysis and
simulation, and the same budget's wall clock bounds the whole campaign
(the CI smoke runs with ``wall_clock_seconds~=60``).
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

from repro.batch.pool import WarmPool
from repro.errors import ReproError
from repro.fuzz.generator import case_from_seed
from repro.fuzz.oracles import (
    Violation,
    build_case,
    run_oracles,
    validate_oracle_names,
)
from repro.fuzz.spec import SystemSpec
from repro.guard.budget import AnalysisBudget
from repro.obs import STATE as _OBS

#: Per-case guard defaults: small enough that a pathological case cannot
#: stall the campaign, large enough that no generated case ever trips
#: them (a trip would surface as a degradation, not a wrong answer).
CASE_BUDGET = AnalysisBudget(
    max_paths=4096,
    max_wcrt_iterations=1000,
    max_sim_steps=2_000_000,
)


def replay_command(seed: int, index: int) -> str:
    """The one-line reproduction command printed on every failure."""
    return f"repro fuzz replay --seed {seed} --index {index}"


@dataclass
class CaseFailure:
    """One failing case: everything needed to reproduce and shrink it."""

    index: int
    seed: int
    spec: SystemSpec
    violations: list[Violation]

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "index": self.index,
            "replay": replay_command(self.seed, self.index),
            "violations": [
                {"oracle": v.oracle, "message": v.message} for v in self.violations
            ],
            "spec": self.spec.to_json(),
        }


@dataclass
class CampaignResult:
    """Outcome of one (possibly resumed, possibly sharded) campaign run."""

    seed: int
    cases: int
    shard_index: int
    shard_count: int
    ran: int = 0
    resumed: int = 0
    failures: list[CaseFailure] = field(default_factory=list)
    stopped_early: bool = False
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures and not self.stopped_early

    def summary(self) -> str:
        shard = (
            f" shard {self.shard_index}/{self.shard_count}"
            if self.shard_count > 1
            else ""
        )
        status = "FAIL" if self.failures else ("STOPPED" if self.stopped_early else "ok")
        return (
            f"fuzz seed {self.seed}{shard}: {self.ran} case(s) in "
            f"{self.seconds:.1f}s ({self.cases_per_second:.1f} case/s), "
            f"{self.resumed} resumed, "
            f"{len(self.failures)} failing — {status}"
        )

    @property
    def cases_per_second(self) -> float:
        """Throughput of this run (0.0 until any case has finished)."""
        return self.ran / self.seconds if self.seconds > 0 and self.ran else 0.0


def shard_indices(cases: int, shard_index: int, shard_count: int) -> range:
    """The deterministic index slice owned by shard ``i/n``."""
    if not 0 <= shard_index < shard_count:
        raise ValueError(f"shard {shard_index}/{shard_count} out of range")
    return range(shard_index, cases, shard_count)


def run_one_case(
    seed: int,
    index: int,
    budget: AnalysisBudget | None = CASE_BUDGET,
    oracle_names: Sequence[str] | None = None,
    spec: SystemSpec | None = None,
) -> list[Violation]:
    """Generate (or accept), build and check one case.

    Any engine exception is itself an oracle violation (``crash``): the
    generator only emits valid specs, so a raise on the way to a verdict
    is a bug, not an invalid case.
    """
    validate_oracle_names(oracle_names)
    if spec is None:
        spec = case_from_seed(seed, index)
    try:
        case = build_case(spec, budget=budget)
        return run_oracles(case, names=oracle_names, budget=budget)
    except ReproError as error:
        return [Violation("crash", f"{type(error).__name__}: {error}")]
    except Exception:
        return [Violation("crash", traceback.format_exc(limit=8).strip())]


def _case_task(context: tuple, index: int) -> list[tuple[str, str]]:
    """One fuzz case inside a warm pool worker.

    The context (seed, budget, oracle names) ships once per campaign;
    each task is a bare index.
    """
    _, seed, budget, oracle_names = context
    violations = run_one_case(seed, index, budget=budget, oracle_names=oracle_names)
    return [(v.oracle, v.message) for v in violations]


class _Corpus:
    """Resumable on-disk campaign state (one progress file per shard)."""

    def __init__(
        self, directory: Path, seed: int, shard_index: int, shard_count: int
    ):
        self.directory = directory
        self.directory.mkdir(parents=True, exist_ok=True)
        self._progress_path = (
            directory / f"progress-{seed}-{shard_index}of{shard_count}.json"
        )
        self._stamp = {
            "seed": seed,
            "shard_index": shard_index,
            "shard_count": shard_count,
        }

    def completed(self) -> int:
        """How many of this shard's indices already finished cleanly."""
        try:
            payload = json.loads(self._progress_path.read_text())
        except (OSError, ValueError):
            return 0
        if all(payload.get(k) == v for k, v in self._stamp.items()):
            return int(payload.get("completed", 0))
        return 0

    def record_progress(
        self, completed: int, cases_per_second: float | None = None
    ) -> None:
        payload = dict(self._stamp, completed=completed)
        if cases_per_second is not None:
            payload["cases_per_second"] = round(cases_per_second, 2)
        self._progress_path.write_text(json.dumps(payload, indent=2) + "\n")

    def record_failure(self, failure: CaseFailure) -> None:
        path = self.directory / f"fail-{failure.seed}-{failure.index}.json"
        path.write_text(json.dumps(failure.to_json(), indent=2) + "\n")


def run_campaign(
    seed: int,
    cases: int,
    jobs: int = 1,
    shard_index: int = 0,
    shard_count: int = 1,
    corpus_dir: str | Path | None = None,
    budget: AnalysisBudget | None = CASE_BUDGET,
    oracle_names: Sequence[str] | None = None,
    report: Callable[[str], None] | None = None,
) -> CampaignResult:
    """Run one shard of a campaign over ``cases`` seeded cases.

    The same *budget* guards each case and, through its
    ``wall_clock_seconds`` axis, the campaign as a whole: once the wall
    clock expires the run stops early (``stopped_early=True``) with its
    progress recorded, and a resume picks up at the next index.
    """
    validate_oracle_names(oracle_names)
    started = perf_counter()
    result = CampaignResult(
        seed=seed, cases=cases, shard_index=shard_index, shard_count=shard_count
    )
    corpus = (
        _Corpus(Path(corpus_dir), seed, shard_index, shard_count)
        if corpus_dir is not None
        else None
    )
    indices = list(shard_indices(cases, shard_index, shard_count))
    result.resumed = min(corpus.completed(), len(indices)) if corpus else 0
    pending = indices[result.resumed :]
    clock = budget.start() if budget is not None else None

    def note(message: str) -> None:
        if report is not None:
            report(message)

    def handle(index: int, raw: list[tuple[str, str]]) -> None:
        result.ran += 1
        if _OBS.enabled:
            _OBS.metrics.counter("fuzz.cases").inc()
        if raw:
            violations = [Violation(oracle, message) for oracle, message in raw]
            failure = CaseFailure(
                index=index,
                seed=seed,
                spec=case_from_seed(seed, index),
                violations=violations,
            )
            result.failures.append(failure)
            if _OBS.enabled:
                _OBS.metrics.counter("fuzz.failing_cases").inc()
            if corpus is not None:
                corpus.record_failure(failure)
            note(f"FAIL case {index}: {violations[0]}")
            note(f"  reproduce with: {replay_command(seed, index)}")

    completed = result.resumed

    def rate() -> float:
        elapsed = perf_counter() - started
        return result.ran / elapsed if elapsed > 0 else 0.0

    def consume(index: int, raw: list[tuple[str, str]]) -> bool:
        """Record one finished case; True when the wall budget expired."""
        nonlocal completed
        handle(index, raw)
        completed += 1
        if corpus is not None:
            corpus.record_progress(completed, cases_per_second=rate())
        if clock is not None and clock.expired:
            result.stopped_early = True
            return True
        return False

    if jobs > 1 and pending:
        # One warm pool for the whole campaign: workers are seeded once
        # with (seed, budget, oracles) and then stream bare indices, so
        # per-case shipping is a few bytes.
        # Chunking keeps the wall-clock check responsive: the clock is
        # consulted after every case and between chunks, so a run never
        # overshoots its budget by more than one chunk of work.
        with WarmPool(jobs) as pool:
            token = pool.seed(
                (
                    "fuzz.cases",
                    seed,
                    budget,
                    tuple(oracle_names) if oracle_names is not None else None,
                )
            )
            chunk_size = max(jobs * 4, 1)
            for start in range(0, len(pending), chunk_size):
                block = pending[start : start + chunk_size]
                raws = pool.map(_case_task, block, context=token)
                if any(
                    consume(index, raw) for index, raw in zip(block, raws)
                ):
                    break
    else:
        for index in pending:
            violations = run_one_case(
                seed, index, budget=budget, oracle_names=oracle_names
            )
            if consume(index, [(v.oracle, v.message) for v in violations]):
                break
    if result.stopped_early:
        note(
            f"wall budget exhausted after {result.ran} case(s); resume with "
            f"the same command and --corpus to continue"
        )
        if _OBS.enabled:
            _OBS.metrics.counter("fuzz.stopped_early").inc()
    result.seconds = perf_counter() - started
    return result
