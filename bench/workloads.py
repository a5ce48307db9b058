"""Benchmark workloads: input generators, the timed call, and output checks.

Each workload turns the workload seed into a stream of inputs, makes one
timed call into the program per input, and checks that call's outputs.
Generation and checks are not timed.  The program sees only what a user
would pass it: the campaigns get their seed as ``--seed``, the oracle and
Lloyd workloads get the generated configurations and seedings.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any, Iterator

from kmeans_richness import cli, lloyd, model, verify


@dataclass(frozen=True)
class Checked:
    """What one call produced: decided items, failed items, output bytes."""

    items: int
    failed: int
    output: bytes


def _valid(a: tuple[int, ...], p: tuple[int, ...]) -> bool:
    """Pairing stability |a_j - a_(j+1)| < 2 p_j, checked here independently."""
    return all(abs(a[j] - a[j + 1]) < 2 * p[j] for j in range(len(p)))


def _random_config(rng: random.Random, k: int, top: int) -> model.DistanceConfig:
    """Uniform integer distances in 1..top, rejected until valid."""
    while True:
        a = tuple(rng.randint(1, top) for _ in range(k))
        p = tuple(rng.randint(1, top) for _ in range(k - 1))
        if _valid(a, p):
            return model.DistanceConfig(a, p)


class Workload:
    """Inputs from a seed, one timed call per input, a check per call.

    ``fixed_calls`` calls open every run: a traced run makes only those, and
    the output hash and peak memory cover them.  ``tail_percentile`` has at
    least ten per-call values beyond it in a 25-second run even on a host
    at half speed; it is fixed, so that a faster program is compared at the
    same percentile.
    """

    fixed_calls: int
    tail_percentile: float

    def close(self) -> None:
        """Remove what the workload wrote."""


# --- campaigns -------------------------------------------------------------------


def check_campaign_report(data: Any, exit_code: int, seed: int, regions: int, quota: int) -> int:
    """Failed decided samples in one ``verify`` report (0 when it is right).

    A region passes when all ``quota`` samples are decided and hold, with no
    violation, no error, and an oracle run for every held sample.  A bad
    exit code or a malformed report fails every sample.
    """
    total = regions * quota
    if exit_code != 0 or not isinstance(data, dict):
        return total
    rows = data.get("regions")
    if (
        data.get("rng_seed") != seed
        or data.get("samples_per_region") != quota
        or data.get("oracle") is not True
        or not isinstance(rows, list)
        or len(rows) != regions
    ):
        return total
    failed = 0
    for row in rows:
        ok = (
            isinstance(row, dict)
            and row.get("holds") == quota
            and row.get("violation_count") == 0
            and row.get("error") is None
            and row.get("oracle_samples") == row.get("holds")
        )
        if not ok:
            failed += quota
    return failed


class Campaign(Workload):
    """``kmeans-richness verify --k K --seed S`` over every default region,
    in-process, oracle on, bound 50; one call per input."""

    # Seeds per workload seed; call i of workload seed s uses --seed s*STRIDE+i.
    STRIDE = 1_000_000

    fixed_calls = 28
    tail_percentile = 75.0

    def __init__(self, k: int, regions: int, quota: int, out_dir: Path) -> None:
        self.k = k
        self.regions = regions
        self.quota = quota
        self.report_path = out_dir / f"campaign-k{k}-{os.getpid()}-report.json"

    def inputs(self, seed: int) -> Iterator[int]:
        return (seed * self.STRIDE + i for i in itertools.count())

    def call(self, verify_seed: int) -> int:
        argv = [
            "verify", "--k", str(self.k), "--samples", str(self.quota),
            "--seed", str(verify_seed), "--output", str(self.report_path),
        ]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def check(self, verify_seed: int, exit_code: int) -> Checked:
        try:
            raw = self.report_path.read_bytes()
        except FileNotFoundError:
            raw = b""
        try:
            data = json.loads(raw)
        except ValueError:
            data = None
        failed = check_campaign_report(data, exit_code, verify_seed, self.regions, self.quota)
        return Checked(self.regions * self.quota, failed, raw)

    def close(self) -> None:
        self.report_path.unlink(missing_ok=True)


# --- exact oracle at k=8 ---------------------------------------------------------


ORACLE_K = 8
ORACLE_TOTAL = comb(2 * ORACLE_K, ORACLE_K)  # 12870


def check_survey(survey: verify.SeedingSurvey) -> bool:
    """Tallies cover every seeding once, and the probability is reached/(total-tie)."""
    s = survey
    if not s.reached_count + s.failed_count + s.tie_count + s.cap_count == s.total == ORACLE_TOTAL:
        return False
    if s.cap_count or s.tie_count == s.total:
        return False
    return s.probability == Fraction(s.reached_count, s.total - s.tie_count)


def survey_bytes(survey: verify.SeedingSurvey) -> bytes:
    s = survey
    return json.dumps(
        [
            s.total, s.reached_count, s.failed_count, s.tie_count, s.cap_count,
            list(s.first_failing.indices) if s.first_failing else None,
            [list(t.indices) for t in s.tied],
            s.empty_rule_used,
            str(s.probability),
        ]
    ).encode()


class Oracle(Workload):
    """``verify.survey_seedings`` on valid k=8 configs with integer a, p in 1..50."""

    fixed_calls = 22
    tail_percentile = 75.0

    def inputs(self, seed: int) -> Iterator[model.DistanceConfig]:
        rng = random.Random(f"oracle-k8:{seed}")
        while True:
            yield _random_config(rng, ORACLE_K, 50)

    def call(self, cfg: model.DistanceConfig) -> verify.SeedingSurvey:
        return verify.survey_seedings(cfg)

    def check(self, cfg: model.DistanceConfig, survey: verify.SeedingSurvey) -> Checked:
        return Checked(1, 0 if check_survey(survey) else 1, survey_bytes(survey))


# --- strict and branch Lloyd traces ----------------------------------------------


def check_traces(strict: lloyd.LloydTrace, branches: tuple[lloyd.LloydTrace, ...]) -> bool:
    """Branch mode agrees with strict mode.

    Tie-free strict run: exactly one branch trace with the same partition
    sequence.  Tied strict run: every branch starts with the partitions the
    strict run completed before the tie.
    """
    sequence = strict.partition_sequence()
    if isinstance(strict.outcome, lloyd.Converged):
        return len(branches) == 1 and branches[0].partition_sequence() == sequence
    if isinstance(strict.outcome, lloyd.TieEncountered):
        return bool(branches) and all(
            b.partition_sequence()[: len(sequence)] == sequence for b in branches
        )
    return False


class Traces(Workload):
    """``lloyd.run`` strict, then branch, then ``lloyd.trace_digest`` of every
    trace, on (config, seeding) pairs with k in 2..6 and entries in 1..12."""

    fixed_calls = 16000
    tail_percentile = 99.0  # p99.9 has ~50 values beyond it, but spread 19% between seeds

    def inputs(self, seed: int) -> Iterator[tuple[model.DistanceConfig, model.Seeding]]:
        rng = random.Random(f"lloyd-traces:{seed}")
        while True:
            k = rng.randint(2, 6)
            cfg = _random_config(rng, k, 12)
            yield cfg, model.Seeding(tuple(rng.sample(range(1, 2 * k + 1), k)))

    def call(self, pair):
        cfg, seeding = pair
        points = model.embed(cfg)
        strict = lloyd.run(points, seeding)
        branches = lloyd.run(points, seeding, lloyd.TiePolicy.BRANCH)
        digests = [lloyd.trace_digest(t) for t in (strict, *branches)]
        return strict, branches, digests

    def check(self, pair, result) -> Checked:
        strict, branches, digests = result
        return Checked(1, 0 if check_traces(strict, branches) else 1, "\n".join(digests).encode())


def make(name: str, out_dir: Path):
    """The workload called ``name``."""
    if name == "campaign-k4":
        return Campaign(4, regions=13, quota=2, out_dir=out_dir)
    if name == "campaign-k6":
        return Campaign(6, regions=7, quota=1, out_dir=out_dir)
    if name == "oracle-k8":
        return Oracle()
    if name == "lloyd-traces":
        return Traces()
    raise KeyError(name)


NAMES = ("campaign-k4", "campaign-k6", "oracle-k8", "lloyd-traces")
