#!/usr/bin/env python3
"""Run a miniature verification campaign and produce checkable artifacts.

Samples configurations from every case region, certifies that the
prescribed seedings avoid the pairing partition, cross-checks each sample
with the exhaustive-seeding oracle, and writes the deterministic report
plus one full certificate that is then independently re-validated.
"""

import json
import sys
from pathlib import Path

from kmeans_richness import (
    DistanceConfig,
    campaign,
    certify_config,
    default_regions,
    recheck_certificate,
)

out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)

report = campaign(default_regions(4, bound=50), samples_per_region=25, rng_seed=11)
print(report.to_csv())
print(f"violations: {report.violation_count}")

report_path = out_dir / "campaign_report.json"
report_path.write_text(report.to_json() + "\n")
print(f"report written to {report_path}")
print()

cert = certify_config(DistanceConfig((1, 1, 1, 1), (3, 3, 3)), include_traces=True)
cert_path = out_dir / "certificate.json"
cert_path.write_text(cert.to_json() + "\n")
print(f"certificate for the all-peaks instance: verdict {cert.verdict}")
for record in cert.candidates:
    state = "reaches pairing" if record.reached_target else "avoids pairing"
    print(f"  {record.name} {record.seeding}: {state}")
print(f"oracle witness: {cert.oracle.first_failing}, "
      f"success probability {cert.oracle.probability}")

problems = recheck_certificate(json.loads(cert_path.read_text()))
print(f"independent re-check of {cert_path.name}: "
      + ("clean" if not problems else f"PROBLEMS {problems}"))
sys.exit(1 if problems else 0)
