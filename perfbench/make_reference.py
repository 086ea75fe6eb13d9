#!/usr/bin/env python3
"""Record the reference values the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Writes reference.json next to this file from the program in this checkout:
the 1e4/1e5/1e6 crossing times of the hat run at the benchmark's N and at
the smoke test's N, and the final sup and step count of every run in the
lifetime pool.  Run it only to define the reference, on the code the
benchmark was introduced with; a later change must match these values,
not re-record them.
"""

import json
import shutil
import tempfile

import workloads
from workloads import REFERENCE_PATH, WORK_ROOT, cli, driver

HAT_SIZES = (workloads.WORKLOADS["hat_blowup"].n, 10)


def hat_reference(n: int) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        cfg = cli.parse_config(workloads.HAT_CONFIG.format(n=n, output_dir=outdir))
        code, summary = cli.run_experiment(cfg)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if code != cli.EXIT_OK or summary["termination"] != "blowup":
        raise SystemExit(f"hat run at n={n} did not blow up cleanly: {summary}")
    return {key: summary[key] for key in
            ("t_threshold_1e4", "t_threshold_1e5", "t_threshold_1e6")}


def main() -> None:
    pool = workloads.lifetime_pool(workloads.WORKLOADS["lifetime_batch"].runs)
    traces = [driver.run(fld, params) for fld, params in pool]
    reference = {
        "hat_blowup": {str(n): hat_reference(n) for n in HAT_SIZES},
        "lifetime_batch": {
            "final_sup": [t.final_field.sup_norm() for t in traces],
            "steps": [len(t.reports) for t in traces],
        },
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
