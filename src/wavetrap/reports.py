"""Output writers: CSV and JSON with the run configuration embedded.

Every file carries its full configuration, CSVs as a leading `# config:`
comment, JSON as a top-level "config" key, so any artifact can be traced
back to the exact invocation that produced it.
"""

from __future__ import annotations

import csv
import json
from typing import Optional, Sequence

from .rotation import Certified, StaircaseRecord
from .scalar import scalar_str


def config_comment(config: dict) -> str:
    return "# config: " + json.dumps(config, sort_keys=True)


def write_staircase_csv(records: Sequence[StaircaseRecord], path: str, config: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(config_comment(config) + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["u", "rho_kind", "p", "q", "lo", "hi", "q_max"])
        for r in records:
            if r.result is None:
                w.writerow([scalar_str(r.u), "error", "", "", "", "", ""])
                continue
            res = r.result
            lo, hi = res.interval()
            if isinstance(res, Certified):
                w.writerow([scalar_str(r.u), res.kind, res.p, res.q, scalar_str(lo), scalar_str(hi), ""])
            else:
                w.writerow([scalar_str(r.u), res.kind, "", "", scalar_str(lo), scalar_str(hi), res.q_max])


def write_scan_csv(records, path: str, config: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(config_comment(config) + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["d", "tau", "p", "q", "certified", "q_max"])
        for r in records:
            w.writerow(
                [
                    scalar_str(r.d),
                    scalar_str(r.tau),
                    "" if r.p is None else r.p,
                    "" if r.q is None else r.q,
                    str(r.certified).lower(),
                    r.q_max,
                ]
            )


def write_json(obj: dict, path: Optional[str], config: dict) -> str:
    """Serialize with the config attached; writes to path when given."""
    text = json.dumps({"config": config, "result": obj}, sort_keys=True, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
