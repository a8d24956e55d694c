"""Golden answers: the checked mathematical content of each workload's report.

`checked_content` keeps what an answer means and drops how it is printed:
the exit code, the group order, labels and orbit count, per label the
dimension and the exact or bounded minimum weight, the weight distribution
or the budget it was refused at, and whether verification passed with the
names of any failing checks.  Free-text details, notes, key order and
whitespace are not compared, so a change to the report format alone is not
counted as a wrong answer.

Run `python3 perfbench/golden.py` to record golden.json from the program as
it stands; that is only right when the answers are known to be correct.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def _min_weight(entry: dict) -> dict:
    mw = entry["min_weight"]
    if mw["exact"]:
        return {"exact": mw["min_weight"]}
    return {"lower": mw["lower"], "upper": mw["upper"]}


def checked_content(exit_code: int, report: dict | None) -> dict:
    """The parts of one answer that the benchmark compares with golden values."""
    out: dict = {"exit": exit_code}
    if report is None:
        return out
    group = report.get("group")
    if group is not None:
        out["group"] = {
            "order": group["order"],
            "labels": list(group["labels"]),
            "squaring_orbit_count": group["squaring_orbit_count"],
        }
    if "weights" in report:
        out["weights"] = {
            label: {"dimension": entry["dimension"], **_min_weight(entry)}
            for label, entry in sorted(report["weights"].items())
        }
    if "distributions" in report:
        dists = {}
        for label, dist in sorted(report["distributions"].items()):
            if dist.get("refused"):
                dists[label] = {"refused_at_budget": dist["required_budget"]}
            else:
                dists[label] = {str(int(w)): c for w, c in sorted(dist.items(), key=lambda x: int(x[0]))}
        out["distributions"] = dists
    if "verify" in report:
        out["verify"] = {
            "passed": report["verify"]["passed"],
            "failing": sorted(c["name"] for c in report["verify"]["checks"] if not c["passed"]),
        }
    return out


def load() -> dict[str, dict]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(content: dict, golden: dict) -> list[str]:
    """Top-level sections of `content` that differ from `golden`; empty when it matches."""
    return sorted(
        key for key in set(content) | set(golden) if content.get(key) != golden.get(key)
    )


def record() -> None:
    """Run every workload once, untraced, and write its checked content."""
    import run

    out = {}
    for name in run.WORKLOADS:
        result = run.request(name, trace=False)
        out[name] = checked_content(result["exit"], result["report"])
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
