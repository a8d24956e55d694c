"""Command-line front end: analysis runs, verification suites, and exports.

Exit codes: 0 ok, 1 usage, 2 hypothesis failure, 3 refused distribution
(over budget, or under overridden hypotheses a member that is not a minimal
ideal), 4 falsified invariant.  A run builds one JSON report; the text view
and the exit code are pure functions of it.  JSON output is byte-identical for
a fixed config regardless of the thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import NamedTuple

from . import codes
from .codes import DEFAULT_BUDGET, MIN_BUDGET, FalsificationError
from .idempotents import (
    IdempotentFamily,
    family_pq,
    family_prime_power,
    family_three_primes,
)
from .number_theory import ConsistencyError, HypothesisError, factorize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_BUDGET = 3
EXIT_FALSIFIED = 4

# The largest order whose `--dims` run was measured: 243x125 (order 30375)
# took 1.4 s in a fresh process with a 149 MB peak (2-vCPU VM, CPython
# 3.11.7).  pq and three-prime shapes of about that order took 19 to 21 s
# (5x11x547), 17 to 20 s (3x29x347) and 27 to 28 s (3x10091), with peaks of
# 159 to 176 MB.
MAX_GROUP_ORDER = 30375
MAX_BUDGET = 1 << 64  # far beyond any enumeration that can finish
MAX_THREADS = 64  # --threads is validated and kept for compatibility; enumeration is single-threaded


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class GroupShape(NamedTuple):
    """A parsed group specification: its factors (p, m), one per C_{p^m}, in
    spec order (ascending for a single integer), and the text it came from."""

    factors: tuple[tuple[int, int], ...]
    text: str = ""

    @property
    def kind(self) -> str:  # "pq" | "prime_power" | "three_primes"
        if len(self.factors) == 3:
            return "three_primes"
        return "pq" if all(m == 1 for _, m in self.factors) else "prime_power"

    @property
    def order(self) -> int:
        return math.prod(p**m for p, m in self.factors)


def _parse_power(text: str, limit: int, what: str) -> int:
    """Parse "b^e" or a plain integer, refusing values above `limit`.

    b and e are ASCII digits only: int() would also take a sign, "_" and
    surrounding spaces, so "-3^2" would pass as 9.  The size of b**e is
    bounded from the bit length of b before the power is computed, so a huge
    exponent is refused at once.
    """
    base_text, caret, exp_text = text.partition("^")
    numerals = (base_text, exp_text) if caret else (base_text,)
    try:
        if not all(s.isascii() and s.isdigit() for s in numerals):
            raise ValueError
        base, exp = int(base_text), int(exp_text) if caret else 1
    except ValueError:  # also a numeral beyond int()'s digit limit
        raise UsageError(f"cannot parse {what} {text!r}") from None
    if exp < 1:
        raise UsageError(f"exponent in {text!r} must be positive")
    # b >= 2**(bits - 1), so a large (bits - 1) * e proves b**e > limit unevaluated
    if (base.bit_length() - 1) * exp < limit.bit_length():
        value = base**exp
        if value <= limit:
            return value
    shown = f"2^{limit.bit_length() - 1}" if limit & (limit - 1) == 0 else str(limit)
    raise UsageError(f"{what} {text!r} exceeds the {shown} guard")


def _parse_prime_power(text: str) -> tuple[int, int]:
    value = _parse_power(text, MAX_GROUP_ORDER, "group order")
    factors = factorize(value) if value >= 2 else {}
    if len(factors) != 1:
        raise UsageError(f"{text!r} is not a prime power")
    ((p, m),) = factors.items()
    return p, m


def parse_group_spec(spec: str) -> GroupShape:
    """Parse "p^m x q^n", "p x q", "p1 x p2 x p3", or a single composite integer."""
    text = spec.strip().lower().replace(" ", "")
    if not text:
        raise UsageError("empty group specification")
    parts = text.split("x")
    if len(parts) == 1:
        value = _parse_power(parts[0], MAX_GROUP_ORDER, "group order")
        if value < 2:
            raise UsageError(f"group order {value} is too small")
        exponents = factorize(value)
        if 2 in exponents:
            raise UsageError("even group orders are not supported")
        if len(exponents) == 2 or len(exponents) == 3 and set(exponents.values()) == {1}:
            return GroupShape(tuple(sorted(exponents.items())), spec)
        raise UsageError(
            f"group order {value} does not factor as p^m q^n or p1 p2 p3"
        )
    if len(parts) > 3:
        raise UsageError(f"cannot parse group spec {spec!r}")
    factors = []
    for part in parts:
        p, m = _parse_prime_power(part)
        if len(parts) == 3 and m != 1:
            raise UsageError("three-factor groups must be squarefree")
        factors.append((p, m))
    primes = {p for p, _ in factors}
    if len(parts) == 2:
        if len(primes) == 1:
            raise UsageError("the two factors must involve distinct primes")
        if 2 in primes:
            raise UsageError("even group orders are not supported")
    elif len(primes) != 3 or 2 in primes:
        raise UsageError("three-factor groups need three distinct odd primes")
    return GroupShape(tuple(factors), spec)


class RunConfig(NamedTuple):
    group_spec: str
    analyses: tuple[str, ...]
    budget: int = DEFAULT_BUDGET
    override: bool = False


def parse_budget(text: str) -> int:
    value = _parse_power(text, MAX_BUDGET, "budget")
    if value < MIN_BUDGET:
        raise UsageError(f"budget must be at least {MIN_BUDGET} (2^10)")
    return value


def build_family(shape: GroupShape, *, override: bool = False) -> IdempotentFamily:
    if shape.order > MAX_GROUP_ORDER:
        raise UsageError(f"group order {shape.order} exceeds the {MAX_GROUP_ORDER} guard")
    if shape.kind == "three_primes":
        return family_three_primes(*(p for p, _ in shape.factors), override=override)
    (p, m), (q, n) = shape.factors
    if shape.kind == "pq":
        return family_pq(p, q, override=override)
    return family_prime_power(p, m, q, n, override=override)


def _group_section(shape: GroupShape, family: IdempotentFamily) -> dict:
    return {
        "kind": family.shape,
        "spec": shape.text,
        "factor_orders": list(family.group.factor_orders),
        "order": family.group.order,
        "labels": list(family.labels),
        "parameters": {k: v for k, v in sorted(family.params.items())},
        "squaring_orbit_count": family.squaring_orbit_count,
    }


def _config_section(config: RunConfig) -> dict:
    return {
        "group": config.group_spec,
        "analyses": sorted(config.analyses),
        "budget": config.budget,
        "override": config.override,
    }


def _code_sections(
    report: dict, reports: dict[str, codes.CodeReport], analyses: tuple[str, ...]
) -> None:
    """Add the dims, weights and distributions sections asked for to `report`."""
    if "dims" in analyses:
        total = sum(r.dimension for r in reports.values())
        n_orbits = report["group"]["squaring_orbit_count"]
        report["dimensions"] = {
            "per_label": {
                lab: {"computed": r.dimension, "predicted": r.predicted_dimension,
                      "match": r.dimension_matches}
                for lab, r in reports.items()
            },
            "sum": total,
            "sum_matches_order": total == report["group"]["order"],
            "family_size": len(reports),
            "squaring_orbit_count": n_orbits,
            "count_matches": len(reports) == n_orbits,
        }
    if "weights" in analyses:
        report["weights"] = {
            lab: {
                "dimension": r.dimension,
                "min_weight": r.min_weight.to_json(),
                "theory": r.theory.to_json(),
                "theory_match": r.theory_match,
            }
            for lab, r in reports.items()
        }
    if "distribution" in analyses:
        report["distributions"] = {
            lab: (
                {str(w): c for w, c in sorted(r.distribution.items())}
                if r.distribution is not None
                else _refusal(r.distribution_refused)
            )
            for lab, r in reports.items()
        }


def _refusal(refused: int | str) -> dict:
    """A refused distribution: over budget, or a member that no budget scans."""
    if isinstance(refused, int):
        return {"refused": True, "required_budget": refused}
    return {"refused": True, "required_budget": None, "reason": refused}


def build_report(config: RunConfig) -> dict:
    """Compute the JSON report of a run, the one source of its text and exit code."""
    shape = parse_group_spec(config.group_spec)
    codes.clear_caches()  # each run starts cold and drops the previous run's codes
    report: dict = {"config": _config_section(config)}
    try:
        family = build_family(shape, override=config.override)
    except (HypothesisError, ConsistencyError) as exc:
        # a ConsistencyError is reachable only in override mode: the construction
        # itself breaks down when the standing conditions fail badly enough
        failures = getattr(exc, "failures", None) or [
            f"construction failed under overridden hypotheses: {exc}"
        ]
        report["hypotheses"] = {"satisfied": False, "failures": list(failures)}
        return report

    warnings = list(family.params.get("hypothesis_warnings", []))
    report["group"] = _group_section(shape, family)
    report["hypotheses"] = {"satisfied": not warnings, "failures": warnings}
    if "idempotents" in config.analyses:
        report["idempotents"] = family.to_json()["idempotents"]
    # --verify reuses the cached bases and enumerations; --dims alone enumerates nothing.
    if {"dims", "weights", "distribution"} & set(config.analyses):
        try:
            reports = codes.analyze_family(
                family,
                budget=config.budget,
                want_distribution="distribution" in config.analyses,
                want_weights="weights" in config.analyses,
            )
        except FalsificationError as exc:
            report["falsification"] = str(exc)
        else:
            _code_sections(report, reports, config.analyses)
    if "verify" in config.analyses:
        outcome = codes.family_verification(family, budget=config.budget)
        report["verify"] = {key: outcome[key] for key in ("passed", "checks")}
    return report


def exit_code(report: dict) -> int:
    """The exit code a report stands for; a falsification outranks a refusal."""
    if "group" not in report:
        return EXIT_HYPOTHESIS
    dims = report.get("dimensions", {"sum_matches_order": True, "count_matches": True})
    holds = [
        "falsification" not in report,
        report.get("verify", {"passed": True})["passed"],
        dims["sum_matches_order"] and dims["count_matches"],
        *(d["match"] for d in dims.get("per_label", {}).values()),
        *(  # CodeReport.falsified, read off the weights section
            w["theory_match"] is not False or w["theory"]["kind"] not in ("exact", "bounds")
            for w in report.get("weights", {}).values()
        ),
    ]
    if not all(holds):
        return EXIT_FALSIFIED
    if any("refused" in d for d in report.get("distributions", {}).values()):
        return EXIT_BUDGET
    return EXIT_OK


_THEORY_NOTES = {
    "exact": "  expected {value} [{source}]",
    "bounds": "  expected in [{lower}, {upper}] [{source}]",
    "conjecture": "  conjectured {value} [{source}]",
}


def _weight_text(entry: dict) -> str:
    found, theory = entry["min_weight"], entry["theory"]
    if found["exact"]:
        shown = f"{found['min_weight']} (exact)"
    else:
        shown = f"in [{found['lower']}, {found['upper']}] (bounded)"
    return shown + _THEORY_NOTES.get(theory["kind"], "").format(**theory)


def _distribution_text(dist: dict) -> str:
    if "reason" in dist:
        return f"refused, {dist['reason']}"
    if "refused" in dist:
        return f"refused, required budget {dist['required_budget']}"
    body = ", ".join(f"{w}:{c}" for w, c in sorted(dist.items(), key=lambda wc: int(wc[0])))
    return f"{{{body}}}"


def render_text(report: dict) -> str:
    """The text view of a report; reads nothing but the report itself."""
    failures = report["hypotheses"]["failures"]
    if "group" not in report:
        return "hypothesis failure:\n" + "\n".join(f"  - {f}" for f in failures)
    group = report["group"]
    labels = group["labels"]
    lines = [
        f"group {group['spec']}: {group['kind']}, factors {group['factor_orders']}, "
        f"order {group['order']}, {len(labels)} idempotents"
    ]
    if failures:
        lines.append("WARNING: running with unverified hypotheses:")
        lines.extend(f"  - {w}" for w in failures)
    if "idempotents" in report:
        lines += ["", "idempotents (label, weight, predicted dimension, support):"]
        for lab in labels:
            e = report["idempotents"][lab]
            lines.append(
                f"  {lab:8s} w={e['weight']:5d} dim={e['predicted_dimension']:4d} "
                f"support={e['support_ranks']}"
            )
    if "dimensions" in report:
        dims = report["dimensions"]
        lines += ["", "dimensions (computed / predicted):"]
        for lab in labels:
            d = dims["per_label"][lab]
            flag = "" if d["match"] else "  MISMATCH"
            lines.append(f"  {lab:8s} {d['computed']:4d} / {d['predicted']:4d}{flag}")
        lines.append(
            f"  sum {dims['sum']} (order {group['order']}); "
            f"{dims['family_size']} members vs {dims['squaring_orbit_count']} squaring orbits"
        )
    if "weights" in report:
        lines += ["", "minimum weights:"]
        lines.extend(f"  {lab:8s} {_weight_text(report['weights'][lab])}" for lab in labels)
    if "distributions" in report:
        lines += ["", "weight distributions:"]
        lines.extend(
            f"  {lab:8s} {_distribution_text(report['distributions'][lab])}" for lab in labels
        )
    if "falsification" in report:
        lines += ["", f"FALSIFIED: {report['falsification']}"]
    if "verify" in report:
        verify = report["verify"]
        lines += ["", "verification suite:"]
        lines.extend(
            f"  [{'ok ' if c['passed'] else 'FAIL'}] {c['name']}: {c['detail']}"
            for c in verify["checks"]
        )
        lines.append(f"verification {'passed' if verify['passed'] else 'FAILED'}")
    return "\n".join(lines)


def run(config: RunConfig) -> tuple[int, dict, str]:
    """Execute a run; returns (exit code, JSON report, text rendering)."""
    report = build_report(config)
    return exit_code(report), report, render_text(report)


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _check_writable(path: str) -> bool:
    """Refuse an --export path that cannot be opened for writing; leaves a file's
    content alone.  Returns whether the probe created the file."""
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise _cannot_write(path, exc) from None
    return not existed


def _cannot_write(path: str, exc: OSError) -> UsageError:
    return UsageError(f"cannot write --export {path}: {exc.strerror or exc}")


def _usage_failure(exc: ValueError, created: str | None) -> int:
    """Report a failed run on stderr and remove the file the --export probe created."""
    print(f"error: {exc}", file=sys.stderr)
    if created:
        with contextlib.suppress(OSError):
            os.remove(created)
    return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="analyze",
        description=(
            "Construct the primitive idempotents of a binary abelian group "
            "algebra and analyze the minimal codes they generate."
        ),
    )
    parser.add_argument(
        "group",
        nargs="?",
        help=(
            f"group spec, e.g. 15, 3x11, 9x25, 3x5x11 (order at most {MAX_GROUP_ORDER}, "
            "the largest order whose --dims run was measured)"
        ),
    )
    parser.add_argument("-g", "--group", dest="group_flag", help="group spec (flag form)")
    parser.add_argument("--idempotents", action="store_true", help="export the idempotents")
    parser.add_argument("--dims", action="store_true", help="computed vs predicted dimensions")
    parser.add_argument("--weights", action="store_true", help="minimum weights vs theory")
    parser.add_argument(
        "--distribution", action="store_true", help="full weight distributions within budget"
    )
    parser.add_argument(
        "--verify", action="store_true", help="run the full invariant suite"
    )
    parser.add_argument("--export", metavar="PATH", help="write the JSON report to a file")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="stdout format"
    )
    parser.add_argument(
        "--budget",
        default=str(DEFAULT_BUDGET),
        help="enumeration budget as a codeword count, e.g. 2^20 (min 2^10, max 2^64)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help=f"accepted and ignored, as enumeration is single-threaded; 1 to {MAX_THREADS}",
    )
    parser.add_argument(
        "--allow-unverified-hypotheses",
        action="store_true",
        help="explore groups that fail the standing conditions (marked in output)",
    )
    args = parser.parse_args(argv)

    spec = args.group_flag or args.group
    if not spec:
        parser.error("a group specification is required")
    if args.group and args.group_flag and args.group != args.group_flag:
        parser.error("conflicting group specifications")

    analyses = [
        name
        for name in ("idempotents", "dims", "weights", "distribution", "verify")
        if getattr(args, name)
    ]
    if not analyses:
        analyses = ["idempotents", "dims"]

    created = None
    try:
        config = RunConfig(
            group_spec=spec,
            analyses=tuple(analyses),
            budget=parse_budget(args.budget),
            override=args.allow_unverified_hypotheses,
        )
        if args.threads is not None and not 1 <= args.threads <= MAX_THREADS:
            raise UsageError(f"--threads {args.threads} is outside 1..{MAX_THREADS}")
        if args.export and _check_writable(args.export):
            created = args.export
        code, report, text = run(config)
    except ValueError as exc:
        return _usage_failure(exc, created)

    try:
        if args.format == "json":
            sys.stdout.write(render_json(report))
        else:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (say `| head`): drop the rest of stdout, so that the
        # flush at exit cannot raise again, and still export and exit as usual
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if args.export:
        try:
            with open(args.export, "w", encoding="utf-8") as fh:
                fh.write(render_json(report))
        except OSError as exc:
            return _usage_failure(_cannot_write(args.export, exc), created)
    return code


if __name__ == "__main__":
    sys.exit(main())
