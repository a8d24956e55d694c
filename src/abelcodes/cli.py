"""Command-line front end: analysis runs, verification suites, and exports.

Exit codes: 0 ok, 1 usage, 2 hypothesis failure, 3 budget refusal,
4 falsified invariant.  JSON output is byte-identical for a fixed config
regardless of the thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import codes
from .codes import DEFAULT_BUDGET, MIN_BUDGET
from .idempotents import (
    IdempotentFamily,
    family_pq,
    family_prime_power,
    family_three_primes,
)
from .number_theory import ConsistencyError, HypothesisError, factorize
from .cyclotomic import class_count

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_BUDGET = 3
EXIT_FALSIFIED = 4

MAX_GROUP_ORDER = 10**6
MAX_BUDGET = 1 << 64  # far beyond any enumeration that can finish
THREADS_ENV_VAR = "ABELCODES_THREADS"


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class GroupShape:
    """A parsed group specification."""

    kind: str  # "pq" | "prime_power" | "three_primes"
    p: int = 0
    m: int = 0
    q: int = 0
    n: int = 0
    primes: tuple[int, ...] = ()
    text: str = ""

    @property
    def order(self) -> int:
        if self.kind == "three_primes":
            p1, p2, p3 = self.primes
            return p1 * p2 * p3
        return self.p**self.m * self.q**self.n


def _parse_power(text: str, limit: int, what: str) -> int:
    """Parse "b^e" or a plain integer, refusing values above `limit`.

    The size of b**e is bounded from the bit length of b before the power is
    computed, so a huge exponent is refused at once.
    """
    base_text, caret, exp_text = text.partition("^")
    try:
        base = int(base_text)
        exp = int(exp_text) if caret else 1
    except ValueError:
        raise UsageError(f"cannot parse {what} {text!r}") from None
    if exp < 1:
        raise UsageError(f"exponent in {text!r} must be positive")
    # |b| >= 2**(bits - 1), so a large (bits - 1) * e proves |b**e| > limit unevaluated
    if (abs(base).bit_length() - 1) * exp < limit.bit_length():
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
        factors = factorize(value)
        if 2 in factors:
            raise UsageError("even group orders are not supported")
        if len(factors) == 2:
            (p, m), (q, n) = sorted(factors.items())
            return GroupShape(kind="prime_power" if (m, n) != (1, 1) else "pq",
                              p=p, m=m, q=q, n=n, text=spec)
        if len(factors) == 3 and all(e == 1 for e in factors.values()):
            return GroupShape(
                kind="three_primes", primes=tuple(sorted(factors)), text=spec
            )
        raise UsageError(
            f"group order {value} does not factor as p^m q^n or p1 p2 p3"
        )
    if len(parts) == 2:
        p, m = _parse_prime_power(parts[0])
        q, n = _parse_prime_power(parts[1])
        if p == q:
            raise UsageError("the two factors must involve distinct primes")
        if p == 2 or q == 2:
            raise UsageError("even group orders are not supported")
        kind = "pq" if (m, n) == (1, 1) else "prime_power"
        return GroupShape(kind=kind, p=p, m=m, q=q, n=n, text=spec)
    if len(parts) == 3:
        primes = []
        for part in parts:
            p, m = _parse_prime_power(part)
            if m != 1:
                raise UsageError("three-factor groups must be squarefree")
            primes.append(p)
        if len(set(primes)) != 3 or 2 in primes:
            raise UsageError("three-factor groups need three distinct odd primes")
        return GroupShape(kind="three_primes", primes=tuple(primes), text=spec)
    raise UsageError(f"cannot parse group spec {spec!r}")


@dataclass
class RunConfig:
    group_spec: str
    analyses: tuple[str, ...]
    budget: int = DEFAULT_BUDGET
    threads: int = 1
    fmt: str = "text"
    export_path: str | None = None
    override: bool = False


def parse_budget(text: str) -> int:
    value = _parse_power(text, MAX_BUDGET, "budget")
    if value < MIN_BUDGET:
        raise UsageError(f"budget must be at least {MIN_BUDGET} (2^10)")
    return value


def default_threads() -> int:
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def build_family(shape: GroupShape, *, override: bool = False) -> IdempotentFamily:
    if shape.order > MAX_GROUP_ORDER:
        raise UsageError(f"group order {shape.order} exceeds the {MAX_GROUP_ORDER} guard")
    if shape.kind == "pq":
        return family_pq(shape.p, shape.q, override=override)
    if shape.kind == "prime_power":
        return family_prime_power(shape.p, shape.m, shape.q, shape.n, override=override)
    return family_three_primes(*shape.primes, override=override)


def _group_section(shape: GroupShape, family: IdempotentFamily) -> dict:
    section = {
        "kind": family.shape,
        "spec": shape.text,
        "factor_orders": list(family.group.factor_orders),
        "order": family.group.order,
        "labels": list(family.labels),
        "parameters": {k: v for k, v in sorted(family.params.items())},
        "squaring_orbit_count": class_count(family.group),
    }
    return section


def run(config: RunConfig) -> tuple[int, dict, str]:
    """Execute a run; returns (exit code, JSON report, text rendering)."""
    shape = parse_group_spec(config.group_spec)
    codes.clear_caches()  # each run starts cold and drops the previous run's codes
    try:
        family = build_family(shape, override=config.override)
    except HypothesisError as exc:
        report = {
            "config": _config_section(config),
            "hypotheses": {"satisfied": False, "failures": list(exc.failures)},
        }
        text = "hypothesis failure:\n" + "\n".join(f"  - {f}" for f in exc.failures)
        return EXIT_HYPOTHESIS, report, text
    except ConsistencyError as exc:
        # reachable only in override mode: the construction itself breaks down
        # when the standing conditions fail badly enough
        failures = [f"construction failed under overridden hypotheses: {exc}"]
        report = {
            "config": _config_section(config),
            "hypotheses": {"satisfied": False, "failures": failures},
        }
        text = "hypothesis failure:\n" + "\n".join(f"  - {f}" for f in failures)
        return EXIT_HYPOTHESIS, report, text

    warnings = list(family.params.get("hypothesis_warnings", []))
    report: dict = {
        "config": _config_section(config),
        "group": _group_section(shape, family),
        "hypotheses": {"satisfied": not warnings, "failures": warnings},
    }
    lines: list[str] = [
        f"group {shape.text}: {family.shape}, factors {list(family.group.factor_orders)}, "
        f"order {family.group.order}, {len(family.labels)} idempotents"
    ]
    if warnings:
        lines.append("WARNING: running with unverified hypotheses:")
        lines.extend(f"  - {w}" for w in warnings)

    falsified = False
    refused = False

    if "idempotents" in config.analyses:
        report["idempotents"] = family.to_json()["idempotents"]
        lines.append("")
        lines.append("idempotents (label, weight, predicted dimension, support):")
        for lab in family.labels:
            e = family.elements[lab]
            lines.append(
                f"  {lab:8s} w={e.weight:5d} dim={family.predicted_dims[lab]:4d} "
                f"support={e.support_ranks()}"
            )

    # --verify reuses the cached bases and enumerations; --dims alone enumerates nothing.
    reports = None
    if {"dims", "weights", "distribution"} & set(config.analyses):
        reports = codes.analyze_family(
            family,
            budget=config.budget,
            threads=config.threads,
            want_distribution="distribution" in config.analyses,
            want_weights="weights" in config.analyses,
        )

    if "dims" in config.analyses and reports is not None:
        per_label = {
            lab: {
                "computed": reports[lab].dimension,
                "predicted": reports[lab].predicted_dimension,
                "match": reports[lab].dimension_matches,
            }
            for lab in family.labels
        }
        total = sum(r.dimension for r in reports.values())
        n_orbits = class_count(family.group)
        report["dimensions"] = {
            "per_label": per_label,
            "sum": total,
            "sum_matches_order": total == family.group.order,
            "family_size": len(family.labels),
            "squaring_orbit_count": n_orbits,
            "count_matches": len(family.labels) == n_orbits,
        }
        if not all(v["match"] for v in per_label.values()):
            falsified = True
        if total != family.group.order or len(family.labels) != n_orbits:
            falsified = True
        lines.append("")
        lines.append("dimensions (computed / predicted):")
        for lab in family.labels:
            r = reports[lab]
            flag = "" if r.dimension_matches else "  MISMATCH"
            lines.append(f"  {lab:8s} {r.dimension:4d} / {r.predicted_dimension:4d}{flag}")
        lines.append(f"  sum {total} (order {family.group.order}); "
                     f"{len(family.labels)} members vs {n_orbits} squaring orbits")

    if "weights" in config.analyses and reports is not None:
        section = {}
        lines.append("")
        lines.append("minimum weights:")
        for lab in family.labels:
            r = reports[lab]
            section[lab] = {
                "dimension": r.dimension,
                "min_weight": r.min_weight.to_json(),
                "theory": r.theory.to_json(),
                "theory_match": r.theory_match,
            }
            if r.falsified:
                falsified = True
            if r.min_weight.exact:
                shown = f"{r.min_weight.value} (exact)"
            else:
                shown = f"in [{r.min_weight.lower}, {r.min_weight.upper}] (bounded)"
            theory_note = ""
            if r.theory.kind == "exact":
                theory_note = f"  expected {r.theory.value} [{r.theory.source}]"
            elif r.theory.kind == "bounds":
                theory_note = f"  expected in [{r.theory.lower}, {r.theory.upper}] [{r.theory.source}]"
            elif r.theory.kind == "conjecture":
                theory_note = f"  conjectured {r.theory.value} [{r.theory.source}]"
            lines.append(f"  {lab:8s} {shown}{theory_note}")
        report["weights"] = section

    if "distribution" in config.analyses and reports is not None:
        section = {}
        lines.append("")
        lines.append("weight distributions:")
        for lab in family.labels:
            r = reports[lab]
            if r.distribution is not None:
                section[lab] = {str(w): c for w, c in sorted(r.distribution.items())}
                body = ", ".join(f"{w}:{c}" for w, c in sorted(r.distribution.items()))
                lines.append(f"  {lab:8s} {{{body}}}")
            else:
                refused = True
                section[lab] = {
                    "refused": True,
                    "required_budget": r.distribution_refused,
                }
                lines.append(
                    f"  {lab:8s} refused, required budget {r.distribution_refused}"
                )
        report["distributions"] = section

    if "verify" in config.analyses:
        outcome = codes.family_verification(
            family, budget=config.budget, threads=config.threads
        )
        report["verify"] = {
            "passed": outcome["passed"],
            "checks": [
                {"name": c["name"], "passed": c["passed"], "detail": c["detail"]}
                for c in outcome["checks"]
            ],
        }
        if not outcome["passed"]:
            falsified = True
        lines.append("")
        lines.append("verification suite:")
        for c in outcome["checks"]:
            mark = "ok " if c["passed"] else "FAIL"
            lines.append(f"  [{mark}] {c['name']}: {c['detail']}")
        lines.append(f"verification {'passed' if outcome['passed'] else 'FAILED'}")

    if falsified:
        code = EXIT_FALSIFIED
    elif refused:
        code = EXIT_BUDGET
    else:
        code = EXIT_OK
    return code, report, "\n".join(lines)


def _config_section(config: RunConfig) -> dict:
    return {
        "group": config.group_spec,
        "analyses": sorted(config.analyses),
        "budget": config.budget,
        "override": config.override,
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="analyze",
        description=(
            "Construct the primitive idempotents of a binary abelian group "
            "algebra and analyze the minimal codes they generate."
        ),
    )
    parser.add_argument("group", nargs="?", help="group spec, e.g. 15, 3x11, 9x25, 3x5x11")
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
        help=f"worker threads (default: ${THREADS_ENV_VAR} or machine parallelism)",
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

    try:
        config = RunConfig(
            group_spec=spec,
            analyses=tuple(analyses),
            budget=parse_budget(args.budget),
            threads=max(1, args.threads) if args.threads else default_threads(),
            fmt=args.format,
            export_path=args.export,
            override=args.allow_unverified_hypotheses,
        )
        code, report, text = run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if config.fmt == "json":
        sys.stdout.write(render_json(report))
    else:
        print(text)
    if config.export_path:
        with open(config.export_path, "w", encoding="utf-8") as fh:
            fh.write(render_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
