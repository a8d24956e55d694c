"""Command-line front end: analysis runs, verification suites, and exports.

Exit codes: 0 ok, 1 usage, 2 hypothesis failure, 3 refused distribution
(over budget, or under overridden hypotheses a member that is not a minimal
ideal), 4 falsified invariant.  A run builds one JSON report; the text view
and the exit code are pure functions of it.  JSON output is byte-identical for
a fixed config regardless of the thread count.

The command line is read by `_parse_argv` off one table, `_OPTIONS`, which
also renders the usage line and `--help`.  It accepts and refuses what the
argparse parser it replaced did (`tests/oracles.argparse_reference`): long
flags by unique prefix (`--dist`), a value as `-g X`, `-gX`, `-g=X`,
`--group X` or `--group=X`, `--` to end the options, and a value that starts
with "-" only if it reads as a negative number.  Building that parser, with
its gettext and locale lookups, took about 2 ms of each cold `main` call.
"""

import contextlib
import json
import math
import os
import re
import sys
from typing import NamedTuple, NoReturn

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


# Every argument `analyze` takes: (flags, destination, kind, default, metavar,
# help).  The entry without flags is the positional group spec.  A "flag" is
# set to True, a "value" keeps its text, an "int" goes through int(), and a
# tuple of strings is a choice among them.
_OPTIONS = (
    ((), "group", "value", None, "group",
     f"group spec, e.g. 15, 3x11, 9x25, 3x5x11 (order at most {MAX_GROUP_ORDER}, "
     "the largest order whose --dims run was measured)"),
    (("-h", "--help"), "help", "flag", False, None, "show this help and exit"),
    (("-g", "--group"), "group_flag", "value", None, "SPEC", "group spec (flag form)"),
    (("--idempotents",), "idempotents", "flag", False, None, "export the idempotents"),
    (("--dims",), "dims", "flag", False, None, "computed vs predicted dimensions"),
    (("--weights",), "weights", "flag", False, None, "minimum weights vs theory"),
    (("--distribution",), "distribution", "flag", False, None,
     "full weight distributions within budget"),
    (("--verify",), "verify", "flag", False, None, "run the full invariant suite"),
    (("--export",), "export", "value", None, "PATH", "write the JSON report to a file"),
    (("--format",), "format", ("text", "json"), "text", "{text,json}", "stdout format"),
    (("--budget",), "budget", "value", str(DEFAULT_BUDGET), "BUDGET",
     "enumeration budget as a codeword count, e.g. 2^20 (min 2^10, max 2^64)"),
    (("--threads",), "threads", "int", None, "THREADS",
     f"accepted and ignored, as enumeration is single-threaded; 1 to {MAX_THREADS}"),
    (("--allow-unverified-hypotheses",), "allow_unverified_hypotheses", "flag", False, None,
     "explore groups that fail the standing conditions (marked in output)"),
)
_FLAGS = {flag: option for option in _OPTIONS for flag in option[0]}
_DESCRIPTION = """\
Construct the primitive idempotents of a binary abelian group algebra and
analyze the minimal codes they generate."""
_EXIT_CODES = (
    (EXIT_OK, "ok"),
    (EXIT_USAGE, "usage error"),
    (EXIT_HYPOTHESIS, "hypothesis failure"),
    (EXIT_BUDGET, "refused distribution (over budget, or a member that is not a minimal ideal)"),
    (EXIT_FALSIFIED, "falsified invariant"),
)


def _wrap(words: list[str], lead: str, indent: str) -> list[str]:
    """`lead` followed by the words, in lines of at most 79 columns; each
    later line starts with `indent`."""
    lines = [lead]
    for word in words:
        if len(lines[-1]) + 1 + len(word) > 79 and lines[-1].strip():
            lines.append(indent)
        lines[-1] += " " + word
    return lines


def _usage() -> str:
    shown = [f"[{flags[0]} {metavar}]" if metavar else f"[{flags[0]}]"
             for flags, _, _, _, metavar, _ in _OPTIONS[1:]]
    return "\n".join(_wrap([*shown, f"[{_OPTIONS[0][4]}]"], "usage: analyze", " " * 14))


def _help() -> str:
    lines = [_usage(), "", _DESCRIPTION, "", "arguments:"]
    for flags, _, _, _, metavar, text in _OPTIONS:
        shown = ", ".join(f"{flag} {metavar}" if metavar else flag for flag in flags)
        lines += [f"  {shown or metavar}", *_wrap(text.split(), " " * 7, " " * 7)]
    lines += ["", "exit codes:", *(f"  {code}  {meaning}" for code, meaning in _EXIT_CODES)]
    return "\n".join(lines) + "\n"


def _fail(message: str) -> NoReturn:
    """Refuse the command line: the usage line and the message on stderr, exit 1."""
    sys.stderr.write(f"{_usage()}\nanalyze: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _lookup(token: str) -> tuple | None:
    """The option a token names, the flag it matched and the value attached to
    it; None for a positional, and (None, token, None) for an unknown option."""
    if not token.startswith("-") or token == "-":
        return None
    if token in _FLAGS:
        return _FLAGS[token], token, None
    name, eq, attached = token.partition("=")
    if eq and name in _FLAGS:
        return _FLAGS[name], name, attached
    if token.startswith("--"):  # a unique prefix of a long flag, as in --dist
        matches = [flag for flag in _FLAGS if flag.startswith(name)]
        attached = attached if eq else None
    else:  # a short flag with its value attached, as in -g15
        matches = [token[:2]] if token[:2] in _FLAGS else []
        attached = token[2:]
    if len(matches) > 1:
        _fail(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return _FLAGS[matches[0]], matches[0], attached
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None  # a negative number, or text with a space
    return None, token, None


def _parse_argv(argv: list[str]) -> dict:
    """Each destination of `_OPTIONS` read off `argv`.  A malformed command line
    is refused by `_fail`; --help prints the help and exits 0."""
    values = {option[1]: option[3] for option in _OPTIONS}
    end = argv.index("--") if "--" in argv else len(argv)  # the options end at "--"
    found = [_lookup(token) for token in argv[:end]] + [None] * (len(argv) - end)
    extras, group_open, i = [], True, 0
    while i < len(argv):
        if found[i] is None:
            # the first run of positionals gives the group: one word, with the
            # "--" before or after it; the later ones are all extra
            if group_open:
                group_open = False
                i += i == end
                if i < len(argv):
                    values["group"] = argv[i]
                    i += 1
                    i += i == end
            else:
                extras.append(argv[i])
                i += 1
            continue
        option, flag, attached = found[i]
        i += 1
        if option is None:
            extras.append(flag)
            continue
        taken = []
        while option[2] == "flag" and attached is not None:
            # -hg15 is -h then -g15; any other value given to a flag is refused
            if flag.startswith("--") or not attached or "-" + attached[0] not in _FLAGS:
                _fail(f"argument {'/'.join(option[0])}: ignored explicit argument {attached!r}")
            taken.append((option, True))
            flag = "-" + attached[0]
            option, attached = _FLAGS[flag], attached[1:] or None
        if option[2] != "flag" and attached is None:
            if i == end or i == len(argv) or found[i] is not None:
                _fail(f"argument {'/'.join(option[0])}: expected one argument")
            attached = argv[i]
            i += 1
        taken.append((option, True if option[2] == "flag" else attached))
        for (flags, dest, kind, *_), value in taken:
            if dest == "help":
                sys.stdout.write(_help())
                raise SystemExit(EXIT_OK)
            if kind == "int":
                try:
                    value = int(value)
                except ValueError:
                    _fail(f"argument {'/'.join(flags)}: invalid int value: {value!r}")
            elif isinstance(kind, tuple) and value not in kind:
                choices = ", ".join(map(repr, kind))
                _fail(f"argument {'/'.join(flags)}: invalid choice: {value!r} (choose from {choices})")
            values[dest] = value
    if extras:
        _fail(f"unrecognized arguments: {' '.join(extras)}")
    return values


def main(argv: list[str] | None = None) -> int:
    args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    spec = args["group_flag"] or args["group"]
    if not spec:
        _fail("a group specification is required")
    if args["group"] and args["group_flag"] and args["group"] != args["group_flag"]:
        _fail("conflicting group specifications")

    analyses = [
        name
        for name in ("idempotents", "dims", "weights", "distribution", "verify")
        if args[name]
    ]
    if not analyses:
        analyses = ["idempotents", "dims"]

    export, created = args["export"], None
    try:
        config = RunConfig(
            group_spec=spec,
            analyses=tuple(analyses),
            budget=parse_budget(args["budget"]),
            override=args["allow_unverified_hypotheses"],
        )
        threads = args["threads"]
        if threads is not None and not 1 <= threads <= MAX_THREADS:
            raise UsageError(f"--threads {threads} is outside 1..{MAX_THREADS}")
        if export and _check_writable(export):
            created = export
        code, report, text = run(config)
    except ValueError as exc:
        return _usage_failure(exc, created)

    try:
        if args["format"] == "json":
            sys.stdout.write(render_json(report))
        else:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (say `| head`): drop the rest of stdout, so that the
        # flush at exit cannot raise again, and still export and exit as usual
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if export:
        try:
            with open(export, "w", encoding="utf-8") as fh:
                fh.write(render_json(report))
        except OSError as exc:
            return _usage_failure(_cannot_write(export, exc), created)
    return code


if __name__ == "__main__":
    sys.exit(main())
