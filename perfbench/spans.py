"""Span recording around the layers of abelcodes, and per-layer metrics.

The recorder wraps the public functions at each layer boundary of the
package (see LAYERS) in span-recording wrappers.  A span is a tuple

    (span id, name, start, end, parent span id, attributes or None)

kept in memory; the request id is held once by the recorder and written with
every span when the spans are dumped at the end of a request.  Times are
`time.perf_counter()` seconds.

Each wrapper is installed where its name is looked up: class attributes on
the class, module-level functions in every loaded `abelcodes` module that
binds the same function object (`codes` imports `scan_codewords` and
`independent_row_indices` by name, so the binding in `codes` is the one the
program calls).  The requests run single-threaded (`--threads 1`), so one
stack of open spans is enough.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable, Sequence

ROOT_SPAN = "request"


def _rows_attrs(args, kwargs, result) -> dict:
    rows = args[0] if args else kwargs["rows"]
    kept = result if isinstance(result, int) else len(result)
    return {"rows_in": len(rows), "rows_kept": kept}


def span_key(rows: Sequence[int]) -> str:
    """A digest of the span of `rows` over F2, the same for every basis of it."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            high = row.bit_length() - 1
            if high not in pivots:
                pivots[high] = row
                break
            row ^= pivots[high]
    # full reduction gives the unique reduced echelon basis of the span
    for high in sorted(pivots):
        for other in pivots:
            if other != high and (pivots[other] >> high) & 1:
                pivots[other] ^= pivots[high]
    digest = hashlib.blake2b(digest_size=12)
    for high in sorted(pivots):
        digest.update(pivots[high].to_bytes((high + 8) // 8, "little"))
        digest.update(b"/")
    return digest.hexdigest()


def _scan_attrs(args, kwargs, result) -> dict:
    rows = args[0] if args else kwargs["rows"]
    return {
        "words": (1 << len(rows)) - 1,
        "hist": bool(kwargs.get("want_hist")),
        "code": span_key(rows),
    }


def _min_weight_attrs(args, kwargs, result) -> dict:
    return {"exact": bool(result.exact)}


# (span name, module, attribute path, attribute extractor or None)
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.parse", "abelcodes.cli", "parse_group_spec", None),
    ("cli.parse", "abelcodes.cli", "parse_budget", None),
    ("cli.run", "abelcodes.cli", "run", None),
    ("cli.render_json", "abelcodes.cli", "render_json", None),
    ("number_theory.validate", "abelcodes.number_theory", "validate_hypotheses", None),
    ("number_theory.validate", "abelcodes.idempotents", "validate_triple", None),
    ("cyclotomic.classes", "abelcodes.cyclotomic", "cyclotomic_classes", None),
    ("idempotents.build", "abelcodes.idempotents", "family_pq", None),
    ("idempotents.build", "abelcodes.idempotents", "family_prime_power", None),
    ("idempotents.build", "abelcodes.idempotents", "family_three_primes", None),
    ("idempotents.verify_axioms", "abelcodes.idempotents", "IdempotentFamily.verify_axioms", None),
    ("group_algebra.translate", "abelcodes.group_algebra", "AbelianGroup.translate_bits", None),
    ("group_algebra.mul", "abelcodes.group_algebra", "AlgebraElement.__mul__", None),
    ("group_algebra.frobenius", "abelcodes.group_algebra", "AlgebraElement.frobenius", None),
    ("gf2.rank", "abelcodes.gf2", "independent_row_indices", _rows_attrs),
    ("gf2.rank", "abelcodes.gf2", "gf2_rank", _rows_attrs),
    ("codes.ideal_basis", "abelcodes.codes", "ideal_basis", None),
    ("codes.check_basis", "abelcodes.codes", "check_basis", None),
    ("codes.analyze_family", "abelcodes.codes", "analyze_family", None),
    ("codes.family_verification", "abelcodes.codes", "family_verification", None),
    ("codes.minimum_weight", "abelcodes.codes", "minimum_weight", _min_weight_attrs),
    ("codes.weight_distribution", "abelcodes.codes", "weight_distribution", None),
    ("codes.scan", "abelcodes.codes", "scan_codewords", _scan_attrs),
)


class Recorder:
    """Collects the spans of one request in memory."""

    def __init__(self, request_id: str) -> None:
        self.request_id = request_id
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, attrs_fn: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            attrs = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                attrs = {"raised": type(exc).__name__}
                raise
            else:
                end = clock()
                if attrs_fn is not None:
                    attrs = attrs_fn(args, kwargs, result)
                return result
            finally:
                stack.pop()
                spans.append((sid, name, start, end, parent, attrs))

        return functools.wraps(fn)(wrapper)

    def install(self, layers: Iterable[tuple] = LAYERS) -> None:
        """Replace each layer function by its wrapper wherever it is bound."""
        for name, module_name, path, attrs_fn in layers:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, self.wrap(name, cls.__dict__[attr], attrs_fn))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(name, original, attrs_fn)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("abelcodes"):
                    if getattr(loaded, path, None) is original:
                        setattr(loaded, path, wrapped)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": self.request_id,
                            "attrs": attrs,
                        }
                    )
                    + "\n"
                )


def load(path: str) -> list[tuple]:
    """Read spans written by Recorder.dump back into span tuples."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            s = json.loads(line)
            out.append((s["id"], s["name"], s["start"], s["end"], s["parent"], s["attrs"]))
    return out


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[tuple]) -> dict[int, float]:
    """Per span id: its duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _attrs in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _attrs in spans:
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(sid, ())]
        out[sid] = (end - start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def layer_metrics(spans: Sequence[tuple], n_labels: int) -> dict[str, float]:
    """The per-layer metrics of one traced request, by metric name.

    `total_s` sums the durations of the outermost spans of a name (a span
    nested in a span of the same name is not counted twice); `self_s` sums
    self times.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)

    def has_ancestor(span: tuple, name: str) -> bool:
        parent = span[4]
        while parent is not None:
            anc = by_id[parent]
            if anc[1] == name:
                return True
            parent = anc[4]
        return False

    rows_in = rows_kept = 0
    scan_words = {True: 0, False: 0}
    scan_time = {True: 0.0, False: 0.0}
    codes_seen: dict[str, int] = {}
    refusals = 0
    axiom_products = 0
    for span in spans:
        sid, name, start, end, _parent, attrs = span
        calls[name] += 1
        self_s[name] += selfs[sid]
        if not has_ancestor(span, name):
            total[name] += end - start
        attrs = attrs or {}
        if name == "gf2.rank":
            rows_in += attrs["rows_in"]
            rows_kept += attrs["rows_kept"]
        elif name == "codes.scan":
            scan_words[attrs["hist"]] += attrs["words"]
            scan_time[attrs["hist"]] += selfs[sid]
            codes_seen[attrs["code"]] = attrs["words"]
        elif name == "codes.minimum_weight" and attrs.get("exact") is False:
            refusals += 1
        elif name == "codes.weight_distribution" and attrs.get("raised") == "BudgetExceededError":
            refusals += 1
        elif name == "group_algebra.mul" and has_ancestor(span, "idempotents.verify_axioms"):
            axiom_products += 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    words = scan_words[True] + scan_words[False]
    return {
        "group_algebra.translate.calls": calls["group_algebra.translate"],
        "group_algebra.translate.self_s": self_s["group_algebra.translate"],
        "group_algebra.mul.calls": calls["group_algebra.mul"],
        "group_algebra.mul.self_s": self_s["group_algebra.mul"],
        "group_algebra.frobenius.self_s": self_s["group_algebra.frobenius"],
        "gf2.rank.rows_in": rows_in,
        "gf2.rank.rows_kept": rows_kept,
        "gf2.rank.useful_ratio": ratio(rows_kept, rows_in),
        "gf2.rank.self_s": self_s["gf2.rank"],
        "codes.ideal_basis.calls": calls["codes.ideal_basis"],
        "codes.ideal_basis.calls_per_label": ratio(calls["codes.ideal_basis"], n_labels),
        "codes.analyze_family.calls": calls["codes.analyze_family"],
        "codes.check_basis.total_s": total["codes.check_basis"],
        "codes.family_verification.total_s": total["codes.family_verification"],
        "codes.scan.calls": calls["codes.scan"],
        "codes.scan.words": words,
        "codes.scan.useful_ratio": ratio(sum(codes_seen.values()), words),
        "codes.scan.self_s": self_s["codes.scan"],
        "codes.scan.min_words_per_s": ratio(scan_words[False], scan_time[False]),
        "codes.scan.hist_words_per_s": ratio(scan_words[True], scan_time[True]),
        "codes.budget.refusals": refusals,
        "idempotents.build.total_s": total["idempotents.build"],
        "idempotents.verify_axioms.total_s": total["idempotents.verify_axioms"],
        "idempotents.verify_axioms.products": axiom_products,
        "cyclotomic.classes.calls": calls["cyclotomic.classes"],
        "cyclotomic.classes.self_s": self_s["cyclotomic.classes"],
        "number_theory.validate.total_s": total["number_theory.validate"],
        "cli.parse.total_s": total["cli.parse"],
        "cli.run.self_s": self_s["cli.run"],
        "cli.render_json.total_s": total["cli.render_json"],
    }
