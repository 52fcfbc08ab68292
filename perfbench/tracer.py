"""Layer tracing from outside the library.

``install`` wraps the public functions of every ``nicfdim`` module in
every namespace that holds them by name (``pressure_dim.partition_sum``
and ``spectrum.partition_sum``, ``exactnum.pow_enclosure`` and
``pressure_dim.pow_enclosure``, ...), plus the ``AlphabetSelection``
constructors and ``Word.__init__``.  No library source changes.

Coarse calls (``SPANS``) are recorded as spans in memory: name, start,
end, parent span, job id, the time spent in fine-grained children, and
an argument or result summary.  Fine-grained calls (interval kernels,
constants, words) run hundreds of thousands of times per batch, so they
are aggregated into per-(name, calling namespace) counts and times
instead; their time inside a span is stored on that span, so a span's
self time is its duration minus its child spans minus that leaf time.
State is per thread: calls made from partition-sum pool threads are
counted but charged to no span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Dict, List, Optional

SPANS = frozenset({
    "cli.main",
    "spectrum.construct", "spectrum.mme_check",
    "spectrum.direct_lambda_comparison",
    "pressure_dim.dim_interval", "pressure_dim.certify_nonpos",
    "pressure_dim.certify_nonneg", "pressure_dim.pressure_bounds",
    "pressure_dim.partition_sum", "pressure_dim.finiteness_exponent",
    "pressure_dim.classify_nature",
    "ledger.run_all", "ledger.run_case",
})

CONSTANTS = ("nicf_system.alpha_interval", "nicf_system.beta4_interval",
             "nicf_system.k_prec4_interval", "nicf_system.distortion_from_ratio")
CERTIFY = ("pressure_dim.certify_nonpos", "pressure_dim.certify_nonneg")
LEDGER_CASES = ("lemma_2_6", "case_j_gt_k", "case_j_le_k", "case_esti",
                "case_pm5", "case_pm4", "case_letter3", "q_growth",
                "lem_2s_table")


def _letter_count(system) -> int:
    letters = getattr(system, "letters", None)
    if letters is not None:
        return len(letters)
    return max(len(system.ratios) + len(system.families), 1)


def _note(name: str, args, kwargs, result):
    """Argument or result summary kept on a span (only where a metric
    needs it)."""
    if name == "pressure_dim.partition_sum":
        system, n = args[0], args[2] if len(args) > 2 else kwargs["n"]
        return [_letter_count(system), n, repr(system)]
    if name in CERTIFY:
        return None if result is None else bool(result)
    if name == "ledger.run_case":
        return args[0] if args else kwargs["case_id"]
    if name == "spectrum.construct" and result is not None:
        return [len(result.decisions),
                sum(1 for d in result.decisions if d.accepted)]
    return None


class _ThreadState:
    __slots__ = ("stack", "spans", "leaves", "leaf_depth", "main")

    def __init__(self):
        self.stack: List[list] = []      # open spans: [leaf time inside, index]
        self.spans: List[tuple] = []
        self.leaves = defaultdict(lambda: [0, 0.0])
        self.leaf_depth = 0
        self.main = threading.current_thread() is threading.main_thread()


class Tracer:
    def __init__(self):
        self.job: Optional[str] = None
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
            return st

    def wrap(self, fn, name: str, tag: str):
        return (self._wrap_span if name in SPANS else self._wrap_leaf)(fn, name, tag)

    def _wrap_span(self, fn, name: str, tag: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            frame = [0.0, len(st.spans)]
            st.spans.append(None)
            stack.append(frame)
            depth, st.leaf_depth = st.leaf_depth, 0
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                st.leaf_depth = depth
                stack.pop()
                st.spans[frame[1]] = (
                    name, t0, t1, stack[-1][1] if stack else None,
                    tracer.job, frame[0], _note(name, args, kwargs, result))

        return traced

    def _wrap_leaf(self, fn, name: str, tag: str):
        tracer = self
        key = (name, tag)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            st.leaf_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st.leaf_depth -= 1
                agg = st.leaves[key]
                agg[0] += 1
                agg[1] += dt
                # only the outermost leaf is charged to the enclosing span
                if not st.leaf_depth and st.stack:
                    st.stack[-1][0] += dt

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public nicfdim function in every nicfdim namespace."""
        mods = {name: mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == "nicfdim"
                                        or name.startswith("nicfdim."))}
        targets = {}
        for mod_name, mod in mods.items():
            short = mod_name.rsplit(".", 1)[-1]
            for attr, value in vars(mod).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != mod_name:
                    continue
                if inspect.isfunction(value) or hasattr(value, "cache_info"):
                    targets[id(value)] = (value, f"{short}.{attr}")
        for mod_name, mod in mods.items():
            tag = mod_name.rsplit(".", 1)[-1]
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, self.wrap(value, hit[1], tag))
        symbolic = mods["nicfdim.symbolic"]
        sel = symbolic.AlphabetSelection
        for attr in ("explicit", "abs_range", "cofinite"):
            fn = inspect.getattr_static(sel, attr).__func__
            setattr(sel, attr, staticmethod(self.wrap(fn, "symbolic.selection", "symbolic")))
        word = mods["nicfdim.cf_core"].Word
        word.__init__ = self.wrap(word.__init__, "cf_core.word", "cf_core")

    # -- output ------------------------------------------------------------

    def spans(self) -> List[tuple]:
        """Main-thread spans; parent fields index into this list."""
        for st in self._states:
            if st.main:
                return list(st.spans)
        return []

    def leaves(self) -> Dict[tuple, List]:
        total: Dict[tuple, List] = defaultdict(lambda: [0, 0.0])
        for st in self._states:
            for key, (calls, secs) in st.leaves.items():
                total[key][0] += calls
                total[key][1] += secs
        return total

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, job, leaf_s, note in self.spans():
                fh.write(json.dumps({
                    "name": name, "start": t0, "end": t1, "parent": parent,
                    "job": job, "leaf_s": leaf_s, "note": note}) + "\n")


def layer_metrics(spans: List[tuple], leaves: Dict[tuple, List]) -> Dict[str, float]:
    """Per-layer metrics from main-thread spans and leaf aggregates."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, *_ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    by_name = defaultdict(list)
    for i, (name, t0, t1, parent, job, leaf_s, note) in enumerate(spans):
        by_name[name].append((t1 - t0, t1 - t0 - child[i] - leaf_s, note, parent))

    def total(name):
        return sum(d for d, *_ in by_name[name])

    def self_total(name):
        return sum(s for _, s, *_ in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    m: Dict[str, float] = {}
    ps = by_name["pressure_dim.partition_sum"]
    m["pressure_dim.partition_sum_calls"] = len(ps)
    m["pressure_dim.partition_sum_s"] = total("pressure_dim.partition_sum")
    m["pressure_dim.partition_sum_self_s"] = self_total("pressure_dim.partition_sum")
    words = sum(note[0] ** note[1] for _, _, note, _ in ps)
    m["pressure_dim.logical_words"] = words
    m["pressure_dim.words_per_s"] = ratio(words, m["pressure_dim.partition_sum_s"])
    trees = {(note[2], note[1]) for _, _, note, _ in ps}
    m["pressure_dim.distinct_tree_ratio"] = ratio(len(trees), len(ps))
    certs = [c for name in CERTIFY for c in by_name[name]]
    m["pressure_dim.certify_calls"] = len(certs)
    m["pressure_dim.certify_s"] = sum(d for d, *_ in certs)
    m["pressure_dim.certify_decided_ratio"] = ratio(
        sum(1 for _, _, note, _ in certs if note), len(certs))
    m["pressure_dim.dim_interval_s"] = total("pressure_dim.dim_interval")
    m["pressure_dim.pressure_bounds_calls"] = len(by_name["pressure_dim.pressure_bounds"])

    def leaf(names, keep=lambda tag: True):
        """Calls and seconds of the named leaves, from callers ``keep``
        accepts (by calling namespace)."""
        hits = [v for (n, tag), v in leaves.items() if n in names and keep(tag)]
        return sum(c for c, _ in hits), sum(s for _, s in hits)

    for label, keep in (("from_pressure_dim", lambda t: t == "pressure_dim"),
                        ("from_other", lambda t: t != "pressure_dim")):
        c, s = leaf(("exactnum.pow_enclosure",), keep)
        m[f"exactnum.pow_enclosure.{label}_calls"] = c
        m[f"exactnum.pow_enclosure.{label}_s"] = s
    for fn in ("tail_sum_enclosure", "log_interval", "surd_enclosure"):
        c, s = leaf((f"exactnum.{fn}",))
        m[f"exactnum.{fn}_calls"] = c
        m[f"exactnum.{fn}_s"] = s
    c, s = leaf(CONSTANTS)
    m["nicf_system.constants_calls"] = c
    m["nicf_system.constants_s"] = s

    constructs = [c for c in by_name["spectrum.construct"] if c[2] is not None]
    tried = sum(note[0] for _, _, note, _ in constructs)
    accepted = sum(note[1] for _, _, note, _ in constructs)
    construct_ids = {i for i, s in enumerate(spans) if s[0] == "spectrum.construct"}
    per_letter = sum(d for d, _, _, parent in certs if parent in construct_ids)
    m["spectrum.construct_s"] = total("spectrum.construct")
    m["spectrum.letters_tried"] = tried
    m["spectrum.accept_ratio"] = ratio(accepted, tried)
    m["spectrum.certify_per_letter"] = ratio(per_letter, tried)
    m["spectrum.mme_check_s"] = total("spectrum.mme_check")
    m["spectrum.direct_comparison_s"] = total("spectrum.direct_lambda_comparison")

    case_s = Counter()
    for d, _, note, _ in by_name["ledger.run_case"]:
        case_s[note] += d
    for case in LEDGER_CASES:
        m[f"ledger.case.{case}_s"] = case_s[case]
    m["ledger.run_all_s"] = total("ledger.run_all")

    m["cli.self_s"] = self_total("cli.main")
    m["cf_core.word_s"] = leaf(("cf_core.word",))[1]
    m["symbolic.selection_s"] = leaf(("symbolic.selection",))[1]
    return m
