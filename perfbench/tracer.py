"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
tracer replaces a public function of `wiretap` by a wrapper in every
`wiretap` module namespace that holds it, and replaces each module's `np`
by a proxy whose `kron` and `linalg.{eigh,eigvalsh,svd}` are wrapped.  A
span is (round, name, parent, start, end); spans live in flat arrays in
memory and are written out once, when the run ends.  A span's self time is
its duration minus the durations of its direct children.

`LabeledSpace.dim` is read hundreds of thousands of times per run, so it is
counted, not spanned: its time stays in the caller's self time.
"""

from __future__ import annotations

import json
import statistics
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name): public functions wrapped wherever bound.
SPANNED_FUNCTIONS = [
    ("wiretap.scenario", "scenario_from_json", "scenario.load"),
    ("wiretap.qcore", "load_state", "scenario.load"),
    ("wiretap.channels", "channel_from_resource_state", "channels.resource_state"),
    ("wiretap.qcore", "partial_trace", "qcore.partial_trace"),
    ("wiretap.qcore", "hermitian_trace_norm", "qcore.trace_norm"),
    ("wiretap.qcore", "uhlmann_fixup", "qcore.uhlmann_fixup"),
    ("wiretap.channels", "apply", "channels.apply"),
    ("wiretap.channels", "cq_state", "channels.cq_state"),
    ("wiretap.entropic", "von_neumann_entropy", "entropic.entropy"),
    ("wiretap.entropic", "mutual_information", "entropic.mutual_information"),
    ("wiretap.rates", "theorem1_rate", "rates.theorem1_rate"),
    ("wiretap.optimize", "optimize_theorem1", "optimize.search"),
    ("wiretap.optimize", "optimize_channel_functional", "optimize.search"),
    ("wiretap.measures", "dense_coding_advantage", "measures.dense_coding"),
    ("wiretap.measures", "entanglement_of_purification", "measures.ep"),
    ("wiretap.codesim", "run_experiment", "codesim.run_experiment"),
    ("wiretap.codesim", "sample_codebook", "codesim.sample_codebook"),
    ("wiretap.codesim", "pgm_decoder", "codesim.pgm"),
    ("wiretap.codesim", "pgm_success", "codesim.pgm"),
    ("wiretap.codesim", "leakage", "codesim.leakage"),
    ("wiretap.codesim", "marginal_residual_and_fixup", "codesim.fixup"),
]

LINALG_FUNCTIONS = ("eigh", "eigvalsh", "svd")

# Per-layer metrics reported by the traced run: name -> unit.
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "cli.self_s": "s",
    "scenario.load_s": "s",
    "channels.resource_state_s": "s",
    "qcore.space_dim.calls": "count",
    "qcore.partial_trace.calls": "count",
    "qcore.partial_trace.s": "s",
    "qcore.clamped.calls": "count",
    "qcore.clamped.s": "s",
    "qcore.trace_norm.calls": "count",
    "qcore.trace_norm.s": "s",
    "qcore.uhlmann_fixup.s": "s",
    "channels.apply.calls": "count",
    "channels.apply.s": "s",
    "channels.cq_state.calls": "count",
    "entropic.entropy.calls": "count",
    "entropic.entropy.s": "s",
    "entropic.mutual_information.s": "s",
    "rates.theorem1_rate.calls": "count",
    "rates.theorem1_rate.s": "s",
    "rates.theorem1_rate.us_per_call": "us",
    "optimize.objective.calls": "count",
    "optimize.self_s": "s",
    "measures.dense_coding.s": "s",
    "measures.ep.s": "s",
    "measures.objective.us_per_call": "us",
    "codesim.pgm.s": "s",
    "codesim.leakage.s": "s",
    "codesim.fixup.s": "s",
    "codesim.sample_codebook.s": "s",
    "codesim.self_s": "s",
    "codesim.dense_bytes": "bytes",
    "linalg.eigh.calls": "count",
    "linalg.eigvalsh.calls": "count",
    "linalg.svd.calls": "count",
    "linalg.s": "s",
    "linalg.dim3_sum": "count",
    "numpy.kron.calls": "count",
    "numpy.kron.s": "s",
    "trace.overhead_s": "s",
}


class _Proxy:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def _wiretap_modules():
    return [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "wiretap" and m]


class Tracer:
    """Records spans while installed; `install` and `uninstall` bracket it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rounds = array("i")
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.dim3 = array("d")
        self._stack: list[int] = []
        self.round = 0
        self.dim_reads = [0]
        self.dim_reads_per_round: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, dim3=None):
        """Return `fn` wrapped in a span called `name`.

        `dim3`, if given, maps the call's arguments to a cost figure stored
        with the span (used for the eigensolver sizes).
        """
        nid = self.name_id(name)
        rounds, name_ids, parents = self.rounds, self.name_ids, self.parents
        starts, ends, d3, stack = self.starts, self.ends, self.dim3, self._stack
        tracer = self

        def wrapped(*args, **kwargs):
            i = len(starts)
            rounds.append(tracer.round)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            d3.append(dim3(*args) if dim3 is not None else 0.0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        wrapped.__wrapped__ = fn
        return wrapped

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        """Wrap the layer boundaries in every loaded `wiretap` module."""
        from wiretap import optimize, qcore

        modules = _wiretap_modules()
        for mod_name, attr, span in SPANNED_FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

        self._set(qcore.DensityOperator, "clamped",
                  self.wrap("qcore.clamped", qcore.DensityOperator.clamped))

        counter = self.dim_reads
        dim_getter = qcore.LabeledSpace.dim.fget

        def counted_dim(space):
            counter[0] += 1
            return dim_getter(space)

        self._set(qcore.LabeledSpace, "dim", property(counted_dim))

        search = optimize._coordinate_search

        def traced_search(x0, objective, *args, **kwargs):
            return search(x0, self.wrap("optimize.objective", objective), *args, **kwargs)

        self._set(optimize, "_coordinate_search", traced_search)

        linalg = _Proxy(
            np.linalg,
            **{
                f: self.wrap(f"linalg.{f}", getattr(np.linalg, f), dim3=_dim3)
                for f in LINALG_FUNCTIONS
            },
        )
        np_proxy = _Proxy(np, kron=self.wrap("numpy.kron", np.kron), linalg=linalg)
        for mod in modules:
            if vars(mod).get("np") is np:
                self._set(mod, "np", np_proxy)

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def end_round(self):
        self.dim_reads_per_round.append(self.dim_reads[0])
        self.dim_reads[0] = 0
        self.round += 1

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------

    def span_table(self) -> dict[str, np.ndarray]:
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        dur = ends - starts
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        table = {
            "round": np.frombuffer(self.rounds, dtype=np.int32),
            "name": np.frombuffer(self.name_ids, dtype=np.int32),
            "parent": parents,
            "start": starts,
            "end": ends,
            "dur": dur,
            "self": dur - child,
            "dim3": np.frombuffer(self.dim3, dtype=np.float64),
        }
        table["under_measures"] = self._descends_from(
            table, ("measures.dense_coding", "measures.ep")
        )
        return table

    def round_metrics(self, table: dict[str, np.ndarray], r: int) -> dict[str, float]:
        """Per-layer figures of traced round `r` (setup and overhead excluded)."""
        in_round = table["round"] == r
        names = table["name"]

        def sel(*span_names):
            ids = [self._ids[n] for n in span_names if n in self._ids]
            return in_round & np.isin(names, ids)

        def calls(*n):
            return float(np.count_nonzero(sel(*n)))

        def self_s(*n):
            return float(table["self"][sel(*n)].sum())

        def total_s(*n):
            return float(table["dur"][sel(*n)].sum())

        def us_per_call(mask):
            k = np.count_nonzero(mask)
            return float(table["dur"][mask].sum() / k * 1e6) if k else 0.0

        objective = sel("optimize.objective")
        linalg = [f"linalg.{f}" for f in LINALG_FUNCTIONS]
        return {
            "cli.self_s": self_s("cli.main"),
            "scenario.load_s": total_s("scenario.load"),
            "channels.resource_state_s": total_s("channels.resource_state"),
            "qcore.space_dim.calls": float(self.dim_reads_per_round[r]),
            "qcore.partial_trace.calls": calls("qcore.partial_trace"),
            "qcore.partial_trace.s": self_s("qcore.partial_trace"),
            "qcore.clamped.calls": calls("qcore.clamped"),
            "qcore.clamped.s": self_s("qcore.clamped"),
            "qcore.trace_norm.calls": calls("qcore.trace_norm"),
            "qcore.trace_norm.s": self_s("qcore.trace_norm"),
            "qcore.uhlmann_fixup.s": self_s("qcore.uhlmann_fixup"),
            "channels.apply.calls": calls("channels.apply"),
            "channels.apply.s": self_s("channels.apply"),
            "channels.cq_state.calls": calls("channels.cq_state"),
            "entropic.entropy.calls": calls("entropic.entropy"),
            "entropic.entropy.s": self_s("entropic.entropy"),
            "entropic.mutual_information.s": self_s("entropic.mutual_information"),
            "rates.theorem1_rate.calls": calls("rates.theorem1_rate"),
            "rates.theorem1_rate.s": self_s("rates.theorem1_rate"),
            "rates.theorem1_rate.us_per_call": us_per_call(sel("rates.theorem1_rate")),
            "optimize.objective.calls": calls("optimize.objective"),
            "optimize.self_s": self_s("optimize.search"),
            "measures.dense_coding.s": total_s("measures.dense_coding"),
            "measures.ep.s": total_s("measures.ep"),
            "measures.objective.us_per_call": us_per_call(objective & table["under_measures"]),
            "codesim.pgm.s": self_s("codesim.pgm"),
            "codesim.leakage.s": self_s("codesim.leakage"),
            "codesim.fixup.s": self_s("codesim.fixup"),
            "codesim.sample_codebook.s": self_s("codesim.sample_codebook"),
            "codesim.self_s": self_s("codesim.run_experiment"),
            "linalg.eigh.calls": calls("linalg.eigh"),
            "linalg.eigvalsh.calls": calls("linalg.eigvalsh"),
            "linalg.svd.calls": calls("linalg.svd"),
            "linalg.s": self_s(*linalg),
            "linalg.dim3_sum": float(table["dim3"][sel(*linalg)].sum()),
            "numpy.kron.calls": calls("numpy.kron"),
            "numpy.kron.s": self_s("numpy.kron"),
        }

    def _descends_from(self, table, ancestor_names) -> np.ndarray:
        """Mask of spans with an ancestor among `ancestor_names`.

        A parent is always recorded before its children, so one pass in
        index order settles every span.
        """
        ids = {self._ids[n] for n in ancestor_names if n in self._ids}
        names = table["name"].tolist()
        marked = [False] * len(names)
        for i, p in enumerate(table["parent"].tolist()):
            marked[i] = p >= 0 and (marked[p] or names[p] in ids)
        return np.asarray(marked, dtype=bool)

    def write(self, path_stem, table: dict[str, np.ndarray], summary: dict):
        """Write the spans (`.npz`) and the run summary (`.json`)."""
        np.savez(
            f"{path_stem}.npz",
            names=np.asarray(self.names),
            **{k: table[k] for k in ("round", "name", "parent", "start", "end")},
        )
        with open(f"{path_stem}.json", "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)


def _dim3(a, *_args, **_kwargs) -> float:
    """Cubic cost figure of one eigensolve or SVD: n^3, or m*n*min(m, n)."""
    m, n = np.shape(a)[-2:]
    return float(m * n * min(m, n))


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
