"""Traced pass: spans around every public function of the package's modules.

The tracer wraps each function named in a module's ``__all__`` and rebinds the
wrapper everywhere the package binds the original (``magnus.concat`` as well
as ``words.concat``), plus the ``IAWord.realized`` property.  A span records
its name, start, end and parent; spans stay in memory and are written once,
when the run ends.  A layer is the module that defines the function.  Nothing
is wrapped outside ``install``/``uninstall``, so timed passes run bare code.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from array import array
from collections import Counter

LAYERS = ("words", "autom", "magnus", "finc", "graphs", "bns", "johnson", "cli")


def _observers(counts: Counter) -> dict:
    """Counters read off a wrapped call's arguments and result."""

    def realized(args, out):
        lengths = [len(img) for _, img in out.images]
        counts["autom.image_letters"] += sum(lengths)
        counts["autom.image_letters_max"] = max([counts["autom.image_letters_max"], *lengths])

    def sweep(args, out):
        counts["bns.characters"] += len(out.records)
        counts["bns.certificates"] += out.certificates
        counts["bns.distinct_supports"] += len(
            {tuple(v != 0 for v in r.char_values) for r in out.records}
        )

    def tilt(args, out):
        counts["johnson.tilt_examined"] += out.examined
        counts["johnson.tilt_found"] += out.found

    def graph(args, out):
        counts["graphs.vertices"] += len(out.vertices)
        counts["graphs.edges"] += len(out.edges)

    def embed(args, out):
        counts["magnus.letters_embedded"] += len(args[0])

    def enumerate_gens(args, out):
        counts["finc.elements"] += len(out)

    return {
        "autom.IAWord.realized": realized,
        "bns.soundness_sweep": sweep,
        "johnson.tilt_search": tilt,
        "graphs.disjointness_graph": graph,
        "magnus.magnus_embed": embed,
        "finc.enumerate_normal_generators": enumerate_gens,
    }


class Tracer:
    def __init__(self, modules: dict):
        """``modules`` maps each layer name to the imported module."""
        self.modules = modules
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, observe=None):
        name_id = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end,
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def _bind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        observers = _observers(self.counts)
        wrappers = {}
        for layer, mod in self.modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[fn] = self._wrap(name, fn, observers.get(name))
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._bind(mod, attr, wrappers[value])
        ia_word = self.modules["autom"].IAWord
        prop = ia_word.__dict__["realized"]
        traced = functools.cached_property(
            self._wrap("autom.IAWord.realized", prop.func, observers["autom.IAWord.realized"])
        )
        traced.__set_name__(ia_word, "realized")
        self._bind(ia_word, "realized", traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls and self time (span time minus child spans), and
        the layer-specific counters."""
        dur = [end - start for start, end in zip(self.span_start, self.span_end)]
        own = list(dur)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= dur[i]
        calls = Counter(self.span_name)
        self_s = Counter()
        for name_id, t in zip(self.span_name, own):
            self_s[name_id] += t

        def named(name: str) -> int:
            return calls[self.names.index(name)]

        def ms(name: str) -> list[float]:
            name_id = self.names.index(name)
            return [d * 1e3 for d, k in zip(dur, self.span_name) if k == name_id]

        out: dict[str, float] = {}
        for layer in LAYERS:
            ids = [i for i, name in enumerate(self.names) if name.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(calls[i] for i in ids)
            out[f"{layer}.self_s"] = sum((self_s[i] for i in ids), 0.0)
        c = self.counts
        levels = ms("magnus.johnson_level")
        tuples = named("finc.left_normed_commutator")
        out.update({
            "autom.compose_calls": named("autom.compose"),
            "autom.image_letters": c["autom.image_letters"],
            "autom.image_letters_max": c["autom.image_letters_max"],
            "magnus.embed_calls": named("magnus.magnus_embed"),
            "magnus.letters_embedded": c["magnus.letters_embedded"],
            "magnus.level_ms_p50": percentile(levels, 50),
            "magnus.level_ms_p99": percentile(levels, 99),
            "finc.tuples_examined": tuples,
            "finc.elements": c["finc.elements"],
            "finc.useful_ratio": c["finc.elements"] / tuples if tuples else 0.0,
            "bns.characters": c["bns.characters"],
            "bns.certificates": c["bns.certificates"],
            "bns.distinct_supports": c["bns.distinct_supports"],
            "bns.support_share": (
                c["bns.distinct_supports"] / c["bns.characters"] if c["bns.characters"] else 0.0
            ),
            "bns.kmm_check_calls": named("bns.kmm_check"),
            "bns.oracle_calls": named("bns.mv_oracle"),
            "bns.normal_form_calls": named("bns.raag_normal_form"),
            "bns.sweep_ms_p50": percentile(ms("bns.soundness_sweep"), 50),
            "johnson.tau_calls": named("johnson.tau"),
            "johnson.action_calls": named("johnson.glnz_action"),
            "johnson.inverse_calls": named("johnson.mat_inverse_unimodular"),
            "johnson.tilt_examined": c["johnson.tilt_examined"],
            "johnson.tilt_found": c["johnson.tilt_found"],
            "graphs.vertices": c["graphs.vertices"],
            "graphs.edges": c["graphs.edges"],
        })
        return out

    def to_json(self) -> dict:
        """Spans as columns; times in integer nanoseconds from the first start."""
        t0 = self.span_start[0]
        return {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": [round((t - t0) * 1e9) for t in self.span_start],
            "end_ns": [round((t - t0) * 1e9) for t in self.span_end],
        }


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (0 < q < 100) of the samples; 0.0 when there are
    none, which is what a layer the workload never calls reports."""
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
