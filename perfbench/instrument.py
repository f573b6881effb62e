"""Call wrappers installed in the interpreter that runs one ccflab study.

Two kinds of wrapper, both installed from outside ``src/ccflab``:

* observers, installed in every run, read the results the correctness checks
  need (path statuses, the Monte Carlo bound, the deterministic defect sups);
  they fire a few dozen times per study, so untraced timings do not see them;
* spans, installed only in a traced run, time every call into the public
  functions listed in ``TRACED`` plus ``numpy.fft.fft``/``ifft``.

ccflab binds names with ``from .spectral import hilbert``, so one function is
looked up in several module namespaces.  Every namespace that binds the
original object gets its own wrapper ("site"): a span is named by the
function's home label (``spectral.hilbert``) and also remembers the namespace
that looked it up, which gives caller attribution such as ``girsanov.drift``.

A span is (site, start, end, parent).  Spans stay in memory until the study
returns; self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("spectral", "noise", "integrate", "diagnostics", "ensemble", "girsanov",
           "modulated", "instability", "cli")

TRACED = {
    "spectral": ("dealiased_product", "sobolev_norm", "sup_norms", "hilbert",
                 "derivative", "frac_laplacian"),
    "noise": ("transport_gradient_powers",),
    "integrate": ("drift", "em_step", "simulate_path", "simulate_low_frequency"),
    "ensemble": ("run_paths", "run_ensemble"),
    "girsanov": ("blowup_probability_bound", "run_random_pde", "beta_path"),
    "modulated": ("mod_product", "modulated_norm", "apply_symbol"),
    "instability": ("error_functional_ensemble", "simulate_actual_mod", "low_trajectory"),
}
NOISE_CLASSES = ("ZeroNoise", "GeneralH", "StrongAlpha", "LinearB", "InstabilityH")


# -- observers: (bound arguments, result) -> JSON-able record ------------------------


def _obs_path(args, rec):
    return {"status": rec.status, "macro_steps": int(rec.wiener_increments.shape[0])}


def _obs_random_pde(args, out):
    times = out[0]
    cfg = args["cfg"]
    return {"t_end": float(times[-1]), "horizon": float(cfg.horizon), "dt": float(cfg.dt)}


def _obs_mc_bound(args, out):
    n, m, block = int(args["num_paths"]), int(args["monitor_points"]), int(args["block"])
    return {"num_paths": n, "monitor_points": m,
            "block_bytes": min(block, n) * m * np.dtype(np.float64).itemsize}


def _obs_blowup(args, res):
    return {"bound": {k: (float(v) if v is not None else None) for k, v in res.bound.items()},
            "n_blewup": res.n_blewup, "n_unresolved": res.n_unresolved,
            "n_paths": res.n_paths}


def _obs_defect(args, out):
    return {"n": int(args["p"].n), "det_sup_sq": float(out["det_sup_sq"]),
            "mean_sup_sq": float(out["mean_sup_sq"]), "num_paths": int(out["num_paths"])}


def _obs_actual(args, out):
    return {"status": out["status"], "t_stop": float(out["t_stop"])}


def _obs_run_paths(args, out):
    return {"num_paths": int(args["num_paths"])}


OBSERVERS = {
    "integrate.simulate_path": _obs_path,
    "girsanov.run_random_pde": _obs_random_pde,
    "girsanov.blowup_probability_bound": _obs_mc_bound,
    "girsanov.blowup_ensemble": _obs_blowup,
    "instability.error_functional_ensemble": _obs_defect,
    "instability.simulate_actual_mod": _obs_actual,
    "ensemble.run_paths": _obs_run_paths,
}


class Instrument:
    """Wrappers, spans and observations for one study call."""

    def __init__(self, modules: dict, trace: bool):
        self.modules = modules
        self.trace = trace
        self.sites: list[tuple[str, str]] = []     # (namespace, label)
        self.span_site = array("q")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.observed: dict[str, list] = defaultdict(list)
        self.fft_points = 0
        self.fft_bytes = 0

    # -- wrappers ------------------------------------------------------------------

    def span(self, namespace: str, label: str, fn):
        site = len(self.sites)
        self.sites.append((namespace, label))
        sites, parents = self.span_site, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(sites)
            sites.append(site)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _observe(self, label: str, fn, inner):
        observe = OBSERVERS[label]
        sig = inspect.signature(fn)
        records = self.observed[label]

        def observed(*args, **kwargs):
            out = inner(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            records.append(observe(bound.arguments, out))
            return out

        return observed

    def _fft(self, name: str, fn):
        timed = self.span("numpy.fft", f"fft.{name}", fn)

        def counted(a, *args, **kwargs):
            out = timed(a, *args, **kwargs)
            self.fft_points += out.size
            self.fft_bytes += np.asarray(a).nbytes + out.nbytes
            return out

        return counted

    def install(self):
        traced = {f"{home}.{name}" for home, names in TRACED.items() for name in names} \
            if self.trace else set()
        for label in sorted(traced | set(OBSERVERS)):
            home, name = label.split(".")
            fn = getattr(self.modules[home], name)
            for ns in MODULES:
                namespace = vars(self.modules[ns])
                for key in [k for k, v in namespace.items() if v is fn]:
                    inner = self.span(ns, label, fn) if label in traced else fn
                    if label in OBSERVERS:
                        inner = self._observe(label, fn, inner)
                    namespace[key] = inner
        if self.trace:
            noise = self.modules["noise"]
            for cls_name in NOISE_CLASSES:
                cls = getattr(noise, cls_name)
                cls.components = self.span("noise", "noise.components",
                                           vars(cls)["components"])
            np.fft.fft = self._fft("fft", np.fft.fft)
            np.fft.ifft = self._fft("ifft", np.fft.ifft)

    # -- aggregation ---------------------------------------------------------------

    def span_totals(self) -> tuple[dict, dict]:
        """Per label ``{"calls", "self_s", "total_s"}`` and per
        ``namespace:label`` call counts."""
        n = len(self.span_site)
        site = np.asarray(self.span_site, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child[:n]
        labels = sorted({label for _, label in self.sites})
        label_of_site = np.array([labels.index(label) for _, label in self.sites],
                                 dtype=np.int64)
        idx = label_of_site[site] if n else np.zeros(0, dtype=np.int64)
        calls = np.bincount(idx, minlength=len(labels))
        selfs = np.bincount(idx, weights=self_t, minlength=len(labels))
        totals = np.bincount(idx, weights=dur, minlength=len(labels))
        by_label = {lab: {"calls": int(calls[j]), "self_s": float(selfs[j]),
                          "total_s": float(totals[j])}
                    for j, lab in enumerate(labels)}
        site_calls = np.bincount(site, minlength=len(self.sites))
        by_site: dict[str, int] = defaultdict(int)
        for j, (ns, label) in enumerate(self.sites):
            by_site[f"{ns}:{label}"] += int(site_calls[j])
        return by_label, dict(by_site)

    def layer_metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics of one traced study call, as ``(counts, times)``.

        Counts are exact functions of the workload and its seed; times are
        measured and vary from call to call.
        """
        by_label, by_site = self.span_totals()
        obs = self.observed

        def stat(label, key):
            return by_label.get(label, {}).get(key, 0)

        paths = obs.get("integrate.simulate_path", [])
        macro = sum(p["macro_steps"] for p in paths)
        fft_calls = stat("fft.fft", "calls") + stat("fft.ifft", "calls")
        mc = obs.get("girsanov.blowup_probability_bound", [])
        mc_samples = sum(r["num_paths"] * r["monitor_points"] for r in mc)
        mc_self_s = stat("girsanov.blowup_probability_bound", "self_s")
        counts = {
            "fft.calls": fft_calls,
            "fft.points": self.fft_points,
            "fft.bytes_computed": self.fft_bytes,
            "fft.calls_per_step": fft_calls / macro if macro else 0.0,
            "noise.components.calls": stat("noise.components", "calls"),
            "integrate.macro_steps": macro,
            "integrate.paths_diverged": sum(p["status"] == "diverged" for p in paths),
            "integrate.em_steps_per_macro":
                stat("integrate.em_step", "calls") / macro if macro else 0.0,
            "ensemble.paths": sum(r["num_paths"] for r in obs.get("ensemble.run_paths", [])),
            "girsanov.mc_samples": mc_samples,
            "girsanov.mc_block_mib": max((r["block_bytes"] for r in mc), default=0) / 2**20,
            "girsanov.drift.calls": by_site.get("girsanov:integrate.drift", 0),
        }
        times = {
            "fft.self_s": stat("fft.fft", "self_s") + stat("fft.ifft", "self_s"),
            "noise.components.self_s": stat("noise.components", "self_s"),
            "integrate.simulate_path.ms_per_step":
                1e3 * stat("integrate.simulate_path", "total_s") / macro if macro else 0.0,
            "girsanov.mc_ns_per_sample": 1e9 * mc_self_s / mc_samples if mc_samples else 0.0,
            "cli.main.self_s": stat("cli.main", "self_s"),
        }
        for home, names in TRACED.items():
            for name in names:
                label = f"{home}.{name}"
                counts[f"{label}.calls"] = stat(label, "calls")
                times[f"{label}.self_s"] = stat(label, "self_s")
        return counts, times
