"""Outside-in tracer for supnorm's layers.

Each traced function is replaced, for the duration of one traced run, by a
wrapper installed where its caller looks it up: module functions on their
module, methods on their class, and the truth generators on `rates`, which
imports them by name.  The program itself is not changed.  Spans (id,
parent, name, start, end) are kept in memory; counters are taken from the
arguments and results at the same boundaries.  `layer_metrics` turns one
traced experiment into the per-layer metrics of the benchmark.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from supnorm import density, rates, wavelets, whitenoise

ROOT = "rates.run_experiment"


def _args(args, kwargs, names):
    """Positional-or-keyword arguments of a traced call, by position."""
    return [args[i] if i < len(args) else kwargs[k] for i, k in enumerate(names)]


def _count_coord_posterior(c, out, args, kwargs):
    # the quadrature window falls back to the full prior support when the
    # likelihood interval misses the prior's effective support
    x, level, prior, n = _args(args, kwargs, ("x", "level", "prior", "n"))
    half = whitenoise.LIKELIHOOD_HALF_WIDTH / math.sqrt(n)
    radius = prior.standardized_radius() * prior.sigma(level)
    c["window_fallbacks"] += not max(-radius, x - half) < min(radius, x + half)


def _count_synthesize_flat(c, out, args, kwargs):
    _, flat = _args(args, kwargs, ("self", "flat"))
    c["synth_live_cols"] += int(np.count_nonzero(np.any(flat != 0.0, axis=0)))
    c["synth_cols"] += flat.shape[1]


def _count_dirichlet(c, out, args, kwargs):
    _, params, m = _args(args, kwargs, ("rng", "params", "m"))
    params = np.asarray(params)
    c["small_shapes"] += int(np.count_nonzero(params < 0.1)) * m
    c["shapes"] += params.size * m


def _count_losses(c, out, args, kwargs):
    (draws,) = _args(args, kwargs, ("draws",))
    nbytes = draws.nbytes if isinstance(draws, np.ndarray) else sum(d.values.nbytes for d in draws)
    c["loss_bytes_max"] = max(c["loss_bytes_max"], nbytes)


def _count_mcmc(c, out, args, kwargs):
    prior = args[0] if args else kwargs["prior"]
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    iterations = (cfg or density.McmcConfig()).iterations
    c["proposals"] += iterations * (prior.cutoff_level + 1)
    c["kept_draws"] += out.states.shape[0]
    c["accept_sum"] += float(out.acceptance.sum())
    c["accept_levels"] += out.acceptance.size
    c["flagged"] += not out.converged


# (owner, attribute, span name, counter or None)
TARGETS = (
    (wavelets.WaveletBasis, "synthesize_flat", "wavelets.synthesize_flat", _count_synthesize_flat),
    (wavelets.WaveletBasis, "analyze", "wavelets.analyze", None),
    (rates, "make_holder_truth", "functions.truth", None),
    (rates, "make_density_truth", "functions.truth", None),
    (whitenoise, "simulate_wn", "whitenoise.simulate_wn", None),
    (whitenoise, "draw_posterior_coefficients", "whitenoise.draw_posterior_coefficients", None),
    (whitenoise, "coord_posterior", "whitenoise.coord_posterior", _count_coord_posterior),
    (density, "sample_data", "density.sample_data", None),
    (density, "draw_histogram_values", "density.draw_histogram_values", None),
    (density, "dirichlet_draws", "density.dirichlet_draws", _count_dirichlet),
    (density, "posterior_expected_losses", "density.posterior_expected_losses", _count_losses),
    (density, "logdensity_mcmc", "density.logdensity_mcmc", _count_mcmc),
    (density.McmcChain, "density_values", "density.density_values", None),
)

# per-layer metric name -> unit; `layer_metrics` fills exactly these
LAYER_UNITS = {
    "wavelets.synthesize_flat_s": "s",
    "wavelets.synthesize_flat_live_frac": "ratio",
    "wavelets.analyze_s": "s",
    "functions.truth_s": "s",
    "whitenoise.coord_posterior_calls": "count",
    "whitenoise.coord_posterior_us": "us",
    "whitenoise.coord_posterior_s": "s",
    "whitenoise.draw_self_s": "s",
    "whitenoise.simulate_wn_s": "s",
    "whitenoise.window_fallbacks": "count",
    "density.loss_s": "s",
    "density.loss_mb": "MB",
    "density.draw_histogram_values_self_s": "s",
    "density.dirichlet_draws_s": "s",
    "density.sample_data_s": "s",
    "density.small_shape_frac": "ratio",
    "density.mcmc_s": "s",
    "density.mcmc_proposals": "count",
    "density.mcmc_us_per_proposal": "us",
    "density.mcmc_accept_frac": "ratio",
    "density.mcmc_flagged": "count",
    "density.kept_draws": "count",
    "density.density_values_s": "s",
    "rates.self_s": "s",
    "rates.cpu_util": "ratio",
}


class Tracer:
    """Spans and counters of one traced experiment."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end)
        self.counters = Counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None
        self.root_s = 0.0  # duration of the root span

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def root(self):
        """The root span, around the benchmark's own call of `run_experiment`.

        Spans opened in worker threads, whose own stacks are empty, hang off it.
        """
        sid = next(self._ids)
        self._root = sid
        stack = self._stack()
        stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            self._root = None
            self.root_s = t1 - t0
            self.spans.append((sid, None, ROOT, t0, t1))

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1))
            if count is not None:
                with self._lock:
                    count(self.counters, out, args, kwargs)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target and restore the originals on exit.

        A missing target raises, so that a renamed or removed function fails
        the traced run instead of reading as a layer that takes no time.
        """
        saved = []
        try:
            for owner, attr, name, count in TARGETS:
                original = vars(owner).get(attr)
                if original is None:
                    raise LookupError(f"trace target {owner.__name__}.{attr} not found; update TARGETS")
                setattr(owner, attr, self._wrap(original, name, count))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _union(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _span_times(spans):
    """Per-name inclusive and self seconds and call counts."""
    children = defaultdict(list)
    for sid, parent, _, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    total, self_s, calls = Counter(), Counter(), Counter()
    for sid, _, name, t0, t1 in spans:
        total[name] += t1 - t0
        inner = [(max(a, t0), min(b, t1)) for a, b in children[sid]]
        self_s[name] += (t1 - t0) - _union(inner)
        calls[name] += 1
    return total, self_s, calls


def layer_metrics(tracer: Tracer, threads: int, cpu_s: float) -> dict:
    """Per-layer metrics of one traced experiment (`cpu_s`: its process CPU time)."""
    total, self_s, calls = _span_times(tracer.spans)
    c = tracer.counters
    run_s = tracer.root_s
    coord_calls = calls["whitenoise.coord_posterior"]
    proposals = c["proposals"]
    return {
        "wavelets.synthesize_flat_s": total["wavelets.synthesize_flat"],
        "wavelets.synthesize_flat_live_frac": c["synth_live_cols"] / max(c["synth_cols"], 1),
        "wavelets.analyze_s": total["wavelets.analyze"],
        "functions.truth_s": total["functions.truth"],
        "whitenoise.coord_posterior_calls": coord_calls,
        "whitenoise.coord_posterior_us": 1e6 * total["whitenoise.coord_posterior"] / max(coord_calls, 1),
        "whitenoise.coord_posterior_s": total["whitenoise.coord_posterior"],
        "whitenoise.draw_self_s": self_s["whitenoise.draw_posterior_coefficients"],
        "whitenoise.simulate_wn_s": total["whitenoise.simulate_wn"],
        "whitenoise.window_fallbacks": c["window_fallbacks"],
        "density.loss_s": total["density.posterior_expected_losses"],
        "density.loss_mb": c["loss_bytes_max"] / 2 ** 20,
        "density.draw_histogram_values_self_s": self_s["density.draw_histogram_values"],
        "density.dirichlet_draws_s": total["density.dirichlet_draws"],
        "density.sample_data_s": total["density.sample_data"],
        "density.small_shape_frac": c["small_shapes"] / max(c["shapes"], 1),
        "density.mcmc_s": total["density.logdensity_mcmc"],
        "density.mcmc_proposals": proposals,
        "density.mcmc_us_per_proposal": 1e6 * total["density.logdensity_mcmc"] / max(proposals, 1),
        "density.mcmc_accept_frac": c["accept_sum"] / max(c["accept_levels"], 1),
        "density.mcmc_flagged": c["flagged"],
        "density.kept_draws": c["kept_draws"],
        "density.density_values_s": total["density.density_values"],
        "rates.self_s": self_s[ROOT],
        "rates.cpu_util": cpu_s / (run_s * threads) if run_s > 0 else 0.0,
    }
