"""Spans and counters around the calls one ``cyclemr fit`` makes, taken from outside.

The tracer replaces module attributes in the namespace where the caller
looks them up (``cyclemr.cli``, ``cyclemr.mcmc``, ``cyclemr.model``) with
timing wrappers, and puts the originals back on exit.  Spans nest: each
wrapped call records its duration and subtracts it from its parent's self
time.  Everything stays in memory; ``Tracer.totals`` is read at the end.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

import cyclemr.cli
import cyclemr.mcmc
import cyclemr.model

UPDATE_STEPS = (
    "update_psi",
    "update_eta",
    "update_phi",
    "update_b",
    "update_rho",
    "update_tau",
    "update_gamma",
    "update_a",
    "update_c",
    "update_z",
    "update_sigma_star",
)

# (module, attribute, span name).  cli looks up the io functions, run_chain
# and summarize in its own namespace; mcmc_sweep and the update steps find
# each other, the samplers and the model helpers in cyclemr.mcmc; the
# summary likelihood finds the Cholesky helper in cyclemr.model.
WRAPPED = (
    *[(cyclemr.cli, name, "io.read") for name in ("read_json", "read_matrix", "stats_from_dict", "config_from_dict")],
    *[
        (cyclemr.cli, name, "io.write")
        for name in ("write_json", "write_matrix", "write_manifest", "summary_to_dict", "config_to_dict")
    ],
    (np, "savez_compressed", "io.write"),
    (cyclemr.cli, "run_chain", "mcmc.run_chain"),
    (cyclemr.cli, "summarize", "summary.summarize"),
    (cyclemr.mcmc, "mcmc_sweep", "mcmc.sweep"),
    *[(cyclemr.mcmc, name, f"mcmc.{name}") for name in UPDATE_STEPS],
    (cyclemr.mcmc, "_chol_lower", "model.cholesky"),
    (cyclemr.model, "_chol_lower", "model.cholesky"),
    (cyclemr.mcmc, "log_likelihood_summary", "model.loglik"),
    (cyclemr.mcmc, "residual_scatter", "model.residual_scatter"),
    (cyclemr.mcmc, "sample_gig", "distributions.gig"),
    *[
        (cyclemr.mcmc, name, "distributions.draws")
        for name in ("sample_beta", "sample_inverse_gamma", "sample_bernoulli")
    ],
)


class Tracer:
    """Context manager that installs the wrappers and accumulates per-span totals.

    ``totals[name]`` holds [calls, total ns, self ns]; ``in_sweep`` the
    same for calls made while an ``mcmc.sweep`` span is open, so that
    per-sweep figures leave out initialization and the periodic
    log-likelihood check.  ``proposals`` sums the (accepted, proposed)
    pairs that update_a and update_b return.
    """

    def __init__(self):
        self.totals = defaultdict(lambda: [0, 0, 0])
        self.in_sweep = defaultdict(lambda: [0, 0, 0])
        self.proposals = defaultdict(lambda: [0, 0])
        self._stack = []  # child-time accumulators of the open spans
        self._sweep_depth = 0
        self._saved = []

    def span(self, name, func):
        """Run func inside a span called name; usable for calls the benchmark makes itself."""

        def wrapped(*args, **kwargs):
            sweep = name == "mcmc.sweep"
            self._sweep_depth += sweep
            self._stack.append(0)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                children = self._stack.pop()
                self._sweep_depth -= sweep
                if self._stack:
                    self._stack[-1] += elapsed
                for table in (self.totals, self.in_sweep) if self._sweep_depth else (self.totals,):
                    entry = table[name]
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - children
            if name in ("mcmc.update_a", "mcmc.update_b"):
                counts = self.proposals[name]
                counts[0] += result[0]
                counts[1] += result[1]
            return result

        return wrapped

    def __enter__(self):
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def _noop():
    return None


def wrapper_cost_ns(calls=20_000, repeats=5):
    """Extra time of one wrapped call made inside a sweep span over a bare call, in ns.

    Median over repeats of the difference between a loop of wrapped no-op
    calls and a loop of bare ones.  Unlike traced minus plain fit time,
    this does not drift with the machine's speed between two fits; it
    times warm back-to-back calls, so it is a lower bound on the cost of a
    wrapper inside a sweep.
    """
    tracer = Tracer()
    inner = tracer.span("calibration", _noop)

    def loop(func):
        for _ in range(calls):
            func()

    sweep = tracer.span("mcmc.sweep", loop)
    extra = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        loop(_noop)
        bare = time.perf_counter_ns()
        sweep(inner)
        wrapped = time.perf_counter_ns()
        extra.append(((wrapped - bare) - (bare - start)) / calls)
    return statistics.median(extra)
