"""Spans and counters around the public functions of the ``tailbayes`` modules.

Nothing under ``src/`` knows about this file.  :func:`install` replaces each
traced function in every ``tailbayes.*`` module namespace that holds it, so a
call made through ``from .sampler import run_mh`` is seen as well as one made
through ``tailbayes.sampler.run_mh``.  A wrapper records a span only while
``TRACER.enabled`` is true; otherwise it calls straight through.

The log-posterior closure is called about 145k times per n = 1000
``fit_pipeline``, so it gets no spans: :func:`make_log_posterior` returns a
closure that tallies calls and nanoseconds, and the enclosing ``run_mh`` span
copies the tally into its attributes.

Each process appends its finished spans to ``<dir>/spans-<pid>.jsonl`` when
its outermost open span closes (the directory comes from the environment
variable named by ``TRACE_DIR_ENV``).  Pool workers leave through
``os._exit``, so waiting for ``atexit`` would lose their spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
BYTES_PER_MB = 2**20


def cpu_seconds(who: int) -> float:
    """User plus system CPU of this process (RUSAGE_SELF) or its reaped children."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Span buffer of one process; forked children start with an empty one."""

    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.next_id = 0

    def after_fork_in_child(self) -> None:
        # The parent's open spans and unflushed records belong to the parent.
        self.spans = []
        self.stack = []

    @contextmanager
    def span(self, name: str):
        """Record ``name`` around the block; yields its attribute dict."""
        record = {
            "name": name,
            "pid": os.getpid(),
            "id": self.next_id,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "attrs": {},
        }
        self.next_id += 1
        self.stack.append(record)
        record["t0"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["t1"] = time.perf_counter()
            self.stack.pop()
            self.spans.append(record)
            if not self.stack:
                self.flush()

    def flush(self) -> None:
        out_dir = os.environ.get(TRACE_DIR_ENV)
        if not out_dir or not self.spans:
            return
        path = Path(out_dir) / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
        self.spans = []


# One tracer per process: the wrappers are reached from pool workers by
# import path, so they cannot be handed a tracer object.
TRACER = Tracer()
os.register_at_fork(after_in_child=TRACER.after_fork_in_child)


def _spanned(name, fn, attrs_of=None):
    """Wrap ``fn`` in a span; ``attrs_of(bound_arguments, result)`` adds attributes."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not TRACER.enabled:
            return fn(*args, **kwargs)
        with TRACER.span(name) as attrs:
            result = fn(*args, **kwargs)
            if attrs_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs.update(attrs_of(bound.arguments, result))
            return result

    return wrapper


def _counted_log_posterior(make_log_posterior):
    @functools.wraps(make_log_posterior)
    def wrapper(data, weights, prior):
        logpost = make_log_posterior(data, weights, prior)
        if not TRACER.enabled:
            return logpost
        tally = [0, 0]  # calls, nanoseconds
        clock = time.perf_counter_ns

        def counted(beta):
            t0 = clock()
            value = logpost(beta)
            tally[1] += clock() - t0
            tally[0] += 1
            return value

        counted.tally = tally
        counted.rows = data.n
        return counted

    return wrapper


def _traced_run_mh(run_mh):
    @functools.wraps(run_mh)
    def wrapper(log_posterior, dim, config):
        if not TRACER.enabled:
            return run_mh(log_posterior, dim, config)
        tally = getattr(log_posterior, "tally", [0, 0])
        calls0, ns0 = tally
        with TRACER.span("sampler.run_mh") as attrs:
            samples = run_mh(log_posterior, dim, config)
            proposed = config.n_iterations - config.burn_in
            attrs.update(
                iterations=config.n_iterations,
                proposed=proposed,
                accepted=round(samples.acceptance_rate * proposed),
                nonfinite=samples.n_nonfinite_proposals,
                logpost_calls=tally[0] - calls0,
                logpost_ns=tally[1] - ns0,
                logpost_rows=(tally[0] - calls0) * getattr(log_posterior, "rows", 0),
            )
            return samples

    return wrapper


def _file_bytes(arguments, _result):
    path = next(iter(arguments.values()))
    return {"bytes": os.path.getsize(path)}


def _predict_size(arguments, _result):
    x = arguments["covariates"]
    return {"rows": x.shape[0] if x.ndim == 2 else 1, "draws": arguments["samples"].n_draws}


def _cv_cells(_arguments, result):
    table = result[1]
    return {"cells": len(table), "failed": sum(row["error"] is not None for row in table)}


def _replace_everywhere(original, replacement) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "tailbayes" or module_name.startswith("tailbayes.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original and not attr.startswith("_"):
                setattr(module, attr, replacement)


def install() -> None:
    """Wrap the traced public functions; call once, after importing tailbayes."""
    import tailbayes.cli  # noqa: F401  (imports every module that gets wrapped)
    from tailbayes import dataio, evaluation, model_core, predict, reproduce, sampler, simulation, tuning

    wrappers = {
        model_core.make_log_posterior: _counted_log_posterior(model_core.make_log_posterior),
        sampler.run_mh: _traced_run_mh(sampler.run_mh),
        tuning.fit_pipeline: _spanned("tuning.fit_pipeline", tuning.fit_pipeline),
        tuning.stage1_pi_u: _spanned("tuning.stage1_pi_u", tuning.stage1_pi_u),
        tuning.cv_select_lambda: _spanned("tuning.cv_select_lambda", tuning.cv_select_lambda, _cv_cells),
        predict.predictive_mean_sd: _spanned(
            "predict.predictive_mean_sd", predict.predictive_mean_sd, _predict_size
        ),
        evaluation.net_benefit: _spanned("evaluation.net_benefit", evaluation.net_benefit),
        reproduce.reproduce_figure: _spanned(
            "reproduce.reproduce_figure",
            reproduce.reproduce_figure,
            lambda arguments, _result: {"jobs": arguments["jobs"]},
        ),
    }
    for generate in (simulation.generate_sim1, simulation.generate_sim2, simulation.generate_sim3):
        wrappers[generate] = _spanned(
            "simulation.generate", generate, lambda arguments, _result: {"rows": arguments["config"].n}
        )
    for attr in dataio.__all__:
        if attr.startswith(("read_", "write_")):
            fn = getattr(dataio, attr)
            wrappers[fn] = _spanned(f"dataio.{attr.split('_')[0]}", fn, _file_bytes)
    for original, replacement in wrappers.items():
        _replace_everywhere(original, replacement)


def read_spans(trace_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def _duration(span: dict) -> float:
    return span["t1"] - span["t0"]


def _totals(spans: list[dict]) -> dict:
    """Additive per-layer sums over one set of spans."""
    by_key = {(s["pid"], s["id"]): s for s in spans}
    children: dict[tuple, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["pid"], s["parent"]), []).append(s)

    def parent_name(s):
        parent = by_key.get((s["pid"], s["parent"]))
        return parent["name"] if parent else None

    t = dict.fromkeys(
        [
            "logpost_calls", "logpost_rows", "logpost_s", "mh_chains", "mh_iterations", "mh_s",
            "mh_accepted", "mh_proposed", "mh_nonfinite", "stage1_s", "cv_s", "final_fit_s",
            "cv_cells", "cv_failed", "predict_calls", "predict_cells", "predict_s", "nb_calls",
            "nb_s", "gen_rows", "gen_s", "read_s", "write_s", "bytes_read", "bytes_written",
            "cli_fit_s", "cli_predict_s", "cli_self_s", "rep_s", "rep_cpu_s", "pool_slot_s",
        ],
        0,
    )
    for s in spans:
        name, attrs, dur = s["name"], s["attrs"], _duration(s)
        if name == "sampler.run_mh":
            t["mh_chains"] += 1
            t["mh_iterations"] += attrs.get("iterations", 0)
            t["mh_s"] += dur
            t["mh_accepted"] += attrs.get("accepted", 0)
            t["mh_proposed"] += attrs.get("proposed", 0)
            t["mh_nonfinite"] += attrs.get("nonfinite", 0)
            t["logpost_calls"] += attrs.get("logpost_calls", 0)
            t["logpost_rows"] += attrs.get("logpost_rows", 0)
            t["logpost_s"] += attrs.get("logpost_ns", 0) * 1e-9
            if parent_name(s) == "tuning.fit_pipeline":
                t["final_fit_s"] += dur
        elif name == "tuning.stage1_pi_u":
            t["stage1_s"] += dur
        elif name == "tuning.cv_select_lambda":
            t["cv_s"] += dur
            t["cv_cells"] += attrs.get("cells", 0)
            t["cv_failed"] += attrs.get("failed", 0)
        elif name == "predict.predictive_mean_sd":
            t["predict_calls"] += 1
            t["predict_cells"] += attrs.get("rows", 0) * attrs.get("draws", 0)
            t["predict_s"] += dur
        elif name == "evaluation.net_benefit":
            t["nb_calls"] += 1
            t["nb_s"] += dur
        elif name == "simulation.generate":
            t["gen_rows"] += attrs.get("rows", 0)
            t["gen_s"] += dur
        elif name == "dataio.read":
            t["read_s"] += dur
            t["bytes_read"] += attrs.get("bytes", 0)
        elif name == "dataio.write":
            t["write_s"] += dur
            t["bytes_written"] += attrs.get("bytes", 0)
        elif name in ("cli.fit", "cli.predict"):
            t["cli_fit_s" if name == "cli.fit" else "cli_predict_s"] += dur
            covered = sum(_duration(c) for c in children.get((s["pid"], s["id"]), []))
            t["cli_self_s"] += dur - covered
        elif name == "reproduce.rep":
            t["rep_s"] += dur
            t["rep_cpu_s"] += attrs.get("cpu_s", 0)
        elif name == "reproduce.reproduce_figure" and attrs.get("jobs", 0) > 1:
            t["pool_slot_s"] += attrs.get("jobs", 0) * dur
    return t


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[dict], setup_end: float, traced_ops: int) -> dict:
    """Per-layer figures for one set-up plus one average traced op.

    Counts and times are the set-up's total plus the traced ops' total divided
    by ``traced_ops``.  Ratios use every span.
    """
    setup = _totals([s for s in spans if s["t0"] < setup_end])
    ops = _totals([s for s in spans if s["t0"] >= setup_end])
    per_op = {k: setup[k] + _ratio(ops[k], traced_ops) for k in setup}
    both = {k: setup[k] + ops[k] for k in setup}
    predict_sizes = [
        s["attrs"].get("rows", 0) * s["attrs"].get("draws", 0)
        for s in spans
        if s["name"] == "predict.predictive_mean_sd"
    ]
    rep_walls = [_duration(s) for s in spans if s["name"] == "reproduce.rep"]
    return {
        "model_core.logpost.calls": (per_op["logpost_calls"], "count"),
        "model_core.logpost.rows": (per_op["logpost_rows"], "count"),
        "model_core.logpost.ns_per_row": (_ratio(both["logpost_s"] * 1e9, both["logpost_rows"]), "ns"),
        "sampler.run_mh.chains": (per_op["mh_chains"], "count"),
        "sampler.run_mh.iterations": (per_op["mh_iterations"], "count"),
        "sampler.run_mh.self_us_per_iter": (
            _ratio((both["mh_s"] - both["logpost_s"]) * 1e6, both["mh_iterations"]),
            "us",
        ),
        "sampler.accept_ratio": (_ratio(both["mh_accepted"], both["mh_proposed"]), "ratio"),
        "sampler.nonfinite": (per_op["mh_nonfinite"], "count"),
        "tuning.stage1_pi_u.s": (per_op["stage1_s"], "s"),
        "tuning.cv_select_lambda.s": (per_op["cv_s"], "s"),
        "tuning.final_fit.s": (per_op["final_fit_s"], "s"),
        "tuning.cv.cells": (per_op["cv_cells"], "count"),
        "tuning.cv.cells_failed": (per_op["cv_failed"], "count"),
        "predict.predictive_mean_sd.calls": (per_op["predict_calls"], "count"),
        "predict.cells": (per_op["predict_cells"], "count"),
        "predict.ns_per_cell": (_ratio(both["predict_s"] * 1e9, both["predict_cells"]), "ns"),
        # Size of the largest n x S float64 matrix a call implies; computed, not measured.
        "predict.computed_mb": (max(predict_sizes, default=0) * 8 / BYTES_PER_MB, "MB"),
        "evaluation.net_benefit.calls": (per_op["nb_calls"], "count"),
        "evaluation.net_benefit.s": (per_op["nb_s"], "s"),
        "simulation.generate.rows": (per_op["gen_rows"], "count"),
        "simulation.generate.s": (per_op["gen_s"], "s"),
        "dataio.read.s": (per_op["read_s"], "s"),
        "dataio.write.s": (per_op["write_s"], "s"),
        "dataio.bytes_read": (per_op["bytes_read"], "B"),
        "dataio.bytes_written": (per_op["bytes_written"], "B"),
        "cli.fit.s": (per_op["cli_fit_s"], "s"),
        "cli.predict.s": (per_op["cli_predict_s"], "s"),
        "cli.self_s": (per_op["cli_self_s"], "s"),
        "reproduce.rep_s.p50": (statistics.median(rep_walls) if rep_walls else 0.0, "s"),
        "reproduce.pool_busy_ratio": (_ratio(both["rep_s"], both["pool_slot_s"]), "ratio"),
        "reproduce.worker_cpu_per_wall": (_ratio(both["rep_cpu_s"], both["rep_s"]), "ratio"),
    }
