"""Which program functions the traced run wraps, and the per-layer metrics
derived from their spans.

bellman and cli import their dependencies by name, so each function is
patched in the namespace its callers read it from (patching
lattice.step_transition_batch alone would miss every call from bellman).
"""

import os

import numpy as np

from sddeimpulse import bellman, cli, simulate

from tracing import ATTRS, NAME, START, END, self_times


def _rows(pos):
    return lambda args, kwargs, result: {"rows": int(np.shape(args[pos])[0])}


def _design_attrs(args, kwargs, result):
    rows, cols = result.shape
    # float64 input read plus design matrix written, from the array shapes
    return {"rows": rows, "bytes": 8 * rows * (cols + args[0].shape[1])}


def _decide_attrs(args, kwargs, result):
    mask = result[0]
    return {"rows": int(mask.shape[0]), "intervene": int(np.count_nonzero(mask))}


def _file_bytes(pos):
    """Size of the header and values files named by args[pos], args[pos + 1]."""
    def attrs(args, kwargs, result):
        out_dir, name = args[pos], args[pos + 1]
        return {"bytes": sum(os.path.getsize(os.path.join(out_dir, name + s))
                             for s in ("_header.json", "_values.csv"))}
    return attrs


TARGETS = (
    (bellman, "multilinear_interp", "bellman.multilinear_interp", _rows(2)),
    # the only entry point for the max over the impulse grid
    (bellman, "_intervention_batch", "bellman.impulse_max", _rows(2)),
    (bellman, "design_matrix", "bellman.design_matrix", _design_attrs),
    (bellman, "fit_regression_step", "bellman.fit_regression_step", None),
    (bellman, "step_transition_batch", "lattice.step_transition_batch", _rows(0)),
    (bellman, "impulse_transition_batch", "lattice.impulse_transition_batch",
     None),
    (bellman, "draw_noise_matrix", "simulate.draw_noise_matrix", None),
    (bellman.Policy, "decide_batch", "bellman.decide_batch", _decide_attrs),
    (simulate, "draw_noise", "simulate.draw_noise", None),
    (simulate, "draw_noise_matrix", "simulate.draw_noise_matrix", None),
    (cli, "k_value_iteration", "bellman.k_value_iteration", None),
    (cli, "save_value_function", "bellman.save_value_function", _file_bytes(1)),
    (cli, "load_value_function", "bellman.load_value_function", _file_bytes(0)),
    (cli, "estimate_J", "simulate.estimate_J", None),
    (cli, "flow_stability_probe", "simulate.flow_stability_probe", None),
    (cli, "export_trajectories_csv", "simulate.export_trajectories_csv", None),
    (cli.RunConfig, "load", "cli.config_load", None),
)

# the Euler loops live inside these; their self time is what is left once
# policy decisions and noise draws are taken out
EULER_SPANS = ("simulate.estimate_J", "simulate.flow_stability_probe",
               "simulate.export_trajectories_csv")
COMMAND_PREFIX = "cli.command."

def _unit(field):
    if field in ("calls", "rows", "invariant_violations"):
        return "count"
    if field.endswith("bytes"):
        return "B"
    if field.endswith("_us"):
        return "us"
    if field.endswith("ratio"):
        return "ratio"
    if field in ("value_gap", "policy_gain"):
        return "value"
    return "s"


# name -> unit for every per-layer metric, in report order
UNITS = {f"{layer}.{field}": _unit(field) for layer, fields in (
    ("bellman.multilinear_interp", ("calls", "rows", "self_s")),
    ("bellman.impulse_max", ("calls", "rows", "self_s")),
    ("bellman.design_matrix", ("calls", "rows", "self_s", "computed_bytes")),
    ("bellman.fit_regression_step", ("calls", "self_s")),
    ("bellman.k_value_iteration", ("s", "self_s")),
    ("bellman.decide_batch", ("calls", "rows", "self_s", "p50_us", "p99_us",
                              "intervene_ratio")),
    ("bellman.save_value_function", ("s", "bytes")),
    ("bellman.load_value_function", ("s", "bytes")),
    ("lattice.step_transition_batch", ("calls", "rows", "self_s")),
    ("lattice.impulse_transition_batch", ("calls", "self_s")),
    ("simulate.draw_noise", ("calls", "self_s")),
    ("simulate.euler", ("self_s",)),
    ("cli", ("config_load_s", "command_self_s", "artifact_bytes")),
    ("trace", ("overhead_ratio",)),
    ("trust", ("invariant_violations", "value_gap", "policy_gain")),
) for field in fields}


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (trace and trust metrics are
    added by the caller)."""
    selfs = self_times(spans)
    calls, total, own, rows, nbytes = {}, {}, {}, {}, {}
    decide_us, intervene = [], 0
    for s, self_s in zip(spans, selfs):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (s[END] - s[START])
        own[name] = own.get(name, 0.0) + self_s
        attrs = s[ATTRS] or {}
        rows[name] = rows.get(name, 0) + attrs.get("rows", 0)
        nbytes[name] = nbytes.get(name, 0) + attrs.get("bytes", 0)
        if name == "bellman.decide_batch":
            decide_us.append((s[END] - s[START]) * 1e6)
            intervene += attrs["intervene"]

    def get(d, name):
        return d.get(name, 0)

    out = {}
    for name in ("bellman.multilinear_interp", "bellman.impulse_max",
                 "bellman.design_matrix", "bellman.decide_batch",
                 "lattice.step_transition_batch"):
        out[f"{name}.calls"] = get(calls, name)
        out[f"{name}.rows"] = get(rows, name)
        out[f"{name}.self_s"] = get(own, name)
    out["bellman.design_matrix.computed_bytes"] = get(nbytes, "bellman.design_matrix")
    for name in ("bellman.fit_regression_step", "lattice.impulse_transition_batch"):
        out[f"{name}.calls"] = get(calls, name)
        out[f"{name}.self_s"] = get(own, name)
    out["bellman.k_value_iteration.s"] = get(total, "bellman.k_value_iteration")
    out["bellman.k_value_iteration.self_s"] = get(own, "bellman.k_value_iteration")
    out["bellman.decide_batch.p50_us"] = (float(np.percentile(decide_us, 50))
                                          if decide_us else 0.0)
    out["bellman.decide_batch.p99_us"] = (float(np.percentile(decide_us, 99))
                                          if decide_us else 0.0)
    n_rows = out["bellman.decide_batch.rows"]
    out["bellman.decide_batch.intervene_ratio"] = intervene / n_rows if n_rows else 0.0
    for name in ("bellman.save_value_function", "bellman.load_value_function"):
        out[f"{name}.s"] = get(total, name)
        out[f"{name}.bytes"] = get(nbytes, name)
    out["simulate.draw_noise.calls"] = get(calls, "simulate.draw_noise")
    out["simulate.draw_noise.self_s"] = (get(own, "simulate.draw_noise")
                                         + get(own, "simulate.draw_noise_matrix"))
    out["simulate.euler.self_s"] = sum(get(own, n) for n in EULER_SPANS)
    out["cli.config_load_s"] = get(total, "cli.config_load")
    out["cli.command_self_s"] = sum(v for n, v in own.items()
                                    if n.startswith(COMMAND_PREFIX))
    return out
