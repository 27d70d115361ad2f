"""Set-up, passes, correctness checks, trust verdicts and reporting for one
workload.  Imported by run.py once BLAS threads are capped and src/ is on
sys.path."""

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import layers
import workloads
from sddeimpulse import cli
from tracing import Tracer, patched, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
CONFIGS = os.path.join(ROOT, "configs")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
# TINY-1/TINY-2 exercise the grid backend's non-uniform exact axes, which
# shortcuts for uniform axes could break
ORACLE_CONFIGS = ("tiny1.json", "tiny2.json")
SETUP_PROBES = 5
# what calibrate() takes on the 2-core box the baseline was measured on; the
# reported times are seconds at that reference speed
CAL_REF_S = 0.13
# the second pass at the same seed is the determinism check
MIN_PASSES = 2

END_TO_END_UNITS = {"setup_s": "s", "workload_s": "s", "peak_rss_mb": "MiB"}
COMMAND_METRICS = {"solve": "solve_s", "evaluate": "evaluate_s",
                   "simulate": "simulate_s", "export-figures": "export_figures_s",
                   "probe-flow": "probe_flow_s"}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup(name, seed, run_dir):
    """Generate and write the workload config, load it through the CLI's
    loader, then run the oracle checks.  Returns (config path, raw config,
    {op: ok})."""
    raw, _ = workloads.make_config(name, seed, CONFIGS)
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, "config.json")
    workloads.write_config(raw, path)
    cli.RunConfig.load(path)
    ops = {}
    for cfg in ORACLE_CONFIGS:
        argv = ["oracle-compare", "--config", os.path.join(CONFIGS, cfg),
                "--out", os.path.join(run_dir, "oracle", cfg[:-len(".json")])]
        ops[f"oracle-compare {cfg}"] = _call(cli.main, argv) == 0
    return path, raw, ops


def calibrate():
    """Seconds taken by a fixed reference kernel shaped like the workloads:
    per-path Philox streams, small-array interpolation and a column sweep.

    A shared machine drifts between speed regimes that last from seconds to
    minutes and differ by up to 50%.  Timing this kernel before and after
    each measured step, and dividing the step's time by it, takes out the
    part of that drift the kernel sees too; bench/BASELINE.md records how
    much that was on the 2-core box the baseline was measured on."""
    axis = np.linspace(-4.0, 4.0, 41)
    x = np.random.Generator(np.random.Philox(key=[0, 0])).standard_normal(4000)
    big = np.ones((2000, 100))
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(400):
        z = np.random.Generator(np.random.Philox(key=[1, i])).normal(0.0, 0.1, 100)
        y = np.clip(x + z[i % 100], axis[0], axis[-1])
        j = np.clip(np.searchsorted(axis, y, side="right") - 1, 0, len(axis) - 2)
        f = (y - axis[j]) / (axis[j + 1] - axis[j])
        acc += float(np.sum(f * axis[j + 1] + (1.0 - f) * axis[j]))
    for k in range(130):
        big[:, k % 100] = big[:, k % 100] * 0.99 + acc * 1e-12
    return time.perf_counter() - t0


def normalized(seconds, cals):
    """Step times rescaled to the reference speed: step i is divided by the
    mean of the calibrations taken just before and just after it."""
    return sum(s * CAL_REF_S / ((cals[i] + cals[i + 1]) / 2)
               for i, s in enumerate(seconds))


def measure_setup(name, seed, out_dir):
    """Wall time of SETUP_PROBES set-ups, each in a fresh interpreter: from
    process start until the package is imported, the config is generated and
    loaded, and the oracle checks have run.  Returns (raw times, times at
    the reference speed, all_ok)."""
    times, cals, ok = [], [calibrate()], True
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(out_dir, f"setup{i}")
        argv = [sys.executable, RUN, "--workload", name, "--seed", str(seed),
                "--setup-only", probe_dir]
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child in steps of up
        # to 50 ms, which would quantize the measurement
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        cals.append(calibrate())
        ok = ok and proc.returncode == 0
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times, [normalized([t], cals[i:i + 2]) for i, t in enumerate(times)], ok


# ---------------------------------------------------------------------------
# Passes and correctness checks
# ---------------------------------------------------------------------------

def _call(fn, argv):
    """fn(argv) as an exit code; a raised exception counts as failure."""
    try:
        return fn(argv)
    except Exception:
        traceback.print_exc()
        return None


def _stat_dir(path):
    return {e.name: (e.stat().st_size, e.stat().st_mtime_ns)
            for e in os.scandir(path) if e.is_file()}


def _digest(path):
    """sha256 of an artifact; summary.json is hashed without wall_time, the
    one field documented to vary between identical runs."""
    if os.path.basename(path) == "summary.json":
        with open(path) as fh:
            obj = json.load(fh)
        obj.pop("wall_time", None)
        return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _all_finite(obj):
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return True


def _json_finite(path):
    with open(path) as fh:
        return _all_finite(json.load(fh))


class Pass:
    """One run of the command sequence on a fresh run directory: per-command
    wall time, success, and digests of the files each command wrote.  The
    reference kernel is timed before the first command and after each."""

    def __init__(self, cfg_path, commands, run_dir, tracer=None):
        os.makedirs(run_dir)
        self.run_dir = run_dir
        self.traced = tracer is not None
        self.seconds, self.ok, self.digests = {}, {}, {}
        self.cal = [calibrate()]
        for cmd in commands:
            before = _stat_dir(run_dir)
            argv = [cmd, "--config", cfg_path, "--out", run_dir]
            t0 = time.perf_counter()
            if tracer is None:
                rc = _call(cli.main, argv)
            else:
                with patched(tracer, layers.TARGETS), \
                        tracer.span(layers.COMMAND_PREFIX + cmd):
                    rc = _call(cli.main, argv)
            self.seconds[cmd] = time.perf_counter() - t0
            self.cal.append(calibrate())
            written = sorted(f for f, st in _stat_dir(run_dir).items()
                             if before.get(f) != st)
            self.digests[cmd] = {f: _digest(os.path.join(run_dir, f))
                                 for f in written}
            finite = all(_json_finite(os.path.join(run_dir, f))
                         for f in written if f.endswith(".json"))
            self.ok[cmd] = rc == 0 and finite
            if not self.ok[cmd]:
                print(f"FAILED: {cmd} exit={rc} finite_json={finite}",
                      file=sys.stderr)
        self.artifact_bytes = sum(st[0] for st in _stat_dir(run_dir).values())

    @property
    def total_s(self):
        return sum(self.seconds.values())

    @property
    def normalized_s(self):
        return normalized(list(self.seconds.values()), self.cal)


def trust_verdicts(cfg_path, run_dir):
    """Trust checks on a solve + evaluate run directory, computed from its
    artifacts and the reloaded value functions.  Returns (verdicts, values)."""
    cfg = cli.RunConfig.load(cfg_path)
    with open(os.path.join(run_dir, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(run_dir, "evaluate.json")) as fh:
        ev = json.load(fh)
    kw = dict(terminal_reward=cfg.spec.terminal_reward, spec=cfg.spec,
              u_grid=cfg.u_grid())
    x0 = cfg.initial_state()

    def at_origin(name):
        vf = cli.load_value_function(run_dir, name, **kw)
        return float(vf.value_at(0, x0)[0])

    v_top, v_prev = at_origin("v_top"), at_origin("v_prev")
    v = summary["value_at_origin"]
    pm, pse, bm = ev["policy_mean"], ev["policy_stderr"], ev["baseline_mean"]
    verdicts = {
        # every reward is -x^2 and every fee positive
        "value_le_reward_bound": v <= 0.0,
        "converged": bool(summary["converged"]),
        "monotone_in_k": v_top >= v_prev,
        "policy_mc_below_value": pm <= v + 3.0 * pse,
        "policy_beats_baseline": pm > bm,
    }
    values = {"value_at_origin": v, "reloaded_value_at_origin": v_top,
              "value_gap": abs(v - pm), "policy_gain": pm - bm}
    return verdicts, values


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, name, seed, seconds, trace, blas_cap):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.workload = workloads.WORKLOADS[name]
        self.blas_cap = blas_cap
        self.out_dir = os.path.join(OUT_ROOT, f"{name}-seed{seed}-trace{trace}")

    def run(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        setup_raw, setup_norm, probes_ok = measure_setup(self.name, self.seed,
                                                         self.out_dir)
        cfg_path, raw, ops = setup(self.name, self.seed, self.out_dir)
        ops["setup probes"] = probes_ok

        passes, pass_layers, spans = self._passes(cfg_path)
        commands = self.workload.commands
        ref = passes[0]
        for i, p in enumerate(passes):
            for cmd in commands:
                same = p.digests[cmd] == ref.digests[cmd]
                if not same:
                    print(f"FAILED: {cmd} pass {i} artifacts differ from pass 0",
                          file=sys.stderr)
                ops[f"pass{i} {cmd}"] = p.ok[cmd] and same

        verdicts, values = {}, {}
        if "solve" in commands and "evaluate" in commands \
                and ref.ok["solve"] and ref.ok["evaluate"]:
            verdicts, values = trust_verdicts(cfg_path, ref.run_dir)
            # the reloaded value function must reproduce the reported value
            ops["pass0 solve"] = ops["pass0 solve"] and \
                values["reloaded_value_at_origin"] == values["value_at_origin"]
        for p in passes:
            shutil.rmtree(p.run_dir)

        untraced = [p for p in passes if not p.traced]
        if self.trace:
            units = layers.UNITS
            metrics = self._layer_metrics(pass_layers, passes, untraced,
                                          verdicts, values)
        else:
            units = END_TO_END_UNITS
            metrics = {"setup_s": statistics.median(setup_norm),
                       "workload_s": statistics.median(p.normalized_s
                                                       for p in untraced),
                       "peak_rss_mb": resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        failed = sum(not ok for ok in ops.values())
        record = {
            "workload": self.name, "why": self.workload.why, "seed": self.seed,
            "trace": self.trace, "config": raw,
            "config_hash": cli.RunConfig(raw).config_hash(),
            "n_paths": raw["evaluation"]["n_paths"],
            "cores": len(os.sched_getaffinity(0)),
            "blas_threads": self.blas_cap, "python": platform.python_version(),
            "numpy": np.__version__, "cal_ref_s": CAL_REF_S,
            "setup_raw_s": setup_raw, "setup_s_samples": setup_norm,
            "raw_setup_s": statistics.median(setup_raw),
            "raw_workload_s": statistics.median(p.total_s for p in untraced),
            "passes": [{"traced": p.traced, "seconds": p.seconds,
                        "calibration_s": p.cal} for p in passes],
            "ops": ops, "verdicts": verdicts, "values": values,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
        }
        with open(os.path.join(self.out_dir, "result.json"), "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
        if spans is not None:
            with open(os.path.join(self.out_dir, "spans.json"), "w") as fh:
                json.dump([s[:4] + [own] for s, own
                           in zip(spans, self_times(spans))], fh)
        self._print(record, passes, failed, len(ops))
        print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                          "failed": failed, "metrics": record["metrics"]}),
              flush=True)
        return 0

    def _passes(self, cfg_path):
        """Passes until the time budget is spent; with tracing on, every pass
        after the first is traced.  Returns (passes, per-layer metrics of
        each traced pass, spans of the last traced pass)."""
        start = time.perf_counter()
        passes, pass_layers, spans = [], [], None
        while True:
            tracer = Tracer() if self.trace and passes else None
            p = Pass(cfg_path, self.workload.commands,
                     os.path.join(self.out_dir, f"pass{len(passes)}"), tracer)
            passes.append(p)
            if tracer is not None:
                m = layers.layer_metrics(tracer.spans)
                m["cli.artifact_bytes"] = p.artifact_bytes
                pass_layers.append(m)
                spans = tracer.spans
            elapsed = time.perf_counter() - start
            typical = statistics.median(q.total_s for q in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > self.seconds:
                return passes, pass_layers, spans

    @staticmethod
    def _layer_metrics(pass_layers, passes, untraced, verdicts, values):
        # median_low keeps a measured value, so counts stay whole numbers
        metrics = {k: statistics.median_low(m[k] for m in pass_layers)
                   for k in pass_layers[0]}
        traced = statistics.median(p.normalized_s for p in passes if p.traced)
        metrics["trace.overhead_ratio"] = traced / statistics.median(
            p.normalized_s for p in untraced)
        # 0 where the workload runs no solve + evaluate
        metrics["trust.invariant_violations"] = sum(not v for v in verdicts.values())
        metrics["trust.value_gap"] = values.get("value_gap", 0.0)
        metrics["trust.policy_gain"] = values.get("policy_gain", 0.0)
        return {k: metrics[k] for k in layers.UNITS}

    def _print(self, record, passes, failed, attempted):
        print(f"workload {self.name} seed {self.seed} trace {self.trace}: "
              f"{len(passes)} passes of {' '.join(self.workload.commands)}")
        print(f"  config_hash {record['config_hash']}  n_paths {record['n_paths']}  "
              f"cores {record['cores']}  blas_threads {record['blas_threads']}  "
              f"python {record['python']}  numpy {record['numpy']}")
        untraced = [p for p in passes if not p.traced]
        for cmd in self.workload.commands:
            xs = [p.seconds[cmd] for p in untraced]
            print(f"  {COMMAND_METRICS[cmd]:<40} {statistics.median(xs):.6g} s  "
                  f"(median of {len(xs)} untraced passes, "
                  f"min {min(xs):.6g}, max {max(xs):.6g})")
        for k in ("raw_workload_s", "raw_setup_s"):
            print(f"  {k:<40} {record[k]:.6g} s  (wall time, not rescaled)")
        for k, m in record["metrics"].items():
            print(f"  {k:<40} {m['value']:.6g} {m['unit']}")
        for k, v in record["verdicts"].items():
            print(f"  verdict {k:<32} {'pass' if v else 'FAIL'}")
        if record["verdicts"]:
            print(f"  {'invariant_violations':<40} "
                  f"{sum(not v for v in record['verdicts'].values())} count")
        for k, v in record["values"].items():
            print(f"  {k:<40} {v:.6g} value")
        print(f"  {'failed_ops':<40} {failed / attempted:.6g} ratio "
              f"({failed} of {attempted})")
        print(f"  details: {os.path.relpath(self.out_dir, ROOT)}/result.json",
              flush=True)


# ---------------------------------------------------------------------------
# Every workload
# ---------------------------------------------------------------------------

def run_all(seed, seconds):
    """Each workload untraced then traced, one child process each; ends with
    one JSON object over all of them (metric names prefixed by workload)."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, RUN, "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"FAILED: {name} --trace {trace} exit {proc.returncode}",
                      file=sys.stderr)
                correct, attempted, failed = False, attempted + 1, failed + 1
                continue
            res = json.loads(lines[-1])
            correct = correct and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            metrics.update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0
