"""Set-up, the closed measurement loop, and the metrics of one run.

One caller runs each workload as a closed loop: the next op starts only
after the previous one returned and was checked.  The loop makes whole
passes over the seeded inputs until the run time is spent, and every
~20 ms of ops is normalised for machine speed by the calibration loops
of calibration.py.  End-to-end metrics come from an untraced loop; a
traced run adds a second, traced loop plus the layer probes, and the
difference between the two loops is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import random
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from calibration import slowdown
from layers import SPAN_NAMES, field_probe, references, search_window
from tracer import Tracer, traced_api

SETUP_REPS = 5          # setup_s is the median of this many set-ups
CHUNK_NS = 20_000_000   # ops between two calibrations, in wall time
RESERVOIR = 20_000      # latency samples kept for the percentiles

# Per-layer metric -> (span name, unit); the value is the span median.
SPAN_METRICS = {
    "arith.cvma_mul_us": ("arith.cvma_mul", "us"),
    "arith.red3_us": ("arith.red3", "us"),
    "arith.modmul_us": ("arith.modmul", "us"),
    "arith.modmul.self_us": ("arith.modmul.self", "us"),
    "arith.to_montgomery_us": ("arith.to_montgomery", "us"),
    "arith.from_montgomery_us": ("arith.from_montgomery", "us"),
    "arith.add_us": ("arith.add", "us"),
    "arith.sub_us": ("arith.sub", "us"),
    "arith.invert_ms": ("arith.invert", "ms"),
    "params.psi_us": ("params.psi", "us"),
    "params.canonical_value_us": ("params.canonical_value", "us"),
    "params.residue_new_us": ("params.residue_new", "us"),
    "params.params_new_us": ("params.params_new", "us"),
    "oracle.is_probable_prime_us.prime": ("oracle.is_probable_prime.prime",
                                          "us"),
    "oracle.is_probable_prime_us.composite": (
        "oracle.is_probable_prime.composite", "us"),
    "tables.search_grps.self_us": ("tables.search_grps.self", "us"),
}
_NS_PER = {"us": 1e3, "ms": 1e6}


def import_grpfield(src: Path):
    """Import grpfield afresh, and only from the checkout's own sources."""
    for name in [n for n in sys.modules
                 if n == "grpfield" or n.startswith("grpfield.")]:
        del sys.modules[name]
    gf = importlib.import_module("grpfield")
    if not Path(gf.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"grpfield imported from {gf.__file__}, "
                          f"not from {src}")
    return gf


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "perf_counter_resolution_s":
                time.get_clock_info("perf_counter").resolution,
            "optimize": sys.flags.optimize}


class Reservoir:
    """Uniform fixed-size sample of a stream (Algorithm R), so memory does
    not grow with the number of ops a run completes."""

    def __init__(self, size: int, rng: random.Random) -> None:
        self.size = size
        self.rng = rng
        self.values = array("d")
        self.seen = 0

    def add(self, value: float) -> None:
        self.seen += 1
        if len(self.values) < self.size:
            self.values.append(value)
        else:
            j = self.rng.randrange(self.seen)
            if j < self.size:
                self.values[j] = value


@dataclass
class Loop:
    ops: int
    raw_ns: int          # summed op time as measured
    norm_ns: float       # summed op time, normalised for machine speed
    latencies: array     # sample of normalised ns per op
    failed: int
    digest: str          # sha256 of the raw outputs of the first pass
    speed: float         # median of 1 / slowdown over the chunks

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.norm_ns / 1e9)

    @property
    def raw_ops_per_s(self) -> float:
        return self.ops / (self.raw_ns / 1e9)


def closed_loop(wl, gf, state, api, seconds: float, seed: int,
                tracer: Tracer | None = None) -> Loop:
    """Whole passes over the inputs until `seconds` have passed.

    Only the op is timed; the check, the digest and (traced) the part
    replays run between ops.  Each chunk of ops is normalised by the
    mean slowdown measured just before and just after it.
    """
    clock = time.perf_counter_ns
    sample = Reservoir(RESERVOIR, random.Random(seed))
    chunk = array("q")
    speeds = []
    ops = raw_ns = failed = 0
    norm_ns = 0.0
    digest = hashlib.sha256()
    before = slowdown(wl.calibration)

    def flush():
        nonlocal before, ops, raw_ns, norm_ns
        after = slowdown(wl.calibration)
        scale = 2 / (before + after)
        speeds.append(scale)
        for ns in chunk:
            sample.add(ns * scale)
        ops += len(chunk)
        raw_ns += sum(chunk)
        norm_ns += sum(chunk) * scale
        del chunk[:]
        before = after

    deadline = clock() + int(seconds * 1e9)
    chunk_end = clock() + CHUNK_NS
    first = True
    while first or clock() < deadline:
        for item in state.items:
            start = clock()
            out = wl.op(api, state, item)
            chunk.append(clock() - start)
            if not wl.check(state, item, out):
                failed += 1
            if first:
                digest.update(wl.raw(item, out))
            if tracer is not None:
                wl.replay(gf, tracer, state, item, out)
            if clock() >= chunk_end:
                flush()
                chunk_end = clock() + CHUNK_NS
        first = False
    if chunk:
        flush()
    return Loop(ops, raw_ns, norm_ns, sample.values, failed,
                digest.hexdigest(), statistics.median(speeds))


def set_up(wl, seed: int, src: Path):
    """Import, seeded params_new, inputs and warm-up, SETUP_REPS times.

    Returns the last grpfield module and state, the normalised set-up
    times, and the warm-up ops attempted and failed.  Every repetition
    must give bit-identical warm-up outputs.
    """
    times, digests = [], set()
    attempted = failed = 0
    for _ in range(SETUP_REPS):
        before = slowdown(wl.calibration)
        start = time.perf_counter()
        gf = import_grpfield(src)
        state = wl.setup(gf, seed)
        digest = hashlib.sha256()
        for item in state.items[:wl.warmup]:
            out = wl.op(gf, state, item)
            attempted += 1
            failed += not wl.check(state, item, out)
            digest.update(wl.raw(item, out))
        elapsed = time.perf_counter() - start
        times.append(elapsed * 2 / (before + slowdown(wl.calibration)))
        digests.add(digest.hexdigest())
    if len(digests) != 1:
        failed += 1
    return gf, state, times, attempted, failed


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(loop: Loop, setup_times: list[float]) -> dict:
    lat = loop.latencies
    n = loop.ops
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    return {
        "ops_per_s": _metric(loop.ops_per_s, "1/s", n),
        "op_us_p50": _metric(statistics.median(lat) / 1e3, "us", n),
        "op_us_p90": _metric(p90 / 1e3, "us", n),
        "setup_s": _metric(statistics.median(setup_times), "s",
                           len(setup_times)),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB", 1),
    }


def per_layer(tracer: Tracer, ref_times: dict, counts: dict,
              plain: Loop, traced: Loop) -> dict:
    out = {}
    for metric, (span, unit) in SPAN_METRICS.items():
        out[metric] = _metric(tracer.median_ns(span) / _NS_PER[unit], unit,
                              tracer.samples(span))
    for metric, samples in ref_times.items():
        out[metric] = _metric(statistics.median(samples), "us", len(samples))
    modmul_us = out["arith.modmul_us"]["value"]
    out["ratio.modmul_vs_cios"] = _metric(
        modmul_us / out["bench.cios_modmul_us"]["value"], "ratio", 1)
    out["ratio.modmul_vs_native"] = _metric(
        modmul_us / out["native.mulmod_us"]["value"], "ratio", 1)
    for metric, value in counts.items():
        unit = "ratio" if metric.endswith("ratio") else "count"
        out[metric] = _metric(value, unit, 1)
    delta = traced.ops_per_s - plain.ops_per_s
    out["trace.overhead_ops_per_s"] = _metric(delta, "1/s", traced.ops)
    out["trace.overhead_pct"] = _metric(-100 * delta / plain.ops_per_s, "%",
                                        traced.ops)
    return out


def columns(layers: dict, mults: dict) -> list[dict]:
    """Timing, native and op-count columns side by side, per product."""
    def us(metric):
        return layers[metric]["value"]
    return [
        {"column": "grpfield modmul", "us": us("arith.modmul_us"),
         "word_mults": mults["modmul"]},
        {"column": "grpfield cvma_mul", "us": us("arith.cvma_mul_us"),
         "word_mults": mults["cvma_mul"]},
        {"column": "schoolbook model", "us": None,
         "word_mults": mults["schoolbook"]},
        {"column": "CIOS baseline", "us": us("bench.cios_modmul_us"),
         "word_mults": mults["cios"]},
        {"column": "native a*b % p", "us": us("native.mulmod_us"),
         "word_mults": None},
    ]


def run(wl, seed: int, seconds: float, trace: bool, src: Path) -> dict:
    """One benchmark run; returns the full report."""
    gf, state, setup_times, attempted, failed = set_up(wl, seed, src)
    # A traced run splits its time between an untraced and a traced loop,
    # so it lasts about as long as an untraced one.
    loop_seconds = seconds / 2 if trace else seconds
    plain = closed_loop(wl, gf, state, gf, loop_seconds, seed)
    attempted += plain.ops
    failed += plain.failed
    report = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "field": state.params.label(),
              "bits": state.params.bits, "digest": plain.digest,
              "end_to_end": end_to_end(plain, setup_times),
              "raw": {"ops_per_s": plain.raw_ops_per_s,
                      "speed": plain.speed}}
    if trace:
        tracer = Tracer()
        traced = closed_loop(wl, gf, state,
                             traced_api(gf, tracer, SPAN_NAMES),
                             loop_seconds, seed, tracer)
        attempted += traced.ops
        failed += traced.failed
        window_counts, window_ok, window_items = search_window(gf, state)
        probe_ok = field_probe(gf, state, tracer, window_items)
        ref_times, counts, ref_ok, mults = references(gf, state)
        counts.update(window_counts)
        # The wrappers must not change a single output bit; the probes,
        # the window search and the reference columns are checked too.
        for ok in (traced.digest == plain.digest, probe_ok, window_ok,
                   ref_ok):
            attempted += 1
            failed += not ok
        layers = per_layer(tracer, ref_times, counts, plain, traced)
        report["per_layer"] = layers
        report["window"] = list(state.window)
        report["columns"] = columns(layers, mults)
    report["attempted"] = attempted
    report["failed"] = failed
    report["fail_ratio"] = failed / attempted
    return report
