"""Benchmark of cm2cypher: three seeded workloads, end-to-end metrics, and a
traced run for per-layer metrics.

    python3 bench/run.py --workload verify-random --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. ``--workload all`` runs the three workloads in
turn, three rounds, each run in its own process, and prints the median of
each metric over the rounds. The last line of the output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; each
metric is also printed on a ``metric <workload> <name> <value> <unit>`` line.
See README.md in this directory for the workloads and the metrics.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_CHILDREN = 4  # extra set-ups in fresh processes; setup_s is the median
PROBE_REF_S = 0.0005  # speed-probe time that defines the reference speed
ALL_ROUNDS = 3
CHILD_TIMEOUT_S = 170
WORKLOAD_NAMES = ("verify-random", "reduce-tm", "compile-reduced")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_ms.p50": "ms",
    "peak_rss_mib": "MiB",
    "output_bytes": "bytes",
}
LAYERS = ("machine", "cypher", "codegen", "frontend", "reduction", "cli")
PER_LAYER = {
    "machine.run.s": "s",
    "machine.run.steps": "count",
    "machine.run.steps_per_s": "1/s",
    "machine.qpp_walk.s": "s",
    "machine.qpp_walk.edges": "count",
    "cypher.evaluator.run_query.s": "s",
    "cypher.evaluator.run_query.iterations": "count",
    "cypher.evaluator.run_query.live_iterations": "count",
    "cypher.evaluator.run_query.absorbed_iterations": "count",
    "cypher.evaluator.run_query.live_share": "share",
    "cypher.evaluator.run_query.iterations_per_s": "1/s",
    "cypher.lexer.tokenize.s": "s",
    "cypher.lexer.tokenize.tokens": "count",
    "cypher.lexer.tokenize.tokens_per_s": "1/s",
    "cypher.parser.parse_query.self_s": "s",
    "cypher.parser.parse_query.nodes": "count",
    "cypher.parser.parse_query.nodes_per_s": "1/s",
    "codegen.gen_reduce_query.s": "s",
    "codegen.gen_transactions_script.s": "s",
    "codegen.gen_qpp_setup.s": "s",
    "codegen.lint_primitives.s": "s",
    "codegen.bytes": "bytes",
    "frontend.parse_dsl.s": "s",
    "frontend.parse_dsl.bytes_per_s": "bytes/s",
    "frontend.render_dsl.s": "s",
    "frontend.from_map_document.s": "s",
    "frontend.random_program.s": "s",
    "reduction.tm_to_two_stack.s": "s",
    "reduction.two_stack_to_counters.s": "s",
    "reduction.k_counters_to_two.s": "s",
    "reduction.tm_run.s": "s",
    "reduction.tm_run.steps": "count",
    "reduction.tsm_run.s": "s",
    "reduction.tsm_run.steps": "count",
    "reduction.mcm_run.s": "s",
    "reduction.mcm_run.steps": "count",
    "reduction.tsm.states": "count",
    "reduction.mcm.states": "count",
    "reduction.cm.states": "count",
    "reduction.blowup.mcm_per_tsm_step": "ratio",
    "reduction.blowup.cm_per_mcm_step": "ratio",
    "reduction.cm_stage_completed_share": "share",
    "cli.check_program_differential.s": "s",
    **{f"{layer}.failed": "count" for layer in LAYERS},
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}
# Reported only where defined, so not in BENCHMARK.json.
EXTRA = {"item_ms.p90": "ms", "item_ms.samples": "count", "failed_share": "share"}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(self_s: Counter, counts: Counter, failed: Counter) -> dict:
    """Per-layer metrics of one traced pass from span self times and counters."""
    s, c = self_s, counts
    m = {name: float(s[name[:-2]]) for name in PER_LAYER if name.endswith(".s")}
    m.update({name: c[name] for name in PER_LAYER if PER_LAYER[name] == "count"})
    m.update({f"{layer}.failed": failed[layer] for layer in LAYERS})
    parse_self = s["cypher.parser.parse_query"] - s["cypher.lexer.tokenize"]
    m.update({
        "machine.run.steps_per_s": _ratio(c["machine.run.steps"], s["machine.run"]),
        "cypher.evaluator.run_query.live_share": _ratio(
            c["cypher.evaluator.run_query.live_iterations"],
            c["cypher.evaluator.run_query.iterations"]),
        "cypher.evaluator.run_query.iterations_per_s": _ratio(
            c["cypher.evaluator.run_query.iterations"], s["cypher.evaluator.run_query"]),
        "cypher.lexer.tokenize.tokens_per_s": _ratio(
            c["cypher.lexer.tokenize.tokens"], s["cypher.lexer.tokenize"]),
        "cypher.parser.parse_query.self_s": parse_self,
        "cypher.parser.parse_query.nodes_per_s": _ratio(
            c["cypher.parser.parse_query.nodes"], parse_self),
        "codegen.bytes": c["codegen.bytes"],
        "frontend.parse_dsl.bytes_per_s": _ratio(
            c["frontend.parse_dsl.bytes"], s["frontend.parse_dsl"]),
        "reduction.blowup.mcm_per_tsm_step": _ratio(
            c["reduction.blowup.mcm_steps"], c["reduction.blowup.tsm_steps"]),
        "reduction.blowup.cm_per_mcm_step": _ratio(
            c["reduction.blowup.cm_steps"], c["reduction.blowup.mcm_steps_of_cm"]),
        "reduction.cm_stage_completed_share": _ratio(
            c["reduction.cm_completed"], c["reduction.items"]),
    })
    return m


def run_context() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes now (about 0.5 ms).

    The machine's speed drifts by up to 2x within seconds to minutes, CPU
    time slowing as much as wall time. Each item's time is scaled to the
    reference speed, at which this loop takes ``PROBE_REF_S``, by the mean of
    the probes taken just before and just after the item. The loop uses no
    code of the program.
    """
    t = time.perf_counter()
    table, acc = {}, 0
    for i in range(2000):
        table[i & 63] = acc
        acc = (acc + table.get(i & 31, 1) * 3) & 0xFFFF
        acc ^= len(str(i))
    return time.perf_counter() - t


def probe_scale(probes: list[float]) -> float:
    """Factor from measured seconds to reference seconds."""
    return PROBE_REF_S * len(probes) / sum(probes)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


class Run:
    """Passes over one workload's items, with the correctness bookkeeping."""

    def __init__(self, wl, args):
        self.wl, self.args = wl, args
        self.reference = None  # signatures of the first pass
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self._reported: set[int] = set()

    def _fail(self, i: int, detail: str):
        self.failed += 1
        if i in self._reported:
            return
        self._reported.add(i)
        a = self.args
        print(f"FAIL {a.workload} seed={a.seed} item={i}: {detail}\n"
              f"  reproduce: python3 bench/run.py --workload {a.workload} --seed {a.seed} "
              f"--item {i}{' --smoke' if a.smoke else ''}  ({self.wl.reproduce(i)})")

    def one_pass(self, item_fn) -> tuple[list[float], list[float], list[dict]]:
        """Item times in reference seconds, each item's scale, and results."""
        times, sigs, probes = [], [], []
        for i in range(len(self.wl)):
            probes.append(speed_probe())
            t = time.perf_counter()
            try:
                sig = item_fn(i)
            except Exception as exc:  # counted as a failed item; the pass goes on
                sig = {"ok": False, "detail": f"raised {type(exc).__name__}: {exc}"}
            times.append(time.perf_counter() - t)
            sigs.append(sig)
        probes.append(speed_probe())
        self.attempted += len(sigs)
        for i, sig in enumerate(sigs):
            if not sig.get("ok", True):  # traced reduce-tm items only compare
                self._fail(i, sig.get("detail", ""))
        if self.reference is None:
            self.reference = sigs
        else:
            for i, (ref, sig) in enumerate(zip(self.reference, sigs)):
                shared = (ref.keys() & sig.keys()) - {"detail"}
                if any(ref[k] != sig[k] for k in shared):
                    self.problems.append(f"item {i}: results differ between passes")
        scales = [probe_scale(pair) for pair in zip(probes, probes[1:])]
        return [t * k for t, k in zip(times, scales)], scales, sigs

    def until_deadline(self, body):
        """Run ``body`` at least once, then again while another run of it
        fits in the run's ``--seconds``."""
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            body()
            now = time.perf_counter()
            if now - start + (now - t) > self.args.seconds:
                return

    def finish(self, metrics: dict, units: dict, extra: dict | None = None,
               counters: dict | None = None) -> int:
        from workloads import fingerprint

        results = [{k: v for k, v in sig.items() if k != "detail"} for sig in self.reference]
        print(f"# results sha256={fingerprint(results)}"
              + (f" counters sha256={fingerprint(counters)}" if counters else ""))
        for p in dict.fromkeys(self.problems):
            print(f"DETERMINISM {self.args.workload} seed={self.args.seed}: {p}")
        shown = {**metrics, **(extra or {})}
        for name, value in shown.items():
            print(f"metric {self.args.workload} {name} {value!r} {units.get(name) or EXTRA[name]}")
        print(json.dumps({
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        }))
        return 0


def _setup_child(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def measure(args, wl, setup_s: float, fp: str) -> int:
    setup = [setup_s]
    run = Run(wl, args)
    for _ in range(SETUP_CHILDREN):
        child = _setup_child(args)
        setup.append(child["setup_s"])
        if child["sha256"] != fp:
            run.problems.append("generated inputs differ between processes")
    run.one_pass(wl.run_item)  # warm-up: checked, not timed
    passes = []  # (item times, item scales)
    run.until_deadline(lambda: passes.append(run.one_pass(wl.run_item)[:2]))
    per_item_ms = [statistics.median(ts) * 1e3 for ts in zip(*(t for t, _ in passes))]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(t) for t, _ in passes),
        "item_ms.p50": statistics.median(per_item_ms),
        "peak_rss_mib": peak_rss_mib(),
        "output_bytes": wl.output_bytes(run.reference),
    }
    extra = {"item_ms.samples": len(per_item_ms)}
    if len(per_item_ms) >= 100:  # leaves at least 10 samples above the p90
        extra["item_ms.p90"] = statistics.quantiles(per_item_ms, n=10)[8]
    extra["failed_share"] = run.failed / run.attempted
    print(f"# {len(passes)} timed passes after 1 warm-up; seconds per pass, "
          "unscaled/reference: " + " ".join(
              f"{sum(x / k for x, k in zip(t, ks)):.4f}/{sum(t):.4f}" for t, ks in passes))
    return run.finish(metrics, END_TO_END, extra)


def trace(args, wl, setup_tracer, setup_scale: float) -> int:
    from tracing import Tracer

    run = Run(wl, args)
    run.one_pass(wl.run_item)  # warm-up and reference results
    untraced, traced, samples = [], [], []  # pass seconds; per-layer metrics
    layer_failed = Counter(setup_tracer.failed)
    setup_self = Counter()
    for (_, name), seconds in setup_tracer.self_seconds().items():
        setup_self[name] += seconds * setup_scale
    first_counts = None

    def traced_pair():
        nonlocal first_counts
        untraced.append(sum(run.one_pass(wl.run_item)[0]))
        tr = Tracer()

        def item(i):
            tr.item = i
            return wl.trace_item(i, tr)

        times, scales, _ = run.one_pass(item)
        traced.append(sum(times))
        counts = tr.counts + Counter(wl.setup_counts)
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            run.problems.append("work counters differ between traced passes")
        layer_failed.update(tr.failed)
        self_s = Counter(setup_self)
        for (i, name), seconds in tr.self_seconds().items():
            self_s[name] += seconds * scales[i]
        samples.append(layer_metrics(self_s, counts, layer_failed))

    run.until_deadline(traced_pair)
    metrics = {  # counts are exact (checked equal in every pass); failures are totals
        name: samples[-1][name] if unit in ("count", "bytes") else statistics.median(
            s[name] for s in samples)
        for name, unit in PER_LAYER.items() if not name.startswith("trace.")}
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    return run.finish(metrics, PER_LAYER, counters=first_counts)


_METRIC_LINE = re.compile(r"^metric (\S+) (\S+) (\S+) (\S+)$")


def run_all(args) -> int:
    """Interleave the workloads: each round runs every workload once, each
    in a fresh process, so slow spells of the machine hit all of them."""
    rounds = 1 if args.smoke else ALL_ROUNDS
    values: dict = {}
    correct, attempted, failed = True, 0, 0
    for _ in range(rounds):
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=CHILD_TIMEOUT_S, check=False)
            lines = out.stdout.splitlines()
            if out.returncode != 0 or not lines:
                sys.stderr.write(out.stderr)
                print(f"error: {name} exited with {out.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for line in lines[:-1]:
                m = _METRIC_LINE.match(line)
                if m:
                    values.setdefault((name, m[2], m[4]), []).append(float(m[3]))
                elif not line.startswith("metric"):
                    print(line)
    metrics = {}
    for (name, metric, unit), vs in values.items():
        value = statistics.median(vs)
        print(f"metric {name} {metric} {value!r} {unit}")
        metrics[f"{name}/{metric}"] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="how long the timed passes run (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--item", type=int, help="run one item once and print its result")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cm2cypher" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    context = run_context()  # load average before this run adds to it
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS, direct, fingerprint

    cls = WORKLOADS[args.workload]
    setup_tracer = Tracer()
    wl = cls(args.seed, args.smoke, call=setup_tracer.call if args.trace else direct)
    setup_s = time.perf_counter() - T0
    setup_scale = probe_scale([speed_probe() for _ in range(5)])
    setup_s *= setup_scale
    fp = fingerprint(wl.inputs())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "sha256": fp}))
        return 0
    print("# context " + json.dumps({**context, "workload": args.workload, "seed": args.seed,
                                     "seconds": args.seconds, "trace": args.trace}))
    print(f"# inputs {args.workload} seed={args.seed} items={len(wl)} sha256={fp}")
    if args.item is not None:
        sig = wl.run_item(args.item)
        print(f"item {args.item}: {wl.reproduce(args.item)}\n{sig}")
        return 0 if sig["ok"] else 1
    if args.trace:
        return trace(args, wl, setup_tracer, setup_scale)
    return measure(args, wl, setup_s, fp)


if __name__ == "__main__":
    sys.exit(main())
