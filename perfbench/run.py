#!/usr/bin/env python3
"""LiveGraph benchmark: LinkBench through a real livegraph_server, and
in-situ analytics under fresh writes.

    python3 perfbench/run.py --workload linkbench-tao --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds a Release tree of its own
in .bench_build (no invariant checker) and refuses to report from any other
kind of build. Every run starts from scratch: a fresh server on an empty WAL
directory, or a fresh embedded engine, loaded again.

Workloads:
  linkbench-tao   TAO mix (99.8% reads), 2 closed-loop clients over RemoteStore
  linkbench-dflt  DFLT mix (31% writes), same server configuration
  htap-analytics  PageRank + ConnComp passes on fresh snapshots of an embedded
                  engine while an open-loop writer commits 20k DFLT writes/s.
                  Its pass times swing by about 20% between runs on a shared
                  VM, so BENCHMARK.json does not gate it; the layer survey
                  measures it on every traced run.

--trace 0 prints the end-to-end metrics. --trace 1 runs the layer survey
instead, whatever the workload: traced TAO and DFLT phases, a traced HTAP
phase, and the layer ladder; it prints the per-layer metrics, each named
after the phase it comes from.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
only if every output check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
LGBENCH = os.path.join(BUILD, "lgbench")
SERVER = os.path.join(BUILD, "livegraph", "livegraph_server")

# Graph sizes, client counts and rates are fixed in lgbench.cc; this file
# fixes the server configuration and how often a run sets up.
SETUPS = 2
SERVER_FLAGS = ["--durability=wal-fsync", "--reactors=2"]

WORKLOADS = {"linkbench-tao": "tao", "linkbench-dflt": "dflt",
             "htap-analytics": "htap"}

# BENCHMARK.json names the metrics the final JSON line carries: every
# end-to-end metric on every workload with --trace 0, every per-layer metric
# with --trace 1.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)

CHILDREN = []  # processes to stop on every exit path


def say(line=""):
    print(line, flush=True)


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr, flush=True)
    raise SystemExit(code)


# ---------------------------------------------------------------------------
# Build and provenance.

def build():
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt at %s: run from the repository root" % ROOT)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
         "-DLIVEGRAPH_DCHECK=OFF"] + generator,
        ["cmake", "--build", BUILD, "-j", "4", "--target", "lgbench",
         "livegraph_server"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    info = json.loads(subprocess.run([LGBENCH, "info"], capture_output=True,
                                     text=True, check=True).stdout)
    info["source_sha256"] = source_digest()
    # build_flags names every checker compiled in (dcheck, faults, tsan,
    # asan); "none" means a plain build.
    if info["build_flags"] != "none" or info["build_type"] != "Release":
        fail("refusing to report from a %s build with flags %s"
             % (info["build_type"], info["build_flags"]))
    return info


def source_digest():
    """Identifies the sources built when the checkout carries no git SHA."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, files in os.walk(top):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def machine(cpusets):
    model, l3 = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            l3 = f.read().strip()
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3": l3,
        "kernel": platform.release(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "cpusets": cpusets,
    }


def cpu_plan():
    """Server on two CPUs and load generator on two others when there are
    four (the unpinned default oversubscribes and is noisy); on htap the
    analytics threads and the writer plus engine threads split them alike."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return {"server": None, "client": None, "analytics": None,
                "writer": None, "note": "fewer than 4 CPUs: unpinned"}
    return {"server": cpus[0:2], "client": cpus[2:4],
            "analytics": cpus[0:2], "writer": cpus[2:4]}


# ---------------------------------------------------------------------------
# Processes.

def pinned(cpus):
    if not cpus:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def stop(proc, drain_s=10.0):
    """SIGTERM (the server drains), then SIGKILL; always waits."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=drain_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc in CHILDREN:
        CHILDREN.remove(proc)


def lgbench(args, cpus, timeout=170):
    cmd = [LGBENCH] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=pinned(cpus))
    CHILDREN.append(proc)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc, 1.0)
        fail("lgbench timed out: " + " ".join(args))
    CHILDREN.remove(proc)
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if not lines:
        fail("lgbench printed no result (exit %d): %s"
             % (proc.returncode, " ".join(args)))
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


class Server:
    """A fresh livegraph_server on an empty WAL directory."""

    def __init__(self, cpus):
        self.dir = os.path.join(WORK, "server-%d-%d" % (os.getpid(), time.monotonic_ns()))
        os.makedirs(os.path.join(self.dir, "wal"))
        self.log_path = os.path.join(self.dir, "server.log")
        wal = os.path.join(self.dir, "wal", "wal.log")
        self.argv = [SERVER, "--port=0", "--wal-path=" + wal] + SERVER_FLAGS
        start = time.monotonic()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(self.argv, stdout=log, stderr=log,
                                         preexec_fn=pinned(cpus))
        CHILDREN.append(self.proc)
        self.port = None
        while self.port is None:
            if self.proc.poll() is not None or time.monotonic() - start > 30:
                self.close()
                fail("server did not start; log: " + self.log_tail())
            time.sleep(0.005)
            self.port, self.build = self.parse_start()
        if self.build != ("Release", "none"):
            self.close()
            fail("server build is %s/%s, not Release without checks" % self.build)
        self.start_s = time.monotonic() - start

    def parse_start(self):
        with open(self.log_path) as f:
            for line in f:
                if "event=server.start" not in line:
                    continue
                fields = dict(kv.split("=", 1) for kv in line.split() if "=" in kv)
                kind = (fields.get("build"), fields.get("build_flags"))
                return int(fields["port"]), kind
        return None, None

    def log_tail(self):
        with open(self.log_path) as f:
            return f.read()[-2000:]

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def disk_bytes(self):
        total = 0
        for dirpath, _, files in os.walk(os.path.join(self.dir, "wal")):
            for name in files:
                total += os.path.getsize(os.path.join(dirpath, name))
        return total

    def close(self):
        stop(self.proc)
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Workloads.

def remote_phase(mix, seed, seconds, plan, trace, setups):
    """`setups` fresh servers, each loaded and warmed; the last one runs the
    timed phase and the output checks."""
    setup_s, result = [], None
    for k in range(setups):
        last = k == setups - 1
        server = Server(plan["server"])
        try:
            args = ["remote", "--port=%d" % server.port, "--mix=" + mix,
                    "--seed=%d" % seed, "--seconds=%g" % seconds,
                    "--trace=%d" % trace,
                    "--setup-only=%d" % (0 if last else 1)]
            if trace:
                args.append("--trace-out=" + os.path.join(WORK, "trace-%s.csv" % mix))
            r = lgbench(args, plan["client"])
            if not last and not r["correct"]:
                fail("set-up check failed: " + json.dumps(r["checks"]), 1)
            setup_s.append(server.start_s + r["load_s"] + r["warmup_s"])
            if last:
                result = r
                result["peak_rss_mb"] = server.peak_rss_mb()
                result["disk_bytes"] = server.disk_bytes()
        finally:
            server.close()
    result["setups"] = len(setup_s)
    result["setup_s"] = statistics.median(setup_s)
    return result


def htap_phase(seed, seconds, plan, trace, setups):
    analytics = plan["analytics"] or []
    writer = plan["writer"] or []
    return lgbench(["htap", "--seed=%d" % seed, "--seconds=%g" % seconds,
                    "--setups=%d" % setups, "--trace=%d" % trace,
                    "--analytics-cpus=" + ",".join(map(str, analytics)),
                    "--writer-cpus=" + ",".join(map(str, writer))], None)


def end_to_end(kind, r):
    """The gated values with their sample counts, and the figures that are
    printed but not gated because not every workload has them.

    Throughput counts served requests; latencies are pooled over every
    served request, each timed from its start (on htap, from when the
    open-loop writer was due to send it) to its answer, conflict retries
    and their back-off included. On the remote workloads both count the
    seconds of the timed phase in which the host stole under 2% of the CPU
    time (lgbench.cc, LowStealSeconds); the whole-phase figures are printed
    beside them."""
    lat = r["latency_us"]
    gated = {
        "throughput_ops_s": (r["throughput_ops_s"], lat["count"]),
        "latency_p50_us": (lat["p50"], lat["count"]),
        "latency_p99_us": (lat["p99"], lat["count"]),
        "setup_s": (r["setup_s"], r["setups"]),
        "peak_rss_mb": (r["peak_rss_mb"], 1),
    }
    attempted = r["ops"] + r["failures"]
    windows = r["per_window_ops"]
    extra = [
        ("error_rate", r["failures"] / max(1, attempted), "ratio", attempted),
        ("write_p50_us", r["write_us"]["p50"], "us", r["write_us"]["count"]),
        ("write_p99_us", r["write_us"]["p99"], "us", r["write_us"]["count"]),
        # Served requests in the last full second over the first: below 1
        # when the workload slows as it runs (DFLT's hot lists grow).
        ("last_over_first_second", windows[-1] / max(1.0, windows[0]),
         "ratio", len(windows)),
    ]
    if kind == "htap":
        extra.append(("analytics_s", r["analytics_s"]["p50"], "s",
                      r["analytics_s"]["count"]))
    else:
        scan, whole = r["scan_us"], r["whole_phase"]
        extra += [
            ("throughput_whole_phase", whole["throughput_ops_s"], "1/s",
             r["ops"]),
            ("latency_p50_whole_phase", whole["latency_us"]["p50"], "us",
             whole["latency_us"]["count"]),
            ("latency_p99_whole_phase", whole["latency_us"]["p99"], "us",
             whole["latency_us"]["count"]),
            ("scan_p50_us", scan["p50"], "us", scan["count"]),
            ("scan_p99_us", scan["p99"], "us", scan["count"]),
            ("disk_bytes_per_user_byte",
             r["disk_bytes"] / r["acked_payload_bytes"], "ratio", 1),
        ]
    return gated, extra


def run_untraced(workload, seed, seconds, plan):
    kind = WORKLOADS[workload]
    if kind == "htap":
        r = htap_phase(seed, seconds, plan, 0, SETUPS)
    else:
        r = remote_phase(kind, seed, seconds, plan, 0, SETUPS)
    gated, extra = end_to_end(kind, r)
    say("checks: " + json.dumps(r["checks"], sort_keys=True))
    say("served per second: " + " ".join("%.0f" % x for x in r["per_window_ops"]))
    if "steal_pct_per_window" in r:
        say("host steal %% per second: %s  (%d seconds counted)" % (
            " ".join("%.1f" % x for x in r["steal_pct_per_window"]),
            r["windows_counted"]))
    say("%-26s %16s  %-6s %s" % ("metric", "value", "unit", "samples"))
    for m in SPEC["end_to_end"]:
        value, samples = gated[m["name"]]
        say("%-26s %16.4f  %-6s %d" % (m["name"], value, m["unit"], samples))
    for name, value, unit, n in extra:
        say("%-26s %16.4f  %-6s %d   (not gated)" % (name, value, unit, n))
    metrics = {m["name"]: {"value": gated[m["name"]][0], "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    ok = r["correct"] and r["exit_code"] == 0
    return ok, r["ops"] + r["failures"], r["failures"], metrics


def run_survey(seed, seconds, plan):
    """Every per-layer metric, from traced phases of all three workloads and
    the ladder."""
    layers, ok, attempted, failed = {}, True, 0, 0
    for phase, run in (
            ("tao", lambda: remote_phase("tao", seed, seconds, plan, 1, 1)),
            ("dflt", lambda: remote_phase("dflt", seed, seconds, plan, 1, 1)),
            ("htap", lambda: htap_phase(seed, seconds, plan, 1, 1)),
            ("ladder", lambda: lgbench(["ladder", "--seed=%d" % seed],
                                       plan["client"]))):
        r = run()
        say("%s checks: %s" % (phase, json.dumps(r["checks"], sort_keys=True)))
        ok = ok and r["correct"] and r["exit_code"] == 0
        attempted += r.get("ops", 0) + r.get("failures", 0)
        failed += r.get("failures", 0)
        for name, value in r["layers"].items():
            layers[name if phase == "ladder" else phase + "." + name] = value
    return ok, max(1, attempted), failed, layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: fail("terminated", 3))

    info = build()
    os.makedirs(WORK, exist_ok=True)
    plan = cpu_plan()
    say("build: " + json.dumps(info, sort_keys=True))
    say("machine: " + json.dumps(machine(plan), sort_keys=True))
    say("server: " + " ".join(["livegraph_server", "--port=0"] + SERVER_FLAGS)
        + "  (flush policy: fdatasync per commit group)")
    say("workload: %s seed=%d seconds=%g trace=%d"
        % (args.workload, args.seed, args.seconds, args.trace))

    if args.trace:
        ok, attempted, failed, layers = run_survey(args.seed, args.seconds, plan)
        listed = {m["name"] for m in SPEC["per_layer"]}
        for name in sorted(layers):
            note = "" if name in listed else "   (not listed)"
            say("%-52s %16.6g%s" % (name, layers[name], note))
        missing = sorted(listed - set(layers))
        if missing:
            fail("layer survey did not measure: " + ", ".join(missing))
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in SPEC["per_layer"]}
    else:
        ok, attempted, failed, metrics = run_untraced(
            args.workload, args.seed, args.seconds, plan)
    print(json.dumps({"correct": bool(ok), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        for child in list(CHILDREN):
            stop(child)
