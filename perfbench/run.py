#!/usr/bin/env python3
"""Benchmark of the factor-window rewriter: build it, run one workload, and
print its report lines and, last, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout of the repository. The first run builds
the benchmark with sbt (perfbench/build.sbt compiles the repository's main
sources with the benchmark's own) and caches the classpath under
.bench_build/; later runs start the JVM directly. Every file a run writes
stays under .bench_build/ of the checkout. See perfbench/BENCH.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("batch-tumbling", "batch-hopping")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; the build before a first run is not counted.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600
# What spark-submit adds on Java 17 so Spark may reach JDK internals.
JAVA_MODULE_OPTIONS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-modules=jdk.incubator.vector",
] + ["--add-opens=%s=ALL-UNNAMED" % m for m in (
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
    "java.security.jgss/sun.security.krb5")]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the build reads, as paths relative to the checkout root."""
    roots = [os.path.join("perfbench", "src"), os.path.join("src", "main", "scala")]
    files = [os.path.join("perfbench", "build.sbt"),
             os.path.join("perfbench", "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(os.path.join(ROOT, r)):
            files += [os.path.relpath(os.path.join(d, n), ROOT) for n in names]
    return sorted(files)


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(f.encode())
        with open(os.path.join(ROOT, f), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def classpath():
    """The benchmark's runtime classpath, building it first when the
    sources changed since the last build."""
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail("no repository sources under src/main/scala: run from the root of a checkout")
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    stamp = os.path.join(BUILD_DIR, "classpath.json")
    digest = source_hash()
    if os.path.exists(stamp):
        with open(stamp) as fh:
            cached = json.load(fh)
        if cached.get("sources") == digest:
            return cached["classpath"]
    os.makedirs(BUILD_DIR, exist_ok=True)
    t0 = time.time()
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         "compile", "export Runtime/fullClasspath"],
        cwd=HERE, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=BUILD_TIMEOUT_S, stdin=subprocess.DEVNULL)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or "classes" not in lines[-1]:
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed (sbt exit code %d)" % proc.returncode)
    cp = lines[-1].strip()
    with open(stamp, "w") as fh:
        json.dump({"sources": digest, "classpath": cp}, fh)
    print("perfbench: built in %.0f s" % (time.time() - t0), file=sys.stderr)
    return cp


def run_jvm(cp, bench_args, timeout_s):
    """Run the benchmark JVM; return its stdout lines. Its scratch files go
    to a directory of their own that is removed afterwards."""
    scratch = os.path.join(BUILD_DIR, "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") \
        if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, "-Xmx3g", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + scratch] \
        + JAVA_MODULE_OPTIONS + ["-cp", cp, "repro.perfbench.Bench"] \
        + bench_args + ["--scratch", scratch]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark did not finish within %d s" % timeout_s)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        fail("benchmark JVM exited with code %d" % proc.returncode)
    return out.splitlines()


def parse_result(line):
    result = json.loads(line)
    if set(result) != RESULT_KEYS or not isinstance(result["metrics"], dict) \
            or not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("malformed result line: " + line)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()
    if not 0 < a.seconds <= 60:
        fail("--seconds must be in (0, 60]")
    bench_args = ["--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", repr(a.seconds), "--trace", a.trace]
    lines = run_jvm(classpath(), bench_args, RUN_TIMEOUT_S)
    if not lines:
        fail("benchmark printed nothing")
    try:
        result = parse_result(lines[-1])
    except ValueError as e:
        fail(str(e))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
