#!/usr/bin/env python3
"""Run one workload of the HOPE benchmark and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run builds the benchmark (perfbench/build.sbt compiles the
repository's src/main/scala together with perfbench/src) with sbt, and later
runs reuse that build while the sources are unchanged. The run itself is one
JVM; its `metric` lines are passed through, and the last line printed is one
JSON object with `correct`, `attempted`, `failed` and the metrics that
BENCHMARK.json lists: its `end_to_end` metrics with `--trace 0`, its
`per_layer` metrics with `--trace 1`. The exit code is non-zero when the build
or run fails, a listed metric is missing, or any operation gave a wrong
result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
BUILD = os.path.join(OUT, "build")
RUN_TIMEOUT_S = 170

# Module opens Spark needs on JDK 17 (the same list as the repository's build).
JDK_OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        fail("no Spark distribution found: set SPARK_HOME")
    return jars


def source_stamp():
    """Hash of every input of the build, so a changed source rebuilds."""
    h = hashlib.sha256()
    inputs = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for top in (os.path.join(ROOT, "src", "main"), os.path.join(BENCH, "src")):
        for d, dirs, files in os.walk(top):
            dirs.sort()
            inputs += [os.path.join(d, f) for f in sorted(files)]
    for path in inputs:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build(jars):
    """Compiles with sbt unless the same sources were built before; returns
    the path of a java argument file holding the classpath."""
    if not os.path.isfile(os.path.join(ROOT, "src", "main", "scala", "repro", "core", "Hope.scala")):
        fail("the repository's sources (src/main/scala) are missing")
    stamp = source_stamp()
    stamp_file = os.path.join(BUILD, "stamp")
    argfile = os.path.join(BUILD, "classpath.args")
    if os.path.isfile(argfile) and os.path.isfile(stamp_file):
        with open(stamp_file) as f:
            if f.read() == stamp:
                return argfile
    if not shutil.which("sbt"):
        fail("sbt is not on PATH")
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ, SPARK_JARS=jars)
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-J-XX:-UsePerfData",
         f"-Dsbt.global.base={os.path.join(OUT, 'sbt-global')}",
         "compile", "export Runtime/fullClasspath"],
        cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=850)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("build failed")
    classpath = lines[-1].strip()
    with open(argfile, "w") as f:
        f.write("-cp\n" + classpath + "\n")
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return argfile


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json is missing")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    jars = spark_jars()
    argfile = build(jars)
    # Spark's scratch space of earlier runs, left behind if one was killed.
    for scratch in ("tmp", "spark-local"):
        shutil.rmtree(os.path.join(OUT, scratch), ignore_errors=True)
    os.makedirs(os.path.join(OUT, "tmp"))
    # A fixed heap and young generation, so that GC counts follow allocation.
    # -XX:-UsePerfData: no JVM statistics file outside the checkout.
    cmd = (["java", "-Xms2g", "-Xmx2g", "-Xmn256m", "-XX:-UsePerfData",
            f"-Djava.io.tmpdir={os.path.join(OUT, 'tmp')}"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in JDK_OPENS]
           + [f"@{argfile}", "perfbench.Main", args.workload, str(args.seed),
              str(args.seconds), str(args.trace), OUT])
    # Spark prefers SPARK_LOCAL_DIRS to its spark.local.dir setting.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(OUT, "spark-local"))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
                sys.stdout.flush()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        code = proc.wait()
    if code != 0 or result is None:
        fail(f"benchmark JVM exited with code {code}", 1)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) not reported, got {got}", 1)
        metrics[m["name"]] = got
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
