#!/usr/bin/env python3
"""Builds the ADJ benchmark from source and runs one workload.

Run from the repository root:

    python3 adjbench/run.py --workload as-q6-coopt --seed 12 --seconds 10 --trace 0

The first run in a checkout compiles the repository and the benchmark with
sbt (offline) and stores the classpath under adjbench/target; later runs
start the JVM directly. The last line of standard output is the JSON result.
Everything the benchmark writes stays under adjbench/ (results, spans,
cached DuckDB references, Spark temporary files) and target/ directories.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "adjbench-classpath.txt")
STAMP = os.path.join(TARGET, "adjbench-sources.sha256")
OUT = os.path.join(HERE, "out")

# Module opens that spark-submit adds on JDK 17.
JAVA_OPENS = [
    f"--add-opens=java.base/{m}=ALL-UNNAMED"
    for m in [
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io",
        "java.net", "java.nio", "java.util", "java.util.concurrent",
        "java.util.concurrent.atomic", "jdk.internal.ref", "sun.nio.ch",
        "sun.nio.cs", "sun.security.action", "sun.util.calendar",
    ]
] + ["-Djdk.reflect.useDirectMethodHandleAccessor=false"]

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def fail(msg, code=2):
    print(f"adjbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads, repository and benchmark."""
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
             os.path.join(ROOT, "project"), os.path.join(HERE, "src", "main"),
             os.path.join(HERE, "project")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(HERE, "build.sbt")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
    return [f for f in files if os.path.isfile(f)]


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compiles with sbt unless the sources are unchanged since the last build."""
    want = stamp()
    if os.path.isfile(CLASSPATH) and os.path.isfile(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == want:
                with open(CLASSPATH) as cp:
                    return cp.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "--no-server", "-Dsbt.log.noformat=true",
           "compile", "export Runtime/fullClasspath"]
    try:
        p = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 3)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines or "adjbench" not in lines[-1]:
        sys.stderr.write(p.stdout[-4000:])
        fail("build failed", 3)
    cp = lines[-1].strip()
    os.makedirs(TARGET, exist_ok=True)
    with open(CLASSPATH, "w") as fh:
        fh.write(cp + "\n")
    with open(STAMP, "w") as fh:
        fh.write(want + "\n")
    return cp


def heap():
    mem = os.environ.get("SPARK_DRIVER_MEM", "")
    return mem if mem[:-1].isdigit() and mem[-1:].lower() in "gm" else "4g"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))):
        fail(f"the repository's sources are not next to {os.path.basename(HERE)}/")

    cp = build()
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, f"-Xmx{heap()}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}", *JAVA_OPENS,
           "-cp", cp, "adjbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out", OUT]
    try:
        p = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    if p.returncode != 0:
        fail(f"benchmark exited with {p.returncode}", p.returncode if p.returncode > 0 else 5)


if __name__ == "__main__":
    main()
