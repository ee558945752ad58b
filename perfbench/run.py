#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload <dysim-amazon|baselines-amazon|opt-small|all>
        [--seed N] [--data-seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. The first run compiles the program and
the benchmark from source with sbt (offline); later runs reuse that build
for as long as the sources are unchanged. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "target", "bench")
CLASSPATH = os.path.join(OUT, "classpath.txt")
STAMP = os.path.join(OUT, "sources.sha256")
RUN_TIMEOUT_S = 170  # per workload; "all" runs three in one JVM

# Spark's module opens on JDK 17 (spark-submit adds them itself).
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]


BUILD_INPUTS = (".scala", ".java", ".sbt", ".properties")


def sources_digest():
    """Hash of every file the build reads, so an edit forces a rebuild."""
    h = hashlib.sha256(ROOT.encode())
    roots = [os.path.join(ROOT, p) for p in ("build.sbt", "project", "src", "jobs")] + [HERE]
    for top in roots:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, dirs, files in os.walk(top)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep)
            for f in files if f.endswith(BUILD_INPUTS))
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def build():
    digest = sources_digest()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read() == digest:
                with open(CLASSPATH) as f:
                    return f.read()
    env = dict(os.environ, SBT_OPTS=(os.environ.get("SBT_OPTS", "") + " -XX:-UsePerfData").strip())
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or os.pathsep not in lines[-1]:
        sys.stderr.write(proc.stdout)
        sys.exit("benchmark build failed")
    os.makedirs(OUT, exist_ok=True)
    with open(CLASSPATH, "w") as f:
        f.write(lines[-1].strip())
    with open(STAMP, "w") as f:
        f.write(digest)
    return lines[-1].strip()


def main():
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        sys.exit("no program sources next to the benchmark: run it from a checkout of the repository")
    classpath = build()
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Steadiness, measured on dysim-amazon on a 4-core VM: with G1 one
    # iteration varied by up to 30% within a JVM, and with background JIT
    # compilation the medians of separate JVMs spread from 6.4 to 10 s. A
    # fixed heap, the parallel collector and compiling the program's own
    # methods in the calling thread narrowed them to 7.8-9.1 s. (Compiling
    # every method that way tripled Spark's set-up time.)
    cmd = (["java", "-XX:-UsePerfData", "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:CompileCommand=quiet",
            "-XX:CompileCommand=BackgroundCompilation,repro.*::*,false",
            "-Djava.io.tmpdir=" + tmp,
            "-Dperfbench.out=" + OUT, "-Dspark.driver.host=127.0.0.1", "-Dspark.local.dir=" + tmp,
            "-Dspark.sql.warehouse.dir=" + os.path.join(tmp, "warehouse"),
            "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties")]
           + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in OPENS]
           + ["-cp", classpath, "perfbench.Main"] + sys.argv[1:])
    env = dict(os.environ, SPARK_LOCAL_DIRS=tmp)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)

    def stop(signum, frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    timeout = RUN_TIMEOUT_S * (3 if "all" in sys.argv[1:] else 1)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("benchmark run exceeded %d s" % timeout)
    sys.exit(code)


if __name__ == "__main__":
    main()
