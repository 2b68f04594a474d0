#!/usr/bin/env python3
"""Build (when the sources changed) and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark compiles the program's sources
(src/main/scala) together with its own (perfbench/src) with sbt, once per
change of any source file, and then runs the workload in one JVM. The last
line of standard output is the JSON result; it is printed only if its metric
names are exactly the ones BENCHMARK.json lists for the chosen mode.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TARGET = BENCH / "target"
CLASSPATH = TARGET / "classpath.txt"
STAMP = TARGET / "sources.sha256"
# Workloads without Spark run on one thread; they get one CPU, so the
# scheduler cannot move them between cores mid-run (on a shared 4-vCPU box
# that alone moved their step times by 40 % between runs).
SINGLE_CPU = {"local-large-n", "quality-knn"}
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Module access Spark 4 needs on Java 17 (the set spark-submit passes).
JAVA_OPENS = [
    f"--add-opens={m}=ALL-UNNAMED"
    for m in [
        "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
        "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
        "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
        "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
        "java.base/sun.security.action", "java.base/sun.util.calendar",
    ]
] + ["-Djdk.reflect.useDirectMethodHandle=false"]


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sources():
    """Every file the build reads from the checkout, in a fixed order."""
    program = ROOT / "src" / "main" / "scala"
    if not program.is_dir():
        fail(f"no program sources at {program.relative_to(ROOT)}; run from a full checkout", 2)
    files = sorted(p for d in (program, BENCH / "src") for p in d.rglob("*") if p.is_file())
    return files + [BENCH / "build.sbt", BENCH / "project" / "build.properties"]


def source_hash():
    h = hashlib.sha256()
    for p in sources():
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def build(digest):
    if CLASSPATH.exists() and STAMP.exists() and STAMP.read_text() == digest:
        return
    env = dict(os.environ, COURSIER_MODE="offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = Path.home() / ".sbt" / "repositories"
        if repos.exists():
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false", "writeClasspath"]
    code, out = run_child(cmd, BENCH, env, BUILD_TIMEOUT_S, merge_stderr=True)
    if code != 0:
        sys.stderr.write(out[-4000:])
        fail(f"build failed (exit {code})")
    STAMP.write_text(digest)


def run_child(cmd, cwd, env, timeout, merge_stderr, preexec=None):
    """Run `cmd` in its own process group and return (exit code, stdout);
    kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT if merge_stderr else None,
                            preexec_fn=preexec)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def check_result(spec, line, trace):
    want = spec["per_layer" if trace else "end_to_end"]
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(res)}")
    got = res["metrics"]
    if set(got) != {m["name"] for m in want}:
        fail(f"metric names differ from BENCHMARK.json: {sorted(set(got) ^ {m['name'] for m in want})}")
    for m in want:
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']} has unit {got[m['name']]['unit']}, BENCHMARK.json says {m['unit']}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    digest = source_hash()
    build(digest)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=TARGET))
    try:
        cmd = ["java", "-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch", "-Dfile.encoding=UTF-8", "-Dstdout.encoding=UTF-8", f"-Djava.io.tmpdir={work}", f"-Dperfbench.commit={commit()}",
               f"-Dperfbench.sources={digest[:16]}", *JAVA_OPENS,
               "-cp", CLASSPATH.read_text().strip(), "perfbench.Main",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
        cpus = sorted(os.sched_getaffinity(0))
        pin = {cpus[-1]} if args.workload in SINGLE_CPU else set(cpus)
        code, out = run_child(cmd, ROOT, dict(os.environ), RUN_TIMEOUT_S, merge_stderr=False,
                              preexec=lambda: os.sched_setaffinity(0, pin))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write("\n".join(lines[-60:]) + "\n")
        fail(f"workload exited with {code}")
    print("\n".join(lines[:-1]))
    check_result(spec, lines[-1], args.trace == "1")
    print(lines[-1])


if __name__ == "__main__":
    main()
