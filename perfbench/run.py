#!/usr/bin/env python3
"""Build and run the morphdb end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --promote target/perfbench/<run>.json [...]

The first form builds `perfbench/` (a cargo package of its own, with the
repository's crates as path dependencies) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs one workload, writes the full record with
its provenance under `target/perfbench/`, and prints the result line
last. The second form copies finished records into
`perfbench/RESULTS.json`, the checked-in reference run.

Workloads: split-migrate, foj-catchup, foj-readmix (see NOTES.md).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("split-migrate", "foj-catchup", "foj-readmix")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def revision():
    """Git revision, or a digest of the sources when not in a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0:
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--", "crates", "shims", "perfbench"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip()
            return out.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("crates", "shims", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and p.suffix in (".rs", ".toml", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:16]


def promote(paths):
    runs = []
    for p in paths:
        rec = json.loads(Path(p).read_text())
        if not rec.get("correct"):
            fail(f"{p}: refusing to promote an incorrect run")
        runs.append(rec)
    out = HERE / "RESULTS.json"
    out.write_text(json.dumps({"runs": runs}, indent=2) + "\n")
    print(f"promoted {len(runs)} run(s) into {out.relative_to(ROOT)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=("0", "1"))
    ap.add_argument("--promote", nargs="+", metavar="RECORD")
    args = ap.parse_args()
    if args.promote:
        return promote(args.promote)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required", 2)
    # The benchmark measures the defaults; environment overrides (such as
    # the WAL mode switch) would silently change what is measured.
    overrides = sorted(k for k in os.environ if k.startswith("MORPH_"))
    if overrides:
        fail(f"refusing to run with {', '.join(overrides)} set", 2)

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr, timeout=880,
    )
    if build.returncode != 0:
        fail("build failed")

    outdir = ROOT / "target" / "perfbench"
    outdir.mkdir(parents=True, exist_ok=True)
    record = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [str(target / "release" / "morph-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", str(record), "--rev", revision()]
    run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=175)
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    print(f"# record: {record.relative_to(ROOT)}")
    # The result line goes last.
    print(lines[-1], flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
