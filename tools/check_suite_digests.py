#!/usr/bin/env python3
"""Check every suite circuit's compiled outputs against committed digests.

For each line of tests/suite_digests.txt (<name> <mode> <sha256>) this
writes the circuit with quest_gen, compiles it with

    quest_compile --no-cache --seed 99 [--large] [--threads N]

and hashes the output directory: every file in sorted relative-path
order, each fed to SHA-256 as its path, a NUL, its length in decimal, a
NUL and its bytes. summary.txt is hashed without its "... seconds:"
lines, the only wall-clock content a compile writes. Mode is "full" for
standardSuite() circuits and "large" for largeSuite() ones.

    python3 tools/check_suite_digests.py --bin-dir build/release/tools \\
        [--threads N] [--workdir DIR] [--print]

Exits 1 listing every circuit whose digest differs. A mismatch is a
failure, never a cue to rewrite the file: the digests change only with
a change meant to alter outputs, which says so in CHANGES.md. --print
writes the digests this build produces to stdout instead of checking.
"""

import argparse
import hashlib
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DIGESTS = REPO / "tests" / "suite_digests.txt"
SEED = "99"
TIMING_LINE = re.compile(rb"^[a-z]+ seconds: ", re.M)


def load_digests(path):
    rows = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, mode, digest = line.split()
        if mode not in ("full", "large"):
            sys.exit(f"{path}: unknown mode '{mode}' for {name}")
        rows.append((name, mode, digest))
    return rows


def file_bytes(path, rel):
    data = path.read_bytes()
    if rel == "summary.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not TIMING_LINE.match(line))
    return data


def digest_dir(out_dir):
    h = hashlib.sha256()
    files = sorted((p.relative_to(out_dir).as_posix(), p)
                   for p in out_dir.rglob("*") if p.is_file())
    for rel, path in files:
        data = file_bytes(path, rel)
        h.update(rel.encode() + b"\0" + str(len(data)).encode() + b"\0")
        h.update(data)
    return h.hexdigest()


def compile_one(bin_dir, workdir, name, mode, threads):
    # Paths relative to the working directory: summary.txt names its
    # input, and the digest must not depend on where the sweep runs.
    qasm, out_dir = f"{name}.qasm", f"{name}.out"
    shutil.rmtree(workdir / out_dir, ignore_errors=True)
    subprocess.run([bin_dir / "quest_gen", name, qasm], check=True,
                   cwd=workdir, stdout=subprocess.DEVNULL)
    cmd = [bin_dir / "quest_compile", "--no-cache", "--seed", SEED]
    if mode == "large":
        cmd.append("--large")
    if threads:
        cmd += ["--threads", str(threads)]
    subprocess.run([*cmd, qasm, out_dir], check=True, cwd=workdir,
                   stdout=subprocess.DEVNULL)
    return digest_dir(workdir / out_dir)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin-dir", type=Path, required=True,
                        help="directory holding quest_gen and "
                             "quest_compile")
    parser.add_argument("--threads", type=int, default=0,
                        help="quest_compile --threads (default: its own)")
    parser.add_argument("--workdir", type=Path,
                        help="where to write circuits and outputs "
                             "(default: a temporary directory)")
    parser.add_argument("--print", action="store_true",
                        help="print this build's digests, check nothing")
    args = parser.parse_args()

    rows = load_digests(DIGESTS)

    with tempfile.TemporaryDirectory() as tmp:
        workdir = args.workdir or Path(tmp)
        workdir.mkdir(parents=True, exist_ok=True)
        failed = []
        for name, mode, want in rows:
            got = compile_one(args.bin_dir.resolve(), workdir.resolve(),
                              name, mode, args.threads)
            if args.print:
                print(name, mode, got)
            elif got != want:
                failed.append(name)
                print(f"MISMATCH {name} {mode}: want {want}, got {got}")
            else:
                print(f"ok {name} {mode}")
    if failed:
        print(f"{len(failed)} of {len(rows)} suite circuits differ from "
              f"{DIGESTS.name}: {' '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
