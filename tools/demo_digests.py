"""List the sha256 of everything the CLI writes for the demo corpus.

Usage: python3 tools/demo_digests.py DIR

Runs `newsnet synth --strong --seed 7` into DIR/synth and then each of the
ten corpus commands on that corpus, with the default config, into
DIR/<command>. Every command runs in its own `python3 -m newsnet.cli`
process, importing the package from this checkout's `src`. Prints one sorted
`sha256  path` line for every file written (path relative to DIR) and for
each command's stdout (`<command>/<stdout>`), with DIR shown as `<out>` in
the stdout, so listings from two checkouts into different directories can be
compared with `diff`.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = ("ingest", "stats", "extract", "evaluate", "ablate", "sweep-threshold",
            "sample-study", "early-detect", "rank-features", "feature-stats")


def _run(out: Path, command: str, *flags) -> bytes:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "newsnet.cli", command, *flags,
                           "--out", str(out / command)],
                          env=env, capture_output=True, check=False)
    if done.returncode != 0:
        sys.exit(f"{command} exited {done.returncode}:\n{done.stderr.decode()}")
    return done.stdout.replace(str(out).encode(), b"<out>")


def main(argv) -> int:
    if len(argv) != 1:
        sys.exit("usage: python3 tools/demo_digests.py DIR")
    out = Path(argv[0]).resolve()
    stdouts = {"synth": _run(out, "synth", "--strong", "--seed", "7")}
    corpus = [f"--{name}={out / 'synth' / f'{name}.csv'}"
              for name in ("edges", "engagements", "labels")]
    for command in COMMANDS:
        stdouts[command] = _run(out, command, *corpus)
    digests = {f"{command}/<stdout>": hashlib.sha256(text).hexdigest()
               for command, text in stdouts.items()}
    for command in stdouts:
        for path in (out / command).rglob("*"):
            if path.is_file():
                digests[path.relative_to(out).as_posix()] = \
                    hashlib.sha256(path.read_bytes()).hexdigest()
    for path in sorted(digests):
        print(f"{digests[path]}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
