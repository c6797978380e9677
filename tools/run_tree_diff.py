"""Build the tiny-config run tree, or compare two of them.

A refactor that keeps the semantics must leave every artifact of a run
byte-identical except the wall-clock fields. This script builds the tree
that check compares and lists the files that still differ.

    PYTHONPATH=src python tools/run_tree_diff.py build OUT_DIR [--jobs N]
    python tools/run_tree_diff.py compare OUT_DIR_A OUT_DIR_B

``build`` runs gen-data, train, immunize, evaluate, ablate and report on the
tiny test config (``tests/conftest.py::tiny_experiment``) at seed 5 with the
methods none, random-noise, sa-style and danp and ``edit_prompts=both``;
ablate also immunizes wo-daa and wo-nba. ``--jobs N`` runs the stages on N
worker processes; ``jobs`` is not hashed, so the tree must compare equal to
the serial one. It runs whichever ``imukit`` is on the import path, so
``PYTHONPATH=<other checkout>/src`` builds the tree of another commit. It
prints the config hash.

``compare`` walks both directories and prints each file that is missing on
one side or differs once the timing, location and worker-count fields are
dropped: the ``wall_time_s``, ``time_per_iter_s``, ``out_dir`` and ``jobs``
keys of JSON files, the ``time_per_iter_s`` column of CSV files and the
time/iter column of the summary's bin-sweep table. It exits 1 when any file
differs, and 2, naming the directory, when either is missing or holds no
files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

DROPPED = ("wall_time_s", "time_per_iter_s", "out_dir", "jobs")


def build(out_dir, jobs=1):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    from conftest import tiny_experiment
    from imukit.harness import pipeline
    from imukit.harness.config import config_hash

    cfg = tiny_experiment(out_dir, seed=5, edit_prompts="both",
                          methods=["none", "random-noise", "sa-style", "danp"])
    cfg.jobs = jobs
    for stage in (pipeline.cmd_gen_data, pipeline.cmd_train, pipeline.cmd_immunize,
                  pipeline.cmd_evaluate, pipeline.cmd_ablate, pipeline.cmd_report):
        stage(cfg)
    print(config_hash(cfg))


def _drop_keys(obj):
    if isinstance(obj, dict):
        return {k: _drop_keys(v) for k, v in obj.items() if k not in DROPPED}
    if isinstance(obj, list):
        return [_drop_keys(v) for v in obj]
    return obj


def _drop_bin_sweep_times(text):
    out, in_sweep = [], False
    for line in text.split("\n"):
        if line.startswith("BIN SWEEP"):
            in_sweep = True
        elif not line:
            in_sweep = False
        out.append(line.rsplit(" ", 1)[0] if in_sweep else line)
    return "\n".join(out)


def canonical(path):
    """The file's content with the timing, location and worker-count fields
    left out."""
    raw = path.read_bytes()
    if path.suffix == ".json":
        return json.dumps(_drop_keys(json.loads(raw)), sort_keys=True)
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
        keep = [i for i, name in enumerate(rows[0]) if name not in DROPPED]
        return [[row[i] for i in keep] for row in rows]
    if path.suffix == ".txt":
        return _drop_bin_sweep_times(raw.decode("utf-8"))
    return raw


def compare(a, b):
    a, b = Path(a), Path(b)
    trees = {}
    for root in (a, b):
        if not root.is_dir():
            print(f"no such directory: {root}", file=sys.stderr)
            return 2
        trees[root] = {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
        if not trees[root]:
            print(f"no files under {root}", file=sys.stderr)
            return 2
    files = trees[a] | trees[b]
    identical = differ = 0
    for rel in sorted(files):
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file()):
            print(f"only in {a if pa.is_file() else b}: {rel}")
            differ += 1
        elif pa.read_bytes() == pb.read_bytes():
            identical += 1
        elif canonical(pa) != canonical(pb):
            print(f"differs: {rel}")
            differ += 1
    print(f"{len(files)} files: {identical} byte-identical, "
          f"{len(files) - identical - differ} equal without {', '.join(DROPPED)}, "
          f"{differ} differ")
    return 1 if differ else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_build = sub.add_parser("build", help="build the tiny-config run tree")
    p_build.add_argument("out_dir")
    p_build.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_compare = sub.add_parser("compare", help="compare two run trees")
    p_compare.add_argument("a")
    p_compare.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "build":
        build(args.out_dir, args.jobs)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
