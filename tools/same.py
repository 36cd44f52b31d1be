"""Same numbers: run a base git ref and the working tree through the same
CLI invocations, and compare every artifact bit for bit.

    python3 tools/same.py [--base REF] [--expect-change PATH]
    python3 tools/same.py --self-test

The base is checked out into a temporary git worktree. Each side runs in its
own process, in a fresh directory, with one BLAS thread and bqrnet imported
from that side's src/; both sides run the script in this file.

Every CLI invocation of STEPS runs in-process through ``bqrnet.cli.main``;
its exit code, stdout and stderr are recorded, with the side's paths replaced
by ``<src>`` and ``<work>``. STEPS opens with four larger ``train`` fits
(FITS), each writing its checkpoint and every per-epoch record. Later steps
write numeric CSVs of thousands of rows, and reports whose dataset name csv
must quote.

Then every artifact is compared: exit codes, output streams and every file
the steps wrote. A difference names its artifact and where it starts:
the first differing byte of a file or stream, the column of a CSV whose
header and shape agree, or the largest absolute difference of an .npz array.
The exit code is 1 when a difference is not matched by a pattern (fnmatch,
one per line, ``#`` starts a comment) of the ``--expect-change`` file, and 0
otherwise. Nothing is compared against stored hashes: numbers are only
compared between two runs on the same host.

``--self-test`` runs two clean worktrees of HEAD, which must report every
artifact identical, then edits ``apply_step`` in one of them to step by
``eta * (1 + 2**-52)``, which must be reported. Every worktree it makes is
removed when it exits. Worktrees and outputs go in the system temporary
directory (``TMPDIR``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import fnmatch
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOBS = ROOT / "data" / "smoke_blobs.csv"
SIDE_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "COLUMNS": "80", "PYTHONHASHSEED": "0"}


# -- git worktrees ----------------------------------------------------------

def _git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          capture_output=True).stdout.strip()


@contextlib.contextmanager
def worktree(ref: str):
    """A detached checkout of ``ref`` in a new temporary directory, removed
    on exit together with git's record of it."""
    tmp = Path(tempfile.mkdtemp(prefix="bqrnet-worktree-"))
    path = tmp / "tree"
    _git("worktree", "add", "--detach", "--quiet", str(path), ref)
    try:
        yield path
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        _git("worktree", "prune")


# -- what each side runs ----------------------------------------------------

# name -> train arguments; each runs with --n 1500 --seed 0 --out fit-<name>
FITS = {
    "d1-64x64-lalr": "--id D1 --trunk 64,64 --epochs 30 --lr lalr",
    "d1-256x256-fixed": "--id D1 --trunk 256,256 --epochs 5 --lr 0.05",
    "blobs-6x5-lalr": "--data smoke_blobs.csv --label-column label "
                      "--trunk 6,5 --epochs 40 --lr lalr",
    "d1-median-only-lalr": "--id D1 --trunk 64,64 --grid 0.5 --epochs 20 "
                           "--lr lalr",
}

ODD = 'odd,"name".csv'

# text inputs written into each side's directory before the steps run
INPUTS = {
    "bad.yaml": "a: [1\n",
    "bad_flow.yaml": "dataset_id: [D1\nn: 200\n",
    "both_sources.yaml": "dataset_id: D1\n",
    "key_flag_spelling.yaml": "batch-size: 7\ndataset_id: D1\nn: 100\nepochs: 1\n",
    "key_flag_name.yaml": "id: D1\n",
    "key_misspelt.yaml": "bandwith: 0.3\n",
    "key_config.yaml": "config: other.yaml\ndataset_id: D1\nn: 10\n",
    "not_mapping.yaml": "- 1\n- 2\n",
    # values that only train_summary.json reads, and a key lalr-bench lacks
    "nan_label_column.yaml": "label_column: .nan\n",
    "date_latent_column.yaml": "latent_column: 2024-01-01\n",
    "loss_bce.yaml": "loss: bce\n",
    "accepted_types.yaml": "dataset_id: D1\nn: 100\nepochs: 2\nlam: 1\n"
                           "lr: 0.05\nthreshold: 0.1\ntrunk: 4\n"
                           "grid: 0.25,0.5,0.75\nloss: bqr\n",
    **{f"wrong_type_{key}_{i}.yaml": "".join(
        f"{k}: {v}\n" for k, v in {"dataset_id": "D1", "n": 100, "epochs": 1,
                                   "trunk": "[4]", key: value}.items())
       for i, (key, value) in enumerate([
           ("epochs", "null"), ("epochs", "2.7"), ("epochs", "true"),
           ("trunk", "[4, null]"), ("n", "[100]"), ("seed", '"3"'),
           ("threshold", "true")])},
    "no_label.csv": "x,y\n0,1\n",
    "ragged.csv": "x,label\n0,1\n2\n",
    "non_numeric.csv": "x,label\nfoo,1\n",
    "non_finite.csv": "x0,label\n0.1,0\nnan,1\n0.5,1\n",
    "non_binary.csv": "x,label\n0,0.7\n",
    # the second label column would be read as a feature
    "repeated_label.csv": "label,x,label\n" + "".join(
        f"{i % 2},{i / 20:.2f},{i % 2}\n" for i in range(20)),
    "bom.csv": "\ufefflabel,x\n" + "".join(
        f"{i % 2},{(i % 2) - 0.5 + i / 100:.2f}\n" for i in range(40)),
    "corrupt.npz": "PK\x03\x04" + "\0" * 60,
    # a name that csv must quote in the reports' dataset column
    ODD: "x0,latent,label\n" + "".join(
        f"{x:.3f},{x * x - 0.3:.3f},{int(x * x > 0.3)}\n"
        for x in (i / 40 - 1 for i in range(81))),
}

D3_FIT = "--id D3 --n 600 --seed 5 --trunk 16,16 --epochs 60 --batch-size 64"
D1_CSV = "--data d1.csv --label-column label --latent-column latent"
D3_CSV = "--data d3.csv --label-column label --latent-column latent"
BLOBS_CSV = "--data smoke_blobs.csv --label-column label"
ODD_CSV = f"--data {shlex.quote(ODD)} --label-column label --latent-column latent"
CKPT = "--checkpoint train-id/checkpoint.npz"
BCE = "--checkpoint train-bce/checkpoint.npz"


def _rewrite(src: str, dst: str, fill=None, **meta):
    """Copy checkpoint ``src`` to ``dst`` with meta keys replaced; a
    ``params`` key gives a zero params vector of that length, and ``fill``
    sets every parameter to that value."""
    import numpy as np
    with np.load(src) as ckpt:
        arrays = dict(ckpt)
    if "params" in meta:
        arrays["params"] = np.zeros(meta.pop("params"))
    if fill is not None:
        arrays["params"] = np.full_like(arrays["params"], fill)
    meta = {**json.loads(arrays["meta"].tobytes()), **meta}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(dst, **arrays)


# (name, argv) runs ``bqrnet argv``; (callable, *args) prepares an input.
# Successes come first, so that the failures can use what they wrote.
STEPS = [
    *((f"fit-{name}", f"train {args} --n 1500 --seed 0 --out fit-{name}")
      for name, args in FITS.items()),
    ("help", "--help"),
    *((f"help-{cmd}", f"{cmd} --help") for cmd in (
        "simulate", "train", "evaluate", "noise-sweep", "lalr-bench", "smooth")),
    ("simulate-d1", "simulate --id D1 --n 300 --seed 7 --out d1.csv"),
    ("simulate-d3", "simulate --id D3 --n 300 --seed 6 --out d3.csv"),
    ("simulate-p80", "simulate --id D1 --n 500 --seed 1 --threshold p80 "
                     "--out d1_p80.csv"),
    ("train-id", f"train {D3_FIT} --lr lalr --out train-id"),
    ("train-csv", f"train {D1_CSV} --seed 7 --trunk 8,8 --epochs 5 "
                  "--batch-size 64 --out train-csv"),
    ("train-bce", "train --id D1 --n 300 --seed 3 --loss bce --grid 0.5 "
                  "--trunk 8 --epochs 5 --out train-bce"),
    ("train-fixed", "train --id D2 --n 300 --seed 2 --trunk 8 --epochs 5 "
                    "--lr 0.05 --grid 0.25,0.5,0.75 --lam 0.5 --out train-fixed"),
    ("train-config", "train --config accepted_types.yaml --out train-config"),
    ("train-blobs", f"train {BLOBS_CSV} --trunk 8,8 --epochs 200 "
                    "--batch-size 32 --out train-blobs"),
    ("train-bom", "train --data bom.csv --label-column label --trunk 4 "
                  "--epochs 3 --out train-bom"),
    ("evaluate-id", f"evaluate --id D3 --n 300 --seed 6 {CKPT} --out eval-id"),
    ("evaluate-csv", f"evaluate {D3_CSV} {CKPT} --out eval-csv"),
    ("evaluate-d1-20000", "evaluate --id D1 --n 20000 --seed 11 "
                          "--checkpoint train-csv/checkpoint.npz --out eval-big"),
    ("evaluate-bce-id", f"evaluate --id D1 --n 200 --seed 4 {BCE} "
                        "--out eval-bce-id"),
    ("evaluate-bce-csv", f"evaluate {D1_CSV} {BCE} --out eval-bce-csv"),
    ("evaluate-no-latent", f"evaluate {BLOBS_CSV} "
                           "--checkpoint train-blobs/checkpoint.npz "
                           "--out eval-blobs"),
    ("evaluate-single-class", f"evaluate --id D3 --n 50 --seed 1 "
                              f"--threshold 100 {CKPT} --out eval-one-class"),
    ("noise-sweep-id", "noise-sweep --id D3 --n 400 --seed 4 --trunk 8 "
                       "--epochs 20 --batch-size 64 --fractions 0,0.2 "
                       "--out sweep-id"),
    ("noise-sweep-csv", f"noise-sweep {BLOBS_CSV} --trunk 4 --epochs 3 "
                        "--batch-size 64 --fractions 0,0.2 --out sweep-csv"),
    ("lalr-bench-id", "lalr-bench --id D1 --n 300 --seed 2 --trunk 8 "
                      "--epochs 30 --target-acc 0.9 --out bench-id"),
    ("lalr-bench-csv", f"lalr-bench {BLOBS_CSV} --grid 0.5 --lam 0 --trunk 8 "
                       "--epochs 300 --batch-size 64 --seed 6 "
                       "--target-acc 0.99 --out bench-csv"),
    ("lalr-bench-config-loss-bce", "lalr-bench --config loss_bce.yaml --id D1 "
                                   "--n 300 --seed 2 --trunk 8 --epochs 30 "
                                   "--target-acc 0.9 --out bench-loss-bce"),
    ("smooth-id", f"smooth --id D3 --n 40 --seed 9 {CKPT} --out smooth-id"),
    ("smooth-csv", f"smooth {D3_CSV} {CKPT} --bandwidth 0.05 --pi-level 0.2 "
                   "--out smooth-csv"),
    ("smooth-bce", f"smooth --id D1 --n 40 --seed 9 {BCE} --out smooth-bce"),
    ("smooth-bandwidth-1e300", f"smooth --id D3 --n 20 --seed 9 {CKPT} "
                               "--bandwidth 1e300 --out smooth-1e300"),
    ("smooth-bandwidth-1.5e308", f"smooth --id D3 --n 20 --seed 9 {CKPT} "
                                 "--bandwidth 1.5e308 --out bad"),
    # CSV writing at size: the joined numeric rows and the csv-quoted text
    ("simulate-d1-10000", "simulate --id D1 --n 10000 --seed 3 "
                          "--out d1_10000.csv"),
    ("smooth-d1-2000", "smooth --id D1 --n 2000 --seed 11 "
                       "--checkpoint train-csv/checkpoint.npz --out smooth-big"),
    ("evaluate-quoted-name", f"evaluate {ODD_CSV} {CKPT} --out eval-odd"),
    ("noise-sweep-quoted-name", f"noise-sweep {ODD_CSV} --trunk 4 --epochs 3 "
                                "--batch-size 16 --fractions 0,0.2 "
                                "--out sweep-odd"),
    ("diverge", "train --id D1 --n 100 --seed 0 --epochs 5 --batch-size 16 "
                "--lr 1e200 --out diverge"),
    # bad input, each an exit 2
    ("simulate-unknown-id", "simulate --id D9 --n 10 --seed 0 --out x.csv"),
    ("train-no-dataset", "train --epochs 1"),
    ("train-config-id-flag-data", f"train --config both_sources.yaml "
                                  f"{BLOBS_CSV} --trunk 4 --epochs 1 --out bad"),
    ("train-id-and-data", "train --id D1 --data d1.csv --label-column label "
                          "--trunk 4 --epochs 1 --out bad"),
    *((f"train-grid-no-median-{e}", f"train --id D1 --n 100 --grid 0.1,0.9 "
                                    f"--epochs {e} --out bad") for e in (0, 1)),
    ("train-malformed-yaml", "train --config bad.yaml --out bad"),
    ("train-malformed-flow", "train --config bad_flow.yaml --epochs 1 --out bad"),
    ("train-config-not-mapping", "train --config not_mapping.yaml --out bad"),
    ("train-config-missing", "train --config absent.yaml --out bad"),
    *((f"train-{flag}-{value}", f"train --id D1 --n 100 --epochs 1 --{flag} "
                                f"{value} --out bad")
      for flag in ("lr", "lam", "threshold") for value in ("nan", "inf")),
    ("train-bad-lr", "train --id D1 --n 100 --epochs 1 --lr fast --out bad"),
    ("train-lr-fixed", "train --id D1 --n 100 --epochs 1 --lr fixed "
                       "--out train-lr-fixed"),
    ("train-negative-seed", "train --id D1 --n 100 --epochs 1 --seed -1 "
                            "--out train-negative-seed"),
    ("train-trunk-empty", "train --id D1 --n 100 --epochs 1 --trunk '' --out bad"),
    ("train-trunk-4x", "train --id D1 --n 100 --epochs 1 --trunk 4,x --out bad"),
    ("train-grid-x", "train --id D1 --n 100 --epochs 1 --grid 0.5,x --out bad"),
    ("train-zero-width", "train --id D1 --n 100 --epochs 1 --trunk 4,0 --out bad"),
    ("train-batch-size-0", "train --id D1 --n 100 --epochs 1 --batch-size 0 "
                           "--out bad"),
    *((f"{cmd}-single-class", f"{cmd} --id D1 --n 200 --threshold 100 "
                              "--trunk 4 --epochs 2 --out bad")
      for cmd in ("train", "noise-sweep", "lalr-bench")),
    *((f"train-csv-{name}", f"train --data {name}.csv --label-column label "
                            "--trunk 4 --epochs 1 --out bad")
      for name in ("no_label", "ragged", "non_numeric", "non_finite",
                   "non_binary", "absent")),
    ("evaluate-missing-checkpoint", "evaluate --id D1 --n 20 --seed 1 "
                                    "--checkpoint absent.npz --out bad"),
    (_rewrite, "train-id/checkpoint.npz", "v1.npz", {"version": "bqrnet-ckpt-1"}),
    (_rewrite, "train-id/checkpoint.npz", "float_width.npz",
     {"trunk_widths": [16.0, 16.0]}),
    (_rewrite, "train-id/checkpoint.npz", "str_dim.npz", {"input_dim": "1"}),
    (_rewrite, "train-id/checkpoint.npz", "wrong_length.npz", {"params": 5}),
    *((f"evaluate-checkpoint-{name}", f"evaluate --id D3 --n 20 --seed 1 "
                                      f"--checkpoint {name}.npz --out bad")
      for name in ("v1", "float_width", "str_dim", "wrong_length", "corrupt")),
    # parameters that are not finite, or outputs that overflow: each command
    # gets its own --out, so that whatever one writes is its own artifact
    (_rewrite, "train-id/checkpoint.npz", "nan_params.npz", {"fill": float("nan")}),
    (_rewrite, "train-id/checkpoint.npz", "overflow.npz", {"fill": 1e200}),
    (_rewrite, "train-id/checkpoint.npz", "huge.npz", {"fill": 1e100}),
    *((f"{cmd}-checkpoint-{name}", f"{cmd} --id D3 --n 20 --seed 1 "
                                   f"--checkpoint {name}.npz --out {cmd}-{name}")
      for cmd in ("evaluate", "smooth")
      for name in ("nan_params", "overflow", "huge")),
    *((f"train-config-{name}", f"train --config {name}.yaml --id D1 --n 100 "
                               f"--epochs 1 --trunk 4 --out train-{name}")
      for name in ("nan_label_column", "date_latent_column")),
    ("train-csv-repeated-label", "train --data repeated_label.csv "
                                 "--label-column label --trunk 4 --epochs 1 "
                                 "--out train-repeated-label"),
    ("noise-sweep-fraction", "noise-sweep --id D3 --n 100 --seed 4 "
                             "--fractions 0.7 --out bad"),
    *((f"lalr-bench-target-{t}", f"lalr-bench {BLOBS_CSV} --trunk 4 --epochs 3 "
                                 f"--target-acc {t} --out bad")
      for t in ("nan", "5")),
    ("smooth-pi-level", f"smooth --id D3 --n 20 --seed 9 {CKPT} "
                        "--pi-level 1.5 --out bad"),
    ("smooth-bce-pi-level", f"smooth --id D1 --n 40 --seed 9 {BCE} "
                            "--pi-level 0.5 --out bad"),
    ("smooth-bandwidth-inf", f"smooth --id D3 --n 20 --seed 9 {CKPT} "
                             "--bandwidth inf --out bad"),
    ("smooth-bandwidth-0", f"smooth --id D3 --n 20 --seed 9 {CKPT} "
                           "--bandwidth 0 --out bad"),
    *((f"{cmd}-unused{flag}", f"{cmd} {flag} 8")
      for cmd in ("evaluate", "smooth")
      for flag in ("--trunk", "--grid", "--lam", "--epochs", "--batch-size")),
    ("noise-sweep-unused--loss", "noise-sweep --loss bce"),
    ("lalr-bench-unused--lr", "lalr-bench --lr 0.1"),
    *((f"config-key-{name}", f"{cmd} --config key_{name}.yaml --out bad")
      for cmd, name in (("train", "flag_spelling"), ("simulate", "flag_name"),
                        ("smooth", "misspelt"), ("simulate", "config"))),
    *((f"config-{name[:-5].replace('_', '-')}", f"train --config {name} --out bad")
      for name in INPUTS if name.startswith("wrong_type_")),
]


def _normalize(text: str, src: Path, work: Path) -> str:
    return text.replace(str(src), "<src>").replace(str(work), "<work>")


def _invoke(main, argv):
    """(exit code, stdout, stderr) of ``bqrnet argv`` run in this process,
    as the console script would: an uncaught exception exits 1, and the
    warning filters are those of a fresh process, whose registry of warnings
    already shown starts empty."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        # any change to the filters resets that registry
        warnings.filterwarnings("default", category=RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback from the console script
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code or 0, out.getvalue(), err.getvalue()


def run_side(src: Path, work: Path) -> None:
    """Run STEPS with bqrnet from ``src``, writing into ``work``."""
    import bqrnet
    from bqrnet import cli
    if Path(bqrnet.__file__).resolve().parent != (src / "bqrnet").resolve():
        sys.exit(f"bqrnet imported from {bqrnet.__file__}, not {src}")
    os.chdir(work)
    shutil.copy(BLOBS, work / "smoke_blobs.csv")
    for name, text in INPUTS.items():
        (work / name).write_bytes(text.encode())
    record = []
    for name, *args in STEPS:
        if callable(name):
            name(*args[:2], **args[2])
            continue
        code, out, err = _invoke(cli.main, shlex.split(args[0]))
        record.append({"name": name, "argv": args[0], "exit": code,
                       "stdout": _normalize(out, src, work),
                       "stderr": _normalize(err, src, work)})
    (work / "steps.json").write_text(json.dumps(record, indent=1) + "\n")


def run_sides(sides: dict, scratch: Path) -> dict:
    """Run ``run_side`` for each {label: src dir} in parallel processes;
    returns {label: work dir}."""
    procs, works = {}, {}
    for label, src in sides.items():
        works[label] = scratch / label
        works[label].mkdir(parents=True)
        env = {**os.environ, **SIDE_ENV, "PYTHONPATH": str(src)}
        procs[label] = subprocess.Popen(
            [sys.executable, __file__, "--side", str(src), str(works[label])],
            env=env, cwd=works[label], stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
    for label, proc in procs.items():
        log = proc.communicate()[0]
        if proc.returncode:
            sys.exit(f"the {label} side failed ({proc.returncode}):\n{log}")
    return works


# -- comparing ---------------------------------------------------------------

def _first_byte(a: bytes, b: bytes) -> str:
    i = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y),
             min(len(a), len(b)))
    line = a[:i].count(b"\n") + 1
    return (f"first differing byte {i} (line {line}): "
            f"{a[i:i + 24]!r} vs {b[i:i + 24]!r}")


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _csv_diffs(key, a: bytes, b: bytes):
    """Per-column differences of two CSV files of one header and shape, or
    None when they do not share one."""
    ra, rb = (list(csv.reader(io.StringIO(x.decode("utf-8", "replace"))))
              for x in (a, b))
    if not ra or ra[0] != rb[0] or [len(r) for r in ra] != [len(r) for r in rb]:
        return None
    diffs = {}
    for j, column in enumerate(ra[0]):
        rows = [i for i in range(1, len(ra)) if ra[i][j] != rb[i][j]]
        if not rows:
            continue
        pairs = [(_float(ra[i][j]), _float(rb[i][j])) for i in rows]
        worst = (f", max |diff| {max(abs(x - y) for x, y in pairs):.3g}"
                 if all(None not in p for p in pairs) else "")
        i = rows[0]
        diffs[f"{key}:{column}"] = (f"{len(rows)} rows differ, first data "
                                    f"row {i}: "
                                    f"{ra[i][j]!r} vs {rb[i][j]!r}{worst}")
    return diffs


def _npz_diffs(key, pa: Path, pb: Path):
    import numpy as np
    diffs = {}
    with np.load(pa) as za, np.load(pb) as zb:
        for name in sorted(set(za.files) | set(zb.files)):
            if name not in za.files or name not in zb.files:
                diffs[f"{key}:{name}"] = "array on one side only"
                continue
            x, y = za[name], zb[name]
            if x.shape != y.shape or x.dtype != y.dtype:
                diffs[f"{key}:{name}"] = (f"{x.dtype}{list(x.shape)} vs "
                                          f"{y.dtype}{list(y.shape)}")
            elif x.tobytes() != y.tobytes():
                if x.dtype.kind == "f":
                    d = np.abs(x - y)
                    at = np.unravel_index(np.nanargmax(d), d.shape)
                    detail = (f"max |diff| {np.nanmax(d):.3g} at index "
                              f"{[int(i) for i in at]}"
                              if np.isfinite(d).any() else "non-finite values")
                else:
                    detail = _first_byte(x.tobytes(), y.tobytes())
                diffs[f"{key}:{name}"] = detail
    return diffs


def _file_diffs(key, pa: Path, pb: Path):
    a, b = pa.read_bytes(), pb.read_bytes()
    if a == b:
        return {}
    if key.endswith(".npz") and a[:2] == b[:2] == b"PK":
        return _npz_diffs(key, pa, pb)
    if key.endswith(".csv"):
        diffs = _csv_diffs(key, a, b)
        if diffs is not None:
            return diffs
    return {key: _first_byte(a, b)}


def compare(base: Path, change: Path):
    """({artifact: difference}, number of artifacts compared) of two side
    directories."""
    diffs, count = {}, 0
    steps = [{s["name"]: s for s in json.loads((w / "steps.json").read_text())}
             for w in (base, change)]
    for name in dict.fromkeys([*steps[0], *steps[1]]):
        a, b = (s.get(name) for s in steps)
        if a is None or b is None:
            diffs[name] = "step on one side only"
            continue
        for part in ("exit", "stdout", "stderr"):
            count += 1
            if a[part] != b[part]:
                diffs[f"{name}:{part}"] = (
                    f"{a[part]} vs {b[part]}" if part == "exit" else
                    _first_byte(a[part].encode(), b[part].encode()))
    files = [{str(p.relative_to(w)) for p in w.rglob("*")
              if p.is_file() and p.name != "steps.json"} for w in (base, change)]
    for key in sorted(files[0] | files[1]):
        count += 1
        if key not in files[0] or key not in files[1]:
            diffs[key] = f"written by the {'change' if key in files[1] else 'base'} only"
        else:
            diffs.update(_file_diffs(key, base / key, change / key))
    return diffs, count


def _patterns(path):
    if path is None:
        return []
    lines = (line.split("#", 1)[0].strip()
             for line in Path(path).read_text().splitlines())
    return [line for line in lines if line]


def report(diffs: dict, count: int, patterns) -> bool:
    """Print every difference; True when each is expected."""
    unexpected = 0
    for key, detail in diffs.items():
        expected = any(fnmatch.fnmatchcase(key, p) for p in patterns)
        unexpected += not expected
        print(f"{'expected' if expected else 'DIFFERS '}  {key}: {detail}")
    print(f"{count} artifacts compared: {len(diffs)} differ, "
          f"{unexpected} of them unexpected")
    return unexpected == 0


# -- entry points ------------------------------------------------------------

def _compare_to(base_ref: str, patterns) -> bool:
    sha = _git("rev-parse", "--short", base_ref)
    with worktree(base_ref) as base, tempfile.TemporaryDirectory() as tmp:
        print(f"base {base_ref} ({sha}) vs the working tree {ROOT}")
        works = run_sides({"base": base / "src", "change": ROOT / "src"},
                          Path(tmp))
        return report(*compare(works["base"], works["change"]), patterns)


def self_test() -> bool:
    with worktree("HEAD") as base, worktree("HEAD") as change, \
            tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        works = run_sides({"base": base / "src", "head": change / "src"}, tmp)
        print("self-test 1: HEAD against HEAD")
        same = report(*compare(works["base"], works["head"]), [])
        network = change / "src" / "bqrnet" / "network.py"
        text = network.read_text()
        step = "net.params -= eta * grad"
        if text.count(step) != 1:
            sys.exit(f"self-test: {step!r} is not in apply_step once")
        network.write_text(text.replace(step, "net.params -= eta * (1 + 2**-52) * grad"))
        edited = run_sides({"edited": change / "src"}, tmp)["edited"]
        print("self-test 2: HEAD against eta * (1 + 2**-52) in apply_step")
        diffs, count = compare(works["base"], edited)
        report(diffs, count, [])
        caught = all(f"fit-{fit}/checkpoint.npz:params" in diffs for fit in FITS)
    print(f"self-test: identical run {'passed' if same else 'FAILED'}; "
          f"1-ulp edit {'caught' if caught else 'MISSED'} in every fit")
    return same and caught


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="git ref to compare the working tree against")
    parser.add_argument("--expect-change", metavar="PATH",
                        help="file of fnmatch patterns of expected differences")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--side", nargs=2, metavar=("SRC", "WORK"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        run_side(*map(Path, args.side))
        return 0
    start = time.perf_counter()
    ok = (self_test() if args.self_test else
          _compare_to(args.base, _patterns(args.expect_change)))
    print(f"{time.perf_counter() - start:.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
