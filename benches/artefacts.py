"""Same-outputs check: run the CLI end to end at tiny shapes and print one
sha256 per artefact it writes, as a JSON object.

In a temporary directory, through `polyvox.cli.main`: `synth-data` (seed 13,
4 single + 4 harmony clips of 2-3 s), `train-pitch` (40 steps, d16 x 1
encoder), `train-svc` (40 steps, w32 x 1 converter), `convert` of the first
eval clip to the timbre of the first train clip (`--transpose 2 --mel-out`),
`cqt --crop --transpose 2` of the first clip of the manifest to a `.cqt`
container and to a CSV, and `evaluate`. The temporary path is replaced by
`<tmp>` in `report.json` and the three persisted configs
(`data/resolved_config.json`, `ckpt/pitch_config.json`,
`ckpt/svc_config.json`) before they are hashed; the corpus clips hash as one artefact, over their names and
bytes in name order. A change that should leave outputs alone prints the
same digests as its parent. Run from anywhere; it imports `polyvox` from the
`src` beside this directory:

    python benches/artefacts.py
    python benches/artefacts.py --against ../parent

`--against CHECKOUT` runs that checkout's own `benches/artefacts.py`, in a
subprocess on its own `src`, so each tree is driven through its own CLI, and
compares the digests by artefact name: it exits 1 and lists on stderr every
artefact whose digest differs or that only one run wrote, and otherwise
exits 0 and prints the digests.
"""

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = {
    "seed": 13,
    "synth": {"n_single": 4, "n_harmony": 4, "dur_range": [2.0, 3.0], "eval_fraction": 0.25},
    "pitch": {"model_dim": 16, "n_layers": 1, "n_heads": 4, "window_frames": 40,
              "steps": 40, "batch": 2},
    "converter": {"width": 32, "n_layers": 1, "n_heads": 4, "window_frames": 60, "steps": 40,
                  "batch": 2, "prompt_frames": 50, "nfe": 4, "gl_iters": 4},
}
# each artefact's path under the run directory; `data/clips` is a directory
ARTEFACTS = ("data/clips", "data/manifest.jsonl", "data/resolved_config.json",
             "ckpt/pitch.pvck", "ckpt/pitch_train.csv", "ckpt/pitch_config.json",
             "ckpt/svc.pvck", "ckpt/converter_train.csv", "ckpt/svc_config.json",
             "out/convert.wav", "out/convert.mel", "out/cqt.cqt", "out/cqt.csv",
             "reports/report.json", "reports/report.csv")
# artefacts that echo the run's absolute paths
_PATH_ECHOES = ("data/resolved_config.json", "ckpt/pitch_config.json", "ckpt/svc_config.json",
                "reports/report.json")


def _run(*argv: str) -> None:
    from polyvox.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"polyvox {argv[0]} exited {code}:\n{out.getvalue()}{err.getvalue()}")


def _digest(path: Path, root: Path) -> str:
    h = hashlib.sha256()
    if path.is_dir():
        for item in sorted(path.iterdir()):
            h.update(item.name.encode() + b"\0" + item.read_bytes())
    elif str(path.relative_to(root)) in _PATH_ECHOES:
        h.update(path.read_text().replace(str(root), "<tmp>").encode())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def artefact_digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp).resolve()
        config = root / "run.json"
        config.write_text(json.dumps({**CONFIG, "paths": {
            "data_dir": "data", "checkpoint_dir": "ckpt", "report_dir": "reports"}}))
        _run("synth-data", "--config", str(config))
        _run("train-pitch", "--config", str(config))
        _run("train-svc", "--config", str(config))
        rows = [json.loads(line) for line in (root / "data/manifest.jsonl").read_text().splitlines()]
        src = next(r for r in rows if r["split"] == "eval")["path"]
        ref = next(r for r in rows if r["split"] == "train")["path"]
        _run("convert", "--src", str(root / "data" / src), "--ref", str(root / "data" / ref),
             "--ckpt", str(root / "ckpt/svc.pvck"), "--out", str(root / "out/convert.wav"),
             "--transpose", "2", "--mel-out", str(root / "out/convert.mel"))
        for out in ("out/cqt.cqt", "out/cqt.csv"):
            _run("cqt", "--in", str(root / "data" / rows[0]["path"]), "--out", str(root / out),
                 "--crop", "--transpose", "2")
        _run("evaluate", "--config", str(config))
        return {name: _digest(root / name, root) for name in ARTEFACTS}


def _digests_of(checkout: Path) -> dict[str, str]:
    """The digests of `checkout`'s own copy of this script, run in a
    subprocess on its own `src`."""
    run = subprocess.run([sys.executable, str(Path(checkout) / "benches" / "artefacts.py")],
                         capture_output=True, text=True)
    if run.returncode != 0:
        raise SystemExit(f"the run on {checkout} exited {run.returncode}:\n{run.stderr}")
    return json.loads(run.stdout)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="a checkout to compare the digests with")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    digests = artefact_digests()
    if args.against is not None:
        other = _digests_of(args.against)
        differ = [name for name in sorted(digests.keys() | other.keys())
                  if digests.get(name) != other.get(name)]
        for name in differ:
            print(f"{name}: {digests.get(name)} here, {other.get(name)} at {args.against}",
                  file=sys.stderr)
        if differ:
            sys.exit(1)
    print(json.dumps(digests, indent=2))
