"""Same-outputs check: run the CLI end to end at tiny shapes and print one
sha256 per artefact it writes, as a JSON object.

In a temporary directory, through `polyvox.cli.main`: `synth-data` (seed 13,
4 single + 4 harmony clips of 2-3 s), `train-pitch` (40 steps, d16 x 1
encoder), `train-svc` (40 steps, w32 x 1 converter), `convert` of the first
eval clip to the timbre of the first train clip (`--transpose 2 --mel-out`)
and `evaluate`. The temporary path is replaced by `<tmp>` in `report.json` and
both `resolved_config.json` files before they are hashed; the corpus clips
hash as one artefact, over their names and bytes in name order. A change
that should leave outputs alone prints the same digests as its parent. Run
from anywhere; it imports `polyvox` from the `src` beside this directory:

    python benches/artefacts.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from polyvox.cli import main  # noqa: E402

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
             "ckpt/pitch.pvck", "ckpt/pitch_train.csv", "ckpt/svc.pvck",
             "ckpt/converter_train.csv", "ckpt/resolved_config.json", "out/convert.wav",
             "out/convert.mel", "reports/report.json", "reports/report.csv")
# artefacts that echo the run's absolute paths
_PATH_ECHOES = ("data/resolved_config.json", "ckpt/resolved_config.json", "reports/report.json")


def _run(*argv: str) -> None:
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
        _run("synth-data", "--config", str(config), "--out", str(root / "data"))
        _run("train-pitch", "--config", str(config))
        _run("train-svc", "--config", str(config))
        rows = [json.loads(line) for line in (root / "data/manifest.jsonl").read_text().splitlines()]
        src = next(r for r in rows if r["split"] == "eval")["path"]
        ref = next(r for r in rows if r["split"] == "train")["path"]
        _run("convert", "--src", str(root / "data" / src), "--ref", str(root / "data" / ref),
             "--ckpt", str(root / "ckpt/svc.pvck"), "--out", str(root / "out/convert.wav"),
             "--transpose", "2", "--mel-out", str(root / "out/convert.mel"))
        _run("evaluate", "--config", str(config))
        return {name: _digest(root / name, root) for name in ARTEFACTS}


if __name__ == "__main__":
    print(json.dumps(artefact_digests(), indent=2))
