"""Golden CLI outputs: every bundled config x command x format, byte for byte.

``tests/golden/`` holds the stdout of :func:`passquant.cli.main` for the 6
bundled configurations and the 7 commands, in ``--format json`` (``*.json``)
and ``--format text`` (``*.txt``).  The output directory of ``simulate`` and
the trajectory read by ``audit`` appear in the reports as ``<out>``.
``index.json`` records the exit codes and the sha256 of every CSV that
``simulate`` writes.

Refresh only when a change of output is intended, and say so in the change
log::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from passquant import cli, sim
from passquant.cli import main
from passquant.config import bundled_config_path, load_config

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = ("example1", "example2", "example5", "loop_a", "loop_b", "loop_c")
# simulate precedes audit: audit reads the trajectory simulate wrote
COMMANDS = ("degrade", "compose", "sd", "bound", "abstract-check", "simulate", "audit")
FORMATS = {"json": "json", "text": "txt"}
OUT = "<out>"
# sha256 of the example5 disturbance-injected trajectory CSV, which no
# bundled config runs; recorded before the closed-loop layer was rewritten
DISTURBANCE_SHA256 = "04f6ef9a1d979e392cb0b68dedaadcb429571eb2534afbd2359196ed69b4b5a3"


def run_config(config, fmt, out_dir):
    """Stdout and exit code per command, plus the CSV hashes of simulate."""
    outputs = {}
    for command in COMMANDS:
        argv = [command, "--config", bundled_config_path(config), "--format", fmt]
        if command == "simulate":
            argv += ["--out", str(out_dir)]
        elif command == "audit":
            argv += ["--trajectory", str(out_dir / "trajectory.csv")]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        outputs[command] = (code, buf.getvalue().replace(str(out_dir), OUT))
    hashes = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.glob("*.csv"))
    }
    return outputs, hashes


def golden_path(config, command, fmt):
    return GOLDEN / f"{config}.{command}.{FORMATS[fmt]}"


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("config", CONFIGS)
def test_cli_output_matches_golden(config, fmt, tmp_path):
    index = json.loads((GOLDEN / "index.json").read_text())
    outputs, hashes = run_config(config, fmt, tmp_path)
    for command, (code, stdout) in outputs.items():
        assert stdout == golden_path(config, command, fmt).read_text(), command
        assert code == index["exit_codes"][f"{config}.{command}"], command
    assert hashes == index["csv_sha256"][config]


def test_disturbance_injected_run_matches_golden(tmp_path):
    # the radius lip*eps + 2 sqrt(m) mu2 comes from cli._loop_config
    cfg = load_config(bundled_config_path("example5"))
    cfg.mode = "disturbance-injected"
    path = tmp_path / "trajectory.csv"
    sim.simulate(cli._loop_config(cfg)).to_csv(path, storage=cli._loop_storage(cfg))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DISTURBANCE_SHA256


def refresh(tmp_root):
    GOLDEN.mkdir(exist_ok=True)
    index = {"exit_codes": {}, "csv_sha256": {}}
    for config in CONFIGS:
        for fmt in FORMATS:
            out_dir = tmp_root / f"{config}-{fmt}"
            out_dir.mkdir()
            outputs, hashes = run_config(config, fmt, out_dir)
            for command, (code, stdout) in outputs.items():
                golden_path(config, command, fmt).write_text(stdout)
                index["exit_codes"][f"{config}.{command}"] = code
            if index["csv_sha256"].setdefault(config, hashes) != hashes:
                raise RuntimeError(f"{config}: simulate wrote different CSVs per format")
    (GOLDEN / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        refresh(Path(tmp))
    sys.exit(0)
