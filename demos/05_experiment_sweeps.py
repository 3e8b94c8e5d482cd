"""Drive a full experiment sweep through the config machinery.

Loads the conditional-outage preset, shrinks the Monte Carlo budget so the
demo stays quick, runs all configured methods and prints the emitted CSVs.
The same thing is available from the shell:

    nomacell sweep fig1 --trials 4000 --out results --deterministic
"""
import tempfile
from dataclasses import replace

from nomacell.cli import load_config, preset_path, run, validate

print("validation suite")
validate(trials=4000)

with tempfile.TemporaryDirectory(prefix="nomacell_") as out_dir:
    cfg = load_config(preset_path("fig1"), label="fig1")
    cfg = replace(cfg, trials=4000, out=out_dir)
    print(f"\nrunning the {cfg.label} sweep into {out_dir}")
    paths = run(cfg, deterministic=True)

    print("\nfirst rows of each table:")
    for path in paths:
        lines = path.read_text().splitlines()
        print(f"  {path.name}: {lines[1]}")
