"""Record the reference values the benchmark checks outputs against.

reference.json holds values computed by the program at the commit where the
benchmark was defined: the ladder's breaking times and lattice entropies
(exact counting, independent of the seed), the Egorov defects, and the
criterion-12 CLI outputs.  Re-recording on a changed program would make the
benchmark accept whatever that program prints, so the script refuses to
overwrite an existing file.

    python3 bench/record_reference.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import torusdyn  # noqa: E402
from workloads import (  # noqa: E402
    C12_EGOROV, C12_ENTROPY, EGOROV_SIZES, LADDER, egorov_sweep, read_csv, run_cli,
)


def ladder(config: dict) -> dict:
    r = torusdyn.compare_entropy_production(
        torusdyn.cat_map(), torusdyn.partition_quadrants(), n_max=config["n_max"],
        sizes=config["sizes"], samples=1000, seed=0,
    )
    return {"breaking": list(r.breaking), "s_cs": r.s_cs.tolist()}


def egorov(sizes) -> dict:
    return {str(size): egorov_sweep(size)[1] for size in sizes}


def criterion12(workdir: Path) -> dict:
    csv_path, manifest = workdir / "c12.csv", workdir / "c12.json"
    code, _, err = run_cli([*C12_ENTROPY, "--output", str(csv_path), "--manifest", str(manifest)])
    assert code == 0, err
    entropy_rows = [[float(r["S_cs"]), float(r["S_ks"])] for r in read_csv(csv_path.read_text())]
    csv_path.unlink()
    manifest.unlink()
    code, out, err = run_cli(C12_EGOROV)
    assert code == 0, err
    return {"entropy": entropy_rows, "egorov": [float(r["defect"]) for r in read_csv(out)]}


def main() -> int:
    target = HERE / "reference.json"
    if target.exists():
        print(f"{target} exists; delete it first to re-record", file=sys.stderr)
        return 1
    reference = {
        "ladder": {scale: ladder(c) for scale, c in LADDER.items()},
        "egorov": {scale: egorov(s) for scale, s in EGOROV_SIZES.items()},
        "criterion12": criterion12(HERE),
    }
    target.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
