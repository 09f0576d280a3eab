"""Package-level checks: import cost, a scipy-free package and the demo scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _env() -> dict:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def test_import_leaves_out_scipy_optimize():
    code = "import sys, biphoton; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_tomography_runs_without_scipy():
    code = (
        "import sys, biphoton as bp\n"
        "rho = bp.density_from_ket(bp.ket_from_path(bp.predict_path_state(bp.PATH_X)))\n"
        "records = bp.simulate_counts(rho, bp.standard_settings('overcomplete36'), 1e3, 5)\n"
        "bp.reconstruct_mle(records)\n"
        "bp.resample_uncertainties(records, 3, 6)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_histogram_fits_run_without_scipy(tmp_path):
    code = (
        "import sys, biphoton as bp\n"
        "from biphoton import cli, timecorr\n"
        "for name in ('fig2x', 'fig3'):\n"
        "    p = bp.FIGURE_PRESETS[name]\n"
        "    hist = bp.simulate_histogram(p.model, p.bin_width, p.t_range, 5)\n"
        "    if name == 'fig2x':\n"
        "        bp.fit_single(hist, timecorr.estimate_single_init(hist))\n"
        "    else:\n"
        "        bp.fit_beats(hist, p.model)\n"
        "        bp.fit_beats(hist, p.model, free=('g0', 'background', 'r', 'phi', 'delta'))\n"
        "assert cli.main(['simulate-g2', '--preset', 'fig3', '--seed', '5', '--out', 'h.csv']) == 0\n"
        "assert cli.main(['fit-g2', '--hist', 'h.csv', '--preset', 'fig3', '--out', 'f.json']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
