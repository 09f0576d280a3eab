"""Package-level checks: import cost, what each subcommand loads, a scipy-free
package and the demo scripts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from biphoton.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _env() -> dict:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


# The names `biphoton` re-exports from its submodules.
EXPORTED = {
    "angmom": ["PATH_X", "PATH_Y", "CascadeLevels", "path_coupling_x"],
    "entanglement": ["concurrence", "entanglement_of_formation", "fidelity", "purity"],
    "polstate": ["CIRCULAR", "LINEAR", "BiphotonKet", "DensityMatrix4", "PathAmplitudes", "Projector",
                 "beat_params", "change_basis", "density_change_basis", "density_from_ket",
                 "ket_from_path", "named_projector", "predict_path_state"],
    "timecorr": ["DEFAULT_DELTA", "FIGURE_PRESETS", "BeatModelParams", "CoincidenceHistogram",
                 "SinglePathParams", "fit_beats", "fit_single", "g2_beats", "g2_single",
                 "simulate_histogram"],
    "tomography": ["CountsRecord", "MeasurementSetting", "TomographyResult", "reconstruct_linear",
                   "reconstruct_mle", "resample_uncertainties", "simulate_counts", "standard_settings"],
}


def _loaded_after(code: str, cwd=None) -> list[str]:
    """The numpy and biphoton modules a fresh interpreter holds after running `code`."""
    code += "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'biphoton'))))"
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], cwd=cwd, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_leaves_out_numpy():
    assert _loaded_after("import biphoton") == ["biphoton"]


def test_every_exported_name_resolves():
    code = (
        "import types, biphoton as bp\n"
        "assert isinstance(bp.tomography, types.ModuleType)\n"
        f"for module, names in {EXPORTED!r}.items():\n"
        "    for name in names:\n"
        "        assert getattr(bp, name) is getattr(getattr(bp, module), name), name\n"
        "        assert name in dir(bp) and name in bp.__all__, name\n"
        "namespace = {}\n"
        "exec('from biphoton import *', namespace)\n"
        "assert set(bp.__all__) <= set(namespace)\n"
    )
    loaded = _loaded_after(code)
    assert {f"biphoton.{module}" for module in EXPORTED} <= set(loaded)


# An unknown name, then names the package no longer exports.
@pytest.mark.parametrize("name", ["no_such_name", "find_beat_projectors", "joint_projection_amplitude",
                                  "eof_from_concurrence"])
def test_unknown_name_is_an_attribute_error(name):
    import biphoton

    assert name not in dir(biphoton) and name not in biphoton.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(biphoton, name)


@pytest.mark.parametrize("module, name", [
    ("polstate", "min_eigenvalue"), ("tomography", "UnphysicalStateError"), ("tomography", "SpanError"),
    ("tomography", "DegenerateCountsError"), ("polstate", "DegenerateStateError"),
    ("polstate", "ProjectionDegeneracyError"), ("timecorr", "FitDegenerateError"),
    ("polstate", "matrices_change_basis"),
])
def test_removed_module_name_is_an_attribute_error(module, name):
    import importlib

    mod = importlib.import_module(f"biphoton.{module}")
    assert name not in mod.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(mod, name)


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A directory with the input files of every subcommand."""
    d = tmp_path_factory.mktemp("cli")
    for argv in (["predict", "--path", "X", "--out", "x.json"],
                 ["simulate-tomo", "--path", "X", "--n", "1e3", "--seed", "1", "--out", "c.csv"],
                 ["simulate-g2", "--preset", "fig3", "--seed", "1", "--out", "h.csv"],
                 ["simulate-g2", "--preset", "fig2x", "--seed", "1", "--out", "hs.csv"]):
        out = argv.index("--out") + 1
        assert main(argv[:out] + [str(d / argv[out])]) == 0
    return d


G2_ONLY = ("biphoton.tomography", "biphoton.polstate", "biphoton.angmom", "biphoton.entanglement")
NO_G2 = ("biphoton.timecorr",)


@pytest.mark.parametrize("argv, absent", [
    (["predict", "--path", "X", "--out", "x.json"], NO_G2 + ("biphoton.tomography",)),
    (["beat-params", "--proj-s", "L", "--proj-i", "H", "--out", "b.json"], NO_G2 + ("biphoton.tomography",)),
    (["simulate-tomo", "--ket", "x.json", "--n", "1e3", "--seed", "1", "--out", "c.csv"], NO_G2),
    (["reconstruct", "--counts", "c.csv", "--resamples", "2", "--target-path", "X", "--out", "r.json"], NO_G2),
    (["simulate-g2", "--preset", "fig3", "--seed", "1", "--out", "h.csv"], G2_ONLY),
    (["fit-g2", "--hist", "h.csv", "--preset", "fig3", "--out", "f.json"], G2_ONLY),
    # the estimated start takes its percentile without np.percentile, which imports numpy.ma
    (["fit-g2", "--hist", "hs.csv", "--model", "single", "--out", "f.json"], G2_ONLY + ("numpy.ma",)),
], ids=["predict", "beat-params", "simulate-tomo", "reconstruct", "simulate-g2", "fit-g2", "fit-g2-single"])
def test_subcommand_loads_only_its_modules(cli_inputs, argv, absent):
    loaded = _loaded_after(f"from biphoton.cli import main\nassert main({argv!r}) == 0", cwd=cli_inputs)
    assert "biphoton.cli" in loaded
    assert not set(absent) & set(loaded), sorted(set(absent) & set(loaded))


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
