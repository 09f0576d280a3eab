"""Cascade four-wave-mixing photon-pair toolkit.

Predicts polarization-entangled biphoton states from angular-momentum
coupling, quantifies their entanglement, simulates and reconstructs
tomographic coincidence measurements, and models time-resolved coincidence
histograms including quantum-beat interference.

The public names below are re-exported lazily (PEP 562): ``import biphoton``
loads no submodule and no numpy, and the first access of a name imports its
module and binds the name here, so later accesses are plain attribute
lookups.
"""

import importlib

__version__ = "0.1.0"

# Re-exported names, by the submodule that defines them.
_EXPORTS = {
    "angmom": (
        "PATH_X", "PATH_Y", "CascadeLevels", "path_coupling_x",
    ),
    "entanglement": (
        "concurrence", "entanglement_of_formation", "fidelity", "purity",
    ),
    "polstate": (
        "CIRCULAR", "LINEAR", "BiphotonKet", "DensityMatrix4", "PathAmplitudes", "Projector",
        "beat_params", "change_basis", "density_change_basis", "density_from_ket",
        "ket_from_path", "named_projector", "predict_path_state",
    ),
    "timecorr": (
        "DEFAULT_DELTA", "FIGURE_PRESETS", "BeatModelParams", "CoincidenceHistogram",
        "SinglePathParams", "fit_beats", "fit_single", "g2_beats", "g2_single",
        "simulate_histogram",
    ),
    "tomography": (
        "CountsRecord", "MeasurementSetting", "TomographyResult", "reconstruct_linear",
        "reconstruct_mle", "resample_uncertainties", "simulate_counts", "standard_settings",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "csvio")

__all__ = [*_SUBMODULES, *_ORIGIN]


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
