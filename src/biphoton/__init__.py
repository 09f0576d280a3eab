"""Cascade four-wave-mixing photon-pair toolkit.

Predicts polarization-entangled biphoton states from angular-momentum
coupling, quantifies their entanglement, simulates and reconstructs
tomographic coincidence measurements, and models time-resolved coincidence
histograms including quantum-beat interference.
"""

from .angmom import (
    PATH_X,
    PATH_Y,
    AngularMomentum,
    CascadeLevels,
    clebsch_gordan,
    path_coupling_x,
)
from .entanglement import (
    concurrence,
    entanglement_of_formation,
    eof_from_concurrence,
    fidelity,
    purity,
)
from .polstate import (
    CIRCULAR,
    LINEAR,
    BiphotonKet,
    DensityMatrix4,
    PathAmplitudes,
    Projector,
    beat_params,
    change_basis,
    density_change_basis,
    density_from_ket,
    find_beat_projectors,
    joint_projection_amplitude,
    ket_from_path,
    named_projector,
    predict_path_state,
)
from .timecorr import (
    DEFAULT_DELTA,
    FIGURE_PRESETS,
    BeatModelParams,
    CoincidenceHistogram,
    SinglePathParams,
    beat_contrast,
    convolve_jitter,
    fit_beats,
    fit_single,
    g2_beats,
    g2_single,
    simulate_histogram,
)
from .tomography import (
    CountsRecord,
    MeasurementSetting,
    TomographyResult,
    reconstruct_linear,
    reconstruct_mle,
    resample_uncertainties,
    simulate_counts,
    standard_settings,
)

__version__ = "0.1.0"
