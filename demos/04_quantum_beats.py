"""
Quantum beats of the two interfering decay paths
================================================

With both decay paths open, their 266 MHz frequency difference modulates
the coincidence rate.  The beat amplitude and phase follow from the
polarization projections of the two predicted path states.
"""

import math

import biphoton as bp
from biphoton import timecorr as tc

# Beat parameters from the two predicted states and a projector pair.
ket_x = bp.ket_from_path(bp.predict_path_state(bp.PATH_X))
ket_y = bp.ket_from_path(bp.predict_path_state(bp.PATH_Y))
proj_s = bp.named_projector("L")
proj_i = bp.Projector.normalized(0.7 + 0.57j, 0.41j)
r, phi = bp.beat_params(ket_x, ket_y, proj_s, proj_i)
print(f"projected beat parameters: R = {r:.4f}, phi = {phi:.4f} rad")

# The damped regime of Fig. 4a suppresses the second path almost entirely.
damped = tc.FIGURE_PRESETS["fig4a"].model
print(f"damped regime (fig4a): R = {damped.r:.4f}, phi = {damped.phi:.4f} rad")

# The interference term oscillates with the 3.76 ns beat period and decays
# with the combined coherence time of the two paths.
preset = tc.FIGURE_PRESETS["fig3"]
model = preset.model
period = 2 * math.pi / model.delta
print(f"\nbeat period 2 pi / delta = {period:.3f} ns")
for k in range(4):
    dt = k * period / 2
    print(f"g2({dt:5.2f} ns) = {tc.g2_beats(dt, model):7.1f}")

# Simulate the high-contrast preset and recover the amplitude scale with
# everything else held at its known value.
hist = tc.simulate_histogram(model, preset.bin_width, preset.t_range, seed=11)
fit = tc.fit_beats(hist, model)
print(f"\nfitted amplitude scale g0 = {fit.params.g0:.2f} "
      f"(simulated with {model.g0})")

# Unlocking the beat frequency turns the fit into a period measurement.
fit_delta = tc.fit_beats(hist, model, free=("g0", "background", "delta"))
print(f"measured beat period = {2 * math.pi / fit_delta.params.delta:.3f} ns")

# The three published polarization regimes: damped beats, and two
# high-contrast settings in antiphase.  The zero-delay modulation depth of
# the interference term is 2R / (1 + R^2).
print("\nzero-delay modulation depth of each regime:")
for name in ("fig4a", "fig4b", "fig4c"):
    m = tc.FIGURE_PRESETS[name].model
    print(f"  {name}: R = {m.r:6.3f}, phi = {m.phi:.2f}, "
          f"contrast = {2 * m.r / (1 + m.r**2):.3f}")

# Gaussian detector jitter of width sigma scales the beat modulation by
# exp(-delta^2 sigma^2 / 2): a 1 ns jitter at 266 MHz keeps only a quarter.
for sigma in (0.04, 1.0):
    attenuation = math.exp(-model.delta**2 * sigma**2 / 2)
    print(f"jitter {sigma:4.2f} ns: expected contrast attenuation {attenuation:.3f}")
