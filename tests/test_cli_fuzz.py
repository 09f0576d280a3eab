"""Fuzzing the command-line boundary: arbitrary numeric strings in the flags.

Every run must end one of two ways: ``main`` returns 0, with strict JSON (no
NaN or Infinity) if it writes to stdout, or it returns 1 and prints one
``error:`` line.  A string that argparse itself cannot convert
(``type=float`` or ``type=int``) is a usage error: argparse exits with status
2 and an ``error: argument --flag`` line, as for any malformed command line.
No other exception may escape ``main``.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from biphoton.cli import main

# Strings a float or fraction parser can trip on, and plain numbers around them.
AWKWARD = ["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1/0", "0/0", "", " ", "0", "-0",
           "-1", "1e-320", "1e300", "2.5", "3/2", "abc", "1,2"]
NUMBERS = st.one_of(
    st.sampled_from(AWKWARD),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10, 10).map(str),
)
COUNTS = st.one_of(st.sampled_from(AWKWARD), st.integers(-3, 4).map(str))
# Cascade F values: predict's cost grows steeply with F (about 80 s at
# F = 1000), so the numeric part stays at the sizes of real hyperfine levels.
LEVEL = st.one_of(st.sampled_from(AWKWARD), st.integers(-1, 6).map(str), st.sampled_from(["1/2", "5/2"]))
LEVELS = st.one_of(st.lists(LEVEL, min_size=1, max_size=5).map(",".join),
                   st.sampled_from(["2,2,3,3", "2,2,3,2", "1,1,2,2"]))
FUZZ = settings(max_examples=30, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

SINGLE_FLAGS = ("g0", "tau-rise", "tau-decay", "background")
BEAT_FLAGS = ("g0", "tau-x", "tau-y", "r", "phi", "delta", "background")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A counts CSV and two histograms, made once for every example."""
    d = tmp_path_factory.mktemp("fuzz")
    for argv in (["simulate-tomo", "--path", "X", "--n", "1e3", "--seed", "1", "--out", str(d / "c.csv")],
                 ["simulate-g2", "--preset", "fig2x", "--seed", "1", "--out", str(d / "hs.csv")],
                 ["simulate-g2", "--preset", "fig3", "--seed", "1", "--out", str(d / "hb.csv")]):
        assert main(argv) == 0
    return d


def outcome(capsys, argv) -> None:
    try:
        code = main(argv)
    except SystemExit as exc:
        err = capsys.readouterr().err
        assert exc.code == 2 and "error: argument --" in err, (argv, err)
        return
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "", (argv, err)
        if out:
            json.loads(out, parse_constant=lambda name: pytest.fail(f"{argv}: {name} in the JSON output"))
    else:
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (argv, code, err)


@FUZZ
@given(levels=LEVELS)
def test_levels(capsys, levels):
    outcome(capsys, ["predict", "--levels", levels])


@FUZZ
@given(n=NUMBERS)
def test_simulate_tomo_n(capsys, tmp_path, n):
    outcome(capsys, ["simulate-tomo", "--path", "Y", "--n", n, "--seed", "2",
                     "--out", str(tmp_path / "c.csv")])


@FUZZ
@given(r=NUMBERS, phi=NUMBERS)
def test_beat_params_r_phi(capsys, r, phi):
    outcome(capsys, ["beat-params", "--r", r, "--phi", phi])


@FUZZ
@given(background=NUMBERS, resamples=COUNTS, method=st.sampled_from(["mle", "linear"]))
def test_reconstruct(capsys, inputs, background, resamples, method):
    outcome(capsys, ["reconstruct", "--counts", str(inputs / "c.csv"), "--method", method,
                     "--subtract-background", background, "--resamples", resamples, "--seed", "3"])


@FUZZ
@given(resamples=COUNTS)
def test_resample(capsys, inputs, resamples):
    outcome(capsys, ["resample", "--counts", str(inputs / "c.csv"), "--resamples", resamples])


@FUZZ
@given(flags=st.dictionaries(st.sampled_from(BEAT_FLAGS), NUMBERS, min_size=1, max_size=3),
       preset=st.sampled_from(["fig3", "fig2x"]))
def test_simulate_g2_model_flags(capsys, tmp_path, flags, preset):
    argv = ["simulate-g2", "--preset", preset, "--seed", "4", "--out", str(tmp_path / "h.csv")]
    outcome(capsys, argv + [arg for name, value in flags.items() for arg in ("--" + name, value)])


@FUZZ
@given(flags=st.dictionaries(st.sampled_from(SINGLE_FLAGS), NUMBERS, min_size=1, max_size=3))
def test_fit_single_model_flags(capsys, inputs, flags):
    argv = ["fit-g2", "--hist", str(inputs / "hs.csv"), "--model", "single", "--g0", "500"]
    outcome(capsys, argv + [arg for name, value in flags.items() for arg in ("--" + name, value)])


@FUZZ
@given(flags=st.dictionaries(st.sampled_from(BEAT_FLAGS), NUMBERS, min_size=1, max_size=3))
def test_fit_beats_model_flags(capsys, inputs, flags):
    base = {"tau-x": "5.6", "tau-y": "13.1", "r": "1", "phi": "0"} | flags
    argv = ["fit-g2", "--hist", str(inputs / "hb.csv"), "--model", "beats"]
    outcome(capsys, argv + [arg for name, value in base.items() for arg in ("--" + name, value)])
