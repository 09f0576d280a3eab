"""Fuzzing the command-line boundary: arbitrary numeric strings in the flags,
and arbitrary contents of the ket, counts and histogram files.

Every run must end one of two ways: ``main`` returns 0, with strict JSON (no
NaN or Infinity) if it writes to stdout, or it returns 1 and prints one
``error:`` line.  A string that argparse itself cannot convert
(``type=float`` or ``type=int``) is a usage error: argparse exits with status
2 and an ``error: argument --flag`` line, as for any malformed command line.
No other exception may escape ``main``.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

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
# Cascade F values: those of real hyperfine levels, and values at and beyond
# angmom.MAX_F, which is rejected before predict's cost grows steeply with F.
LEVEL = st.one_of(st.sampled_from(AWKWARD), st.integers(-1, 6).map(str),
                  st.sampled_from(["1/2", "5/2", "20", "21", "1000"]))
LEVELS = st.one_of(st.lists(LEVEL, min_size=1, max_size=5).map(",".join),
                   st.sampled_from(["2,2,3,3", "2,2,3,2", "1,1,2,2", "19,19,20,20", "1000,1000,1000,1000"]))
FUZZ = settings(max_examples=30, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

SINGLE_FLAGS = ("g0", "tau-rise", "tau-decay", "background")
BEAT_FLAGS = ("g0", "tau-x", "tau-y", "r", "phi", "delta", "background")

# Ket files: JSON of any shape, kets of wrong shapes or fields, and unit kets
# with and without a NaN or infinite component (json.dumps writes these as
# the NaN and Infinity literals).  JSON integers may lie beyond the float range.
JSON_NUMBER = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 3),
                        st.integers(-10**400, 10**400))
JSON_VALUE = st.recursive(st.one_of(st.none(), st.booleans(), JSON_NUMBER, st.text(max_size=3)),
                          lambda inner: st.one_of(st.lists(inner, max_size=5),
                                                  st.dictionaries(st.text(max_size=3), inner, max_size=3)),
                          max_leaves=10)
MALFORMED_KET = st.one_of(JSON_VALUE, st.fixed_dictionaries({
    "basis": st.sampled_from(["circular", "linear", "polar", 1]),
    "amplitudes": st.one_of(st.lists(st.lists(JSON_NUMBER, max_size=3), max_size=5), JSON_VALUE),
}))
UNIT_KET = st.lists(st.floats(-1, 1), min_size=8, max_size=8).filter(any).map(
    lambda xs: [[x / math.hypot(*xs), y / math.hypot(*xs)] for x, y in zip(xs[::2], xs[1::2])])
NON_FINITE_KET = st.tuples(UNIT_KET, st.integers(0, 7), st.sampled_from([math.nan, math.inf, -math.inf])).map(
    lambda t: [[t[2] if 2 * k + j == t[1] else x for j, x in enumerate(pair)] for k, pair in enumerate(t[0])])
KET = st.fixed_dictionaries({"basis": st.sampled_from(["circular", "linear"]),
                             "amplitudes": st.one_of(UNIT_KET, NON_FINITE_KET)})
# CSV fields: awkward numbers, and text with the separators and quotes of the format.
FIELD = st.one_of(st.sampled_from(AWKWARD), st.floats(allow_nan=True, allow_infinity=True).map(repr),
                  st.integers(-5, 10**6).map(str), st.text(alphabet='0.,"x# e-', max_size=5))
# A row of its own, or edits to some fields of the row it replaces.
ROW = st.one_of(st.lists(FIELD, max_size=12),
                st.dictionaries(st.integers(0, 10), FIELD, min_size=1, max_size=3))
# Any text in place of one field, and text past the csv module's 131,072-character field limit.
FIELD_TEXT = st.one_of(st.text(max_size=20), st.sampled_from(["x", "1", ","]).map(lambda c: c * 131_073))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A counts CSV and two histograms, made once for every example."""
    d = tmp_path_factory.mktemp("fuzz")
    for argv in (["simulate-tomo", "--path", "X", "--n", "1e3", "--seed", "1", "--out", str(d / "c.csv")],
                 ["simulate-g2", "--preset", "fig2x", "--seed", "1", "--out", str(d / "hs.csv")],
                 ["simulate-g2", "--preset", "fig3", "--seed", "1", "--out", str(d / "hb.csv")]):
        assert main(argv) == 0
    return d


def edit_row(source, target, line: int, row) -> None:
    """Copy ``source`` to ``target`` with its line ``line`` (0-based; past the
    end appends) replaced by ``row``: a list of fields, or a dict of field
    edits to the line it replaces."""
    lines = source.read_text().splitlines()
    line = min(line, len(lines))
    if isinstance(row, dict):
        fields = lines[min(line, len(lines) - 1)].split(",")
        row = [row.get(k, field) for k, field in enumerate(fields)]
    lines[line:line + 1] = [",".join(row)]
    target.write_text("\n".join(lines) + "\n")


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
@given(background=NUMBERS, resamples=COUNTS, method=st.sampled_from(["mle", "linear"]))
def test_reconstruct(capsys, inputs, background, resamples, method):
    outcome(capsys, ["reconstruct", "--counts", str(inputs / "c.csv"), "--method", method,
                     "--subtract-background", background, "--resamples", resamples, "--seed", "3"])


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


def ket_file_outcomes(capsys, counts, tmp_path, ket) -> None:
    path = tmp_path / "ket.json"
    path.write_text(json.dumps(ket))
    outcome(capsys, ["beat-params", "--ket-x", str(path), "--proj-s", "H", "--proj-i", "V"])
    outcome(capsys, ["reconstruct", "--counts", str(counts), "--target", str(path)])
    outcome(capsys, ["simulate-tomo", "--ket", str(path), "--n", "100", "--out", str(tmp_path / "c.csv")])


@FUZZ
@given(ket=MALFORMED_KET)
@example(ket={"basis": "circular", "amplitudes": [[10**400, 0], [0, 0], [0, 0], [0, 0]]})
def test_malformed_ket_file(capsys, inputs, tmp_path, ket):
    ket_file_outcomes(capsys, inputs / "c.csv", tmp_path, ket)


@FUZZ
@given(ket=KET)
def test_ket_file_amplitudes(capsys, inputs, tmp_path, ket):
    ket_file_outcomes(capsys, inputs / "c.csv", tmp_path, ket)


@FUZZ
@given(line=st.integers(0, 45), row=ROW, method=st.sampled_from(["mle", "linear"]))
def test_counts_rows(capsys, inputs, tmp_path, line, row, method):
    edit_row(inputs / "c.csv", tmp_path / "c.csv", line, row)
    outcome(capsys, ["reconstruct", "--counts", str(tmp_path / "c.csv"), "--method", method])


@FUZZ
@given(line=st.integers(0, 85), row=ROW, model=st.sampled_from(["--preset=fig2x", "--model=single"]))
def test_histogram_rows(capsys, inputs, tmp_path, line, row, model):
    edit_row(inputs / "hs.csv", tmp_path / "h.csv", line, row)
    outcome(capsys, ["fit-g2", "--hist", str(tmp_path / "h.csv"), model])


@FUZZ
@pytest.mark.parametrize("source, columns, command", [
    ("c.csv", 11, ["reconstruct", "--counts"]),
    ("hs.csv", 2, ["fit-g2", "--preset=fig2x", "--hist"]),
], ids=["counts", "histogram"])
@given(line=st.integers(0, 85), column=st.integers(0, 10), text=FIELD_TEXT)
@example(line=4, column=0, text="1" * 200_000)
def test_field_text(capsys, inputs, tmp_path, source, columns, command, line, column, text):
    edit_row(inputs / source, tmp_path / source, line, {column % columns: text})
    outcome(capsys, command + [str(tmp_path / source)])
