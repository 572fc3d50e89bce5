"""Fuzz of the CLI exit-code contract: whatever the files and argument values,
``main()`` returns 0, 1 or 2 and never raises.

Mutations keep every size and count small (tokens from a fixed list,
integers below 100), so no mutated input asks for a large allocation or a
long run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pce
from pce.cli import main

TOKENS = [
    "", "0", "1", "-1", "-40", "2", "0.5", "nan", "inf", "-inf", "1e400", "abc",
    "x", "=", "#", ":", ",", "theta:", "k=", "lambda=0", "2x", "x3", "3x2", "v2",
    "pce-model", "pce-matrix", "pce-dataset", "pca", "lle-npe", "raw", "pixel",
]
CHARS = "0123456789.-+xe:,=# naif"
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

token = st.one_of(
    st.sampled_from(TOKENS),
    st.integers(-5, 99).map(str),
    st.floats(-1e3, 1e3).map(repr),
)
mutation = st.one_of(
    st.tuples(st.just("delete"), st.integers(0, 99)),
    st.tuples(st.just("duplicate"), st.integers(0, 99)),
    st.tuples(st.just("token"), st.integers(0, 99), st.integers(0, 99), token),
    st.tuples(st.just("char"), st.integers(0, 10**4), st.sampled_from(CHARS)),
    st.tuples(
        st.just("insert"), st.integers(0, 99), st.text("abcxyz=:#,.- \t", max_size=12)
    ),
)
mutations = st.lists(mutation, min_size=1, max_size=3)


def mutate(text, edits):
    """Apply line, token and character edits; indices wrap around."""
    for edit in edits:
        lines = text.split("\n")
        kind, i = edit[0], edit[1] % len(lines)
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "insert":
            lines.insert(i, edit[2])
        elif kind == "token":
            tokens = lines[i].split(" ")
            tokens[edit[2] % len(tokens)] = edit[3]
            lines[i] = " ".join(tokens)
        else:
            j = edit[1] % max(len(text), 1)
            lines = (text[:j] + edit[2] + text[j + 1 :]).split("\n")
        text = "\n".join(lines)
    return text


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    spec = pce.SubspaceSpec(ambient=6, subspaces=((2, 4), (2, 4)))
    ds = pce.generate_union_of_subspaces(spec, seed=0)
    noisy = pce.add_gaussian_noise(ds.matrix, 0.01, seed=0)
    data = root / "data.txt"
    pce.save_matrix(pce.LabeledDataset(noisy, ds.labels, ds.meta), data)
    model = root / "model.txt"
    argv = ["fit", str(data), "--lambda", "50", "--center", "--output", str(model)]
    assert main(argv) == 0
    config = (
        "synthetic=12:2x6,2x6\nmethod=pce\nlambda=10\ndim=3\nneighbors=3\n"
        "trials=2\nnoise=gaussian\nnoise_rho=0.01\nnoise_clip=-5,5\nseed=0\n"
    )
    return {
        "root": root,
        "data": data,
        "data_text": data.read_text(),
        "model_text": model.read_text(),
        "config_text": config,
    }


def run(argv):
    code = main(argv)
    assert code in (0, 1, 2)


@SETTINGS
@given(edits=mutations, command=st.sampled_from(["fit", "spectrum", "sweep"]))
def test_fuzz_data_file(files, edits, command):
    path = files["root"] / "mutated_data.txt"
    path.write_text(mutate(files["data_text"], edits))
    extra = ["--lambdas", "1,10,100"] if command == "sweep" else []
    run([command, str(path), *extra, "--output", str(files["root"] / "out")])


@SETTINGS
@given(edits=mutations)
def test_fuzz_model_file(files, edits):
    path = files["root"] / "mutated_model.txt"
    path.write_text(mutate(files["model_text"], edits))
    out = files["root"] / "z"
    run(["transform", str(path), str(files["data"]), "--output", str(out)])


@SETTINGS
@given(edits=mutations)
def test_fuzz_eval_config(files, edits):
    path = files["root"] / "mutated.cfg"
    path.write_text(mutate(files["config_text"], edits))
    run(["eval", str(path), "--output", str(files["root"] / "report.csv")])


bounded = st.one_of(st.sampled_from(TOKENS), st.floats(-20, 60).map(repr))
step = st.one_of(
    st.sampled_from(["0", "-0.0", "-1", "nan", "inf", "abc", ""]),
    st.floats(0.5, 10).map(repr),
)
lambdas = st.one_of(
    token,
    st.lists(bounded, min_size=1, max_size=4).map(",".join),
    st.tuples(bounded, bounded, step).map(":".join),
)


@SETTINGS
@given(
    lam=token,
    grid=lambdas,
    seed=st.one_of(st.none(), st.sampled_from(TOKENS), st.integers(-5, 2**70).map(str)),
)
def test_fuzz_argument_values(files, lam, grid, seed):
    data, out = str(files["data"]), str(files["root"] / "out")
    run(["fit", data, "--lambda", lam, "--output", out])
    run(["spectrum", data, "--lambda", lam, "--output", out])
    split = [] if seed is None else ["--split-seed", seed]
    run(["sweep", data, "--lambdas", grid, *split, "--output", out])

