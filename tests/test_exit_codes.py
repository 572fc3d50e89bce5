"""Fuzz of the CLI exit-code contract: whatever the files and argument values,
``main()`` returns 0, 1 or 2 and never raises.  Input errors must exit 1:
a file that is not UTF-8, a negative seed and a repeated key are checked for
that.

Mutations keep every size and count small (tokens from a fixed list,
integers below 100), so no mutated input asks for a large allocation or a
long run.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pce
from pce.cli import main

TOKENS = [
    "", "0", "1", "-1", "-40", "2", "0.5", "nan", "inf", "-inf", "1e400", "abc",
    "x", "=", "#", ":", ",", "theta:", "k=", "lambda=0", "2x", "x3", "3x2", "v2",
    "pce-model", "pce-matrix", "pce-dataset", "pca", "lle-npe", "raw", "pixel",
    "1.7e308",
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
byte_edits = st.lists(
    st.tuples(st.integers(0, 10**4), st.binary(min_size=1, max_size=2)),
    min_size=1,
    max_size=3,
)


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


def key_lines(text, kind):
    """Indices of the lines a reader takes as key=value: every '# meta'
    comment, and of the lines that are neither blank nor comments every one
    in a config and, in a model, those between the header and 'theta:'."""
    found, content, above_theta = [], 0, True
    for i, line in enumerate(text.split("\n")):
        stripped = line.strip()
        if stripped.startswith("# meta "):
            found.append(i)
        elif stripped and not stripped.startswith("#"):
            above_theta = above_theta and stripped != "theta:"
            if kind == "config" or (kind == "model" and content and above_theta):
                found.append(i)
            content += 1
    return found


def repeat_key(text, kind, pick):
    """``text`` with one key given twice: a key line repeated, or in a data
    file possibly a field of its header (the first line holding content)."""
    lines = text.split("\n")
    choices = [("line", i) for i in key_lines(text, kind)]
    if kind == "data":
        header = next((i for i, line in enumerate(lines)
                       if line.strip() and not line.strip().startswith("#")), None)
        if header is not None:
            tokens = lines[header].split()
            choices += [("field", header, j) for j, t in enumerate(tokens) if "=" in t]
    assume(choices)
    choice = choices[pick % len(choices)]
    if choice[0] == "line":
        lines.insert(choice[1], lines[choice[1]])
    else:
        tokens = lines[choice[1]].split()
        tokens.insert(choice[2], tokens[choice[2]])
        lines[choice[1]] = " ".join(tokens)
    return "\n".join(lines)


def mutate_bytes(data, edits):
    """Overwrite bytes at wrapped positions, which may leave invalid UTF-8."""
    for j, chunk in edits:
        j %= max(len(data), 1)
        data = data[:j] + chunk + data[j + len(chunk) :]
    return data


def is_utf8(data):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def is_negative_int(text):
    try:
        return int(text) < 0
    except (TypeError, ValueError):
        return False


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
    return code


@SETTINGS
# two finite entries of one column whose norm, sigma_1, overflows
@example(edits=[("token", 4, 0, "1.7e308"), ("token", 5, 0, "1.7e308")], command="fit")
# two of one row, whose mean must be taken without overflow
@example(edits=[("token", 4, 0, "1.7e308"), ("token", 4, 1, "1.7e308")],
         command="fit --center")
@given(edits=mutations,
       command=st.sampled_from(["fit", "fit --center", "spectrum", "sweep"]))
def test_fuzz_data_file(files, edits, command):
    path = files["root"] / "mutated_data.txt"
    path.write_text(mutate(files["data_text"], edits))
    extra = ["--lambdas", "1,10,100"] if command == "sweep" else []
    run([*command.split(), str(path), *extra, "--output", str(files["root"] / "out")])


@SETTINGS
@given(edits=mutations)
def test_fuzz_model_file(files, edits):
    path = files["root"] / "mutated_model.txt"
    path.write_text(mutate(files["model_text"], edits))
    out = files["root"] / "z"
    run(["transform", str(path), str(files["data"]), "--output", str(out)])


@SETTINGS
# gaussian noise that overflows, with its clip and without
@example(edits=[("token", 7, 0, "noise_rho=1.7e308")])
@example(edits=[("token", 7, 0, "noise_rho=1.7e308"), ("delete", 8)])
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
@example(lam="1", grid="0:inf:inf", seed=None)  # a NaN span, which the draws miss
@given(
    lam=token,
    grid=lambdas,
    seed=st.one_of(
        st.none(),
        st.sampled_from(TOKENS),
        st.integers(-5, 5).map(str),
        st.integers(-5, 2**70).map(str),
    ),
)
def test_fuzz_argument_values(files, lam, grid, seed):
    data, out = str(files["data"]), str(files["root"] / "out")
    run(["fit", data, "--lambda", lam, "--output", out])
    run(["spectrum", data, "--lambda", lam, "--output", out])
    split = [] if seed is None else ["--split-seed", seed]
    code = run(["sweep", data, "--lambdas", grid, *split, "--output", out])
    if is_negative_int(seed):
        assert code == 1
        bench = ["bench", "--sizes", "4x6", "--repeats", "1", "--seed", seed]
        assert run([*bench, "--output", out]) == 1


@SETTINGS
@given(seed=st.one_of(st.sampled_from(TOKENS), st.integers(-5, 5).map(str)))
def test_fuzz_config_seed(files, seed):
    path = files["root"] / "seeded.cfg"
    path.write_text(files["config_text"].replace("seed=0", f"seed={seed}"))
    code = run(["eval", str(path), "--output", str(files["root"] / "report.csv")])
    if is_negative_int(seed):
        assert code == 1


@SETTINGS
@given(edits=mutations, pick=st.integers(0, 99),
       kind=st.sampled_from(["config", "model", "data"]))
def test_fuzz_repeated_key_is_input_error(files, edits, pick, kind):
    root = files["root"]
    path = root / "repeated.txt"
    path.write_text(repeat_key(mutate(files[f"{kind}_text"], edits), kind, pick))
    argv = {
        "config": ["eval", str(path)],
        "model": ["transform", str(path), str(files["data"])],
        "data": ["fit", str(path)],
    }[kind]
    assert run([*argv, "--output", str(root / "out")]) == 1


# target -> (file the bytes come from, argv); "eval-data" reaches the mutated
# data file through the data= line of an eval config
BYTE_TARGETS = {
    "fit": ("data_text", ["fit", "{path}"]),
    "transform": ("model_text", ["transform", "{path}", "{data}"]),
    "eval": ("config_text", ["eval", "{path}"]),
    "eval-data": ("data_text", ["eval", "{config}"]),
}


@SETTINGS
@given(edits=byte_edits, target=st.sampled_from(sorted(BYTE_TARGETS)))
def test_fuzz_bytes(files, edits, target):
    root = files["root"]
    source, argv = BYTE_TARGETS[target]
    data = mutate_bytes(files[source].encode(), edits)
    path = root / "mutated.bin"
    path.write_bytes(data)
    config = root / "data.cfg"
    config.write_text(f"data={path}\nmethod=pce\nlambda=50\ntrials=2\n")
    argv = [a.format(path=path, data=files["data"], config=config) for a in argv]
    code = run([*argv, "--output", str(root / "out")])
    if not is_utf8(data):
        assert code == 1
