"""`cli.main` on random argv and random run configs: every run ends in a documented exit code.

Each example picks a subcommand (or a stray word) and gives each of its
flags a good value, except for up to two flags, which are left out or get a
numeric edge value, stray text, a damaged copy of a good artifact, a missing
path or a directory. The run must return or exit with a code in 0-5, print at most one
``error:`` line and raise nothing. The integer edge values are either tiny or
past int64, where numpy refuses any array they size at once; sizes in
between would really be allocated. The largest, 400 digits, is also past
float range, so any float arithmetic on it must end in a defined error.
Damage is a cut or one to three flipped bytes, so a damaged config holds at
most one-digit changes to its small values and every run stays short.

A second strategy runs ``train`` on good artifacts with a drawn ``--config``
file: the good config with one to four lines put in at drawn places, each a
``key=value`` over the run-config keys (or a misspelt one) with a drawn value,
a comment, a blank line or a line without ``=``. Later lines win, so a drawn
line overrides the good one. ``epochs`` and ``depth`` size loops, not arrays,
so they draw no value past int64.
"""

import contextlib
import io
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ivit.checkpoint import save_checkpoint
from ivit.cli import main
from ivit.config import ModelConfig, run_config_defaults
from ivit.model import InstructionModel

FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

INTS = ("-9223372036854775809", "-1", "0", "1", "2", "3", str(2**64), "1" + "0" * 30, "1" + "0" * 400)
FLOATS = ("nan", "inf", "-inf", "-0.0", "0", "1e30", "1e300", "1e308", "5e-324", "1e999")
TEXT = ("", "x", "--", "0x10", "1e3", "1_0", "٣", "é")

# flag -> what its value is: a path kind, a number kind, or its valid choices followed by one that is rejected
COMMANDS = {
    "gen-data": {"--out": "out", "--classes": "int", "--train": "int", "--val": "int", "--size": "int",
                 "--channels": "int", "--seed": "int", "--noise-std": "float"},
    "build-bank": {"--data": "data", "--modality": ("text", "image", "mixed", "audio"), "--dim": "int",
                   "--seed": "int", "--out": "out"},
    "train": {"--data": "data", "--bank": "bank", "--config": "config", "--out": "out",
              "--regime": ("full", "prompt_tuning", "none")},
    "eval": {"--data": "data", "--bank": "bank", "--checkpoint": "checkpoint", "--select-k": "int",
             "--split": ("train", "val", "test")},
    "gradcheck": {"--seed": "int"},
}
# a good value for each number flag, so that most runs get past argument checks
GOOD = {"--classes": "2", "--train": "3", "--val": "2", "--size": "4", "--channels": "1", "--seed": "1",
        "--noise-std": "0.5", "--dim": "8", "--select-k": "1"}

# every run-config key, a misspelt one, and a value of each kind any key takes
CONFIG_KEYS = tuple(run_config_defaults()) + ("learnign_rate",)
CONFIG_VALUES = FLOATS + TEXT + ("0.5", "true", "No", "full", "prompt_tuning", " 2 ")
LOOP_KEYS = ("epochs", "depth")

CONFIG = ("image_size=4\npatch_size=2\nchannels=1\ndim=8\ndepth=1\nheads=2\nmlp_ratio=2.0\n"
          "epochs=1\nbatch_size=2\nwarmup_epochs=0\n")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A dataset, text bank, untrained checkpoint and run config that fit one another."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    paths = {kind: str(root / kind) for kind in ("data", "bank", "checkpoint", "config")}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--out", paths["data"], "--classes", "2", "--train", "4", "--val", "2",
                     "--size", "4", "--channels", "1"]) == 0
        assert main(["build-bank", "--data", paths["data"], "--modality", "text", "--dim", "8",
                     "--out", paths["bank"]]) == 0
    model = InstructionModel(ModelConfig(image_size=4, patch_size=2, channels=1, dim=8, depth=1, heads=2,
                                         mlp_ratio=2.0, prompt_dim=8, n_classes=2))
    save_checkpoint(paths["checkpoint"], model)
    with open(paths["config"], "w", encoding="utf-8") as f:
        f.write(CONFIG)
    return paths


def damage(data, path) -> None:
    """Cut the file at a drawn length, or XOR one to three drawn bytes with non-zero masks."""
    with open(path, "rb") as f:
        blob = bytearray(f.read())
    if data.draw(st.booleans(), label="cut"):
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="flips")):
            blob[data.draw(st.integers(0, len(blob) - 1), label="at")] ^= data.draw(st.integers(1, 255), label="mask")
    with open(path, "wb") as f:
        f.write(blob)


def draw_path(data, kind: str, artifacts: dict, work: str, good: bool) -> str:
    if kind == "out":  # never a fixture's path: build-bank would replace that file
        where = "new" if good else data.draw(st.sampled_from(("directory", "file", "under a missing directory")))
        if where == "file":
            shutil.copyfile(artifacts["config"], os.path.join(work, "file"))
        return {"new": os.path.join(work, "out"), "directory": work, "file": os.path.join(work, "file"),
                "under a missing directory": os.path.join(work, "missing", "out")}[where]
    if good:
        return artifacts[kind]
    where = data.draw(st.sampled_from(("damaged", "damaged", "missing", "directory", "another artifact")))
    if where == "missing":
        return os.path.join(work, "missing")
    if where == "directory":
        return work
    if where == "another artifact":
        return artifacts[data.draw(st.sampled_from(sorted(set(artifacts) - {kind})))]
    target = os.path.join(work, kind)
    if kind == "data":
        shutil.copytree(artifacts["data"], target)
        damage(data, os.path.join(target, data.draw(st.sampled_from(sorted(os.listdir(target))))))
    else:
        shutil.copyfile(artifacts[kind], target)
        damage(data, target)
    return target


def draw_argv(data, artifacts: dict, work: str) -> list[str]:
    command = data.draw(st.sampled_from(sorted(COMMANDS) + ["fit", "--help", ""]))
    argv = [command] if command else []
    flags = COMMANDS.get(command, {})
    # at most two flags go wrong, so that a run often gets as far as the checks on them
    wrong = data.draw(st.sets(st.sampled_from(sorted(flags) or [""]), max_size=2), label="wrong flags")
    for flag, kind in flags.items():
        good = flag not in wrong
        if not good and data.draw(st.integers(0, 4), label=f"{flag} left out") == 0:
            continue
        if isinstance(kind, tuple):
            value = kind[0] if good else data.draw(st.sampled_from(kind))
        elif kind in ("int", "float"):
            edges = INTS if kind == "int" else FLOATS
            value = GOOD[flag] if good else data.draw(st.sampled_from(edges + TEXT))
        else:
            value = draw_path(data, kind, artifacts, work, good)
        argv += [flag, value]
    if data.draw(st.integers(0, 9), label="extra flag") == 0:
        argv += data.draw(st.sampled_from((["--bogus"], ["--seed"], ["--help"], ["-x", "1"])))
    return argv


def run_main(argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse: 2 for a bad argument, 0 after --help
            code = e.code
    return code, out.getvalue(), err.getvalue()


@FUZZ
@given(data=st.data())
def test_random_argv_ends_in_a_documented_exit_code(artifacts, data):
    with tempfile.TemporaryDirectory() as work:
        argv = draw_argv(data, artifacts, work)
        code, out, err = run_main(argv)
    assert code in range(6), (argv, code, err)
    assert sum("error:" in line for line in err.splitlines()) <= 1, (argv, err)
    assert "Traceback" not in out + err, (argv, err)


@pytest.mark.parametrize("flags,message", [
    (["--classes", str(2**64)], f"n_classes {2**64} exceeds n_train 3: every class needs a training image"),
    (["--classes", "1" + "0" * 30], f"n_classes {10**30} exceeds n_train 3: every class needs a training image"),
    (["--noise-std", "1e300"], "noise_std 1e+300 overflows float32 pixels"),
    (["--size", "1", "--channels", "1", "--classes", "1", "--noise-std", "0"],
     "the train pixels are all equal, so they cannot be normalized"),
])
def test_gen_data_rejects_what_it_could_not_load_back(tmp_path, flags, message):
    """Found by the fuzz above: a class count past the train split once ran out of memory
    (or overflowed int64), and pixels that overflow float32 or never vary were written to
    a meta.txt that ``load`` then refused."""
    out = tmp_path / "d"
    args = {"--classes": "2", "--train": "3", "--val": "2", "--size": "4", "--channels": "3"}
    args.update(dict(zip(flags[::2], flags[1::2])))
    code, _, err = run_main(["gen-data", "--out", str(out), *[x for kv in args.items() for x in kv]])
    assert (code, err) == (2, f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("error,message", [
    (MemoryError("Unable to allocate 16.0 GiB for an array with shape (2147483648,) and data type int64"),
     "Unable to allocate 16.0 GiB for an array with shape (2147483648,) and data type int64"),
    (MemoryError(), "out of memory"),
])
def test_a_size_too_large_to_allocate_is_an_argument_error(tmp_path, monkeypatch, error, message):
    """A count between the fuzz's small and past-int64 values, such as ``--train 2147483648``, makes
    numpy raise ``MemoryError`` on a host without 16 GiB to give; it once ended in a traceback (exit 1)."""
    def generate(*args, **kwargs):
        raise error

    monkeypatch.setattr("ivit.dataset.generate_synthetic", generate)
    code, _, err = run_main(["gen-data", "--out", str(tmp_path / "d"), "--classes", "2", "--train", "2147483648",
                             "--val", "2"])
    assert (code, err) == (2, f"error: {message}\n")


def draw_config(data, path: str) -> None:
    """Write the good ``CONFIG`` to ``path`` with one to four drawn lines put in at drawn places."""
    lines = CONFIG.splitlines()
    for _ in range(data.draw(st.integers(1, 4), label="drawn lines")):
        kind = data.draw(st.sampled_from(("key=value", "key=value", "comment", "blank", "no =")), label="kind")
        key = data.draw(st.sampled_from(CONFIG_KEYS), label="key")
        ints = INTS[:6] if key in LOOP_KEYS else INTS  # the last three are past int64
        values = ints + CONFIG_VALUES
        line = {"key=value": f"{key}={data.draw(st.sampled_from(values), label='value')}",
                "comment": f"# {key}=", "blank": "  ", "no =": key}[kind]
        lines.insert(data.draw(st.integers(0, len(lines)), label="at"), line)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


@FUZZ
@given(data=st.data())
def test_random_config_file_ends_in_a_documented_exit_code(artifacts, data):
    with tempfile.TemporaryDirectory() as work:
        config = os.path.join(work, "run.cfg")
        draw_config(data, config)
        argv = ["train", "--data", artifacts["data"], "--bank", artifacts["bank"], "--config", config,
                "--out", os.path.join(work, "out")]
        code, out, err = run_main(argv)
        with open(config, encoding="utf-8") as f:
            text = f.read()
    assert code in range(6), (text, code, err)
    assert sum("error:" in line for line in err.splitlines()) <= 1, (text, err)
    assert "Traceback" not in out + err, (text, err)
