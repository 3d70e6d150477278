"""Start-up cost: ``import mfl`` loads no layer, the CLI parser loads no
layer, each CLI command loads only the layers it runs, and the package's
lazy exports resolve as the eager imports did."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import mfl

SRC = pathlib.Path(mfl.__file__).parents[1]

#: Every name ``mfl`` exports, by defining module.
EXPORTS = {
    "matchfield": ("display_key", "verify_coherence", "weight_key", "weight_matrix"),
    "permcomb": ("bruhat_leq", "dominated", "permutation_at", "restriction",
                 "set_bits", "vanishing_keys", "zero_family"),
    "quadideal": ("CapabilityError", "ClassificationOutcome", "QuadraticRelation",
                  "classify_oracle", "quadratic_relations", "verdict_masks"),
    "tableaux": ("check_tableau", "enumerate_ssyt2", "min_defining_chain2",
                 "ssyt_to_matching_field", "verify_bijection"),
    "theoremsets": ("ClassificationRecord", "classify_combinatorial", "count_table",
                    "cross_validate", "family_masks"),
}

#: The names ``mfl`` exported until the per-permutation references moved to
#: ``tests/per_w_reference.py`` and the global degree-two space to
#: ``tests/initial_ideal_oracle.py``, by the module that defined them.
MOVED = {
    "matchfield": ("variable_image_key",),
    "permcomb": ("avoids", "has_descending_property", "in_zero_family",
                 "insert_max", "remove_max"),
    "quadideal": ("DegreeTwoSpace", "degree2_flag_ideal"),
    "tableaux": ("is_standard", "standard_monomial_count_deg2"),
    "theoremsets": ("in_pattern_family",),
}

#: Modules that only some commands need.
DEFERRED = ("mfl.tableaux", "mfl.suites", "mfl.golden", "mfl.flagideal",
            "mfl.exactla", "dataclasses", "json")

#: The layers every command but ``zn`` loads, and the parser does not.
LAYERS = ("mfl.permcomb", "mfl.matchfield", "mfl.quadideal")


def _loaded_after(statements: str) -> list[str]:
    """The modules a fresh interpreter loads to run ``statements``, beyond
    those it had at start; the statements' stdout is discarded.  ``json``
    is imported only after the modules are listed, so it is listed when the
    statements load it."""
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {statements}\n"
        "loaded = sorted(set(sys.modules) - before)\n"
        "import json\n"
        "print(json.dumps(loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_import_mfl_loads_no_layer():
    loaded = _loaded_after("import mfl")
    assert "mfl" in loaded
    assert [m for m in loaded if m.startswith("mfl.")] == []


@pytest.mark.parametrize("statements, deferred", [
    ("import mfl.cli; mfl.cli.build_parser()",
     (*DEFERRED, *LAYERS, "mfl.theoremsets")),
    ("import mfl.cli; mfl.cli.main(['sweep', '--n', '4', '--ell', '1'])", DEFERRED),
    ("import mfl.cli; mfl.cli.main(['tables', 'table2', '--n-max', '4'])",
     ("mfl.tableaux", "mfl.suites", "mfl.flagideal", "mfl.exactla", "dataclasses",
      "json")),
], ids=["parser", "sweep", "table2"])
def test_command_loads_only_its_layers(statements, deferred):
    loaded = _loaded_after(statements)
    assert "mfl.cli" in loaded
    assert [m for m in deferred if m in loaded] == []


@pytest.mark.parametrize("statements", [
    "import mfl.cli; mfl.cli.build_parser()",
    "import mfl.cli\n"
    "    try:\n"
    "        mfl.cli.main(['--help'])\n"
    "    except SystemExit as exc:\n"
    "        assert exc.code == 0, exc.code",
    "import mfl.cli\n"
    "    code = mfl.cli.main(['--la-cap', '-1', 'verify', '--suite', 'theoremA'])\n"
    "    assert code == 2, code",
], ids=["parser", "help", "usage-error"])
def test_parser_loads_no_layer(statements):
    loaded = _loaded_after(statements)
    assert [m for m in loaded if m.startswith("mfl.")] == ["mfl.cli"]


def test_zn_loads_only_the_zero_family_and_golden():
    for argv in (["zn", "--n-max", "8"], ["tables", "zn", "--n-max", "8"]):
        loaded = _loaded_after(f"import mfl.cli; mfl.cli.main({argv!r})")
        assert "mfl.permcomb" in loaded and "mfl.golden" in loaded, argv
        assert [m for m in ("mfl.quadideal", "mfl.matchfield", "mfl.theoremsets")
                if m in loaded] == [], argv


def test_capability_error_is_defined_in_the_package():
    from mfl import quadideal

    assert mfl.CapabilityError is quadideal.CapabilityError
    assert mfl.CapabilityError.__module__ == "mfl"


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--n", "8"], "error: oracle bound is n <= 7, got n = 8\n"),
    (["verify", "--suite", "tableaux", "--n-max", "9"],
     "error: n_max 9 exceeds the tableaux suite's bound 8\n"),
], ids=["sweep-oracle-bound", "tableaux-suite-bound"])
def test_capability_error_from_a_lazy_layer_exits_2(argv, message):
    # a fresh process: the layer that raises loads only when the command runs
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-m", "mfl.cli", *argv], env=env,
                            capture_output=True, text=True, check=False)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", message)


def test_table2_loads_golden_and_tableaux_loads_tableaux():
    assert "mfl.golden" in _loaded_after(
        "import mfl.cli; mfl.cli.main(['tables', 'table2', '--n-max', '4'])")
    assert "mfl.tableaux" in _loaded_after(
        "import mfl.cli; mfl.cli.main(['tableaux', '--n', '3'])")


def test_json_and_families_load_with_the_commands_that_read_them():
    loaded = _loaded_after(
        "import mfl.cli; mfl.cli.main(['--format', 'json', 'sweep', '--n', '3', '--ell', '1'])")
    assert "json" in loaded and "mfl.theoremsets" in loaded
    assert "mfl.theoremsets" in _loaded_after(
        "import mfl.cli; mfl.cli.main(['verify', '--suite', 'theoremB', '--n-max', '3'])")


def test_theorem_a_does_not_load_tableaux():
    loaded = _loaded_after(
        "import mfl.cli; mfl.cli.main(['verify', '--suite', 'theoremA', '--n-max', '4'])")
    assert "mfl.suites" in loaded
    assert "mfl.tableaux" not in loaded
    # nor the families, which the suite does not read, nor json in text format
    assert "mfl.theoremsets" not in loaded and "json" not in loaded
    # the exact linear algebra loads with this suite only
    assert "mfl.flagideal" in loaded and "mfl.exactla" in loaded


def test_verify_loads_the_suites_and_passes():
    assert "mfl.suites" in _loaded_after(
        "import mfl.cli; mfl.cli.main(['verify', '--suite', 'coherence', '--n-max', '3'])")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-m", "mfl.cli", "verify", "--suite", "theoremA", "--n-max", "4"],
        env=env, capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("PASS theoremA (")


def test_no_module_imports_dataclasses():
    for path in (SRC / "mfl").glob("*.py"):
        assert "dataclass" not in path.read_text(), path.name


# ---------------------------------------------------------------------------
# Lazy exports


@pytest.mark.parametrize("module, name", [
    (module, name) for table in (EXPORTS, MOVED)
    for module, names in table.items() for name in names
])
def test_export_resolves_to_its_definition(module, name):
    defining = importlib.import_module(f"mfl.{module}")
    if name in MOVED[module]:
        # no longer in the package: neither exported nor defined
        assert not hasattr(mfl, name) and name not in dir(mfl)
        assert not hasattr(defining, name)
        return
    assert getattr(mfl, name) is getattr(defining, name)
    assert name in dir(mfl)


def test_exports_are_the_product_api():
    assert mfl.__all__ == ["SUITES", *(n for names in EXPORTS.values() for n in names)]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mfl.no_such_name  # noqa: B018
    assert not hasattr(mfl, "no_such_name")


def test_version_and_suite_names():
    assert mfl.__version__ == "0.1.0"
    from mfl import cli, suites

    assert suites.SUITES is cli.SUITES is mfl.SUITES
    assert set(mfl.SUITES) == set(suites._RUNNERS) | {"all"}


def test_star_import_binds_every_export():
    namespace = {}
    exec("from mfl import *", namespace)
    assert {n for names in EXPORTS.values() for n in names} <= set(namespace)
