"""The import boundary: `import beireg` loads graphs and regularity (with
the oracle's groebner and hochster), the other modules load on first use,
and each CLI command loads only the modules it runs.

The module sets are read in fresh interpreters, since this process has
imported every module already.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beireg
from conftest import FIXTURES

SRC = Path(beireg.__file__).resolve().parents[1]

EAGER = {"beireg", "beireg.graphs", "beireg.regularity", "beireg.groebner",
         "beireg.hochster"}

PUBLIC = [
    "Graph",
    "IntervalUnion", "CLFamily",
    "CLCertificate", "NotCLReason", "WLDecomposition", "NotWLReason",
    "recognize_cl", "recognize_sig", "recognize_wl",
    "validate_cl_certificate", "validate_wl_decomposition",
    "RegularityReport", "bounds", "reg", "structural_reg", "oracle_reg",
    "gen_lrc", "gen_lrw", "search_l2",
]


def loaded_after(code):
    """The beireg modules a fresh interpreter holds after running code."""
    probe = ("\nimport sys\nprint(' '.join(m for m in sys.modules "
             "if m == 'beireg' or m.startswith('beireg.')))")
    out = subprocess.run([sys.executable, "-c", code + probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    return set(out.splitlines()[-1].split())


def cli_loads(*argv):
    """The modules that cli.main(argv) adds to those of `import beireg`."""
    code = ("import contextlib, io, beireg\n"
            "from beireg import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    cli.main({list(argv)!r})")
    return loaded_after(code) - EAGER


def test_import_loads_graphs_and_regularity_only():
    assert loaded_after("import beireg") == EAGER


@pytest.mark.parametrize("argv, added", [
    (["invariants", str(FIXTURES / "cl_example.edges")], set()),
    (["reg", str(FIXTURES / "wl_example.edges")], set()),
    (["gen", "lrc", "2", "3", "4"], {"beireg.witnesses"}),
    (["recognize", "cl", str(FIXTURES / "cl_example.edges")],
     {"beireg.recognition", "beireg.intervals"}),
])
def test_cli_command_loads_only_what_it_runs(argv, added):
    assert cli_loads(*argv) == {"beireg.cli", "beireg.formats"} | added


@pytest.mark.parametrize("name, added", [
    ("recognize_cl", {"beireg.recognition", "beireg.intervals"}),
    ("gen_lrc", {"beireg.witnesses", "beireg.formats"}),
    ("witnesses", {"beireg.witnesses", "beireg.formats"}),
    ("intervals", {"beireg.intervals"}),
])
def test_first_use_loads_the_defining_module(name, added):
    assert loaded_after(f"import beireg\nbeireg.{name}") == EAGER | added


def test_all_is_unchanged():
    assert beireg.__all__ == PUBLIC


def test_star_import_binds_the_defining_objects():
    namespace = {}
    exec("from beireg import *", namespace)
    for name in PUBLIC:
        obj = getattr(beireg, name)
        assert namespace[name] is obj
        assert getattr(sys.modules[obj.__module__], name) is obj


@pytest.mark.parametrize("name", ["recognition", "intervals", "witnesses"])
def test_submodules_resolve(name):
    assert getattr(beireg, name) is importlib.import_module(f"beireg.{name}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nonexistent"):
        beireg.nonexistent
    with pytest.raises(ImportError):
        exec("from beireg import nonexistent", {})


def package_imports(source):
    """The beireg modules that source imports, by their names in the
    package; a bare `import beireg` reads as ''."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["beireg" if node.level else "",
                                          node.module]))
            if node.module and base != "beireg":
                names.add(base)
            else:
                names |= {f"{base}.{alias.name}" for alias in node.names}
    return {name.partition(".")[2] for name in names
            if name.partition(".")[0] == "beireg"}


@pytest.mark.parametrize("name", ["groebner", "hochster"])
def test_oracle_imports_no_structural_module(name):
    """The oracle stays independent of the structural rules: the package
    modules that groebner and hochster import, read from their source,
    are graphs and groebner only.  `import beireg` loads regularity, so a
    fresh interpreter cannot show this."""
    source = (SRC / "beireg" / f"{name}.py").read_text()
    assert package_imports(source) <= {"graphs", "groebner"}


def test_package_imports_reads_every_form():
    source = ("import os\nimport beireg\nimport beireg.cli\n"
              "from beireg import formats\nfrom beireg.graphs import bits\n"
              "from . import witnesses\nfrom .regularity import reg\n"
              "from math import gcd\n")
    assert package_imports(source) == {"", "cli", "formats", "graphs",
                                       "witnesses", "regularity"}


def private_reads(source):
    """The (module, name) pairs of the underscore names of other beireg
    modules that source reads, as `from .module import _name` or as
    `alias._name` after `from . import module as alias`."""
    tree = ast.parse(source)
    aliases, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    reads.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")):
            reads.add((aliases[node.value.id], node.attr))
    return reads


def test_cross_module_private_reads_are_these():
    """Each module reads another's private names only where this list
    says; a new coupling is named here, or the name is made public."""
    reads = {(path.stem, *read)
             for path in sorted((SRC / "beireg").glob("*.py"))
             for read in private_reads(path.read_text())}
    assert reads == {
        ("hochster", "groebner", "_byte_unions"),
        ("recognition", "intervals", "_family_violation"),
        ("recognition", "intervals", "_meet_masks"),
    }


def test_private_reads_reads_both_forms():
    source = ("import os\nfrom . import graphs as gr, witnesses\n"
              "from .groebner import _byte_unions, lex_groebner\n"
              "def f(self):\n    from . import recognition as rec\n"
              "    return (gr._masks, gr.bits, witnesses._check, rec._x,\n"
              "            os._exit, self._points)\n")
    assert private_reads(source) == {
        ("graphs", "_masks"), ("witnesses", "_check"), ("recognition", "_x"),
        ("groebner", "_byte_unions")}
