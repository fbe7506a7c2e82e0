import ast
import importlib
import io
import pkgutil
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import nsasym

MODULES = sorted(m.name for m in pkgutil.iter_modules(nsasym.__path__))
REPO = Path(__file__).resolve().parent.parent

# Listed names that nothing in src/ or perfbench/ calls, each kept for a reason
UNCALLED_EXPORTS = {
    # the paper's lemma checks
    "trilinear_form": "criterion 7: energy orthogonality b(u, u, u) = 0",
    "check_bilinear_estimate": "criterion 7: the bilinear estimate in Gevrey norms",
    "check_series_expansion": "criterion 8: convergence of the expansion series",
    "smoothing_constant": "the Gevrey smoothing estimate of the heat semigroup",
    "verify_system_conditions": "the conditions a decay system must meet",
    # f at one time, which a doubled step's force rows are compared against
    "evaluate_force": "reference for the force-row tests",
}


def _references(path: Path) -> Counter:
    """Uses of each name in ``path``: a name token or a string equal to the
    name (perfbench looks attributes up by string), outside import
    statements, ``__all__`` and the line defining the name."""
    text = path.read_text()
    tree = ast.parse(text)
    skipped, defined = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skipped.update(range(node.lineno, node.end_lineno + 1))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.setdefault(node.name, set()).add(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    if target.id == "__all__":
                        skipped.update(range(node.lineno, node.end_lineno + 1))
                    defined.setdefault(target.id, set()).add(node.lineno)
    found = Counter()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        line = tok.start[0]
        if tok.type == tokenize.NAME:
            name = tok.string
        elif tok.type == tokenize.STRING:
            if "f" in tok.string[:tok.string.index(tok.string[-1])].lower():
                continue  # an f-string looks nothing up
            name = ast.literal_eval(tok.string)
        else:
            continue
        if isinstance(name, str) and line not in skipped and line not in defined.get(name, ()):
            found[name] += 1
    return found


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"nsasym.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_are_listed_by_their_module():
    exported = {name: obj.__module__ for name, obj in vars(nsasym).items()
                if not name.startswith("_")
                and (getattr(obj, "__module__", None) or "").startswith("nsasym.")}
    assert exported
    unlisted = [name for name, home in exported.items()
                if name not in importlib.import_module(home).__all__]
    assert unlisted == []


def test_every_listed_name_is_used_or_kept_for_a_reason():
    used = Counter()
    for path in sorted(REPO.glob("src/**/*.py")) + sorted(REPO.glob("perfbench/**/*.py")):
        used += _references(path)
    listed = {n for m in MODULES for n in importlib.import_module(f"nsasym.{m}").__all__}
    assert sorted(n for n in listed if not used[n] and n not in UNCALLED_EXPORTS) == []
    # an allowlisted name that gains a caller, or leaves __all__, leaves the list
    assert sorted(n for n in UNCALLED_EXPORTS if used[n] or n not in listed) == []
