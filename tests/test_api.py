"""The package's public surface is exactly the union of its modules' surfaces,
and every name on it has a caller outside the tests."""
import inspect
import re
from functools import cached_property
from pathlib import Path
from types import FunctionType

import torusdyn
from torusdyn import discretize, entropy, lattice, maps, rectangles

MODULES = (maps, lattice, rectangles, discretize, entropy)


def test_package_exports_exactly_the_module_exports():
    union = {"__version__"}.union(*(m.__all__ for m in MODULES))
    assert len(torusdyn.__all__) == len(set(torusdyn.__all__))
    assert set(torusdyn.__all__) == union
    for module in MODULES:
        for name in module.__all__:
            assert getattr(torusdyn, name) is getattr(module, name), (module.__name__, name)


ROOT = Path(__file__).resolve().parent.parent

# Public names kept although nothing outside the tests calls them, each with
# its reason.
KEPT = {
    "fannes_bound": "acceptance criterion 11 calls it",
    "DimensionMismatchError": "acceptance criterion 11 expects it",
    "ProbabilityTable.from_probs": "acceptance criteria 7 and 11 build tables with it",
    "ProbabilityTable.probability": "acceptance criterion 7 reads tables with it",
    "Partition.atom_index": "bench/tracer.py rebinds it by name",
    "ProbabilityTable.from_counts": "bench/tracer.py rebinds it by name",
}


def _corpus() -> str:
    """Source, bench, demos and README, less each module's __all__ list."""
    texts = [
        re.sub(r"^__all__ = \[[^]]*\]", "", path.read_text(), flags=re.M)
        for pattern in ("src/torusdyn/*.py", "bench/*.py", "demos/*.py")
        for path in sorted(ROOT.glob(pattern))
    ]
    return "\n".join(texts + [(ROOT / "README.md").read_text()])


def _public_surface() -> list[tuple[str, str]]:
    """(label, pattern) for each exported name and each public method of an exported class."""
    surface = []
    for name in torusdyn.__all__:
        if name == "__version__":
            continue
        surface.append((name, rf"\b{name}\b"))
        obj = getattr(torusdyn, name)
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if not attr.startswith("_") and isinstance(
                    value, (FunctionType, classmethod, staticmethod, property, cached_property)
                ):
                    surface.append((f"{name}.{attr}", rf"\.{attr}\b"))
    return surface


def test_every_public_name_has_a_caller_outside_the_tests():
    corpus = _corpus()
    unused = []
    for label, pattern in _public_surface():
        definition = rf"^\s*(?:def|class) {label.rsplit('.', 1)[-1]}\b|^{label} ="
        uses = [m for m in re.finditer(pattern, corpus) if not re.match(
            definition, corpus[corpus.rfind("\n", 0, m.start()) + 1:], flags=re.M)]
        if not uses and label not in KEPT:
            unused.append(label)
    assert unused == []
    assert set(KEPT) <= {label for label, _ in _public_surface()}
