"""The package's public surface is exactly the union of its modules' surfaces."""
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
