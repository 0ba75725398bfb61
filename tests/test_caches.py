"""Every cache in the package, each with the benchmark workload that
justifies it. A record stores only its inputs and derives the rest on each
read, so a new cache (or a lost one) must be argued here, with the traffic
that it saves."""
import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "thermalverify"
BENCHMARK = ROOT / "BENCHMARK.json"
CACHE_NAMES = {"cache", "lru_cache", "cached_property", "WeakValueDictionary"}

# (module, the cached function or the registry) -> the workload it serves
CACHES = {
    # every in-process job calls main, which parses with the one parser
    ("cli", "build_parser"): "certify-family",
    # each job builds a distribution (Kronecker passes of the same sizes)
    # and then samples it: the factors and the array are built once
    ("oracle", "_hadamard_factor"): "xbasis-family",
    ("oracle", "_xor_popcounts"): "xbasis-family",
    ("supremacy", "_DISTRIBUTIONS"): "xbasis-family",
}


def _name(node) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def caches_in(path: Path) -> set[tuple[str, str]]:
    """(module, owner) for each use of a cache name outside an import: the
    owner is the function it decorates or the name it is assigned to."""
    tree = ast.parse(path.read_text())
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = set()
    for node in ast.walk(tree):
        if _name(node) not in CACHE_NAMES:
            continue
        owner = parents[node]
        while not isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                     ast.Assign, ast.AnnAssign, ast.Module)):
            owner = parents[owner]
        if isinstance(owner, ast.Assign):
            owner = owner.targets[0]
        elif isinstance(owner, ast.AnnAssign):
            owner = owner.target
        found.add((path.stem, getattr(owner, "name", None) or _name(owner)))
    return found


def test_every_cache_is_listed_with_its_workload():
    found = set().union(*map(caches_in, sorted(PACKAGE.glob("*.py"))))
    assert found == set(CACHES)


def test_each_workload_is_a_benchmark_workload():
    workloads = {workload["name"] for workload in json.loads(BENCHMARK.read_text())["workloads"]}
    assert set(CACHES.values()) <= workloads


def test_the_finder_sees_each_kind_of_cache(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "import functools, weakref\n"
        "from functools import cache, cached_property\n"
        "@cache\ndef a(): pass\n"
        "@functools.lru_cache(maxsize=4)\ndef b(): pass\n"
        "class C:\n    @cached_property\n    def c(self): pass\n"
        "D = weakref.WeakValueDictionary()\n"
        "e = functools.cache(len)\n")
    assert caches_in(source) == {("module", name) for name in "abcDe"}
