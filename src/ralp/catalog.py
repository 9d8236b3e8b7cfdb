"""Bundled benchmark catalog.

Eight CNN training benchmarks encoded as descriptor files.  A re-profiled
descriptor is loaded by path instead (``ralp profile x.model``, or
``model=x.model`` in a scenario).
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .descriptor import parse_model
from .layers import ModelGraph

_SUFFIX = ".model"


class UnknownModelError(KeyError):
    def __init__(self, name: str, available: list[str]):
        super().__init__(f"unknown benchmark {name!r}; available: {', '.join(available)}")


_CATALOG_DIR = Path(str(resources.files(__package__) / "catalog_data"))


def catalog_names() -> list[str]:
    return sorted(p.name[: -len(_SUFFIX)] for p in _CATALOG_DIR.iterdir() if p.name.endswith(_SUFFIX))


def catalog_lookup(name: str) -> ModelGraph:
    path = _CATALOG_DIR / f"{name}{_SUFFIX}"
    if not path.is_file():
        raise UnknownModelError(name, catalog_names())
    return parse_model(path.read_text(encoding="utf-8"))
