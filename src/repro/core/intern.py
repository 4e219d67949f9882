"""Hash-consing (interning) for types and coercions.

The space-efficient machine composes, compares, and hashes the same handful
of types and coercions millions of times: every ``#`` merge on the even/odd
workload rebuilds a structurally identical canonical coercion, and every
cast rule compares types structurally.  Interning gives every structurally
equal value a single canonical representative, so

* structural equality on canonical representatives is pointer equality
  (``intern(a) is intern(b)``  iff  ``a == b``), and
* derived operations — the compatibility predicates in
  :mod:`repro.core.types` and λS composition ``#`` — can be memoised on the
  *identity* of canonical nodes, turning a structural recursion into a
  dictionary hit.

The tables key children by ``id`` of their (already canonical) nodes, so an
intern lookup costs O(1) per node rather than a structural hash; canonical
nodes are kept alive for the lifetime of the process, which keeps the ids
stable.  The per-language intern functions live next to the classes they
canonicalise: :func:`intern_type` here, ``intern_coercion`` in
:mod:`repro.lambda_c.coercions`, and ``intern_space`` in
:mod:`repro.lambda_s.coercions`.
"""

from __future__ import annotations

from typing import Callable, Hashable

from .types import (
    BASE_TYPES,
    DYN,
    GROUND_FUN,
    GROUND_PROD,
    UNKNOWN,
    BaseType,
    DynType,
    FunType,
    ProdType,
    Type,
    UnknownType,
)


class Interner:
    """A hash-consing table for one family of immutable tree values.

    ``canonical(key, build)`` returns the canonical node for ``key``,
    constructing it with ``build()`` on first sight.  ``key`` must determine
    the node up to structural equality and should reference children by the
    ``id`` of their canonical representatives (cheap to hash).  Canonical
    nodes are retained forever, so their ids are stable cache keys.
    """

    __slots__ = ("name", "_by_key", "_canonical_ids", "_aliases", "hits", "misses")

    def __init__(self, name: str):
        self.name = name
        self._by_key: dict[Hashable, object] = {}
        self._canonical_ids: set[int] = set()
        # Non-canonical nodes we have interned before, mapped to their
        # canonical representative.  The aliased node itself is retained so
        # its id cannot be reused; this is what makes re-interning the same
        # AST node (e.g. a Coerce's coercion, once per loop iteration) O(1).
        # Bounded: evicting an entry is always safe (the node just re-interns
        # through the canonical table), so long-lived processes don't retain
        # every transient object ever interned.
        self._aliases: dict[int, tuple[object, object]] = {}
        self.hits = 0
        self.misses = 0
        _REGISTRY[name] = self

    def is_canonical(self, node: object) -> bool:
        """Has ``node`` itself been issued by this table?"""
        return id(node) in self._canonical_ids

    def alias_of(self, node: object) -> object | None:
        """The canonical representative recorded for this exact node, if any."""
        entry = self._aliases.get(id(node))
        if entry is None:
            return None
        self.hits += 1
        return entry[1]

    MAX_ALIASES = 1 << 16

    def remember_alias(self, node: object, canonical: object) -> None:
        if node is canonical:
            return
        if len(self._aliases) >= self.MAX_ALIASES:
            # Evict by clearing the whole table: O(1) amortised, where
            # popping the oldest key one at a time leaves dead slots that
            # every later ``next(iter(...))`` scans past.  The evicted nodes
            # may then be garbage collected and their ids reused, but their
            # entries are gone, so a stale hit is impossible.
            self._aliases.clear()
        self._aliases[id(node)] = (node, canonical)

    def canonical(self, key: Hashable, build: Callable[[], object]) -> object:
        found = self._by_key.get(key)
        if found is not None:
            self.hits += 1
            return found
        node = build()
        self._by_key[key] = node
        self._canonical_ids.add(id(node))
        self.misses += 1
        return node

    def seed(self, key: Hashable, node: object) -> object:
        """Install ``node`` as the canonical representative for ``key``."""
        existing = self._by_key.get(key)
        if existing is not None:
            return existing
        self._by_key[key] = node
        self._canonical_ids.add(id(node))
        return node

    def __len__(self) -> int:
        return len(self._by_key)

    def stats(self) -> dict[str, int]:
        return {"entries": len(self._by_key), "hits": self.hits, "misses": self.misses}


_REGISTRY: dict[str, Interner] = {}


def intern_stats() -> dict[str, dict[str, int]]:
    """Hit/miss/size statistics for every intern table (diagnostics, benchmarks)."""
    return {name: table.stats() for name, table in _REGISTRY.items()}


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

_types = Interner("types")

# Seed the well-known singletons so interning maps onto the module constants.
_types.seed(("dyn",), DYN)
_types.seed(("unknown",), UNKNOWN)
for _base in BASE_TYPES:
    _types.seed(("base", _base.name), _base)
_types.seed(("fun", id(DYN), id(DYN)), GROUND_FUN)
_types.seed(("prod", id(DYN), id(DYN)), GROUND_PROD)


def intern_type(ty: Type) -> Type:
    """The canonical representative of ``ty``; idempotent, O(1) when canonical.

    ``intern_type(a) is intern_type(b)``  iff  ``a == b``.
    """
    if _types.is_canonical(ty):
        return ty
    aliased = _types.alias_of(ty)
    if aliased is not None:
        return aliased
    if isinstance(ty, DynType):
        canon = _types.canonical(("dyn",), lambda: ty)
    elif isinstance(ty, UnknownType):
        canon = _types.canonical(("unknown",), lambda: ty)
    elif isinstance(ty, BaseType):
        canon = _types.canonical(("base", ty.name), lambda: ty)
    elif isinstance(ty, FunType):
        dom = intern_type(ty.dom)
        cod = intern_type(ty.cod)
        canon = _types.canonical(
            ("fun", id(dom), id(cod)),
            lambda: ty if (ty.dom is dom and ty.cod is cod) else FunType(dom, cod),
        )
    elif isinstance(ty, ProdType):
        left = intern_type(ty.left)
        right = intern_type(ty.right)
        canon = _types.canonical(
            ("prod", id(left), id(right)),
            lambda: ty if (ty.left is left and ty.right is right) else ProdType(left, right),
        )
    else:
        raise TypeError(f"cannot intern unknown type node: {ty!r}")
    _types.remember_alias(ty, canon)
    return canon


def is_interned_type(ty: Type) -> bool:
    return _types.is_canonical(ty)
