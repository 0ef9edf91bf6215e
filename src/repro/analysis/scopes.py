"""Module indexing: parents, imports, and contract-context discovery.

The determinism pass only applies to *contract/validation code* — the
Section 5 requirement is about logic every endorsing node replays, not
about arbitrary simulation code.  Statically, contract code is:

- any function registered in the ``functions={...}`` mapping of a
  :class:`~repro.execution.contracts.SmartContract` construction,
- any verifier passed to ``register_contract(...)`` (Corda ``verify``
  closures) or a ``contract_verifier=`` keyword,

resolved through plain ``Name`` references to ``def``s in any enclosing
scope, or taken directly when the value is a ``lambda``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

ScopeNode = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def call_name(call: ast.Call) -> str:
    """The called function's terminal name: ``f(...)`` or ``x.y.f(...)``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def receiver_name(call: ast.Call) -> str:
    """A descriptive lowercase name for the receiver of a method call.

    ``view.put`` -> ``view``; ``self.public_states[n].put`` ->
    ``public_states``; ``channel.reference_state().put`` ->
    ``reference_state``.  Empty for plain-name calls.
    """
    if not isinstance(call.func, ast.Attribute):
        return ""
    return _describe(call.func.value).lower()


def _describe(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        # Prefer the attribute (``self.public_states`` -> public_states).
        return node.attr
    if isinstance(node, ast.Subscript):
        return _describe(node.value)
    if isinstance(node, ast.Call):
        return call_name(node)
    return ""


@dataclass
class ModuleIndex:
    """Parse-tree wide lookups shared by every pass over one file."""

    tree: ast.Module
    path: str
    parents: dict[int, ast.AST] = field(default_factory=dict)
    # local name -> imported module root (``import os`` / ``import x as y``)
    import_modules: dict[str, str] = field(default_factory=dict)
    # local name -> (module, member) for ``from mod import member [as alias]``
    import_members: dict[str, tuple[str, str]] = field(default_factory=dict)
    # id() of FunctionDef/Lambda nodes that are contract/validation code
    contract_nodes: set[int] = field(default_factory=set)
    # id(node) -> dotted registration label, for messages
    contract_labels: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[id(child)] = parent
        self._collect_imports()
        self._collect_contract_contexts()

    # -- structure -----------------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(id(node))

    def context_of(self, node: ast.AST) -> str:
        """Dotted outer-to-inner names of enclosing functions/classes."""
        names = []
        current: ast.AST | None = node
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(current.name)
            elif isinstance(current, ast.Lambda):
                names.append("<lambda>")
            current = self.parent(current)
        return ".".join(reversed(names))

    # -- imports -------------------------------------------------------

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    self.import_modules[alias.asname or root] = root
            elif isinstance(node, ast.ImportFrom) and node.module:
                root = node.module.split(".")[0]
                for alias in node.names:
                    self.import_members[alias.asname or alias.name] = (
                        root,
                        alias.name,
                    )

    # -- contract-context discovery ------------------------------------

    def _collect_contract_contexts(self) -> None:
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name == "SmartContract":
                for kw in node.keywords:
                    if kw.arg == "functions":
                        self._mark_function_mapping(node, kw.value)
            elif name == "register_contract":
                # register_contract(contract_id, verifier, ...)
                if len(node.args) >= 2:
                    self._mark_callable(node, node.args[1], "verify")
                for kw in node.keywords:
                    if kw.arg == "verifier":
                        self._mark_callable(node, kw.value, "verify")
            for kw in node.keywords:
                if kw.arg == "contract_verifier":
                    self._mark_callable(node, kw.value, "verify")

    def _mark_function_mapping(self, site: ast.Call, value: ast.AST) -> None:
        mapping = value
        if isinstance(mapping, ast.Name):
            resolved = self._resolve_assignment(site, mapping.id)
            if resolved is not None:
                mapping = resolved
        if not isinstance(mapping, ast.Dict):
            return
        for key, entry in zip(mapping.keys, mapping.values):
            label = (
                key.value
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
                else "<entry>"
            )
            self._mark_callable(site, entry, label)

    def _mark_callable(self, site: ast.AST, value: ast.AST, label: str) -> None:
        if isinstance(value, ast.Lambda):
            self.contract_nodes.add(id(value))
            self.contract_labels[id(value)] = label
            return
        if isinstance(value, ast.Name):
            target = self._resolve_function(site, value.id)
            if target is not None:
                self.contract_nodes.add(id(target))
                self.contract_labels[id(target)] = label

    def _scope_chain(self, node: ast.AST) -> list[ast.AST]:
        """Innermost-first enclosing scopes (functions, then the module)."""
        chain: list[ast.AST] = []
        current: ast.AST | None = node
        while current is not None:
            if isinstance(current, ScopeNode):
                chain.append(current)
            current = self.parent(current)
        return chain

    def _resolve_function(self, site: ast.AST, name: str) -> ast.AST | None:
        for scope in self._scope_chain(site):
            for stmt in ast.walk(scope):
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name == name
                    and self._nearest_scope(stmt) is scope
                ):
                    return stmt
        return None

    def _resolve_assignment(self, site: ast.AST, name: str) -> ast.AST | None:
        """Best-effort: the Dict literal assigned to *name* in scope."""
        for scope in self._scope_chain(site):
            for stmt in ast.walk(scope):
                if isinstance(stmt, ast.Assign) and self._nearest_scope(stmt) is scope:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name) and target.id == name:
                            return stmt.value
        return None

    def _nearest_scope(self, node: ast.AST) -> ast.AST | None:
        current = self.parent(node)
        while current is not None:
            if isinstance(current, ScopeNode):
                return current
            current = self.parent(current)
        return None
