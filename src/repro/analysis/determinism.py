"""Determinism pass over contract/validation code.

Section 5's platform discussion assumes validation logic is replayed
independently on every endorsing node (Fabric chaincode, Corda ``verify``,
EVM contracts); any divergence between replicas is a consensus failure.
This pass therefore forbids, *inside contract contexts only* (see
:mod:`repro.analysis.scopes`):

- wall-clock reads (``time``, ``datetime``) — D201,
- randomness (``random``, ``secrets``, ``uuid``) — D202,
- environment access (``os``, filesystem, process, network) — D203,
- iteration over sets, whose order is interpreter-dependent — D204,
- the salted builtin ``hash()`` and address-valued ``id()`` — D205.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding, report
from repro.analysis.scopes import ModuleIndex, call_name

_MODULE_RULES = {
    "time": "nondet-time",
    "datetime": "nondet-time",
    "random": "nondet-random",
    "secrets": "nondet-random",
    "uuid": "nondet-random",
    "os": "nondet-env",
    "sys": "nondet-env",
    "subprocess": "nondet-env",
    "socket": "nondet-env",
    "pathlib": "nondet-env",
    "shutil": "nondet-env",
    "glob": "nondet-env",
    "tempfile": "nondet-env",
    "requests": "nondet-env",
    "urllib": "nondet-env",
    "http": "nondet-env",
}

_BUILTIN_ENV_CALLS = frozenset({"open", "input"})
_UNSTABLE_BUILTINS = frozenset({"hash", "id"})


def _module_of_name(index: ModuleIndex, name: str) -> str | None:
    if name in index.import_modules:
        return index.import_modules[name]
    if name in index.import_members:
        return index.import_members[name][0]
    return None


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # Set algebra (a | b, a & b, a - b) over set operands.
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


def _check_contract_node(
    index: ModuleIndex, findings: list[Finding], root: ast.AST
) -> None:
    bound_params: set[str] = set()
    if isinstance(root, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = root.args
        bound_params = {
            a.arg
            for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        }

    for node in ast.walk(root):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in bound_params:
                continue
            module = _module_of_name(index, node.id)
            rule_id = _MODULE_RULES.get(module or "")
            if rule_id:
                report(
                    index, findings, rule_id, node,
                    f"use of {node.id!r} (module {module!r})",
                )
        elif isinstance(node, ast.Call):
            name = call_name(node)
            if isinstance(node.func, ast.Name):
                if name in _BUILTIN_ENV_CALLS:
                    report(
                        index, findings, "nondet-env", node,
                        f"call to builtin {name}()",
                    )
                elif name in _UNSTABLE_BUILTINS:
                    report(
                        index, findings, "unstable-hash", node,
                        f"call to builtin {name}()",
                    )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expression(node.iter):
                report(
                    index, findings, "unordered-iter", node.iter,
                    "for-loop over a set expression",
                )
        elif isinstance(node, ast.comprehension):
            if _is_set_expression(node.iter):
                report(
                    index, findings, "unordered-iter", node.iter,
                    "comprehension over a set expression",
                )


def run_determinism_pass(index: ModuleIndex) -> list[Finding]:
    findings: list[Finding] = []
    seen: set[int] = set()
    for node in ast.walk(index.tree):
        if id(node) in index.contract_nodes and id(node) not in seen:
            seen.add(id(node))
            _check_contract_node(index, findings, node)
    return findings
