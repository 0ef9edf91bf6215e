"""Information-flow (taint) pass.

Sources of confidential data are (a) calls that *produce* confidential
values — private-data-collection reads, ``decrypt(...)``, private-payload
``resolve(...)``, ``get_private*``/``reveal*`` accessors — and (b) names
that *declare* confidentiality by convention (``secret``, ``pii``,
``passport``, ...), the same convention the repo's scenarios use
(``CONFIDENTIAL_KEY``) and that the dynamic auditor observes leaking.

Sinks are public writes: shared ledger state (``view.put``), logs,
network sends and broadcasts, transaction metadata, and exposure
declarations.  A flow is reported unless the value passed through a
catalog mechanism (hash, commitment, encryption, Merkle tear-off) on the
way — Section 2.2's design rule, enforced at authoring time.

The walk is intraprocedural and flow-sensitive: assignments move taint
forward statement by statement, branches merge by union, loop bodies run
twice so loop-carried taint converges.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding, report
from repro.analysis.scopes import ModuleIndex, call_name, receiver_name

#: Name fragments that mark a value as confidential by convention.
CONFIDENTIAL_TOKENS = (
    "secret",
    "confidential",
    "pii",
    "passport",
    "ssn",
    "password",
    "credential",
    "plaintext",
    "opening",
)

#: Catalog mechanisms: a call through any of these launders the taint.
SANITIZER_NAMES = frozenset({
    "hash_hex", "hash_value", "sha256", "tagged_hash", "hmac_sha256",
    "hkdf", "leaf_digest", "hexdigest", "digest",
    "encrypt", "commit", "commit_with", "tear_off", "fingerprint",
    "inclusion_proof", "anchor",
})

#: Calls that produce confidential values.
_SOURCE_PREFIXES = ("get_private", "reveal")
_COLLECTION_TOKENS = ("collection", "pdc")
_MANAGER_TOKENS = ("manager", "txmanager")

#: Receivers whose ``.put`` lands on shared ledger state...
_STATE_TOKENS = ("view", "state", "world", "ledger", "replica")
#: ...unless the receiver is itself an off-chain mechanism.
_OFFCHAIN_TOKENS = ("store", "collection", "vault", "pdc")

_LOG_RECEIVERS = ("logging", "logger", "log")
_LOG_METHODS = frozenset({
    "debug", "info", "warning", "warn", "error", "critical", "exception",
    "log",
})


#: Names carrying these fragments refer to an already-protected form of a
#: value (``pii_anchor``, ``passport_hash``) — the mechanism is in the name.
_SANITIZED_NAME_TOKENS = (
    "hash", "anchor", "digest", "commit", "cipher", "proof", "redact",
)


def is_confidential_name(name: str) -> bool:
    normalized = name.lower().replace("-", "_").replace("/", "_")
    if any(token in normalized for token in _SANITIZED_NAME_TOKENS):
        return False
    return any(token in normalized for token in CONFIDENTIAL_TOKENS)


def _is_confidential_constant(value: object) -> bool:
    """Identifier-like string constants ('passport/LC-1') count; prose
    that merely *mentions* a confidential term does not."""
    if not isinstance(value, str) or len(value) > 40:
        return False
    if any(ch.isspace() for ch in value):
        return False
    return is_confidential_name(value)


def _contains(name: str, tokens: tuple[str, ...]) -> bool:
    return any(token in name for token in tokens)


def _snippet(node: ast.AST) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.10+
        text = "<expression>"
    return text if len(text) <= 48 else text[:45] + "..."


def is_source_call(call: ast.Call) -> bool:
    name = call_name(call)
    if name == "decrypt":
        return True
    if any(name.startswith(prefix) for prefix in _SOURCE_PREFIXES):
        return True
    receiver = receiver_name(call)
    if name == "get" and _contains(receiver, _COLLECTION_TOKENS):
        return True
    if name == "resolve" and _contains(receiver, _MANAGER_TOKENS):
        return True
    return False


class _ScopeTaint:
    """Flow-sensitive taint over one function (or module) body."""

    def __init__(
        self,
        index: ModuleIndex,
        findings: list[Finding],
        tainted: set[str],
    ) -> None:
        self.index = index
        self.findings = findings
        self.tainted = tainted

    # -- expression taint ----------------------------------------------

    def is_tainted(self, node: ast.AST | None, consts: bool = False) -> bool:
        # ``consts=True`` only at sinks: a confidential-looking string
        # literal flags the call it appears in ('print(passport)') but does
        # not propagate through assignments — otherwise every object
        # *describing* a confidential data class (requirements, designs)
        # would taint everything derived from it.
        if node is None:
            return False
        if isinstance(node, ast.Name):
            return node.id in self.tainted or is_confidential_name(node.id)
        if isinstance(node, ast.Attribute):
            return is_confidential_name(node.attr) or self.is_tainted(
                node.value, consts
            )
        if isinstance(node, ast.Subscript):
            return self.is_tainted(node.value, consts) or self.is_tainted(
                node.slice, consts
            )
        if isinstance(node, ast.Constant):
            return consts and _is_confidential_constant(node.value)
        if isinstance(node, ast.Call):
            if call_name(node) in SANITIZER_NAMES:
                return False
            if is_source_call(node):
                return True
            return any(self.is_tainted(a, consts) for a in node.args) or any(
                self.is_tainted(kw.value, consts) for kw in node.keywords
            )
        if isinstance(node, ast.Lambda):
            return False
        if isinstance(node, (ast.Dict,)):
            return any(self.is_tainted(k, consts) for k in node.keys) or any(
                self.is_tainted(v, consts) for v in node.values
            )
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return any(self.is_tainted(e, consts) for e in node.elts)
        if isinstance(node, ast.comprehension):
            return self.is_tainted(node.iter, consts)
        # Generic fall-through: tainted iff any child expression is.
        return any(
            self.is_tainted(child, consts)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        )

    # -- findings ------------------------------------------------------

    def _check_call(self, call: ast.Call) -> None:
        name = call_name(call)
        receiver = receiver_name(call)
        arguments = list(call.args) + [kw.value for kw in call.keywords]
        tainted_args = [a for a in arguments if self.is_tainted(a, consts=True)]

        sink = None
        if (
            name == "put"
            and _contains(receiver, _STATE_TOKENS)
            and not _contains(receiver, _OFFCHAIN_TOKENS)
        ):
            sink = "flow-to-state"
        elif name == "print" and isinstance(call.func, ast.Name):
            sink = "flow-to-log"
        elif name in _LOG_METHODS and _contains(receiver, _LOG_RECEIVERS):
            sink = "flow-to-log"
        elif name == "send" and isinstance(call.func, ast.Attribute):
            sink = "flow-to-message"
        elif name == "broadcast" and isinstance(call.func, ast.Attribute):
            sink = "plaintext-broadcast"
        if sink and tainted_args:
            report(self.index, self.findings, sink, call, _snippet(tainted_args[0]))

        # Exposure declarations and transaction metadata.
        exposure_call = name == "Exposure" or (
            name == "of" and receiver == "exposure"
        )
        if exposure_call and tainted_args:
            report(
                self.index, self.findings, "flow-to-metadata", call,
                _snippet(tainted_args[0]),
            )
        else:
            for kw in call.keywords:
                if kw.arg == "metadata" and self.is_tainted(kw.value, consts=True):
                    report(
                        self.index, self.findings, "flow-to-metadata", call,
                        _snippet(kw.value),
                    )

    def check_expr(self, node: ast.AST | None) -> None:
        if node is None:
            return
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self._check_call(child)

    # -- statement walk ------------------------------------------------

    def run(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self.visit(stmt)

    def assign(self, target: ast.AST, value_tainted: bool) -> None:
        if isinstance(target, ast.Name):
            if value_tainted:
                self.tainted.add(target.id)
            else:
                self.tainted.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.assign(element, value_tainted)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, value_tainted)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            # Writing a tainted value into a container taints the container.
            if value_tainted:
                base = target.value
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                if isinstance(base, ast.Name):
                    self.tainted.add(base.id)

    def visit(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self.check_expr(stmt.value)
            value_tainted = self.is_tainted(stmt.value)
            for target in stmt.targets:
                self.assign(target, value_tainted)
        elif isinstance(stmt, ast.AnnAssign):
            self.check_expr(stmt.value)
            if stmt.value is not None:
                self.assign(stmt.target, self.is_tainted(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self.check_expr(stmt.value)
            if self.is_tainted(stmt.value):
                self.assign(stmt.target, True)
        elif isinstance(stmt, (ast.Expr, ast.Return, ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                self.check_expr(child)
        elif isinstance(stmt, ast.If):
            self.check_expr(stmt.test)
            before = set(self.tainted)
            self.run(stmt.body)
            after_body = set(self.tainted)
            self.tainted = set(before)
            self.run(stmt.orelse)
            self.tainted |= after_body
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.check_expr(stmt.iter)
            self.assign(stmt.target, self.is_tainted(stmt.iter))
            # Two passes so loop-carried taint reaches first-line sinks.
            self.run(stmt.body)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.check_expr(stmt.test)
            self.run(stmt.body)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.check_expr(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(
                        item.optional_vars, self.is_tainted(item.context_expr)
                    )
            self.run(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.run(stmt.body)
            for handler in stmt.handlers:
                self.run(handler.body)
            self.run(stmt.orelse)
            self.run(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _analyze_function(self.index, self.findings, stmt, set(self.tainted))
        elif isinstance(stmt, ast.ClassDef):
            self.run(stmt.body)
        # Import/Pass/Break/Continue/Global/Nonlocal: nothing to track.


def _analyze_function(
    index: ModuleIndex,
    findings: list[Finding],
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    inherited: set[str],
) -> None:
    scope = _ScopeTaint(index, findings, inherited)
    args = node.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        if is_confidential_name(arg.arg):
            scope.tainted.add(arg.arg)
    if args.vararg and is_confidential_name(args.vararg.arg):
        scope.tainted.add(args.vararg.arg)
    if args.kwarg and is_confidential_name(args.kwarg.arg):
        scope.tainted.add(args.kwarg.arg)
    scope.run(node.body)


def run_taint_pass(index: ModuleIndex) -> list[Finding]:
    """Analyze one module; returns unsuppressed-yet findings."""
    findings: list[Finding] = []
    module_scope = _ScopeTaint(index, findings, set())
    module_scope.run(index.tree.body)
    return findings
