"""Smart contracts and the versioning registry.

A contract is deterministic business logic operating on a key-value state
view.  The registry implements the "in-built smart contract versioning"
criterion of Section 3.3: platforms with ledger-managed contracts guarantee
every endorsing node runs the same version, while off-chain engines must
manage versions externally (and can drift — a hazard the tests exercise).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import ContractError
from repro.crypto.hashing import hash_hex
from repro.ledger.state import WorldState

ContractFunction = Callable[["StateView", dict], Any]


@dataclass(frozen=True)
class SourceLocation:
    """Where a registered contract function's code lives.

    The static analyzer and error messages use this to point at *user*
    contract code instead of at the execution engine.  ``introspectable``
    is False for callables whose source cannot be recovered (builtins,
    C-level callables, code defined in a REPL) — registering those makes
    the contract invisible to the linter, which is why the use cases
    register plain ``def``s.
    """

    function: str
    file: str
    line: int
    introspectable: bool
    source: str | None = None

    def describe(self) -> str:
        status = "" if self.introspectable else " (source unavailable)"
        return f"{self.function} @ {self.file}:{self.line}{status}"


class StateView:
    """The read/write interface contract code sees during execution.

    Reads go through to the live :class:`WorldState` and are recorded
    with their committed versions; writes and deletes are buffered in the
    view (a read set and write set for MVCC validation), so executing a
    contract never mutates committed state.
    """

    def __init__(self, state: WorldState) -> None:
        self._state = state
        self.reads: dict[str, int] = {}
        self.writes: dict[str, Any] = {}
        self.deletes: set[str] = set()

    def get(self, key: str, default: Any = None) -> Any:
        self.reads[key] = self._state.version(key)
        if key in self.writes:
            return self.writes[key]
        if key in self.deletes:
            return default
        return self._state.get_or(key, default)

    def put(self, key: str, value: Any) -> None:
        self.deletes.discard(key)
        self.writes[key] = value

    def delete(self, key: str) -> None:
        self.writes.pop(key, None)
        self.deletes.add(key)


@dataclass(frozen=True)
class SmartContract:
    """Versioned business logic.

    ``language`` matters for the Section 3.3 criterion "allows for business
    logic to be written in any programming language": ledger-hosted engines
    pin it to the platform language, external engines accept anything.
    ``functions`` maps entry-point names to callables.
    """

    contract_id: str
    version: int
    language: str
    functions: dict[str, ContractFunction] = field(default_factory=dict)

    def code_measurement(self) -> str:
        """Stable identity of this code version.

        Covers the contract id, version, and each function's compiled
        bytecode — so two contracts that differ only in logic (same names,
        same version) still measure differently, which TEE attestation
        relies on.
        """
        return hash_hex(
            "repro/contract",
            {
                "contract_id": self.contract_id,
                "version": self.version,
                "functions": {
                    name: fn.__code__.co_code
                    for name, fn in sorted(self.functions.items())
                },
            },
        )

    def source_location(self, function: str) -> SourceLocation:
        """Introspect where *function*'s registered code was defined."""
        if function not in self.functions:
            raise ContractError(
                f"contract {self.contract_id!r} has no function {function!r}"
            )
        fn = self.functions[function]
        code = getattr(fn, "__code__", None)
        file = getattr(code, "co_filename", "<unknown>")
        line = getattr(code, "co_firstlineno", 0)
        try:
            source = inspect.getsource(fn)
            introspectable = True
        except (OSError, TypeError):
            source = None
            introspectable = False
        return SourceLocation(
            function=function,
            file=file,
            line=line,
            introspectable=introspectable,
            source=source,
        )

    def source_locations(self) -> dict[str, SourceLocation]:
        """Source locations for every registered entry point."""
        return {name: self.source_location(name) for name in sorted(self.functions)}

    def invoke(self, function: str, view: StateView, args: dict) -> Any:
        if function not in self.functions:
            available = ", ".join(
                location.describe()
                for location in self.source_locations().values()
            )
            raise ContractError(
                f"contract {self.contract_id!r} has no function {function!r}"
                + (f"; registered entry points: {available}" if available else "")
            )
        return self.functions[function](view, args)


class ContractRegistry:
    """Tracks which node has which contract version installed."""

    def __init__(self) -> None:
        self._installed: dict[str, dict[str, SmartContract]] = {}

    def install(self, node: str, contract: SmartContract) -> None:
        """Install a contract version on one node."""
        self._installed.setdefault(node, {})[contract.contract_id] = contract

    def lookup(self, node: str, contract_id: str) -> SmartContract:
        contract = self._installed.get(node, {}).get(contract_id)
        if contract is None:
            raise ContractError(
                f"node {node!r} does not have contract {contract_id!r} installed"
            )
        return contract

    def nodes_with_code_visibility(self, contract_id: str) -> set[str]:
        """Which nodes can read this contract's logic (Section 2.3).

        A node sees the code iff the code is installed on it — the
        'installation on involved nodes only' confidentiality mechanism.
        """
        return {
            node
            for node, contracts in self._installed.items()
            if contract_id in contracts
        }
