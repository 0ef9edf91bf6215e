"""Corda oracles with tear-offs.

Section 5: "A common scenario for this is when an oracle is needed to
attest to a certain piece of data in a transaction, but the transaction
participants do not want all the components of the transaction visible to
the oracle."

The oracle is a node on the platform's network.  A request reaches it as
an ``attest`` message carrying a :class:`FilteredTransaction`, whose only
visible component is the command with the fact to attest, and the fact's
name; what that message exposes is all the oracle learns: its node's
observer is the one account.  In its ``attest`` handler it verifies the
tear-off against the root, checks the fact against its own data source,
and signs the root — a signature valid for the full transaction — then
replies ``attestation`` with the signature or its refusal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ProofError, ReproError, ValidationError
from repro.crypto.signatures import Signature
from repro.network.messages import Refusal
from repro.platforms.base import Platform
from repro.platforms.corda.transactions import FilteredTransaction


@dataclass
class OracleAttestation:
    """The oracle's signature over the transaction root."""

    tx_id: str
    oracle: str
    fact_name: str
    signature: Signature

    def wire_size(self) -> int:
        return (
            len(self.tx_id) + len(self.oracle) + len(self.fact_name)
            + self.signature.wire_size()
        )


class Oracle:
    """Attests to facts (e.g. an FX rate) embedded in torn-off commands."""

    def __init__(
        self,
        name: str,
        platform: Platform,
        facts: dict[str, object] | Callable[[str], object],
    ) -> None:
        self.name = name
        self.platform = platform
        self.scheme = platform.scheme
        self.network = platform.network
        self._facts = facts
        self.key = self.scheme.keygen_from_seed("oracle:" + name)
        self.node = self.network.add_node(name)
        self.node.on("attest", self._on_attest)

    def _lookup(self, fact_name: str):
        if callable(self._facts):
            return self._facts(fact_name)
        if fact_name not in self._facts:
            raise ValidationError(f"oracle {self.name!r} has no fact {fact_name!r}")
        return self._facts[fact_name]

    def attest(
        self, requester: str, ftx: FilteredTransaction, fact_name: str
    ) -> OracleAttestation:
        """Send *requester*'s tear-off to the oracle; return its attestation
        once the reply arrives.

        Raises the oracle's refusal: the tear-off is inconsistent, the
        command is missing, or the claimed value disagrees with the
        oracle's source.
        """
        request = self.platform._send_critical(
            requester, self.name, "attest", (ftx, fact_name)
        )
        return self.network.outcome(request).payload

    def _on_attest(self, message) -> None:
        """Delivery handler for ``attest``: check the tear-off and the fact,
        sign the root, and reply ``attestation``."""
        ftx, fact_name = message.payload
        try:
            answer = self._check_and_sign(ftx, fact_name)
        except ReproError as error:
            answer = Refusal(error)
        self.network.reply(message, "attestation", answer)

    def _check_and_sign(
        self, ftx: FilteredTransaction, fact_name: str
    ) -> OracleAttestation:
        if not ftx.verify():
            raise ProofError("filtered transaction does not match its root")
        commands = ftx.visible_of_group("commands")
        matching = [c for c in commands if c.get("payload", {}).get("fact") == fact_name]
        if not matching:
            raise ValidationError(
                f"no visible command carries fact {fact_name!r}"
            )
        claimed = matching[0]["payload"].get("value")
        truth = self._lookup(fact_name)
        if claimed != truth:
            raise ValidationError(
                f"claimed {fact_name!r}={claimed!r} but oracle says {truth!r}"
            )
        return OracleAttestation(
            tx_id=ftx.tx_id,
            oracle=self.name,
            fact_name=fact_name,
            signature=self.scheme.sign(self.key, ftx.signing_payload()),
        )
