"""Corda oracles with tear-offs.

Section 5: "A common scenario for this is when an oracle is needed to
attest to a certain piece of data in a transaction, but the transaction
participants do not want all the components of the transaction visible to
the oracle."

The oracle is a node on the platform's network.  A request reaches it as
an ``attest`` message carrying a :class:`FilteredTransaction` whose only
visible component is the command with the fact to attest, and what that
message exposes is all the oracle learns: its node's observer is the one
account.  It verifies the tear-off against the root, checks the fact
against its own data source, and signs the root — a signature valid for
the full transaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ProofError, ValidationError
from repro.crypto.signatures import Signature
from repro.network.messages import Exposure
from repro.platforms.base import Platform
from repro.platforms.corda.transactions import FilteredTransaction


@dataclass
class OracleAttestation:
    """The oracle's signature over the transaction root."""

    tx_id: str
    oracle: str
    fact_name: str
    signature: Signature


class Oracle:
    """Attests to facts (e.g. an FX rate) embedded in torn-off commands."""

    def __init__(
        self,
        name: str,
        platform: Platform,
        facts: dict[str, object] | Callable[[str], object],
    ) -> None:
        self.name = name
        self.scheme = platform.scheme
        self.network = platform.network
        self._facts = facts
        self.key = self.scheme.keygen_from_seed("oracle:" + name)
        self.node = self.network.add_node(name)

    def _lookup(self, fact_name: str):
        if callable(self._facts):
            return self._facts(fact_name)
        if fact_name not in self._facts:
            raise ValidationError(f"oracle {self.name!r} has no fact {fact_name!r}")
        return self._facts[fact_name]

    def attest(
        self, requester: str, ftx: FilteredTransaction, fact_name: str
    ) -> OracleAttestation:
        """Receive *requester*'s tear-off, check the claimed fact, sign
        the root.

        The ``attest`` request is delivered before this returns.  Raises
        if the tear-off is inconsistent, if the command is missing, or if
        the claimed value disagrees with the oracle's source.
        """
        return self.network.deliver_after(self._attest, requester, ftx, fact_name)

    def _attest(
        self, requester: str, ftx: FilteredTransaction, fact_name: str
    ) -> OracleAttestation:
        visible_keys = {
            key for output in ftx.visible_of_group("outputs") for key in output["data"]
        }
        self.network.send(
            requester, self.name, "attest", ftx,
            exposure=Exposure.of(data_keys=visible_keys),
        )
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
