"""Deployment builder: from a SolutionDesign to a running network.

The last mile of the design guide: given the requirements, the design the
guide produced, and the party list, construct a configured platform
simulation that *implements* the design —

- a segregated ledger (Fabric channel) for the party group,
- a private data collection per deletion-required data class,
- client-side symmetric encryption (with ElGamal key transport) for data
  classes whose design adds it,
- Pedersen-commitment storage plus sufficient-funds proofs for ZKP data
  classes,
- MPC tallies for shared-function data classes,
- the execution engine the logic mechanism calls for,
- a member-operated orderer when the deployment advice says so.

The returned :class:`Deployment` routes every write through the
mechanism the design chose for that data class, so application code
cannot accidentally bypass the design.  ``tests/core/test_deploy.py``
closes the loop by running the leakage auditor over built deployments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import GuideError, PrivacyError
from repro.common.rng import DeterministicRNG
from repro.core.guide import SolutionDesign
from repro.core.mechanisms import Mechanism
from repro.core.requirements import UseCaseRequirements
from repro.crypto.commitments import Commitment, Opening, PedersenScheme
from repro.crypto.elgamal import ElGamal, WrappedKey
from repro.crypto.mpc import secure_sum
from repro.crypto.symmetric import Ciphertext, SymmetricKey
from repro.crypto.zkp import (
    FundsProof,
    RangeProver,
    prove_sufficient_funds,
    verify_sufficient_funds,
)
from repro.execution.contracts import SmartContract
from repro.platforms.fabric import FabricNetwork


def _record_chaincode(contract_id: str) -> SmartContract:
    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    def get(view, args):
        return view.get(args["key"])

    return SmartContract(
        contract_id=contract_id, version=1, language="python-chaincode",
        functions={"put": put, "get": get},
    )


@dataclass
class Deployment:
    """A built, design-conforming Fabric deployment.

    Every public method enforces the design: writes to a data class go
    through the mechanism the guide selected for it, and nothing else.
    """

    design: SolutionDesign
    requirements: UseCaseRequirements
    network: FabricNetwork
    channel_name: str
    contract_id: str
    parties: list[str]
    data_class_mechanisms: dict[str, Mechanism] = field(default_factory=dict)
    encrypted_classes: set[str] = field(default_factory=set)
    _data_keys: dict[str, SymmetricKey] = field(default_factory=dict)
    _key_wraps: dict[str, dict[str, WrappedKey]] = field(default_factory=dict)
    _commitments: dict[str, tuple[Commitment, Opening, int]] = field(
        default_factory=dict
    )
    _rng: DeterministicRNG = field(
        default_factory=lambda: DeterministicRNG("deployment")
    )

    # -- generic record/read, routed per data-class mechanism

    def record(self, data_class: str, submitter: str, key: str, value: Any):
        """Store one value under the design's mechanism for *data_class*."""
        mechanism = self.data_class_mechanisms[data_class]
        if mechanism is Mechanism.OFF_CHAIN_PEER_DATA:
            return self._record_off_chain(data_class, submitter, key, value)
        if mechanism is Mechanism.SEPARATION_OF_LEDGERS_DATA:
            if data_class in self.encrypted_classes:
                return self._record_encrypted(data_class, submitter, key, value)
            return self._record_on_channel(submitter, key, value)
        if mechanism is Mechanism.ZKP_ON_DATA:
            raise PrivacyError(
                f"data class {data_class!r} uses ZKPs: call commit_value() "
                "and prove_at_least() instead of record()"
            )
        if mechanism is Mechanism.MULTIPARTY_COMPUTATION:
            raise PrivacyError(
                f"data class {data_class!r} uses MPC: call compute_sum() "
                "instead of record()"
            )
        raise GuideError(
            f"deployment builder does not handle {mechanism.value!r}"
        )

    def read(self, data_class: str, reader: str, key: str) -> Any:
        """Read back a value as *reader*, decrypting if the design encrypts."""
        mechanism = self.data_class_mechanisms[data_class]
        if mechanism is Mechanism.OFF_CHAIN_PEER_DATA:
            collection = self.network.channel(self.channel_name).collection(
                f"col-{data_class}"
            )
            return collection.get(reader, key)
        stored = self.network.channel(self.channel_name).state_of(reader).get(
            f"{data_class}/{key}"
        )
        if data_class in self.encrypted_classes:
            data_key = self._unwrap_for(data_class, reader)
            ciphertext = Ciphertext(
                nonce=bytes.fromhex(stored["nonce_hex"]),
                body=bytes.fromhex(stored["body_hex"]),
                tag=bytes.fromhex(stored["tag_hex"]),
            )
            from repro.common.serialization import from_canonical_json

            return from_canonical_json(data_key.decrypt(ciphertext).decode())
        return stored

    # -- mechanism-specific paths

    def _record_on_channel(self, submitter: str, key: str, value: Any):
        return self.network.invoke(
            self.channel_name, submitter, self.contract_id, "put",
            {"key": key, "value": value},
        )

    def _record_off_chain(self, data_class, submitter, key, value):
        return self.network.invoke(
            self.channel_name, submitter, self.contract_id, "put",
            {"key": f"{data_class}/{key}", "value": "see-collection"},
            collection_writes={f"col-{data_class}": {key: value}},
        )

    def _record_encrypted(self, data_class, submitter, key, value):
        from repro.common.serialization import canonical_bytes

        data_key = self._data_keys[data_class]
        ciphertext = data_key.encrypt(canonical_bytes(value), self._rng)
        record = {
            "nonce_hex": ciphertext.nonce.hex(),
            "body_hex": ciphertext.body.hex(),
            "tag_hex": ciphertext.tag.hex(),
        }
        return self.network.invoke(
            self.channel_name, submitter, self.contract_id, "put",
            {"key": f"{data_class}/{key}", "value": record},
        )

    def _unwrap_for(self, data_class: str, reader: str) -> SymmetricKey:
        wraps = self._key_wraps[data_class]
        if reader not in wraps:
            raise PrivacyError(f"{reader!r} holds no key wrap for {data_class!r}")
        elgamal = ElGamal(self.network.scheme.group)
        return elgamal.unwrap_key(self.network.party(reader).key, wraps[reader])

    def erase(self, data_class: str, key: str, reason: str = "gdpr") -> None:
        """Delete an off-chain record (only legal for deletable classes)."""
        mechanism = self.data_class_mechanisms[data_class]
        if mechanism is not Mechanism.OFF_CHAIN_PEER_DATA:
            raise PrivacyError(
                f"data class {data_class!r} is on-ledger; the design only "
                "permits deletion for off-chain classes"
            )
        collection = self.network.channel(self.channel_name).collection(
            f"col-{data_class}"
        )
        collection.purge(key, reason=reason, now=self.network.clock.now)

    # -- ZKP data classes: commitments + boolean affirmations

    def commit_value(self, data_class: str, submitter: str, key: str, value: int):
        """Publish a Pedersen commitment to *value* (value stays private)."""
        self._require_mechanism(data_class, Mechanism.ZKP_ON_DATA)
        prover = RangeProver(self.network.scheme.group)
        pedersen = PedersenScheme(prover.group)
        commitment, opening = pedersen.commit(value, self._rng)
        self._commitments[f"{data_class}/{key}"] = (commitment, opening, value)
        return self._record_on_channel(
            submitter, f"{data_class}/{key}", {"commitment": commitment.element}
        )

    def prove_at_least(
        self, data_class: str, key: str, threshold: int, bits: int = 16
    ) -> FundsProof:
        """Produce a 'value >= threshold' affirmation for a committed key."""
        self._require_mechanism(data_class, Mechanism.ZKP_ON_DATA)
        commitment, opening, value = self._commitments[f"{data_class}/{key}"]
        prover = RangeProver(self.network.scheme.group)
        return prove_sufficient_funds(
            prover, value, opening, threshold, bits,
            f"{data_class}/{key}".encode(), self._rng,
        )

    def verify_at_least(
        self, data_class: str, reader: str, key: str, proof: FundsProof
    ) -> bool:
        """Verify an affirmation against the on-chain commitment."""
        stored = self.network.channel(self.channel_name).state_of(reader).get(
            f"{data_class}/{key}"
        )
        prover = RangeProver(self.network.scheme.group)
        return verify_sufficient_funds(
            prover,
            Commitment(element=stored["commitment"]),
            proof,
            f"{data_class}/{key}".encode(),
        )

    # -- MPC data classes: shared functions over private inputs

    def compute_sum(
        self, data_class: str, submitter: str, key: str, inputs: dict[str, int]
    ):
        """Run MPC over private inputs; commit only the aggregate."""
        self._require_mechanism(data_class, Mechanism.MULTIPARTY_COMPUTATION)
        total, stats = secure_sum(
            inputs, rng=self._rng.fork(f"mpc-{data_class}-{key}")
        )
        result = self._record_on_channel(
            submitter, f"{data_class}/{key}",
            {"aggregate": total, "parties": len(inputs)},
        )
        return total, stats, result

    def _require_mechanism(self, data_class: str, mechanism: Mechanism) -> None:
        actual = self.data_class_mechanisms.get(data_class)
        if actual is not mechanism:
            raise PrivacyError(
                f"data class {data_class!r} uses {actual}, not {mechanism}"
            )


def build_deployment(
    design: SolutionDesign,
    requirements: UseCaseRequirements,
    parties: list[str],
    extra_network_members: list[str] | None = None,
    seed: str = "deployment",
) -> Deployment:
    """Construct a Fabric deployment implementing *design* for *parties*.

    Raises :class:`GuideError` for designs whose primary mechanisms need
    another platform (e.g. a tear-off-centric design belongs on Corda —
    consult :func:`repro.core.matrix.score_platforms`).
    """
    if len(parties) < 2:
        raise GuideError("a deployment needs at least two parties")
    network = FabricNetwork(
        seed=seed,
        orderer_operators=(
            (parties[0],)
            if not requirements.deployment.ordering_service_trusted
            else ("third-party",)
        ),
    )
    for party in list(parties) + list(extra_network_members or []):
        network.onboard(party)
    channel_name = f"{requirements.name}-channel"
    contract_id = f"{requirements.name}-contract"
    channel = network.create_channel(channel_name, list(parties))
    network.deploy_chaincode(
        channel_name, _record_chaincode(contract_id), list(parties)
    )

    deployment = Deployment(
        design=design,
        requirements=requirements,
        network=network,
        channel_name=channel_name,
        contract_id=contract_id,
        parties=list(parties),
        _rng=DeterministicRNG(seed + "-ops"),
    )

    elgamal = ElGamal(network.scheme.group)
    for rec in design.data_recommendations:
        deployment.data_class_mechanisms[rec.data_class] = rec.primary
        if rec.primary is Mechanism.OFF_CHAIN_PEER_DATA:
            channel.create_collection(f"col-{rec.data_class}", list(parties))
        if Mechanism.SYMMETRIC_ENCRYPTION in rec.supplementary:
            deployment.encrypted_classes.add(rec.data_class)
            data_key = SymmetricKey.generate(deployment._rng)
            deployment._data_keys[rec.data_class] = data_key
            deployment._key_wraps[rec.data_class] = {
                party: elgamal.wrap_key(
                    network.party(party).public_key, data_key, deployment._rng
                )
                for party in parties
            }
    return deployment
