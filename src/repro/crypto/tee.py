"""Simulated trusted execution environments.

Section 2.2: "TEEs are hardware security modules within a CPU that
guarantee confidentiality of executable code and data inside it...  Each
TEE owns a set of private keys that are embedded in the chip during
manufacturing, with the corresponding public keys held by the manufacturer.
The TEE can provide an attestation of its state and the code running inside
it, that can be signed by its private key, and is verifiable by the public
key."

Substitution (see DESIGN.md): we have no SGX hardware, so the enclave is a
software object that *enforces the same information-flow contract*:

- Code and data enter the enclave encrypted; the host only ever handles
  ciphertext and a measurement hash.
- Every interaction is recorded in the host-visible access log, so the
  leakage auditor can check the host learned nothing but ciphertext sizes.
- Remote attestation: the manufacturer certifies each enclave's device key;
  an attestation is a signature over (measurement, nonce, output-hash).
- Rollback protection (paper reference [6]): a monotonic counter is folded
  into every attestation; replaying a stale attestation is detectable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import AttestationError, CryptoError
from repro.common.rng import DeterministicRNG
from repro.common.serialization import canonical_bytes
from repro.crypto.hashing import tagged_hash
from repro.crypto.signatures import PrivateKey, PublicKey, SignatureScheme
from repro.crypto.symmetric import Ciphertext, SymmetricKey


@dataclass(frozen=True)
class Attestation:
    """Signed evidence of what ran inside which enclave.

    ``measurement`` identifies the code; ``counter`` is the enclave's
    monotonic counter (rollback detection); ``output_digest`` binds the
    attestation to the produced result.
    """

    enclave_id: str
    measurement: bytes
    nonce: bytes
    counter: int
    output_digest: bytes
    signature: Any  # Signature; typed loosely to avoid import cycles in dataclass


class Manufacturer:
    """Root of trust: provisions device keys and vouches for them.

    Plays Intel's role for SGX.  Relying parties hold the manufacturer's
    public key and the registry of genuine enclave device keys.
    """

    def __init__(self, name: str = "chipmaker") -> None:
        self.name = name
        self.scheme = SignatureScheme()
        self._rng = DeterministicRNG("tee-manufacturer:" + name)
        self._devices: dict[str, PublicKey] = {}
        self._counter = 0

    def provision(self) -> "Enclave":
        """Manufacture a new enclave with an embedded device key."""
        self._counter += 1
        enclave_id = f"enclave-{self._counter:04d}"
        device_key = self.scheme.keygen(self._rng.fork(enclave_id))
        self._devices[enclave_id] = device_key.public
        return Enclave(
            enclave_id=enclave_id,
            _device_key=device_key,
            _scheme=self.scheme,
            _rng=self._rng.fork("enclave-rng:" + enclave_id),
        )

    def device_public_key(self, enclave_id: str) -> PublicKey:
        """The registered public key of a genuine device."""
        if enclave_id not in self._devices:
            raise AttestationError(f"unknown enclave {enclave_id!r}")
        return self._devices[enclave_id]

    def verify_attestation(
        self,
        attestation: Attestation,
        expected_measurement: bytes,
        expected_nonce: bytes,
        minimum_counter: int = 0,
    ) -> None:
        """Raise :class:`AttestationError` unless the attestation is genuine,
        matches the expected code measurement and nonce, and is fresh."""
        public = self.device_public_key(attestation.enclave_id)
        payload = canonical_bytes(
            {
                "enclave_id": attestation.enclave_id,
                "measurement": attestation.measurement,
                "nonce": attestation.nonce,
                "counter": attestation.counter,
                "output_digest": attestation.output_digest,
            }
        )
        if not self.scheme.verify(public, payload, attestation.signature):
            raise AttestationError("attestation signature invalid")
        if attestation.measurement != expected_measurement:
            raise AttestationError("code measurement mismatch")
        if attestation.nonce != expected_nonce:
            raise AttestationError("attestation nonce mismatch (replay?)")
        if attestation.counter < minimum_counter:
            raise AttestationError(
                "monotonic counter regressed: possible rollback attack"
            )


def measure_code(code: Callable) -> bytes:
    """Measurement (code identity hash) of an enclave program.

    Hashes the function's compiled bytecode plus name, and — mirroring
    how SGX measures every loaded page, not just the entry point — any
    code reachable through the program's closure: captured functions
    contribute their bytecode, and captured objects exposing a
    ``code_measurement()`` (e.g. a :class:`SmartContract`) contribute it.
    Two programs differing only in captured logic therefore measure
    differently.
    """
    parts = [code.__code__.co_code, code.__qualname__.encode("utf-8")]
    for cell in code.__closure__ or ():
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        measure = getattr(value, "code_measurement", None)
        if callable(measure):
            parts.append(str(measure()).encode("utf-8"))
        elif callable(value) and hasattr(value, "__code__"):
            parts.append(value.__code__.co_code)
    return tagged_hash("repro/tee/measurement", b"|".join(parts))


@dataclass
class _HostLogEntry:
    """What the untrusted host observed for one enclave interaction."""

    operation: str
    visible_bytes: int


@dataclass
class Enclave:
    """A provisioned enclave: load code, run it on sealed inputs, attest.

    The host-facing API only ever accepts and returns ciphertext; the
    plaintext path exists solely inside method bodies, which models the
    hardware isolation boundary.  ``host_log`` records everything the host
    could observe (operation names and ciphertext sizes only).
    """

    enclave_id: str
    _device_key: PrivateKey
    _scheme: SignatureScheme
    _rng: DeterministicRNG
    _code: Callable | None = None
    _measurement: bytes | None = None
    _monotonic_counter: int = 0
    host_log: list[_HostLogEntry] = field(default_factory=list)

    def load(self, code: Callable) -> bytes:
        """Load a program; returns its measurement for attestation checks."""
        self._code = code
        self._measurement = measure_code(code)
        self.host_log.append(_HostLogEntry("load", len(self._measurement)))
        return self._measurement

    def establish_session_key(self, rng: DeterministicRNG) -> SymmetricKey:
        """Return a key callers use to encrypt inputs for this enclave.

        In real SGX this is an ECDH handshake bound to the attestation; the
        simulation returns a shared key directly while logging only the
        handshake event to the host.
        """
        key = SymmetricKey.generate(rng)
        self._session_key = key
        self.host_log.append(_HostLogEntry("key-exchange", 32))
        return key

    def execute(
        self, encrypted_input: Ciphertext, nonce: bytes
    ) -> tuple[Ciphertext, Attestation]:
        """Run the loaded code on an encrypted input.

        The host passes ciphertext in and receives ciphertext out, plus a
        signed attestation binding (code, counter, output) together.
        """
        if self._code is None or self._measurement is None:
            raise CryptoError("no code loaded into the enclave")
        session = getattr(self, "_session_key", None)
        if session is None:
            raise CryptoError("no session key established")
        self.host_log.append(_HostLogEntry("execute-input", encrypted_input.wire_size()))
        # ---- inside the isolation boundary ---------------------------------
        from repro.common.serialization import from_canonical_json

        plaintext = session.decrypt(encrypted_input)
        arguments = from_canonical_json(plaintext.decode("utf-8"))
        result = self._code(arguments)
        self._monotonic_counter += 1
        result_bytes = canonical_bytes(result)
        encrypted_output = session.encrypt(result_bytes, self._rng)
        # ---- back on the host side -----------------------------------------
        output_digest = tagged_hash("repro/tee/output", result_bytes)
        payload = canonical_bytes(
            {
                "enclave_id": self.enclave_id,
                "measurement": self._measurement,
                "nonce": nonce,
                "counter": self._monotonic_counter,
                "output_digest": output_digest,
            }
        )
        attestation = Attestation(
            enclave_id=self.enclave_id,
            measurement=self._measurement,
            nonce=nonce,
            counter=self._monotonic_counter,
            output_digest=output_digest,
            signature=self._scheme.sign(self._device_key, payload),
        )
        self.host_log.append(_HostLogEntry("execute-output", encrypted_output.wire_size()))
        return encrypted_output, attestation
