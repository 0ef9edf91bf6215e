"""Wall-clock self time by layer, from a cProfile of a driver run.

Each profiled function belongs to a layer by the module that defines it
(``repro/crypto`` -> crypto, and so on; the standard ``json`` package
counts as serialization).  Built-ins and other library code have no layer
of their own: their self time goes to the layers of their callers, in
proportion to the time each caller spent in them, so ``pow`` called from
``repro.crypto.groups`` is crypto time and a ``dict`` copy made by the
world state is ledger time.

Profiling adds a cost to every Python call, so these numbers are shares
of a slowed-down run; the untraced run gives the real milliseconds.
"""

from __future__ import annotations

import os

LAYERS = (
    "crypto", "serialization", "network", "execution", "ledger",
    "platform", "telemetry", "driver", "other",
)

_PACKAGE_LAYERS = {
    "crypto": "crypto",
    "network": "network",
    "execution": "execution",
    "ledger": "ledger",
    "platforms": "platform",
    "telemetry": "telemetry",
    "driver": "driver",
}

#: Functions whose call counts are reported per transaction:
#: metric suffix -> (module path under ``repro/``, function name).
COUNTED = {
    "signs_per_tx": ("crypto/signatures.py", "sign"),
    "verifies_per_tx": ("crypto/signatures.py", "_verify_uncached"),
    "modexp_per_tx": ("crypto/groups.py", "exp"),
    "encodes_per_tx": ("common/serialization.py", "canonical_json"),
    "state_copies_per_tx": ("ledger/state.py", "snapshot"),
}


class LayerProfile:
    """Accumulates per-layer self time and counted calls across runs."""

    def __init__(self, package_dir: str) -> None:
        self.package_dir = os.path.realpath(package_dir) + os.sep
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(COUNTED, 0)
        self._own: dict[str, str | None] = {}

    def _own_layer(self, filename: str) -> str | None:
        """Layer of code defined in *filename*, or None for library code."""
        if filename not in self._own:
            path = os.path.realpath(filename) if filename != "~" else filename
            layer = None
            if path.startswith(self.package_dir):
                relative = path[len(self.package_dir):]
                if relative == os.path.join("common", "serialization.py"):
                    layer = "serialization"
                else:
                    package = relative.split(os.sep, 1)[0]
                    layer = _PACKAGE_LAYERS.get(package, "other")
            elif os.sep + "json" + os.sep in path:
                layer = "serialization"
            self._own[filename] = layer
        return self._own[filename]

    def add(self, stats: dict) -> None:
        """Fold one ``pstats.Stats(...).stats`` table into the totals."""
        shares: dict = {}

        def share(func, visiting: frozenset) -> dict[str, float]:
            if func in shares:
                return shares[func]
            layer = self._own_layer(func[0])
            if layer is not None:
                result = {layer: 1.0}
            else:
                result = {}
                callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
                weight_total = 0.0
                for caller, edge in callers.items():
                    if caller in visiting or caller not in stats:
                        continue
                    weight = edge[2]
                    if weight <= 0.0:
                        continue
                    for name, part in share(caller, visiting | {func}).items():
                        result[name] = result.get(name, 0.0) + part * weight
                    weight_total += weight
                if weight_total > 0.0:
                    result = {k: v / weight_total for k, v in result.items()}
                else:
                    result = {"other": 1.0}
            shares[func] = result
            return result

        for func, (__, ncalls, self_time, __, __) in stats.items():
            for name, part in share(func, frozenset()).items():
                self.seconds[name] += self_time * part
            filename, __, funcname = func
            for metric, (module, function) in COUNTED.items():
                if funcname == function and filename.endswith(
                    os.sep + os.path.join("repro", module)
                ):
                    self.calls[metric] += ncalls
