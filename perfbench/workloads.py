"""Workload definitions: the operations each workload issues, in order.

One operation is one ``cli.run_study`` or ``cli.run_sample_path`` call.
Every configuration is spelled out in full (not merged onto the CLI
defaults) so that a later change of the defaults cannot silently change
what the benchmark measures.  The values match the defaults of the
``stochheat`` CLI at the commit that introduced the benchmark.

``smoke`` selects tiny sizes of the same operations for the tests.
"""

from dataclasses import dataclass

WORKLOADS = ("exact-time", "exact-space", "sampled")

# Slope bands of acceptance criteria 1-4 (and 8 for deterministic-cn),
# applied only to the full-size operations whose configuration is the
# one those criteria run.
_INF = float("inf")


@dataclass(frozen=True)
class Op:
    name: str        # key into reference.json
    kind: str        # "study" or "sample-path"
    config: str      # key = value text, parsed by cli.parse_config_text
    band: tuple = None   # (lo, hi) acceptance band for the fitted slope

    def get(self, key, default=""):
        for line in self.config.splitlines():
            k, _, v = line.partition("=")
            if k.strip() == key:
                return v.strip()
        return default

    @property
    def samples(self):
        return int(self.get("samples", "0"))


def _cfg(**kv):
    return "".join("%s = %s\n" % (k, v) for k, v in kv.items())


def _levels(lo, hi):
    return ",".join(str(e) for e in range(lo, hi + 1))


def _full(seed):
    return {
        "exact-time": [
            Op("tdr-default", "study", _cfg(
                study="tdr", horizon="1.0", seed=0, samples=0, n_star=1024,
                j_star=1024, K=4096, dtau_levels=_levels(4, 9), window=4),
               (0.20, _INF)),
            Op("model-space-default", "study", _cfg(
                study="model-space", horizon="1.0", seed=0, samples=0,
                n_star=2 ** 16, K=8192, dx_levels=_levels(3, 8), window=6),
               (0.42, 0.58)),
            Op("model-time-default", "study", _cfg(
                study="model-time", horizon="1.0", seed=0, samples=0,
                j_star=1024, K=8192, dt_levels=_levels(4, 12), window=4),
               (0.20, 0.30)),
        ],
        "exact-space": [
            Op("sdr-default", "study", _cfg(
                study="sdr", horizon="1.0", seed=0, samples=0, n_star=4096,
                j_star=1024, K=4096, M=4096, h_levels=_levels(3, 7),
                window=4),
               (0.42, 0.62)),
            Op("total-default", "study", _cfg(
                study="total", horizon="1.0", seed=0, samples=0,
                n_star=4096, j_star=1024, K=4096, M=4096,
                h_levels=_levels(3, 7), window=4)),
        ],
        "sampled": [
            Op("tdr-mc", "study", _cfg(
                study="tdr", horizon="1.0", seed=seed, samples=200,
                n_star=256, j_star=256, K=1024, dtau_levels=_levels(4, 8),
                window=4)),
            Op("sdr-mc", "study", _cfg(
                study="sdr", horizon="1.0", seed=seed, samples=50,
                n_star=256, j_star=256, K=1024, M=256,
                h_levels=_levels(3, 6), window=4)),
            Op("sample-path", "sample-path", _cfg(
                horizon="1.0", seed=seed, n_star=1024, j_star=1024, M=1024,
                mesh=512)),
            Op("deterministic-cn-space", "study", _cfg(
                study="deterministic-cn", horizon="1.0", seed=0, samples=0,
                axis="space", M=4096, dtau_levels=_levels(4, 10),
                h_levels=_levels(3, 7), window=4),
               (1.8, _INF)),
        ],
    }


def _smoke(seed):
    return {
        "exact-time": [
            Op("tdr-smoke", "study", _cfg(
                study="tdr", horizon="1.0", seed=0, samples=0, n_star=64,
                j_star=64, K=256, dtau_levels=_levels(2, 5), window=3)),
            Op("model-space-smoke", "study", _cfg(
                study="model-space", horizon="1.0", seed=0, samples=0,
                n_star=1024, K=512, dx_levels=_levels(2, 5), window=4)),
            Op("model-time-smoke", "study", _cfg(
                study="model-time", horizon="1.0", seed=0, samples=0,
                j_star=64, K=512, dt_levels=_levels(2, 6), window=4)),
        ],
        "exact-space": [
            Op("sdr-smoke", "study", _cfg(
                study="sdr", horizon="1.0", seed=0, samples=0, n_star=256,
                j_star=64, K=256, M=256, h_levels=_levels(2, 5), window=3)),
            Op("total-smoke", "study", _cfg(
                study="total", horizon="1.0", seed=0, samples=0,
                n_star=256, j_star=64, K=256, M=256,
                h_levels=_levels(2, 5), window=3)),
        ],
        "sampled": [
            Op("tdr-mc-smoke", "study", _cfg(
                study="tdr", horizon="1.0", seed=seed, samples=20,
                n_star=32, j_star=32, K=128, dtau_levels=_levels(2, 4),
                window=3)),
            Op("sdr-mc-smoke", "study", _cfg(
                study="sdr", horizon="1.0", seed=seed, samples=10,
                n_star=32, j_star=32, K=128, M=32, h_levels=_levels(2, 4),
                window=3)),
            Op("sample-path-smoke", "sample-path", _cfg(
                horizon="1.0", seed=seed, n_star=64, j_star=64, M=64,
                mesh=32)),
            Op("deterministic-cn-space-smoke", "study", _cfg(
                study="deterministic-cn", horizon="1.0", seed=0, samples=0,
                axis="space", M=256, dtau_levels=_levels(2, 4),
                h_levels=_levels(2, 4), window=3)),
        ],
    }


def ops(workload, seed, smoke=False):
    """The operations of ``workload``; only ``sampled`` depends on ``seed``."""
    table = (_smoke if smoke else _full)(seed)
    if workload not in table:
        raise KeyError("unknown workload %r" % workload)
    return table[workload]


def all_ops(seed=0):
    """Every operation of every workload, full size and smoke size."""
    return [op for table in (_full(seed), _smoke(seed))
            for wl in WORKLOADS for op in table[wl]]


def cn_steps(op):
    """Crank-Nicolson time steps the operation takes, 0 if it steps none.

    A sample path steps M times; deterministic-cn along space steps the
    spectral reference once and the FEM scheme once per mesh level.
    """
    M = int(op.get("M", "0"))
    if op.kind == "sample-path":
        return M
    if op.get("study", "") == "deterministic-cn":
        levels = op.get("h_levels", "").split(",")
        return M * (1 + len(levels))
    return 0


def mc_samples(op):
    """Monte Carlo samples the operation draws (samples per level)."""
    if op.kind != "study" or op.samples < 2:
        return 0
    key = {"tdr": "dtau_levels", "sdr": "h_levels",
           "total": "h_levels"}.get(op.get("study", ""))
    if key is None:
        return 0
    return op.samples * len(op.get(key, "").split(","))
