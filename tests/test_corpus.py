"""Every public entry point on the seeded corpus (tests/corpus.py), under every tuning setting.

Each case runs through ``dqc1_distribution``, ``f_value``,
``amplitude_zero``, ``apply_circuit`` and ``sample``, and the corpus's
ensembles through ``verify_chain``, once per run in ``_RUNS``: the default
tuning constants and two sets patched small, at 1-3 threads.  The checks:

* the output bytes are the same in every run;
* on every case, up to the corpus's width of 10, they agree with
  ``oracles.circuit_unitary`` (and with ``density_matrix_dqc1`` up to its
  cap, n = 6) within the first-order bound of the ``dqc1_distribution``
  docstring, (2 gates + n) ulp(1) 2**-n on a probability, scaled to each
  output;
* ``f_value(u, z) == 2**n p_z`` on every case, which checks the single
  pass against the plan;
* every p that ``verify_chain`` hands its sampler is the bytes of
  ``dqc1_distribution`` on that circuit, wherever the run's chunk
  constants put the boundaries of the batches that share a run;
* one pinned sha256 per entry point.

The single passes run the adjoint of a case: f_value(u, z) does, and
amplitude_zero reads <row| U^dagger |col> from the adjoint between X
layers.  dqc1_distribution and apply_circuit run the case itself.
"""

import hashlib
import math
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import dqc1sim.hardness as hardness
import dqc1sim.simulator as sim
from corpus import BLOCK_CASES, CASES, ENSEMBLES, REAL_KINDS
from dqc1sim.circuits import Circuit, adjoint, s, sdg, x
from dqc1sim.ensembles import parse_ensemble_spec
from dqc1sim.hardness import ErrorBudget, SamplerModel, verify_chain
from dqc1sim.oracles import circuit_unitary, density_matrix_dqc1
from dqc1sim.simulator import StateVector, amplitude_zero, apply_circuit, dqc1_distribution, f_value, sample

# Tuning constants that no output byte may depend on, and the values each
# setting patches in.  Chunks of one to a few columns split every slot and
# leave some chunks without a start entry; a floor of one entry lets every
# chunk halve for threads; temporaries of 4 or 16 entries split every swap,
# norm and diagonal run into blocks, and rows of 1 or 2 bits put most gates
# of a run on the row-selecting axes.
_PATCHED = ("_CHUNK_ENTRIES", "_MIN_CHUNK_ENTRIES", "_TEMP_ENTRIES", "_ROW_BITS")
_SETTINGS = {"default": None, "small": (1 << 6, 1 << 3, 4, 2), "tiny": (1 << 3, 1, 16, 1)}
# (setting, threads) of each run.  dqc1_distribution and verify_chain take
# the threads; the single passes of a run are spread over that many worker
# threads, in the runs that also patch the constants.
_RUNS = [("default", 1), ("default", 2), ("default", 3), ("small", 3), ("tiny", 2)]
_PASS_RUNS = [("default", 1), ("small", 3), ("tiny", 2)]
_ULP = np.spacing(1.0)


def _flips(i: int, w: int) -> tuple:
    return tuple(x(q) for q in range(w) if i >> (w - 1 - q) & 1)


def _inputs(name: str, u: Circuit) -> tuple:
    """Seeded per case: the z of f_value, the (row, col) of amplitude_zero, and the starts of apply_circuit."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    w = u.width
    zs = list(range(1 << w)) if w <= 4 else [0, (1 << w) - 1, *rng.integers(1 << w, size=6).tolist()]
    pairs = [(0, 0), *zip(rng.integers(1 << w, size=3).tolist(), rng.integers(1 << w, size=3).tolist())]
    psi = (rng.standard_normal(1 << w) + 1j * rng.standard_normal(1 << w)) * math.ldexp(1.0, -(w // 2))
    return zs, pairs, [0, int(rng.integers(1 << w))], psi


def _passes(case: tuple) -> dict:
    """The single-pass outputs of one case, as bytes."""
    name, u = case
    w = u.width
    zs, pairs, cols, psi = _inputs(name, u)
    back = adjoint(u).gates
    amps = [amplitude_zero(Circuit(w, _flips(col, w) + back + _flips(row, w))) for row, col in pairs]
    states = [apply_circuit(StateVector.basis(w, col), u).amplitudes for col in cols]
    states.append(apply_circuit(StateVector(w, psi), u).amplitudes)
    return {
        "f_value": np.array([f_value(u, z) for z in zs]).tobytes(),
        "amplitude_zero": np.array(amps).tobytes(),
        "apply_circuit": np.concatenate(states).tobytes(),
    }


def _chain_reports(threads: int, seen: list) -> list:
    """The report of each ensemble, and the bytes of each p the chain hands the sampler appended to ``seen``."""
    noisy = hardness.make_noisy_distribution

    def spy(p, model):
        seen.append(p.probs.tobytes())
        return noisy(p, model)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hardness, "make_noisy_distribution", spy)
        reports = [
            verify_chain(parse_ensemble_spec(spec), SamplerModel.mass_shift(1 / 72), ErrorBudget(), threads=threads)
            for spec in ENSEMBLES
        ]
    return [repr(r).encode() for r in reports]


@pytest.fixture(scope="module")
def runs() -> dict:
    """{entry point: {(setting, threads): [bytes per case or ensemble]}}."""
    out: dict = {}
    for order, (setting, threads) in enumerate(_RUNS):
        with pytest.MonkeyPatch.context() as mp:
            for name, value in zip(_PATCHED, _SETTINGS[setting] or ()):
                mp.setattr(sim, name, value)
            # Every other run goes backwards, so each case meets the layout
            # cache that a different neighbour left.
            cases = CASES[::-1] if order % 2 else CASES
            dists = {name: dqc1_distribution(u, threads=threads) for name, u in cases}
            out.setdefault("dqc1_distribution", {})[setting, threads] = [dists[n].probs.tobytes() for n, _ in CASES]
            out.setdefault("sample", {})[setting, threads] = [
                " ".join(sample(dists[n], 16, zlib.crc32(n.encode()))).encode() for n, _ in CASES
            ]
            seen: list = []
            out.setdefault("verify_chain", {})[setting, threads] = _chain_reports(threads, seen)
            members = [u for spec in ENSEMBLES for u in parse_ensemble_spec(spec).circuits]
            alone = [dqc1_distribution(u).probs.tobytes() for u in members]
            out.setdefault("chain_p", {})[setting, threads] = (seen, alone)
            if (setting, threads) in _PASS_RUNS:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    passes = list(pool.map(_passes, CASES))
                for entry in passes[0]:
                    out.setdefault(entry, {})[setting, threads] = [p[entry] for p in passes]
    return out


_ENTRIES = ("dqc1_distribution", "f_value", "amplitude_zero", "apply_circuit", "sample", "verify_chain")
# The corpus's groups, in case order.  The per-case checks run once per
# group, so a failure names the edge structure whose cases broke.
_GROUPS = list(dict.fromkeys(n.split(":", 1)[0] for n, _ in CASES))


def _group(group: str) -> list:
    """The (index, name, circuit) of each case in ``group``."""
    return [(i, n, u) for i, (n, u) in enumerate(CASES) if n.startswith(f"{group}:")]


@pytest.mark.parametrize(
    "entry, group", [(e, g) for e in _ENTRIES if e != "verify_chain" for g in _GROUPS] + [("verify_chain", "ensembles")]
)
def test_bytes_do_not_depend_on_tuning_or_threads(runs, entry, group):
    picked = list(enumerate(ENSEMBLES)) if entry == "verify_chain" else [(i, n) for i, n, _ in _group(group)]
    (first, want), *others = runs[entry].items()
    for run, got in others:
        moved = [n for i, n in picked if want[i] != got[i]]
        assert moved == [], (run, first)


def test_chain_sees_each_distribution(runs):
    # The chain runs consecutive same-shape plans as one batch; each p it
    # hands the sampler is still the distribution of its own circuit.
    for run, (seen, want) in runs["chain_p"].items():
        assert len(seen) == len(want) and seen == want, run


# sha256 of each entry point's bytes over the corpus, in case order.
_DIGESTS = {
    "dqc1_distribution": "b085834da4c5ef9388bdea22fca62ef0595728719e8579e360cc5788e3615163",
    "f_value": "ae5de8fe14fcd24d8a71c7eafbba2dc49abcc2e19a0cd4ec893e5205587243c1",
    "amplitude_zero": "149b9eb8387550dffae83254116bf8acb293fa01b276839ff9983efd17ff2690",
    "apply_circuit": "fded9d2cac1cfa46686657c4c73eec00d771c1c7b3ce1063f33c891e72dd7f1d",
    "sample": "b9ed6035895284c766ab7f975de60857051080b4a33317cc8f48296626166166",
    "verify_chain": "6cd9b0830ef3b849beaba3bc43b4965aa6edf54be3a9e7ed5c3387f0c2d25e84",
}


@pytest.mark.parametrize("entry", _ENTRIES)
def test_pinned_digest(runs, entry):
    digest = hashlib.sha256()
    for item in runs[entry]["default", 1]:
        digest.update(item)
    assert digest.hexdigest() == _DIGESTS[entry]


# sha256 of the dqc1_distribution bytes of the corpus case block:<name>, computed
# with the dense runner that swept every row of a chunk at every step.
_BLOCK_DIGESTS = {
    'h_on_settled_0': 'fe04e66a091807246bf1846c3d06e8ae40617757fe4f108ec2f65b3393c35e0c',
    'h_on_settled_1': '25493ecc62734a68fad443881a595d122cb7a93ddf9d07e5ec2060baf84f03fd',
    'x_moves_block': 'e8f0b94a01f08de509857d0ab7922edbf677aa2550815780883cee80c5960752',
    'cx_onto_settled': '22f0506c722a43dd9681b4d40329323e0d556b83093bfc26575abb36276cc044',
    'mcx_onto_settled': '4cdc09605e2288096419b9149648cad52c49a54e8104843436016291a2fe3fc6',
    'sums_and_empty_chunks': 'c91348d38056c049f0ee3d72653bf9e8b0dded480de13f4c605fb2cfe29b839f',
    'embedding': 'd445dbe29001bd650901dc2d3321bdf7adcd8026a5150b0aaa56e67b77d2e047',
    'pair_u2': 'c2251f4ea6024a3b3c394c866fe5dc5a76489faaf7b2521fec3e0992356171a6',
}


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_block_digests(runs, name):
    dist = dict(zip((n for n, _ in CASES), runs["dqc1_distribution"]["default", 1]))
    assert hashlib.sha256(dist[f"block:{name}"]).hexdigest() == _BLOCK_DIGESTS[name]


def _bound(u: Circuit) -> float:
    """The docstring bound on one probability, (2 gates + n) ulp(1) 2**-n."""
    n = u.width - 1
    return (2 * len(u.gates) + n) * _ULP * 2.0**-n


@pytest.fixture(scope="module")
def oracle() -> dict:
    """{name: {entry point: what circuit_unitary gives for its output}}.

    Each matrix is read and dropped in turn: the corpus's matrices take
    about 230 MiB together, the values read from them a few MiB.
    """
    out = {}
    for name, u in CASES:
        m = circuit_unitary(u)
        n = u.width - 1
        zs, pairs, cols, psi = _inputs(name, u)
        out[name] = {
            "dqc1_distribution": np.sum(np.abs(m[:, : 1 << n]) ** 2, axis=1) * 2.0**-n,
            "f_value": np.sum(np.abs(m[zs, : 1 << n]) ** 2, axis=1),
            "amplitude_zero": np.conj([m[col, row] for row, col in pairs]),
            "apply_circuit": np.concatenate([m[:, col] for col in cols] + [m @ psi]),
        }
    return out


def _outputs(runs, entry: str, dtype) -> dict:
    return {n: np.frombuffer(b, dtype=dtype) for (n, _), b in zip(CASES, runs[entry]["default", 1])}


@pytest.mark.parametrize("group", _GROUPS)
def test_distributions_against_oracles(runs, oracle, group):
    dists = _outputs(runs, "dqc1_distribution", np.float64)
    for _, name, u in _group(group):
        p = dists[name]
        assert p.min() >= 0.0, name
        assert np.abs(p - oracle[name]["dqc1_distribution"]).max() <= _bound(u), name
        if u.width - 1 <= 6:
            assert np.abs(p - density_matrix_dqc1(u).probs).max() <= _bound(u), name


@pytest.mark.parametrize("group", _GROUPS)
def test_single_passes_against_oracle(runs, oracle, group):
    # On the scale of f, 2**n p: (2 gates + n) ulp(1), for amplitudes too.
    for entry, dtype in (("f_value", np.float64), ("amplitude_zero", np.complex128), ("apply_circuit", np.complex128)):
        got = _outputs(runs, entry, dtype)
        for _, name, u in _group(group):
            tol = _bound(u) * 2.0 ** (u.width - 1)
            assert np.abs(got[name] - oracle[name][entry]).max() <= tol, (entry, name)


@pytest.mark.parametrize("group", _GROUPS)
def test_f_value_is_2n_p(runs, group):
    # The single pass against the plan, on every case: f_value(u, z) is
    # 2**n p_z within the bound on both.
    fs = _outputs(runs, "f_value", np.float64)
    dists = _outputs(runs, "dqc1_distribution", np.float64)
    for _, name, u in _group(group):
        scale = 2.0 ** (u.width - 1)
        assert np.abs(fs[name] - scale * dists[name][_inputs(name, u)[0]]).max() <= 2 * scale * _bound(u), name


def test_real_pass_has_the_complex_bits(runs):
    # S then SDG before the adjoint's gates act on a settled qubit: a scalar
    # phase that f_value drops, but the kinds are no longer real, so the
    # pass runs in complex128.
    fs = _outputs(runs, "f_value", np.float64)
    real = [(name, u) for name, u in CASES if {g.kind for g in u.gates} <= set(REAL_KINDS)]
    assert len(real) > 40
    for name, u in real:
        c = Circuit(u.width, u.gates + (s(0), sdg(0)))
        assert np.array([f_value(c, z) for z in _inputs(name, u)[0]]).tobytes() == fs[name].tobytes(), name
