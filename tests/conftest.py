"""Fixtures shared across test modules: the exp4 family run and the artifact digests."""

import hashlib

import pytest

from malctrl.experiments import ExperimentSpec, run_experiment

# sha256 of every artifact the seeded runs write, by path under the output
# directory.  exp2 is the population-5 run (rng_seed 7); the other families
# run with their defaults.  Any change to an artifact's bytes shows here.
ARTIFACT_SHA256 = {
    "exp1_case1/samples.csv": "c21fd75bc905f11175d43d45ff3a1e7753b57e54422da1db88ebdc0910b80840",
    "exp1_case1/summary.json": "503acd622dc06368ec73855312bb2faa8e9b3cccdae298b10f84c9e33a98915e",
    "exp1_case1/totals.csv": "af8d99feddc71afd791b12b237df315aa5b4f0edccc58d1f832a9db9a2fb092b",
    "exp2/summary.json": "bc9ae5c04f4a4504a27d43c43895558518d80d51ecb8c454dac4eeb3c591a87b",
    "exp3/controlled_totals.csv": "c277ddcf87ee0adc043f8acebbfd56ce96990b6c09fa8976b4294805a4605820",
    "exp3/summary.json": "cfcfcb61c426f5e47460db8e16b153f4f197e91af99e284200763ba257fb52fa",
    "exp3/uncontrolled_totals.csv": "1aa9404e9f6e1d2fbbc5163d7a1e7e4131baf9de2cccf3dba4f47aa2924c92f3",
    "exp4_stage1/optimal_totals.csv": "426ae77e11841b753b3b13dfd051f80eb678fb0a50da100f9cfab6b42234a610",
    "exp4_stage1/propagation_totals.csv": "1d0f22058150a0774c354d23df63603fb5b8785cba1ceed6fb791444965fe5f2",
    "exp4_stage1/summary.json": "9d66bce413e5d5ec735ffcdec9300e4c8fde91b80007ed85f5fcff559b7707d3",
    "exp4_stage2/optimal_totals.csv": "a9dcf26d82815410bf5327bba0449977bcd0081f02cd59a9829dee4d64dd5206",
    "exp4_stage2/propagation_totals.csv": "54124a0ecae454a6ae59c1440d0c3b40b4c8a4920f9f9b9314ce0c1899611b68",
    "exp4_stage2/summary.json": "04d975d440dd33626009a15979743fc8661eb8cf84f56945b90f0fbe7adb904c",
    "exp4_stage3/optimal_totals.csv": "d02e5e3afedb999e45926c7f4c550e07b6b6cbec81cfb604a83715791c692b14",
    "exp4_stage3/propagation_totals.csv": "56f431ac36235b9f905f37d4a83788b07900f8eb4a5291d065d7f3970b844e40",
    "exp4_stage3/summary.json": "04f914699a55debc64b2a692c04c01e6a42e3674d4cb66158cd48b1c10ec2388",
    "exp4_stage4/optimal_totals.csv": "bff010c418bd87df10b85edae20c84eb28b799cac8009b586a0cd44a039be5c5",
    "exp4_stage4/propagation_totals.csv": "d44095c109b7960888fe592e6e39cf57cfc711580e16946e47eee9aa0d70e1cc",
    "exp4_stage4/summary.json": "669ba031a93eab95ce018245968792688a0045496e7acfe55629f0473b11be05",
    "exp4_summary.json": "adc1bbf469cd13333d33470b7522b645554b30e12f1d046d875096aef571acf4",
}


def artifact_digests(root) -> dict:
    """sha256 of every file under ``root``, by its POSIX path relative to ``root``."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.fixture(scope="session")
def recorded_artifacts():
    """Check that the files under a run's output directory have the recorded digests."""
    def check(root):
        found = artifact_digests(root)
        assert found and found == {name: ARTIFACT_SHA256.get(name) for name in found}
    return check


@pytest.fixture(scope="session")
def exp4_run(tmp_path_factory):
    """The whole exp4 family, run once per session: (summary, output directory)."""
    out = tmp_path_factory.mktemp("exp4")
    return run_experiment(ExperimentSpec("exp4", out_dir=out)), out
