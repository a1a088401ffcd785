"""Fixtures shared across test modules: the exp1 and exp4 family runs and the artifact digests."""

import hashlib

import pytest

from malctrl.experiments import ExperimentSpec, run_experiment

# sha256 of every artifact the seeded runs write, by path under the output
# directory.  exp2 is the population-5 run (rng_seed 7); the other families
# run with their defaults.  The command-line artifacts come from
# configs/case1_instance.json (``optimize_<run>/``, ``rgcs_compare_20.json``)
# and configs/canonical_spec.json (``canonical_graph.json``); test_cli.py
# names the solver block of each optimize run.  Any change to an artifact's
# bytes shows here.
ARTIFACT_SHA256 = {
    "canonical_graph.json": "754caacaaf21d3ea3ff12fbaf55be030f80e5fbc65f42e69e219101aab61df71",
    "exp1_case1/samples.csv": "c21fd75bc905f11175d43d45ff3a1e7753b57e54422da1db88ebdc0910b80840",
    "exp1_case1/summary.json": "503acd622dc06368ec73855312bb2faa8e9b3cccdae298b10f84c9e33a98915e",
    "exp1_case1/totals.csv": "af8d99feddc71afd791b12b237df315aa5b4f0edccc58d1f832a9db9a2fb092b",
    "exp1_case2/samples.csv": "b5bebe470d0e1719a811e75ce581f46a6fc1b2514f8c8e2723ac8c8d7ad5f89a",
    "exp1_case2/summary.json": "f7cdc81b1358c49724419ba7fc16722867a9b7f5e8bf6c0b4af68313b9adfffb",
    "exp1_case2/totals.csv": "adefb957082a7c7c076c9d7faff1c3d62d95d52fb516c390324ff544438c7aed",
    "exp1_case3/samples.csv": "d895dbb07c0924a090e1a0bc8c92e65b7163d5b1243478f0ff1cf0f8acefa358",
    "exp1_case3/summary.json": "1bf79f4231273f350b473c0ecf9554ab80baa3e2091751dedb830f20c6929ff0",
    "exp1_case3/totals.csv": "d72bd74c801c53cb4dd9c8cac000b25ef8463a853b863e88c25b876f1ff3c322",
    "exp1_case4/samples.csv": "d6eb680f3a349c9cc6d13dbed48219cfe0a198cf6969360ad030d6e54f747ac7",
    "exp1_case4/summary.json": "e350be8bad7c3b4a898d47d5c10df0350d7d8b7b86d4477a7577a717c2e27fcb",
    "exp1_case4/totals.csv": "c38b259be2e9ab40a38b722d71519e1f5d8caccc49cb59674acd927e04616c94",
    "exp1_summary.json": "cd69934dbc6eeb96cf2f736b13c9504c764d7f58ebb8dddaa47430580879c8bd",
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
    "optimize_consistent/adjoint.csv": "062d357f92c7aa7e906a028827de2b08e302559ee5de35498aa2489fcccfed5c",
    "optimize_consistent/control.csv": "00d76ffc931e8fe3819c171dd6ffd637220ad6f7c277a763a924cb23f5a2724f",
    "optimize_consistent/objective.json": "d7b9bb929e38a2cc6e4abdace7e7462dde4da4268519ac5b9e1c9cc0c16d3614",
    "optimize_consistent/state.csv": "46ac5e6dc55db9c97117a596b04a848735f0284b7b17f069979de267c0e80bec",
    "optimize_consistent/sweep_report.json": "1d54dfaee52105e7c19baa2eb407e74639c1eeaae8711d8e2c8123ad54d043c8",
    "optimize_max_iter_3/adjoint.csv": "e01412f005a14bbcf6778a28c59c196c2e55f389f65075977da647102ee66ea1",
    "optimize_max_iter_3/control.csv": "e3544865b45ecd28cb489b61c7e4592a24bbce8c96dcff7ad6bbf0ed5cee3022",
    "optimize_max_iter_3/objective.json": "359b5778c53c4485e36bf9f808464b05677b170d35e91cfe6df256868f69dfb7",
    "optimize_max_iter_3/state.csv": "ada1f893c3a8385aeda01d89b80f0aa6eb2267d1626e900bcf70d1fd379c1b8d",
    "optimize_max_iter_3/sweep_report.json": "2cef57e3882a9d2bdc92a0faaa23b5bde7cb725ca55495876e0052eb8a1b1396",
    "optimize_paper/adjoint.csv": "841f290b4c4d41931e81f4a751131855c6b56e5758ac2e781b45564189bbdfcb",
    "optimize_paper/control.csv": "4a793c6a2b0827487adffee252f7d1354335eb27ff2a519387658d941257381e",
    "optimize_paper/objective.json": "9dc890e8478262605ad019278a3ec8df992b3313e0c8976e5be64b5d79663f1e",
    "optimize_paper/state.csv": "ab78c265f4f28b27b802ff942dcf1457a1dd159f14845a12009f293f8b428a1f",
    "optimize_paper/sweep_report.json": "39c2e6a9958fb1dcee12504014126a511474ffb7df404f0d391af16209f04204",
    "rgcs_compare_20.json": "7384526587f5289cdf21ff47e25ede3522219b5ac08b04fc05a25b9e9d557c4f",
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
def exp1_run(tmp_path_factory):
    """The whole exp1 family, run once per session: (summary, output directory)."""
    out = tmp_path_factory.mktemp("exp1")
    return run_experiment(ExperimentSpec("exp1", out_dir=out)), out


@pytest.fixture(scope="session")
def exp4_run(tmp_path_factory):
    """The whole exp4 family, run once per session: (summary, output directory)."""
    out = tmp_path_factory.mktemp("exp4")
    return run_experiment(ExperimentSpec("exp4", out_dir=out)), out
