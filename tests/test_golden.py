"""Golden outputs: sha256 of every file written for a few small scenarios.

The digests pin the bytes of ``run_scenario`` for shapes the larger
benchmark workloads do not reach: every population kind with transfers, a
census that grows from a single account (epochs that draw nothing, then
start drawing), shrinking censuses that leave dormant holders, transfers of
up to the whole balance, a seed whose counter wraps past 2**64 at once,
issuance that is an exact half tie every epoch, a poplet total that passes
2**63, and the optional plot data. A change to any output byte must
re-record them deliberately.

Re-record with ``python tests/test_golden.py`` (prints the table).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from popcoin_sim import parse_config, run_scenario, scenario

POLICY = {"basic_income": 2922.0, "demurrage_alpha": 0.02}

AGENT_PROBLEMS = [
    {"basic_income": 2922.0, "earned_income": 5000.0, "interest_rate": -0.02},
    {
        "basic_income": 2922.0,
        "earned_income": 70000.0,
        "interest_rate": -0.02,
        "allow_borrowing": True,
    },
]

# name -> (config, include_plot_data)
CASES = {
    "fixed_all_studies": (
        {
            "policy": POLICY,
            "epochs": 25,
            "population": {"kind": "fixed", "N": 12},
            "seed": 2**64 - 1,
            "transfers": {"count_per_epoch": 30, "max_fraction": 0.5},
            "outputs": [
                {"study": "supply"},
                {"study": "inequality"},
                {"study": "exchange"},
                {"study": "agent", "params": {"problems": AGENT_PROBLEMS}},
            ],
        },
        False,
    ),
    "exponential_from_one": (
        {
            "policy": POLICY,
            "epochs": 40,
            "population": {"kind": "exponential", "N0": 1, "n": 0.08},
            "seed": 11,
            "transfers": {"count_per_epoch": 4, "max_fraction": 0.25},
            "outputs": [{"study": "supply"}, {"study": "inequality"}],
        },
        False,
    ),
    "logistic_plot_data": (
        {
            "policy": POLICY,
            "epochs": 30,
            "population": {"kind": "logistic", "N0": 5, "K": 40, "rate": 0.3},
            "seed": -3,
            "transfers": {"count_per_epoch": 10, "max_fraction": 0.3},
            "outputs": [{"study": "supply"}, {"study": "inequality"}],
        },
        True,
    ),
    "step_shock_whole_balance": (
        {
            "policy": POLICY,
            "epochs": 30,
            "population": {"kind": "step_shock", "N0": 20, "factor": 0.4, "at_epoch": 9},
            "seed": 123456789,
            "transfers": {"count_per_epoch": 15, "max_fraction": 1.0},
            "outputs": [{"study": "supply"}, {"study": "inequality"}],
        },
        False,
    ),
    "step_shock_growth": (
        {
            "policy": POLICY,
            "epochs": 20,
            "population": {"kind": "step_shock", "N0": 6, "factor": 2.5, "at_epoch": 7},
            "seed": 5,
            "transfers": {"count_per_epoch": 8, "max_fraction": 0.75},
            "outputs": [{"study": "supply"}],
        },
        False,
    ),
    "degrowth_dormant": (
        {
            "policy": POLICY,
            "epochs": 40,
            "population": {"kind": "degrowth", "N0": 40, "n": -0.04},
            "seed": 2024,
            "poplet_scale": 1000,
            "transfers": {"count_per_epoch": 12, "max_fraction": 0.25},
            "outputs": [{"study": "supply"}, {"study": "inequality"}],
        },
        False,
    ),
    # With alpha = 0 and one poplet per unit, E_t = N_t / N_0 and B / E' is
    # 2.5 at N = 9 and 1.5 at N = 15: every epoch's issuance is an exact half
    # tie, rounded down and then up by half-even, and at N = 15 the rounding
    # residue 7.5 rounds to 8 = (N + 1) // 2, the largest the bound admits.
    "tie_every_epoch": (
        {
            "policy": {"basic_income": 2.5, "demurrage_alpha": 0},
            "epochs": 20,
            "population": {"kind": "step_shock", "N0": 9, "factor": 5 / 3, "at_epoch": 8},
            "seed": 31,
            "poplet_scale": 1,
            "transfers": {"count_per_epoch": 6, "max_fraction": 0.5},
            "outputs": [{"study": "supply"}, {"study": "inequality"}],
        },
        False,
    ),
    # With alpha = 0 the supply cap, the variance bound and (past one
    # participant) the ratio bound are all inf; a shrinking census leaves
    # dormant holders that still receive transfers.
    "alpha0_degrowth_all_studies_plot": (
        {
            "policy": {"basic_income": 2922.0, "demurrage_alpha": 0},
            "epochs": 30,
            "population": {"kind": "degrowth", "N0": 24, "n": -0.06},
            "seed": 99,
            "poplet_scale": 1000,
            "transfers": {"count_per_epoch": 9, "max_fraction": 0.5},
            "outputs": [
                {"study": "supply"},
                {"study": "inequality"},
                {"study": "exchange"},
                {"study": "agent", "params": {"problems": AGENT_PROBLEMS}},
            ],
        },
        True,
    ),
    # The ledger's poplet total passes 2**63 at epoch 548, so the member values
    # come from int64 before that epoch and from Python ints after it; the
    # 15 draws per epoch are reduced in chunks of 273 epochs.
    "fixed_past_int64": (
        {
            "policy": POLICY,
            "epochs": 600,
            "population": {"kind": "fixed", "N": 10},
            "seed": 41,
            "transfers": {"count_per_epoch": 5, "max_fraction": 0.5},
            "outputs": [{"study": "supply"}, {"study": "inequality"}],
        },
        True,
    ),
    # The cases below pin the defaults that config normalisation fills in,
    # above all in manifest.json: epochs_per_year given, an integer basic
    # income, transfers off with no seed, supply params {}, exchange studies
    # with a partial scenario and with no params, and agent studies with and
    # without their own demurrage_alpha (without, it takes the policy's).
    "integer_income_no_seed": (
        {
            "policy": {"basic_income": 100, "demurrage_alpha": 0.05, "epochs_per_year": 12},
            "epochs": 6,
            "population": {"kind": "fixed", "N": 5},
            "transfers": {"count_per_epoch": 0, "max_fraction": 0.5},
            "outputs": [{"study": "supply", "params": {}}, {"study": "inequality"}],
        },
        False,
    ),
    "exchange_partial_scenario": (
        {
            "policy": POLICY,
            "epochs": 3,
            "population": {"kind": "fixed", "N": 3},
            "outputs": [
                {
                    "study": "exchange",
                    "params": {
                        "scenario": {"income_pop": 1.5, "supply_growth_fiat": 0.01},
                        "elasticities": [0.5, 2.0],
                    },
                }
            ],
        },
        False,
    ),
    "exchange_no_params_agent_alpha": (
        {
            "policy": POLICY,
            "epochs": 3,
            "population": {"kind": "fixed", "N": 3},
            "outputs": [
                {"study": "exchange"},
                {"study": "agent", "params": {"demurrage_alpha": 0.1, "problems": AGENT_PROBLEMS}},
            ],
        },
        False,
    ),
    "agent_policy_alpha": (
        {
            "policy": {"basic_income": 2922.0, "demurrage_alpha": 0},
            "epochs": 3,
            "population": {"kind": "fixed", "N": 3},
            "outputs": [{"study": "agent", "params": {"problems": AGENT_PROBLEMS}}],
        },
        False,
    ),
}

# recorded from the scalar, one-transfer-at-a-time mix, which the vectorised mix must match
GOLDEN = {
    # recorded from the writers that format each table's cells on their own,
    # which the formatted-once epoch rows must match
    "alpha0_degrowth_all_studies_plot": {
        "agent.csv": "6a162d1d9f29f231447e0a8cb0d504e2a842b1df532a0de372b6e79fde24c9b6",
        "epochs.csv": "fb91ce2642c0905c226c635dc820abaf02de7f28c162957dfcbfac60ca5c7b67",
        "exchange.csv": "58ab27a52c0ba31b0ed09bcdd1d6b4d88aa0a70bab7570102b860896b33adb90",
        "exchange_summary.json": "07e1abcd4602dc7c44a1974ec5fdeb2cb10dafb0b22ab8455f8567a5d18a2e95",
        "final_state.json": "56c9c52d277ad0ad97e5848ecfc9453e33fe7ad0b9d13001de944220a34eb367",
        "inequality.csv": "0d6d4989674e92d403a79c37e9bc45b143d98d8bf71cc1a1b3a92a8d3bbb01e5",
        "manifest.json": "479995a45e16acc3f6763c67ed50cf66a2729204b39f0b2bbd49c7e0d8fc5de6",
        "plot_data.csv": "b9422af6a2b37f60dea25adfb373ebd35bfddde4ad7307dc2ef2768317850e07",
        "supply.csv": "5257eee4499ccc5ec5a5e8f0f440797daade39aa46df6c895d3103d9818495cd",
    },
    "degrowth_dormant": {
        "epochs.csv": "0299d6c682061390262ff5420a8de4f38ec48addce7eb1b53ea2330e91339c1c",
        "final_state.json": "f957beb0801f964a6b8db7e467add10b66a80c92c43a3dbd2c0a58bd29d1f260",
        "inequality.csv": "83ff33921214996ee987cd1476a5e6dd8d649fa1f1ec2b1ac645727198bda236",
        "manifest.json": "880464fa79f971df5b5b4119c300f478b5f0db07359bc6b002bfbd638b8caf78",
        "supply.csv": "d9a0befd3e77d943597a91620b878674f8d8d7187b8adef0889307a8e1b64332",
    },
    "exponential_from_one": {
        "epochs.csv": "2b66bfeb8e33a48a9b1697b1e0e14e89245a1383cab926e35b09649f2bf8b258",
        "final_state.json": "fa2d7e88885275ad955a9867960afb0b34de26ba328dd12a54cbdfc0598edeb7",
        "inequality.csv": "4e6f3d4c528dc99abde24f29de26cee410889f95d84bc1c124d16fd5bcac6cd4",
        "manifest.json": "2d2959278af9b8f5ada9ec1293e7523e0a8547cba07b25211f9047e995e7bca3",
        "supply.csv": "ee814381b665b1ebd9fe8167ca078aae32a73145f071e22981571eebbe1b9fd5",
    },
    "fixed_all_studies": {
        "agent.csv": "70e7891b12f806895ef7b6dd1496b1bd1e67e759c3ac9f7fd7a0cc761a6cbc17",
        "epochs.csv": "3df94e54880c37a8b436a0da3724de7c1c7f2944991da24b61090642c8ccbcf4",
        "exchange.csv": "58ab27a52c0ba31b0ed09bcdd1d6b4d88aa0a70bab7570102b860896b33adb90",
        "exchange_summary.json": "07e1abcd4602dc7c44a1974ec5fdeb2cb10dafb0b22ab8455f8567a5d18a2e95",
        "final_state.json": "9f250702c6237794bc7dfa2a46dc0af522dee974850c6995265d07d5c841c7a0",
        "inequality.csv": "8f52bd2907a780564af9d96f3109f9a9fa9deadc30c01ddde63f215faa0cce5a",
        "manifest.json": "61bbaef9454c1fde6e4aa812b103678fb2beeffee9e45b29a6c1c3cd36a0c3f5",
        "supply.csv": "cdb0da5423ead0c451af3ddb3c6bea30e21be2488a75fefd9350a09f70ff0dd5",
    },
    "logistic_plot_data": {
        "epochs.csv": "d3b057d0556717a8c1192a3cd8fa89df58b70f7dd0678c509a27000b30a327d5",
        "final_state.json": "a2be15383b83aa579369919869aecf2fbf2570c06005b525d2e087ba6ca2d5a7",
        "inequality.csv": "2063975cc28de7d31f3aaebd91fdc49d786c1f557caf681301214563e99bea80",
        "manifest.json": "e82cb186c5e71fe07e7f56dd08fba2f9aef5969cb040f3473e4dc7780eda2f42",
        "plot_data.csv": "70c14dfff666c7fbe94676db8385dfd7724017ba8a9abe404b8d37cf4c1ad445",
        "supply.csv": "9915a4a8fb82f35693cda9c5beb06cadd5bf7eb014da07599413994cf5624859",
    },
    "step_shock_growth": {
        "epochs.csv": "7c4ec9dcccbd53134af32d67de7929a7c767064be09c9b1a13c96bca37f2d68e",
        "final_state.json": "9f11791ec313490d58ccbc7db20b7db052909b54f884bf5894830b90b2c7a259",
        "manifest.json": "e627e35749844f718cd0e7464c9081003cd1e41245597693265bd7f8af8de03b",
        "supply.csv": "f099f0c3abccae14900bef8a8fa3dac0ff6d82cd26c4e923c8f8d01ed30fba8b",
    },
    "step_shock_whole_balance": {
        "epochs.csv": "245f67419361b540aceb051a94c9387d6b97686a812ab4b011cc6be148d81e23",
        "final_state.json": "da5d268e86e810fa6091cdc9b3d259524f2ab0b2bc8d35d498a5ddd1c00a8023",
        "inequality.csv": "0cf6ebfd23374330292d529259ac1778a789adf06f41be17809905ba3c2ca85e",
        "manifest.json": "c13f0ecf1406f102e237009490748899754cd383ae961beaf9d95f712c2a85b3",
        "supply.csv": "9243334ffc9ceda580617fa73ddd9948dae2e6b59bca5ffa86db408c31068bfb",
    },
    # recorded from the hand-written config parsing, which the field tables must match
    "agent_policy_alpha": {
        "agent.csv": "6a162d1d9f29f231447e0a8cb0d504e2a842b1df532a0de372b6e79fde24c9b6",
        "epochs.csv": "e7b032040214d0e383e4c2e6bc60fe7763bbe1e159a0336b1219a6bbfc8b4dde",
        "final_state.json": "7e3695a26720cd2ec4d9f40933d98c44559852905ada15fb4b149a9d918c2f17",
        "manifest.json": "ed1317a8da5b13b5aa87e9620822428513fe371082a1e3fc7ae364accb3de1a1",
    },
    "exchange_no_params_agent_alpha": {
        "agent.csv": "68ade8a2324a257f66a31759dd1488986117eb10c956c4cac2324a86d551fb6e",
        "epochs.csv": "05f76fbf1067463f60973ec861a82641dff72cd06cb093b697abbf8b10a8f8f6",
        "exchange.csv": "58ab27a52c0ba31b0ed09bcdd1d6b4d88aa0a70bab7570102b860896b33adb90",
        "exchange_summary.json": "07e1abcd4602dc7c44a1974ec5fdeb2cb10dafb0b22ab8455f8567a5d18a2e95",
        "final_state.json": "dcd2bdb8ef34badac059720d1b8ed6f0fab08a4e3bd6c88c0bc4fd2377902362",
        "manifest.json": "4e0db4bde7f4453b9cfb8bccbbe06c7fde6222ecce0bdfdc536717ae6f32af32",
    },
    "exchange_partial_scenario": {
        "epochs.csv": "05f76fbf1067463f60973ec861a82641dff72cd06cb093b697abbf8b10a8f8f6",
        "exchange.csv": "f323d20e27b0de36414db4c68cd223da386f306558207a9954ebbe836c8621f3",
        "exchange_summary.json": "715efc283882c5ef45035be297f2cbc7ef0d62224667c9b6a34df12860157e86",
        "final_state.json": "dcd2bdb8ef34badac059720d1b8ed6f0fab08a4e3bd6c88c0bc4fd2377902362",
        "manifest.json": "14f157548dd7a935dedb52055229977f13758211d307ddde1bb2ba33cc09a4a5",
    },
    "integer_income_no_seed": {
        "epochs.csv": "61ab02f569b6e928432206ab1e4069737302b0e6c3ce9b48b71110b102284fcc",
        "final_state.json": "4432cdfa5b553d41966b02d2fd3467e6ffb721f85a5faafe02f10611d2b78185",
        "inequality.csv": "d58460e66a981d165d279e63e9713f239c100100e13b33bc326a28968b0fbce8",
        "manifest.json": "801e93526ca583ac79bd836d05ceb28958c3da3ef7293b47381f99e1cde40d17",
        "supply.csv": "180b7e8e30a24fcaa85c5b4bd98f624c14213af43777390b22364b7092e7f781",
    },
    # recorded from the float view of every member balance and the draws reduced
    # as Python ints, which the int64 view and the uint64 reduction must match
    "fixed_past_int64": {
        "epochs.csv": "4bc34392a83f1db6d073843b0a298a19da454151acdcb922ecc240d309f109b0",
        "final_state.json": "29aec1be861bac0fa79d1584036a29567c6ec533d863649c795485f21b56da9d",
        "inequality.csv": "5fba10a69225fce8a75cdcfcdb4a3c9bed581f2c4888d23dc9714c323954dab8",
        "manifest.json": "eb73faa284ae48c6a4dfc4f0e41f05867de5b835e80b9386138f252bbd2fba54",
        "plot_data.csv": "ae59bc47eb10a0da108ee1b07a40592c8cd787d238fd1a052f360f4e378af929",
        "supply.csv": "90643d62caaef0e1fa51a2e5766815647c7909b9ab06e34b32cedbc81bf021d5",
    },
    # recorded from the Fraction issuance step, which the integer step must match
    "tie_every_epoch": {
        "epochs.csv": "697b2eb43f4eeb392cc9a8b8b70c7d0ced6185f229507724b9801887db91b40c",
        "final_state.json": "90a8b82d711f65d913fc605325c6f477d7b7f5643017e6c5febdfe950b5942f7",
        "inequality.csv": "43a6c095f257e445320db8507c8d44c5c30d828148ba81cc112aa219f9a88f8e",
        "manifest.json": "86ac31acb7c87b3cba01cbffaccc79434a8392bcf638e78ef36b533a60812430",
        "supply.csv": "ff778aada5773dfb7d80725bfc786e937257c48c1da5b093fd237c915afce157",
    },
}


def digests(name: str, out_dir: Path) -> dict[str, str]:
    config, plot_data = CASES[name]
    run_scenario(parse_config(config), out_dir, include_plot_data=plot_data)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_bytes(name, tmp_path):
    assert digests(name, tmp_path) == GOLDEN[name]


# Shapes wide enough that the read patches the run's image: the accounts each
# epoch moves in and out of the census and the two per transfer are fewer than
# a quarter of them. The cases above mostly build it anew.
PATCHING = {
    "wide_degrowth": {
        "policy": POLICY,
        "epochs": 15,
        "population": {"kind": "degrowth", "N0": 400, "n": -0.01},
        "seed": 5,
        "transfers": {"count_per_epoch": 10, "max_fraction": 0.5},
    },
    "wide_growth": {
        "policy": POLICY,
        "epochs": 15,
        "population": {"kind": "exponential", "N0": 100, "n": 0.05},
        "seed": 6,
        "transfers": {"count_per_epoch": 3, "max_fraction": 1.0},
    },
}


@pytest.mark.parametrize("name", sorted(CASES) + sorted(PATCHING))
def test_every_read_sees_an_image_equal_to_held(name, monkeypatch):
    # the poplet check and the member values read the run's int64 image of
    # ``held``, not ``held``: the run passes each read the image the last
    # read returned, which equals that read's ``held``, and every position
    # written since, and the image the read returns must equal ``held``
    real_read = scenario._read_balances
    patched = []  # per epoch: whether the read came with an image and few positions to patch
    previous = None  # the ``held`` of the last read

    def checked_read(balances, members, poplets, image, written):
        nonlocal previous
        held, flags, index = balances.held, balances.flags, balances.index
        # the members come first and the table is in id order: the read takes
        # ``image[:members]`` and the transfer mix draws positions in id order
        assert balances.count == members
        assert flags == bytes([1]) * members + bytes(len(flags) - members)
        assert list(index) == [f"p{i:08d}" for i in range(len(held))]
        assert list(index.values()) == list(range(len(held)))
        patched.append(image is not None and 4 * len(written) < len(held))
        if previous is not None:
            assert image is None or image.tolist() == previous
            changed = {i for i, entry in enumerate(held) if previous[i:i + 1] != [entry]}
            assert changed <= set(written)
        total, values, image = real_read(balances, members, poplets, image, written)
        assert image is None or image.tolist() == held
        previous = held
        return total, values, image

    monkeypatch.setattr(scenario, "_read_balances", checked_read)
    config = parse_config(PATCHING[name] if name in PATCHING else CASES[name][0])
    for _ in scenario.run_epochs(config):
        pass
    assert len(patched) == config.normalized["epochs"]
    if name in PATCHING:  # after the first read, every read patches
        assert patched == [False] + [True] * (len(patched) - 1)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work_dir:
        for case in sorted(CASES):
            table = digests(case, Path(work_dir) / case)
            sys.stdout.write(f'    "{case}": {{\n')
            for file_name, digest in table.items():
                sys.stdout.write(f'        "{file_name}": "{digest}",\n')
            sys.stdout.write("    },\n")
