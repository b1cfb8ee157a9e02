"""Deterministic ledger engine and economic simulator for a
demurrage-funded basic-income currency."""

from .agent import (
    AgentProblem,
    TaxReport,
    budget_out2,
    effective_tax,
    max_affordable_out1,
    optimal_out1,
    optimal_out1_oracle,
    utility,
)
from .errors import (
    CensusMismatchError,
    ConfigError,
    InsufficientBalanceError,
    InvalidGenesisError,
    InvariantViolation,
    LedgerError,
    NoEquilibriumError,
    PopcoinError,
    UndefinedGiniError,
    UnknownAccountError,
)
from .exchange import (
    ExchangeScenario,
    OvershootingResult,
    inflation_rate,
    money_market_rate,
    overshooting_experiment,
    ppp_rate,
    relative_depreciation,
    uip_spot_rate,
)
from .inequality import (
    epoch_metrics,
    gini,
    gini_bound,
    gini_bound_limit,
    gini_pairwise,
    inequality_ratio,
    max_inequality_ratio,
    policy_transform,
    ratio_bound,
    variance,
    variance_bound,
    worst_case_distribution,
)
from .ledger import (
    DirectLedgerState,
    LedgerState,
    MintReport,
    PolicyParams,
    balance_popcoin,
    balance_popcoin_exact,
    direct_genesis,
    direct_total_supply,
    direct_transfer,
    exact,
    genesis,
    mint_epoch_direct,
    mint_epoch_poplet,
    state_from_json,
    state_to_json,
    total_supply_popcoin,
    total_supply_popcoin_exact,
    transfer,
)
from .monetary import (
    MacroState,
    interest_rate,
    is_long_term_stable,
    negative_rate_condition,
    run_macro,
    steady_state_supply,
    supply_step,
)
from .rng import SplitMix64
from .scenario import (
    ScenarioConfig,
    census_path,
    load_config,
    parse_config,
    run_scenario,
    validate_config,
)

__version__ = "0.1.0"
