//! Tier-1 differential gate: the production engine and, for scenarios
//! without islands, `dbgpd`'s routing on the in-memory fabric vs the
//! naive reference model over generated scenarios (DESIGN.md §8).
//!
//! Case count defaults to 256 and can be tuned with
//! `DBGP_ORACLE_CASES` (CI's smoke job runs fewer; soak runs more).

#[test]
fn differential_production_vs_reference() {
    let cases = std::env::var("DBGP_ORACLE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256);
    dbgp_oracle::check_scenarios("oracle-differential", cases);
}
