//! Shared by the three fault-campaign suites (`soak_churn`,
//! `gray_failures`, `corruption_soak`): the seed matrix and what every
//! campaign is held to, whatever its fault plane (see
//! `dat_sim::campaign`).

use dat_sim::{Outcome, Scenario};

/// Run `scenario(seed)` for the fixed `defaults`, extended by the `env`
/// variable (comma- or space-separated integers) for longer local/CI
/// campaigns, printing each outcome's summary line. Each run is fully
/// determined by its seed; every invariant breach embeds it, so the
/// replay handle is in the failure output. The caller asserts its own
/// campaign's rows on what comes back.
pub fn sweep(env: &str, defaults: &[u64], scenario: impl Fn(u64) -> Scenario) -> Vec<Outcome> {
    let mut seeds = defaults.to_vec();
    if let Ok(extra) = std::env::var(env) {
        for tok in extra.split(|c: char| !c.is_ascii_digit()) {
            if let Ok(s) = tok.parse::<u64>() {
                if !seeds.contains(&s) {
                    seeds.push(s);
                }
            }
        }
    }
    let run = |seed| {
        let out = scenario(seed).run();
        eprintln!("{}", out.summary());
        // The scored invariants cover, on every campaign: report exactness
        // (no silently-wrong answers), visible degradation, healing within
        // the recovery bound, the exact single-reporter settled tail, and
        // the campaign's own pipeline firing (its counters moved, its
        // victim's exposition valid).
        assert!(
            out.violations.is_empty(),
            "replay with seed {seed}: {:#?}",
            out.violations
        );
        out
    };
    seeds.into_iter().map(run).collect()
}
