//! Wire-corruption soak: sustained byte-level frame damage — a noise
//! floor of bit flips on tree uplinks, a garbage jam on the biggest
//! subtree's uplink, and a poisoning burst on a ring-neighbor link —
//! against a continuous aggregation (see `dat_sim::campaign`).
//!
//! On top of what every campaign is scored on (zero silently-wrong root
//! reports above all: every node feeds the same constant, so the root sum
//! must equal `contributors × value` exactly): frames were injected and
//! rejected, every one accounted for (`rejected + passed == injected`),
//! detection surfaces in `bad_frames_total`, and the poisoned peer is
//! quarantined and later released.
//!
//! Extra seeds via `CORRUPT_SEEDS=9,17 cargo test --test corruption_soak`.

mod common;

use dat_sim::Scenario;

/// Three fixed default seeds: the acceptance floor.
#[test]
fn corruption_is_detected_contained_and_healed() {
    common::sweep("CORRUPT_SEEDS", &[1, 2, 3], Scenario::corrupt);
}
