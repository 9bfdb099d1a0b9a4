//! Integration: deterministic fault injection end to end — the partition
//! campaign splits a 256-node DAT ring 3:1 for 60 virtual seconds; the
//! root's reports must say so, and after the heal the successor ring must
//! re-unify and the continuous aggregation recover within the campaign's
//! bound, with no silently wrong value anywhere. Same-seed replay and
//! shard invariance are the campaign module's own test.

use libdat::sim::Scenario;

#[test]
fn partition_heals_ring_reunifies_and_aggregation_recovers() {
    let sc = Scenario::partition(256, 0xda7);
    let o = sc.run();
    println!("{}", o.summary());
    // Every invariant of the one scorer: exact values, bounded recovery,
    // one settled reporter covering exactly n, a strictly advancing fence.
    assert!(o.violations.is_empty(), "{:#?}", o.violations);
    // During the split the minority's contributions expire, and the
    // report says so instead of silently shrinking.
    let dip = o.score.min_ratio_during_faults;
    assert!(dip < 1.0, "split never dented completeness ({dip})");
    // The successor ring is whole again within the recovery bound.
    let reunified = o.ring_reunified_ms.expect("ring never re-unified");
    assert!(
        reunified <= sc.settle_ms(),
        "ring re-unified at {reunified} ms"
    );
    // Before the fault every report past the cold start covers the whole
    // ring, and the completeness accounting agrees: the `d0` hint makes
    // `expected` exact, so the ratio is exactly 1.0. (On the first tick
    // no node has heard from a child yet, so the root reports itself.)
    let pre: Vec<_> = (o.log.iter())
        .take_while(|r| r.t_ms < sc.warmup_ms)
        .skip(1)
        .collect();
    assert!(!pre.is_empty(), "no warm report before the split");
    for r in pre {
        assert_eq!(r.completeness.contributors, 256, "{r:?}");
        assert_eq!(r.completeness.ratio, 1.0, "{r:?}");
    }
}
