//! `dat-benchmark compare A.json B.json`: A is the parent, B the change.
//!
//! One row per end-to-end metric × workload with both medians and
//! quartiles, how much worse B's median is than A's, and the metric's
//! bound. A row whose own run-to-run spread in A (the distance between
//! A's quartiles, as a share of A's median) exceeds the bound is
//! `unresolved`: the benchmark cannot tell at that bound, and saying
//! "unchanged" would be a claim. Simulator counts and digests must agree
//! exactly when both files ran the same seeds.

use crate::json::Json;
use crate::spec;
use crate::stats;

/// How one metric × workload came out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

pub struct Row {
    pub a: [f64; 3],
    pub b: [f64; 3],
    /// Share of A's median by which B's median is worse (negative when B
    /// is better).
    pub worse_by: f64,
    pub spread_a: f64,
    pub verdict: Verdict,
}

/// Judge one metric from the two sets of runs.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Option<Row> {
    let qa = quartiles_or_point(a)?;
    let qb = quartiles_or_point(b)?;
    let (ma, mb) = (qa[1], qb[1]);
    let worse_by = if ma == 0.0 {
        if mb == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let spread_a = stats::quartile_spread(a).unwrap_or(0.0);
    let verdict = if spread_a > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    Some(Row {
        a: qa,
        b: qb,
        worse_by,
        spread_a,
        verdict,
    })
}

/// Quartiles, or the single value three times when only one run exists.
fn quartiles_or_point(xs: &[f64]) -> Option<[f64; 3]> {
    match xs {
        [] => None,
        [x] => Some([*x; 3]),
        _ => stats::quartiles(xs),
    }
}

fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|v| v.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn stamp(doc: &Json, key: &str) -> String {
    match doc.get("stamp").and_then(|s| s.get(key)) {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(x)) => x.to_string(),
        Some(Json::Bool(b)) => b.to_string(),
        _ => "?".into(),
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print the comparison; `Ok(true)` when nothing regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let a = load(path_a)?;
    let b = load(path_b)?;
    for (label, doc, path) in [("A", &a, path_a), ("B", &b, path_b)] {
        println!(
            "{label}: {path}  commit {} rustc {} nproc {} shards {} seed {} repeats {} seconds {}{}",
            stamp(doc, "commit"),
            stamp(doc, "rustc"),
            stamp(doc, "nproc"),
            stamp(doc, "shards"),
            stamp(doc, "seed"),
            stamp(doc, "repeats"),
            stamp(doc, "seconds"),
            if stamp(doc, "quick") == "true" {
                "  (quick: not comparable)"
            } else {
                ""
            }
        );
    }
    let same_seeds =
        stamp(&a, "seed") == stamp(&b, "seed") && stamp(&a, "repeats") == stamp(&b, "repeats");
    let mut clean = true;
    for (workload, _) in spec::WORKLOADS {
        println!(
            "\n== {workload}\n{:<22} {:>11} {:>11} {:>11} | {:>11} {:>11} {:>11} | {:>8} {:>8} {:>6}  verdict",
            "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "worse by", "A spread", "bound"
        );
        for m in &spec::END_TO_END {
            let va = values(&a, workload, m.name);
            let vb = values(&b, workload, m.name);
            let Some(row) = judge(&va, &vb, m.higher_is_better, m.bound) else {
                println!(
                    "{:<22} missing in {}",
                    m.name,
                    if va.is_empty() { "A" } else { "B" }
                );
                clean = false;
                continue;
            };
            let verdict = match row.verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Regression => {
                    clean = false;
                    "REGRESSION"
                }
            };
            println!(
                "{:<22} {:>11.4} {:>11.4} {:>11.4} | {:>11.4} {:>11.4} {:>11.4} | {:>+8.3} {:>8.3} {:>6.3}  {verdict}",
                m.name, row.a[0], row.a[1], row.a[2], row.b[0], row.b[1], row.b[2],
                row.worse_by, row.spread_a, m.bound
            );
        }
        for (label, doc) in [("A", &a), ("B", &b)] {
            let w = doc.get("workloads").and_then(|w| w.get(workload));
            let failed = w.and_then(|w| w.get("failed")).and_then(Json::as_f64);
            let correct = w.and_then(|w| w.get("correct")).and_then(Json::as_bool);
            if failed != Some(0.0) || correct != Some(true) {
                println!("{label}: failed ops {failed:?}, correct {correct:?}  ** INCORRECT **");
                clean = false;
            }
        }
        // Same seeds, same program inputs: the simulator's counts are a
        // function of the seed alone and must repeat bit for bit.
        if same_seeds && workload.starts_with("sim_") {
            let digests = |doc: &Json| {
                doc.get("workloads")
                    .and_then(|w| w.get(workload))
                    .and_then(|w| w.get("digests"))
                    .cloned()
            };
            let exact = digests(&a) == digests(&b)
                && values(&a, workload, "msgs_per_node_op")
                    == values(&b, workload, "msgs_per_node_op");
            println!(
                "counts and digests per seed: {}",
                if exact { "identical" } else { "DIFFER" }
            );
            clean &= exact;
        }
    }
    println!(
        "\n{}",
        if clean {
            "no regression"
        } else {
            "REGRESSED or incorrect"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_bound_is_ok_either_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [104.0, 105.0, 103.0, 104.5, 103.5];
        let row = judge(&a, &slower, false, 0.10).expect("row");
        assert_eq!(row.verdict, Verdict::Ok);
        assert!((row.worse_by - 0.04).abs() < 1e-9);
        // For a higher-is-better metric the same move is an improvement.
        let row = judge(&a, &slower, true, 0.10).expect("row");
        assert!(row.worse_by < 0.0);
        assert_eq!(row.verdict, Verdict::Ok);
    }

    #[test]
    fn beyond_bound_is_a_regression() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(
            judge(&a, &b, false, 0.10).expect("row").verdict,
            Verdict::Regression
        );
        // Throughput falling by 20 % regresses a higher-is-better metric.
        let fewer = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(
            judge(&a, &fewer, true, 0.10).expect("row").verdict,
            Verdict::Regression
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let b = [150.0, 150.0, 150.0, 150.0, 150.0];
        let row = judge(&a, &b, false, 0.10).expect("row");
        assert!(row.spread_a > 0.10);
        assert_eq!(row.verdict, Verdict::Unresolved);
    }

    #[test]
    fn zero_bound_demands_equality() {
        let a = [6.0, 6.0, 6.0];
        assert_eq!(judge(&a, &a, false, 0.0).expect("row").verdict, Verdict::Ok);
        let b = [6.0, 6.0, 6.1];
        assert_eq!(judge(&a, &b, false, 0.0).expect("row").verdict, Verdict::Ok);
        let c = [6.1, 6.1, 6.1];
        assert_eq!(
            judge(&a, &c, false, 0.0).expect("row").verdict,
            Verdict::Regression
        );
    }

    #[test]
    fn single_runs_and_missing_sides() {
        let row = judge(&[10.0], &[10.5], false, 0.10).expect("row");
        assert_eq!(row.a, [10.0; 3]);
        assert_eq!(row.verdict, Verdict::Ok);
        assert!(judge(&[], &[1.0], false, 0.1).is_none());
        assert!(judge(&[1.0], &[], false, 0.1).is_none());
    }
}
