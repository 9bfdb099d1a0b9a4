//! `repro` — regenerate every figure/table of the paper.
//!
//! ```text
//! repro [--check] [--quick] [--metrics] <experiment>
//!
//! experiments:
//!   fig2 fig5     the 16-node worked example of Figs. 2 and 5
//!   fig7a fig7b   tree properties vs network size (§5.2)
//!   fig8a fig8b   message-load distribution / imbalance factor (§5.3)
//!   fig9          accuracy of Grid resource monitoring (§5.4)
//!   heights       §3.3/§3.5 tree-height claims
//!   churn         implicit vs explicit maintenance overhead
//!   crosscheck    live protocol vs static analysis (§5.1)
//!   maan          MAAN hop-complexity claims (§2.2)
//!   ablation      design-choice sweeps (hold window, child TTL)
//!   gossip        push-sum baseline vs DAT message cost
//!   wan           wide-area latency/loss robustness (§7 future work)
//!   partition     3:1 partition/heal campaign (completeness + ring re-knit)
//!   degradation   completeness under a randomized churn soak (self-healing)
//!   all           everything above
//! ```
//!
//! `--check` exits non-zero if any qualitative claim of the paper fails;
//! `--quick` shrinks sizes for fast smoke runs; `--scale` extends the
//! size sweeps past the paper's 8192-node ceiling (fig7/heights to
//! 32768, fig8b to 16384) to exercise the million-node event engine;
//! `--metrics` additionally dumps the fleet-merged Prometheus exposition
//! of the run (where the experiment supports it) and fails the check if
//! the dump does not parse.

use dat_bench::experiments::{
    ablation, churn, crosscheck, degradation, fig25, fig7, fig8, fig9, gossip_exp, heights,
    maan_exp, partition, wan,
};

struct Opts {
    check: bool,
    quick: bool,
    scale: bool,
    metrics: bool,
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let quick = args.iter().any(|a| a == "--quick");
    let scale = args.iter().any(|a| a == "--scale");
    let metrics = args.iter().any(|a| a == "--metrics");
    args.retain(|a| !a.starts_with("--"));
    let what = args.first().map(String::as_str).unwrap_or("all");
    if quick && scale {
        eprintln!("--quick and --scale are mutually exclusive");
        std::process::exit(2);
    }
    let opts = Opts {
        check,
        quick,
        scale,
        metrics,
    };

    let mut violations: Vec<String> = Vec::new();
    match what {
        "fig2" | "fig5" | "fig25" => violations.extend(run_fig25()),
        "fig7a" | "fig7b" | "fig7" => violations.extend(run_fig7(&opts, what)),
        "fig8a" => violations.extend(run_fig8a(&opts)),
        "fig8b" => violations.extend(run_fig8b(&opts)),
        "fig8" => {
            violations.extend(run_fig8a(&opts));
            violations.extend(run_fig8b(&opts));
        }
        "fig9" => violations.extend(run_fig9(&opts)),
        "heights" => violations.extend(run_heights(&opts)),
        "churn" => violations.extend(run_churn(&opts)),
        "crosscheck" => violations.extend(run_crosscheck(&opts)),
        "maan" => violations.extend(run_maan(&opts)),
        "ablation" => violations.extend(run_ablation(&opts)),
        "gossip" => violations.extend(run_gossip(&opts)),
        "wan" => violations.extend(run_wan(&opts)),
        "partition" => violations.extend(run_partition(&opts)),
        "degradation" => violations.extend(run_degradation(&opts)),
        "all" => {
            violations.extend(run_fig25());
            violations.extend(run_fig7(&opts, "fig7"));
            violations.extend(run_fig8a(&opts));
            violations.extend(run_fig8b(&opts));
            violations.extend(run_fig9(&opts));
            violations.extend(run_heights(&opts));
            violations.extend(run_churn(&opts));
            violations.extend(run_crosscheck(&opts));
            violations.extend(run_maan(&opts));
            violations.extend(run_ablation(&opts));
            violations.extend(run_gossip(&opts));
            violations.extend(run_wan(&opts));
            violations.extend(run_partition(&opts));
            violations.extend(run_degradation(&opts));
        }
        other => {
            eprintln!("unknown experiment `{other}`; see `repro` source header");
            std::process::exit(2);
        }
    }

    if !violations.is_empty() {
        eprintln!("\nqualitative checks FAILED:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        if opts.check {
            std::process::exit(1);
        }
    } else if opts.check {
        println!("\nall qualitative checks passed");
    }
}

fn run_fig7(o: &Opts, what: &str) -> Vec<String> {
    let (max_n, seeds, keys) = if o.quick {
        (512, 2, 2)
    } else if o.scale {
        (32_768, 3, 3)
    } else {
        (8192, 3, 3)
    };
    eprintln!("[fig7] building trees up to n = {max_n} ...");
    let fig = fig7::run(max_n, seeds, keys);
    if what != "fig7b" {
        fig.table_a().print();
    }
    if what != "fig7a" {
        fig.table_b().print();
    }
    fig.check()
}

fn run_fig8a(o: &Opts) -> Vec<String> {
    let n = if o.quick { 128 } else { 512 };
    eprintln!("[fig8a] simulating {n}-node aggregation rounds ...");
    let fig = fig8::run_a(n, 0xF18A);
    fig.table().print();
    println!(
        "max load: centralized {}, basic {}, balanced {}  (paper @512: 511 / 24 / 4)",
        fig.max_of(fig8::Scheme::Centralized),
        fig.max_of(fig8::Scheme::Basic),
        fig.max_of(fig8::Scheme::Balanced)
    );
    let mut bad = fig.check();
    if o.metrics {
        let snap_n = n.min(128);
        eprintln!("[fig8a] fleet Prometheus snapshot ({snap_n} nodes) ...");
        let text = fig8::prometheus_snapshot(snap_n, 0xF18A);
        match dat_obs::validate_prometheus(&text) {
            Ok(samples) => {
                print!("{text}");
                println!("# fleet dump: {samples} samples, parses clean");
            }
            Err(e) => bad.push(format!("fleet Prometheus dump invalid: {e}")),
        }
    }
    bad
}

fn run_fig8b(o: &Opts) -> Vec<String> {
    let mut sizes: Vec<usize> = if o.quick {
        vec![100, 200, 400]
    } else {
        (1..=10).map(|i| i * 100).collect()
    };
    if o.scale {
        // Past the paper's ceiling: the load-balance claims must hold as
        // the engine scales, not just at the published sizes.
        sizes.extend([2048, 8192, 16_384]);
    }
    eprintln!("[fig8b] imbalance sweep over {sizes:?} ...");
    let fig = fig8::run_b(&sizes, 0xF18B);
    fig.table().print();
    fig.check()
}

fn run_fig9(o: &Opts) -> Vec<String> {
    let (n, dur, epoch) = if o.quick {
        (128, 1200, 10)
    } else {
        (512, 7200, 10)
    };
    eprintln!("[fig9] {n}-node Grid, {dur}s trace, {epoch}s epochs ...");
    let fig = fig9::run(n, dur, epoch, 0xF19);
    fig.table_series().print();
    fig.table_scatter().print();
    fig.check()
}

fn run_heights(o: &Opts) -> Vec<String> {
    let max_n = if o.quick {
        1024
    } else if o.scale {
        32_768
    } else {
        8192
    };
    eprintln!("[heights] measuring up to n = {max_n} ...");
    let h = heights::run(max_n, 3);
    h.table().print();
    h.check()
}

fn run_churn(o: &Opts) -> Vec<String> {
    let (n, dur) = if o.quick { (64, 20_000) } else { (256, 60_000) };
    eprintln!("[churn] {n} nodes, {}s of churn ...", dur / 1000);
    let c = churn::run(n, 1_000, dur, 0xC0);
    c.table().print();
    c.check()
}

fn run_crosscheck(o: &Opts) -> Vec<String> {
    let sizes: Vec<usize> = if o.quick {
        vec![64, 128]
    } else {
        vec![64, 256, 512]
    };
    eprintln!("[crosscheck] live protocol vs analysis at {sizes:?} ...");
    let c = crosscheck::run(&sizes, 0xCC);
    c.table().print();
    c.check()
}

fn run_maan(o: &Opts) -> Vec<String> {
    let sizes: Vec<usize> = if o.quick {
        vec![64, 256]
    } else {
        vec![64, 256, 1024]
    };
    eprintln!("[maan] complexity sweep over {sizes:?} ...");
    let e = maan_exp::run(&sizes, 0x3A);
    e.table().print();
    e.check()
}

fn run_ablation(o: &Opts) -> Vec<String> {
    let n = if o.quick { 48 } else { 128 };
    eprintln!("[ablation] hold window + child TTL (departure campaign) sweeps at n = {n} ...");
    let a = ablation::run(n, 0xAB);
    let (th, tt) = a.tables();
    th.print();
    tt.print();
    a.check()
}

fn run_gossip(o: &Opts) -> Vec<String> {
    let sizes: Vec<usize> = if o.quick {
        vec![64, 128]
    } else {
        vec![64, 256, 512]
    };
    eprintln!("[gossip] push-sum convergence over {sizes:?} ...");
    let e = gossip_exp::run(&sizes, 0x905);
    e.table().print();
    e.check()
}

fn run_wan(o: &Opts) -> Vec<String> {
    let n = if o.quick { 48 } else { 128 };
    eprintln!("[wan] loss campaign sweep at n = {n} ...");
    let w = wan::run(n, 0x3A9);
    w.table().print();
    w.check()
}

fn run_partition(o: &Opts) -> Vec<String> {
    let n = if o.quick { 64 } else { 256 };
    eprintln!("[partition] 3:1 split/heal at n = {n} ...");
    let p = partition::run(n, 0xDA7);
    p.table().print();
    let (out, heal_ms) = (&p.outcome, p.outcome.scenario.faults_end_ms());
    let ring = match out.ring_reunified_ms {
        Some(t) => format!(
            "ring re-unified {:.1} s after the heal",
            (t - heal_ms) as f64 / 1_000.0
        ),
        None => "ring never re-unified".into(),
    };
    println!(
        "{ring}; recovered in {:?} epochs; min completeness during the split {:.3}  \
         (plan digest {:#018x})",
        out.score.recovery_epochs, out.score.min_ratio_during_faults, out.digest
    );
    p.check()
}

fn run_degradation(o: &Opts) -> Vec<String> {
    let n = if o.quick { 48 } else { 128 };
    eprintln!("[degradation] randomized churn soak at n = {n} ...");
    let d = degradation::run(n, 0x50AC);
    d.table().print();
    d.health_table().print();
    println!(
        "min completeness during churn {:.3}; recovered in {:?} epochs; \
         root failover {:?} ms with {:?} contributors  (seed {}, digest {:#018x})",
        d.outcome.score.min_ratio_during_faults,
        d.outcome.score.recovery_epochs,
        d.outcome.score.failover_delay_ms,
        d.outcome.score.failover_contributors,
        d.outcome.scenario.seed,
        d.outcome.digest
    );
    d.check()
}

fn run_fig25() -> Vec<String> {
    eprintln!("[fig2/fig5] 16-node worked example ...");
    let f = fig25::run();
    f.table().print();
    let (basic_dot, balanced_dot) = f.dot();
    let _ = std::fs::write("fig2_basic.dot", &basic_dot);
    let _ = std::fs::write("fig5_balanced.dot", &balanced_dot);
    println!("(DOT written to fig2_basic.dot / fig5_balanced.dot)");
    f.check()
}
