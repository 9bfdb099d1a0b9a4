//! `simbench` — event-engine throughput trajectory, tracked in
//! `BENCH_sim.json`.
//!
//! ```text
//! simbench [--sizes 8192,65536,262144] [--virtual-ms 10000]
//!          [--shards 1,2,4,8]
//!          [--budget-s N] [--out BENCH_sim.json] [--quiet]
//! ```
//!
//! Runs one maintenance epoch per size, ascending by size so the
//! process's peak RSS reflects each size's own footprint, and
//! writes a machine-readable JSON report. `--budget-s` stops the sweep
//! once total wall time exceeds the budget (remaining sizes are recorded
//! as skipped, never silently dropped) — this is what keeps the CI smoke
//! bounded. A 1M-node epoch is the same invocation with
//! `--sizes 1048576 --budget-s 0`; it is documented offline rather than
//! run in CI.
//!
//! `--shards` sweeps the engine's shard count per size (default: `1`,
//! the calling thread; `0` means `1`) over the same seeded workload. The
//! 1-shard run (inserted automatically if absent) is the baseline: every
//! other shard count must reproduce its digest bit for bit — any
//! divergence is a determinism bug and exits non-zero — and its wall
//! clock is the denominator of `speedup_vs_1shard`. The top-level
//! `cores` field records how much hardware parallelism the host actually
//! had, so a ~1× speedup on a 1-core box reads as expected, not as a
//! regression.

use std::time::Instant;

use dat_sim::scale::{run_scale, ScaleConfig, ScaleReport};

struct Opts {
    sizes: Vec<usize>,
    virtual_ms: u64,
    shards: Vec<usize>,
    budget_s: u64,
    out: String,
    quiet: bool,
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        sizes: vec![8_192, 65_536, 262_144],
        virtual_ms: 10_000,
        shards: vec![1],
        budget_s: 0, // 0 = unbounded
        out: "BENCH_sim.json".into(),
        quiet: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let val = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| {
                    eprintln!("missing value for {arg}");
                    std::process::exit(2);
                })
                .clone()
        };
        match arg {
            "--sizes" => {
                o.sizes = val(&mut i)
                    .split(',')
                    .map(|s| {
                        s.trim().parse().unwrap_or_else(|_| {
                            eprintln!("bad size `{s}`");
                            std::process::exit(2);
                        })
                    })
                    .collect();
            }
            "--virtual-ms" => {
                o.virtual_ms = val(&mut i).parse().unwrap_or_else(|_| {
                    eprintln!("bad --virtual-ms");
                    std::process::exit(2);
                });
            }
            "--shards" => {
                o.shards = val(&mut i)
                    .split(',')
                    .map(|s| {
                        let count: usize = s.trim().parse().unwrap_or_else(|_| {
                            eprintln!("bad shard count `{s}`");
                            std::process::exit(2);
                        });
                        count.max(1)
                    })
                    .collect();
            }
            "--budget-s" => {
                o.budget_s = val(&mut i).parse().unwrap_or_else(|_| {
                    eprintln!("bad --budget-s");
                    std::process::exit(2);
                });
            }
            "--out" => o.out = val(&mut i),
            "--quiet" => o.quiet = true,
            other => {
                eprintln!("unknown flag `{other}`; see simbench source header");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    o.sizes.sort_unstable();
    o.shards.sort_unstable();
    o.shards.dedup();
    if o.shards.first() != Some(&1) {
        // The 1-shard run is both the digest baseline and the speedup
        // denominator; a sweep without it cannot be checked.
        o.shards.insert(0, 1);
    }
    o
}

fn json_entry(r: &ScaleReport, speedup_vs_1shard: f64) -> String {
    format!(
        "    {{\"n\": {}, \"shards\": {}, \
         \"virtual_ms\": {}, \
         \"build_wall_ms\": {}, \"run_wall_ms\": {}, \"events\": {}, \
         \"events_per_sec\": {:.0}, \"ns_per_event\": {:.1}, \
         \"dropped\": {}, \"clamped\": {}, \"backlog\": {}, \
         \"peak_rss_mib\": {}, \"digest\": \"{:016x}\", \
         \"speedup_vs_1shard\": {speedup_vs_1shard:.2}}}",
        r.n,
        r.shards,
        r.virtual_ms,
        r.build_wall_ms,
        r.run_wall_ms,
        r.events,
        r.events_per_sec,
        r.ns_per_event,
        r.dropped,
        r.clamped,
        r.backlog,
        match r.peak_rss_mib {
            Some(m) => m.to_string(),
            None => "null".into(),
        },
        r.digest,
    )
}

fn main() {
    let o = parse_opts();
    let started = Instant::now();
    let mut entries: Vec<String> = Vec::new();
    let mut skipped: Vec<String> = Vec::new();
    for &n in &o.sizes {
        let mut base: Option<ScaleReport> = None;
        for &s in &o.shards {
            if o.budget_s > 0 && started.elapsed().as_secs() >= o.budget_s {
                skipped.push(format!("{{\"n\": {n}, \"shards\": {s}}}"));
                if !o.quiet {
                    eprintln!("[simbench] budget exhausted; skipping n={n} shards={s}");
                }
                continue;
            }
            if !o.quiet {
                eprintln!("[simbench] n={n} shards={s} ...");
            }
            let r = run_scale(ScaleConfig {
                n,
                virtual_ms: o.virtual_ms,
                shards: s,
                ..ScaleConfig::default()
            });
            if !o.quiet {
                eprintln!("[simbench]   {}", r.summary());
            }
            if r.clamped > 0 {
                eprintln!(
                    "[simbench] FATAL: {} events clamped at n={n} shards={s} — \
                     the conservative window protocol was violated",
                    r.clamped
                );
                std::process::exit(1);
            }
            let speedup = match &base {
                Some(b) => {
                    if r.digest != b.digest {
                        eprintln!(
                            "[simbench] FATAL: {s}-shard digest {:016x} diverged from \
                             1-shard digest {:016x} at n={n} — determinism bug",
                            r.digest, b.digest
                        );
                        std::process::exit(1);
                    }
                    b.run_wall_ms.max(1) as f64 / r.run_wall_ms.max(1) as f64
                }
                None => 1.0,
            };
            entries.push(json_entry(&r, speedup));
            if base.is_none() {
                base = Some(r);
            }
        }
    }
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let json = format!(
        "{{\n  \"generated_unix\": {unix_secs},\n  \"cores\": {cores},\n  \
         \"virtual_ms\": {},\n  \
         \"wall_s\": {},\n  \"runs\": [\n{}\n  ],\n  \"skipped\": [{}]\n}}\n",
        o.virtual_ms,
        started.elapsed().as_secs(),
        entries.join(",\n"),
        skipped.join(", ")
    );
    if let Err(e) = std::fs::write(&o.out, &json) {
        eprintln!("[simbench] cannot write {}: {e}", o.out);
        std::process::exit(1);
    }
    if !o.quiet {
        eprintln!("[simbench] wrote {} ({} runs)", o.out, entries.len());
    }
    println!("{json}");
}
