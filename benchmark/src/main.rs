//! `dat-benchmark` — the one benchmark for libdat. See `README.md`.

mod compare;
mod json;
mod layers;
mod probe;
mod procstat;
mod run;
mod sim_epoch;
mod sim_maint;
mod spec;
mod stats;
mod suite;
mod udp_query;

use run::{Args, Report};

fn usage() -> ! {
    eprintln!(
        "usage:\n  dat-benchmark --workload NAME --seed N --seconds S --trace 0|1 \
         [--quick] [--trace-out FILE]\n  dat-benchmark suite [--seed N] [--repeats N] [--quick] \
         [--out FILE]\n  dat-benchmark compare A.json B.json\n  dat-benchmark spec\n\nworkloads: {}",
        spec::WORKLOADS.map(|w| w.0).join(" ")
    );
    std::process::exit(2);
}

/// Parse the driver's flags. Input from outside: every value is checked.
fn parse_run(argv: &[String]) -> Result<(Args, bool), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut trace = false;
    let mut trace_out = None;
    let mut quick = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => trace_out = Some(value()?.clone()),
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec::is_workload(&workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((
        Args {
            workload,
            seed,
            seconds,
            trace,
            trace_out,
        },
        quick,
    ))
}

fn run_workload(args: &Args, quick: bool) -> Result<Report, String> {
    let mut report = run_passes(args, quick)?;
    if args.trace {
        // After the workload has stopped: nothing else runs meanwhile.
        layers::run(&mut report);
    }
    Ok(report)
}

fn run_passes(args: &Args, quick: bool) -> Result<Report, String> {
    match (args.workload.as_str(), args.trace) {
        (spec::SIM_EPOCH, false) => sim_epoch::end_to_end(args, quick),
        (spec::SIM_EPOCH, true) => sim_epoch::per_layer(args, quick),
        (spec::SIM_MAINT, false) => sim_maint::end_to_end(args, quick),
        (spec::SIM_MAINT, true) => sim_maint::per_layer(args, quick),
        (spec::UDP_TOKIO, _) => udp_query::tokio(args, quick),
        (spec::UDP_THREADS, _) => udp_query::threads(args, quick),
        (other, _) => Err(format!("unknown workload {other}")),
    }
}

/// One run: human-readable lines first, the result object last.
fn run(argv: &[String]) -> i32 {
    let (args, quick) = match parse_run(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dat-benchmark: {e}");
            usage();
        }
    };
    let report = match run_workload(&args, quick) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dat-benchmark: {} failed: {e}", args.workload);
            return 1;
        }
    };
    let result = match report.result_json(args.trace) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("dat-benchmark: {e}");
            return 1;
        }
    };
    println!(
        "# {} seed={} seconds={} trace={} nproc={}{}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        procstat::nproc(),
        if quick { " quick" } else { "" }
    );
    for (k, v) in &report.notes {
        println!("# {k}: {v}");
    }
    if let Some(metrics) = result.get("metrics").and_then(json::Json::as_obj) {
        for (name, m) in metrics {
            let value = m.get("value").and_then(json::Json::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(json::Json::as_str).unwrap_or("");
            println!("{name:<36} {value:>16.4} {unit}");
        }
    }
    for v in &report.violations {
        println!("VIOLATION: {v}");
    }
    println!("{}", result.render());
    if report.correct() {
        0
    } else {
        1
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json_text());
            0
        }
        Some("suite") => match suite::parse(&argv[1..]).and_then(|a| suite::run(&a)) {
            Ok(correct) => i32::from(!correct),
            Err(e) => {
                eprintln!("dat-benchmark suite: {e}");
                2
            }
        },
        Some("compare") => match argv.as_slice() {
            [_, a, b] => match compare::run(a, b) {
                Ok(clean) => i32::from(!clean),
                Err(e) => {
                    eprintln!("dat-benchmark compare: {e}");
                    2
                }
            },
            _ => usage(),
        },
        Some(flag) if flag.starts_with("--") => run(&argv),
        _ => usage(),
    };
    std::process::exit(code);
}
