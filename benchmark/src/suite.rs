//! `dat-benchmark suite`: every workload, each run in a child process of
//! its own (so `VmHWM`, thread counts and allocator state belong to that
//! run alone), `repeats` timed runs on consecutive seeds plus one traced
//! run, all results gathered into one stamped file that `compare` reads.

use std::process::Command;

use crate::json::Json;
use crate::procstat;
use crate::sim_maint;
use crate::spec;
use crate::stats;

pub struct SuiteArgs {
    pub seed: u64,
    pub repeats: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out: String,
    pub commit: String,
    pub rustc: String,
}

/// Parse `suite` flags. Input from outside: every value is checked.
pub fn parse(argv: &[String]) -> Result<SuiteArgs, String> {
    let mut a = SuiteArgs {
        seed: 1,
        repeats: 10,
        seconds: spec::RUN_SECONDS as f64,
        quick: false,
        out: "benchmark/out/results.json".into(),
        commit: "unknown".into(),
        rustc: "unknown".into(),
    };
    let mut repeats_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--repeats" => {
                a.repeats = value()?.parse().map_err(|e| format!("--repeats: {e}"))?;
                repeats_given = true;
            }
            "--out" => a.out = value()?.clone(),
            "--commit" => a.commit = value()?.clone(),
            "--rustc" => a.rustc = value()?.clone(),
            "--quick" => a.quick = true,
            other => return Err(format!("unknown suite argument {other}")),
        }
    }
    if a.quick {
        // Smoke use only: about 8x less of everything, never compared.
        a.seconds = (spec::RUN_SECONDS as f64 / 8.0).max(1.0);
        if !repeats_given {
            a.repeats = 3;
        }
    }
    if !(1..=100).contains(&a.repeats) {
        return Err("--repeats must be in 1..=100".into());
    }
    Ok(a)
}

/// One child run: its result object and the `# key: value` notes it
/// printed before it.
struct Child {
    result: Json,
    notes: Vec<(String, String)>,
}

fn run_child(a: &SuiteArgs, workload: &str, seed: u64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if a.quick {
        cmd.arg("--quick");
    }
    if trace {
        let dir = std::path::Path::new(&a.out)
            .parent()
            .map(|p| p.to_string_lossy().into_owned())
            .filter(|p| !p.is_empty())
            .unwrap_or_else(|| ".".into());
        cmd.args(["--trace-out", &format!("{dir}/trace-{workload}.json")]);
    }
    // `output` waits for the child to end and collects what it printed.
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{workload} seed {seed} trace {}: no result line ({e}); exit {:?}\n{stdout}{}",
            trace as u8,
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let notes = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("# ")?.split_once(": "))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    for line in stdout.lines().filter(|l| l.starts_with("VIOLATION")) {
        println!("  {workload} seed {seed}: {line}");
    }
    Ok(Child { result, notes })
}

fn note<'a>(notes: &'a [(String, String)], key: &str) -> Option<&'a str> {
    notes
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// The values one metric took, one per run.
fn values(children: &[Child], name: &str) -> Vec<f64> {
    children
        .iter()
        .filter_map(|c| c.result.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

/// `name -> {unit, values}` in spec order, as the result file stores it.
fn gather(children: &[Child], names: &[(&'static str, &'static str)]) -> Json {
    Json::obj(names.iter().map(|(name, unit)| {
        let values = values(children, name).into_iter().map(Json::Num).collect();
        (
            *name,
            Json::obj([("unit", Json::str(*unit)), ("values", Json::Arr(values))]),
        )
    }))
}

fn sum_field(children: &[Child], field: &str) -> f64 {
    children
        .iter()
        .filter_map(|c| c.result.get(field)?.as_f64())
        .sum()
}

/// Run the whole suite, print every metric by name with its unit, write
/// the result file. Returns whether every run was correct.
pub fn run(a: &SuiteArgs) -> Result<bool, String> {
    if let Some(dir) = std::path::Path::new(&a.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    let e2e_names: Vec<_> = spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layer_names: Vec<_> = spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    println!(
        "suite: seeds {}..{} x {} s, nproc {}, sim_maint shards {}{}",
        a.seed,
        a.seed + a.repeats - 1,
        a.seconds,
        procstat::nproc(),
        sim_maint::shards(),
        if a.quick { " (quick: smoke only)" } else { "" }
    );

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (workload, _) in spec::WORKLOADS {
        println!("\n== {workload}");
        let mut timed = Vec::new();
        for r in 0..a.repeats {
            timed.push(run_child(a, workload, a.seed + r, false)?);
        }
        let traced = vec![run_child(a, workload, a.seed, true)?];
        let correct = timed
            .iter()
            .chain(&traced)
            .all(|c| c.result.get("correct").and_then(Json::as_bool) == Some(true));
        all_correct &= correct;

        let e2e = gather(&timed, &e2e_names);
        let layers = gather(&traced, &layer_names);
        println!(
            "{:<36} {:>14} {:>8} {:>8}  unit   (median, quartile spread, bound; {} runs)",
            "end-to-end", "median", "spread", "bound", a.repeats
        );
        for m in &spec::END_TO_END {
            let values = values(&timed, m.name);
            println!(
                "{:<36} {:>14.4} {:>8} {:>8.3}  {}",
                m.name,
                stats::median(&values),
                stats::quartile_spread(&values).map_or("-".into(), |s| format!("{s:.3}")),
                m.bound,
                m.unit
            );
        }
        println!(
            "{:<36} {:>14}  unit   moves -> (traced run, seed {})",
            "per-layer", "value", a.seed
        );
        for m in &spec::PER_LAYER {
            let moves = if m.on.contains(&workload) {
                m.moves
            } else {
                "(predicted: no change here)"
            };
            let v = values(&traced, m.name).first().copied().unwrap_or(0.0);
            println!("{:<36} {:>14.4}  {:<6} {moves}", m.name, v, m.unit);
        }
        if let Some(b) = note(&traced[0].notes, "budget") {
            println!("budget: {b}");
        }
        let attempted = sum_field(&timed, "attempted");
        let failed = sum_field(&timed, "failed");
        println!(
            "failed_share: {} of {} ops{}",
            failed,
            attempted,
            if correct { "" } else { "  ** INCORRECT **" }
        );

        let digests = timed
            .iter()
            .map(|c| Json::str(note(&c.notes, "digest").unwrap_or("")))
            .collect();
        workloads.push((
            workload,
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                (
                    "nodes",
                    Json::str(note(&timed[0].notes, "nodes").unwrap_or("")),
                ),
                ("digests", Json::Arr(digests)),
                ("end_to_end", e2e),
                ("per_layer", layers),
                (
                    "budget",
                    Json::str(note(&traced[0].notes, "budget").unwrap_or("")),
                ),
            ]),
        ));
    }

    let doc = Json::obj([
        (
            "stamp",
            Json::obj([
                ("nproc", Json::Num(procstat::nproc() as f64)),
                ("shards", Json::Num(sim_maint::shards() as f64)),
                ("commit", Json::str(a.commit.as_str())),
                ("rustc", Json::str(a.rustc.as_str())),
                ("seed", Json::Num(a.seed as f64)),
                ("repeats", Json::Num(a.repeats as f64)),
                ("seconds", Json::Num(a.seconds)),
                ("quick", Json::Bool(a.quick)),
            ]),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    std::fs::write(&a.out, doc.render() + "\n").map_err(|e| format!("{}: {e}", a.out))?;
    println!("\nwrote {}", a.out);
    Ok(all_correct)
}
