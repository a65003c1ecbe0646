//! The repo's benchmark: four workloads over build, serve and churn,
//! nine end-to-end metrics with regression bounds, a per-layer budget
//! from a traced run. `BENCHMARK.json` at the repo root declares it;
//! `README.md` beside this package explains every name.
//!
//! ```text
//! reach-benchmark --workload W --seed N --seconds S --trace 0|1   one run; the last stdout line is the result
//! reach-benchmark run [--workload W] [--seed N] [--seconds S] [--runs R] [--trace] [--smoke] [--out F]
//! reach-benchmark compare A.json B.json
//! reach-benchmark manifest                                        prints BENCHMARK.json
//! ```
//!
//! Everything is measured from outside the crates: by timing calls into
//! their public functions and reading the stats structs they return.

mod build;
mod churn;
mod common;
mod compare;
mod host;
mod json;
mod layers;
mod load;
mod metrics;
mod report;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use common::{Cfg, Outcome};
use json::Value;
use trace::Tracer;

/// Command-line options; which apply depends on the subcommand.
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: Option<PathBuf>,
    /// Internal: where a child of `run` leaves its full record.
    record: Option<PathBuf>,
    /// Internal: run the workload's set-up once and print its timings.
    setup_only: bool,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
        record: None,
        setup_only: false,
        positional: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        let number = |name: &str, v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{name}: {v:?} is not a number"))
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value("--workload")?),
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_owned())?
            }
            "--seconds" => o.seconds = Some(number("--seconds", value("--seconds")?)?),
            "--runs" => o.runs = number("--runs", value("--runs")?)? as usize,
            "--out" => o.out = Some(value("--out")?.into()),
            "--record" => o.record = Some(value("--record")?.into()),
            "--smoke" => o.smoke = true,
            "--setup-only" => o.setup_only = true,
            // `--trace 0|1` as the driver passes it, or bare `--trace`.
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    if o.seconds.is_some_and(|s| !s.is_finite() || s <= 0.0) || o.runs == 0 {
        return Err("--seconds and --runs must be positive".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "compare" | "manifest")) => (c, &args[1..]),
        _ => ("one", &args[..]),
    };
    let result = parse_opts(rest).and_then(|opts| match command {
        "one" => one(&opts),
        "run" => run_all(&opts),
        "compare" => compare_files(&opts),
        _ => {
            print!("{}", metrics::manifest().pretty());
            Ok(true)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("reach-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Seconds a run measures unless told otherwise.
fn default_seconds(smoke: bool) -> f64 {
    if smoke {
        2.0
    } else {
        metrics::RUN_SECONDS as f64
    }
}

/// One run of one workload, as the driver calls it. The result line is
/// the last thing on stdout; progress goes to stderr.
fn one(opts: &Opts) -> Result<bool, String> {
    let workload = opts
        .workload
        .as_deref()
        .ok_or("--workload is required (or use the `run` subcommand)")?;
    let host = host::Host::capture();
    if host.degraded() {
        eprintln!(
            "DEGRADED: nproc {} with load average {:?} at start; timings are not comparable",
            host.nproc, host.load_start
        );
    }
    let cfg = Cfg::new(
        opts.seed,
        opts.seconds.unwrap_or(default_seconds(opts.smoke)),
        opts.trace,
        opts.smoke,
    );
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let tracer = Tracer::new(cfg.trace);
    if !metrics::WORKLOADS.iter().any(|w| w.0 == workload) {
        return Err(format!(
            "unknown workload {workload:?}; one of {:?}",
            metrics::WORKLOADS.map(|w| w.0)
        ));
    }
    if opts.setup_only {
        let set_up = match workload {
            "build" => build::set_up_only(&cfg, &tracer),
            "wire_point" => wire::set_up_only(&wire::POINT, &cfg, &tracer),
            "wire_scan" => wire::set_up_only(&wire::SCAN, &cfg, &tracer),
            _ => churn::set_up_only(&cfg, &tracer),
        };
        println!("{}", set_up.to_line());
        return Ok(true);
    }
    let mut out = match workload {
        "build" => build::run(&cfg, &tracer),
        "wire_point" => wire::run(&wire::POINT, &cfg, &tracer),
        "wire_scan" => wire::run(&wire::SCAN, &cfg, &tracer),
        _ => churn::run(&cfg, &tracer),
    };
    finish(workload, &cfg, &tracer, &mut out)?;

    if let Some(path) = &opts.record {
        let rec = Value::obj([
            ("provenance", host.provenance(Vec::new())),
            ("run", report::record(workload, &cfg, &out)),
        ]);
        std::fs::write(path, rec.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report::driver_line(&out, cfg.trace));
    Ok(out.correct())
}

/// Checks that nothing owed is missing, and writes the trace.
fn finish(workload: &str, cfg: &Cfg, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let missing = report::unmeasured(out, cfg.trace);
    out.gate("every end-to-end metric was measured", missing.is_empty());
    if !missing.is_empty() {
        eprintln!("not measured: {missing:?}");
    }
    out.gate("at least one operation was attempted", out.attempted >= 1);
    if cfg.trace {
        let path = cfg.file(&format!("trace-{workload}.jsonl"));
        let spans = tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("{spans} spans → {}", path.display());
        for (name, calls, self_s) in trace::self_times(&tracer.spans()) {
            eprintln!(
                "  self time {name:<28} {calls:>8} calls {:>12} s",
                report::sig(self_s)
            );
        }
    }
    Ok(())
}

/// Every selected workload, untraced and (with `--trace` or `--smoke`)
/// traced, each run in a process of its own so that peak memory and
/// warm-up are per run; prints every metric and writes a result file.
fn run_all(opts: &Opts) -> Result<bool, String> {
    let host = host::Host::capture();
    if host.degraded() {
        println!(
            "DEGRADED: nproc {} with load average {:?} at start; timings are not comparable",
            host.nproc, host.load_start
        );
    }
    if opts.smoke {
        metrics::check_manifest_file()?;
    }
    let trace = opts.trace || opts.smoke;
    let out_dir = common::out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let seconds = opts.seconds.unwrap_or(default_seconds(opts.smoke));

    let mut runs = Vec::new();
    let mut all_ok = true;
    for (workload, _) in metrics::WORKLOADS
        .iter()
        .filter(|w| opts.workload.as_deref().is_none_or(|only| only == w.0))
    {
        for run in 0..opts.runs as u64 {
            for traced in [false, true] {
                if traced && !trace {
                    continue;
                }
                let record = out_dir.join("record.json");
                let mut child = Command::new(&exe);
                child.args([
                    "--workload",
                    workload,
                    "--seed",
                    &(opts.seed + run).to_string(),
                ]);
                child.args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if traced { "1" } else { "0" },
                ]);
                child.arg("--record").arg(&record);
                if opts.smoke {
                    child.arg("--smoke");
                }
                // The child's result line is for the driver; here the
                // record file carries more.
                let status = child
                    .stdout(std::process::Stdio::null())
                    .status()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                let text = std::fs::read_to_string(&record)
                    .map_err(|e| format!("{workload}: no record ({status}): {e}"))?;
                let _ = std::fs::remove_file(&record);
                let rec = json::parse(&text)?;
                let rec = rec.get("run").cloned().ok_or("record without a run")?;
                report::print_table(&rec);
                all_ok &=
                    status.success() && rec.get("correct").and_then(Value::as_bool) == Some(true);
                runs.push(rec);
            }
        }
    }
    if runs.is_empty() {
        return Err(format!("no workload named {:?}", opts.workload));
    }
    if opts.smoke && opts.workload.is_none() {
        all_ok &= every_layer_measured_somewhere(&runs);
    }

    let file = Value::obj([
        (
            "provenance",
            host.provenance(vec![
                ("seed", Value::Num(opts.seed as f64)),
                ("runs_per_workload", Value::Num(opts.runs as f64)),
                ("seconds", Value::Num(seconds)),
                ("smoke", Value::Bool(opts.smoke)),
            ]),
        ),
        ("runs", Value::Arr(runs)),
    ]);
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join("result.json"));
    std::fs::write(&path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\nwrote {}{}",
        path.display(),
        if all_ok { "" } else { " — a run FAILED" }
    );
    Ok(all_ok)
}

/// Smoke: a per-layer metric may be 0 on a workload that does not touch
/// its layer, but some workload must measure it.
fn every_layer_measured_somewhere(runs: &[Value]) -> bool {
    let measured = |name: &str| {
        runs.iter().any(|r| {
            let m = r.get("metrics").and_then(|m| m.get(name));
            // A measured metric carries its sample count.
            m.is_some_and(|m| m.get("samples").is_some())
        })
    };
    let missing: Vec<&str> = metrics::PER_LAYER
        .iter()
        .map(|m| m.name)
        .filter(|n| !measured(n))
        .collect();
    if !missing.is_empty() {
        println!("declared but measured by no workload: {missing:?}");
    }
    missing.is_empty()
}

fn compare_files(opts: &Opts) -> Result<bool, String> {
    let [a, b] = &opts.positional[..] else {
        return Err("usage: compare A.json B.json".into());
    };
    let read = |path: &str| -> Result<Value, String> {
        json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let manifest = read(metrics::manifest_path().to_str().ok_or("manifest path")?)?;
    let rows = compare::compare(&manifest, &read(a)?, &read(b)?);
    if rows.is_empty() {
        return Err("the two files share no workload".into());
    }
    Ok(compare::print(&rows))
}
