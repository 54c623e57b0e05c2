//! The memx benchmark: three workloads run in-process against the
//! public APIs of `memx_ir`, `memx_core`, `memx_bench::experiments` and
//! `memx_serve`, with every output checked.
//!
//! ```text
//! perfbench --workload <btpc_explore|specgen_batch|serve_mixed|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! An untraced run prints the end-to-end metrics; a traced run (`--trace
//! 1`) prints the per-layer metrics and writes its span record to
//! `.perfbench-work/trace-<workload>.jsonl`. Either way the last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. `--workload all` runs each workload in a process of
//! its own, so that each reports its own peak memory. See README.md.

mod btpc;
mod layers;
mod metrics;
mod serve;
mod specgen;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use metrics::{Metrics, END_TO_END, PER_LAYER};
use stats::Tally;
use trace::Tracer;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["btpc_explore", "specgen_batch", "serve_mixed"];

/// Where runs keep their scratch state (the serve cache) and traced
/// runs their span record, relative to the working directory.
const WORK_DIR: &str = ".perfbench-work";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`], or `all`.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// What a workload run hands back.
pub struct RunResult {
    /// Checked operations.
    pub tally: Tally,
    /// Everything measured.
    pub metrics: Metrics,
    /// The span record of a traced run.
    pub tracer: Option<Tracer>,
}

/// Wall times of every span named `name`, in nanoseconds.
pub fn span_wall_ns(tr: &Tracer, name: &str) -> Vec<f64> {
    (0..tr.spans().len())
        .filter(|&i| tr.spans()[i].name == name)
        .map(|i| tr.wall_ns(i) as f64)
        .collect()
}

/// Derives the per-layer metrics from a traced run's spans.
/// `engine_ns` holds the engine wall time of each traced pass, which
/// evaluated `engine_points` points; the replay spans hold one pass's
/// worth of serial layer work.
pub fn layer_metrics(m: &mut Metrics, tr: &Tracer, engine_ns: &[f64], engine_points: usize) {
    let totals = tr.totals();
    let get = |name: &str| totals.get(name).cloned().unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6;
    let per_call_us = |t: &trace::Totals| match t.calls {
        0 => 0.0,
        n => t.self_ns as f64 / 1e3 / n as f64,
    };
    let counter = |t: &trace::Totals, k: &str| t.counters.get(k).copied().unwrap_or(0);

    let parse = get("parse");
    m.count("parse.calls", parse.calls);
    m.set("parse.busy_ms", ms(parse.self_ns), parse.calls as usize);
    if parse.self_ns > 0 {
        let mib = counter(&parse, "bytes") as f64 / f64::from(1 << 20);
        let rate = mib / (parse.self_ns as f64 / 1e9);
        m.set("parse.mib_per_s", rate, parse.calls as usize);
    }

    let scbd = get("scbd");
    m.count("scbd.calls", scbd.calls);
    m.set("scbd.busy_ms", ms(scbd.self_ns), scbd.calls as usize);
    m.set("scbd.us_per_call", per_call_us(&scbd), scbd.calls as usize);
    m.count("scbd.too_tight", counter(&scbd, "too_tight"));
    let probe = get("probe.scbd");
    m.count("scbd.probe_calls", probe.calls);
    m.set(
        "scbd.probe_busy_ms",
        ms(probe.self_ns),
        probe.calls as usize,
    );

    let alloc = get("alloc");
    let n = alloc.calls as usize;
    m.count("alloc.calls", alloc.calls);
    m.set("alloc.busy_ms", ms(alloc.self_ns), n);
    m.set("alloc.us_per_call", per_call_us(&alloc), n);
    let onchip = counter(&alloc, "onchip_nodes");
    let offchip = counter(&alloc, "offchip_nodes");
    m.count("alloc.onchip_nodes", onchip);
    m.count("alloc.offchip_nodes", offchip);
    // Only searches that ran expanded nodes: exclude cache-served calls.
    let searched_ns: u64 = tr
        .spans()
        .iter()
        .zip(tr.self_ns())
        .filter(|(s, _)| s.name == "alloc" && !s.counters.contains(&("hit", 1)))
        .map(|(_, ns)| ns)
        .sum();
    if onchip + offchip > 0 {
        let per_node = searched_ns as f64 / (onchip + offchip) as f64;
        m.set("alloc.ns_per_node", per_node, n);
    }
    m.count("alloc.sweep_skips", counter(&alloc, "sweep_skips"));
    m.count("alloc.dominance_cuts", counter(&alloc, "dominance_cuts"));
    m.count("alloc.exhausted", counter(&alloc, "exhausted"));

    let macp = get("macp");
    m.count("macp.calls", macp.calls);
    m.set("macp.busy_ms", ms(macp.self_ns), macp.calls as usize);

    m.count("engine.workers", layers::WORKERS as u64);
    if let Some(wall) = stats::median(engine_ns) {
        m.count("engine.points", engine_points as u64);
        m.set("engine.wall_ms", wall / 1e6, engine_ns.len());
        let serial = (scbd.self_ns + alloc.self_ns + macp.self_ns) as f64;
        let efficiency = serial / (layers::WORKERS as f64 * wall);
        m.set("engine.parallel_efficiency", efficiency, engine_ns.len());
    }

    // Calls the cache answered, against calls it missed (computed and
    // wrote), over SCBD and allocation spans of a cached replay.
    let mut hit = Vec::new();
    let mut miss = Vec::new();
    for (i, s) in tr.spans().iter().enumerate() {
        if let Some(&(_, h)) = s.counters.iter().find(|(k, _)| *k == "hit") {
            if h > 0 { &mut hit } else { &mut miss }.push(tr.wall_ns(i) as f64 / 1e3);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    if !hit.is_empty() {
        m.set("cache.hit_call_us", mean(&hit), hit.len());
    }
    if !miss.is_empty() {
        m.set("cache.miss_call_us", mean(&miss), miss.len());
    }
}

/// Tracing overhead: the traced figure minus the untraced one, as a
/// percentage of the untraced one.
pub fn overhead(m: &mut Metrics, plain: &[f64], traced: &[f64]) {
    if let (Some(p), Some(t)) = (stats::median(plain), stats::median(traced)) {
        m.set("trace.overhead_pct", (t - p) / p * 100.0, traced.len());
    }
}

/// Runs every workload in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        println!("== {workload}");
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let work = PathBuf::from(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "btpc_explore" => btpc::run(&args),
        "specgen_batch" => specgen::run(&args),
        _ => serve::run(&args, &work),
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(tr) = &result.tracer {
        let path = work.join(format!("trace-{}.jsonl", args.workload));
        if let Err(e) = tr.write_record(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "span record: {} ({} spans)",
            path.display(),
            tr.spans().len()
        );
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    match result.metrics.render(catalogue, result.tally) {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_line_parses_workload_seed_seconds_and_trace() {
        let a = args(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mixed", 7, 3, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "all", "--seed"]).is_err());
        assert!(args(&["--workload", "all", "--bogus", "1"]).is_err());
    }
}
