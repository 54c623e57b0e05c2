//! `btpc_explore`: the paper's full BTPC exploration at full fidelity.
//!
//! One pass is Table 1's three structuring variants, Table 2's four
//! hierarchy variants, the crossover probe plus the extended Table-3
//! budget sweep, and Table 4's five allocation counts: 23 design points
//! over one engine with [`WORKERS`] workers and no cache. The inputs
//! are the paper's, so the seed is not used.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use memx_bench::experiments::{
    self, extended_extras, paper_allocations, table1, table2, table3_stream, table4_stream,
    PaperContext, CYCLE_BUDGET,
};
use memx_core::alloc::{AllocOptions, MemoryKind, Organization};
use memx_core::explore::{EvaluateOptions, Exploration};
use memx_core::hierarchy::apply_hierarchy;
use memx_core::structuring::{compact, merge};
use memx_core::ExploreError;
use memx_ir::{AppSpec, Placement};

use crate::layers::{reference, replay_point, Outcome, WORKERS};
use crate::metrics::Metrics;
use crate::stats::{self, Tally};
use crate::trace::Tracer;
use crate::{Args, RunResult};

/// The committed paper-table snapshot that the conformance suite pins.
const GOLDEN: &str = include_str!("../../tests/golden/paper_tables.txt");

/// Set-up rounds; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;

/// Table 4's working budget (the paper's 15.7 % point).
const TABLE4_BUDGET: u64 = CYCLE_BUDGET - 3_133_568;

/// The spec variants of one pass, built during set-up.
struct Variants {
    table1: [AppSpec; 3],
    table2: [AppSpec; 4],
    winner: AppSpec,
}

/// Set-up: BTPC profiling plus building the spec variants.
fn setup(tr: Option<&mut Tracer>) -> Result<(PaperContext, Variants), ExploreError> {
    let t = Instant::now();
    let mut ctx = experiments::paper_context();
    if let Some(tr) = tr {
        tr.record("setup.profile", 0, t, Instant::now());
    }
    ctx.workers = WORKERS;
    // `0` lets the engine give each point its share of WORKERS.
    ctx.alloc.workers = 0;
    let spec = &ctx.btpc.spec;
    let compacted = compact(spec, ctx.btpc.ridge, 3)?.spec;
    let merged = merge(spec, ctx.btpc.pyr, ctx.btpc.ridge)?;
    let (ylocal, yhier_serving, yhier_feeding) = experiments::figure3_layers();
    let pixels = merged.new_group;
    let l1 = apply_hierarchy(&merged.spec, pixels, std::slice::from_ref(&yhier_serving))?.spec;
    let l0 = apply_hierarchy(&merged.spec, pixels, std::slice::from_ref(&ylocal))?.spec;
    let both = apply_hierarchy(&merged.spec, pixels, &[ylocal, yhier_feeding])?.spec;
    let variants = Variants {
        table1: [spec.clone(), compacted, merged.spec.clone()],
        winner: l0.clone(),
        table2: [merged.spec, l1, l0, both],
    };
    Ok((ctx, variants))
}

/// The design points of one pass, in pass order: label, spec, options.
fn points<'a>(
    ctx: &PaperContext,
    v: &'a Variants,
    extras: &[u64],
) -> Vec<(String, &'a AppSpec, EvaluateOptions)> {
    let base = ctx.options();
    let t1 = ["No structuring", "ridge compacted", "ridge and pyr merged"];
    let t2 = [
        "No hierarchy",
        "Only layer 1 (yhier)",
        "Only layer 0 (ylocal)",
        "2 layers (both)",
    ];
    let mut out = Vec::new();
    for (label, spec) in t1.iter().zip(&v.table1) {
        out.push((format!("1/{label}"), spec, base.clone()));
    }
    for (label, spec) in t2.iter().zip(&v.table2) {
        out.push((format!("2/{label}"), spec, base.clone()));
    }
    for &extra in extras {
        let label = format!(
            "3/extra={extra} ({:.2}%)",
            extra as f64 / CYCLE_BUDGET as f64 * 100.0
        );
        let options = EvaluateOptions {
            cycle_budget: Some(CYCLE_BUDGET - extra),
            alloc: ctx.alloc.clone(),
        };
        out.push((label, &v.winner, options));
    }
    for k in paper_allocations() {
        let options = EvaluateOptions {
            cycle_budget: Some(TABLE4_BUDGET),
            alloc: AllocOptions {
                on_chip_memories: Some(k),
                ..ctx.alloc.clone()
            },
        };
        out.push((format!("4/k={k}"), &v.winner, options));
    }
    out
}

/// Everything one pass delivered, in pass order.
struct PassOutput {
    /// Per table, the delivered outcomes or the call's error.
    tables: [Result<Vec<Outcome>, ExploreError>; 4],
    /// The extended Table-3 budget points the probe produced.
    extras: Result<Vec<u64>, ExploreError>,
}

/// One pass through the experiment entry points. With a tracer, each
/// call gets a span under a `pass` span.
fn pass(ctx: &PaperContext, mut tr: Option<&mut Tracer>, id: u64) -> PassOutput {
    let root = tr.as_deref_mut().map(|t| t.begin("pass", id, None));
    let span = |tr: &mut Option<&mut Tracer>, name| match (tr.as_deref_mut(), root) {
        (Some(t), Some(r)) => Some(t.begin(name, id, Some(r))),
        _ => None,
    };
    let close = |tr: &mut Option<&mut Tracer>, s: Option<usize>| {
        if let (Some(t), Some(s)) = (tr.as_deref_mut(), s) {
            t.end(s);
        }
    };
    let reports = |r: Result<Exploration, ExploreError>| {
        r.map(|e| e.reports().iter().map(Outcome::from_report).collect())
    };

    let s = span(&mut tr, "engine");
    let t1 = reports(table1(ctx));
    close(&mut tr, s);
    let s = span(&mut tr, "engine");
    let t2 = reports(table2(ctx));
    close(&mut tr, s);
    let s = span(&mut tr, "probe");
    let extras = extended_extras(ctx);
    close(&mut tr, s);
    let s = span(&mut tr, "engine");
    let mut rows = Vec::new();
    let t3 = match &extras {
        Ok(extras) => {
            table3_stream(ctx, extras, |row| rows.push(Outcome::of(Ok(row.report)))).map(|()| rows)
        }
        Err(e) => Err(e.clone()),
    };
    close(&mut tr, s);
    let s = span(&mut tr, "engine");
    let mut rows = Vec::new();
    let t4 = table4_stream(ctx, &paper_allocations(), |row| {
        rows.push(Outcome::of(Ok(row.report)))
    })
    .map(|()| rows);
    close(&mut tr, s);
    close(&mut tr, root);
    PassOutput {
        tables: [t1, t2, t3, t4],
        extras,
    }
}

/// Checks one pass against the reference; one operation per design
/// point. Table 3 delivers its rows up to the first too-tight budget
/// and stops there, so its undelivered points are correct exactly when
/// the reference stops at the same row.
fn check(out: PassOutput, want_extras: &[u64], want: &[Vec<Outcome>; 4]) -> Tally {
    let mut tally = Tally::default();
    let extras_ok = out.extras.as_deref().ok() == Some(want_extras);
    for (i, (got, want)) in out.tables.into_iter().zip(want).enumerate() {
        let got = match got {
            Ok(got) if i != 2 || extras_ok => got,
            _ => {
                tally.fail_all(want.len() as u64);
                continue;
            }
        };
        let delivered = if i == 2 {
            want.iter()
                .take_while(|o| matches!(o, Outcome::Ok { .. }))
                .count()
        } else {
            want.len()
        };
        for (j, expected) in want.iter().enumerate() {
            let ok = if j < delivered {
                got.get(j) == Some(expected)
            } else {
                got.len() == delivered
            };
            tally.check(ok);
        }
    }
    tally
}

/// Splits pass-ordered outcomes into the four tables.
fn by_table(labels: &[String], outcomes: Vec<Outcome>) -> [Vec<Outcome>; 4] {
    let mut tables: [Vec<Outcome>; 4] = Default::default();
    for (label, o) in labels.iter().zip(outcomes) {
        let t = usize::from(label.as_bytes()[0] - b'1');
        tables[t].push(o);
    }
    tables
}

/// Renders a row as the conformance suite's snapshot does.
fn render_row(out: &mut String, label: &str, spec: &AppSpec, outcome: &Outcome) {
    let Outcome::Ok {
        cost, organization, ..
    } = outcome
    else {
        let _ = writeln!(out, "  {label}: {outcome:?}");
        return;
    };
    let _ = writeln!(
        out,
        "  {label}: area={:.4}mm2 on_power={:.4}mW off_power={:.4}mW",
        cost.on_chip_area_mm2, cost.on_chip_power_mw, cost.off_chip_power_mw
    );
    render_organization(out, spec, organization);
}

fn render_organization(out: &mut String, spec: &AppSpec, org: &Organization) {
    for mem in &org.memories {
        let kind = match mem.kind {
            MemoryKind::OnChip => "on",
            MemoryKind::OffChip(_) => "off",
        };
        let mut names: Vec<&str> = mem.groups.iter().map(|&g| spec.group(g).name()).collect();
        names.sort_unstable();
        let _ = writeln!(
            out,
            "    {kind}-chip {}x{}b/{}p: {}",
            mem.words,
            mem.width,
            mem.ports,
            names.join(", ")
        );
    }
}

/// The snapshot's rows keyed by `<table>/<label>`.
fn golden_rows() -> BTreeMap<String, String> {
    let mut rows = BTreeMap::new();
    let mut table = '?';
    let mut current: Option<(String, String)> = None;
    for line in GOLDEN.lines() {
        if let Some(rest) = line.strip_prefix("Table ") {
            table = rest.chars().next().unwrap_or('?');
        } else if line.starts_with("    ") {
            if let Some((_, block)) = current.as_mut() {
                block.push_str(line);
                block.push('\n');
            }
            continue;
        }
        if let Some((key, block)) = current.take() {
            rows.insert(key, block);
        }
        if let Some(row) = line.strip_prefix("  ") {
            let label = row.split(": area=").next().unwrap_or(row);
            current = Some((format!("{table}/{label}"), format!("{line}\n")));
        }
    }
    if let Some((key, block)) = current {
        rows.insert(key, block);
    }
    rows
}

/// Checks every reference row whose label the snapshot has; every
/// snapshot row must be found.
fn check_golden(
    labels: &[String],
    specs: &[&AppSpec],
    reference: &[Outcome],
    tally: &mut Tally,
) -> usize {
    let golden = golden_rows();
    let mut found = 0;
    for ((key, spec), outcome) in labels.iter().zip(specs).zip(reference) {
        let Some(want) = golden.get(key) else {
            continue;
        };
        found += 1;
        let mut got = String::new();
        render_row(&mut got, &key[2..], spec, outcome);
        tally.check(&got == want);
    }
    for _ in found..golden.len() {
        tally.check(false);
    }
    found
}

/// The crossover probe of `experiments::on_chip_crossover_extra`,
/// replayed with one span per SCBD call. Returns the crossover.
fn replay_probe(tr: &mut Tracer, parent: usize, spec: &AppSpec) -> u64 {
    let step = CYCLE_BUDGET / 100;
    let mut last_free = 0;
    for (i, extra) in (0..CYCLE_BUDGET * 2 / 5).step_by(step as usize).enumerate() {
        let s = tr.begin("probe.scbd", i as u64, Some(parent));
        let result = memx_core::scbd::distribute_with_budget(spec, CYCLE_BUDGET - extra);
        tr.end(s);
        let Ok(result) = result else {
            break;
        };
        let forced_multiport = spec.basic_groups().iter().any(|g| {
            g.placement() != Placement::OffChip
                && result.required_ports(|x| x == g.id()) > g.min_ports()
        });
        if forced_multiport {
            return extra;
        }
        last_free = extra;
    }
    last_free
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let err = |e: ExploreError| e.to_string();
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut tr = Tracer::default();

    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        let done = setup(args.trace.then_some(&mut tr)).map_err(err)?;
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some(done);
    }
    let (ctx, variants) = built.ok_or("no set-up round ran")?;
    m.median("setup_s", &setup_s);

    // Reference: serial and uncached, outside every timed region.
    let want_extras = extended_extras(&ctx).map_err(err)?;
    let pts = points(&ctx, &variants, &want_extras);
    let labels: Vec<String> = pts.iter().map(|p| p.0.clone()).collect();
    let specs: Vec<&AppSpec> = pts.iter().map(|p| p.1).collect();
    let want: Vec<Outcome> = pts
        .iter()
        .map(|(_, spec, opts)| reference(spec, &ctx.lib, opts))
        .collect();
    let golden_found = check_golden(&labels, &specs, &want, &mut tally);
    let want = by_table(&labels, want);
    let points_per_pass = pts.len();

    // Measured passes; a traced run spends half its time untraced so
    // that the tracing overhead can be read off.
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let start = Instant::now();
    let half = args.seconds as f64 / 2.0;
    let mut id = 0;
    while plain_s.is_empty()
        || (args.trace && traced_s.is_empty())
        || start.elapsed().as_secs_f64() < args.seconds as f64
    {
        let traced = args.trace && !plain_s.is_empty() && start.elapsed().as_secs_f64() >= half;
        let t = Instant::now();
        let out = pass(&ctx, traced.then_some(&mut tr), id);
        let dt = t.elapsed().as_secs_f64();
        if traced { &mut traced_s } else { &mut plain_s }.push(dt);
        tally.absorb(check(out, &want_extras, &want));
        id += 1;
    }
    m.peak_rss();
    m.offline_passes(&plain_s, points_per_pass);
    eprintln!(
        "btpc_explore: {} passes of {points_per_pass} points, {golden_found} rows checked against the golden snapshot, engine workers {WORKERS}",
        plain_s.len() + traced_s.len()
    );
    let ms: Vec<f64> = plain_s.iter().map(|s| s * 1e3).collect();
    eprintln!("btpc_explore: pass ms {}", stats::describe(&ms));

    if args.trace {
        let engine_ns: Vec<f64> = pass_engine_ns(&tr);
        let root = tr.begin("replay", 0, None);
        let crossover = replay_probe(&mut tr, root, &variants.winner);
        tally.check(experiments::on_chip_crossover_extra(&variants.winner) == Ok(crossover));
        let replayed: Vec<Outcome> = pts
            .iter()
            .enumerate()
            .map(|(i, (_, spec, opts))| {
                let p = tr.begin("point", i as u64, Some(root));
                let o = Outcome::of(replay_point(
                    &mut tr, i as u64, p, spec, &ctx.lib, opts, None,
                ));
                tr.end(p);
                o
            })
            .collect();
        tr.end(root);
        for (got, want) in replayed.iter().zip(want.iter().flatten()) {
            tally.check(got == want);
        }
        crate::layer_metrics(&mut m, &tr, &engine_ns, points_per_pass);
        let profile_ms: Vec<f64> = crate::span_wall_ns(&tr, "setup.profile")
            .iter()
            .map(|ns| ns / 1e6)
            .collect();
        m.median("setup.profile_ms", &profile_ms);
        crate::overhead(&mut m, &plain_s, &traced_s);
    }
    Ok(RunResult {
        tally,
        metrics: m,
        tracer: args.trace.then_some(tr),
    })
}

/// Engine wall time of every traced pass (the sum of its engine spans).
fn pass_engine_ns(tr: &Tracer) -> Vec<f64> {
    let mut per_pass: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, s) in tr.spans().iter().enumerate() {
        if s.name == "engine" {
            *per_pass.entry(s.id).or_default() += tr.wall_ns(i);
        }
    }
    per_pass.values().map(|&ns| ns as f64).collect()
}
