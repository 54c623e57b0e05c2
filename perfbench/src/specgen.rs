//! `specgen_batch`: breadth rather than depth.
//!
//! Thousands of seed-drawn `memx_ir::specgen` specs, each supplied as
//! `.mxspec` text. One pass parses every text and evaluates the whole
//! batch as one `Engine::evaluate_stream` call with [`WORKERS`] workers
//! and no cache, one point per spec.

use std::hint::black_box;
use std::time::Instant;

use memx_core::engine::{DesignPoint, Engine};
use memx_core::explore::EvaluateOptions;
use memx_ir::{parse_spec, print_spec, specgen, AppSpec};
use memx_memlib::MemLibrary;

use crate::layers::{reference, replay_point, Outcome, WORKERS};
use crate::metrics::Metrics;
use crate::stats::{self, Tally};
use crate::trace::Tracer;
use crate::{Args, RunResult};

/// Specs per batch.
const SPECS: u64 = 5000;

/// Set-up rounds, and constructions timed per round: one construction
/// takes about a microsecond, so each round times many and reports the
/// mean, and `setup_s` is the median round.
const SETUP_ROUNDS: usize = 15;
const SETUP_REPS: u32 = 5000;

/// Set-up: what a user pays before the first result, which here is
/// building the technology library and the engine.
fn setup_round() -> f64 {
    let t = Instant::now();
    for _ in 0..SETUP_REPS {
        let lib = black_box(MemLibrary::default_07um());
        let engine = Engine::builder(&lib).workers(WORKERS).build();
        black_box(&engine);
    }
    t.elapsed().as_secs_f64() / f64::from(SETUP_REPS)
}

/// One pass: parse every text, then evaluate the batch. With a tracer,
/// the parse loop and the engine call each get a span under `pass`.
fn pass(
    engine: &Engine,
    texts: &[String],
    options: &EvaluateOptions,
    mut tr: Option<&mut Tracer>,
    id: u64,
) -> (Vec<Option<AppSpec>>, Vec<Option<Outcome>>) {
    let root = tr.as_deref_mut().map(|t| t.begin("pass", id, None));
    let p = tr
        .as_deref_mut()
        .zip(root)
        .map(|(t, r)| t.begin("batch.parse", id, Some(r)));
    let specs: Vec<Option<AppSpec>> = texts.iter().map(|t| parse_spec(t).ok()).collect();
    if let Some((t, p)) = tr.as_deref_mut().zip(p) {
        t.end(p);
    }
    let parsed: Vec<&AppSpec> = specs.iter().flatten().collect();
    let points: Vec<DesignPoint> = parsed
        .iter()
        .map(|spec| DesignPoint::new(String::new(), spec, options.clone()))
        .collect();
    let e = tr
        .as_deref_mut()
        .zip(root)
        .map(|(t, r)| t.begin("engine", id, Some(r)));
    let mut outcomes: Vec<Option<Outcome>> = vec![None; points.len()];
    engine.evaluate_stream(&points, |i, r| outcomes[i] = Some(Outcome::of(r)));
    if let Some(t) = tr {
        e.into_iter().chain(root).for_each(|s| t.end(s));
    }
    (specs, outcomes)
}

/// Checks a pass: one operation per spec, which fails when its text did
/// not parse back to the generated spec or its outcome differs from the
/// reference.
fn check(
    specs: &[Option<AppSpec>],
    outcomes: &[Option<Outcome>],
    generated: &[AppSpec],
    want: &[Outcome],
) -> Tally {
    let mut tally = Tally::default();
    let mut got = outcomes.iter();
    for ((spec, generated), want) in specs.iter().zip(generated).zip(want) {
        let ok = match spec {
            Some(spec) => got.next().and_then(Option::as_ref) == Some(want) && spec == generated,
            None => false,
        };
        tally.check(ok);
    }
    tally
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut tr = Tracer::default();

    // Inputs and reference, outside every timed region.
    let generated: Vec<AppSpec> =
        specgen::generate_batch(args.seed, SPECS).map_err(|e| e.to_string())?;
    let texts: Vec<String> = generated.iter().map(print_spec).collect();
    let lib = MemLibrary::default_07um();
    // `workers: 0` lets the engine give each point its share of WORKERS.
    let options = EvaluateOptions::default();
    let want: Vec<Outcome> = generated
        .iter()
        .map(|s| reference(s, &lib, &options))
        .collect();
    let too_tight = want.iter().filter(|o| matches!(o, Outcome::Err(_))).count();

    let setup_s: Vec<f64> = (0..SETUP_ROUNDS).map(|_| setup_round()).collect();
    m.median("setup_s", &setup_s);

    let engine = Engine::builder(&lib).workers(WORKERS).build();

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
        let (specs, outcomes) = pass(&engine, &texts, &options, traced.then_some(&mut tr), id);
        let dt = t.elapsed().as_secs_f64();
        if traced { &mut traced_s } else { &mut plain_s }.push(dt);
        tally.absorb(check(&specs, &outcomes, &generated, &want));
        id += 1;
    }
    m.peak_rss();
    m.offline_passes(&plain_s, texts.len());
    eprintln!(
        "specgen_batch: seed {}, {} passes of {} specs ({too_tight} rejected by the reference too), engine workers {WORKERS}",
        args.seed,
        plain_s.len() + traced_s.len(),
        texts.len()
    );
    let ms: Vec<f64> = plain_s.iter().map(|s| s * 1e3).collect();
    eprintln!("specgen_batch: pass ms {}", stats::describe(&ms));

    if args.trace {
        let engine_ns = crate::span_wall_ns(&tr, "engine");
        let root = tr.begin("replay", 0, None);
        for (i, (text, want)) in texts.iter().zip(&want).enumerate() {
            let id = i as u64;
            let p = tr.begin("point", id, Some(root));
            let s = tr.begin("parse", id, Some(p));
            let spec = parse_spec(text);
            tr.end(s);
            tr.count(s, "bytes", text.len() as u64);
            let ok = match spec {
                Ok(spec) => {
                    &Outcome::of(replay_point(&mut tr, id, p, &spec, &lib, &options, None)) == want
                }
                Err(_) => false,
            };
            tr.end(p);
            tally.check(ok);
        }
        tr.end(root);
        crate::layer_metrics(&mut m, &tr, &engine_ns, texts.len());
        crate::overhead(&mut m, &plain_s, &traced_s);
    }
    Ok(RunResult {
        tally,
        metrics: m,
        tracer: args.trace.then_some(tr),
    })
}
