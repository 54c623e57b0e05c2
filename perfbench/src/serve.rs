//! `serve_mixed`: the daemon under a closed-loop mix of cache hits,
//! cache-writing variants and fresh specs.
//!
//! `memx-serve` is booted in-process on loopback with [`HANDLERS`]
//! handlers and [`WORKERS`] engine workers. Its `EvalCache` is warmed
//! during set-up with a pool of [`POOL`] seed-drawn specs. [`CLIENTS`]
//! clients then each send their next `POST /v1/evaluate` only after the
//! previous response has completed. Every request carries `spec_text`
//! and four points, and is one of:
//!
//! - **hit** (95 %): a pool body again, so every cache read hits;
//! - **variant** (3 %): a pool spec with a never-used `area_weight`:
//!   SCBD hit, allocation miss plus write, block-catalog hit;
//! - **fresh** (2 %): an unseen spec, so every kind misses and writes.
//!
//! The cache lives in the working directory, on whatever filesystem
//! holds it. Cache writes are small-file creates and renames, whose
//! cost on a shared virtual disk swings two- to tenfold from minute to
//! minute; writing requests are kept rare enough that they do not set
//! the end-to-end figures, and the traced run reports their latency
//! per class (see README.md).

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use memx_core::cache::EvalCache;
use memx_core::explore::CostReport;
use memx_core::ExploreError;
use memx_ir::{parse_spec, print_spec, specgen};
use memx_memlib::MemLibrary;
use memx_serve::client::{self, Response};
use memx_serve::json::{self, write_escaped, Json};
use memx_serve::server::{ServeConfig, Server};
use memx_serve::wire::{self, WireLimits};

use crate::layers::{replay_point, WORKERS};
use crate::metrics::Metrics;
use crate::stats::{self, Tally};
use crate::trace::Tracer;
use crate::{Args, RunResult};

/// Specs warmed into the cache during set-up.
const POOL: usize = 64;
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Daemon connection handlers.
const HANDLERS: usize = 2;
/// Set-up rounds. The first boot fills a fresh cache with the pool;
/// each round then restarts a daemon on that persistent cache and warms
/// it with the pool again. `setup_s` is the median round, and the last
/// daemon serves the measured phase.
const SETUP_ROUNDS: usize = 5;
/// Traced requests replayed through the layer chain.
const REPLAY_CAP: usize = 3000;
/// Fresh specs are drawn from this index of the seed's specgen stream
/// on, far past the pool's candidates.
const FRESH_BASE: u64 = 1 << 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Hit,
    Variant,
    Fresh,
}

/// Request `i` of stream `seed`: its class and pool slot.
fn plan(seed: u64, i: u64) -> (Class, usize) {
    // SplitMix64 over (seed, i): the same seed gives the same requests.
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let class = match z % 100 {
        0..=94 => Class::Hit,
        95..=97 => Class::Variant,
        _ => Class::Fresh,
    };
    (class, ((z >> 8) % POOL as u64) as usize)
}

/// A request body: the spec text plus four points (base budget, −1/8,
/// +1/2, and two on-chip memories at the base budget), all with
/// `area_weight` when one is given.
fn body(spec_text: &str, budget: u64, area_weight: Option<f64>) -> String {
    let weight = area_weight.map_or(String::new(), |w| format!("\"area_weight\": {w}"));
    let alloc = |extra: &str| match (extra.is_empty(), weight.is_empty()) {
        (true, true) => String::new(),
        (true, false) => format!(", \"alloc\": {{{weight}}}"),
        (false, true) => format!(", \"alloc\": {{{extra}}}"),
        (false, false) => format!(", \"alloc\": {{{extra}, {weight}}}"),
    };
    let mut out = String::from("{\"spec_text\": ");
    write_escaped(spec_text, &mut out);
    out.push_str(&format!(
        ", \"points\": [\
         {{\"label\": \"base\", \"cycle_budget\": {budget}{a}}}, \
         {{\"label\": \"tight\", \"cycle_budget\": {tight}{a}}}, \
         {{\"label\": \"loose\", \"cycle_budget\": {loose}{a}}}, \
         {{\"label\": \"k2\", \"cycle_budget\": {budget}{k}}}]}}",
        a = alloc(""),
        k = alloc("\"on_chip_memories\": 2"),
        tight = budget - budget / 8,
        loose = budget + budget / 2,
    ));
    out
}

/// The warmed pool: hit bodies and their reference rows.
struct Pool {
    texts: Vec<String>,
    budgets: Vec<u64>,
    bodies: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Pool {
    /// The first [`POOL`] specs of the seed's stream whose four points
    /// all evaluate, so that a hit request's every cache read hits
    /// (errors are never cached).
    fn draw(seed: u64) -> Result<Pool, String> {
        let mut pool = Pool {
            texts: Vec::new(),
            budgets: Vec::new(),
            bodies: Vec::new(),
            rows: Vec::new(),
        };
        for i in 0..POOL as u64 * 64 {
            if pool.bodies.len() == POOL {
                return Ok(pool);
            }
            let spec = specgen::generate(seed, i).map_err(|e| e.to_string())?;
            let text = print_spec(&spec);
            let b = body(&text, spec.cycle_budget(), None);
            let rows = wire::offline_rows(b.as_bytes(), WireLimits::default())?;
            if rows.iter().all(|r| r.contains("\"ok\":")) {
                pool.texts.push(text);
                pool.budgets.push(spec.cycle_budget());
                pool.bodies.push(b);
                pool.rows.push(rows);
            }
        }
        Err(format!(
            "fewer than {POOL} fully feasible specs in the stream"
        ))
    }

    /// The body of request `i`.
    fn request(&self, seed: u64, i: u64) -> Result<String, String> {
        Ok(match plan(seed, i) {
            (Class::Hit, p) => self.bodies[p].clone(),
            // A binary fraction unique to `i`: never used before.
            (Class::Variant, p) => {
                let weight = 1.0 + (i + 1) as f64 / f64::from(1 << 20);
                body(&self.texts[p], self.budgets[p], Some(weight))
            }
            (Class::Fresh, _) => {
                let spec = specgen::generate(seed, FRESH_BASE + i).map_err(|e| e.to_string())?;
                body(&print_spec(&spec), spec.cycle_budget(), None)
            }
        })
    }
}

fn rows_hash(rows: impl IntoIterator<Item = impl AsRef<[u8]>>) -> u64 {
    let mut h = DefaultHasher::new();
    for r in rows {
        r.as_ref().hash(&mut h);
    }
    h.finish()
}

/// `"H hits / M misses"` trailer value → hits.
fn trailer_hits(resp: &Response, name: &str) -> u64 {
    resp.field(name)
        .and_then(|v| v.split(' ').next())
        .and_then(|h| h.parse().ok())
        .unwrap_or(0)
}

/// One completed request, as the client saw it.
struct Sample {
    index: u64,
    class: Class,
    start: Instant,
    end: Instant,
    /// `Some` once checked (hits are checked on arrival).
    ok: Option<bool>,
    rows: u64,
    rows_hash: u64,
    blocks_hits: u64,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// A booted daemon.
struct Daemon {
    addr: SocketAddr,
    boot_s: f64,
    warm_s: f64,
}

/// Boots a daemon on the cache in `dir` and warms it with the pool. The
/// daemon has no shutdown: its threads end with the process.
fn boot(dir: &Path, pool: &Pool, tally: &mut Tally) -> Result<Daemon, String> {
    let t = Instant::now();
    let cache = EvalCache::open(dir).map_err(|e| e.to_string())?;
    let cfg = ServeConfig {
        handlers: HANDLERS,
        engine_workers: WORKERS,
        cache: Some(Arc::new(cache)),
        ..ServeConfig::default()
    };
    let server = Server::bind(MemLibrary::default_07um(), cfg).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    std::thread::spawn(move || server.run());
    let boot_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut warmed = Vec::with_capacity(POOL);
    for b in &pool.bodies {
        warmed.push(client::post_evaluate(addr, b));
    }
    let warm_s = t.elapsed().as_secs_f64();
    for (resp, want) in warmed.iter().zip(&pool.rows) {
        let ok = resp
            .as_ref()
            .is_ok_and(|r| r.status == 200 && r.rows.iter().eq(want.iter().map(String::as_bytes)));
        tally.check(ok);
    }
    Ok(Daemon {
        addr,
        boot_s,
        warm_s,
    })
}

/// Runs the closed loop until `deadline`, drawing request indices from
/// `next`. Hit responses are checked against the pool on arrival; the
/// others are checked after the run.
fn closed_loop(
    addr: SocketAddr,
    pool: &Pool,
    seed: u64,
    next: &AtomicU64,
    deadline: Instant,
) -> Result<Vec<Sample>, String> {
    let client = || -> Result<Vec<Sample>, String> {
        // Reserved up front so that growing it never copies: only the
        // pages written count towards peak memory.
        let budget = deadline.saturating_duration_since(Instant::now()).as_secs() + 1;
        let mut out = Vec::with_capacity(budget as usize * 20_000);
        while Instant::now() < deadline {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let (class, p) = plan(seed, index);
            let b = pool.request(seed, index)?;
            let start = Instant::now();
            let resp = client::post_evaluate(addr, &b);
            let end = Instant::now();
            let mut s = Sample {
                index,
                class,
                start,
                end,
                ok: Some(false),
                rows: 0,
                rows_hash: 0,
                blocks_hits: 0,
            };
            if let Ok(r) = resp.as_ref().map_err(|_| ()).and_then(|r| match r.status {
                200 => Ok(r),
                _ => Err(()),
            }) {
                s.rows = r.rows.len() as u64;
                s.blocks_hits = trailer_hits(r, "x-memx-cache-blocks");
                s.ok = match class {
                    Class::Hit => Some(r.rows.iter().eq(pool.rows[p].iter().map(|s| s.as_bytes()))),
                    _ => {
                        s.rows_hash = rows_hash(&r.rows);
                        None
                    }
                };
            }
            out.push(s);
        }
        Ok(out)
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS).map(|_| scope.spawn(client)).collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().map_err(|_| "client thread panicked")??);
        }
        all.sort_by_key(|s| s.index);
        Ok(all)
    })
}

/// Checks the samples not yet checked against `wire::offline_rows` of
/// the same body, on [`CLIENTS`] threads.
fn check_later(samples: &mut [Sample], pool: &Pool, seed: u64) {
    let chunk = samples.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|scope| {
        for part in samples.chunks_mut(chunk) {
            scope.spawn(move || {
                for s in part.iter_mut().filter(|s| s.ok.is_none()) {
                    let want = pool
                        .request(seed, s.index)
                        .and_then(|b| wire::offline_rows(b.as_bytes(), WireLimits::default()));
                    s.ok = Some(matches!(want, Ok(rows) if rows_hash(rows.iter().map(String::as_bytes)) == s.rows_hash));
                }
            });
        }
    });
}

/// The daemon's `/v1/stats` counters, flattened to `kind.field` keys.
fn daemon_stats(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let resp = client::get(addr, "/v1/stats").map_err(|e| e.to_string())?;
    let doc = json::parse(&resp.body).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for key in ["requests", "rows_streamed", "rejected_requests"] {
        out.insert(
            key.to_string(),
            doc.get(key).and_then(Json::as_f64).unwrap_or(0.0),
        );
    }
    for kind in ["scbd", "alloc", "blocks"] {
        for field in ["hits", "misses", "write_failures"] {
            let v = doc
                .get("cache")
                .and_then(|c| c.get(kind))
                .and_then(|k| k.get(field))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            out.insert(format!("{kind}.{field}"), v);
        }
    }
    Ok(out)
}

/// Completions per whole second of the measured phase, weighted by
/// `weight` (1 per request, or its rows).
fn per_second(
    samples: &[Sample],
    start: Instant,
    seconds: u64,
    weight: impl Fn(&Sample) -> f64,
) -> Vec<f64> {
    let mut bins = vec![0.0; seconds.max(1) as usize];
    for s in samples {
        let at = (s.end - start).as_secs_f64() as usize;
        if let Some(bin) = bins.get_mut(at) {
            *bin += weight(s);
        }
    }
    bins
}

/// Replays traced requests through `json::parse`, `parse_spec`,
/// `wire::decode_evaluate`, the SCBD / allocation / MACP chain over a
/// cache of its own (warmed with the pool, so that each class hits and
/// misses as it did in the daemon), and `wire::render_row`.
fn replay(
    tr: &mut Tracer,
    dir: &Path,
    pool: &Pool,
    seed: u64,
    samples: &[&Sample],
    tally: &mut Tally,
) -> Result<(), String> {
    let cache = EvalCache::open(dir).map_err(|e| e.to_string())?;
    let lib = MemLibrary::default_07um();
    let mut warm = Tracer::default();
    for b in &pool.bodies {
        replay_body(&mut warm, 0, b, &lib, &cache)?;
    }
    let root = tr.begin("replay", 0, None);
    for s in samples {
        let b = pool.request(seed, s.index)?;
        let rows = replay_body(tr, s.index, &b, &lib, &cache)?;
        let want = match s.class {
            Class::Hit => rows_hash(
                pool.rows[plan(seed, s.index).1]
                    .iter()
                    .map(String::as_bytes),
            ),
            _ => s.rows_hash,
        };
        tally.check(rows_hash(rows.iter().map(String::as_bytes)) == want);
    }
    tr.end(root);
    Ok(())
}

fn replay_body(
    tr: &mut Tracer,
    id: u64,
    body: &str,
    lib: &MemLibrary,
    cache: &EvalCache,
) -> Result<Vec<String>, String> {
    let req = tr.begin("request", id, None);
    let s = tr.begin("json.parse", id, Some(req));
    let doc = json::parse(body.as_bytes()).map_err(|e| e.to_string())?;
    tr.end(s);
    let text = doc.get("spec_text").and_then(Json::as_str).unwrap_or("");
    let s = tr.begin("parse", id, Some(req));
    let parsed = parse_spec(text);
    tr.end(s);
    tr.count(s, "bytes", text.len() as u64);
    parsed.map_err(|e| e.to_string())?;
    // Decoding parses the spec text again, inside the call.
    let s = tr.begin("decode", id, Some(req));
    let decoded = wire::decode_evaluate(&doc, WireLimits::default()).map_err(|e| e.to_string())?;
    tr.end(s);
    let mut rows = Vec::new();
    for (i, (label, options)) in decoded.points.iter().enumerate() {
        let p = tr.begin("point", id, Some(req));
        let result: Result<CostReport, ExploreError> =
            replay_point(tr, id, p, &decoded.spec, lib, options, Some(cache));
        tr.end(p);
        let s = tr.begin("render", id, Some(req));
        rows.push(wire::render_row(i, label, &result));
        tr.end(s);
    }
    tr.end(req);
    Ok(rows)
}

/// Removes the run's cache directories, also on early return.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the workload.
pub fn run(args: &Args, work: &Path) -> Result<RunResult, String> {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut tr = Tracer::default();
    let scratch = Scratch(work.join(format!("serve-{}", std::process::id())));
    let pool = Pool::draw(args.seed)?;

    let cache_dir = scratch.0.join("cache");
    let fill = boot(&cache_dir, &pool, &mut tally)?;
    let mut setup_s = Vec::new();
    let mut boot_ms = vec![fill.boot_s * 1e3];
    let mut daemon = None;
    for _ in 0..SETUP_ROUNDS {
        let d = boot(&cache_dir, &pool, &mut tally)?;
        setup_s.push(d.boot_s + d.warm_s);
        boot_ms.push(d.boot_s * 1e3);
        daemon = Some(d);
    }
    let addr = daemon.ok_or("no set-up round ran")?.addr;
    m.median("setup_s", &setup_s);

    // Measured phase; a traced run spends its second half traced.
    let before = daemon_stats(addr)?;
    let next = AtomicU64::new(0);
    let seconds = if args.trace {
        args.seconds.div_ceil(2)
    } else {
        args.seconds
    };
    let start = Instant::now();
    let mut plain = closed_loop(
        addr,
        &pool,
        args.seed,
        &next,
        start + Duration::from_secs(seconds),
    )?;
    let traced_start = Instant::now();
    let mut traced = if args.trace {
        closed_loop(
            addr,
            &pool,
            args.seed,
            &next,
            traced_start + Duration::from_secs(seconds),
        )?
    } else {
        Vec::new()
    };
    let after = daemon_stats(addr)?;
    m.peak_rss();

    let req_per_s = per_second(&plain, start, seconds, |_| 1.0);
    let points_per_s = per_second(&plain, start, seconds, |s| s.rows as f64);
    m.median("req_per_s", &req_per_s);
    m.median("points_per_s", &points_per_s);
    let ms: Vec<f64> = plain.iter().map(Sample::ms).collect();
    m.median("req_p50_ms", &ms);
    let p99 = stats::percentile(&ms, 99.0);
    if let Some(p) = p99 {
        m.set("req_p99_ms", p.value, p.samples);
    }
    let cold: Vec<f64> = plain
        .iter()
        .filter(|s| s.class != Class::Hit)
        .map(Sample::ms)
        .collect();

    check_later(&mut plain, &pool, args.seed);
    check_later(&mut traced, &pool, args.seed);
    for s in plain.iter().chain(&traced) {
        tally.check(s.ok == Some(true));
    }
    let count = |c: Class| plain.iter().chain(&traced).filter(|s| s.class == c).count();
    eprintln!(
        "serve_mixed: seed {}, {} requests ({} hit / {} variant / {} fresh), p99 over {} samples with {} beyond it, {CLIENTS} clients, {HANDLERS} handlers, engine workers {WORKERS}",
        args.seed,
        plain.len() + traced.len(),
        count(Class::Hit),
        count(Class::Variant),
        count(Class::Fresh),
        p99.map_or(0, |p| p.samples),
        p99.map_or(0, |p| p.beyond),
    );
    eprintln!("serve_mixed: request ms {}", stats::describe(&ms));
    eprintln!("serve_mixed: cold request ms {}", stats::describe(&cold));

    if args.trace {
        for s in &traced {
            tr.record("client.request", s.index, s.start, s.end);
        }
        let class_ms = |c: Class| -> Vec<f64> {
            traced
                .iter()
                .filter(|s| s.class == c)
                .map(Sample::ms)
                .collect()
        };
        m.median("serve.req_ms.hit", &class_ms(Class::Hit));
        m.median("serve.req_ms.variant", &class_ms(Class::Variant));
        m.median("serve.req_ms.fresh", &class_ms(Class::Fresh));
        let cold_ms: Vec<f64> = traced
            .iter()
            .filter(|s| s.class != Class::Hit)
            .map(Sample::ms)
            .collect();
        m.median("serve.cold_req_p50_ms", &cold_ms);
        let delta =
            |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
        let mut hits = 0.0;
        let mut lookups = 0.0;
        for (kind, h, mi) in [
            ("scbd", "cache.scbd.hits", "cache.scbd.misses"),
            ("alloc", "cache.alloc.hits", "cache.alloc.misses"),
            ("blocks", "cache.blocks.hits", "cache.blocks.misses"),
        ] {
            let (kh, km) = (
                delta(&format!("{kind}.hits")),
                delta(&format!("{kind}.misses")),
            );
            m.set(h, kh, 1);
            m.set(mi, km, 1);
            hits += kh;
            lookups += kh + km;
        }
        if lookups > 0.0 {
            m.set("cache.hit_ratio", hits / lookups, lookups as usize);
        }
        let failures: f64 = ["scbd", "alloc", "blocks"]
            .iter()
            .map(|k| delta(&format!("{k}.write_failures")))
            .sum();
        m.set("cache.write_failures", failures, 1);
        let variant_blocks: u64 = plain
            .iter()
            .chain(&traced)
            .filter(|s| s.class == Class::Variant)
            .map(|s| s.blocks_hits)
            .sum();
        m.count("cache.blocks.hits.variant", variant_blocks);
        m.set("serve.rows_streamed", delta("rows_streamed"), 1);
        m.set("serve.rejected", delta("rejected_requests"), 1);
        m.median("setup.boot_ms", &boot_ms);
        m.set("setup.warm_ms", fill.warm_s * 1e3, 1);

        let replayed: Vec<&Sample> = traced.iter().take(REPLAY_CAP).collect();
        replay(
            &mut tr,
            &scratch.0.join("replay"),
            &pool,
            args.seed,
            &replayed,
            &mut tally,
        )?;
        crate::layer_metrics(&mut m, &tr, &[], 0);
        let mean_us = |name: &str| {
            let v = crate::span_wall_ns(&tr, name);
            (v.iter().sum::<f64>() / v.len().max(1) as f64 / 1e3, v.len())
        };
        for (metric, span) in [
            ("serve.json_parse_us", "json.parse"),
            ("serve.decode_us", "decode"),
            ("serve.render_us", "render"),
        ] {
            let (us, n) = mean_us(span);
            m.set(metric, us, n);
        }
        let traced_ms: Vec<f64> = traced.iter().map(Sample::ms).collect();
        crate::overhead(&mut m, &ms, &traced_ms);
    }
    Ok(RunResult {
        tally,
        metrics: m,
        tracer: args.trace.then_some(tr),
    })
}
