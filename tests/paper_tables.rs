//! Paper-table conformance suite: pins the reproduced Tables 1–4 (costs
//! *and* memory assignments) against a committed golden snapshot, so a
//! solver change can never silently drift the paper's results.
//!
//! The snapshot is rendered from the deterministic [`paper_context`]
//! pipeline — environment-independent, bit-identical for every worker
//! count — so any diff is a real behavior change. To regenerate after an
//! *intentional* change, run:
//!
//! ```sh
//! MEMX_UPDATE_GOLDEN=1 cargo test --test paper_tables
//! ```
//!
//! and commit the updated `tests/golden/paper_tables.txt` together with
//! the change that explains it.

use std::fmt::Write as _;
use std::path::PathBuf;

use memx_bench::experiments::{
    self, paper_allocations, paper_extras, table1, table2, table3, table4,
};
use memx_core::alloc::{alloc_cache_key, AllocStats, MemoryKind, Organization};
use memx_core::cache::CacheKey;
use memx_core::explore::CostReport;
use memx_core::scbd;
use memx_ir::hash::StableHasher;
use memx_ir::{parse_spec, print_spec, AppSpec};
use memx_memlib::CostBreakdown;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("paper_tables.txt")
}

fn render_cost(out: &mut String, cost: &CostBreakdown) {
    let _ = write!(
        out,
        "area={:.4}mm2 on_power={:.4}mW off_power={:.4}mW",
        cost.on_chip_area_mm2, cost.on_chip_power_mw, cost.off_chip_power_mw
    );
}

/// One line per memory: placement, dimensions and the sorted group
/// names it holds — the paper's "signal-to-memory assignment".
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

fn render_report(out: &mut String, spec: &AppSpec, report: &CostReport) {
    let _ = write!(out, "  {}: ", report.label);
    render_cost(out, &report.cost);
    out.push('\n');
    render_organization(out, spec, &report.organization);
}

/// Renders every table the suite pins. The specs behind the reports are
/// rebuilt here exactly as the experiment entry points build them, so
/// group names resolve against the right variant.
fn render_snapshot() -> String {
    let ctx = experiments::paper_context();
    let mut out = String::new();

    out.push_str("Table 1: basic group structuring\n");
    let exp = table1(&ctx).expect("table 1 runs");
    let compacted = memx_core::structuring::compact(&ctx.btpc.spec, ctx.btpc.ridge, 3)
        .expect("compaction applies");
    let merged = memx_core::structuring::merge(&ctx.btpc.spec, ctx.btpc.pyr, ctx.btpc.ridge)
        .expect("merge applies");
    let t1_specs = [&ctx.btpc.spec, &compacted.spec, &merged.spec];
    for (report, spec) in exp.reports().iter().zip(t1_specs) {
        render_report(&mut out, spec, report);
    }

    out.push_str("Table 2: memory hierarchy\n");
    let exp = table2(&ctx).expect("table 2 runs");
    let (spec, pixel_store) = experiments::merged_spec(&ctx).expect("merge applies");
    let (ylocal, yhier_serving, yhier_feeding) = experiments::figure3_layers();
    let l1 = memx_core::hierarchy::apply_hierarchy(
        &spec,
        pixel_store,
        std::slice::from_ref(&yhier_serving),
    )
    .expect("hierarchy applies");
    let l0 =
        memx_core::hierarchy::apply_hierarchy(&spec, pixel_store, std::slice::from_ref(&ylocal))
            .expect("hierarchy applies");
    let both = memx_core::hierarchy::apply_hierarchy(&spec, pixel_store, &[ylocal, yhier_feeding])
        .expect("hierarchy applies");
    let t2_specs = [&spec, &l1.spec, &l0.spec, &both.spec];
    for (report, spec) in exp.reports().iter().zip(t2_specs) {
        render_report(&mut out, spec, report);
    }

    let winner = experiments::best_hierarchy_spec(&ctx).expect("hierarchy applies");

    out.push_str("Table 3: storage cycle budget\n");
    let rows = table3(&ctx, &paper_extras()).expect("table 3 runs");
    for row in &rows {
        let _ = write!(
            out,
            "  extra={} ({:.2}%): ",
            row.extra_cycles,
            row.extra_fraction * 100.0
        );
        render_cost(&mut out, &row.report.cost);
        out.push('\n');
        render_organization(&mut out, &winner, &row.report.organization);
    }

    out.push_str("Table 4: on-chip memory allocation\n");
    let rows = table4(&ctx, &paper_allocations()).expect("table 4 runs");
    for row in &rows {
        let _ = write!(out, "  k={}: ", row.memories);
        render_cost(&mut out, &row.report.cost);
        out.push('\n');
        render_organization(&mut out, &winner, &row.report.organization);
    }

    out
}

#[test]
fn paper_tables_match_the_committed_golden_snapshot() {
    let rendered = render_snapshot();
    let path = golden_path();
    if std::env::var_os("MEMX_UPDATE_GOLDEN").is_some_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("golden dir creatable");
        std::fs::write(&path, &rendered).expect("golden writable");
        eprintln!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with MEMX_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if rendered != golden {
        // Find the first diverging line for a readable failure.
        let mut gl = golden.lines();
        for (i, r) in rendered.lines().enumerate() {
            match gl.next() {
                Some(g) if g == r => continue,
                got => panic!(
                    "paper tables drifted from the golden snapshot at line {}:\n  \
                     golden:   {:?}\n  rendered: {:?}\n\
                     If the change is intentional, regenerate with \
                     MEMX_UPDATE_GOLDEN=1 cargo test --test paper_tables",
                    i + 1,
                    got,
                    r
                ),
            }
        }
        panic!(
            "paper tables drifted from the golden snapshot (line counts differ: \
             golden {} vs rendered {})",
            golden.lines().count(),
            rendered.lines().count()
        );
    }
}

#[test]
fn off_chip_branch_and_bound_beats_exhaustive_enumeration_on_table4() {
    // The off-chip acceptance criterion, pinned as a test: on the
    // table 4 workload the branch-and-bound must expand strictly fewer
    // nodes than the Bell-number partition space the retired exhaustive
    // scan streamed through (while producing the byte-identical golden
    // tables checked above).
    let mut ctx = experiments::paper_context();
    ctx.alloc.workers = 1; // serial: parallel node counters are timing-dependent
    ctx.workers = 1;
    let rows = table4(&ctx, &paper_allocations()).expect("table 4 runs");
    let bb: u64 = rows
        .iter()
        .map(|r| r.report.alloc_stats.off_chip_bb_nodes)
        .sum();
    let exhaustive: u64 = rows
        .iter()
        .map(|r| r.report.alloc_stats.off_chip_exhaustive_partitions)
        .sum();
    assert!(exhaustive > 0, "table 4 has off-chip groups");
    assert!(
        bb < exhaustive,
        "off-chip branch-and-bound must beat exhaustive enumeration: \
         {bb} nodes vs {exhaustive} partitions"
    );
}

#[test]
fn serial_search_effort_is_pinned() {
    // Exact branch-and-bound node totals of the serial table 3 and
    // table 4 runs. Pricing changes (memos, cheaper lookups) must leave
    // them unchanged — a speedup has to come from cheaper nodes, not
    // fewer. A change that alters the search itself updates these
    // literals on purpose.
    let serial = |node_limit: Option<u64>| {
        let mut ctx = experiments::paper_context();
        if let Some(limit) = node_limit {
            ctx.alloc.node_limit = limit;
        }
        ctx.alloc.workers = 1; // serial: parallel node counters are timing-dependent
        ctx.workers = 1;
        ctx
    };
    let totals = |stats: Vec<AllocStats>| {
        stats.iter().fold((0, 0), |(on, off), s| {
            (on + s.bb_nodes, off + s.off_chip_bb_nodes)
        })
    };

    let rows = table4(&serial(Some(100_000_000)), &paper_allocations()).expect("table 4 runs");
    let t4 = totals(rows.iter().map(|r| r.report.alloc_stats).collect());
    assert_eq!(t4, (743_330, 5), "table 4 (unexhausted) on-/off-chip nodes");

    let rows = table3(&serial(None), &paper_extras()).expect("table 3 runs");
    let t3 = totals(rows.iter().map(|r| r.report.alloc_stats).collect());
    assert_eq!(t3, (7_357_610, 4), "table 3 on-/off-chip nodes");
}

#[test]
fn table4_allocation_cache_key_is_pinned() {
    // The allocation cache key of the table 4 instance. Its content
    // hash covers the groups and the port-conflict slot table, so a
    // change to how the solver stores slots must still hash them the
    // same way, or every persisted allocation entry goes stale.
    let ctx = experiments::paper_context();
    let spec = experiments::best_hierarchy_spec(&ctx).expect("hierarchy applies");
    let budget = experiments::CYCLE_BUDGET - 3_133_568; // table 4's working point
    let schedule = scbd::distribute_with_budget(&spec, budget).expect("schedulable");
    let key = alloc_cache_key(&spec, &schedule, &ctx.lib, &ctx.alloc).expect("splittable");
    assert_eq!(
        key,
        CacheKey {
            content_hash: 0xed46_36f4_bf86_37a7,
            budget: 2_000_000,
            model_fingerprint: 0x5e1b_27a9_a2f1_afed,
            knobs_fingerprint: 0xa170_b3d0_64db_d86d,
        }
    );
}

#[test]
fn scbd_schedules_are_pinned() {
    // Every schedule of the crossover probe's budget walk on the
    // Table-2 winner, fingerprinted: the per-body budgets the
    // marginal-relief loop grants and every placed access. A
    // scheduler speedup must leave all of them bit-identical — the
    // persisted `scbd/` entries are keyed without regard to how they
    // were computed.
    let ctx = experiments::paper_context();
    let spec = experiments::best_hierarchy_spec(&ctx).expect("hierarchy applies");
    let budget = experiments::CYCLE_BUDGET;
    let mut h = StableHasher::new();
    let mut distributions = 0;
    for extra in (0..budget * 2 / 5).step_by((budget / 100) as usize) {
        let Ok(result) = scbd::distribute_with_budget(&spec, budget - extra) else {
            break;
        };
        distributions += 1;
        h.write_u64(result.used_cycles);
        for body in &result.bodies {
            h.write_u64(body.budget);
            for p in body.placements() {
                h.write_u64(p.start);
                h.write_u64(p.duration);
            }
        }
    }
    assert_eq!(distributions, 33, "feasible budgets of the probe walk");
    assert_eq!(h.finish(), 0x01ab_3019_16f5_4983, "schedule fingerprint");
}

#[test]
fn text_parsed_paper_spec_lands_on_the_rust_built_cache_keys() {
    // The spec text front end and the Rust builder must key the same
    // cache entries: printing the Table-2 winner and parsing it back
    // gives the same content hash, the same distribution key at the
    // Table-4 budget and, from its own schedule, the same allocation
    // key — so a `.mxspec` twin of a paper spec is served warm from
    // entries the table binaries wrote.
    let ctx = experiments::paper_context();
    let built = experiments::best_hierarchy_spec(&ctx).expect("hierarchy applies");
    let parsed = parse_spec(&print_spec(&built)).expect("printed spec parses");
    assert_eq!(parsed.content_hash(), built.content_hash());

    let budget = experiments::CYCLE_BUDGET - 3_133_568; // table 4's working point
    assert_eq!(
        CacheKey::scbd(&parsed, budget),
        CacheKey::scbd(&built, budget)
    );
    let alloc_key = |spec: &AppSpec| {
        let schedule = scbd::distribute_with_budget(spec, budget).expect("schedulable");
        alloc_cache_key(spec, &schedule, &ctx.lib, &ctx.alloc).expect("splittable")
    };
    assert_eq!(alloc_key(&parsed), alloc_key(&built));
}
