//! Regenerates **Table 3**: memory organization cost versus storage
//! cycle budget.
//!
//! Rows are printed as they stream out of the engine (in sweep order),
//! so only one `CostReport` — schedules included — is alive at a time
//! however dense the sweep; search-effort and cache counters are
//! accumulated on the fly and reported after the table.

use memx_bench::experiments;

fn main() {
    let ctx = experiments::context(experiments::RunKnobs::from_env());
    eprintln!(
        "[engine: {} worker(s); results are worker-count independent]",
        ctx.engine().workers()
    );
    let extras = match experiments::extended_extras(&ctx) {
        Ok(extras) => extras,
        Err(e) => {
            eprintln!("table 3 sweep setup failed: {e}");
            std::process::exit(1);
        }
    };
    println!("Table 3: Different cycle budgets for the BTPC application");
    println!(
        "{:<24} {:>16} {:>16} {:>16}",
        "Extra cycles", "on-chip area", "on-chip power", "off-chip power"
    );
    println!(
        "{:<24} {:>16} {:>16} {:>16}",
        "for data-path", "[mm2]", "[mW]", "[mW]"
    );
    let mut stats = Vec::new();
    let streamed = experiments::table3_stream(&ctx, &extras, |row| {
        stats.push(row.report.alloc_stats);
        println!(
            "{:<24} {:>16.1} {:>16.1} {:>16.1}",
            format!("{} ({:.1}%)", row.extra_cycles, row.extra_fraction * 100.0),
            row.report.cost.on_chip_area_mm2,
            row.report.cost.on_chip_power_mw,
            row.report.cost.off_chip_power_mw
        );
    });
    if let Err(e) = streamed {
        eprintln!("table 3 failed: {e}");
        std::process::exit(1);
    }
    experiments::print_alloc_stat_lines(stats);
    experiments::print_cache_stat_lines(ctx.cache.as_deref());
}
