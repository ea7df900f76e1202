//! Customize a processor for the *cellphone* application area (paper §6.1:
//! "tailor to an application area, not an application"): run the Custom-Fit
//! exploration over the family, add ISE custom operations, and print the
//! recommended machine with its selected special ops.
//!
//! Run with: `cargo run --release --example customize_cellphone`

use asip::core::dse::{explore, SearchSpace};
use asip::core::ise::{extend, IseConfig};
use asip::core::Session;
use asip::isa::desc::print_machine;
use asip::workloads::{by_area, AppArea};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let session = Session::builder().build();
    let tc = session.toolchain();
    let suite = by_area(AppArea::Cellphone);
    println!(
        "cellphone area: {:?}",
        suite.iter().map(|w| w.name.as_str()).collect::<Vec<_>>()
    );

    // 1. Explore the family grid on a trimmed suite (keep the demo quick).
    let tuning: Vec<_> = suite.iter().take(3).cloned().collect();
    let space = SearchSpace::default();
    let ex = explore(&session, &space, &tuning);
    println!(
        "\nevaluated {} design points ({} skipped)",
        ex.points.len(),
        ex.skipped.len()
    );
    println!("\narea/performance Pareto frontier:");
    for p in ex.pareto() {
        println!(
            "  {:<22} {:>7.2} mm2  {:>10.0} gm-cycles  {:>9.1} us",
            p.machine.name,
            p.area_mm2,
            p.cycles,
            p.time_ns / 1000.0
        );
    }

    let best = ex.best_fit().expect("exploration produced points");
    println!("\nbest time x area fit: {}", best.machine.name);

    // 2. Add application-specific operations on top of the chosen member.
    let w = &suite[0]; // fir
    let mut module = tc.frontend(&w.source)?;
    let profile = tc.profile(&module, &w.inputs, &w.args)?;
    let (custom_machine, report) = extend(
        &mut module,
        &best.machine,
        &profile,
        &IseConfig { area_budget: 16.0 },
    );
    println!(
        "\nISE for {} selected {} ops (area {:.1} adders):",
        w.name,
        report.selected.len(),
        report.area_used
    );
    for s in &report.selected {
        println!(
            "  {}  [{} instances, est. {:.0} cycles saved]",
            s.def, s.instances, s.est_saved_cycles
        );
    }

    // 3. Verify the customized machine still runs the kernel correctly.
    let compiled = tc.compile_for(&module, &custom_machine, Some(&profile))?;
    let run = tc.run_artifact(w, &custom_machine, &compiled)?;
    println!(
        "\n{} on {}: {} cycles (golden output verified)",
        w.name, custom_machine.name, run.sim.cycles
    );

    println!(
        "\n--- recommended machine description ---\n{}",
        print_machine(&custom_machine)
    );
    Ok(())
}
