//! Tour of the extension mechanisms built on top of the paper's combined
//! scrub: time-aware sensing, CRC-first probes, Start-Gap wear leveling,
//! in-band scrub, and temperature scaling. The budgeted tour and profiled
//! policies have their own experiments (`exp_e14_budget`,
//! `exp_e17_profiled`).
//!
//! ```bash
//! cargo run --release --example extensions_tour
//! ```

use scrubsim::analysis::{fmt_count, Table};
use scrubsim::prelude::*;

fn run(label: &str, cfg: SimConfig, table: &mut Table) {
    let r = Simulation::new(cfg).run();
    table.row(vec![
        label.to_string(),
        fmt_count(r.uncorrectable() as f64),
        fmt_count(r.scrub_writes() as f64),
        fmt_count(r.scrub_energy_uj),
        r.max_wear.to_string(),
    ]);
}

fn main() {
    let mut table = Table::new(vec![
        "config",
        "UEs",
        "scrub_writes",
        "energy_uJ",
        "max_wear",
    ]);
    let base = || {
        let mut b = SimConfig::builder();
        b.num_lines(1 << 13)
            .code(CodeSpec::bch_line(6))
            .policy(PolicyKind::combined_default(900.0))
            .traffic(DemandTraffic::suite(WorkloadId::WebServe))
            .horizon_s(12.0 * 3600.0)
            .seed(99);
        b
    };

    run("combined (paper)", base().build(), &mut table);
    run(
        "+time-aware sensing",
        base()
            .device(
                DeviceConfig::builder()
                    .sensing(SensingMode::AgeCompensated)
                    .build(),
            )
            .build(),
        &mut table,
    );
    run(
        "+CRC-first probes",
        base().probe_kind(ProbeKind::CrcThenDecode).build(),
        &mut table,
    );
    run(
        "+start-gap leveling",
        base().wear_leveling(64).build(),
        &mut table,
    );
    run(
        "+in-band scrub",
        base().inband_writeback(4).build(),
        &mut table,
    );
    run(
        "combined @85C",
        base()
            .device(
                DeviceConfig::builder()
                    .drift(DriftParams::default().with_temperature_c(85.0))
                    .build(),
            )
            .build(),
        &mut table,
    );

    println!("extension mechanisms on web-serve, 8Ki lines, 12 simulated hours\n");
    println!("{}", table.render());
}
