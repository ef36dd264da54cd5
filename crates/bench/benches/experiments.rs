//! `cargo bench --bench experiments` regenerates every paper table and
//! figure series (E1–E13) in one pass. Honors `SCRUB_QUICK=1`; otherwise
//! runs at full scale, matching what EXPERIMENTS.md records.

fn main() {
    // Criterion-style harness disabled (harness = false): this target is a
    // reproduction driver, not a timing benchmark.
    let scale = scrub_bench::Scale::from_env();
    println!("scrubsim experiment suite — scale: {scale:?}\n");
    let experiments: [(&str, scrub_bench::runner::Run); 14] = [
        ("E1", scrub_bench::experiments::e1::run),
        ("E2", scrub_bench::experiments::e2::run),
        ("E3", scrub_bench::experiments::e3::run),
        ("E4", scrub_bench::experiments::e4::run),
        ("E5", scrub_bench::experiments::e5::run),
        ("E6", scrub_bench::experiments::e6::run),
        ("E7", scrub_bench::experiments::e7::run),
        ("E8", scrub_bench::experiments::e8::run),
        ("E9", scrub_bench::experiments::e9::run),
        ("E10", scrub_bench::experiments::e10::run),
        ("E11", scrub_bench::experiments::e11::run),
        ("E12", scrub_bench::experiments::e12::run),
        ("E13", scrub_bench::experiments::e13::run),
        ("X1", scrub_bench::experiments::x1::run),
    ];
    for (name, run) in experiments {
        let started = std::time::Instant::now();
        let (output, _) = run(&scale, &scrub_bench::RunOptions::default());
        println!("==== {name} ({:.1}s) ====", started.elapsed().as_secs_f64());
        println!("{output}");
    }
}
