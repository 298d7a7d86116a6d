//! Mess application profiling of the HPCG proxy (paper §VI, Figs. 15-16).
//!
//! ```text
//! cargo run --release --example profile_hpcg
//! ```
//!
//! Runs one HPCG copy per core on the Cascade Lake platform, folds the resulting memory trace
//! into 2 µs bandwidth samples (the stand-in for Extrae's uncore-counter sampling), places
//! every sample on the platform's bandwidth–latency curves and prints the stress-score
//! timeline, its phases and the summary statistics.

use mess::platforms::PlatformId;
use mess::scenario::engine::profile_hpcg;
use mess::scenario::{Fidelity, PlatformRef};

fn main() {
    let id = PlatformId::IntelCascadeLake;
    let (fidelity, platform) = if std::env::args().any(|a| a == "--quick") {
        (Fidelity::Quick, PlatformRef::quick(id))
    } else {
        (Fidelity::Full, PlatformRef::full(id))
    };
    let platform = platform.resolve();
    println!(
        "profiling HPCG on {} ({} cores)",
        platform.name, platform.cores
    );

    let timeline = profile_hpcg(&platform, fidelity);
    print!("{}", timeline.to_csv());

    println!(
        "# mean stress {:.2}; {:.0}% of samples above 0.5; peak {:.1} GB/s at up to {:.0} ns",
        timeline.mean_stress(),
        timeline.fraction_above(0.5) * 100.0,
        timeline.peak_bandwidth().as_gbs(),
        timeline.peak_latency().as_ns()
    );
    for phase in timeline.phases(0.5) {
        println!("# {phase}");
    }
}
