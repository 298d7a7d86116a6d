//! Mess application profiling: curve positioning, memory-stress score and timeline analysis
//! (paper §VI).
//!
//! The profiler places application execution samples — (bandwidth, read/write ratio) pairs
//! captured every few milliseconds, the simulator stand-in for Extrae's uncore-counter
//! sampling — onto the memory system's bandwidth–latency curves. Each sample receives a
//! *memory stress score* in `[0, 1]`: a weighted sum of the normalised memory latency and the
//! normalised curve inclination at the sample's position, so a score near 1 means the
//! application sits in the steep saturated region where any extra bandwidth demand translates
//! into a large latency (and performance) penalty.
//!
//! ```
//! use mess_core::synthetic::{generate_family, SyntheticFamilySpec};
//! use mess_profiler::{BandwidthSample, Profiler};
//! use mess_types::{Bandwidth, RwRatio};
//!
//! let family = generate_family(&SyntheticFamilySpec::ddr_like(Bandwidth::from_gbs(128.0), 90.0));
//! let profiler = Profiler::new(family);
//! let sample = BandwidthSample::new(0.0, Bandwidth::from_gbs(114.0), RwRatio::ALL_READS);
//! let placed = profiler.place(&sample);
//! assert!(placed.stress_score > 0.5);
//! ```

#![warn(missing_docs)]

use mess_core::CurveFamily;
use mess_types::{Bandwidth, Latency, RwRatio};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One application bandwidth sample (the default Extrae sampling period is 10 ms).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthSample {
    /// Timestamp of the sample in microseconds since the start of the trace.
    pub time_us: f64,
    /// Memory bandwidth observed over the sampling period.
    pub bandwidth: Bandwidth,
    /// Read/write composition of the traffic over the sampling period.
    pub ratio: RwRatio,
}

impl BandwidthSample {
    /// Creates a sample.
    pub fn new(time_us: f64, bandwidth: Bandwidth, ratio: RwRatio) -> Self {
        BandwidthSample {
            time_us,
            bandwidth,
            ratio,
        }
    }
}

/// A sample placed on the memory system's bandwidth–latency curves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacedSample {
    /// The original sample.
    pub sample: BandwidthSample,
    /// Memory access latency read from the curve at the sample's position.
    pub latency: Latency,
    /// Curve inclination (ns per GB/s) at the sample's position.
    pub inclination: f64,
    /// Memory stress score in `[0, 1]`.
    pub stress_score: f64,
}

/// Weight of the normalised latency term in the stress score.
const LATENCY_WEIGHT: f64 = 0.6;

/// Weight of the normalised inclination term; the two weights sum to exactly 1.0.
const INCLINATION_WEIGHT: f64 = 0.4;

/// The Mess application profiler for one target memory system.
#[derive(Debug, Clone)]
pub struct Profiler {
    family: CurveFamily,
}

impl Profiler {
    /// Creates a profiler for the memory system described by `family`.
    pub fn new(family: CurveFamily) -> Self {
        Profiler { family }
    }

    /// The curve family the profiler positions samples on.
    pub fn family(&self) -> &CurveFamily {
        &self.family
    }

    /// Places one sample on the curves and computes its stress score.
    pub fn place(&self, sample: &BandwidthSample) -> PlacedSample {
        let latency = self.family.latency_at(sample.ratio, sample.bandwidth);
        let inclination = self.family.inclination_at(sample.ratio, sample.bandwidth);

        let unloaded = self.family.unloaded_latency_at(sample.ratio).as_ns();
        let max_latency = self
            .family
            .closest_curve(sample.ratio)
            .max_latency()
            .as_ns()
            .max(unloaded + 1.0);
        let latency_norm =
            ((latency.as_ns() - unloaded) / (max_latency - unloaded)).clamp(0.0, 1.0);

        // Inclination is normalised against the steepest slope of the relevant curve.
        let curve = self.family.closest_curve(sample.ratio);
        let max_inclination = curve
            .points()
            .iter()
            .map(|p| curve.inclination_at(p.bandwidth))
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let inclination_norm = (inclination / max_inclination).clamp(0.0, 1.0);

        let stress_score =
            (LATENCY_WEIGHT * latency_norm + INCLINATION_WEIGHT * inclination_norm).clamp(0.0, 1.0);
        PlacedSample {
            sample: *sample,
            latency,
            inclination,
            stress_score,
        }
    }

    /// Places every sample of a timeline.
    pub fn profile(&self, samples: &[BandwidthSample]) -> Timeline {
        Timeline {
            samples: samples.iter().map(|s| self.place(s)).collect(),
        }
    }
}

/// A profiled application timeline: placed samples in time order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// Placed samples, ordered by [`BandwidthSample::time_us`].
    pub samples: Vec<PlacedSample>,
}

impl Timeline {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the timeline has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Average stress score over the whole timeline.
    pub fn mean_stress(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.stress_score).sum::<f64>() / self.samples.len() as f64
    }

    /// Fraction of the timeline spent above the given stress score.
    pub fn fraction_above(&self, score: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .filter(|s| s.stress_score > score)
            .count() as f64
            / self.samples.len() as f64
    }

    /// Peak memory latency seen across the timeline.
    pub fn peak_latency(&self) -> Latency {
        self.samples
            .iter()
            .map(|s| s.latency)
            .fold(Latency::ZERO, Latency::max)
    }

    /// Peak bandwidth seen across the timeline.
    pub fn peak_bandwidth(&self) -> Bandwidth {
        self.samples
            .iter()
            .map(|s| s.sample.bandwidth)
            .fold(Bandwidth::ZERO, Bandwidth::max)
    }

    /// Splits the timeline into contiguous phases whose stress score stays on one side of
    /// `threshold` (the §VI-B2 compute-phase analysis: long phases alternate between
    /// high-stress SpMV segments and lower-stress reductions).
    pub fn phases(&self, threshold: f64) -> Vec<Phase> {
        let mut phases: Vec<Phase> = Vec::new();
        for (index, s) in self.samples.iter().enumerate() {
            let high = s.stress_score > threshold;
            match phases.last_mut() {
                Some(p) if p.high_stress == high => {
                    p.end_us = s.sample.time_us;
                    p.sample_count += 1;
                    p.mean_stress += s.stress_score;
                    p.last_index = index;
                }
                _ => phases.push(Phase {
                    start_us: s.sample.time_us,
                    end_us: s.sample.time_us,
                    high_stress: high,
                    sample_count: 1,
                    mean_stress: s.stress_score,
                    first_index: index,
                    last_index: index,
                }),
            }
        }
        for p in &mut phases {
            p.mean_stress /= p.sample_count as f64;
        }
        phases
    }

    /// Serializes the timeline as CSV (`time_us,bandwidth_gbs,read_pct,latency_ns,stress`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_us,bandwidth_gbs,read_percent,latency_ns,stress_score\n");
        for s in &self.samples {
            out.push_str(&format!(
                "{:.1},{:.3},{},{:.2},{:.3}\n",
                s.sample.time_us,
                s.sample.bandwidth.as_gbs(),
                s.sample.ratio.read_percent(),
                s.latency.as_ns(),
                s.stress_score
            ));
        }
        out
    }
}

/// A contiguous region of the timeline with a uniform stress classification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Timestamp of the first sample in the phase.
    pub start_us: f64,
    /// Timestamp of the last sample in the phase.
    pub end_us: f64,
    /// `true` if the phase sits above the stress threshold.
    pub high_stress: bool,
    /// Number of samples in the phase.
    pub sample_count: usize,
    /// Mean stress score of the phase.
    pub mean_stress: f64,
    /// Index of the first sample in [`Timeline::samples`].
    pub first_index: usize,
    /// Index of the last sample in [`Timeline::samples`].
    pub last_index: usize,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.0}-{:.0} us] {} stress {:.2} ({} samples)",
            self.start_us,
            self.end_us,
            if self.high_stress { "high" } else { "low " },
            self.mean_stress,
            self.sample_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mess_core::synthetic::{generate_family, SyntheticFamilySpec};
    use proptest::prelude::*;

    fn profiler() -> Profiler {
        let family = generate_family(&SyntheticFamilySpec::ddr_like(
            Bandwidth::from_gbs(128.0),
            90.0,
        ));
        Profiler::new(family)
    }

    #[test]
    fn unloaded_samples_have_low_stress_and_saturated_samples_high() {
        let p = profiler();
        let idle = p.place(&BandwidthSample::new(
            0.0,
            Bandwidth::from_gbs(2.0),
            RwRatio::ALL_READS,
        ));
        let busy = p.place(&BandwidthSample::new(
            10.0,
            Bandwidth::from_gbs(115.0),
            RwRatio::ALL_READS,
        ));
        assert!(idle.stress_score < 0.2, "idle stress {}", idle.stress_score);
        assert!(
            busy.stress_score > 0.7,
            "saturated stress {}",
            busy.stress_score
        );
        assert!(busy.latency > idle.latency);
    }

    #[test]
    fn stress_score_is_monotonic_in_bandwidth_for_a_fixed_ratio() {
        let p = profiler();
        let scores: Vec<f64> = (0..20)
            .map(|i| {
                let bw = Bandwidth::from_gbs(6.0 * i as f64);
                p.place(&BandwidthSample::new(0.0, bw, RwRatio::HALF))
                    .stress_score
            })
            .collect();
        for pair in scores.windows(2) {
            // Allow a whisker of slack at interpolation-segment boundaries of the
            // piecewise-linear inclination estimate.
            assert!(
                pair[1] >= pair[0] - 0.01,
                "stress must not decrease: {scores:?}"
            );
        }
    }

    #[test]
    fn timeline_statistics_summarise_the_samples() {
        let p = profiler();
        let samples: Vec<BandwidthSample> = (0..100)
            .map(|i| {
                let bw = if i < 50 { 10.0 } else { 114.0 };
                BandwidthSample::new(
                    i as f64 * 10_000.0,
                    Bandwidth::from_gbs(bw),
                    RwRatio::ALL_READS,
                )
            })
            .collect();
        let t = p.profile(&samples);
        assert_eq!(t.len(), 100);
        assert!((t.fraction_above(0.5) - 0.5).abs() < 0.05);
        assert!(t.mean_stress() > 0.2 && t.mean_stress() < 0.8);
        assert!(t.peak_bandwidth().as_gbs() >= 114.0);
        assert!(t.peak_latency().as_ns() > 120.0);
    }

    #[test]
    fn phases_split_at_the_stress_threshold() {
        let p = profiler();
        let samples: Vec<BandwidthSample> = (0..60)
            .map(|i| {
                let bw = if (i / 20) % 2 == 0 { 8.0 } else { 112.0 };
                BandwidthSample::new(
                    i as f64 * 10_000.0,
                    Bandwidth::from_gbs(bw),
                    RwRatio::ALL_READS,
                )
            })
            .collect();
        let t = p.profile(&samples);
        let phases = t.phases(0.5);
        assert_eq!(phases.len(), 3, "{phases:?}");
        assert!(!phases[0].high_stress && phases[1].high_stress && !phases[2].high_stress);
        assert_eq!(phases.iter().map(|p| p.sample_count).sum::<usize>(), 60);
    }

    #[test]
    fn csv_round_trips_row_count() {
        let p = profiler();
        let samples: Vec<BandwidthSample> = (0..7)
            .map(|i| BandwidthSample::new(i as f64, Bandwidth::from_gbs(50.0), RwRatio::HALF))
            .collect();
        let t = p.profile(&samples);
        assert_eq!(t.to_csv().trim().lines().count(), 8);
    }

    #[test]
    fn empty_timeline_is_well_behaved() {
        let t = Timeline::default();
        assert!(t.is_empty());
        assert_eq!(t.mean_stress(), 0.0);
        assert_eq!(t.fraction_above(0.1), 0.0);
        assert!(t.phases(0.5).is_empty());
    }

    proptest! {
        #[test]
        fn stress_score_is_always_in_unit_range(bw in 0.0f64..200.0, read_pct in 0u32..=100) {
            let p = profiler();
            let sample = BandwidthSample::new(
                0.0,
                Bandwidth::from_gbs(bw),
                RwRatio::from_read_percent(read_pct).unwrap(),
            );
            let placed = p.place(&sample);
            prop_assert!((0.0..=1.0).contains(&placed.stress_score));
            prop_assert!(placed.latency.as_ns() > 0.0);
        }

        #[test]
        fn phases_partition_the_timeline(n in 1usize..200, threshold in 0.0f64..1.0) {
            let p = profiler();
            let samples: Vec<BandwidthSample> = (0..n)
                .map(|i| {
                    BandwidthSample::new(
                        i as f64,
                        Bandwidth::from_gbs((i % 13) as f64 * 10.0),
                        RwRatio::HALF,
                    )
                })
                .collect();
            let t = p.profile(&samples);
            let phases = t.phases(threshold);
            prop_assert_eq!(phases.iter().map(|p| p.sample_count).sum::<usize>(), n);
            for pair in phases.windows(2) {
                prop_assert_ne!(pair[0].high_stress, pair[1].high_stress);
                prop_assert_eq!(pair[0].last_index + 1, pair[1].first_index);
            }
        }
    }
}
