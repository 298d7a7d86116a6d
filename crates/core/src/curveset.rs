//! Persistent, provenance-carrying curve artifacts: the [`CurveSet`].
//!
//! A [`crate::CurveFamily`] is the in-memory interface between the three pillars of the
//! Mess methodology — the benchmark *produces* families, the Mess simulator *consumes*
//! them, and the application profiler *positions* traces on them. The `CurveSet` is that
//! interface made durable: a family plus the provenance of how it was measured (platform,
//! memory model, sweep, originating scenario) and a format version, serialized to a JSON
//! file that any later run can load back.
//!
//! # Lifecycle
//!
//! 1. **Characterize** — a characterization scenario (or `mess_bench::characterize`
//!    directly) produces a `CurveFamily`; [`CurveSet::new`] wraps it with provenance.
//! 2. **Persist** — [`CurveSet::save`] writes the artifact; the harness's
//!    `--curves-out <dir>` does this for every family a scenario measures.
//! 3. **Reuse** — [`CurveSet::load`] (or the declarative
//!    `CurveSourceSpec::File { path }` in a scenario file, or the harness's
//!    `--curves <file>` override) feeds the saved family to the Mess simulator or the
//!    profiler, closing the characterize → simulate → profile loop without re-measuring.
//!
//! # File format (version 1)
//!
//! The artifact is built on the family's row encoding ([`CurveFamily::to_ratio_rows`] /
//! [`CurveFamily::from_ratio_rows`]) rather than on the `Curve` struct, so the file is a
//! flat, inspectable table in the spirit of the paper artifact's `results.csv`:
//!
//! ```json
//! {
//!   "version": 1,
//!   "name": "Intel Skylake Xeon Platinum",
//!   "provenance": {
//!     "platform": "skylake",
//!     "model": "detailed-dram",
//!     "sweep": "2 mixes x 3 pauses, 80 chase loads, 400000 cycles/point",
//!     "scenario": "characterize-skylake"
//!   },
//!   "rows": [[1.0, 5.33, 97.8], [1.0, 23.22, 100.2], ...]
//! }
//! ```
//!
//! Each row is `[read_fraction, bandwidth_gbs, latency_ns]`. The read fraction is the raw
//! `f64` curve key (not a rounded percentage), so characterized families — whose measured
//! compositions are arbitrary fractions — round-trip **bit identically**: loading a saved
//! artifact and re-saving it reproduces the file byte for byte, and a Mess-simulator run
//! from the file is indistinguishable from one fed the in-process family.
//!
//! # Strict loading
//!
//! [`CurveSet::load`] / [`CurveSet::from_json`] rebuild the family through the normal
//! constructors, so every invariant of a freshly measured family is re-checked on the way
//! in: at least two points per curve, finite non-negative coordinates, positive latencies,
//! no duplicate read/write ratios, and a positive bandwidth span per curve (the
//! bandwidth-sorted interpolation view must strictly increase from its first to its last
//! point — a degenerate single-bandwidth curve cannot answer `latency_at`). A version
//! mismatch is rejected before any of that, with a message naming both versions.

use crate::family::CurveFamily;
use mess_types::MessError;
use serde::{Deserialize, Serialize, Value};
use std::fs;
use std::path::Path;

/// The on-disk format version written and accepted by this build.
///
/// Bump on any incompatible change to the JSON layout; the loader rejects files whose
/// `version` field differs, naming both versions.
pub const CURVESET_FORMAT_VERSION: u32 = 1;

/// Where a saved curve family came from: the measurement context that makes the artifact
/// reproducible and comparable.
///
/// All fields are free-form strings (the artifact must stay loadable even when the
/// platform registry evolves), but the conventional values are: the platform key
/// (`"skylake"`), the memory-model label (`"detailed-dram"`), a human-readable sweep
/// summary, and the id of the scenario that ran the characterization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurveSetProvenance {
    /// Platform key the family was measured on (e.g. `"skylake"`).
    pub platform: String,
    /// Label of the memory model that served the sweep (e.g. `"detailed-dram"`, `"mess"`).
    pub model: String,
    /// Human-readable summary of the characterization sweep.
    pub sweep: String,
    /// Identifier of the scenario (or tool) that produced the artifact.
    pub scenario: String,
}

impl CurveSetProvenance {
    /// Creates a provenance record.
    pub fn new(
        platform: impl Into<String>,
        model: impl Into<String>,
        sweep: impl Into<String>,
        scenario: impl Into<String>,
    ) -> Self {
        CurveSetProvenance {
            platform: platform.into(),
            model: model.into(),
            sweep: sweep.into(),
            scenario: scenario.into(),
        }
    }
}

/// A versioned, provenance-carrying bandwidth–latency curve artifact (see the
/// [module docs](crate::curveset) for the lifecycle and file format).
#[derive(Debug, Clone, PartialEq)]
pub struct CurveSet {
    version: u32,
    provenance: CurveSetProvenance,
    family: CurveFamily,
}

impl CurveSet {
    /// Wraps a curve family with provenance, applying the strict artifact validation.
    ///
    /// # Errors
    ///
    /// Returns [`MessError::InvalidCurve`] if a curve has no positive bandwidth span
    /// (all its points share one bandwidth, so interpolation would be degenerate), and
    /// [`MessError::InvalidConfig`] if the provenance's platform or model is empty.
    pub fn new(family: CurveFamily, provenance: CurveSetProvenance) -> Result<Self, MessError> {
        if provenance.platform.is_empty() || provenance.model.is_empty() {
            return Err(MessError::InvalidConfig(
                "curve set provenance must name a platform and a model".into(),
            ));
        }
        for curve in family.curves() {
            let (mut lo, mut hi) = (f64::MAX, f64::MIN);
            for p in curve.points() {
                lo = lo.min(p.bandwidth.as_gbs());
                hi = hi.max(p.bandwidth.as_gbs());
            }
            // Coordinates are finite (enforced by `Curve::new`), so `<=` is a total check.
            if hi <= lo {
                return Err(MessError::InvalidCurve(format!(
                    "curve {} spans no bandwidth range ({lo}..{hi} GB/s): the \
                     bandwidth-sorted view must strictly increase",
                    curve.ratio()
                )));
            }
        }
        Ok(CurveSet {
            version: CURVESET_FORMAT_VERSION,
            provenance,
            family,
        })
    }

    /// The format version the artifact was written with (always
    /// [`CURVESET_FORMAT_VERSION`] for in-memory sets — the loader rejects others).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The artifact's measurement provenance.
    pub fn provenance(&self) -> &CurveSetProvenance {
        &self.provenance
    }

    /// The curve family, ready for interpolation (indices are rebuilt on load).
    pub fn family(&self) -> &CurveFamily {
        &self.family
    }

    /// Consumes the artifact, returning the family (what the Mess simulator and the
    /// profiler actually take).
    pub fn into_family(self) -> CurveFamily {
        self.family
    }

    /// The family name (conventionally the characterized memory system's display name).
    pub fn name(&self) -> &str {
        self.family.name()
    }

    /// Serializes the artifact as pretty-printed JSON.
    ///
    /// The rendering is canonical — loading a saved artifact and re-serializing it
    /// reproduces the bytes exactly (pinned by the round-trip tests).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("validated curves contain no non-finite floats")
    }

    /// Parses and strictly validates an artifact from JSON (see the module docs for the
    /// checks applied).
    ///
    /// # Errors
    ///
    /// Returns [`MessError::Parse`] on malformed JSON, a version mismatch, or any failed
    /// family validation.
    pub fn from_json(text: &str) -> Result<Self, MessError> {
        serde_json::from_str(text).map_err(|e| MessError::Parse(format!("curve set JSON: {e}")))
    }

    /// Writes the artifact to `path` as JSON (with a trailing newline).
    ///
    /// # Errors
    ///
    /// Returns [`MessError::Parse`] on I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), MessError> {
        fs::write(path, self.to_json() + "\n")
            .map_err(|e| MessError::Parse(format!("writing {}: {e}", path.display())))
    }

    /// Reads and strictly validates an artifact from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`MessError::Parse`] on I/O failure or any [`CurveSet::from_json`] error,
    /// with the path in the message.
    pub fn load(path: &Path) -> Result<Self, MessError> {
        let text = fs::read_to_string(path)
            .map_err(|e| MessError::Parse(format!("reading {}: {e}", path.display())))?;
        Self::from_json(&text).map_err(|e| MessError::Parse(format!("{}: {e}", path.display())))
    }
}

impl Serialize for CurveSet {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![
            ("version".to_string(), self.version.serialize_value()),
            (
                "name".to_string(),
                Value::Str(self.family.name().to_string()),
            ),
            ("provenance".to_string(), self.provenance.serialize_value()),
            (
                "rows".to_string(),
                self.family.to_ratio_rows().serialize_value(),
            ),
        ])
    }
}

impl Deserialize for CurveSet {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        let version = u32::deserialize_value(v.require("version")?)?;
        if version != CURVESET_FORMAT_VERSION {
            return Err(serde::Error::new(format!(
                "curve set format version {version}, but this build reads version \
                 {CURVESET_FORMAT_VERSION}"
            )));
        }
        let name = String::deserialize_value(v.require("name")?)?;
        let provenance = CurveSetProvenance::deserialize_value(v.require("provenance")?)?;
        let rows: Vec<(f64, f64, f64)> = Deserialize::deserialize_value(v.require("rows")?)?;
        let family = CurveFamily::from_ratio_rows(name, &rows)
            .map_err(|e| serde::Error::new(format!("invalid curve rows: {e}")))?;
        CurveSet::new(family, provenance).map_err(|e| serde::Error::new(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::{Curve, CurvePoint};
    use mess_types::{Bandwidth, Latency, RwRatio};

    fn provenance() -> CurveSetProvenance {
        CurveSetProvenance::new("skylake", "detailed-dram", "test sweep", "unit-test")
    }

    /// A family with deliberately awkward ratios (non-percent fractions) and a wave-form
    /// curve (bandwidth declines past saturation), the shapes a real sweep produces.
    fn measured_family() -> CurveFamily {
        let chase = |fraction: f64, pts: &[(f64, f64)]| {
            Curve::new(
                RwRatio::from_read_fraction(fraction).unwrap(),
                pts.iter()
                    .map(|&(bw, lat)| {
                        CurvePoint::new(Bandwidth::from_gbs(bw), Latency::from_ns(lat))
                    })
                    .collect(),
            )
            .unwrap()
        };
        CurveFamily::new(
            "awkward",
            vec![
                chase(
                    0.638_219_4,
                    &[(4.7, 101.3), (61.2, 188.8), (54.9, 402.6)], // wave: bandwidth declines
                ),
                chase(0.998_100_3, &[(5.33, 97.8), (23.22, 100.2), (76.2, 550.0)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_every_bit_and_every_byte() {
        let set = CurveSet::new(measured_family(), provenance()).unwrap();
        let json = set.to_json();
        let back = CurveSet::from_json(&json).unwrap();
        assert_eq!(back, set);
        assert_eq!(back.to_json(), json, "re-serialization must be byte-stable");
        // Interpolation answers are bit-identical too.
        for (q_ratio, q_bw) in [(0.7, 30.0), (0.999, 60.0), (0.638_219_4, 58.0)] {
            let r = RwRatio::from_read_fraction(q_ratio).unwrap();
            let bw = Bandwidth::from_gbs(q_bw);
            assert_eq!(
                set.family().latency_at(r, bw).as_ns().to_bits(),
                back.family().latency_at(r, bw).as_ns().to_bits()
            );
        }
    }

    #[test]
    fn file_round_trip_is_byte_identical() {
        let dir = std::env::temp_dir().join(format!("mess-curveset-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.json");
        let set = CurveSet::new(measured_family(), provenance()).unwrap();
        set.save(&path).unwrap();
        let bytes = fs::read_to_string(&path).unwrap();
        let back = CurveSet::load(&path).unwrap();
        assert_eq!(back, set);
        assert_eq!(back.to_json() + "\n", bytes);
        fs::remove_dir_all(&dir).ok();
        let missing = CurveSet::load(&path).unwrap_err();
        assert!(matches!(missing, MessError::Parse(_)), "{missing}");
    }

    #[test]
    fn version_mismatch_is_rejected_with_both_versions() {
        let set = CurveSet::new(measured_family(), provenance()).unwrap();
        let json = set.to_json().replace("\"version\": 1", "\"version\": 99");
        let err = CurveSet::from_json(&json).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("99") && msg.contains('1'), "{msg}");
    }

    #[test]
    fn strict_loader_rejects_invalid_rows() {
        let set = CurveSet::new(measured_family(), provenance()).unwrap();
        let json = set.to_json();
        // A negative latency fails Curve::new's coordinate validation.
        let bad = json.replace("97.8", "-97.8");
        assert!(CurveSet::from_json(&bad).is_err(), "negative latency");
        // Collapsing one curve to a single row fails the two-point minimum.
        let single_curve = serde_json::to_string_pretty(&Value::Object(vec![
            ("version".into(), Value::U64(1)),
            ("name".into(), Value::Str("x".into())),
            ("provenance".into(), provenance().serialize_value()),
            (
                "rows".into(),
                vec![
                    (1.0f64, 5.0f64, 90.0f64),
                    (0.5, 7.0, 95.0),
                    (0.5, 9.0, 99.0),
                ]
                .serialize_value(),
            ),
        ]))
        .unwrap();
        assert!(
            CurveSet::from_json(&single_curve).is_err(),
            "one-point curve"
        );
        // An out-of-range read fraction fails RwRatio validation.
        let bad_ratio = json.replace("0.6382194", "1.6382194");
        assert!(CurveSet::from_json(&bad_ratio).is_err(), "fraction > 1");
    }

    #[test]
    fn zero_bandwidth_span_is_rejected() {
        let flat = CurveFamily::new(
            "flat",
            vec![Curve::new(
                RwRatio::ALL_READS,
                vec![
                    CurvePoint::new(Bandwidth::from_gbs(10.0), Latency::from_ns(90.0)),
                    CurvePoint::new(Bandwidth::from_gbs(10.0), Latency::from_ns(120.0)),
                ],
            )
            .unwrap()],
        )
        .unwrap();
        let err = CurveSet::new(flat, provenance()).unwrap_err();
        assert!(err.to_string().contains("span"), "{err}");
    }

    #[test]
    fn provenance_must_name_platform_and_model() {
        let mut p = provenance();
        p.platform.clear();
        assert!(CurveSet::new(measured_family(), p).is_err());
        let mut p = provenance();
        p.model.clear();
        assert!(CurveSet::new(measured_family(), p).is_err());
    }

    proptest::proptest! {
        // Satellite contract: a saved-then-loaded `CurveSet` re-serializes byte
        // identically for arbitrary valid families — the row encoding, the `f64`
        // printer, and the strict loader together form a fixed point.
        #[test]
        fn prop_saved_then_loaded_sets_reserialize_byte_identically(
            fracs in proptest::collection::vec(0.0f64..=1.0, 1..4),
            bws in proptest::collection::vec(0.01f64..400.0, 2..7),
            lats in proptest::collection::vec(0.5f64..1500.0, 2..7),
        ) {
            use proptest::prelude::*;
            let mut fracs = fracs.clone();
            fracs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            fracs.dedup_by(|a, b| a.to_bits() == b.to_bits());
            let n = bws.len().min(lats.len());
            let span = bws[..n].iter().fold(f64::MIN, |m, &b| m.max(b))
                - bws[..n].iter().fold(f64::MAX, |m, &b| m.min(b));
            prop_assume!(span > 0.0);
            let curves: Vec<Curve> = fracs
                .iter()
                .map(|&f| {
                    let points: Vec<CurvePoint> = (0..n)
                        .map(|i| CurvePoint::new(
                            Bandwidth::from_gbs(bws[i]),
                            Latency::from_ns(lats[i]),
                        ))
                        .collect();
                    Curve::new(RwRatio::from_read_fraction(f).unwrap(), points).unwrap()
                })
                .collect();
            let family = CurveFamily::new("prop", curves).unwrap();
            let set = CurveSet::new(family, provenance()).unwrap();
            let json = set.to_json();
            let back = CurveSet::from_json(&json).unwrap();
            prop_assert_eq!(&back, &set);
            prop_assert_eq!(back.to_json(), json);
        }
    }

    #[test]
    fn loaded_families_answer_queries_without_an_explicit_rebuild() {
        // The strict loader reconstructs curves through `Curve::new`, which rebuilds the
        // interpolation index — a loaded artifact must be immediately queryable.
        let set = CurveSet::new(measured_family(), provenance()).unwrap();
        let back = CurveSet::from_json(&set.to_json()).unwrap();
        let lat = back
            .family()
            .latency_at(RwRatio::ALL_READS, Bandwidth::from_gbs(20.0));
        assert!(lat.as_ns() > 0.0);
    }
}
