//! A family of bandwidth–latency curves, indexed by read/write ratio.

use crate::curve::{Curve, CurvePoint};
use mess_types::{Bandwidth, Latency, MessError, RwRatio};
use serde::{Deserialize, Serialize};

/// The full Mess characterization of one memory system: one bandwidth–latency curve per
/// measured read/write ratio.
///
/// The family answers the central question of the Mess simulator: *given the current traffic
/// composition and bandwidth, what is the memory access latency?* Queries between measured
/// ratios interpolate linearly between the two nearest curves.
///
/// ```
/// use mess_core::{Curve, CurveFamily, CurvePoint};
/// use mess_types::{Bandwidth, Latency, RwRatio};
///
/// # fn curve(ratio: RwRatio, scale: f64) -> Curve {
/// #     Curve::new(ratio, vec![
/// #         CurvePoint::new(Bandwidth::from_gbs(5.0), Latency::from_ns(90.0)),
/// #         CurvePoint::new(Bandwidth::from_gbs(100.0 * scale), Latency::from_ns(300.0)),
/// #     ]).unwrap()
/// # }
/// let family = CurveFamily::new("example", vec![
///     curve(RwRatio::HALF, 0.8),
///     curve(RwRatio::ALL_READS, 1.0),
/// ])?;
/// let lat = family.latency_at(RwRatio::from_read_percent(75).unwrap(), Bandwidth::from_gbs(50.0));
/// assert!(lat.as_ns() >= 90.0);
/// # Ok::<(), mess_types::MessError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurveFamily {
    name: String,
    /// Curves sorted by ascending read fraction.
    curves: Vec<Curve>,
}

impl CurveFamily {
    /// Creates a curve family from a set of per-ratio curves.
    ///
    /// Curves are sorted by read fraction; duplicate ratios are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`MessError::EmptyCurveFamily`] if `curves` is empty and
    /// [`MessError::InvalidCurve`] if two curves share the same ratio.
    pub fn new(name: impl Into<String>, mut curves: Vec<Curve>) -> Result<Self, MessError> {
        if curves.is_empty() {
            return Err(MessError::EmptyCurveFamily);
        }
        curves.sort_by_key(|c| c.ratio());
        for w in curves.windows(2) {
            if w[0].ratio() == w[1].ratio() {
                return Err(MessError::InvalidCurve(format!(
                    "duplicate curve for ratio {}",
                    w[0].ratio()
                )));
            }
        }
        Ok(CurveFamily {
            name: name.into(),
            curves,
        })
    }

    /// The name of the memory system this family characterizes.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The curves, sorted by ascending read fraction.
    pub fn curves(&self) -> &[Curve] {
        &self.curves
    }

    /// Number of curves in the family.
    pub fn len(&self) -> usize {
        self.curves.len()
    }

    /// Returns `true` if the family holds no curves (never the case after validation).
    pub fn is_empty(&self) -> bool {
        self.curves.is_empty()
    }

    /// The measured ratios, ascending.
    pub fn ratios(&self) -> Vec<RwRatio> {
        self.curves.iter().map(|c| c.ratio()).collect()
    }

    /// The curve measured closest to `ratio`.
    ///
    /// Tie-breaking is deterministic: when two curves are exactly equidistant from `ratio`
    /// (e.g. a 60 %-read query against curves at 50 % and 70 %), the **more write-heavy**
    /// curve wins — curves are stored in ascending read-fraction order and the scan keeps
    /// the first minimum it sees. The write-heavy curve is the conservative choice (it
    /// reports the higher latency on DDR systems), and pinning the rule means ratio
    /// selection can never depend on float noise in how the family was assembled.
    pub fn closest_curve(&self, ratio: RwRatio) -> &Curve {
        // `Iterator::min_by` returns the *first* of several equally-minimal elements, and
        // `self.curves` is sorted by ascending read fraction — together these two facts are
        // the tie-break contract documented above (pinned by `closest_curve_tie_breaking`).
        self.curves
            .iter()
            .min_by(|a, b| {
                a.ratio()
                    .distance(ratio)
                    .partial_cmp(&b.ratio().distance(ratio))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("validated family is non-empty")
    }

    /// The two curves bracketing `ratio` (equal when `ratio` is outside the measured range or
    /// exactly on a measured curve), plus the interpolation weight of the second curve.
    fn bracketing(&self, ratio: RwRatio) -> (&Curve, &Curve, f64) {
        let first = self.curves.first().expect("non-empty");
        let last = self.curves.last().expect("non-empty");
        if ratio <= first.ratio() {
            return (first, first, 0.0);
        }
        if ratio >= last.ratio() {
            return (last, last, 0.0);
        }
        let mut lo = 0usize;
        let mut hi = self.curves.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.curves[mid].ratio() <= ratio {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let a = &self.curves[lo];
        let b = &self.curves[hi];
        let span = b.ratio().read_fraction() - a.ratio().read_fraction();
        let t = if span <= f64::EPSILON {
            0.0
        } else {
            (ratio.read_fraction() - a.ratio().read_fraction()) / span
        };
        (a, b, t)
    }

    /// Memory access latency at the given traffic composition and bandwidth, interpolating
    /// across both the ratio and the bandwidth axes.
    pub fn latency_at(&self, ratio: RwRatio, bandwidth: Bandwidth) -> Latency {
        let (a, b, t) = self.bracketing(ratio);
        let la = a.latency_at(bandwidth).as_ns();
        let lb = b.latency_at(bandwidth).as_ns();
        Latency::from_ns(la + t * (lb - la))
    }

    /// Curve inclination (ns per GB/s) at the given composition and bandwidth.
    pub fn inclination_at(&self, ratio: RwRatio, bandwidth: Bandwidth) -> f64 {
        let (a, b, t) = self.bracketing(ratio);
        let ia = a.inclination_at(bandwidth);
        let ib = b.inclination_at(bandwidth);
        ia + t * (ib - ia)
    }

    /// The maximum measured bandwidth for the given composition (interpolated).
    pub fn max_bandwidth_at(&self, ratio: RwRatio) -> Bandwidth {
        let (a, b, t) = self.bracketing(ratio);
        let ma = a.max_bandwidth().as_gbs();
        let mb = b.max_bandwidth().as_gbs();
        Bandwidth::from_gbs(ma + t * (mb - ma))
    }

    /// The unloaded latency for the given composition (interpolated).
    pub fn unloaded_latency_at(&self, ratio: RwRatio) -> Latency {
        let (a, b, t) = self.bracketing(ratio);
        let la = a.unloaded_latency().as_ns();
        let lb = b.unloaded_latency().as_ns();
        Latency::from_ns(la + t * (lb - la))
    }

    /// The lowest unloaded latency across all curves — the headline "unloaded memory latency"
    /// of paper Table I.
    pub fn unloaded_latency(&self) -> Latency {
        self.curves
            .iter()
            .map(|c| c.unloaded_latency())
            .fold(Latency::from_ns(f64::MAX), Latency::min)
    }

    /// The maximum bandwidth across all curves (always achieved by the most read-heavy
    /// curve on DDR/HBM systems; not necessarily on CXL).
    pub fn max_bandwidth(&self) -> Bandwidth {
        self.curves
            .iter()
            .map(|c| c.max_bandwidth())
            .fold(Bandwidth::ZERO, Bandwidth::max)
    }

    /// Returns a copy of the family with every latency reduced by `delta` (clamped at 1 ns).
    pub fn shifted_latency(&self, delta: Latency) -> CurveFamily {
        CurveFamily {
            name: self.name.clone(),
            curves: self
                .curves
                .iter()
                .map(|c| c.shifted_latency(delta))
                .collect(),
        }
    }

    /// Rebuilds the interpolation indices of every curve (required after deserialization).
    pub fn rebuild_indices(&mut self) {
        for c in &mut self.curves {
            c.rebuild_index();
        }
    }

    /// Flattens the family into `(read_percent, bandwidth_gbs, latency_ns)` rows, the format
    /// used by the paper artifact's `results.csv` files.
    pub fn to_rows(&self) -> Vec<(u32, f64, f64)> {
        let mut rows = Vec::new();
        for c in &self.curves {
            for p in c.points() {
                rows.push((
                    c.ratio().read_percent(),
                    p.bandwidth.as_gbs(),
                    p.latency.as_ns(),
                ));
            }
        }
        rows
    }

    /// Builds a family from `(read_percent, bandwidth_gbs, latency_ns)` rows.
    ///
    /// # Errors
    ///
    /// Returns an error if the rows do not form at least one valid curve.
    pub fn from_rows(name: impl Into<String>, rows: &[(u32, f64, f64)]) -> Result<Self, MessError> {
        use std::collections::BTreeMap;
        let mut grouped: BTreeMap<u32, Vec<CurvePoint>> = BTreeMap::new();
        for &(pct, bw, lat) in rows {
            grouped.entry(pct).or_default().push(CurvePoint::new(
                Bandwidth::from_gbs(bw),
                Latency::from_ns(lat),
            ));
        }
        let mut curves = Vec::new();
        for (pct, points) in grouped {
            let ratio = RwRatio::from_read_percent(pct)?;
            curves.push(Curve::new(ratio, points)?);
        }
        CurveFamily::new(name, curves)
    }

    /// Flattens the family into `(read_fraction, bandwidth_gbs, latency_ns)` rows — the
    /// exact-precision sibling of [`CurveFamily::to_rows`] used by the on-disk
    /// [`crate::curveset::CurveSet`] artifact.
    ///
    /// Unlike the integer-percent encoding, the read fraction is the curve's raw `f64` key,
    /// so characterized families (whose measured mean compositions are arbitrary fractions
    /// like `0.9873…`) survive a `to_ratio_rows → from_ratio_rows` round trip **bit
    /// identically**. Rows come out curve by curve (ratios ascending), points in
    /// measurement order.
    pub fn to_ratio_rows(&self) -> Vec<(f64, f64, f64)> {
        let mut rows = Vec::new();
        for c in &self.curves {
            for p in c.points() {
                rows.push((
                    c.ratio().read_fraction(),
                    p.bandwidth.as_gbs(),
                    p.latency.as_ns(),
                ));
            }
        }
        rows
    }

    /// Builds a family from `(read_fraction, bandwidth_gbs, latency_ns)` rows (the inverse
    /// of [`CurveFamily::to_ratio_rows`]).
    ///
    /// Rows are grouped into curves by **exact** (`f64`-bit) read-fraction equality, in
    /// first-seen order, preserving each group's row order as the curve's measurement
    /// order; [`CurveFamily::new`] then sorts the curves by ratio. Every validation of the
    /// normal constructors applies: at least two points per curve, finite non-negative
    /// coordinates, positive latencies, no duplicate ratios.
    ///
    /// # Errors
    ///
    /// Returns an error if a read fraction is outside `[0, 1]` or the rows do not form at
    /// least one valid curve.
    pub fn from_ratio_rows(
        name: impl Into<String>,
        rows: &[(f64, f64, f64)],
    ) -> Result<Self, MessError> {
        let mut grouped: Vec<(f64, Vec<CurvePoint>)> = Vec::new();
        for &(fraction, bw, lat) in rows {
            let point = CurvePoint::new(Bandwidth::from_gbs(bw), Latency::from_ns(lat));
            match grouped
                .iter_mut()
                .find(|(f, _)| f.to_bits() == fraction.to_bits())
            {
                Some((_, points)) => points.push(point),
                None => grouped.push((fraction, vec![point])),
            }
        }
        let mut curves = Vec::new();
        for (fraction, points) in grouped {
            let ratio = RwRatio::from_read_fraction(fraction)?;
            curves.push(Curve::new(ratio, points)?);
        }
        CurveFamily::new(name, curves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn curve(read_pct: u32, max_bw: f64, unloaded: f64, max_lat: f64) -> Curve {
        Curve::new(
            RwRatio::from_read_percent(read_pct).unwrap(),
            vec![
                CurvePoint::new(Bandwidth::from_gbs(5.0), Latency::from_ns(unloaded)),
                CurvePoint::new(
                    Bandwidth::from_gbs(max_bw * 0.6),
                    Latency::from_ns(unloaded * 1.4),
                ),
                CurvePoint::new(Bandwidth::from_gbs(max_bw), Latency::from_ns(max_lat)),
            ],
        )
        .unwrap()
    }

    fn family() -> CurveFamily {
        CurveFamily::new(
            "skylake-like",
            vec![
                curve(50, 92.0, 92.0, 391.0),
                curve(75, 104.0, 90.0, 330.0),
                curve(100, 116.0, 89.0, 242.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            CurveFamily::new("x", vec![]),
            Err(MessError::EmptyCurveFamily)
        ));
        let dup = CurveFamily::new(
            "x",
            vec![
                curve(100, 100.0, 90.0, 200.0),
                curve(100, 90.0, 90.0, 200.0),
            ],
        );
        assert!(dup.is_err());
    }

    #[test]
    fn curves_sorted_by_ratio() {
        let f = family();
        let ratios: Vec<u32> = f.ratios().iter().map(|r| r.read_percent()).collect();
        assert_eq!(ratios, vec![50, 75, 100]);
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
        assert_eq!(f.name(), "skylake-like");
    }

    #[test]
    fn closest_curve_selection() {
        let f = family();
        assert_eq!(
            f.closest_curve(RwRatio::from_read_percent(60).unwrap())
                .ratio()
                .read_percent(),
            50
        );
        assert_eq!(
            f.closest_curve(RwRatio::from_read_percent(90).unwrap())
                .ratio()
                .read_percent(),
            100
        );
    }

    #[test]
    fn ratio_interpolation_is_between_bracketing_curves() {
        let f = family();
        let bw = Bandwidth::from_gbs(80.0);
        let lat50 = f.latency_at(RwRatio::HALF, bw).as_ns();
        let lat100 = f.latency_at(RwRatio::ALL_READS, bw).as_ns();
        let lat75 = f
            .latency_at(RwRatio::from_read_percent(75).unwrap(), bw)
            .as_ns();
        let lat60 = f
            .latency_at(RwRatio::from_read_percent(60).unwrap(), bw)
            .as_ns();
        assert!(
            lat50 > lat100,
            "write-heavier traffic should be slower at high bandwidth"
        );
        assert!(lat60 <= lat50 && lat60 >= lat75 - 1e-9);
        assert!(lat75 <= lat50 && lat75 >= lat100);
    }

    #[test]
    fn out_of_range_ratio_clamps() {
        let f = family();
        let below = f.latency_at(RwRatio::ALL_WRITES, Bandwidth::from_gbs(50.0));
        let at50 = f.latency_at(RwRatio::HALF, Bandwidth::from_gbs(50.0));
        assert!((below.as_ns() - at50.as_ns()).abs() < 1e-12);
    }

    #[test]
    fn family_level_metrics() {
        let f = family();
        assert!((f.unloaded_latency().as_ns() - 89.0).abs() < 1e-12);
        assert!((f.max_bandwidth().as_gbs() - 116.0).abs() < 1e-12);
        assert!((f.max_bandwidth_at(RwRatio::ALL_READS).as_gbs() - 116.0).abs() < 1e-12);
        assert!(
            f.max_bandwidth_at(RwRatio::from_read_percent(75).unwrap())
                .as_gbs()
                < 116.0
        );
        assert!(
            f.unloaded_latency_at(RwRatio::HALF).as_ns()
                > f.unloaded_latency_at(RwRatio::ALL_READS).as_ns()
        );
    }

    #[test]
    fn rows_roundtrip() {
        let f = family();
        let rows = f.to_rows();
        assert_eq!(rows.len(), 9);
        let back = CurveFamily::from_rows("skylake-like", &rows).unwrap();
        assert_eq!(back.len(), 3);
        let bw = Bandwidth::from_gbs(70.0);
        for pct in [50, 75, 100] {
            let r = RwRatio::from_read_percent(pct).unwrap();
            assert!((back.latency_at(r, bw).as_ns() - f.latency_at(r, bw).as_ns()).abs() < 1e-9);
        }
    }

    #[test]
    fn shifted_family() {
        let f = family().shifted_latency(Latency::from_ns(40.0));
        assert!((f.unloaded_latency().as_ns() - 49.0).abs() < 1e-12);
    }

    #[test]
    fn inclination_interpolates() {
        let f = family();
        let i = f.inclination_at(
            RwRatio::from_read_percent(75).unwrap(),
            Bandwidth::from_gbs(100.0),
        );
        assert!(i > 0.0);
    }

    #[test]
    fn closest_curve_tie_breaking_prefers_the_write_heavy_curve() {
        // 62.5 % reads is *exactly* equidistant (0.125, a binary fraction) from the 50 %
        // and 75 % curves; 87.5 % ties the 75 % and 100 % curves. The documented contract:
        // ties resolve to the more write-heavy (lower-ratio) curve, deterministically.
        let f = family();
        let tie =
            |pct_times_10: u32| RwRatio::from_read_fraction(pct_times_10 as f64 / 1000.0).unwrap();
        assert_eq!(f.closest_curve(tie(625)).ratio().read_percent(), 50);
        assert_eq!(f.closest_curve(tie(875)).ratio().read_percent(), 75);
        // Sanity: the tie-break never fires for clearly one-sided queries.
        assert_eq!(f.closest_curve(tie(630)).ratio().read_percent(), 75);
        assert_eq!(f.closest_curve(tie(620)).ratio().read_percent(), 50);
    }

    #[test]
    fn every_mutation_path_leaves_indices_consistent_with_an_explicit_rebuild() {
        // Audit of `rebuild_index` coverage: each way of producing a family must yield
        // interpolation indices such that an explicit `rebuild_indices()` changes no
        // answer. A failure here means a construction path forgot to (re)build.
        let queries: Vec<(RwRatio, Bandwidth)> = [(55u32, 20.0f64), (75, 70.0), (100, 95.0)]
            .iter()
            .map(|&(pct, bw)| {
                (
                    RwRatio::from_read_percent(pct).unwrap(),
                    Bandwidth::from_gbs(bw),
                )
            })
            .collect();
        let check = |mut f: CurveFamily, tag: &str| {
            let before: Vec<u64> = queries
                .iter()
                .map(|&(r, bw)| f.latency_at(r, bw).as_ns().to_bits())
                .collect();
            f.rebuild_indices();
            let after: Vec<u64> = queries
                .iter()
                .map(|&(r, bw)| f.latency_at(r, bw).as_ns().to_bits())
                .collect();
            assert_eq!(before, after, "{tag}: rebuild changed an answer");
        };
        check(family(), "CurveFamily::new");
        check(
            family().shifted_latency(Latency::from_ns(30.0)),
            "shifted_latency",
        );
        check(
            CurveFamily::from_rows("rows", &family().to_rows()).unwrap(),
            "from_rows",
        );
        check(
            CurveFamily::from_ratio_rows("ratio-rows", &family().to_ratio_rows()).unwrap(),
            "from_ratio_rows",
        );
        let provenance = crate::CurveSetProvenance::new("p", "m", "s", "id");
        let set = crate::CurveSet::new(family(), provenance).unwrap();
        check(
            crate::CurveSet::from_json(&set.to_json())
                .unwrap()
                .into_family(),
            "CurveSet::from_json loader",
        );
    }

    #[test]
    fn ratio_rows_preserve_fractional_ratios_exactly() {
        // Characterized families carry arbitrary mean-composition fractions; the integer
        // encoding rounds them, the ratio encoding must not.
        let fraction = 0.987_654_321_012_345_6;
        let fam = CurveFamily::new(
            "fractional",
            vec![
                Curve::new(
                    RwRatio::from_read_fraction(fraction).unwrap(),
                    vec![
                        CurvePoint::new(Bandwidth::from_gbs(5.0), Latency::from_ns(90.0)),
                        CurvePoint::new(Bandwidth::from_gbs(60.0), Latency::from_ns(140.0)),
                    ],
                )
                .unwrap(),
                curve(50, 92.0, 92.0, 391.0),
            ],
        )
        .unwrap();
        let back = CurveFamily::from_ratio_rows("fractional", &fam.to_ratio_rows()).unwrap();
        assert_eq!(back, fam);
        assert_eq!(
            back.curves()[1].ratio().read_fraction().to_bits(),
            fraction.to_bits()
        );
        // The integer encoding demonstrably loses the fraction (rounded to 99 %).
        let lossy = CurveFamily::from_rows("fractional", &fam.to_rows()).unwrap();
        assert_ne!(lossy, fam);
    }

    proptest! {
        // The satellite contract: `from_rows(to_rows(f))` is bit-identical for arbitrary
        // valid percent-keyed families (the row encoding passes every `f64` through
        // untouched), and the same holds for the fraction-keyed artifact encoding.
        #[test]
        fn prop_row_encodings_round_trip_bit_identically(
            pcts in proptest::collection::vec(0u32..101, 1..5),
            bws in proptest::collection::vec(0.01f64..500.0, 2..9),
            lats in proptest::collection::vec(0.5f64..2000.0, 2..9),
        ) {
            let mut pcts = pcts.clone();
            pcts.sort_unstable();
            pcts.dedup();
            let n = bws.len().min(lats.len());
            let curves: Vec<Curve> = pcts
                .iter()
                .map(|&pct| {
                    let points: Vec<CurvePoint> = (0..n)
                        .map(|i| CurvePoint::new(
                            Bandwidth::from_gbs(bws[i]),
                            Latency::from_ns(lats[i]),
                        ))
                        .collect();
                    Curve::new(RwRatio::from_read_percent(pct).unwrap(), points).unwrap()
                })
                .collect();
            let fam = CurveFamily::new("prop", curves).unwrap();

            let via_pct = CurveFamily::from_rows("prop", &fam.to_rows()).unwrap();
            prop_assert_eq!(&via_pct, &fam);
            let via_fraction = CurveFamily::from_ratio_rows("prop", &fam.to_ratio_rows()).unwrap();
            prop_assert_eq!(&via_fraction, &fam);
            // Equality already compares every ratio and point; additionally pin the bits
            // of an interpolated answer through both encodings.
            for f in [&via_pct, &via_fraction] {
                for &(r, bw) in &[(0.6f64, 30.0f64), (1.0, 450.0)] {
                    let ratio = RwRatio::from_read_fraction(r).unwrap();
                    let q = Bandwidth::from_gbs(bw);
                    prop_assert_eq!(
                        f.latency_at(ratio, q).as_ns().to_bits(),
                        fam.latency_at(ratio, q).as_ns().to_bits()
                    );
                }
            }
        }
    }
}
