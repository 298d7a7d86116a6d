//! Paper §IV (memory models in existing simulators): checks on the quick `fig5`, `fig6`
//! and `fig7` reports.

mod tests {
    use crate::{cell, quick_report};

    #[test]
    fn fig5_shows_fixed_latency_flatness_against_the_reference() {
        let r = quick_report("fig5");
        assert_eq!(r.rows.len(), 3);
        let spread = |name| cell(&r, name, 2) - cell(&r, name, 1);
        let (detailed_spread, fixed_spread) = (spread("detailed-dram"), spread("fixed-latency"));
        assert!(
            detailed_spread > fixed_spread,
            "the reference memory must show more latency growth than the fixed model: {detailed_spread} vs {fixed_spread}"
        );
    }

    #[test]
    fn fig6_trace_replay_produces_rows_for_every_profile() {
        let r = quick_report("fig6");
        // One row per model (three stand-ins plus detailed-dram) per replay speed.
        assert_eq!(r.rows.len(), (3 + 1) * 2);
        assert!(r.notes[0].contains("requests"));
    }

    #[test]
    fn fig7_reports_row_buffer_percentages_that_sum_to_about_100() {
        let r = quick_report("fig7");
        for row in &r.rows {
            if row[0] != "detailed-dram" && row[3].parse::<f64>().unwrap() == 0.0 {
                continue;
            }
            let total: f64 = row[4..=6].iter().map(|c| c.parse::<f64>().unwrap()).sum();
            assert!((total - 100.0).abs() < 3.0, "row {row:?} sums to {total}");
        }
    }
}
