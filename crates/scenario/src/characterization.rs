//! Paper §II–III (characterizing the memory system): checks on the quick `fig2` and
//! `table1` reports.

mod tests {
    use crate::quick_report;

    #[test]
    fn fig2_report_has_points_and_metrics() {
        let r = quick_report("fig2");
        assert!(r.rows.len() >= 8);
        assert!(r.notes.iter().any(|n| n.contains("STREAM")));
        assert!(r.notes.iter().any(|n| n.contains("paper reference")));
    }

    #[test]
    fn table1_quick_covers_two_platforms() {
        let r = quick_report("table1");
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.headers.len(), r.rows[0].len());
    }
}
