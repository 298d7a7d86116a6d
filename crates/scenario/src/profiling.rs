//! Paper §VII (application profiling): checks on the quick `fig15` report.

mod tests {
    use crate::quick_report;

    #[test]
    fn fig15_report_summarises_the_timeline() {
        let r = quick_report("fig15");
        assert!(!r.rows.is_empty());
        assert!(r.notes.iter().any(|n| n.contains("mean stress")));
    }
}
