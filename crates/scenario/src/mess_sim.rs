//! Paper §V (the Mess memory simulator): checks on the quick `fig10` and `fig11` reports.

mod tests {
    use crate::{cell, quick_report};

    #[test]
    fn fig10_mess_simulator_tracks_its_input_curves() {
        let r = quick_report("fig10");
        assert_eq!(r.rows.len(), 1);
        let (input_unloaded, simulated_unloaded) = (cell(&r, "skylake", 1), cell(&r, "skylake", 2));
        // The simulated unloaded load-to-use latency stays in the neighbourhood of the input
        // curves (the CPU model adds its on-chip component back on top).
        assert!(
            (simulated_unloaded - input_unloaded).abs() / input_unloaded < 0.45,
            "unloaded {simulated_unloaded} vs input {input_unloaded}"
        );
        let bw_err = cell(&r, "skylake", 5);
        assert!(bw_err < 60.0, "bandwidth error {bw_err}%");
    }

    #[test]
    fn fig11_mess_beats_the_fixed_latency_model() {
        let r = quick_report("fig11");
        let last = r.headers.len() - 1;
        let (fixed, mess) = (cell(&r, "fixed-latency", last), cell(&r, "mess", last));
        assert!(
            mess <= fixed + 1e-9,
            "the Mess model must not be less accurate than fixed latency: {mess}% vs {fixed}%"
        );
    }
}
