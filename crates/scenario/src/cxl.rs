//! Paper §VI (CXL memory expanders and remote sockets): checks on the quick `fig14` and
//! `fig18` reports.

mod tests {
    use crate::{cell, quick_report};

    #[test]
    fn fig14_ariane_host_cannot_saturate_the_cxl_device() {
        let r = quick_report("fig14");
        let (skylake, ariane) = (cell(&r, "skylake", 2), cell(&r, "openpiton-ariane", 2));
        assert!(
            ariane < skylake,
            "the 2-MSHR in-order host must reach less CXL bandwidth: {ariane} vs {skylake}"
        );
    }

    #[test]
    fn fig18_high_bandwidth_workload_prefers_the_remote_socket() {
        let r = quick_report("fig18");
        assert_eq!(r.rows.len(), 2);
        let last = r.headers.len() - 1;
        let (lbm, perlbench) = (cell(&r, "lbm", last), cell(&r, "perlbench", last));
        assert!(
            lbm > perlbench,
            "the bandwidth-bound benchmark must benefit more from the remote socket: lbm {lbm}% vs perlbench {perlbench}%"
        );
    }
}
