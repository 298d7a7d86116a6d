//! An executable queueing model of a CXL memory expander.

use mess_types::{
    AccessKind, Bandwidth, Completion, CompletionQueue, Cycle, Frequency, IssueOutcome, Latency,
    MemoryBackend, MemoryStats, Request, CACHE_LINE_BYTES,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration of the CXL expander model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CxlExpanderConfig {
    /// One-direction link bandwidth (CXL 2.0 ×8 over PCIe 5.0 carries ~25 GB/s of usable
    /// `CXL.mem` payload per direction once protocol overhead is accounted for).
    pub link_bandwidth_per_direction: Bandwidth,
    /// Round-trip latency of the link + expander controller, added to every access.
    pub device_latency: Latency,
    /// Bandwidth of the DDR5 DIMM behind the expander's memory controller.
    pub backend_bandwidth: Bandwidth,
    /// Request-queue depth inside the expander (per direction).
    pub queue_depth: usize,
    /// CPU clock used for the [`MemoryBackend::tick`] clock domain.
    pub cpu_frequency: Frequency,
}

impl CxlExpanderConfig {
    /// The device studied in the paper: CXL 2.0 ×8 lanes, one DDR5-5600 DIMM, 43.6 GB/s peak.
    pub fn paper_device(cpu_frequency: Frequency) -> Self {
        CxlExpanderConfig {
            link_bandwidth_per_direction: Bandwidth::from_gbs(25.0),
            device_latency: Latency::from_ns(210.0),
            backend_bandwidth: Bandwidth::from_gbs(44.8),
            queue_depth: 64,
            cpu_frequency,
        }
    }

    /// Maximum theoretical `CXL.mem` bandwidth for balanced traffic (both directions busy,
    /// limited by the DDR5 backend).
    pub fn theoretical_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_gbs(
            (self.link_bandwidth_per_direction.as_gbs() * 2.0).min(self.backend_bandwidth.as_gbs()),
        )
    }
}

/// A queueing model of the CXL expander: one server per link direction plus a shared DDR5
/// backend server.
#[derive(Debug)]
pub struct CxlExpanderModel {
    config: CxlExpanderConfig,
    name: String,
    now: Cycle,
    read_link_free: u64,
    write_link_free: u64,
    backend_free: u64,
    read_service: u64,
    write_service: u64,
    backend_service: u64,
    device_cycles: u64,
    /// Link-departure times of requests still occupying the read-direction queue.
    read_queue: VecDeque<u64>,
    /// Link-departure times of requests still occupying the write-direction queue.
    write_queue: VecDeque<u64>,
    queue: CompletionQueue,
    stats: MemoryStats,
}

impl CxlExpanderModel {
    /// Builds the expander model.
    pub fn new(config: CxlExpanderConfig) -> Self {
        let per_line = |bw: Bandwidth| -> u64 {
            Latency::from_ns(CACHE_LINE_BYTES as f64 / bw.as_gbs())
                .to_cycles(config.cpu_frequency)
                .as_u64()
                .max(1)
        };
        CxlExpanderModel {
            name: "cxl-expander".to_string(),
            now: Cycle::ZERO,
            read_link_free: 0,
            write_link_free: 0,
            backend_free: 0,
            read_service: per_line(config.link_bandwidth_per_direction),
            write_service: per_line(config.link_bandwidth_per_direction),
            backend_service: per_line(config.backend_bandwidth),
            device_cycles: config
                .device_latency
                .to_cycles(config.cpu_frequency)
                .as_u64()
                .max(1),
            read_queue: VecDeque::new(),
            write_queue: VecDeque::new(),
            queue: CompletionQueue::new(),
            stats: MemoryStats::default(),
            config,
        }
    }

    /// The configuration of this model.
    pub fn config(&self) -> &CxlExpanderConfig {
        &self.config
    }
}

impl CxlExpanderModel {
    /// Accepts one request, or returns `false` when its link direction's queue is full.
    fn accept(&mut self, request: &Request) -> bool {
        let issue = request.issue_cycle.max(self.now).as_u64();
        let (queue, link_free, link_service) = match request.kind {
            AccessKind::Read => (
                &mut self.read_queue,
                &mut self.read_link_free,
                self.read_service,
            ),
            AccessKind::Write => (
                &mut self.write_queue,
                &mut self.write_link_free,
                self.write_service,
            ),
        };
        if queue.len() >= self.config.queue_depth {
            return false;
        }
        // The request occupies its link direction, then the shared DDR5 backend.
        let link_start = (*link_free).max(issue);
        *link_free = link_start + link_service;
        queue.push_back(*link_free);
        let backend_start = self.backend_free.max(*link_free);
        self.backend_free = backend_start + self.backend_service;
        let complete = self.backend_free + self.device_cycles;

        self.queue.schedule(Completion {
            id: request.id,
            addr: request.addr,
            kind: request.kind,
            issue_cycle: request.issue_cycle,
            complete_cycle: Cycle::new(complete),
            core: request.core,
        });
        true
    }
}

impl MemoryBackend for CxlExpanderModel {
    fn tick(&mut self, now: Cycle) {
        if now > self.now {
            self.now = now;
        }
        // Queue entries retire once their request has departed over the link.
        let cycle = self.now.as_u64();
        while self.read_queue.front().is_some_and(|&t| t <= cycle) {
            self.read_queue.pop_front();
        }
        while self.write_queue.front().is_some_and(|&t| t <= cycle) {
            self.write_queue.pop_front();
        }
    }

    fn issue(&mut self, batch: &[Request]) -> IssueOutcome {
        for (i, request) in batch.iter().enumerate() {
            if !self.accept(request) {
                self.stats.record_rejection();
                return IssueOutcome { accepted: i };
            }
        }
        IssueOutcome::all(batch.len())
    }

    fn drain_completed(&mut self, out: &mut Vec<Completion>) -> usize {
        self.queue.drain_due(self.now, &mut self.stats, out)
    }

    fn next_event(&self) -> Option<Cycle> {
        // A completion becomes drainable, or a link-direction queue entry departs and frees
        // a slot for issuers waiting out back-pressure.
        let now = self.now.as_u64();
        let mut next = self.queue.next_ready().map(|c| c.as_u64());
        for departure in [self.read_queue.front(), self.write_queue.front()]
            .into_iter()
            .flatten()
        {
            if *departure > now {
                next = Some(next.map_or(*departure, |n| n.min(*departure)));
            }
        }
        next.map(Cycle::new)
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn stats(&self) -> MemoryStats {
        self.stats
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A closed-loop driver: keeps `mlp` requests in flight with the given read fraction and
    /// returns the sustained bandwidth and average latency.
    fn drive_closed_loop(
        model: &mut CxlExpanderModel,
        mlp: usize,
        total_ops: u64,
        read_fraction: f64,
    ) -> (Bandwidth, Latency) {
        let freq = model.config.cpu_frequency;
        let mut issued = 0u64;
        let mut completed = 0u64;
        let mut now = 0u64;
        let mut in_flight = 0usize;
        let mut out = Vec::new();
        let mut lat_sum = 0u64;
        let mut read_accum = 0.0f64;
        let mut deferred: VecDeque<AccessKind> = VecDeque::new();
        while completed < total_ops && now < 500_000_000 {
            model.tick(Cycle::new(now));
            out.clear();
            model.drain_completed(&mut out);
            for c in &out {
                completed += 1;
                in_flight -= 1;
                lat_sum += c.latency().as_u64();
            }
            while in_flight < mlp && issued < total_ops {
                let kind = if let Some(k) = deferred.pop_front() {
                    k
                } else {
                    read_accum += read_fraction;
                    if read_accum >= 1.0 {
                        read_accum -= 1.0;
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    }
                };
                let req = Request {
                    id: mess_types::RequestId(issued),
                    addr: issued * CACHE_LINE_BYTES,
                    kind,
                    issue_cycle: Cycle::new(now),
                    core: 0,
                };
                if model.try_enqueue(req).is_ok() {
                    issued += 1;
                    in_flight += 1;
                } else {
                    deferred.push_back(kind);
                    break;
                }
            }
            // v2 protocol: nothing can change until the expander's next event (a completion or
            // a link-queue departure), so jump straight to it instead of ticking every cycle.
            now = model
                .next_event()
                .map_or(now + 1, |c| c.as_u64())
                .max(now + 1);
        }
        let elapsed = Cycle::new(now).to_latency(freq);
        let bw = Bandwidth::from_bytes_over(
            mess_types::Bytes::new(completed * CACHE_LINE_BYTES),
            elapsed,
        );
        let lat = Cycle::new(lat_sum / completed.max(1)).to_latency(freq);
        (bw, lat)
    }

    fn model() -> CxlExpanderModel {
        CxlExpanderModel::new(CxlExpanderConfig::paper_device(Frequency::from_ghz(2.0)))
    }

    #[test]
    fn theoretical_bandwidth_is_duplex_limited() {
        let cfg = CxlExpanderConfig::paper_device(Frequency::from_ghz(2.0));
        let bw = cfg.theoretical_bandwidth().as_gbs();
        assert!(bw > 40.0 && bw < 51.0, "theoretical {bw}");
    }

    #[test]
    fn unloaded_latency_is_hundreds_of_nanoseconds() {
        let mut m = model();
        let (_, lat) = drive_closed_loop(&mut m, 1, 200, 1.0);
        assert!(
            lat.as_ns() > 200.0 && lat.as_ns() < 400.0,
            "unloaded CXL latency {lat}"
        );
    }

    #[test]
    fn balanced_traffic_achieves_more_bandwidth_than_one_sided() {
        // MLP must be large enough that the limit is the link/backend, not Little's law:
        // saturating ~44.8 GB/s at ~250 ns needs roughly 200 outstanding lines.
        let mut balanced = model();
        let (bw_balanced, _) = drive_closed_loop(&mut balanced, 384, 60_000, 0.5);
        let mut reads = model();
        let (bw_reads, _) = drive_closed_loop(&mut reads, 384, 60_000, 1.0);
        let mut writes = model();
        let (bw_writes, _) = drive_closed_loop(&mut writes, 384, 60_000, 0.0);
        assert!(
            bw_balanced.as_gbs() > bw_reads.as_gbs() * 1.3,
            "balanced {bw_balanced} vs pure reads {bw_reads}"
        );
        assert!(
            bw_balanced.as_gbs() > bw_writes.as_gbs() * 1.3,
            "balanced {bw_balanced} vs pure writes {bw_writes}"
        );
    }

    #[test]
    fn one_sided_traffic_is_limited_by_one_link_direction() {
        let mut reads = model();
        let (bw_reads, _) = drive_closed_loop(&mut reads, 384, 60_000, 1.0);
        let link = CxlExpanderConfig::paper_device(Frequency::from_ghz(2.0))
            .link_bandwidth_per_direction
            .as_gbs();
        assert!(
            bw_reads.as_gbs() <= link * 1.05,
            "pure reads {bw_reads} must not exceed one direction {link}"
        );
    }

    #[test]
    fn latency_rises_with_load() {
        let mut light = model();
        let (_, lat_light) = drive_closed_loop(&mut light, 4, 5_000, 0.5);
        let mut heavy = model();
        let (_, lat_heavy) = drive_closed_loop(&mut heavy, 512, 60_000, 0.5);
        assert!(
            lat_heavy.as_ns() > lat_light.as_ns() * 1.5,
            "loaded latency {lat_heavy} should clearly exceed unloaded latency {lat_light}"
        );
    }

    #[test]
    fn backpressure_when_queues_full() {
        let mut m = model();
        let mut rejected = false;
        for i in 0..10_000u64 {
            let req = Request::read(i, i * 64, Cycle::ZERO, 0);
            if m.try_enqueue(req).is_err() {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "the expander queue must eventually push back");
    }
}
