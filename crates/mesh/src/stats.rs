//! Network statistics: communication volume, bisection crossings, latency.

use commsense_des::Time;

use crate::packet::PacketClass;

/// Communication volume broken down by the paper's four classes (Figure 5),
/// plus background cross-traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VolumeBreakdown {
    /// Invalidation and acknowledgement bytes.
    pub invalidates: u64,
    /// Read/write/modify request bytes.
    pub requests: u64,
    /// Header bytes of data-carrying packets.
    pub headers: u64,
    /// Payload bytes.
    pub data: u64,
    /// Background cross-traffic bytes (not application volume).
    pub cross_traffic: u64,
}

impl VolumeBreakdown {
    /// Application communication volume: everything except cross-traffic.
    pub fn app_total(&self) -> u64 {
        self.invalidates + self.requests + self.headers + self.data
    }

    /// Adds a packet's bytes to the breakdown.
    pub fn record(&mut self, class: PacketClass, header_bytes: u32, payload_bytes: u32) {
        match class {
            PacketClass::Invalidate => self.invalidates += (header_bytes + payload_bytes) as u64,
            PacketClass::Request => self.requests += (header_bytes + payload_bytes) as u64,
            PacketClass::Header => self.headers += (header_bytes + payload_bytes) as u64,
            PacketClass::Data => {
                self.headers += header_bytes as u64;
                self.data += payload_bytes as u64;
            }
            PacketClass::CrossTraffic => {
                self.cross_traffic += (header_bytes + payload_bytes) as u64
            }
        }
    }

    /// Value of one class bucket (cross-traffic excluded).
    pub fn class_bytes(&self, class: PacketClass) -> u64 {
        match class {
            PacketClass::Invalidate => self.invalidates,
            PacketClass::Request => self.requests,
            PacketClass::Header => self.headers,
            PacketClass::Data => self.data,
            PacketClass::CrossTraffic => self.cross_traffic,
        }
    }
}

/// Aggregate network statistics for one simulation run.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Volume injected into the network (counted once per packet).
    pub injected: VolumeBreakdown,
    /// Bytes that crossed the bisection cut, by class.
    pub bisection: VolumeBreakdown,
    /// Number of packets injected.
    pub packets_injected: u64,
    /// Number of packets delivered.
    pub packets_delivered: u64,
    /// Sum of end-to-end packet latencies (injection to tail delivery).
    pub latency_sum: Time,
    /// Maximum observed end-to-end packet latency.
    pub latency_max: Time,
    /// Total time packets spent queued waiting for busy links.
    pub link_wait_sum: Time,
    /// Hops that queued for their link instead of starting on arrival;
    /// each is started by exactly one `NetEvent::LinkFree`.
    pub queued_hops: u64,
    /// Times a high-priority packet was served ahead of at least one queued
    /// low-priority packet (priority virtual channel; always 0 under the
    /// baseline variant).
    pub priority_bypasses: u64,
    /// Total queued low-priority packets bypassed across all those events
    /// (the sum of the per-link starvation counters).
    pub low_bypassed: u64,
}

impl NetStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Mean end-to-end latency over delivered packets, if any.
    pub fn mean_latency(&self) -> Option<Time> {
        self.latency_sum
            .as_ps()
            .checked_div(self.packets_delivered)
            .map(Time::from_ps)
    }

    /// Records a delivered packet's latency.
    pub fn record_delivery(&mut self, latency: Time) {
        self.packets_delivered += 1;
        self.latency_sum += latency;
        self.latency_max = self.latency_max.max(latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packets_split_header_and_payload() {
        let mut v = VolumeBreakdown::default();
        v.record(PacketClass::Data, 8, 16);
        assert_eq!(v.headers, 8);
        assert_eq!(v.data, 16);
        assert_eq!(v.app_total(), 24);
    }

    #[test]
    fn request_packets_count_whole() {
        let mut v = VolumeBreakdown::default();
        v.record(PacketClass::Request, 8, 0);
        v.record(PacketClass::Invalidate, 8, 0);
        assert_eq!(v.requests, 8);
        assert_eq!(v.invalidates, 8);
        assert_eq!(v.app_total(), 16);
    }

    #[test]
    fn cross_traffic_excluded_from_app_total() {
        let mut v = VolumeBreakdown::default();
        v.record(PacketClass::CrossTraffic, 8, 56);
        assert_eq!(v.app_total(), 0);
        assert_eq!(v.cross_traffic, 64);
    }

    #[test]
    fn mean_latency() {
        let mut s = NetStats::new();
        assert_eq!(s.mean_latency(), None);
        s.record_delivery(Time::from_ns(100));
        s.record_delivery(Time::from_ns(300));
        assert_eq!(s.mean_latency(), Some(Time::from_ns(200)));
        assert_eq!(s.latency_max, Time::from_ns(300));
    }

    #[test]
    fn class_bytes_lookup() {
        let mut v = VolumeBreakdown::default();
        v.record(PacketClass::Data, 8, 16);
        assert_eq!(v.class_bytes(PacketClass::Header), 8);
        assert_eq!(v.class_bytes(PacketClass::Data), 16);
        assert_eq!(v.class_bytes(PacketClass::Invalidate), 0);
    }
}
