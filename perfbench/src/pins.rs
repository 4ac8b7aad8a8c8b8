//! Pinned outcomes: the batch digest (see
//! [`batch_digest`](crate::workloads::batch_digest)) of each workload's
//! references, for the default seed (1) and a held-out seed (7). The
//! simulator is deterministic, so these change only with a change in
//! simulated behaviour, and only with a reason stated in `CHANGES.md`.

/// `(workload, seed, batch fingerprint, batch events)`.
pub const PINS: &[(&str, u64, u64, u64)] = &[
    ("cee-hadoop-incast", 1, 0x6ed8_4dfa_7773_3f21, 12_980_609),
    ("cee-hadoop-incast", 7, 0x44e2_e869_6b88_a6d2, 13_750_818),
    ("ib-hpc-dmodk", 1, 0xb661_849d_fb40_5b09, 10_368_385),
    ("ib-hpc-dmodk", 7, 0xd168_be80_2ea9_dcd5, 10_673_429),
    ("cee-websearch-timely", 1, 0xde4d_4a91_d667_bfdb, 15_993_769),
    ("cee-websearch-timely", 7, 0x728c_24fc_7506_9b38, 15_384_223),
];

/// The pinned `(fingerprint, events)` of `workload` at `seed`, if any.
pub fn pinned(workload: &str, seed: u64) -> Option<(u64, u64)> {
    PINS.iter()
        .find(|p| p.0 == workload && p.1 == seed)
        .map(|p| (p.2, p.3))
}
