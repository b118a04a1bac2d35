//! Results digest: a stable hash over the simulated results a speed-only
//! change must keep bit-identical, checked against the committed table in
//! `digests.txt`.

use std::fmt::Write as _;

use crisp_sim::SimResult;

use crate::workload::Workload;

/// Expected digests: `<workload> <orbit step> <digest>` per line.
const COMMITTED: &str = include_str!("../digests.txt");

/// FNV-1a over the canonical text of the results: cycles and instructions
/// per stream, L2 hits and misses per stream × data class, DRAM bytes,
/// the stall breakdown and every kernel's span.
pub fn digest(r: &SimResult) -> u64 {
    let mut s = String::new();
    let _ = writeln!(s, "cycles {}", r.cycles);
    for (id, sr) in &r.per_stream {
        let st = &sr.stats;
        let _ = writeln!(
            s,
            "stream {} start {} finish {} instrs {} ctas {} kernels {} dram {}",
            id.0,
            st.start_cycle,
            st.finish_cycle,
            st.instructions,
            st.ctas,
            st.kernels,
            sr.dram_bytes
        );
    }
    for ((id, class), c) in r.l2_stats.iter() {
        let _ = writeln!(
            s,
            "l2 {} {:?} hits {} misses {}",
            id.0, class, c.hits, c.misses
        );
    }
    let st = r.stalls();
    let _ = writeln!(
        s,
        "stalls {} {} {} {} {} {} {} {}",
        st.issued,
        st.empty,
        st.blocked,
        st.scoreboard,
        st.mem_pending,
        st.mshr_full,
        st.pipe_busy,
        st.barrier
    );
    for k in &r.kernel_log {
        let _ = writeln!(
            s,
            "kernel {} {} {} {} {}",
            k.stream.0, k.name, k.start_cycle, k.end_cycle, k.ctas
        );
    }
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The committed digest for `w` at orbit step `step`.
pub fn expected(w: Workload, step: u64) -> Option<u64> {
    let key = w.name();
    COMMITTED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(k), Some(st), Some(d)) if k == key && st.parse() == Ok(step) => {
                u64::from_str_radix(d, 16).ok()
            }
            _ => None,
        }
    })
}
