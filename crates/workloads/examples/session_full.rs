//! Full-scale session-store driver (also the footprint probe).
use polar_runtime::RandomizeMode;
use polar_workloads::session_store::{run_session_store, SessionConfig};

fn main() {
    let threads: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let sessions: u64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(1_048_576);
    let capacity: usize = std::env::args().nth(3).and_then(|s| s.parse().ok()).unwrap_or(512 << 20);
    let cfg = SessionConfig {
        threads,
        sessions,
        ops_per_thread: 400_000 / threads.max(1),
        heap_capacity: capacity,
        ..Default::default()
    };
    let r = run_session_store(RandomizeMode::per_allocation(), cfg);
    println!(
        "threads={} live={} ops={} ops/s={:.0} p50={}ns p99={}ns p999={}ns meta/live={:.1}B \
         (counted) uncounted/live={:.1}B heap/live={:.1}B frag={:.3} maghit={:.4} elapsed={:?}",
        threads, r.live_objects, r.ops, r.ops_per_sec, r.p50_ns, r.p99_ns, r.p999_ns,
        r.metadata_bytes_per_live, r.uncounted_bytes_per_live, r.heap_bytes_per_live,
        r.fragmentation, r.magazine_hit_rate, r.elapsed
    );
}
