//! Layer probes: short timed loops over the public structures of
//! `cohesion-sim`, `cohesion-mem`, `cohesion-protocol` and
//! `cohesion-service`, sized to the workload that reports them. Each
//! probe reports the median of several batches, per operation.

use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use cohesion_bench::jsonv;
use cohesion_kernels::Scale;
use cohesion_mem::addr::{Addr, AddressMap, LineAddr};
use cohesion_mem::cache::{Cache, CacheConfig};
use cohesion_mem::dram::{Dram, DramConfig};
use cohesion_mem::mainmem::MainMemory;
use cohesion_protocol::directory::{
    DirCapacity, DirEntry, DirectoryBank, DirectoryConfig, EntryClass,
};
use cohesion_protocol::region::FineTable;
use cohesion_protocol::sharers::SharerTracking;
use cohesion_service::cache::{CacheKey, RunCache};
use cohesion_service::request::RunRequest;
use cohesion_service::wire::{read_frame, write_frame, MsgType};
use cohesion_sim::crew::Crew;
use cohesion_sim::event::EventQueue;
use cohesion_sim::ids::ClusterId;
use cohesion_sim::shard::LaneQueues;

use crate::stats::{median, Report};

/// The machine shape a workload exercises, which sizes the probes.
pub struct Shape {
    /// Simulated clusters (one lane each).
    pub clusters: u32,
    /// Event-queue depth observed in the workload (`events/max_pending`).
    pub queue_depth: usize,
    /// Crew workers the workload's shard count resolves to (at least 2,
    /// so the probe always measures a real dispatch).
    pub crew_workers: usize,
    /// A report document of the size the workload produces.
    pub doc_bytes: usize,
}

const BATCHES: usize = 5;

/// Runs `op` `n` times per batch; returns the median ns per operation.
fn per_op_ns(n: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut xs = Vec::with_capacity(BATCHES);
    let mut i = 0u64;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..n {
            op(i);
            i += 1;
        }
        xs.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    median(&xs)
}

/// Spreads probe indices over line addresses without short-period aliasing.
fn scatter(i: u64) -> LineAddr {
    LineAddr((i.wrapping_mul(0x9E37_79B9) & 0x00FF_FFFF) as u32)
}

pub fn run_all(shape: &Shape, out: &mut Report) {
    sim_probes(shape, out);
    mem_probes(out);
    protocol_probes(shape, out);
    service_probes(shape, out);
}

fn sim_probes(shape: &Shape, out: &mut Report) {
    let depth = shape.queue_depth.max(1);
    let mut q = EventQueue::<u32>::new();
    for i in 0..depth {
        q.schedule(i as u64, i as u32);
    }
    // Steady state at the observed depth: every pop re-schedules.
    let ns = per_op_ns(200_000, |i| {
        let (at, e) = q.pop().expect("queue holds depth events");
        q.schedule(at + 64 + (i % 7), black_box(e));
    });
    out.put("sim.event_queue_ns", ns, "ns");

    let lanes = shape.clusters.max(1) as usize;
    let mut lq = LaneQueues::<u32>::new(lanes);
    for i in 0..depth {
        lq.schedule(i % lanes, (i / lanes) as u64, i as u32);
    }
    let mut batch = Vec::new();
    let ns = per_op_ns(20_000, |_| {
        batch.clear();
        if let Some(start) = lq.pop_window(64, &mut batch) {
            for ev in &batch {
                let lane = ev.payload as usize % lanes;
                lq.schedule(lane, start + 64 + (ev.payload % 5) as u64, ev.payload);
            }
        }
    });
    out.put("sim.pop_window_ns", ns, "ns");

    let crew = Crew::new(shape.crew_workers.max(2));
    let workers = crew.workers();
    let ns = per_op_ns(2_000, |_| {
        let mut fns: Vec<fn()> = vec![|| {}; workers];
        let mut jobs: Vec<&mut (dyn FnMut() + Send)> = fns
            .iter_mut()
            .map(|f| f as &mut (dyn FnMut() + Send))
            .collect();
        crew.run(&mut jobs);
    });
    out.put("sim.crew_dispatch_us", ns / 1000.0, "us");
}

fn mem_probes(out: &mut Report) {
    // The scaled machines' per-cluster L2 (64 KB, 16-way).
    let cfg = CacheConfig::new(64 * 1024, 16);
    let lines = u64::from(cfg.lines());
    let mut l2 = Cache::new(cfg);
    for i in 0..lines {
        l2.allocate(LineAddr(i as u32));
    }
    let ns = per_op_ns(500_000, |i| {
        black_box(l2.access(LineAddr((i % lines) as u32)).is_some());
    });
    out.put("mem.l2_hit_ns", ns, "ns");
    let ns = per_op_ns(200_000, |i| {
        let (_, victim) = l2.allocate(LineAddr((lines + i) as u32));
        black_box(victim.is_some());
    });
    out.put("mem.l2_miss_evict_ns", ns, "ns");

    let mut dram = Dram::new(DramConfig::gddr5(), AddressMap::new(32, 8));
    let mut now = 0u64;
    let ns = per_op_ns(200_000, |i| {
        now = dram.access(now, scatter(i / 4)).max(now + 1);
    });
    out.put("mem.dram_access_ns", ns, "ns");
}

fn protocol_probes(shape: &Shape, out: &mut Report) {
    // The realistic sparse directory: 16K entries, 128 ways per bank.
    let clusters = shape.clusters.max(2);
    let entries = 16 * 1024u64;
    let cfg = DirectoryConfig {
        capacity: DirCapacity::Finite {
            entries: entries as u32,
            ways: 128,
        },
        tracking: SharerTracking::FullMap,
        clusters,
    };
    let entry = DirEntry::shared(
        ClusterId(0),
        SharerTracking::FullMap,
        clusters,
        EntryClass::HeapGlobal,
    );
    let mut dir = DirectoryBank::new(cfg);
    for i in 0..entries {
        dir.insert(i, LineAddr(i as u32), entry.clone());
    }
    let ns = per_op_ns(500_000, |i| {
        black_box(dir.lookup(LineAddr((i % entries) as u32)).is_some());
    });
    out.put("protocol.dir_lookup_ns", ns, "ns");
    let mut now = entries;
    let ns = per_op_ns(100_000, |i| {
        now += 1;
        black_box(
            dir.insert(now, LineAddr((entries + i) as u32), entry.clone())
                .is_some(),
        );
    });
    out.put("protocol.dir_insert_evict_ns", ns, "ns");

    let table = FineTable::new(Addr(0x4000_0000), AddressMap::new(32, 8));
    let mut mem = MainMemory::new();
    let slots: Vec<_> = (0..4096u64).map(|i| table.slot_of(scatter(i))).collect();
    for s in slots.iter().step_by(3) {
        mem.write_word(s.word, 1 << s.bit);
    }
    let ns = per_op_ns(500_000, |i| {
        black_box(table.domain_at(&mem, slots[(i % 4096) as usize]));
    });
    out.put("protocol.fine_domain_at_ns", ns, "ns");
}

fn service_probes(shape: &Shape, out: &mut Report) {
    let req = |seed: u64| RunRequest {
        kernel: "sobel".into(),
        scale: Scale::Tiny,
        cores: 16,
        point: "cohesion".into(),
        seed,
        shards: 1,
    };
    let reqs: Vec<RunRequest> = (0..64).map(req).collect();
    let ns = per_op_ns(100_000, |i| {
        black_box(CacheKey::for_request(&reqs[(i % 64) as usize]));
    });
    out.put("svc.cache_key_ns", ns, "ns");

    let doc = "x".repeat(shape.doc_bytes.max(1));
    let cache = RunCache::in_memory(4096);
    let keys: Vec<CacheKey> = (0..256).map(|s| CacheKey::for_request(&req(s))).collect();
    for k in &keys {
        cache.insert(*k, doc.clone());
    }
    let ns = per_op_ns(200_000, |i| {
        black_box(cache.get(keys[(i % 256) as usize]).is_some());
    });
    out.put("svc.cache_get_ns", ns, "ns");

    let mut buf = Vec::with_capacity(doc.len() + 16);
    let ns = per_op_ns(2_000, |_| {
        buf.clear();
        write_frame(&mut buf, MsgType::Report, &doc).expect("frame fits");
        let f = read_frame(&mut Cursor::new(&buf)).expect("frame decodes");
        black_box(f.payload.len());
    });
    out.put("svc.frame_roundtrip_us", ns / 1000.0, "us");

    let payload = req(7).to_json();
    let ns = per_op_ns(20_000, |_| {
        let v = jsonv::parse(&payload).expect("payload parses");
        black_box(RunRequest::from_json(&v).expect("request decodes"));
    });
    out.put("svc.request_parse_us", ns / 1000.0, "us");
}
