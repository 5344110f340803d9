//! `fleet_sim_k90`: the simulator's events-per-second headline. One
//! operation builds the 10 125-node fleet (untimed) and runs it (timed).

use crate::harness::{Mode, SliceOut, Workload};
use crate::probe::Probe;
use crate::spans::Tracer;
use crate::stats;
use dust::prelude::*;
use std::time::Instant;

const K: usize = 90;
const DURATION_MS: u64 = 10_000;
/// About 0.22 s a run, so eight make a slice of about two seconds.
const OPS_PER_SLICE: usize = 8;
/// Runs during set-up, so that one set-up takes more than a second.
const WARMUP_OPS: usize = 4;

/// Profiler scopes reported as per-layer metrics, per run.
const PHASES: &[(&str, &str)] = &[
    ("sim.telemetry_batch", "sim.telemetry_batch_ms"),
    ("sim.resource_walk", "sim.resource_walk_ms"),
    ("proto.placement_round", "sim.placement_round_ms"),
    ("proto.stat_ingest", "sim.stat_ingest_ms"),
];

/// What every run of one seed must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    events: u64,
    peak_queue: u64,
    points: u64,
}

fn shape(report: &SimReport) -> Shape {
    let fed = &report.federation;
    let points =
        fed.nodes().iter().filter_map(|&n| fed.store(n)).map(|db| db.point_count() as u64).sum();
    Shape { events: report.events_processed, peak_queue: report.peak_queue_len as u64, points }
}

pub struct Fleet {
    seed: u64,
    expect: Shape,
}

impl Fleet {
    pub fn setup(seed: u64) -> Fleet {
        let mut expect = None;
        for _ in 0..WARMUP_OPS {
            let got = shape(
                &scale_fleet_sim_on(K, DURATION_MS, seed, ObsHandle::disabled(), EngineKind::Event)
                    .run(),
            );
            assert_eq!(
                *expect.get_or_insert(got),
                got,
                "the simulator is not deterministic per seed"
            );
        }
        Fleet { seed, expect: expect.expect("at least one warm-up run") }
    }
}

impl Workload for Fleet {
    fn unit(&self) -> &'static str {
        "sim events"
    }

    fn units_per_op(&self) -> u64 {
        self.expect.events
    }

    fn traced_cycle(&self) -> &'static [Mode] {
        &[Mode::Plain, Mode::Traced, Mode::Profiled]
    }

    fn slice(&mut self, mode: Mode, tr: &mut Tracer, probe: &mut Probe) -> SliceOut {
        let mut out = SliceOut::default();
        let mut phase_ms: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
        for _ in 0..OPS_PER_SLICE {
            probe.pulse();
            tr.next_op();
            let obs = if mode == Mode::Profiled {
                let obs = ObsHandle::recording(self.seed);
                obs.enable_profiling();
                obs
            } else {
                ObsHandle::disabled()
            };
            let s = tr.enter("sim.build");
            let mut sim =
                scale_fleet_sim_on(K, DURATION_MS, self.seed, obs.clone(), EngineKind::Event);
            tr.exit(s);

            let t0 = Instant::now();
            let op = tr.enter("op");
            let s = tr.enter("sim.run");
            let report = sim.run();
            tr.exit(s);
            tr.exit(op);
            out.lat_ns.push(t0.elapsed().as_nanos() as u64);

            let got = shape(&report);
            out.failed += u64::from(got != self.expect);
            out.units += got.events;
            if let Some(profile) = obs.profile() {
                let by_name = profile.phase_self_ns();
                for (slot, (scope, _)) in PHASES.iter().enumerate() {
                    let ns = by_name.iter().find(|(n, _)| n == scope).map_or(0, |(_, ns)| *ns);
                    phase_ms[slot].push(ns as f64 / 1e6);
                }
            }
        }
        out.work = vec![
            ("events_per_run", self.expect.events),
            ("peak_queue_len", self.expect.peak_queue),
            ("federation_points", self.expect.points),
        ];
        if mode != Mode::Plain {
            out.layers = vec![
                ("sim.events_per_run", self.expect.events as f64),
                ("sim.peak_queue_len", self.expect.peak_queue as f64),
                ("sim.federation_points", self.expect.points as f64),
            ];
            for (slot, (_, metric)) in PHASES.iter().enumerate() {
                if !phase_ms[slot].is_empty() {
                    out.layers.push((metric, stats::median(&phase_ms[slot])));
                }
            }
        }
        out
    }
}
