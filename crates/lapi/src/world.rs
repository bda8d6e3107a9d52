//! Job setup: `LAPI_Init` for all tasks at once.
//!
//! A parallel job is created with [`LapiWorld::init`], which wires an
//! `n`-node simulated switch, builds one [`LapiContext`] per task, and
//! starts each task's dispatcher and completion threads. The contexts are
//! then moved into node threads (see `spsim::run_spmd_with`).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use spsim::{MachineConfig, NodeId, VBarrier, VClock, VDur, DEFAULT_ESCAPE};
use spswitch::Network;

use crate::context::{LapiContext, Mode};
use crate::engine::Engine;
use crate::wire::LapiBody;

/// Collective u64 exchange board (the substrate of `LAPI_Address_init`).
pub(crate) struct Exchange {
    slots: Mutex<Vec<u64>>,
    barrier: VBarrier,
}

impl Exchange {
    fn new(n: usize, cost: VDur, escape: Duration) -> Self {
        Exchange {
            slots: Mutex::new(vec![0; n]),
            barrier: VBarrier::new(n, cost, escape),
        }
    }

    pub(crate) fn exchange(&self, clock: &VClock, me: NodeId, value: u64) -> Vec<u64> {
        self.slots.lock()[me] = value;
        self.barrier.wait(clock);
        let out = self.slots.lock().clone();
        // Second phase keeps a fast next exchange from overwriting slots
        // before a slow task has read this round.
        self.barrier.wait(clock);
        out
    }
}

/// Cost model of a job-wide synchronization: a dissemination barrier pays
/// ~log2(n) message latencies.
fn barrier_cost(cfg: &MachineConfig, n: usize) -> VDur {
    let rounds = (usize::BITS - (n.max(2) - 1).leading_zeros()) as u64;
    (cfg.fabric_latency + VDur::from_us(13)) * rounds
}

/// Builder/entry point for a LAPI job.
pub struct LapiWorld;

impl LapiWorld {
    /// `LAPI_Init` for an `n`-task job over a fresh simulated switch.
    /// Returns one context per task, in rank order.
    pub fn init(n: usize, cfg: MachineConfig, mode: Mode) -> Vec<LapiContext> {
        Self::init_seeded(n, cfg, mode, 0x5A17_C0DE)
    }

    /// As [`LapiWorld::init`] with an explicit route/drop seed.
    pub fn init_seeded(n: usize, cfg: MachineConfig, mode: Mode, seed: u64) -> Vec<LapiContext> {
        Self::init_full(n, cfg, mode, seed, DEFAULT_ESCAPE)
    }

    /// Full-control init: `escape` bounds real blocking time before a
    /// simulated deadlock panics (tests of deadlocking programs shrink it).
    pub fn init_full(
        n: usize,
        cfg: MachineConfig,
        mode: Mode,
        seed: u64,
        escape: Duration,
    ) -> Vec<LapiContext> {
        Self::init_ext(n, cfg, mode, seed, escape, 1)
    }

    /// As [`LapiWorld::init_full`] with `completion_threads` completion-
    /// handler threads per node — the §6 "multiple completion handler
    /// threads" extension for SMP nodes (the paper's machine ran one).
    pub fn init_ext(
        n: usize,
        cfg: MachineConfig,
        mode: Mode,
        seed: u64,
        escape: Duration,
        completion_threads: usize,
    ) -> Vec<LapiContext> {
        assert!(
            completion_threads >= 1,
            "need at least one completion thread"
        );
        let cfg = Arc::new(cfg);
        let net: Network<LapiBody> = Network::new(n, Arc::clone(&cfg), seed);
        let bcost = barrier_cost(&cfg, n);
        let barrier = VBarrier::new(n, bcost, escape);
        let exchange = Arc::new(Exchange::new(n, bcost, escape));
        net.into_adapters()
            .into_iter()
            .map(|ad| {
                let engine = Engine::new(ad, mode, escape);
                let d_engine = Arc::clone(&engine);
                let dispatcher =
                    spsim::spawn_service(format!("lapi-disp-{}", d_engine.id()), move || {
                        d_engine.dispatcher_loop()
                    });
                let completion = (0..completion_threads)
                    .map(|k| {
                        let c_engine = Arc::clone(&engine);
                        spsim::spawn_service(
                            format!("lapi-cmpl-{}-{k}", c_engine.id()),
                            move || c_engine.completion_loop(),
                        )
                    })
                    .collect();
                LapiContext {
                    engine,
                    dispatcher: Some(dispatcher),
                    completion,
                    barrier: barrier.clone(),
                    exchange: Arc::clone(&exchange),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_builds_rank_ordered_contexts() {
        let ctxs = LapiWorld::init(3, MachineConfig::default(), Mode::Interrupt);
        for (i, c) in ctxs.iter().enumerate() {
            assert_eq!(c.id(), i);
            assert_eq!(c.tasks(), 3);
        }
    }

    #[test]
    fn barrier_cost_scales_logarithmically() {
        let cfg = MachineConfig::default();
        let c2 = barrier_cost(&cfg, 2);
        let c8 = barrier_cost(&cfg, 8);
        let c512 = barrier_cost(&cfg, 512);
        assert!(c2 < c8 && c8 < c512);
        assert_eq!(c8, c2 * 3);
    }

    #[test]
    fn exchange_returns_everyones_value() {
        let ex = Exchange::new(4, VDur::from_us(1), DEFAULT_ESCAPE);
        let clocks: Vec<VClock> = (0..4).map(|_| VClock::new()).collect();
        let results: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = clocks
                .iter()
                .enumerate()
                .map(|(i, cl)| {
                    let ex = &ex;
                    s.spawn(move || ex.exchange(cl, i, 100 + i as u64))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results {
            assert_eq!(r, &vec![100, 101, 102, 103]);
        }
    }
}
