//! Job setup for the MPL baseline.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use spsim::{MachineConfig, NodeId, VBarrier, VClock, VDur, DEFAULT_ESCAPE};
use spswitch::Network;

use crate::context::{MplContext, MplMode};
use crate::engine::MplEngine;
use crate::wire::MplBody;

/// Collective u64 exchange board (utility for tests and GA).
pub(crate) struct MplExchange {
    slots: Mutex<Vec<u64>>,
    barrier: VBarrier,
}

impl MplExchange {
    fn new(n: usize, cost: VDur, escape: Duration) -> Self {
        MplExchange {
            slots: Mutex::new(vec![0; n]),
            barrier: VBarrier::new(n, cost, escape),
        }
    }

    pub(crate) fn exchange(&self, clock: &VClock, me: NodeId, value: u64) -> Vec<u64> {
        self.slots.lock()[me] = value;
        self.barrier.wait(clock);
        let out = self.slots.lock().clone();
        self.barrier.wait(clock);
        out
    }
}

fn barrier_cost(cfg: &MachineConfig, n: usize) -> VDur {
    let rounds = (usize::BITS - (n.max(2) - 1).leading_zeros()) as u64;
    (cfg.fabric_latency + VDur::from_us(15)) * rounds
}

/// Builder/entry point for an MPL job.
pub struct MplWorld;

impl MplWorld {
    /// Create an `n`-task MPL job over a fresh simulated switch.
    pub fn init(n: usize, cfg: MachineConfig, mode: MplMode) -> Vec<MplContext> {
        Self::init_seeded(n, cfg, mode, 0x3B3A_CA5E)
    }

    /// As [`MplWorld::init`] with an explicit route/drop seed.
    pub fn init_seeded(n: usize, cfg: MachineConfig, mode: MplMode, seed: u64) -> Vec<MplContext> {
        Self::init_full(n, cfg, mode, seed, DEFAULT_ESCAPE)
    }

    /// Full-control init (short `escape` for deadlock tests).
    pub fn init_full(
        n: usize,
        cfg: MachineConfig,
        mode: MplMode,
        seed: u64,
        escape: Duration,
    ) -> Vec<MplContext> {
        let cfg = Arc::new(cfg);
        let net: Network<MplBody> = Network::new(n, Arc::clone(&cfg), seed);
        let bcost = barrier_cost(&cfg, n);
        let barrier = VBarrier::new(n, bcost, escape);
        let exchange = Arc::new(MplExchange::new(n, bcost, escape));
        net.into_adapters()
            .into_iter()
            .map(|ad| {
                let engine = MplEngine::new(ad, mode, escape);
                let d = Arc::clone(&engine);
                let dispatcher = spsim::spawn_service(format!("mpl-disp-{}", d.id()), move || {
                    d.dispatcher_loop()
                });
                MplContext {
                    engine,
                    dispatcher: Some(dispatcher),
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
    fn init_builds_contexts() {
        let ctxs = MplWorld::init(4, MachineConfig::default(), MplMode::Polling);
        for (i, c) in ctxs.iter().enumerate() {
            assert_eq!(c.id(), i);
            assert_eq!(c.tasks(), 4);
        }
    }
}
