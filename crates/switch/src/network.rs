//! Building a switch: one [`Adapter`] per node over shared ports.

use std::sync::Arc;

use spsim::trace::Tracer;
use spsim::{DeliveryPath, DeliveryQueue, DeliveryRings, MachineConfig, SimRng, TimedQueue};

use crate::adapter::{Adapter, AdapterStats, Port};

/// A freshly wired switch: `n` adapters sharing one fabric model.
pub struct Network<M> {
    adapters: Vec<Adapter<M>>,
}

impl<M: Send + Clone + 'static> Network<M> {
    /// Wire up `n` nodes with the given cost model. `seed` drives route
    /// selection and drop injection deterministically. The world records
    /// trace events into the sink of the [`spsim::trace::session`] the
    /// calling thread holds, if any; its adapters and receive queues carry
    /// that route, so deadlock reports show this world's event tail on
    /// whichever thread they fire.
    pub fn new(n: usize, cfg: Arc<MachineConfig>, seed: u64) -> Self {
        assert!(n > 0, "a switch needs at least one node");
        assert!(cfg.num_routes > 0, "need at least one route");
        // Decided once: this world records only if the thread building it
        // holds a trace session.
        let tracer = Tracer::for_new_world();
        let ports: Arc<Vec<Port<M>>> = Arc::new(
            (0..n)
                .map(|_| Port {
                    ejection: crate::link::Link::new(),
                    // One delivery lane per source node: the per-(src,dst)
                    // flow lock makes each source a single producer into its
                    // lane, which is what lets the ring path skip the heap
                    // lock on push (DESIGN §4.2).
                    rx: match cfg.delivery_path {
                        DeliveryPath::Rings => DeliveryQueue::Rings(
                            DeliveryRings::new(n, cfg.delivery_ring_capacity)
                                .with_tracer(tracer.clone()),
                        ),
                        DeliveryPath::Heap => {
                            DeliveryQueue::Heap(TimedQueue::new().with_tracer(tracer.clone()))
                        }
                    },
                    stats: AdapterStats::default(),
                })
                .collect(),
        );
        let mut root = SimRng::new(seed);
        let adapters = (0..n)
            .map(|id| {
                Adapter::new(
                    id,
                    Arc::clone(&cfg),
                    Arc::clone(&ports),
                    root.split(),
                    tracer.clone(),
                )
            })
            .collect();
        Network { adapters }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.adapters.len()
    }

    /// Take ownership of the per-node adapters (rank order), e.g. to hand
    /// one to each node thread via `spsim::run_spmd_with`.
    pub fn into_adapters(self) -> Vec<Adapter<M>> {
        self.adapters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsim::{run_spmd_with, VTime};

    #[test]
    fn builds_n_adapters_with_ids() {
        let net: Network<()> = Network::new(5, Arc::new(MachineConfig::default()), 0);
        assert_eq!(net.nodes(), 5);
        let ads = net.into_adapters();
        for (i, a) in ads.iter().enumerate() {
            assert_eq!(a.id(), i);
            assert_eq!(a.nodes(), 5);
        }
    }

    #[test]
    fn all_pairs_communicate() {
        let n = 4;
        let net: Network<(usize, usize)> = Network::new(n, Arc::new(MachineConfig::default()), 7);
        let results = run_spmd_with(net.into_adapters(), |rank, ad| {
            // everyone sends one packet to everyone else, then receives n-1
            for dst in 0..n {
                if dst != rank {
                    ad.send_at(VTime::ZERO, dst, 64, (rank, dst));
                }
            }
            let mut sources = Vec::new();
            for _ in 0..n - 1 {
                let p = ad.rx().recv_merge(ad.clock()).unwrap();
                assert_eq!(p.item.body.1, rank, "misrouted packet");
                sources.push(p.item.body.0);
            }
            sources.sort_unstable();
            sources
        });
        for (rank, sources) in results.iter().enumerate() {
            let expected: Vec<usize> = (0..n).filter(|&s| s != rank).collect();
            assert_eq!(sources, &expected);
        }
    }

    #[test]
    fn same_seed_same_timings() {
        let run = || {
            let net: Network<u32> = Network::new(2, Arc::new(MachineConfig::default()), 42);
            let ads = net.into_adapters();
            (0..50)
                .map(|i| ads[0].send_at(VTime::ZERO, 1, 256, i).delivered_at)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seed_different_routes() {
        let routes = |seed: u64| {
            let net: Network<u32> = Network::new(2, Arc::new(MachineConfig::default()), seed);
            let ads = net.into_adapters();
            (0..32)
                .map(|i| {
                    ads[0].send_at(VTime::ZERO, 1, 64, i);
                    let p = ads[1].rx().recv_merge(ads[1].clock()).unwrap();
                    p.item.route
                })
                .collect::<Vec<_>>()
        };
        assert_ne!(routes(1), routes(2));
    }
}
