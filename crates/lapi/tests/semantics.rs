//! End-to-end semantics tests for the LAPI library: the Figure-1 event
//! flow, counter behaviour, fences, active messages under reordering, and
//! the polling/interrupt progress rules.

#![allow(clippy::needless_range_loop)] // index-as-coordinate loops are clearer here

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lapi::{Addr, HdrOutcome, LapiContext, LapiError, LapiWorld, Mode, Qenv, RmwOp, Senv};
use spsim::{run_spmd_with, MachineConfig, VDur};

fn world(n: usize, mode: Mode) -> Vec<LapiContext> {
    LapiWorld::init(n, MachineConfig::default(), mode)
}

#[test]
fn put_deposits_and_signals_all_three_counters() {
    let ctxs = world(2, Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        // Symmetric allocation: same addresses and counter ids everywhere.
        let buf = ctx.alloc(64);
        let tgt_cntr = ctx.new_counter();
        let addrs = ctx.address_init(buf);
        let remotes = ctx.counter_init(&tgt_cntr);
        if rank == 0 {
            let org = ctx.new_counter();
            let cmpl = ctx.new_counter();
            let data = vec![7u8; 64];
            ctx.put(
                1,
                addrs[1],
                &data,
                Some(remotes[1]),
                Some(&org),
                Some(&cmpl),
            )
            .unwrap();
            ctx.waitcntr(&org, 1); // buffer reusable
            ctx.waitcntr(&cmpl, 1); // landed remotely
            assert!(ctx.now().as_us() > 0.0);
        } else {
            ctx.waitcntr(&tgt_cntr, 1); // target-side arrival
            assert_eq!(ctx.mem_read(buf, 64), vec![7u8; 64]);
        }
        ctx.gfence().unwrap();
    });
}

#[test]
fn get_pulls_remote_data() {
    let ctxs = world(2, Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        let src = ctx.alloc(32);
        if rank == 1 {
            ctx.mem_write(src, &[9u8; 32]);
        }
        let addrs = ctx.address_init(src);
        if rank == 0 {
            let got = ctx.get_wait(1, addrs[1], 32).unwrap();
            assert_eq!(got, vec![9u8; 32]);
        }
        ctx.gfence().unwrap();
    });
}

#[test]
fn get_signals_target_counter_when_data_copied_out() {
    let ctxs = world(2, Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        let src = ctx.alloc(16);
        let tcnt = ctx.new_counter();
        let addrs = ctx.address_init(src);
        let remotes = ctx.counter_init(&tcnt);
        if rank == 0 {
            let org_addr = ctx.alloc(16);
            let org = ctx.new_counter();
            ctx.get(1, addrs[1], 16, org_addr, Some(remotes[1]), Some(&org))
                .unwrap();
            ctx.waitcntr(&org, 1);
        } else {
            // §2.3: target sees the get complete when data is copied out.
            ctx.waitcntr(&tcnt, 1);
        }
        ctx.gfence().unwrap();
    });
}

#[test]
fn large_put_spans_many_packets_and_reassembles() {
    let ctxs = world(2, Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        let len = 100_000; // > 100 packets of 976B payload
        let buf = ctx.alloc(len);
        let addrs = ctx.address_init(buf);
        if rank == 0 {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            ctx.put_wait(1, addrs[1], &data).unwrap();
            ctx.gfence().unwrap();
        } else {
            ctx.gfence().unwrap();
            let got = ctx.mem_read(buf, len);
            assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
            // and it really took many packets
            assert!(ctx.stats().packets_dispatched.get() > 100);
        }
    });
}

#[test]
fn zero_length_put_still_signals() {
    let ctxs = world(2, Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        let buf = ctx.alloc(8);
        let tgt = ctx.new_counter();
        let addrs = ctx.address_init(buf);
        let remotes = ctx.counter_init(&tgt);
        if rank == 0 {
            ctx.put(1, addrs[1], &[], Some(remotes[1]), None, None)
                .unwrap();
        } else {
            ctx.waitcntr(&tgt, 1);
        }
        ctx.gfence().unwrap();
    });
}

#[test]
fn amsend_runs_decoupled_handlers() {
    let ctxs = world(2, Mode::Interrupt);
    let hdr_runs = Arc::new(AtomicUsize::new(0));
    let cmpl_runs = Arc::new(AtomicUsize::new(0));
    let hr = Arc::clone(&hdr_runs);
    let cr = Arc::clone(&cmpl_runs);
    run_spmd_with(ctxs, move |rank, ctx| {
        let tgt = ctx.new_counter();
        let remotes = ctx.counter_init(&tgt);
        if rank == 1 {
            let hr = Arc::clone(&hr);
            let cr = Arc::clone(&cr);
            ctx.register_handler(7, move |hctx, info| {
                hr.fetch_add(1, Ordering::SeqCst);
                assert_eq!(info.uhdr, b"hdr-params");
                let buf = hctx.alloc(info.data_len);
                let cr = Arc::clone(&cr);
                HdrOutcome::into_buffer(buf).with_completion(Box::new(move |_c| {
                    cr.fetch_add(1, Ordering::SeqCst);
                }))
            });
        }
        ctx.gfence().unwrap();
        if rank == 0 {
            let cmpl = ctx.new_counter();
            let data = vec![3u8; 5000];
            ctx.amsend(
                1,
                7,
                b"hdr-params",
                &data,
                Some(remotes[1]),
                None,
                Some(&cmpl),
            )
            .unwrap();
            // cmpl_cntr fires only after the completion handler ran (§2.1).
            ctx.waitcntr(&cmpl, 1);
        } else {
            ctx.waitcntr(&tgt, 1);
        }
        ctx.gfence().unwrap();
    });
    assert_eq!(hdr_runs.load(Ordering::SeqCst), 1);
    assert_eq!(cmpl_runs.load(Ordering::SeqCst), 1);
}

#[test]
fn amsend_header_only_message() {
    let ctxs = world(2, Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        let ding = ctx.new_counter();
        let remotes = ctx.counter_init(&ding);
        if rank == 1 {
            ctx.register_handler(1, |_hctx, info| {
                assert_eq!(info.data_len, 0);
                HdrOutcome::none()
            });
        }
        ctx.gfence().unwrap();
        if rank == 0 {
            ctx.amsend(1, 1, b"ping", &[], Some(remotes[1]), None, None)
                .unwrap();
        } else {
            ctx.waitcntr(&ding, 1);
        }
        ctx.gfence().unwrap();
    });
}

#[test]
fn uhdr_size_is_enforced() {
    let ctxs = world(2, Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        if rank == 0 {
            let max = ctx.qenv(Qenv::MaxUhdrSz);
            let too_big = vec![0u8; max + 1];
            let err = ctx
                .amsend(1, 0, &too_big, &[], None, None, None)
                .unwrap_err();
            assert!(matches!(err, LapiError::UhdrTooLarge { .. }));
        }
        ctx.gfence().unwrap();
    });
}

#[test]
fn bad_target_is_rejected() {
    let ctxs = world(2, Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        if rank == 0 {
            let err = ctx.put(5, Addr(0), &[1], None, None, None).unwrap_err();
            assert!(matches!(
                err,
                LapiError::BadTarget {
                    target: 5,
                    ntasks: 2
                }
            ));
        }
        ctx.gfence().unwrap();
    });
}

#[test]
fn rmw_fetch_add_serializes_concurrent_updates() {
    let n = 4;
    let ctxs = world(n, Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        let cell = ctx.alloc(8);
        let addrs = ctx.address_init(cell);
        // everyone hammers node 0's cell
        let per_task = 50u64;
        let mut prevs = Vec::new();
        for _ in 0..per_task {
            let fut = ctx.rmw(0, RmwOp::FetchAndAdd, addrs[0], 1, 0).unwrap();
            prevs.push(fut.wait());
        }
        // previous values within one task strictly increase
        assert!(
            prevs.windows(2).all(|w| w[0] < w[1]),
            "task {rank}: {prevs:?}"
        );
        ctx.gfence().unwrap();
        if rank == 0 {
            assert_eq!(ctx.mem_read_u64(cell), per_task * n as u64);
        }
    });
}

#[test]
fn rmw_compare_and_swap_and_or() {
    let ctxs = world(2, Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        let cell = ctx.alloc(8);
        ctx.mem_write_u64(cell, 10);
        let addrs = ctx.address_init(cell);
        if rank == 0 {
            // CAS that fails
            let prev = ctx
                .rmw(1, RmwOp::CompareAndSwap, addrs[1], 99, 5)
                .unwrap()
                .wait();
            assert_eq!(prev, 10);
            // CAS that succeeds
            let prev = ctx
                .rmw(1, RmwOp::CompareAndSwap, addrs[1], 99, 10)
                .unwrap()
                .wait();
            assert_eq!(prev, 10);
            // Fetch-and-or
            let prev = ctx
                .rmw(1, RmwOp::FetchAndOr, addrs[1], 0b100, 0)
                .unwrap()
                .wait();
            assert_eq!(prev, 99);
            // Swap
            let prev = ctx.rmw(1, RmwOp::Swap, addrs[1], 1, 0).unwrap().wait();
            assert_eq!(prev, 99 | 0b100);
        }
        ctx.gfence().unwrap();
        if rank == 1 {
            assert_eq!(ctx.mem_read_u64(cell), 1);
        }
    });
}

#[test]
fn fence_orders_puts_to_same_target() {
    let ctxs = world(2, Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        let buf = ctx.alloc(8);
        let addrs = ctx.address_init(buf);
        if rank == 0 {
            // Two overlapping puts; fence between them forces order (§2.5).
            ctx.put(1, addrs[1], &[1u8; 8], None, None, None).unwrap();
            ctx.fence(1).unwrap();
            ctx.put(1, addrs[1], &[2u8; 8], None, None, None).unwrap();
            ctx.fence(1).unwrap();
            assert_eq!(ctx.pending(1), 0);
        }
        ctx.gfence().unwrap();
        if rank == 1 {
            assert_eq!(ctx.mem_read(buf, 8), vec![2u8; 8]);
        }
    });
}

#[test]
fn gfence_flushes_everyone() {
    let n = 4;
    let ctxs = world(n, Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        let buf = ctx.alloc(8 * n);
        let addrs = ctx.address_init(buf);
        for t in 0..n {
            if t != rank {
                ctx.put(
                    t,
                    addrs[t].offset(8 * rank),
                    &(rank as u64).to_le_bytes(),
                    None,
                    None,
                    None,
                )
                .unwrap();
            }
        }
        ctx.gfence().unwrap();
        for t in 0..n {
            if t != rank {
                let mut b = [0u8; 8];
                b.copy_from_slice(&ctx.mem_read(buf.offset(8 * t), 8));
                assert_eq!(u64::from_le_bytes(b), t as u64);
            }
        }
        ctx.gfence().unwrap();
    });
}

#[test]
fn polling_mode_completes_with_polling_target() {
    let ctxs = world(2, Mode::Polling);
    run_spmd_with(ctxs, |rank, ctx| {
        assert_eq!(ctx.qenv(Qenv::InterruptSet), 0);
        let buf = ctx.alloc(16);
        let tgt = ctx.new_counter();
        let addrs = ctx.address_init(buf);
        let remotes = ctx.counter_init(&tgt);
        if rank == 0 {
            let cmpl = ctx.new_counter();
            ctx.put(1, addrs[1], &[5u8; 16], Some(remotes[1]), None, Some(&cmpl))
                .unwrap();
            ctx.waitcntr(&cmpl, 1); // drives origin-side progress
        } else {
            ctx.waitcntr(&tgt, 1); // target must poll: waitcntr polls
            assert_eq!(ctx.mem_read(buf, 16), vec![5u8; 16]);
        }
        ctx.gfence().unwrap();
    });
}

#[test]
#[should_panic(expected = "simulated deadlock")]
fn polling_mode_without_target_polling_deadlocks() {
    // The paper's §2.1 caveat: in polling mode, absent polling there is no
    // progress and programs can deadlock. The origin waits on cmpl_cntr but
    // the target never enters LAPI.
    let ctxs = LapiWorld::init_full(
        2,
        MachineConfig::default(),
        Mode::Polling,
        1,
        Duration::from_millis(300),
    );
    run_spmd_with(ctxs, |rank, ctx| {
        let buf = ctx.alloc(8);
        let addrs = ctx.address_init(buf);
        if rank == 0 {
            let cmpl = ctx.new_counter();
            ctx.put(1, addrs[1], &[1u8; 8], None, None, Some(&cmpl))
                .unwrap();
            ctx.waitcntr(&cmpl, 1); // never satisfied: target never polls
        } else {
            // Target does real work but no LAPI calls — and must outlive
            // the origin's escape window without dropping its context.
            std::thread::sleep(Duration::from_millis(900));
        }
    });
}

#[test]
fn senv_switches_mode_at_runtime() {
    let ctxs = world(2, Mode::Polling);
    run_spmd_with(ctxs, |rank, ctx| {
        ctx.senv(Senv::InterruptSet(true));
        assert_eq!(ctx.qenv(Qenv::InterruptSet), 1);
        let buf = ctx.alloc(8);
        let addrs = ctx.address_init(buf);
        if rank == 0 {
            ctx.put_wait(1, addrs[1], &[3u8; 8]).unwrap();
        }
        ctx.gfence().unwrap();
        if rank == 1 {
            // interrupt mode: data arrived with no polling on our part
            assert_eq!(ctx.mem_read(buf, 8), vec![3u8; 8]);
            assert!(ctx.stats().interrupts.get() > 0);
        }
    });
}

#[test]
fn interrupt_mode_charges_interrupts_polling_does_not() {
    let run = |mode: Mode| {
        let ctxs = world(2, mode);
        let res = run_spmd_with(ctxs, |rank, ctx| {
            let buf = ctx.alloc(8);
            let tgt = ctx.new_counter();
            let addrs = ctx.address_init(buf);
            let remotes = ctx.counter_init(&tgt);
            if rank == 0 {
                let cmpl = ctx.new_counter();
                ctx.put(1, addrs[1], &[1u8; 8], Some(remotes[1]), None, Some(&cmpl))
                    .unwrap();
                ctx.waitcntr(&cmpl, 1);
            } else {
                // In polling mode the target must poll for anything to
                // happen; waitcntr provides that progress.
                ctx.waitcntr(&tgt, 1);
            }
            ctx.gfence().unwrap();
            ctx.stats().interrupts.get()
        });
        res[1]
    };
    assert!(run(Mode::Interrupt) > 0);
    assert_eq!(run(Mode::Polling), 0);
}

#[test]
fn counters_group_multiple_messages() {
    let ctxs = world(2, Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        let buf = ctx.alloc(80);
        let addrs = ctx.address_init(buf);
        if rank == 0 {
            let cmpl = ctx.new_counter();
            for i in 0..10usize {
                ctx.put(
                    1,
                    addrs[1].offset(8 * i),
                    &[i as u8; 8],
                    None,
                    None,
                    Some(&cmpl),
                )
                .unwrap();
            }
            // One wait for the whole group (§2.3).
            ctx.waitcntr(&cmpl, 10);
            assert_eq!(ctx.getcntr(&cmpl), 0);
        }
        ctx.gfence().unwrap();
        if rank == 1 {
            for i in 0..10usize {
                assert_eq!(ctx.mem_read(buf.offset(8 * i), 8), vec![i as u8; 8]);
            }
        }
    });
}

#[test]
fn concurrent_puts_may_complete_out_of_order_but_fence_serializes() {
    // §2.5: two unfenced puts to overlapping buffers leave the region
    // undefined; with an intervening fence the second wins. We assert the
    // *fenced* guarantee (the defined case).
    let ctxs = world(2, Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        let buf = ctx.alloc(4096);
        let addrs = ctx.address_init(buf);
        if rank == 0 {
            for round in 0..20u8 {
                ctx.put(1, addrs[1], &vec![round; 4096], None, None, None)
                    .unwrap();
                ctx.fence(1).unwrap();
            }
        }
        ctx.gfence().unwrap();
        if rank == 1 {
            assert_eq!(ctx.mem_read(buf, 4096), vec![19u8; 4096]);
        }
    });
}

#[test]
fn am_reassembly_survives_heavy_reordering_and_loss() {
    // Crank route skew and drop probability: fragments arrive out of order
    // and late; reassembly and the early-data stash must still produce the
    // exact payload. Polling mode makes this deterministic: every packet is
    // already queued (in arrival-time order) before the target processes
    // any of them, so virtual reordering is actually observed.
    let mut cfg = MachineConfig::default().with_drop_prob(0.3);
    cfg.route_skew = VDur::from_us(40);
    let stored = Arc::new(parking_lot::Mutex::new(None::<Addr>));
    let stored2 = Arc::clone(&stored);
    let ctxs = LapiWorld::init_seeded(2, cfg, Mode::Polling, 123);
    run_spmd_with(ctxs, move |rank, ctx| {
        let done = ctx.new_counter();
        let remotes = ctx.counter_init(&done);
        if rank == 1 {
            let stored = Arc::clone(&stored2);
            ctx.register_handler(2, move |hctx, info| {
                let buf = hctx.alloc(info.data_len);
                *stored.lock() = Some(buf);
                HdrOutcome::into_buffer(buf)
            });
        }
        ctx.barrier();
        let data: Vec<u8> = (0..40_000).map(|i| (i * 7 % 256) as u8).collect();
        if rank == 0 {
            ctx.amsend(1, 2, b"x", &data, Some(remotes[1]), None, None)
                .unwrap();
            ctx.barrier(); // let everything land in the target's queue
            ctx.gfence().unwrap();
        } else {
            ctx.barrier(); // all packets are now queued, none processed
            ctx.waitcntr(&done, 1); // processes them in arrival-time order
            let buf = stored.lock().expect("header handler ran");
            assert_eq!(ctx.mem_read(buf, data.len()), data);
            assert!(
                ctx.stats().early_am_data.get() > 0,
                "expected stashed early fragments under heavy skew/loss"
            );
            ctx.gfence().unwrap();
        }
    });
}

#[test]
fn term_makes_context_unusable() {
    let mut ctxs = world(2, Mode::Interrupt);
    run_spmd_with(std::mem::take(&mut ctxs), |_rank, mut ctx| {
        ctx.gfence().unwrap();
        ctx.term().unwrap();
        assert!(matches!(ctx.term(), Err(LapiError::Terminated)));
        assert!(matches!(
            ctx.put(0, Addr(0), &[1], None, None, None),
            Err(LapiError::Terminated)
        ));
    });
}

#[test]
fn qenv_reports_environment() {
    let ctxs = world(3, Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        assert_eq!(ctx.qenv(Qenv::TaskId), rank);
        assert_eq!(ctx.qenv(Qenv::NumTasks), 3);
        assert_eq!(ctx.qenv(Qenv::MaxUhdrSz), 900);
        assert_eq!(ctx.qenv(Qenv::MaxDataSz), 1024 - 48);
        ctx.gfence().unwrap();
    });
}

#[test]
fn loopback_operations_work() {
    let ctxs = world(2, Mode::Interrupt);
    run_spmd_with(ctxs, |rank, ctx| {
        let buf = ctx.alloc(8);
        let addrs = ctx.address_init(buf);
        // put to myself
        ctx.put_wait(rank, addrs[rank], &[42u8; 8]).unwrap();
        assert_eq!(ctx.mem_read(buf, 8), vec![42u8; 8]);
        ctx.gfence().unwrap();
    });
}

#[test]
fn pipelined_puts_overlap_on_the_wire() {
    // The "unordered pipelining" claim (§2.1): k pipelined puts finish much
    // faster than k fenced (serialized) puts. Polling mode keeps the
    // comparison bit-deterministic regardless of host load; lossless wire
    // (regardless of SPSIM_FAULT_PROFILE) because this is a *timing* ratio
    // — retransmission stalls would swamp the pipelining signal.
    let elapsed = |serialize: bool| {
        let ctxs = LapiWorld::init(2, MachineConfig::default().with_no_faults(), Mode::Polling);
        let times = run_spmd_with(ctxs, move |rank, ctx| {
            let buf = ctx.alloc(64 * 1024);
            let tgt = ctx.new_counter();
            let addrs = ctx.address_init(buf);
            let remotes = ctx.counter_init(&tgt);
            ctx.barrier();
            let t0 = ctx.now();
            if rank == 0 {
                for i in 0..16usize {
                    ctx.put(
                        1,
                        addrs[1].offset(4096 * i),
                        &[1u8; 4096],
                        Some(remotes[1]),
                        None,
                        None,
                    )
                    .unwrap();
                    if serialize {
                        ctx.fence(1).unwrap();
                    }
                }
                ctx.fence(1).unwrap();
            } else {
                // polling target: drive progress one message at a time
                // (serialized) or for the whole burst (pipelined)
                for _ in 0..16 {
                    ctx.waitcntr(&tgt, 1);
                }
            }
            ctx.barrier();
            ctx.now() - t0
        });
        times[0]
    };
    let pipelined = elapsed(false);
    let serialized = elapsed(true);
    assert!(
        pipelined.as_us() * 2.0 < serialized.as_us(),
        "pipelined {pipelined} vs serialized {serialized}"
    );
}

/// A polling world whose deadlock escape is 3 s, so a wakeup lost by
/// the tests below fails them quickly instead of after 30 s.
fn polling_world_3s() -> Vec<LapiContext> {
    LapiWorld::init_full(
        2,
        MachineConfig::default(),
        Mode::Polling,
        1,
        Duration::from_secs(3),
    )
}

#[test]
fn polling_waitcntr_wakes_on_completion_handler_bumps() {
    // The completion thread runs the handler, bumps tgt_cntr and sends
    // the cmpl_cntr ack. The polling target sits parked on its receive
    // ring meanwhile, and only the completion thread's wakeup ends its
    // waitcntr: no packet will arrive to do it.
    run_spmd_with(polling_world_3s(), |rank, ctx| {
        let tgt = ctx.new_counter();
        let remotes = ctx.counter_init(&tgt);
        if rank == 1 {
            ctx.register_handler(3, |hctx, info| {
                let buf = hctx.alloc(info.data_len);
                HdrOutcome::into_buffer(buf).with_completion(Box::new(|_c| {}))
            });
        }
        ctx.gfence().unwrap();
        let cmpl = ctx.new_counter();
        for _ in 0..50 {
            if rank == 0 {
                ctx.amsend(1, 3, b"", &[1u8; 64], Some(remotes[1]), None, Some(&cmpl))
                    .unwrap();
                ctx.waitcntr(&cmpl, 1);
            } else {
                ctx.waitcntr(&tgt, 1);
            }
        }
        ctx.gfence().unwrap();
    });
}

#[test]
fn polling_gfence_serves_peers_until_the_barrier_releases() {
    // Node 0 heads straight into Gfence while node 1 still needs node 0 to
    // serve an rmw and a get; in polling mode only node 0's own Gfence
    // wait can serve them, and the release must still wake it.
    run_spmd_with(polling_world_3s(), |rank, ctx| {
        let cell = ctx.alloc(8);
        let addrs = ctx.address_init(cell);
        for round in 0..20u64 {
            if rank == 1 {
                let prev = ctx.rmw(0, RmwOp::FetchAndAdd, addrs[0], 1, 0).unwrap();
                assert_eq!(prev.wait(), round);
                let got = ctx.get_wait(0, addrs[0], 8).unwrap();
                assert_eq!(got, (round + 1).to_le_bytes());
            }
            ctx.gfence().unwrap();
        }
    });
}
