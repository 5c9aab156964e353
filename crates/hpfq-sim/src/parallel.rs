//! Deterministic parallel execution of a multi-link [`Network`]:
//! conservative epochs over sharded links, supervised by an epoch
//! checkpoint/rollback loop that contains shard crashes.
//!
//! # Model
//!
//! Links are assigned round-robin to `n` shards; each shard owns its
//! links' hierarchies, the sources whose **first hop** is on one of them,
//! and a private [`hpfq_events::Engine`]. Shards advance in lock-step
//! *epochs* `[T, T + W)` where the lookahead `W` is the minimum
//! propagation delay across *inter-shard* edges: hop-to-hop handoffs
//! whose two links live on different shards, and last-hop-to-source
//! delivery edges whose shards differ. Within an epoch a shard pops only
//! events with `t < T + W`; any event it produces for another shard is at
//! least `W` in the future (every cross-shard event — `Arrive`,
//! `Deliver`, `Detach` — travels a propagation edge), so it cannot land
//! inside the epoch that produced it. Outbound events are buffered per
//! shard and exchanged at a barrier; each shard then schedules its inbox
//! in `(time, minor-key, sender, sender-sequence)` order and all shards
//! agree on the next epoch start: the global minimum pending event time
//! (jumping over empty windows keeps the epoch count proportional to
//! event density, not to `horizon / W`).
//!
//! # Supervision (DESIGN.md §11)
//!
//! Epochs are grouped into **stints** of [`Network::set_stint_epochs`]
//! epochs. At each stint boundary the shards merge back into the master,
//! which refreshes its [`Network::snapshot`] **checkpoint** and re-splits.
//! Each worker's stint runs under `catch_unwind`; a panic poisons the
//! exchange barrier (a `PhaseBarrier` with a watchdog timeout, so a
//! dead peer produces a typed timeout instead of a hang) and the stint's
//! results are discarded: the supervisor restores the checkpoint and
//! retries the stint within a bounded budget, then escalates to a typed
//! halt ([`hpfq_obs::EscalationState::mark_halted`]). Every contained
//! failure is reported as a [`ShardFailure`] in the [`ParallelReport`].
//!
//! A halt demanded by the escalation ladder is an *instantaneous global*
//! transition with no propagation delay to hide behind, so a sharded
//! stint cannot reproduce its exact stopping point. Instead, when any
//! shard halts — or the merged quarantine roster crosses the policy's
//! `halt_after` threshold, which no single shard could see — the
//! supervisor rolls the stint back and replays the tail **sequentially**
//! from the checkpoint, reproducing the sequential halt byte-identically.
//!
//! An installed [`crate::FaultInjector`] shards by forking: each shard's
//! worker receives a [`crate::FaultInjector::fork_shard`] child owning
//! the per-flow decision streams of the flows whose ingress link it
//! owns, and the children's final states are absorbed back into the
//! parent at each stint boundary.
//!
//! # Determinism argument
//!
//! The sequential run orders same-time events by `(minor key, global
//! scheduling sequence)`; minor keys are content-derived
//! (`network::minor_of`) and collide only for events with
//! identical content streams (same packet id, same timer owner), whose
//! relative FIFO order is itself content-determined. A shard therefore
//! pops the events *of its links* in exactly the order the sequential
//! engine would have popped them, provided every event reaches the right
//! engine before its epoch — which the conservative window guarantees.
//! Handlers are the *same code* in both modes (`Network::handle`) and
//! mutate only shard-owned state (routing sends every event to the shard
//! owning the link it mutates; the one cross-shard read — a removed
//! flow's liveness — was converted into the explicitly propagated
//! `Detach`/`Deliver` events). Ledgers, traces, stats, and escalation
//! state merge losslessly — in particular each flow's accumulator and
//! trace are *moved* to the shard owning its last hop at the split, so
//! the float-valued `delay_sum` keeps accumulating incrementally on its
//! single writer across stint boundaries — so the merged result is
//! bit-identical to the sequential run. The golden oracle in
//! `tests/parallel_determinism.rs` holds this to byte equality for
//! n ∈ {1, 2, 4}.
//!
//! # Fallback
//!
//! Some configurations cannot be sharded without changing observable
//! behaviour; [`Network::run_parallel`] then runs sequentially and says
//! so in the returned [`ParallelReport`]:
//!
//! * fewer than two links (nothing to parallelise);
//! * a zero (or negative) lookahead — some inter-shard edge has no
//!   propagation delay, so no conservative window exists (the degenerate
//!   case the epoch tests pin: fall back, never deadlock);
//! * an installed [`crate::FaultInjector`] whose
//!   [`crate::FaultInjector::fork_shard`] declines to split;
//! * a halt-capable escalation policy on a network that cannot be
//!   checkpointed — exact halt semantics require the rollback-and-replay
//!   path, which requires [`Network::snapshot`] to succeed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
// lint:allow(L007): the barrier watchdog measures wall-clock on purpose —
// a wedged peer never advances virtual time, so only host time can expose
// it. The reading feeds a typed failure, never simulation state.
use std::time::{Duration, Instant};

use hpfq_core::NodeScheduler;
use hpfq_obs::snap::Value;
use hpfq_obs::{EpochSpan, Observer, SpanKind, SpanProfiler};

use crate::network::{
    new_engine, FaultInjector, NetEvent, Network, OutMsg, ShardCtx, SourceSlot, Until,
};
use crate::stats::SimStats;

/// Retries the supervisor grants one stint before declaring the failure
/// persistent and halting: the first attempt plus this many rollbacks.
const STINT_RETRY_BUDGET: u32 = 2;

/// Why [`Network::run_parallel`] executed sequentially instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// Fewer than two links, or one shard requested.
    SingleShard,
    /// An inter-shard edge has zero (or negative) propagation delay:
    /// there is no conservative lookahead window.
    ZeroLookahead,
    /// The installed [`crate::FaultInjector`] declined to fork per-shard
    /// children ([`crate::FaultInjector::fork_shard`] returned `None`),
    /// so its decision streams cannot be split deterministically.
    InjectorUnsplittable,
    /// The escalation policy can halt the run — an instantaneous global
    /// transition reproduced by rolling back to a checkpoint and
    /// replaying sequentially — but [`Network::snapshot`] failed, so no
    /// checkpoint exists to replay from.
    Uncheckpointable,
    /// [`Network::run_permuted`] was given an empty order list or an
    /// entry that is not a permutation of `0..shards`.
    InvalidOrders,
}

/// One contained failure of a parallel worker, classified for the
/// [`ParallelReport`]. Each names the shard it struck and the global
/// epoch it struck at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFailure {
    /// The worker panicked; the payload's message is preserved.
    Panic {
        /// Shard whose worker panicked.
        shard: usize,
        /// Global epoch the worker had reached.
        epoch: u64,
        /// The panic payload, stringified.
        message: String,
    },
    /// The worker waited at the exchange barrier past the watchdog
    /// timeout ([`Network::set_watchdog`]): a peer died or wedged.
    BarrierTimeout {
        /// Shard whose wait timed out.
        shard: usize,
        /// Global epoch the worker had reached.
        epoch: u64,
    },
    /// The exchange barrier was poisoned by a failing peer; this worker
    /// abandoned its stint cleanly.
    BarrierPoisoned {
        /// Shard that observed the poisoned barrier.
        shard: usize,
        /// Global epoch the worker had reached.
        epoch: u64,
    },
    /// A shard's forked injector child could not be saved or folded back
    /// into the parent: the fault decision streams are desynchronized.
    InjectorDesync {
        /// Shard whose child failed to absorb.
        shard: usize,
        /// The underlying serialization error.
        detail: String,
    },
}

/// What [`Network::run_parallel`] actually did.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelReport {
    /// Shards that executed (1 on fallback).
    pub shards: usize,
    /// Conservative epochs committed (0 on fallback; epochs of a rolled
    /// back or halt-replayed stint do not count).
    pub epochs: u64,
    /// Epoch width in seconds (`f64::INFINITY` when no route crosses
    /// shards; unset on fallback).
    pub lookahead: f64,
    /// Why the run fell back to sequential execution, if it did.
    pub fallback: Option<FallbackReason>,
    /// Every contained shard failure, across all stint attempts. Failures
    /// that were rolled back and retried successfully still appear here —
    /// they are the containment record.
    pub failures: Vec<ShardFailure>,
    /// Checkpoint rollbacks performed (failed stints discarded).
    pub rollbacks: u64,
    /// Epoch checkpoints taken (initial plus per-stint refreshes).
    pub checkpoints: u64,
    /// A halt fired inside a sharded stint; the stint was rolled back and
    /// the tail replayed sequentially from the checkpoint.
    pub halt_replayed: bool,
}

impl ParallelReport {
    fn new(shards: usize) -> Self {
        ParallelReport {
            shards,
            epochs: 0,
            lookahead: 0.0,
            fallback: None,
            failures: Vec::new(),
            rollbacks: 0,
            checkpoints: 0,
            halt_replayed: false,
        }
    }

    fn sequential(reason: FallbackReason) -> Self {
        let mut r = ParallelReport::new(1);
        r.fallback = Some(reason);
        r
    }
}

/// One cross-shard message in flight between epochs, tagged for
/// deterministic inbox ordering.
struct Envelope {
    t: f64,
    minor: u64,
    sender: usize,
    seq: usize,
    ev: NetEvent,
}

/// How a worker's stint ended (identical across workers: every variant is
/// decided from state all shards agree on at an epoch boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StintEnd {
    /// The run is complete: no pending event at or before the horizon.
    Finished,
    /// The stint's epoch budget is spent; merge, checkpoint, re-split.
    CheckpointDue,
    /// Some shard's escalation ladder halted; the supervisor must roll
    /// back and replay the tail sequentially.
    Halted,
}

/// A successfully completed worker stint.
#[derive(Debug, Clone, Copy)]
struct StintResult {
    /// Epochs this stint executed (lock-step: equal across workers).
    epochs: u64,
    end: StintEnd,
}

/// Locks `m`, tolerating poisoning: mailbox contents are plain data and a
/// panicked peer worker is already reported through its own typed
/// [`ShardFailure`], so continuing with the inner value never observes
/// broken invariants.
fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Stringifies a panic payload (the `Box<dyn Any>` from `catch_unwind`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Why a [`PhaseBarrier::wait`] returned without the phase completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BarrierError {
    /// A peer poisoned the barrier (it panicked or timed out).
    Poisoned,
    /// This waiter exceeded the watchdog timeout and poisoned the
    /// barrier itself.
    Timeout,
}

/// Interior state of a [`PhaseBarrier`].
struct BarrierPhase {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

/// A reusable N-party barrier with a watchdog timeout and explicit
/// poisoning — the crash-containment replacement for
/// `std::sync::Barrier`, whose `wait` blocks forever if a peer dies
/// before arriving. A worker that panics poisons the barrier on its way
/// out; a worker whose wait exceeds the timeout poisons it too. Either
/// way every current and future waiter returns a typed error instead of
/// wedging the run.
struct PhaseBarrier {
    n: usize,
    timeout: Duration,
    state: Mutex<BarrierPhase>,
    cv: Condvar,
}

impl PhaseBarrier {
    fn new(n: usize, timeout: Duration) -> Self {
        PhaseBarrier {
            n,
            timeout,
            state: Mutex::new(BarrierPhase {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks until all `n` parties arrive, the watchdog expires, or the
    /// barrier is poisoned.
    fn wait(&self) -> Result<(), BarrierError> {
        let mut st = lock_clean(&self.state);
        if st.poisoned {
            return Err(BarrierError::Poisoned);
        }
        st.arrived += 1;
        if st.arrived == self.n {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
            return Ok(());
        }
        let gen = st.generation;
        // lint:allow(L007): watchdog deadline — wall-clock is the only
        // clock a wedged peer cannot stall; the value never reaches
        // simulation state, it only converts a hang into a typed error.
        let deadline = Instant::now() + self.timeout;
        loop {
            // lint:allow(L007): same watchdog — see the deadline above.
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                st.poisoned = true;
                self.cv.notify_all();
                return Err(BarrierError::Timeout);
            }
            st = self
                .cv
                .wait_timeout(st, remaining)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            if st.poisoned {
                return Err(BarrierError::Poisoned);
            }
            if st.generation != gen {
                return Ok(());
            }
        }
    }

    /// Poisons the barrier and wakes every waiter. Called by a worker
    /// abandoning its stint (panic caught) so peers unblock immediately
    /// instead of waiting out the watchdog.
    fn poison(&self) {
        let mut st = lock_clean(&self.state);
        st.poisoned = true;
        self.cv.notify_all();
    }
}

impl<S: NodeScheduler + Clone + Send, O: Observer + Send> Network<S, O> {
    /// Runs the simulation to `horizon` on up to `shards` worker threads,
    /// producing results byte-identical to [`Network::run`]`(horizon)`.
    ///
    /// The run is supervised (see the module docs): epochs execute in
    /// checkpointed stints, worker panics and barrier wedges are caught,
    /// classified, rolled back, and retried within a bounded budget
    /// before escalating to a typed halt; a mid-stint escalation halt is
    /// replayed sequentially from the checkpoint so its stopping point is
    /// exact. Falls back to the sequential loop (and reports why) when
    /// the configuration cannot be sharded conservatively.
    pub fn run_parallel(&mut self, horizon: f64, shards: usize) -> ParallelReport {
        let requested = shards.clamp(1, self.links.len().max(1));
        if requested < 2 || self.links.len() < 2 {
            self.run(horizon);
            return ParallelReport::sequential(FallbackReason::SingleShard);
        }
        if self.halted {
            return ParallelReport::new(requested);
        }

        // Round-robin link → shard assignment: deterministic, and
        // balanced for the homogeneous-link topologies we shard.
        let link_shard: std::sync::Arc<Vec<usize>> =
            std::sync::Arc::new((0..self.links.len()).map(|i| i % requested).collect());
        let lookahead = self.lookahead_of(&link_shard);
        if lookahead <= 0.0 {
            self.run(horizon);
            return ParallelReport::sequential(FallbackReason::ZeroLookahead);
        }

        // Sources not yet started emit their first timers here, on the
        // master, exactly as a sequential run would.
        self.start_pending_sources();

        // A halt-capable policy needs the rollback-and-replay path for
        // exact halt semantics, which needs a checkpoint; everyone else
        // degrades to uncontained sharding when snapshots are impossible
        // (e.g. a custom source without checkpoint support).
        let can_halt = self.policy.halt_after != u32::MAX;
        let mut checkpoint = match self.snapshot() {
            Ok(v) => Some(v),
            Err(_) if can_halt => {
                self.run(horizon);
                return ParallelReport::sequential(FallbackReason::Uncheckpointable);
            }
            Err(_) => None,
        };

        let mut report = ParallelReport::new(requested);
        report.lookahead = lookahead;
        if checkpoint.is_some() {
            report.checkpoints = 1;
        }
        let stint_epochs = if self.stint_epochs == 0 {
            u64::MAX
        } else {
            self.stint_epochs
        };
        let watchdog = self.watchdog;

        let mut total_epochs = 0u64;
        let mut attempt = 0u32;
        'stints: loop {
            let epoch_base = total_epochs;
            // Epoch numbering is deterministic, so the stint start time
            // is too: the master's clock for the first stint (matching
            // the sequential entry point), the earliest pending event —
            // exactly the global-next the previous stint agreed on — for
            // every later one.
            let start = if epoch_base == 0 {
                self.engine.now()
            } else {
                match self.next_event_time() {
                    Some(t) if t <= horizon => t,
                    _ => break 'stints,
                }
            };

            // Fork the injector's per-shard children (re-forked each
            // stint from the absorbed parent, so streams are continuous).
            let children = match self.fork_children(&link_shard, requested) {
                Ok(c) => c,
                Err(()) if epoch_base == 0 && report.rollbacks == 0 => {
                    self.run(horizon);
                    return ParallelReport::sequential(FallbackReason::InjectorUnsplittable);
                }
                Err(()) => {
                    // The injector split before but refuses now: its
                    // state is suspect. Contained, typed halt.
                    self.escalation.mark_halted();
                    self.halted = true;
                    report.failures.push(ShardFailure::InjectorDesync {
                        shard: 0,
                        detail: "fork_shard refused mid-run".to_string(),
                    });
                    break 'stints;
                }
            };

            let pre_epoch_log = self.epoch_log.len();
            let base_sources = self.sources.len();
            let mut workers = self.split(&link_shard, requested);
            if let Some(children) = children {
                for (w, c) in workers.iter_mut().zip(children) {
                    w.injector = Some(c);
                }
            }
            // The injected-panic test hook fires on first attempts only:
            // the retry then proves the rollback path end to end.
            if attempt == 0 {
                if let Some((ps, _)) = self.panic_plan {
                    if ps < requested {
                        workers[ps].panic_plan = self.panic_plan;
                    }
                }
            }

            let barrier = PhaseBarrier::new(requested, watchdog);
            let mailboxes: Vec<Mutex<Vec<Envelope>>> =
                (0..requested).map(|_| Mutex::new(Vec::new())).collect();
            // Each shard's earliest pending event time after the exchange
            // (INFINITY = drained); slot `i` is written only by worker
            // `i` between the two barriers of an epoch.
            let next_times: Mutex<Vec<f64>> = Mutex::new(vec![0.0; requested]);
            let halt_flag = AtomicBool::new(false);
            // Each worker publishes the global epoch it is executing so a
            // caught panic can be attributed to the epoch it struck at.
            let progress: Vec<AtomicU64> =
                (0..requested).map(|_| AtomicU64::new(epoch_base)).collect();

            let results: Vec<Result<StintResult, ShardFailure>> = std::thread::scope(|scope| {
                let handles: Vec<_> = workers
                    .iter_mut()
                    .enumerate()
                    .map(|(sid, net)| {
                        let barrier = &barrier;
                        let mailboxes = &mailboxes;
                        let next_times = &next_times;
                        let halt_flag = &halt_flag;
                        let progress = &progress;
                        scope.spawn(move || {
                            let caught = catch_unwind(AssertUnwindSafe(|| {
                                run_shard(
                                    net,
                                    sid,
                                    start,
                                    horizon,
                                    lookahead,
                                    stint_epochs,
                                    epoch_base,
                                    barrier,
                                    mailboxes,
                                    next_times,
                                    halt_flag,
                                    progress,
                                )
                            }));
                            caught.unwrap_or_else(|payload| {
                                // Unblock peers immediately; the shard's
                                // half-mutated state is discarded by the
                                // supervisor's rollback.
                                barrier.poison();
                                Err(ShardFailure::Panic {
                                    shard: sid,
                                    epoch: progress[sid].load(Ordering::Relaxed),
                                    message: panic_message(payload),
                                })
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(sid, h)| {
                        h.join().unwrap_or_else(|_| {
                            Err(ShardFailure::Panic {
                                shard: sid,
                                epoch: progress[sid].load(Ordering::Relaxed),
                                message: "worker thread died outside the panic guard".to_string(),
                            })
                        })
                    })
                    .collect()
            });

            // Reclaim the injector children before the merge consumes the
            // workers; their states are absorbed only if the stint
            // commits.
            let mut child_states: Vec<(usize, Result<Value, hpfq_obs::SnapError>)> = Vec::new();
            for (sid, w) in workers.iter_mut().enumerate() {
                if let Some(c) = w.injector.take() {
                    child_states.push((sid, c.save_state()));
                }
            }
            if SpanProfiler::ENABLED {
                self.profiler.span_enter(SpanKind::Merge);
            }
            self.merge(workers, &link_shard, base_sources);
            if SpanProfiler::ENABLED {
                self.profiler.span_exit(SpanKind::Merge);
            }

            let failures: Vec<ShardFailure> =
                results.iter().filter_map(|r| r.clone().err()).collect();
            if !failures.is_empty() {
                report.failures.extend(failures);
                let restorable = checkpoint
                    .as_ref()
                    .map(|cp| (attempt < STINT_RETRY_BUDGET, cp.clone()));
                if let Some((retry, cp)) = restorable {
                    if self.restore(&cp).is_ok() {
                        self.epoch_log.truncate(pre_epoch_log);
                        report.rollbacks += 1;
                        if retry {
                            attempt += 1;
                            continue 'stints;
                        }
                        // Budget exhausted: the master is left at the
                        // last good checkpoint for post-mortems.
                    }
                }
                self.escalation.mark_halted();
                self.halted = true;
                break 'stints;
            }

            // The stint committed: fold the injector children's advanced
            // streams back into the parent.
            if self.injector.is_some() {
                let mut desync = None;
                for (sid, st) in child_states {
                    let folded = match st {
                        Ok(v) => self
                            .injector
                            .as_mut()
                            .map(|inj| inj.absorb_shard(&v))
                            .unwrap_or(Ok(())),
                        Err(e) => Err(e),
                    };
                    if let Err(e) = folded {
                        desync = Some(ShardFailure::InjectorDesync {
                            shard: sid,
                            detail: e.what,
                        });
                        break;
                    }
                }
                if let Some(f) = desync {
                    report.failures.push(f);
                    self.escalation.mark_halted();
                    self.halted = true;
                    break 'stints;
                }
            }

            attempt = 0;
            // Lock-step protocol: every worker ran the same epochs.
            let stint = match results[0] {
                Ok(s) => s,
                // lint:allow(L002): any Err took the retry/abort branch
                // above and either continued the loop or broke out of it;
                // reaching this match means every result is Ok.
                Err(_) => unreachable!("failures handled above"),
            };
            total_epochs += stint.epochs;

            // Halt semantics: if any shard's ladder halted, or the merged
            // quarantine roster crossed the policy threshold no single
            // shard could see, discard the stint and replay it
            // sequentially from the checkpoint — the sequential loop
            // stops at the exact halting event.
            let union_crossed = can_halt
                && self.escalation.quarantined_flows().len() as u64
                    >= u64::from(self.policy.halt_after);
            if stint.end == StintEnd::Halted || self.escalation.is_halted() || union_crossed {
                // `can_halt` guaranteed a checkpoint at entry; a ladder
                // halt is impossible otherwise.
                // lint:allow(L002): checkpoint existence is implied by
                // the Uncheckpointable fallback taken at entry for every
                // halt-capable policy.
                let cp = checkpoint.as_ref().expect("halt implies a checkpoint");
                if self.restore(cp).is_ok() {
                    self.epoch_log.truncate(pre_epoch_log);
                    total_epochs = epoch_base;
                    report.halt_replayed = true;
                    self.run(horizon);
                } else {
                    // No way back: surface the halt where we stand.
                    self.escalation.mark_halted();
                    self.halted = true;
                }
                break 'stints;
            }

            if stint.end == StintEnd::Finished {
                break 'stints;
            }
            // Refresh the checkpoint at the committed stint boundary; on
            // failure keep the previous one (rolling back further is
            // slower but still byte-identical).
            if checkpoint.is_some() {
                if let Ok(v) = self.snapshot() {
                    checkpoint = Some(v);
                    report.checkpoints += 1;
                }
            }
        }

        // Keep the final checkpoint around for post-mortems: on a halt or
        // an exhausted retry budget this is the exact state to resume
        // from, and harnesses hand its bytes to the flight recorder.
        self.last_checkpoint = checkpoint;
        report.epochs = total_epochs;
        report
    }

    /// Replays the conservative-epoch protocol **single-threaded** under
    /// an explicit per-epoch shard commit order, producing results
    /// byte-identical to [`Network::run`]`(horizon)`.
    ///
    /// This is the schedule-permutation half of the determinism oracle:
    /// [`Network::run_parallel`] exercises whichever interleaving the OS
    /// scheduler happens to produce, while this harness pins *every*
    /// interleaving the protocol admits. Epoch `e` executes shards —
    /// compute phase, then outbox commit into the mailboxes — in the
    /// order `orders[e % orders.len()]`. Committing whole outboxes in a
    /// permuted shard order subsumes the threaded version's
    /// per-envelope mutex interleavings: the canonical
    /// `(t, minor, sender, seq)` inbox sort is insensitive to arrival
    /// order within a mailbox, so any finer interleaving sorts to the
    /// same inbox the coarse one does. A caller that drives this over
    /// all `shards!` permutations (plus per-epoch rotations) has
    /// therefore checked every commit schedule the barrier protocol can
    /// produce.
    ///
    /// Shards injectors and replays halts exactly like
    /// [`Network::run_parallel`] (fork/absorb children, rollback and
    /// sequential tail replay from the entry checkpoint); being
    /// single-threaded it needs no panic containment. Falls back exactly
    /// like [`Network::run_parallel`], plus
    /// [`FallbackReason::InvalidOrders`] when `orders` is empty or an
    /// entry is not a permutation of `0..shards`.
    pub fn run_permuted(
        &mut self,
        horizon: f64,
        shards: usize,
        orders: &[Vec<usize>],
    ) -> ParallelReport {
        let requested = shards.clamp(1, self.links.len().max(1));
        if requested < 2 || self.links.len() < 2 {
            self.run(horizon);
            return ParallelReport::sequential(FallbackReason::SingleShard);
        }
        let is_perm = |o: &Vec<usize>| {
            let mut seen = vec![false; requested];
            o.len() == requested
                && o.iter()
                    .all(|&s| s < requested && !std::mem::replace(&mut seen[s], true))
        };
        if orders.is_empty() || !orders.iter().all(is_perm) {
            self.run(horizon);
            return ParallelReport::sequential(FallbackReason::InvalidOrders);
        }
        if self.halted {
            return ParallelReport::new(requested);
        }

        let link_shard: std::sync::Arc<Vec<usize>> =
            std::sync::Arc::new((0..self.links.len()).map(|i| i % requested).collect());
        let lookahead = self.lookahead_of(&link_shard);
        if lookahead <= 0.0 {
            self.run(horizon);
            return ParallelReport::sequential(FallbackReason::ZeroLookahead);
        }
        self.start_pending_sources();

        let can_halt = self.policy.halt_after != u32::MAX;
        let checkpoint = match self.snapshot() {
            Ok(v) => Some(v),
            Err(_) if can_halt => {
                self.run(horizon);
                return ParallelReport::sequential(FallbackReason::Uncheckpointable);
            }
            Err(_) => None,
        };
        let children = match self.fork_children(&link_shard, requested) {
            Ok(c) => c,
            Err(()) => {
                self.run(horizon);
                return ParallelReport::sequential(FallbackReason::InjectorUnsplittable);
            }
        };

        let mut report = ParallelReport::new(requested);
        report.lookahead = lookahead;
        if checkpoint.is_some() {
            report.checkpoints = 1;
        }
        let pre_epoch_log = self.epoch_log.len();
        let base_sources = self.sources.len();
        let mut workers = self.split(&link_shard, requested);
        if let Some(children) = children {
            for (w, c) in workers.iter_mut().zip(children) {
                w.injector = Some(c);
            }
        }
        let start = self.engine.now();

        let mut mailboxes: Vec<Vec<Envelope>> = (0..requested).map(|_| Vec::new()).collect();
        let mut next_times = vec![0.0f64; requested];
        let mut send_seq = vec![0usize; requested];
        let mut t_start = start;
        let mut epochs = 0u64;
        let mut halted = false;
        loop {
            let order = &orders[(epochs as usize) % orders.len()];
            epochs += 1;
            let epoch_end = t_start + lookahead;
            // Compute phase + outbox commit, one shard at a time in the
            // permuted order. Mailboxes are only written here and only
            // read after the phase completes — the sequential analogue
            // of the first barrier in `run_shard`.
            for &sid in order {
                let net = &mut workers[sid];
                net.engine.advance_to(t_start);
                let mut handled = 0u64;
                while !net.halted && net.step(Until::epoch(epoch_end, horizon)) {
                    handled += 1;
                }
                halted |= net.halted;
                if net.record_epochs {
                    net.epoch_log.push(EpochSpan {
                        shard: sid,
                        t0: t_start,
                        t1: epoch_end.min(horizon),
                        events: handled,
                    });
                }
                if let Some(ctx) = net.shard.as_mut() {
                    for OutMsg { dest, t, minor, ev } in ctx.outbox.drain(..) {
                        send_seq[sid] += 1;
                        mailboxes[dest].push(Envelope {
                            t,
                            minor,
                            sender: sid,
                            seq: send_seq[sid],
                            ev,
                        });
                    }
                }
            }
            // Delivery phase: every outbox is committed, so each inbox
            // is complete — sort it canonically and feed the engine,
            // then publish each shard's next pending event time (the
            // sequential analogue of the second barrier).
            for &sid in order {
                let mut inbox = std::mem::take(&mut mailboxes[sid]);
                inbox.sort_by(|a, b| {
                    a.t.total_cmp(&b.t)
                        .then(a.minor.cmp(&b.minor))
                        .then(a.sender.cmp(&b.sender))
                        .then(a.seq.cmp(&b.seq))
                });
                let net = &mut workers[sid];
                for env in inbox {
                    net.queue_event(env.t, env.ev);
                }
                next_times[sid] = net.next_event_time().unwrap_or(f64::INFINITY);
            }
            if halted {
                break;
            }
            let global_next = next_times
                .iter()
                .fold(f64::INFINITY, |m, &t| if t < m { t } else { m });
            if !global_next.is_finite() || global_next > horizon {
                break;
            }
            t_start = global_next;
        }

        let mut child_states: Vec<(usize, Result<Value, hpfq_obs::SnapError>)> = Vec::new();
        for (sid, w) in workers.iter_mut().enumerate() {
            if let Some(c) = w.injector.take() {
                child_states.push((sid, c.save_state()));
            }
        }
        if SpanProfiler::ENABLED {
            self.profiler.span_enter(SpanKind::Merge);
        }
        self.merge(workers, &link_shard, base_sources);
        if SpanProfiler::ENABLED {
            self.profiler.span_exit(SpanKind::Merge);
        }

        let union_crossed = can_halt
            && self.escalation.quarantined_flows().len() as u64
                >= u64::from(self.policy.halt_after);
        if halted || self.escalation.is_halted() || union_crossed {
            // lint:allow(L002): checkpoint existence is implied by the
            // Uncheckpointable fallback taken at entry for every
            // halt-capable policy.
            let cp = checkpoint.as_ref().expect("halt implies a checkpoint");
            if self.restore(cp).is_ok() {
                self.epoch_log.truncate(pre_epoch_log);
                epochs = 0;
                report.halt_replayed = true;
                self.run(horizon);
            } else {
                self.escalation.mark_halted();
                self.halted = true;
            }
        } else if self.injector.is_some() {
            for (sid, st) in child_states {
                let folded = match st {
                    Ok(v) => self
                        .injector
                        .as_mut()
                        .map(|inj| inj.absorb_shard(&v))
                        .unwrap_or(Ok(())),
                    Err(e) => Err(e),
                };
                if let Err(e) = folded {
                    report.failures.push(ShardFailure::InjectorDesync {
                        shard: sid,
                        detail: e.what,
                    });
                    self.escalation.mark_halted();
                    self.halted = true;
                    break;
                }
            }
        }
        self.last_checkpoint = checkpoint;
        report.epochs = epochs;
        report
    }

    /// Minimum propagation delay over inter-shard edges: consecutive route
    /// hops on different shards, and final-hop delivery edges back to a
    /// source owned by a different shard. `INFINITY` when no route
    /// crosses shards (a single epoch suffices).
    fn lookahead_of(&self, link_shard: &[usize]) -> f64 {
        let mut w = f64::INFINITY;
        for slot in &self.sources {
            let hops = &slot.route.hops;
            let owner = link_shard[hops[0].link];
            for pair in hops.windows(2) {
                if link_shard[pair[0].link] != link_shard[pair[1].link] && pair[0].prop_delay < w {
                    w = pair[0].prop_delay;
                }
            }
            if let Some(last) = hops.last() {
                if link_shard[last.link] != owner && last.prop_delay < w {
                    w = last.prop_delay;
                }
            }
        }
        w
    }

    /// Forks the installed injector into one child per shard, each owning
    /// the decision streams of the flows whose ingress (first-hop) link
    /// that shard owns — the flows whose packets and wakes the shard will
    /// consult the injector for. `Ok(None)` when no injector is
    /// installed; `Err(())` when [`crate::FaultInjector::fork_shard`]
    /// declines.
    #[allow(clippy::type_complexity)]
    fn fork_children(
        &mut self,
        link_shard: &[usize],
        n: usize,
    ) -> Result<Option<Vec<Box<dyn FaultInjector>>>, ()> {
        let Some(inj) = self.injector.as_mut() else {
            return Ok(None);
        };
        let mut rosters: Vec<Vec<u32>> = vec![Vec::new(); n];
        for slot in &self.sources {
            rosters[link_shard[slot.route.hops[0].link]].push(slot.flow);
        }
        let mut children = Vec::with_capacity(n);
        for roster in &rosters {
            match inj.fork_shard(roster) {
                Some(c) => children.push(c),
                None => return Err(()),
            }
        }
        Ok(Some(children))
    }

    /// Carves `self` into `n` shard networks: links and source boxes move
    /// to their owning shard, routing metadata is replicated, pending
    /// events are dealt out by [`Network::event_shard`]. Each flow's
    /// accumulated [`crate::FlowStats`] and captured trace move to the
    /// shard owning the flow's **last** hop — the single writer of its
    /// service-side fields — so float accumulation stays incremental
    /// across stint boundaries (see [`SimStats::extract_flow`]); the
    /// master keeps the network totals, which merge back exactly.
    fn split(&mut self, link_shard: &std::sync::Arc<Vec<usize>>, n: usize) -> Vec<Network<S, O>> {
        let now = self.engine.now();
        let pending = self.engine.drain_ordered();
        let mut workers: Vec<Network<S, O>> = (0..n)
            .map(|sid| {
                let mut stats = SimStats::new();
                for flow in self.stats.traced_flows() {
                    stats.trace_flow(flow);
                }
                let mut engine = new_engine();
                engine.advance_to(now);
                Network {
                    links: Vec::new(),
                    engine,
                    sources: Vec::new(),
                    started_below: 0,
                    stats,
                    flow_owner: self.flow_owner.clone(),
                    injector: None,
                    policy: self.policy,
                    escalation: self.escalation.clone(),
                    halted: false,
                    inflight_bytes: 0,
                    command_errors: Vec::new(),
                    shard: Some(ShardCtx {
                        id: sid,
                        link_shard: std::sync::Arc::clone(link_shard),
                        outbox: Vec::new(),
                    }),
                    // Each worker times against its own base Instant;
                    // snapshots carry only durations, so merging them into
                    // the master is exact.
                    profiler: SpanProfiler::new(),
                    record_epochs: self.record_epochs,
                    epoch_log: Vec::new(),
                    shard_spans: Vec::new(),
                    stint_epochs: self.stint_epochs,
                    watchdog: self.watchdog,
                    panic_plan: None,
                    last_checkpoint: None,
                }
            })
            .collect();
        for (i, slot) in self.links.iter_mut().enumerate() {
            for (sid, w) in workers.iter_mut().enumerate() {
                w.links.push(if link_shard[i] == sid {
                    slot.take()
                } else {
                    None
                });
            }
        }
        for slot in &mut self.sources {
            let owner = link_shard[slot.route.hops[0].link];
            for (sid, w) in workers.iter_mut().enumerate() {
                w.sources.push(SourceSlot {
                    src: if sid == owner { slot.src.take() } else { None },
                    route: slot.route.clone(),
                    flow: slot.flow,
                    live: slot.live,
                    started: slot.started,
                    wants_delivery: slot.wants_delivery,
                    stats_slot: 0,
                });
            }
        }
        // Move each flow's accumulator and trace prefix to the shard that
        // owns its last hop (the `record_service` writer). Flows with no
        // owning source (none, in practice) stay on the master, which is
        // inert during the stint.
        for flow in self.stats.flows() {
            if let Some(owner) = self.service_shard(link_shard, flow) {
                if let Some(fs) = self.stats.extract_flow(flow) {
                    workers[owner].stats.seed_flow(flow, fs);
                }
            }
        }
        for flow in self.stats.traced_flows() {
            if let Some(owner) = self.service_shard(link_shard, flow) {
                let records = self.stats.extract_trace(flow);
                workers[owner].stats.seed_trace(flow, records);
            }
        }
        for (t, _, ev) in pending {
            let dest = self.event_shard(link_shard, &ev);
            workers[dest].queue_event(t, ev);
        }
        workers
    }

    /// The shard that writes `flow`'s service-side stats: the owner of
    /// its route's last-hop link.
    fn service_shard(&self, link_shard: &[usize], flow: u32) -> Option<usize> {
        let idx = self.owner_of(flow)?;
        self.sources[idx]
            .route
            .hops
            .last()
            .map(|h| link_shard[h.link])
    }

    /// Reassembles the master from finished shards. Every merge below is
    /// exact — see the field-by-field arguments at the merge sites.
    fn merge(&mut self, workers: Vec<Network<S, O>>, link_shard: &[usize], base_sources: usize) {
        let mut leftovers: Vec<(f64, u64, usize, usize, NetEvent)> = Vec::new();
        let mut errors: Vec<(f64, usize, hpfq_core::HpfqError)> = Vec::new();
        let mut max_now = self.engine.now();
        self.shard_spans.clear();
        // Owner shards' `started` flags overwrite the master's below.
        self.started_below = 0;
        for (sid, mut w) in workers.into_iter().enumerate() {
            // Wall-clock spans fold into the master aggregate and are also
            // kept per shard; epoch windows (simulation time) append in
            // shard-major order.
            if SpanProfiler::ENABLED {
                let snap = w.profiler.snapshot();
                self.profiler.absorb(&snap);
                self.shard_spans.push(snap);
            }
            self.epoch_log.append(&mut w.epoch_log);
            // Links move back whole: ledger, hierarchy, observer state,
            // pending completion and all. Each was owned by exactly one
            // shard.
            for (i, slot) in w.links.iter_mut().enumerate() {
                if link_shard[i] == sid {
                    self.links[i] = slot.take();
                }
            }
            for (i, slot) in w.sources.iter_mut().enumerate() {
                if i >= base_sources {
                    // A flow added mid-run. AddFlow executes only on the
                    // shard owning link 0, which therefore holds the only
                    // real (non-replica) slot at each appended index, in
                    // order — so indices line up with a plain push.
                    if slot.src.is_some() && i == self.sources.len() {
                        // Indexed as its shard indexed it: the later
                        // registration of a flow id owns it.
                        self.push_source(SourceSlot {
                            src: slot.src.take(),
                            route: slot.route.clone(),
                            flow: slot.flow,
                            live: slot.live,
                            started: slot.started,
                            wants_delivery: slot.wants_delivery,
                            stats_slot: 0,
                        });
                    }
                    continue;
                }
                if slot.src.is_some() {
                    // Owner shard: its liveness/started flags are the
                    // authoritative ones.
                    self.sources[i].src = slot.src.take();
                    self.sources[i].live = slot.live;
                    self.sources[i].started = slot.started;
                }
            }
            // Exact counter/extremum merge (see SimStats::merge_from);
            // per-flow float fields came back from their single writer.
            self.stats.merge_from(std::mem::take(&mut w.stats));
            // Per-flow strikes advance on one shard only: max is exact.
            self.escalation.absorb_max(&w.escalation);
            // Signed per-shard deltas sum to the true in-flight count.
            self.inflight_bytes += w.inflight_bytes;
            for (t, e) in w.command_errors.drain(..) {
                errors.push((t, sid, e));
            }
            if w.engine.now() > max_now {
                max_now = w.engine.now();
            }
            for (idx, (t, minor, ev)) in w.engine.drain_ordered().into_iter().enumerate() {
                leftovers.push((t, minor, sid, idx, ev));
            }
        }
        // Post-horizon events go back into the master engine in global
        // `(time, minor, shard, shard-order)` order so a later sequential
        // or parallel segment continues deterministically.
        leftovers.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });
        // On a committed stint every leftover sits at or beyond the epoch
        // boundary no worker crossed, so this advances to `max_now`
        // exactly. A halted or failed stint leaves workers stopped at
        // different points — one shard's pending events can predate
        // another's clock. The merged state is then only a vehicle for
        // rolling back to the checkpoint, but it must still reassemble
        // without tripping the clock-monotonicity guard: cap the advance
        // at the earliest leftover.
        let clock = leftovers.first().map_or(max_now, |(t, ..)| t.min(max_now));
        self.engine.advance_to(clock);
        for (t, _, _, _, ev) in leftovers {
            self.queue_event(t, ev);
        }
        errors.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        self.command_errors
            .extend(errors.into_iter().map(|(t, _, e)| (t, e)));
    }
}

/// The per-shard epoch loop for one supervised stint. Returns how the
/// stint ended (every variant is agreed on by all workers at the same
/// epoch boundary) or the typed failure that aborted it.
#[allow(clippy::too_many_arguments)]
fn run_shard<S: NodeScheduler + Send, O: Observer + Send>(
    net: &mut Network<S, O>,
    sid: usize,
    start: f64,
    horizon: f64,
    lookahead: f64,
    stint_epochs: u64,
    epoch_base: u64,
    barrier: &PhaseBarrier,
    mailboxes: &[Mutex<Vec<Envelope>>],
    next_times: &Mutex<Vec<f64>>,
    halt_flag: &AtomicBool,
    progress: &[AtomicU64],
) -> Result<StintResult, ShardFailure> {
    let mut t_start = start;
    let mut epochs = 0u64;
    let mut send_seq = 0usize;
    let fail = |e: BarrierError, epoch: u64| match e {
        BarrierError::Timeout => ShardFailure::BarrierTimeout { shard: sid, epoch },
        BarrierError::Poisoned => ShardFailure::BarrierPoisoned { shard: sid, epoch },
    };
    loop {
        let global_epoch = epoch_base + epochs;
        progress[sid].store(global_epoch, Ordering::Relaxed);
        if let Some((ps, pe)) = net.panic_plan {
            if ps == sid && pe == global_epoch {
                net.panic_plan = None;
                // lint:allow(L002): the injected crash the containment
                // tests and the CI soak drive through the supervisor —
                // caught by the worker's catch_unwind, never propagated.
                panic!("injected shard panic (shard {sid}, epoch {global_epoch})");
            }
        }
        epochs += 1;
        let epoch_end = t_start + lookahead;
        net.engine.advance_to(t_start);
        // Drain this shard's events due inside the window (and horizon):
        // strictly before the epoch boundary, inclusively at the horizon
        // (matching the sequential loop there — see `Until::epoch`).
        // A ladder halt stops the drain immediately — like the
        // sequential loop's `while !halted` — and raises the shared halt
        // flag; results are discarded and replayed sequentially anyway,
        // the flag only ends the stint promptly on every shard.
        if SpanProfiler::ENABLED {
            net.profiler.span_enter(SpanKind::EpochCompute);
        }
        let mut handled = 0u64;
        while !net.halted && net.step(Until::epoch(epoch_end, horizon)) {
            handled += 1;
        }
        if net.halted {
            // lint:allow(L010): deliberate pre-barrier publication. Every
            // halt store is sequenced before this shard's first barrier,
            // and readers capture the flag between the barriers — where
            // no peer can be computing — so all shards decide the stint
            // outcome from the same stable value. Storing in the exchange
            // phase instead would reintroduce the read-after-barrier race
            // this protocol exists to prevent.
            halt_flag.store(true, Ordering::Relaxed);
        }
        if SpanProfiler::ENABLED {
            net.profiler.span_exit(SpanKind::EpochCompute);
        }
        if net.record_epochs {
            net.epoch_log.push(EpochSpan {
                shard: sid,
                t0: t_start,
                t1: epoch_end.min(horizon),
                events: handled,
            });
        }
        // Post everything produced for other shards. `send_seq` keeps the
        // producing order so identical `(t, minor)` envelopes from one
        // sender stay FIFO after the inbox sort.
        if SpanProfiler::ENABLED {
            net.profiler.span_enter(SpanKind::Exchange);
        }
        if let Some(ctx) = net.shard.as_mut() {
            for OutMsg { dest, t, minor, ev } in ctx.outbox.drain(..) {
                send_seq += 1;
                lock_clean(&mailboxes[dest]).push(Envelope {
                    t,
                    minor,
                    sender: sid,
                    seq: send_seq,
                    ev,
                });
            }
        }
        if SpanProfiler::ENABLED {
            net.profiler.span_exit(SpanKind::Exchange);
        }
        if SpanProfiler::ENABLED {
            net.profiler.span_enter(SpanKind::BarrierWait);
        }
        let first = barrier.wait();
        if SpanProfiler::ENABLED {
            net.profiler.span_exit(SpanKind::BarrierWait);
        }
        if let Err(e) = first {
            return Err(fail(e, global_epoch));
        }
        // All inboxes are complete now: take mine, order it canonically,
        // feed the engine.
        if SpanProfiler::ENABLED {
            net.profiler.span_enter(SpanKind::Exchange);
        }
        let mut inbox = std::mem::take(&mut *lock_clean(&mailboxes[sid]));
        inbox.sort_by(|a, b| {
            a.t.total_cmp(&b.t)
                .then(a.minor.cmp(&b.minor))
                .then(a.sender.cmp(&b.sender))
                .then(a.seq.cmp(&b.seq))
        });
        for env in inbox {
            net.queue_event(env.t, env.ev);
        }
        if SpanProfiler::ENABLED {
            net.profiler.span_exit(SpanKind::Exchange);
        }
        lock_clean(next_times)[sid] = net.next_event_time().unwrap_or(f64::INFINITY);
        // Capture the halt flag between the barriers: every shard that
        // halted this epoch stored it before the first barrier, and no
        // shard can be computing the next epoch yet (that requires
        // passing the second barrier), so the value is stable and every
        // worker captures the same one. Reading it *after* the second
        // barrier instead would race a fast peer that continued into the
        // next epoch's compute and halted there — the late reader would
        // return `Halted` one epoch early while the peer waits at a
        // barrier nobody else will reach, wedging the stint into a
        // watchdog timeout.
        let halted_this_epoch = halt_flag.load(Ordering::Relaxed);
        if SpanProfiler::ENABLED {
            net.profiler.span_enter(SpanKind::BarrierWait);
        }
        let second = barrier.wait();
        if SpanProfiler::ENABLED {
            net.profiler.span_exit(SpanKind::BarrierWait);
        }
        if let Err(e) = second {
            return Err(fail(e, global_epoch));
        }
        // Every shard computes the same stint outcome from the same
        // published state; no third barrier is needed because slot `sid`
        // is only rewritten after the *next* exchange barrier.
        if halted_this_epoch {
            return Ok(StintResult {
                epochs,
                end: StintEnd::Halted,
            });
        }
        let global_next =
            lock_clean(next_times)
                .iter()
                .fold(f64::INFINITY, |m, &t| if t < m { t } else { m });
        if !global_next.is_finite() || global_next > horizon {
            return Ok(StintResult {
                epochs,
                end: StintEnd::Finished,
            });
        }
        if epochs >= stint_epochs {
            return Ok(StintResult {
                epochs,
                end: StintEnd::CheckpointDue,
            });
        }
        t_start = global_next;
    }
}
