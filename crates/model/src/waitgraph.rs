//! Cross-thread wait-edge extraction from stack samples.
//!
//! When the dispatch thread of an episode is sampled in
//! [`ThreadState::Blocked`] or [`ThreadState::Waiting`], some other thread
//! is usually the reason: the one holding the contended monitor or the one
//! that has not yet signalled the condition. Following DepGraph-style
//! dependency analysis, each such snapshot contributes one *wait edge* from
//! the waiter to every thread that was concurrently runnable — over many
//! samples the true culprit accumulates the most edges, because it keeps
//! running while the waiter keeps waiting.
//!
//! The edges are built purely from the sampled states already in the trace;
//! there are no syscall-level or monitor-ownership edges (the LiLa tracer
//! records neither), so attribution is probabilistic and degrades with the
//! sampling rate. See DESIGN.md for the limits of this model.
//!
//! An episode whose samples contain only `Waiting` (or `Blocked`) snapshots
//! with *no* concurrently-runnable thread is **not** dropped from
//! attribution: extraction still counts its wait samples
//! ([`WaitGraph::wait_samples`] is non-zero) and produces a zero-edge graph
//! ([`WaitGraph::is_empty`] is true, [`WaitGraph::top_holder`] is `None`).
//! Callers must distinguish "no wait evidence at all" (`wait_samples() ==
//! 0`) from "waited, but no candidate culprit was ever runnable" — the
//! latter typically means the culprit lives outside the sampled process
//! (disk, network, the OS scheduler).

use crate::episode::Episode;
use crate::ids::ThreadId;
use crate::sample::ThreadState;
use crate::symbols::MethodRef;

/// Evidence against one candidate culprit thread: how often it was seen
/// runnable while the waiter waited, and what it was executing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HolderProfile {
    /// The candidate culprit thread.
    pub thread: ThreadId,
    /// Snapshots in which this thread was runnable while the waiter was
    /// blocked or waiting.
    pub samples: u64,
    /// The thread's most frequently sampled top frame during those
    /// snapshots, with its count. `None` when every such sample had an
    /// empty stack.
    pub top_frame: Option<(MethodRef, u64)>,
}

/// Wait edges from one episode's dispatch thread to candidate culprits.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WaitGraph {
    /// Snapshots where the waiter was blocked on a contended monitor.
    pub blocked_samples: u64,
    /// Snapshots where the waiter was waiting/parked.
    pub waiting_samples: u64,
    /// Per-candidate evidence, sorted by descending sample count, ties
    /// broken by lower thread id (so extraction is deterministic).
    holders: Vec<HolderProfile>,
}

/// Running tally for one candidate thread while edges accumulate.
struct HolderTally {
    thread: ThreadId,
    samples: u64,
    frames: Vec<(MethodRef, u64)>,
}

impl WaitGraph {
    /// Builds the wait graph for `episode`, treating its dispatch thread
    /// as the waiter. Episodes without blocked/waiting samples produce an
    /// empty graph.
    pub fn extract(episode: &Episode) -> WaitGraph {
        let waiter = episode.thread();
        let mut blocked = 0u64;
        let mut waiting = 0u64;
        let mut tallies: Vec<HolderTally> = Vec::new();
        for snap in episode.samples() {
            let state = match snap.thread(waiter) {
                Some(ts) => ts.state,
                None => continue,
            };
            match state {
                ThreadState::Blocked => blocked += 1,
                ThreadState::Waiting => waiting += 1,
                _ => continue,
            }
            for ts in snap.threads() {
                if ts.thread == waiter || ts.state != ThreadState::Runnable {
                    continue;
                }
                let tally = match tallies.iter_mut().find(|t| t.thread == ts.thread) {
                    Some(t) => t,
                    None => {
                        tallies.push(HolderTally {
                            thread: ts.thread,
                            samples: 0,
                            frames: Vec::new(),
                        });
                        tallies.last_mut().expect("just pushed")
                    }
                };
                tally.samples += 1;
                if let Some(frame) = ts.top_frame() {
                    match tally.frames.iter_mut().find(|(m, _)| *m == frame.method) {
                        Some((_, n)) => *n += 1,
                        None => tally.frames.push((frame.method, 1)),
                    }
                }
            }
        }
        let mut holders: Vec<HolderProfile> = tallies
            .into_iter()
            .map(|t| HolderProfile {
                thread: t.thread,
                samples: t.samples,
                top_frame: t
                    .frames
                    .into_iter()
                    // Max count; ties broken by lower (class, method) raw
                    // symbol ids so the winner is order-independent.
                    .max_by(|(am, an), (bm, bn)| {
                        an.cmp(bn)
                            .then(bm.class.cmp(&am.class))
                            .then(bm.method.cmp(&am.method))
                    }),
            })
            .collect();
        holders.sort_by(|a, b| b.samples.cmp(&a.samples).then(a.thread.cmp(&b.thread)));
        WaitGraph {
            blocked_samples: blocked,
            waiting_samples: waiting,
            holders,
        }
    }

    /// Total snapshots in which the waiter was blocked or waiting.
    pub fn wait_samples(&self) -> u64 {
        self.blocked_samples + self.waiting_samples
    }

    /// All candidate culprits, strongest evidence first.
    pub fn holders(&self) -> &[HolderProfile] {
        &self.holders
    }

    /// The strongest candidate culprit, if any thread was ever runnable
    /// while the waiter waited.
    pub fn top_holder(&self) -> Option<&HolderProfile> {
        self.holders.first()
    }

    /// True when no wait edges were observed.
    pub fn is_empty(&self) -> bool {
        self.holders.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::EpisodeBuilder;
    use crate::ids::EpisodeId;
    use crate::interval::IntervalKind;
    use crate::sample::{SampleSnapshot, StackFrame, ThreadSample};
    use crate::symbols::SymbolTable;
    use crate::time::TimeNs;
    use crate::tree::IntervalTreeBuilder;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_millis(v)
    }

    fn tid(v: u32) -> ThreadId {
        ThreadId::from_raw(v)
    }

    fn episode_with(samples: Vec<SampleSnapshot>) -> Episode {
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        t.exit(ms(500)).unwrap();
        EpisodeBuilder::new(EpisodeId::from_raw(0), tid(0))
            .tree(t.finish().unwrap())
            .samples(samples)
            .build()
            .unwrap()
    }

    #[test]
    fn empty_without_wait_samples() {
        let e = episode_with(vec![SampleSnapshot::new(
            ms(10),
            vec![ThreadSample::new(tid(0), ThreadState::Runnable, vec![])],
        )]);
        let g = WaitGraph::extract(&e);
        assert!(g.is_empty());
        assert_eq!(g.wait_samples(), 0);
        assert!(g.top_holder().is_none());
    }

    #[test]
    fn culprit_accumulates_most_edges() {
        let mut symbols = SymbolTable::new();
        let rebuild = symbols.method("com.app.CacheLock", "rebuild");
        let idle = symbols.method("java.lang.Object", "wait");
        let mut samples = Vec::new();
        for i in 0..6u64 {
            // Thread 7 runs the contended rebuild in every wait snapshot;
            // thread 9 is runnable only once.
            let mut threads = vec![
                ThreadSample::new(tid(0), ThreadState::Blocked, vec![]),
                ThreadSample::new(
                    tid(7),
                    ThreadState::Runnable,
                    vec![StackFrame::java(rebuild)],
                ),
            ];
            let nine_state = if i == 2 {
                ThreadState::Runnable
            } else {
                ThreadState::Waiting
            };
            threads.push(ThreadSample::new(
                tid(9),
                nine_state,
                vec![StackFrame::java(idle)],
            ));
            samples.push(SampleSnapshot::new(ms(10 + 10 * i), threads));
        }
        let g = WaitGraph::extract(&episode_with(samples));
        assert_eq!(g.blocked_samples, 6);
        assert_eq!(g.waiting_samples, 0);
        let top = g.top_holder().unwrap();
        assert_eq!(top.thread, tid(7));
        assert_eq!(top.samples, 6);
        assert_eq!(top.top_frame, Some((rebuild, 6)));
        assert_eq!(g.holders().len(), 2);
        assert_eq!(g.holders()[1].thread, tid(9));
        assert_eq!(g.holders()[1].samples, 1);
    }

    #[test]
    fn tie_breaks_by_lower_thread_id() {
        let snap = |t: u64| {
            SampleSnapshot::new(
                ms(t),
                vec![
                    ThreadSample::new(tid(0), ThreadState::Waiting, vec![]),
                    ThreadSample::new(tid(5), ThreadState::Runnable, vec![]),
                    ThreadSample::new(tid(3), ThreadState::Runnable, vec![]),
                ],
            )
        };
        let g = WaitGraph::extract(&episode_with(vec![snap(10), snap(20)]));
        assert_eq!(g.waiting_samples, 2);
        assert_eq!(g.top_holder().unwrap().thread, tid(3));
        // Empty stacks yield no frame evidence.
        assert_eq!(g.top_holder().unwrap().top_frame, None);
    }

    #[test]
    fn waiting_only_with_no_runnable_peer_yields_zero_edge_graph() {
        // Every snapshot has the waiter in Waiting and every peer idle:
        // the episode must not be dropped — its wait samples are counted
        // — but the graph carries no edges and names no culprit.
        let samples: Vec<SampleSnapshot> = (0..4u64)
            .map(|i| {
                SampleSnapshot::new(
                    ms(10 + 10 * i),
                    vec![
                        ThreadSample::new(tid(0), ThreadState::Waiting, vec![]),
                        ThreadSample::new(tid(7), ThreadState::Waiting, vec![]),
                        ThreadSample::new(tid(9), ThreadState::Sleeping, vec![]),
                    ],
                )
            })
            .collect();
        let g = WaitGraph::extract(&episode_with(samples));
        assert_eq!(g.waiting_samples, 4);
        assert_eq!(g.blocked_samples, 0);
        assert_eq!(g.wait_samples(), 4, "wait evidence must not be dropped");
        assert!(g.is_empty(), "no runnable peer means zero edges");
        assert!(g.top_holder().is_none());
        assert!(g.holders().is_empty());
    }

    #[test]
    fn waiter_absent_from_snapshot_is_skipped() {
        let e = episode_with(vec![SampleSnapshot::new(
            ms(10),
            vec![ThreadSample::new(tid(4), ThreadState::Runnable, vec![])],
        )]);
        assert!(WaitGraph::extract(&e).is_empty());
    }
}
