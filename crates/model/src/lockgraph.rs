//! Session-wide lock-graph construction from Blocked/Waiting samples.
//!
//! [`crate::waitgraph::WaitGraph`] answers "who kept running while this
//! episode's dispatch thread waited?" — one episode, one waiter. The lock
//! graph asks the structural question across a whole session: *which
//! locks* were contended, *who* waited on them, and *what was already
//! held* when the wait began. Nodes are inferred lock identities — the
//! hottest top frame of a thread's Blocked/Waiting samples, selected with
//! the same deterministic rule as [`crate::waitgraph::HolderProfile`]
//! (max sample count, ties broken by lower raw symbol ids) — and edges
//! are *held-while-acquiring* relations: the hottest enclosing frame
//! observed directly below the acquisition frame while the thread was
//! blocked.
//!
//! The identities are heuristic. The LiLa tracer records no monitor
//! addresses or ownership events, so a lock is named by the method whose
//! `synchronized` entry the waiter was parked at, and the held lock by
//! the caller frame enclosing that entry. Both degrade with the sampling
//! rate: short waits may be missed entirely, frames inlined by the JIT
//! collapse distinct locks into one identity, and a caller frame that is
//! not itself synchronized still contributes a (harmless, acyclic) edge.
//! Downstream rules therefore treat edge evidence as probabilistic and
//! gate findings on sample counts; see DESIGN.md for the limits.
//!
//! Construction is a fold: [`LockGraphs`] is the [`Analysis`] that folds
//! each episode's waits into a shard graph and merges the shard graphs in
//! shard order, so either fold driver gives the serial
//! [`LockGraph::build`] for any worker count.

use std::collections::BTreeMap;

use crate::analysis::{Analysis, Scope};
use crate::episode::Episode;
use crate::ids::{EpisodeId, ThreadId};
use crate::interval::IntervalKind;
use crate::sample::ThreadState;
use crate::symbols::MethodRef;

/// Elementary cycles longer than this are not enumerated; inversion
/// cycles in practice involve two or three locks.
const MAX_CYCLE_LEN: usize = 8;

/// Upper bound on enumerated cycles, a backstop against pathological
/// dense graphs (e.g. heavily damaged salvaged traces).
const MAX_CYCLES: usize = 64;

/// Which flavor of wait a [`ContendedWait`] records.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum WaitKind {
    /// Blocked entering a contended monitor ([`ThreadState::Blocked`]).
    Monitor,
    /// Parked on a condition ([`ThreadState::Waiting`]) — the monitor is
    /// released while waiting, so condition waits never contribute
    /// held-while-acquiring edges.
    Condition,
}

impl WaitKind {
    /// Human-readable name.
    pub const fn name(self) -> &'static str {
        match self {
            WaitKind::Monitor => "monitor",
            WaitKind::Condition => "condition",
        }
    }
}

/// The strongest concurrently-runnable peer observed during a wait — the
/// inferred holder of the contended lock, selected like
/// [`crate::waitgraph::HolderProfile`] (most samples, ties broken by
/// lower thread id).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HolderSight {
    /// The candidate holder thread.
    pub thread: ThreadId,
    /// Snapshots in which it was runnable while the waiter waited.
    pub samples: u64,
    /// Its hottest top frame during those snapshots, with count.
    pub frame: Option<(MethodRef, u64)>,
}

/// One thread's contended wait within one episode, reduced to its
/// inferred lock identity plus the supporting sample evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContendedWait {
    /// The episode the wait was observed in.
    pub episode: EpisodeId,
    /// The waiting thread.
    pub thread: ThreadId,
    /// Monitor (blocked) or condition (waiting/parked) wait.
    pub kind: WaitKind,
    /// Inferred lock identity: the hottest top frame of the wait samples.
    pub lock: MethodRef,
    /// Samples whose top frame was `lock`.
    pub lock_samples: u64,
    /// All samples of this `(thread, kind)` wait that carried a stack.
    pub samples: u64,
    /// The hottest enclosing frame directly below the acquisition frame
    /// (monitor waits only): the lock inferred to be *held* while
    /// acquiring, with its sample count. `None` when every sampled stack
    /// was a single frame.
    pub held: Option<(MethodRef, u64)>,
    /// The strongest runnable peer over the wait samples.
    pub holder: Option<HolderSight>,
    /// Longest run of consecutive snapshots spent in this wait on `lock`.
    pub longest_streak: u64,
    /// Distinct runnable peers observed during that longest run, sorted
    /// by thread id — more than one means the lock changed hands while
    /// this waiter kept waiting (holder churn).
    pub streak_holders: Vec<ThreadId>,
    /// Stop-the-world GC intervals of the episode that overlap the
    /// longest streak's sampled window (sampling is suppressed *during*
    /// GC, so overlap shows up as a gap spanned by the streak, not as
    /// extra samples).
    pub gc_overlaps: u64,
}

/// Accumulated evidence for one inferred lock (a graph node).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Samples of threads blocked entering this lock.
    pub monitor_samples: u64,
    /// Samples of threads in condition waits attributed to this lock.
    pub condition_samples: u64,
    /// Threads observed waiting on it (sorted, deduplicated).
    pub waiters: Vec<ThreadId>,
    /// Episodes contributing evidence (sorted, deduplicated).
    pub episodes: Vec<EpisodeId>,
}

impl LockStats {
    /// Total wait samples attributed to this lock.
    pub fn samples(&self) -> u64 {
        self.monitor_samples + self.condition_samples
    }
}

/// Accumulated evidence for one held-while-acquiring edge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Samples supporting the edge (held frame observed below the
    /// acquisition frame).
    pub samples: u64,
    /// Threads observed holding-while-acquiring (sorted, deduplicated).
    pub threads: Vec<ThreadId>,
    /// Episodes contributing evidence (sorted, deduplicated).
    pub episodes: Vec<EpisodeId>,
}

/// The session-wide lock graph: inferred locks, held-while-acquiring
/// edges, and the underlying per-episode contended waits.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LockGraph {
    nodes: BTreeMap<MethodRef, LockStats>,
    held_edges: BTreeMap<(MethodRef, MethodRef), EdgeStats>,
    waits: Vec<ContendedWait>,
}

/// A session's lock graph as an [`Analysis`]: each episode's contended
/// waits folded in by [`LockGraph::add_episode`], shard graphs
/// [`LockGraph::merge`]d in order, together with the number of episodes
/// folded.
#[derive(Clone, Copy, Debug, Default)]
pub struct LockGraphs;

impl Analysis for LockGraphs {
    type Shard = (LockGraph, usize);
    type Output = (LockGraph, usize);

    fn shard(&self, _: Scope<'_>) -> (LockGraph, usize) {
        (LockGraph::new(), 0)
    }

    fn push(&self, _: Scope<'_>, shard: &mut (LockGraph, usize), _: usize, episode: &Episode) {
        shard.0.add_episode(episode);
        shard.1 += 1;
    }

    fn finish(&self, session: Scope<'_>, shards: Vec<(LockGraph, usize)>) -> (LockGraph, usize) {
        let mut shards = shards.into_iter();
        let mut merged = shards.next().unwrap_or_else(|| self.shard(session));
        for (graph, episodes) in shards {
            merged.0.merge(graph);
            merged.1 += episodes;
        }
        merged
    }
}

impl LockGraph {
    /// An empty graph.
    pub fn new() -> LockGraph {
        LockGraph::default()
    }

    /// Builds the graph serially over `episodes`.
    pub fn build(episodes: &[Episode]) -> LockGraph {
        let mut graph = LockGraph::new();
        for episode in episodes {
            graph.add_episode(episode);
        }
        graph
    }

    /// Extracts `episode`'s contended waits and folds them in.
    pub fn add_episode(&mut self, episode: &Episode) {
        for wait in extract_waits(episode) {
            self.add_wait(wait);
        }
    }

    /// Folds one contended wait into the graph.
    pub fn add_wait(&mut self, wait: ContendedWait) {
        let node = self.nodes.entry(wait.lock).or_default();
        match wait.kind {
            WaitKind::Monitor => node.monitor_samples += wait.samples,
            WaitKind::Condition => node.condition_samples += wait.samples,
        }
        insert_sorted(&mut node.waiters, wait.thread);
        insert_sorted(&mut node.episodes, wait.episode);
        if wait.kind == WaitKind::Monitor {
            if let Some((held, held_samples)) = wait.held {
                let edge = self.held_edges.entry((held, wait.lock)).or_default();
                edge.samples += held_samples;
                insert_sorted(&mut edge.threads, wait.thread);
                insert_sorted(&mut edge.episodes, wait.episode);
            }
        }
        self.waits.push(wait);
    }

    /// Merges `other` into `self` (waits are appended in `other`'s
    /// order, so shard-ordered merges preserve episode order).
    pub fn merge(&mut self, other: LockGraph) {
        for (lock, stats) in other.nodes {
            let node = self.nodes.entry(lock).or_default();
            node.monitor_samples += stats.monitor_samples;
            node.condition_samples += stats.condition_samples;
            merge_sorted(&mut node.waiters, &stats.waiters);
            merge_sorted(&mut node.episodes, &stats.episodes);
        }
        for (key, stats) in other.held_edges {
            let edge = self.held_edges.entry(key).or_default();
            edge.samples += stats.samples;
            merge_sorted(&mut edge.threads, &stats.threads);
            merge_sorted(&mut edge.episodes, &stats.episodes);
        }
        self.waits.extend(other.waits);
    }

    /// A copy of the graph with every lock identity rewritten through
    /// `f` — the corpus merge path, where per-session [`MethodRef`]s are
    /// re-interned into the corpus-wide symbol table before per-session
    /// graphs are [`LockGraph::merge`]d.
    pub fn remap(&self, mut f: impl FnMut(MethodRef) -> MethodRef) -> LockGraph {
        let mut out = LockGraph::new();
        for wait in &self.waits {
            let mut wait = wait.clone();
            wait.lock = f(wait.lock);
            wait.held = wait.held.map(|(m, n)| (f(m), n));
            if let Some(holder) = &mut wait.holder {
                holder.frame = holder.frame.map(|(m, n)| (f(m), n));
            }
            out.add_wait(wait);
        }
        out
    }

    /// The inferred locks and their accumulated evidence, in
    /// deterministic [`MethodRef`] order.
    pub fn nodes(&self) -> impl Iterator<Item = (&MethodRef, &LockStats)> {
        self.nodes.iter()
    }

    /// Evidence for one lock, if it was ever waited on.
    pub fn node(&self, lock: MethodRef) -> Option<&LockStats> {
        self.nodes.get(&lock)
    }

    /// Held-while-acquiring edges `(held, acquired)` in deterministic
    /// order.
    pub fn held_edges(&self) -> impl Iterator<Item = (&(MethodRef, MethodRef), &EdgeStats)> {
        self.held_edges.iter()
    }

    /// Evidence for one directed edge.
    pub fn held_edge(&self, held: MethodRef, acquired: MethodRef) -> Option<&EdgeStats> {
        self.held_edges.get(&(held, acquired))
    }

    /// Every contended wait folded into the graph, in insertion
    /// (episode) order.
    pub fn waits(&self) -> &[ContendedWait] {
        &self.waits
    }

    /// Number of inferred locks.
    pub fn lock_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of held-while-acquiring edges.
    pub fn edge_count(&self) -> usize {
        self.held_edges.len()
    }

    /// Total wait samples across all locks.
    pub fn total_wait_samples(&self) -> u64 {
        self.nodes.values().map(LockStats::samples).sum()
    }

    /// True when no contended waits were observed.
    pub fn is_empty(&self) -> bool {
        self.waits.is_empty()
    }

    /// Self edges (`held == acquired`): a thread blocked entering a lock
    /// it already appears to be inside. Surfaced separately from
    /// [`LockGraph::cycles`], which skips them.
    pub fn self_edges(&self) -> impl Iterator<Item = (&MethodRef, &EdgeStats)> {
        self.held_edges
            .iter()
            .filter(|((held, acquired), _)| held == acquired)
            .map(|((held, _), stats)| (held, stats))
    }

    /// Enumerates elementary cycles of the held-while-acquiring relation
    /// — lock-order inversions. Each cycle is listed once, rotated so its
    /// smallest lock comes first, in deterministic order; self edges are
    /// excluded (see [`LockGraph::self_edges`]). Length is capped at
    /// `MAX_CYCLE_LEN` locks and the total at `MAX_CYCLES`.
    pub fn cycles(&self) -> Vec<Vec<MethodRef>> {
        let mut adj: BTreeMap<MethodRef, Vec<MethodRef>> = BTreeMap::new();
        for (held, acquired) in self.held_edges.keys() {
            if held != acquired {
                // BTreeMap keys iterate sorted, so each adjacency list is
                // built already sorted by acquired lock.
                adj.entry(*held).or_default().push(*acquired);
            }
        }
        let mut out = Vec::new();
        for &start in adj.keys().collect::<Vec<_>>() {
            if out.len() >= MAX_CYCLES {
                break;
            }
            let mut path = vec![start];
            dfs_cycles(&adj, start, start, &mut path, &mut out);
        }
        out.truncate(MAX_CYCLES);
        out
    }
}

/// Depth-first enumeration of elementary cycles whose *minimum* lock is
/// `start`: only locks ordered after `start` may join the path, so every
/// cycle is produced exactly once, canonically rotated.
fn dfs_cycles(
    adj: &BTreeMap<MethodRef, Vec<MethodRef>>,
    start: MethodRef,
    at: MethodRef,
    path: &mut Vec<MethodRef>,
    out: &mut Vec<Vec<MethodRef>>,
) {
    let Some(nexts) = adj.get(&at) else { return };
    for &next in nexts {
        if out.len() >= MAX_CYCLES {
            return;
        }
        if next == start {
            if path.len() >= 2 {
                out.push(path.clone());
            }
            continue;
        }
        if next < start || path.len() >= MAX_CYCLE_LEN || path.contains(&next) {
            continue;
        }
        path.push(next);
        dfs_cycles(adj, start, next, path, out);
        path.pop();
    }
}

/// One candidate holder seen during a wait: the runnable peer thread,
/// how many samples it appeared in, and a frame histogram of its tops.
type HolderTally = (ThreadId, u64, Vec<(MethodRef, u64)>);

/// Running tallies for one `(thread, kind)` wait while extraction scans
/// the episode's snapshots.
struct WaitTally {
    thread: ThreadId,
    kind: WaitKind,
    samples: u64,
    tops: Vec<(MethodRef, u64)>,
    callers: Vec<(MethodRef, u64)>,
    holders: Vec<HolderTally>,
}

/// Extracts every contended wait of `episode` — all threads, not just the
/// dispatch thread. Samples with empty stacks carry no lock identity and
/// are skipped (a sampling limit, like
/// [`crate::waitgraph::WaitGraph`]'s frame evidence). Waits are returned
/// sorted by `(thread, kind)`.
pub fn extract_waits(episode: &Episode) -> Vec<ContendedWait> {
    let mut tallies: Vec<WaitTally> = Vec::new();
    for snap in episode.samples() {
        for ts in snap.threads() {
            let kind = match ts.state {
                ThreadState::Blocked => WaitKind::Monitor,
                ThreadState::Waiting => WaitKind::Condition,
                _ => continue,
            };
            let Some(top) = ts.top_frame() else { continue };
            let tally = match tallies
                .iter_mut()
                .find(|t| t.thread == ts.thread && t.kind == kind)
            {
                Some(t) => t,
                None => {
                    tallies.push(WaitTally {
                        thread: ts.thread,
                        kind,
                        samples: 0,
                        tops: Vec::new(),
                        callers: Vec::new(),
                        holders: Vec::new(),
                    });
                    tallies.last_mut().expect("just pushed")
                }
            };
            tally.samples += 1;
            bump(&mut tally.tops, top.method);
            if kind == WaitKind::Monitor {
                if let Some(caller) = ts.stack().get(1) {
                    bump(&mut tally.callers, caller.method);
                }
            }
            for peer in snap.threads() {
                if peer.thread == ts.thread || peer.state != ThreadState::Runnable {
                    continue;
                }
                let holder = match tally.holders.iter_mut().find(|(t, _, _)| *t == peer.thread) {
                    Some(h) => h,
                    None => {
                        tally.holders.push((peer.thread, 0, Vec::new()));
                        tally.holders.last_mut().expect("just pushed")
                    }
                };
                holder.1 += 1;
                if let Some(frame) = peer.top_frame() {
                    bump(&mut holder.2, frame.method);
                }
            }
        }
    }
    tallies.sort_by(|a, b| a.thread.cmp(&b.thread).then(a.kind.cmp(&b.kind)));

    let gc: Vec<_> = episode
        .tree()
        .nodes()
        .iter()
        .filter(|n| n.interval.kind == IntervalKind::Gc)
        .map(|n| (n.interval.start, n.interval.end))
        .collect();

    tallies
        .into_iter()
        .map(|tally| {
            let (lock, lock_samples) = hottest(&tally.tops).expect("tallies require a top frame");
            let held = if tally.kind == WaitKind::Monitor {
                hottest(&tally.callers)
            } else {
                None
            };
            let holder = tally
                .holders
                .iter()
                // Most samples first; ties go to the lower thread id, the
                // same rule HolderProfile sorting applies.
                .max_by(|(at, an, _), (bt, bn, _)| an.cmp(bn).then(bt.cmp(at)))
                .map(|(thread, samples, frames)| HolderSight {
                    thread: *thread,
                    samples: *samples,
                    frame: hottest(frames),
                });
            let (longest_streak, streak_holders, window) =
                streak_of(episode, tally.thread, tally.kind, lock);
            let gc_overlaps = window.map_or(0, |(first, last)| {
                gc.iter()
                    .filter(|(start, end)| *start <= last && *end >= first)
                    .count() as u64
            });
            ContendedWait {
                episode: episode.id(),
                thread: tally.thread,
                kind: tally.kind,
                lock,
                lock_samples,
                samples: tally.samples,
                held,
                holder,
                longest_streak,
                streak_holders,
                gc_overlaps,
            }
        })
        .collect()
}

/// The hottest frame of a tally: max count, ties broken by lower raw
/// `(class, method)` symbol ids — the exact `HolderProfile` selection,
/// so identities are order-independent.
fn hottest(frames: &[(MethodRef, u64)]) -> Option<(MethodRef, u64)> {
    frames
        .iter()
        .max_by(|(am, an), (bm, bn)| {
            an.cmp(bn)
                .then(bm.class.cmp(&am.class))
                .then(bm.method.cmp(&am.method))
        })
        .copied()
}

/// Longest run of consecutive snapshots in which `thread` was in `kind`
/// with `lock` on top, the distinct runnable peers seen during that run
/// (sorted), and the first/last sample times of that run.
fn streak_of(
    episode: &Episode,
    thread: ThreadId,
    kind: WaitKind,
    lock: MethodRef,
) -> (
    u64,
    Vec<ThreadId>,
    Option<(crate::time::TimeNs, crate::time::TimeNs)>,
) {
    let wanted = match kind {
        WaitKind::Monitor => ThreadState::Blocked,
        WaitKind::Condition => ThreadState::Waiting,
    };
    let mut best = 0u64;
    let mut best_holders: Vec<ThreadId> = Vec::new();
    let mut best_window: Option<(crate::time::TimeNs, crate::time::TimeNs)> = None;
    let mut run = 0u64;
    let mut run_holders: Vec<ThreadId> = Vec::new();
    let mut run_start = crate::time::TimeNs::ZERO;
    for snap in episode.samples() {
        let in_wait = snap
            .thread(thread)
            .is_some_and(|ts| ts.state == wanted && ts.top_frame().map(|f| f.method) == Some(lock));
        if in_wait {
            if run == 0 {
                run_start = snap.time;
            }
            run += 1;
            for peer in snap.threads() {
                if peer.thread != thread && peer.state == ThreadState::Runnable {
                    insert_sorted(&mut run_holders, peer.thread);
                }
            }
            if run > best {
                best = run;
                best_holders.clone_from(&run_holders);
                best_window = Some((run_start, snap.time));
            }
        } else {
            run = 0;
            run_holders.clear();
        }
    }
    (best, best_holders, best_window)
}

fn bump(frames: &mut Vec<(MethodRef, u64)>, method: MethodRef) {
    match frames.iter_mut().find(|(m, _)| *m == method) {
        Some((_, n)) => *n += 1,
        None => frames.push((method, 1)),
    }
}

fn insert_sorted<T: Ord + Copy>(v: &mut Vec<T>, item: T) {
    if let Err(pos) = v.binary_search(&item) {
        v.insert(pos, item);
    }
}

fn merge_sorted<T: Ord + Copy>(v: &mut Vec<T>, other: &[T]) {
    for &item in other {
        insert_sorted(v, item);
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

    fn episode_with(id: u32, samples: Vec<SampleSnapshot>) -> Episode {
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        t.exit(ms(500)).unwrap();
        EpisodeBuilder::new(EpisodeId::from_raw(id), tid(0))
            .tree(t.finish().unwrap())
            .samples(samples)
            .build()
            .unwrap()
    }

    fn two_locks(symbols: &mut SymbolTable) -> (MethodRef, MethodRef) {
        (
            symbols.method("com.app.sync.OrderA", "enter"),
            symbols.method("com.app.sync.OrderB", "enter"),
        )
    }

    #[test]
    fn no_waits_means_empty_graph() {
        let e = episode_with(
            0,
            vec![SampleSnapshot::new(
                ms(10),
                vec![ThreadSample::new(tid(0), ThreadState::Runnable, vec![])],
            )],
        );
        let g = LockGraph::build(std::slice::from_ref(&e));
        assert!(g.is_empty());
        assert_eq!(g.lock_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn blocked_with_empty_stack_is_skipped() {
        let e = episode_with(
            0,
            vec![SampleSnapshot::new(
                ms(10),
                vec![ThreadSample::new(tid(0), ThreadState::Blocked, vec![])],
            )],
        );
        assert!(extract_waits(&e).is_empty());
    }

    #[test]
    fn abba_inversion_is_a_cycle_with_both_threads() {
        let mut symbols = SymbolTable::new();
        let (a, b) = two_locks(&mut symbols);
        let mut samples = Vec::new();
        for i in 0..4u64 {
            samples.push(SampleSnapshot::new(
                ms(10 + 10 * i),
                vec![
                    // GUI holds A, acquires B; worker holds B, acquires A.
                    ThreadSample::new(
                        tid(0),
                        ThreadState::Blocked,
                        vec![StackFrame::java(b), StackFrame::java(a)],
                    ),
                    ThreadSample::new(
                        tid(7),
                        ThreadState::Blocked,
                        vec![StackFrame::java(a), StackFrame::java(b)],
                    ),
                ],
            ));
        }
        let e = episode_with(3, samples);
        let g = LockGraph::build(std::slice::from_ref(&e));
        assert_eq!(g.lock_count(), 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.held_edge(a, b).unwrap().samples, 4);
        assert_eq!(g.held_edge(a, b).unwrap().threads, vec![tid(0)]);
        assert_eq!(g.held_edge(b, a).unwrap().threads, vec![tid(7)]);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0], vec![a, b]);
    }

    #[test]
    fn consistent_order_has_no_cycle() {
        let mut symbols = SymbolTable::new();
        let (a, b) = two_locks(&mut symbols);
        let samples = vec![SampleSnapshot::new(
            ms(10),
            vec![
                ThreadSample::new(
                    tid(0),
                    ThreadState::Blocked,
                    vec![StackFrame::java(b), StackFrame::java(a)],
                ),
                ThreadSample::new(
                    tid(7),
                    ThreadState::Blocked,
                    vec![StackFrame::java(b), StackFrame::java(a)],
                ),
            ],
        )];
        let g = LockGraph::build(&[episode_with(0, samples)]);
        assert_eq!(g.edge_count(), 1);
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn lock_identity_uses_holder_profile_tie_break() {
        let mut symbols = SymbolTable::new();
        let (a, b) = two_locks(&mut symbols);
        // One sample on each of two locks: equal counts, the lower
        // (class, method) raw ids — interned first — must win.
        let snap = |t: u64, lock: MethodRef| {
            SampleSnapshot::new(
                ms(t),
                vec![ThreadSample::new(
                    tid(0),
                    ThreadState::Blocked,
                    vec![StackFrame::java(lock)],
                )],
            )
        };
        let e = episode_with(0, vec![snap(10, b), snap(20, a)]);
        let waits = extract_waits(&e);
        assert_eq!(waits.len(), 1);
        assert_eq!(waits[0].lock, a);
        assert_eq!(waits[0].lock_samples, 1);
        assert_eq!(waits[0].samples, 2);
    }

    #[test]
    fn condition_waits_make_nodes_but_no_edges() {
        let mut symbols = SymbolTable::new();
        let idle = symbols.method("java.lang.Object", "wait");
        let outer = symbols.method("com.app.Worker", "run");
        let samples = vec![SampleSnapshot::new(
            ms(10),
            vec![ThreadSample::new(
                tid(4),
                ThreadState::Waiting,
                vec![StackFrame::java(idle), StackFrame::java(outer)],
            )],
        )];
        let g = LockGraph::build(&[episode_with(0, samples)]);
        assert_eq!(g.lock_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node(idle).unwrap().condition_samples, 1);
        assert_eq!(g.node(idle).unwrap().monitor_samples, 0);
        assert_eq!(g.waits()[0].kind, WaitKind::Condition);
        assert_eq!(g.waits()[0].held, None);
    }

    #[test]
    fn self_edge_is_not_a_cycle() {
        let mut symbols = SymbolTable::new();
        let a = symbols.method("com.app.sync.Reentrant", "enter");
        let samples = vec![SampleSnapshot::new(
            ms(10),
            vec![ThreadSample::new(
                tid(0),
                ThreadState::Blocked,
                vec![StackFrame::java(a), StackFrame::java(a)],
            )],
        )];
        let g = LockGraph::build(&[episode_with(0, samples)]);
        assert!(g.cycles().is_empty());
        let selfs: Vec<_> = g.self_edges().collect();
        assert_eq!(selfs.len(), 1);
        assert_eq!(*selfs[0].0, a);
    }

    #[test]
    fn streak_and_holder_churn() {
        let mut symbols = SymbolTable::new();
        let (a, _) = two_locks(&mut symbols);
        let work = symbols.method("com.app.Worker", "spin");
        let mut samples = Vec::new();
        // Six consecutive blocked snapshots; the runnable peer rotates
        // through three worker threads (holder churn), then the waiter
        // runs once, then blocks twice more (shorter second streak).
        for i in 0..6u64 {
            samples.push(SampleSnapshot::new(
                ms(10 + 10 * i),
                vec![
                    ThreadSample::new(tid(0), ThreadState::Blocked, vec![StackFrame::java(a)]),
                    ThreadSample::new(
                        tid(7 + (i % 3) as u32),
                        ThreadState::Runnable,
                        vec![StackFrame::java(work)],
                    ),
                ],
            ));
        }
        samples.push(SampleSnapshot::new(
            ms(70),
            vec![ThreadSample::new(tid(0), ThreadState::Runnable, vec![])],
        ));
        for i in 0..2u64 {
            samples.push(SampleSnapshot::new(
                ms(80 + 10 * i),
                vec![ThreadSample::new(
                    tid(0),
                    ThreadState::Blocked,
                    vec![StackFrame::java(a)],
                )],
            ));
        }
        let waits = extract_waits(&episode_with(0, samples));
        assert_eq!(waits.len(), 1);
        let w = &waits[0];
        assert_eq!(w.samples, 8);
        assert_eq!(w.longest_streak, 6);
        assert_eq!(w.streak_holders, vec![tid(7), tid(8), tid(9)]);
        // The holder with the most samples wins; ties break low.
        assert_eq!(w.holder.as_ref().unwrap().thread, tid(7));
        assert_eq!(w.holder.as_ref().unwrap().samples, 2);
    }

    #[test]
    fn gc_overlap_counts_spanned_collections() {
        let mut symbols = SymbolTable::new();
        let (a, _) = two_locks(&mut symbols);
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        t.enter(IntervalKind::Gc, None, ms(30)).unwrap();
        t.exit(ms(60)).unwrap();
        t.exit(ms(500)).unwrap();
        // Samples at 10 ms and 80 ms straddle the 30–60 ms collection;
        // sampling inside it is suppressed, so the overlap shows as a
        // spanned interval, not as extra samples.
        let samples = vec![
            SampleSnapshot::new(
                ms(10),
                vec![ThreadSample::new(
                    tid(0),
                    ThreadState::Blocked,
                    vec![StackFrame::java(a)],
                )],
            ),
            SampleSnapshot::new(
                ms(80),
                vec![ThreadSample::new(
                    tid(0),
                    ThreadState::Blocked,
                    vec![StackFrame::java(a)],
                )],
            ),
        ];
        let e = EpisodeBuilder::new(EpisodeId::from_raw(0), tid(0))
            .tree(t.finish().unwrap())
            .samples(samples)
            .build()
            .unwrap();
        let waits = extract_waits(&e);
        assert_eq!(waits.len(), 1);
        assert_eq!(waits[0].gc_overlaps, 1);
        // A streak that never spans the collection window sees none.
        assert_eq!(waits[0].longest_streak, 2);
    }

    #[test]
    fn parallel_build_is_byte_identical() {
        let mut symbols = SymbolTable::new();
        let (a, b) = two_locks(&mut symbols);
        let episodes: Vec<Episode> = (0..17u32)
            .map(|i| {
                let (top, caller) = if i % 3 == 0 { (b, a) } else { (a, b) };
                episode_with(
                    i,
                    vec![SampleSnapshot::new(
                        ms(10),
                        vec![
                            ThreadSample::new(
                                tid(i % 4),
                                ThreadState::Blocked,
                                vec![StackFrame::java(top), StackFrame::java(caller)],
                            ),
                            ThreadSample::new(tid(11), ThreadState::Runnable, vec![]),
                        ],
                    )],
                )
            })
            .collect();
        let meta = crate::session::SessionMeta {
            application: "A".into(),
            session: crate::ids::SessionId::from_raw(0),
            gui_thread: tid(0),
            end_to_end: crate::time::DurationNs::from_secs(1),
            filter_threshold: crate::time::DurationNs::TRACE_FILTER_DEFAULT,
        };
        let scope = Scope {
            meta: &meta,
            symbols: &symbols,
        };
        let serial = LockGraph::build(&episodes);
        for jobs in [1, 2, 3, 5, 8] {
            let folded = crate::analysis::fold_episodes(&LockGraphs, scope, &episodes, jobs);
            assert_eq!(folded, (serial.clone(), episodes.len()));
        }
        assert_eq!(serial.waits().len(), 17);
        assert_eq!(serial.cycles().len(), 1);
    }

    #[test]
    fn remap_reinterns_identities() {
        let mut local = SymbolTable::new();
        let (a, b) = two_locks(&mut local);
        let samples = vec![SampleSnapshot::new(
            ms(10),
            vec![ThreadSample::new(
                tid(0),
                ThreadState::Blocked,
                vec![StackFrame::java(b), StackFrame::java(a)],
            )],
        )];
        let g = LockGraph::build(&[episode_with(0, samples)]);
        let mut global = SymbolTable::new();
        global.intern("something.else.First");
        let remapped = g.remap(|m| MethodRef {
            class: global.intern(local.resolve(m.class).unwrap()),
            method: global.intern(local.resolve(m.method).unwrap()),
        });
        assert_eq!(remapped.lock_count(), 1);
        let (lock, _) = remapped.nodes().next().unwrap();
        assert_eq!(global.render(*lock), "com.app.sync.OrderB.enter");
        assert_eq!(remapped.edge_count(), 1);
        assert_eq!(remapped.total_wait_samples(), g.total_wait_samples());
    }
}
