//! Episodes — one handled user request.
//!
//! An episode is the time interval from the point a user request is
//! dispatched until the point the request is completed (paper §II). Each
//! episode carries the interval tree of the dispatching (GUI) thread, rooted
//! at a [`IntervalKind::Dispatch`] interval, plus all sample snapshots taken
//! while the episode was in flight.

use crate::error::ModelError;
use crate::ids::{EpisodeId, ThreadId};
use crate::interval::IntervalKind;
use crate::sample::{SampleSnapshot, Samples};
use crate::time::{DurationNs, TimeNs};
use crate::tree::IntervalTree;

/// One handled user request with its interval tree and samples.
///
/// ```
/// use lagalyzer_model::prelude::*;
/// # fn main() -> Result<(), ModelError> {
/// let mut b = IntervalTreeBuilder::new();
/// b.enter(IntervalKind::Dispatch, None, TimeNs::from_millis(0))?;
/// b.exit(TimeNs::from_millis(150))?;
/// let episode = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
///     .tree(b.finish()?)
///     .build()?;
/// assert!(episode.is_perceptible(DurationNs::PERCEPTIBLE_DEFAULT));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Episode {
    id: EpisodeId,
    thread: ThreadId,
    tree: IntervalTree,
    samples: Samples,
}

impl Episode {
    /// Assembles an episode directly from its parts, **without** the
    /// validation [`EpisodeBuilder::build`] performs (dispatch root,
    /// in-window samples) and without sorting: snapshots and their thread
    /// entries are stored in input order.
    ///
    /// Like [`IntervalTree::from_nodes_unchecked`], this exists so the
    /// `lagalyzer-check` semantic checker can represent invalid episodes
    /// in order to diagnose them; analyses assume builder-validated
    /// episodes.
    pub fn from_parts_unchecked(
        id: EpisodeId,
        thread: ThreadId,
        tree: IntervalTree,
        samples: Vec<SampleSnapshot>,
    ) -> Episode {
        let mut flat = Samples::new();
        for snapshot in &samples {
            flat.push(snapshot);
        }
        Episode {
            id,
            thread,
            tree,
            samples: flat,
        }
    }

    /// Validates and assembles an episode as [`EpisodeBuilder::build`]
    /// does, taking its samples from `buffer` — a decoder's reusable
    /// scratch. The episode gets exact-size copies of the buffer's
    /// arrays, and the buffer is left empty with its capacity kept,
    /// whether or not the episode is valid.
    ///
    /// # Errors
    ///
    /// As [`EpisodeBuilder::build`].
    pub fn from_buffer(
        id: EpisodeId,
        thread: ThreadId,
        tree: IntervalTree,
        buffer: &mut Samples,
    ) -> Result<Episode, ModelError> {
        let built = check_parts(&tree, buffer).map(|()| Episode {
            id,
            thread,
            tree,
            samples: buffer.clone(),
        });
        buffer.clear();
        built
    }

    /// The episode's id (dispatch order within the session).
    pub fn id(&self) -> EpisodeId {
        self.id
    }

    /// The thread that dispatched the episode (the GUI thread in this
    /// paper's study; LagAlyzer supports multiple dispatch threads).
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The interval tree rooted at the dispatch interval.
    pub fn tree(&self) -> &IntervalTree {
        &self.tree
    }

    /// Sample snapshots taken during the episode, in time order; iterate
    /// them as [`SnapshotView`](crate::SnapshotView)s.
    ///
    /// They are stored flat (see [`Samples`]), so a decoded episode holds
    /// its samples in three allocations however many it has. A decoder
    /// sizes those arrays by the records it actually reads: the snapshot
    /// and interval counts a trace's extent index claims are checked by
    /// the `LA009` rule and never trusted for allocation.
    pub fn samples(&self) -> &Samples {
        &self.samples
    }

    /// Episode start (dispatch start).
    pub fn start(&self) -> TimeNs {
        self.tree.root_interval().start
    }

    /// Episode end (dispatch end).
    pub fn end(&self) -> TimeNs {
        self.tree.root_interval().end
    }

    /// Episode duration — the lag a user would perceive.
    pub fn duration(&self) -> DurationNs {
        self.tree.root_interval().duration()
    }

    /// True if the episode's lag is at or above `threshold` (paper: 100 ms).
    pub fn is_perceptible(&self, threshold: DurationNs) -> bool {
        self.duration() >= threshold
    }

    /// True if the dispatch interval has no children — the paper excludes
    /// such structureless episodes from pattern statistics (#Eps, Descs,
    /// Depth columns of Table III).
    pub fn is_structureless(&self) -> bool {
        self.tree.children(self.tree.root()).is_empty()
    }
}

/// Builder assembling an [`Episode`] and validating its invariants.
#[derive(Clone, Debug)]
pub struct EpisodeBuilder {
    id: EpisodeId,
    thread: ThreadId,
    tree: Option<IntervalTree>,
    samples: Samples,
}

impl EpisodeBuilder {
    /// Starts building the episode with the given identity.
    pub fn new(id: EpisodeId, thread: ThreadId) -> Self {
        EpisodeBuilder {
            id,
            thread,
            tree: None,
            samples: Samples::new(),
        }
    }

    /// Sets the interval tree (must be rooted at a dispatch interval).
    pub fn tree(mut self, tree: IntervalTree) -> Self {
        self.tree = Some(tree);
        self
    }

    /// Appends a sample snapshot taken during the episode.
    pub fn sample(mut self, snapshot: SampleSnapshot) -> Self {
        self.samples.push(&snapshot);
        self
    }

    /// Appends many sample snapshots.
    pub fn samples<I: IntoIterator<Item = SampleSnapshot>>(mut self, snapshots: I) -> Self {
        for snapshot in snapshots {
            self.samples.push(&snapshot);
        }
        self
    }

    /// Validates and builds the episode, putting its samples in canonical
    /// order (see [`Samples`]).
    ///
    /// # Errors
    ///
    /// Fails if no tree was provided, the tree's root is not a dispatch
    /// interval, or any sample falls outside the dispatch window.
    pub fn build(mut self) -> Result<Episode, ModelError> {
        let tree = self.tree.ok_or(ModelError::MissingRoot)?;
        check_parts(&tree, &mut self.samples)?;
        Ok(Episode {
            id: self.id,
            thread: self.thread,
            tree,
            samples: self.samples,
        })
    }
}

/// The checks [`EpisodeBuilder::build`] makes, canonicalizing `samples`
/// on the way: a dispatch root, and every sample inside its window.
fn check_parts(tree: &IntervalTree, samples: &mut Samples) -> Result<(), ModelError> {
    let root = tree.root_interval();
    if root.kind != IntervalKind::Dispatch {
        return Err(ModelError::RootNotDispatch { found: root.kind });
    }
    let (start, end) = (root.start, root.end);
    samples.canonicalize();
    for s in samples.iter() {
        // Samples may land exactly on the boundary instants.
        if s.time < start || s.time > end {
            return Err(ModelError::SampleOutOfRange {
                at: s.time,
                start,
                end,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::sample::{SampleSnapshot, ThreadSample, ThreadState};
    use crate::tree::IntervalTreeBuilder;

    fn ms(v: u64) -> TimeNs {
        TimeNs::from_millis(v)
    }

    fn dispatch_tree(start_ms: u64, end_ms: u64) -> IntervalTree {
        let mut b = IntervalTreeBuilder::new();
        b.enter(IntervalKind::Dispatch, None, ms(start_ms)).unwrap();
        b.exit(ms(end_ms)).unwrap();
        b.finish().unwrap()
    }

    fn snap(at_ms: u64) -> SampleSnapshot {
        SampleSnapshot::new(
            ms(at_ms),
            vec![ThreadSample::new(
                ThreadId::from_raw(0),
                ThreadState::Runnable,
                vec![],
            )],
        )
    }

    #[test]
    fn basic_accessors() {
        let e = EpisodeBuilder::new(EpisodeId::from_raw(3), ThreadId::from_raw(0))
            .tree(dispatch_tree(10, 250))
            .sample(snap(100))
            .build()
            .unwrap();
        assert_eq!(e.id(), EpisodeId::from_raw(3));
        assert_eq!(e.thread(), ThreadId::from_raw(0));
        assert_eq!(e.start(), ms(10));
        assert_eq!(e.end(), ms(250));
        assert_eq!(e.duration(), DurationNs::from_millis(240));
        assert_eq!(e.samples().len(), 1);
    }

    #[test]
    fn perceptibility_threshold_is_inclusive() {
        let exactly = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(dispatch_tree(0, 100))
            .build()
            .unwrap();
        assert!(exactly.is_perceptible(DurationNs::PERCEPTIBLE_DEFAULT));
        let under = EpisodeBuilder::new(EpisodeId::from_raw(1), ThreadId::from_raw(0))
            .tree(dispatch_tree(0, 99))
            .build()
            .unwrap();
        assert!(!under.is_perceptible(DurationNs::PERCEPTIBLE_DEFAULT));
    }

    #[test]
    fn structureless_detection() {
        let bare = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(dispatch_tree(0, 50))
            .build()
            .unwrap();
        assert!(bare.is_structureless());

        let mut b = IntervalTreeBuilder::new();
        b.enter(IntervalKind::Dispatch, None, ms(0)).unwrap();
        b.leaf(IntervalKind::Listener, None, ms(1), ms(2)).unwrap();
        b.exit(ms(3)).unwrap();
        let rich = EpisodeBuilder::new(EpisodeId::from_raw(1), ThreadId::from_raw(0))
            .tree(b.finish().unwrap())
            .build()
            .unwrap();
        assert!(!rich.is_structureless());
    }

    #[test]
    fn root_must_be_dispatch() {
        let mut b = IntervalTreeBuilder::new();
        b.leaf(IntervalKind::Paint, None, ms(0), ms(1)).unwrap();
        let err = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(b.finish().unwrap())
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ModelError::RootNotDispatch {
                found: IntervalKind::Paint
            }
        );
    }

    #[test]
    fn missing_tree_fails() {
        let err = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::MissingRoot);
    }

    #[test]
    fn out_of_range_sample_fails() {
        let err = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(dispatch_tree(10, 20))
            .sample(snap(25))
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::SampleOutOfRange { .. }));
    }

    #[test]
    fn boundary_samples_allowed() {
        let e = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(dispatch_tree(10, 20))
            .sample(snap(10))
            .sample(snap(20))
            .build()
            .unwrap();
        assert_eq!(e.samples().len(), 2);
    }

    #[test]
    fn samples_sorted_by_time() {
        let e = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(dispatch_tree(0, 100))
            .samples([snap(50), snap(10), snap(90)])
            .build()
            .unwrap();
        let times: Vec<u64> = e.samples().iter().map(|s| s.time.as_millis()).collect();
        assert_eq!(times, vec![10, 50, 90]);
    }

    #[test]
    fn unchecked_parts_keep_input_order() {
        let e = Episode::from_parts_unchecked(
            EpisodeId::from_raw(0),
            ThreadId::from_raw(0),
            dispatch_tree(0, 100),
            vec![snap(50), snap(10)],
        );
        let times: Vec<u64> = e.samples().iter().map(|s| s.time.as_millis()).collect();
        assert_eq!(times, vec![50, 10]);
    }

    #[test]
    fn from_buffer_matches_build_and_empties_the_buffer() {
        let built = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(dispatch_tree(0, 100))
            .samples([snap(50), snap(10)])
            .build()
            .unwrap();
        let mut buffer = Samples::new();
        buffer.push(&snap(50));
        buffer.push(&snap(10));
        let decoded = Episode::from_buffer(
            EpisodeId::from_raw(0),
            ThreadId::from_raw(0),
            dispatch_tree(0, 100),
            &mut buffer,
        )
        .unwrap();
        assert_eq!(decoded, built);
        assert!(buffer.is_empty());

        buffer.push(&snap(150));
        let err = Episode::from_buffer(
            EpisodeId::from_raw(1),
            ThreadId::from_raw(0),
            dispatch_tree(0, 100),
            &mut buffer,
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::SampleOutOfRange { .. }));
        assert!(buffer.is_empty());
    }

    #[test]
    fn tree_access() {
        let e = EpisodeBuilder::new(EpisodeId::from_raw(0), ThreadId::from_raw(0))
            .tree(dispatch_tree(0, 10))
            .build()
            .unwrap();
        assert_eq!(e.tree().root(), NodeId::from_raw(0));
    }
}
