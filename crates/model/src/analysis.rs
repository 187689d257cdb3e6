//! The one fold API every analysis of a session's episodes implements.
//!
//! An [`Analysis`] is a mergeable per-episode step: it starts empty
//! shards, pushes each episode into the shard that covers it, and merges
//! the shards, in episode order, into its output. Two drivers run one:
//! `lagalyzer_trace::SessionSource::fold`, which decodes a `.lgz` or
//! corpus member over worker shards and lends each episode as it decodes,
//! and [`fold_episodes`], over episodes already in memory. Both cut
//! contiguous ascending shards, so an analysis whose merge is exact gives
//! one answer for any number of workers.
//!
//! An analysis value does not borrow the session it folds. Each call gets
//! a [`Scope`], a small `Copy` view of that session's metadata and symbol
//! table, so one value can fold a salvage scan's reopened trace, every
//! member of a corpus, or a trace already decoded.

use crate::episode::Episode;
use crate::parallel::map_shards;
use crate::session::{SessionMeta, SessionTrace};
use crate::symbols::SymbolTable;

/// The session an [`Analysis`] call folds: its metadata and the symbol
/// table its episodes' symbol ids resolve through.
#[derive(Clone, Copy, Debug)]
pub struct Scope<'a> {
    /// The session metadata.
    pub meta: &'a SessionMeta,
    /// The session's symbol table.
    pub symbols: &'a SymbolTable,
}

impl<'a> Scope<'a> {
    /// The scope of a decoded trace.
    pub fn of_trace(trace: &'a SessionTrace) -> Scope<'a> {
        Scope {
            meta: trace.meta(),
            symbols: trace.symbols(),
        }
    }
}

/// A mergeable fold over one session's episodes.
///
/// A driver calls [`shard`](Analysis::shard) once per shard, then
/// [`push`](Analysis::push) for each episode of that shard in order, then
/// [`finish`](Analysis::finish) once with every shard in episode order
/// (none when no episode was admitted). `position` is where the episode
/// came from: its extent position in a decoded source, or its index in
/// the slice [`fold_episodes`] was given.
pub trait Analysis: Sync {
    /// One shard's partial result.
    type Shard: Send;
    /// The merged result.
    type Output;

    /// An empty shard.
    fn shard(&self, session: Scope<'_>) -> Self::Shard;

    /// Folds `episode`, found at `position`, into `shard`.
    fn push(&self, session: Scope<'_>, shard: &mut Self::Shard, position: usize, episode: &Episode);

    /// Merges the shards, given in episode order, into the result.
    fn finish(&self, session: Scope<'_>, shards: Vec<Self::Shard>) -> Self::Output;
}

/// A fold that keeps nothing: the decode and its checks alone.
impl Analysis for () {
    type Shard = ();
    type Output = ();

    fn shard(&self, _: Scope<'_>) {}

    fn push(&self, _: Scope<'_>, _: &mut (), _: usize, _: &Episode) {}

    fn finish(&self, _: Scope<'_>, _: Vec<()>) {}
}

/// Runs `analysis` over `episodes` of the session `session` on up to
/// `jobs` workers, sharded as [`map_shards`] shards (inline on the calling
/// thread at one job); each episode's position is its index in
/// `episodes`.
pub fn fold_episodes<A: Analysis>(
    analysis: &A,
    session: Scope<'_>,
    episodes: &[Episode],
    jobs: usize,
) -> A::Output {
    let shards = map_shards(episodes.len(), jobs, |range| {
        let mut shard = analysis.shard(session);
        for position in range {
            analysis.push(session, &mut shard, position, &episodes[position]);
        }
        shard
    });
    analysis.finish(session, shards)
}
