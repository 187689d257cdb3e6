//! Call-stack samples of all threads.
//!
//! The tracer periodically captures the call stacks of all threads together
//! with each thread's state (paper §II-A, last bullet). A capture of all
//! threads at one instant is built as a [`SampleSnapshot`] of
//! [`ThreadSample`]s. An episode stores its snapshots flat, in
//! [`Samples`], and hands them out as borrowed [`SnapshotView`]s and
//! [`ThreadView`]s. Sampling is suppressed while a stop-the-world garbage
//! collection is in progress — the paper's Fig 1 discussion hinges on that
//! JVMTI behaviour, and the simulator reproduces it.

use std::fmt;

use crate::ids::ThreadId;
use crate::symbols::{CodeOrigin, MethodRef, OriginClassifier, SymbolTable};
use crate::time::TimeNs;

/// The scheduling state of a thread at sample time.
///
/// Mirrors the four states the paper's Fig 8 partitions GUI-thread time
/// into: blocked entering a contended monitor, waiting in `Object.wait()` /
/// `LockSupport.park()`, voluntarily sleeping, or runnable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ThreadState {
    /// Ready to run (or running).
    Runnable,
    /// Blocked trying to enter a contended monitor.
    Blocked,
    /// Waiting in `Object.wait()` or `LockSupport.park()`.
    Waiting,
    /// Voluntarily sleeping in `Thread.sleep()`.
    Sleeping,
}

impl ThreadState {
    /// All states, in Fig 8 stacking order (blocked, wait, sleep, runnable).
    pub const ALL: [ThreadState; 4] = [
        ThreadState::Blocked,
        ThreadState::Waiting,
        ThreadState::Sleeping,
        ThreadState::Runnable,
    ];

    /// Human-readable name.
    pub const fn name(self) -> &'static str {
        match self {
            ThreadState::Runnable => "runnable",
            ThreadState::Blocked => "blocked",
            ThreadState::Waiting => "waiting",
            ThreadState::Sleeping => "sleeping",
        }
    }

    /// Stable single-byte tag for the binary trace codec.
    pub const fn tag(self) -> u8 {
        match self {
            ThreadState::Runnable => b'R',
            ThreadState::Blocked => b'B',
            ThreadState::Waiting => b'W',
            ThreadState::Sleeping => b'S',
        }
    }

    /// Parses a codec tag.
    pub const fn from_tag(tag: u8) -> Option<ThreadState> {
        match tag {
            b'R' => Some(ThreadState::Runnable),
            b'B' => Some(ThreadState::Blocked),
            b'W' => Some(ThreadState::Waiting),
            b'S' => Some(ThreadState::Sleeping),
            _ => None,
        }
    }
}

impl fmt::Display for ThreadState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One frame of a sampled call stack.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StackFrame {
    /// The method executing in this frame.
    pub method: MethodRef,
    /// Whether the frame was executing native (JNI) code.
    pub native: bool,
}

impl StackFrame {
    /// A Java (non-native) frame.
    pub fn java(method: MethodRef) -> Self {
        StackFrame {
            method,
            native: false,
        }
    }

    /// A native (JNI) frame.
    pub fn native(method: MethodRef) -> Self {
        StackFrame {
            method,
            native: true,
        }
    }
}

/// One thread's entry within a [`SampleSnapshot`].
///
/// A construction value: the simulator, the text reader and test fixtures
/// build samples this way, and [`EpisodeBuilder`](crate::EpisodeBuilder)
/// copies them into the episode's flat [`Samples`]. Episodes are read
/// through [`ThreadView`]s.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ThreadSample {
    /// The sampled thread.
    pub thread: ThreadId,
    /// The thread's scheduling state.
    pub state: ThreadState,
    /// The captured stack, innermost (top) frame first. May be empty when
    /// the sampler could not walk the stack.
    pub stack: Vec<StackFrame>,
}

impl ThreadSample {
    /// Creates a thread sample.
    pub fn new(thread: ThreadId, state: ThreadState, stack: Vec<StackFrame>) -> Self {
        ThreadSample {
            thread,
            state,
            stack,
        }
    }
}

/// A capture of all threads at one instant.
///
/// Like [`ThreadSample`], a construction value that episodes do not
/// store; they are read through [`SnapshotView`]s.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SampleSnapshot {
    /// Capture instant.
    pub time: TimeNs,
    /// One entry per live thread, in thread-id order.
    pub threads: Vec<ThreadSample>,
}

impl SampleSnapshot {
    /// Creates a snapshot; thread entries are sorted by thread id so that
    /// equality and codecs are canonical.
    pub fn new(time: TimeNs, mut threads: Vec<ThreadSample>) -> Self {
        threads.sort_by_key(|t| t.thread);
        SampleSnapshot { time, threads }
    }
}

/// A range of one of the flat arrays of [`Samples`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn empty_at(at: u32) -> Span {
        Span { start: at, end: at }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Converts an array length to a stored offset.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("more than u32::MAX sample entries in one episode")
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct SnapshotHeader {
    time: TimeNs,
    threads: Span,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct ThreadHeader {
    thread: ThreadId,
    state: ThreadState,
    frames: Span,
}

/// An episode's sample snapshots, stored flat.
///
/// Like [`IntervalTree`](crate::IntervalTree)'s node arena, the samples
/// live in three arrays however many snapshots, threads and frames there
/// are: snapshot headers, thread-sample headers and one frame array.
/// Each snapshot owns a contiguous range of thread headers, and each
/// thread header a contiguous range of frames. An episode built by
/// [`EpisodeBuilder`](crate::EpisodeBuilder) holds them in canonical
/// order: snapshots sorted by time, each snapshot's threads sorted by id,
/// both sorts stable on ties. Equal samples therefore have equal arrays,
/// and the derived `PartialEq` is an exact comparison.
///
/// Read the samples through [`iter`](Samples::iter) (or by iterating
/// `&Samples`), which yields [`SnapshotView`]s. Decoders fill a reusable
/// `Samples` with [`push_snapshot`](Samples::push_snapshot),
/// [`push_thread`](Samples::push_thread) and
/// [`push_frame`](Samples::push_frame), and hand it to
/// [`Episode::from_buffer`](crate::Episode::from_buffer). The
/// arrays grow with the records actually decoded: a trace's extent
/// counts are checked by the `LA009` rule and never trusted to size them.
///
/// ```
/// use lagalyzer_model::prelude::*;
/// let mut samples = Samples::new();
/// samples.push_snapshot(TimeNs::from_millis(5));
/// samples.push_thread(ThreadId::from_raw(0), ThreadState::Runnable);
/// samples.push_frame(StackFrame::java(MethodRef {
///     class: SymbolId::from_raw(0),
///     method: SymbolId::from_raw(1),
/// }));
/// let snap = samples.iter().next().unwrap();
/// assert_eq!(snap.time, TimeNs::from_millis(5));
/// assert_eq!(snap.thread(ThreadId::from_raw(0)).unwrap().stack().len(), 1);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Samples {
    snapshots: Vec<SnapshotHeader>,
    threads: Vec<ThreadHeader>,
    frames: Vec<StackFrame>,
}

impl Samples {
    /// No samples.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// True if there are no snapshots.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// The snapshots, in stored order.
    pub fn iter(&self) -> SnapshotIter<'_> {
        SnapshotIter {
            headers: self.snapshots.iter(),
            samples: self,
        }
    }

    fn view(&self, header: &SnapshotHeader) -> SnapshotView<'_> {
        SnapshotView {
            time: header.time,
            threads: &self.threads[header.threads.range()],
            frames: &self.frames,
        }
    }

    /// Starts a snapshot captured at `time`; the threads pushed next
    /// belong to it.
    pub fn push_snapshot(&mut self, time: TimeNs) {
        self.snapshots.push(SnapshotHeader {
            time,
            threads: Span::empty_at(offset(self.threads.len())),
        });
    }

    /// Adds a thread entry to the last snapshot; the frames pushed next
    /// form its stack, innermost first.
    ///
    /// # Panics
    ///
    /// Panics if no snapshot was started.
    pub fn push_thread(&mut self, thread: ThreadId, state: ThreadState) {
        let snapshot = self
            .snapshots
            .last_mut()
            .expect("push_snapshot comes before push_thread");
        snapshot.threads.end = offset(self.threads.len() + 1);
        self.threads.push(ThreadHeader {
            thread,
            state,
            frames: Span::empty_at(offset(self.frames.len())),
        });
    }

    /// Appends a frame to the last thread entry's stack.
    ///
    /// # Panics
    ///
    /// Panics if the last snapshot has no thread entry yet.
    pub fn push_frame(&mut self, frame: StackFrame) {
        let open = self
            .snapshots
            .last()
            .is_some_and(|s| s.threads.start < s.threads.end);
        assert!(open, "push_thread comes before push_frame");
        let thread = self.threads.last_mut().expect("checked above");
        thread.frames.end = offset(self.frames.len() + 1);
        self.frames.push(frame);
    }

    /// Adds a thread entry with its whole stack to the last snapshot.
    fn push_thread_stack(&mut self, thread: ThreadId, state: ThreadState, stack: &[StackFrame]) {
        self.push_thread(thread, state);
        self.frames.extend_from_slice(stack);
        self.threads.last_mut().expect("just pushed").frames.end = offset(self.frames.len());
    }

    /// Appends a snapshot built as a [`SampleSnapshot`], keeping its
    /// thread order.
    pub fn push(&mut self, snapshot: &SampleSnapshot) {
        self.push_snapshot(snapshot.time);
        for ts in &snapshot.threads {
            self.push_thread_stack(ts.thread, ts.state, &ts.stack);
        }
    }

    /// Removes every snapshot, keeping the arrays' capacity.
    pub fn clear(&mut self) {
        self.snapshots.clear();
        self.threads.clear();
        self.frames.clear();
    }

    fn is_canonical(&self) -> bool {
        self.snapshots.windows(2).all(|w| w[0].time <= w[1].time)
            && self.snapshots.iter().all(|s| {
                self.threads[s.threads.range()]
                    .windows(2)
                    .all(|w| w[0].thread <= w[1].thread)
            })
    }

    /// Puts the samples in canonical order: snapshots by time, each
    /// snapshot's threads by id, both sorts stable. Input already in that
    /// order (what every writer emits) is left as it is.
    pub(crate) fn canonicalize(&mut self) {
        if self.is_canonical() {
            return;
        }
        let mut order: Vec<&SnapshotHeader> = self.snapshots.iter().collect();
        order.sort_by_key(|h| h.time);
        let mut out = Samples {
            snapshots: Vec::with_capacity(self.snapshots.len()),
            threads: Vec::with_capacity(self.threads.len()),
            frames: Vec::with_capacity(self.frames.len()),
        };
        let mut threads: Vec<ThreadHeader> = Vec::new();
        for header in order {
            out.push_snapshot(header.time);
            threads.clear();
            threads.extend_from_slice(&self.threads[header.threads.range()]);
            threads.sort_by_key(|t| t.thread);
            for t in &threads {
                out.push_thread_stack(t.thread, t.state, &self.frames[t.frames.range()]);
            }
        }
        *self = out;
    }
}

impl<'a> IntoIterator for &'a Samples {
    type Item = SnapshotView<'a>;
    type IntoIter = SnapshotIter<'a>;

    fn into_iter(self) -> SnapshotIter<'a> {
        self.iter()
    }
}

/// Iterator over the [`SnapshotView`]s of a [`Samples`].
#[derive(Clone, Debug)]
pub struct SnapshotIter<'a> {
    headers: std::slice::Iter<'a, SnapshotHeader>,
    samples: &'a Samples,
}

impl<'a> Iterator for SnapshotIter<'a> {
    type Item = SnapshotView<'a>;

    fn next(&mut self) -> Option<SnapshotView<'a>> {
        self.headers.next().map(|h| self.samples.view(h))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.headers.size_hint()
    }
}

impl ExactSizeIterator for SnapshotIter<'_> {}

/// A borrowed view of one snapshot: a capture of all threads at one
/// instant.
///
/// Views borrow the episode's flat [`Samples`] arrays, which a decoder
/// sized by the records it read: extent counts are checked by the `LA009`
/// rule and never trusted for allocation.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotView<'a> {
    /// Capture instant.
    pub time: TimeNs,
    threads: &'a [ThreadHeader],
    frames: &'a [StackFrame],
}

impl<'a> SnapshotView<'a> {
    /// One entry per live thread, in thread-id order.
    pub fn threads(&self) -> ThreadIter<'a> {
        ThreadIter {
            headers: self.threads.iter(),
            frames: self.frames,
        }
    }

    /// The entry for `thread`, if it was live at capture time.
    pub fn thread(&self, thread: ThreadId) -> Option<ThreadView<'a>> {
        self.threads
            .iter()
            .find(|t| t.thread == thread)
            .map(|h| ThreadView::of(h, self.frames))
    }

    /// Number of runnable threads in this snapshot — the paper's Fig 7
    /// concurrency measure counts these per sample.
    pub fn runnable_count(&self) -> usize {
        self.threads
            .iter()
            .filter(|t| t.state == ThreadState::Runnable)
            .count()
    }

    /// An owned copy, in stored thread order.
    pub fn to_snapshot(&self) -> SampleSnapshot {
        SampleSnapshot {
            time: self.time,
            threads: self
                .threads()
                .map(|t| ThreadSample::new(t.thread, t.state, t.stack().to_vec()))
                .collect(),
        }
    }
}

/// Iterator over the [`ThreadView`]s of a [`SnapshotView`].
#[derive(Clone, Debug)]
pub struct ThreadIter<'a> {
    headers: std::slice::Iter<'a, ThreadHeader>,
    frames: &'a [StackFrame],
}

impl<'a> Iterator for ThreadIter<'a> {
    type Item = ThreadView<'a>;

    fn next(&mut self) -> Option<ThreadView<'a>> {
        let frames = self.frames;
        self.headers.next().map(|h| ThreadView::of(h, frames))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.headers.size_hint()
    }
}

impl ExactSizeIterator for ThreadIter<'_> {}

/// A borrowed view of one thread's entry within a snapshot; its stack is
/// a slice of the episode's one frame array (see [`SnapshotView`]).
#[derive(Clone, Copy, Debug)]
pub struct ThreadView<'a> {
    /// The sampled thread.
    pub thread: ThreadId,
    /// The thread's scheduling state.
    pub state: ThreadState,
    /// The episode's whole frame array and this entry's range of it,
    /// sliced only when the stack is asked for: most readers look at a
    /// thread's state alone.
    frames: &'a [StackFrame],
    stack: Span,
}

impl<'a> ThreadView<'a> {
    fn of(header: &ThreadHeader, frames: &'a [StackFrame]) -> ThreadView<'a> {
        ThreadView {
            thread: header.thread,
            state: header.state,
            frames,
            stack: header.frames,
        }
    }

    /// The captured stack, innermost (top) frame first. May be empty when
    /// the sampler could not walk the stack.
    pub fn stack(&self) -> &'a [StackFrame] {
        &self.frames[self.stack.range()]
    }

    /// The innermost (executing) frame, if the stack is non-empty.
    pub fn top_frame(&self) -> Option<&'a StackFrame> {
        self.stack().first()
    }

    /// Classifies the executing frame as application or runtime-library
    /// code. Samples with empty stacks classify as library code — an empty
    /// stack means the thread was inside the VM itself.
    pub fn top_origin(&self, symbols: &SymbolTable, classifier: &OriginClassifier) -> CodeOrigin {
        match self.top_frame() {
            Some(frame) => classifier.classify(symbols, frame.method.class),
            None => CodeOrigin::RuntimeLibrary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::SymbolTable;

    fn snapshot_fixture(symbols: &mut SymbolTable) -> SampleSnapshot {
        let app = symbols.method("org.jmol.Render", "paintModel");
        let lib = symbols.method("javax.swing.JComponent", "paintComponent");
        SampleSnapshot::new(
            TimeNs::from_millis(50),
            vec![
                ThreadSample::new(
                    ThreadId::from_raw(1),
                    ThreadState::Runnable,
                    vec![StackFrame::java(lib)],
                ),
                ThreadSample::new(
                    ThreadId::from_raw(0),
                    ThreadState::Runnable,
                    vec![StackFrame::java(app), StackFrame::java(lib)],
                ),
                ThreadSample::new(ThreadId::from_raw(2), ThreadState::Waiting, vec![]),
            ],
        )
    }

    fn samples_fixture(symbols: &mut SymbolTable) -> Samples {
        let mut samples = Samples::new();
        samples.push(&snapshot_fixture(symbols));
        samples
    }

    #[test]
    fn state_tags_round_trip() {
        for s in ThreadState::ALL {
            assert_eq!(ThreadState::from_tag(s.tag()), Some(s));
        }
        assert_eq!(ThreadState::from_tag(b'?'), None);
    }

    #[test]
    fn state_names() {
        assert_eq!(ThreadState::Runnable.to_string(), "runnable");
        assert_eq!(ThreadState::Blocked.name(), "blocked");
    }

    #[test]
    fn snapshot_sorts_threads() {
        let mut symbols = SymbolTable::new();
        let snap = snapshot_fixture(&mut symbols);
        let ids: Vec<u32> = snap.threads.iter().map(|t| t.thread.as_raw()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn runnable_count_matches_fig7_semantics() {
        let mut symbols = SymbolTable::new();
        let samples = samples_fixture(&mut symbols);
        assert_eq!(samples.iter().next().unwrap().runnable_count(), 2);
    }

    #[test]
    fn thread_lookup() {
        let mut symbols = SymbolTable::new();
        let samples = samples_fixture(&mut symbols);
        let snap = samples.iter().next().unwrap();
        assert_eq!(
            snap.thread(ThreadId::from_raw(2)).unwrap().state,
            ThreadState::Waiting
        );
        assert!(snap.thread(ThreadId::from_raw(9)).is_none());
    }

    #[test]
    fn top_origin_classification() {
        let mut symbols = SymbolTable::new();
        let samples = samples_fixture(&mut symbols);
        let snap = samples.iter().next().unwrap();
        let classifier = OriginClassifier::java_default();
        let gui = snap.thread(ThreadId::from_raw(0)).unwrap();
        assert_eq!(
            gui.top_origin(&symbols, &classifier),
            CodeOrigin::Application
        );
        let bg = snap.thread(ThreadId::from_raw(1)).unwrap();
        assert_eq!(
            bg.top_origin(&symbols, &classifier),
            CodeOrigin::RuntimeLibrary
        );
        // Empty stack counts as VM-internal, i.e. library code.
        let idle = snap.thread(ThreadId::from_raw(2)).unwrap();
        assert_eq!(
            idle.top_origin(&symbols, &classifier),
            CodeOrigin::RuntimeLibrary
        );
    }

    #[test]
    fn frame_constructors() {
        let mut symbols = SymbolTable::new();
        let m = symbols.method("a.B", "c");
        assert!(!StackFrame::java(m).native);
        assert!(StackFrame::native(m).native);
    }

    #[test]
    fn flat_ranges_give_each_thread_its_own_stack() {
        let mut symbols = SymbolTable::new();
        let fixture = snapshot_fixture(&mut symbols);
        let mut samples = Samples::new();
        samples.push(&fixture);
        samples.push(&SampleSnapshot::new(TimeNs::from_millis(60), Vec::new()));
        samples.push(&fixture);
        assert_eq!(samples.len(), 3);
        let views: Vec<SnapshotView<'_>> = samples.iter().collect();
        assert_eq!(views[1].threads().len(), 0);
        for view in [views[0], views[2]] {
            assert_eq!(view.to_snapshot(), fixture);
        }
        let stacks: Vec<usize> = views[2].threads().map(|t| t.stack().len()).collect();
        assert_eq!(stacks, vec![2, 1, 0]);
    }

    #[test]
    fn clear_keeps_nothing_but_capacity() {
        let mut symbols = SymbolTable::new();
        let mut samples = samples_fixture(&mut symbols);
        samples.clear();
        assert_eq!(samples, Samples::new());
        samples.push_snapshot(TimeNs::from_millis(1));
        assert_eq!(samples.iter().next().unwrap().threads().len(), 0);
    }

    /// Stable sorts at both levels: shuffled snapshots and threads come
    /// out in time and id order, ties in their input order. (This fixed
    /// case is also what the interpreter-checked unit run covers.)
    #[test]
    fn canonicalize_sorts_both_levels_stably() {
        let f = |class: u32| {
            StackFrame::java(MethodRef {
                class: crate::ids::SymbolId::from_raw(class),
                method: crate::ids::SymbolId::from_raw(0),
            })
        };
        let (t0, t1) = (ThreadId::from_raw(0), ThreadId::from_raw(1));
        let (ms, run, wait) = (
            TimeNs::from_millis,
            ThreadState::Runnable,
            ThreadState::Waiting,
        );
        let raw = |time, threads| SampleSnapshot { time, threads };
        let shuffled = [
            raw(
                ms(9),
                vec![
                    ThreadSample::new(t1, run, vec![f(1)]),
                    ThreadSample::new(t0, wait, vec![f(2), f(3)]),
                    ThreadSample::new(t0, run, vec![]),
                ],
            ),
            raw(ms(4), vec![ThreadSample::new(t0, run, vec![f(4)])]),
            raw(ms(9), vec![ThreadSample::new(t1, wait, vec![f(5)])]),
        ];
        let canonical = [
            raw(ms(4), vec![ThreadSample::new(t0, run, vec![f(4)])]),
            raw(
                ms(9),
                vec![
                    ThreadSample::new(t0, wait, vec![f(2), f(3)]),
                    ThreadSample::new(t0, run, vec![]),
                    ThreadSample::new(t1, run, vec![f(1)]),
                ],
            ),
            raw(ms(9), vec![ThreadSample::new(t1, wait, vec![f(5)])]),
        ];
        let flat = |snaps: &[SampleSnapshot]| {
            let mut samples = Samples::new();
            for s in snaps {
                samples.push(s);
            }
            samples
        };
        let mut sorted = flat(&shuffled);
        assert!(!sorted.is_canonical());
        sorted.canonicalize();
        assert_eq!(sorted, flat(&canonical));
        let back: Vec<SampleSnapshot> = sorted.iter().map(|s| s.to_snapshot()).collect();
        assert_eq!(back, canonical);
    }

    #[test]
    #[should_panic(expected = "push_thread comes before push_frame")]
    fn frame_needs_a_thread_of_the_current_snapshot() {
        let mut samples = Samples::new();
        samples.push_snapshot(TimeNs::from_millis(1));
        samples.push_thread(ThreadId::from_raw(0), ThreadState::Runnable);
        samples.push_snapshot(TimeNs::from_millis(2));
        samples.push_frame(StackFrame::java(MethodRef {
            class: crate::ids::SymbolId::from_raw(0),
            method: crate::ids::SymbolId::from_raw(0),
        }));
    }
}
