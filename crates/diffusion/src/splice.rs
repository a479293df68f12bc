//! One RR-set stream generated on several threads, identical to the
//! serial loop.
//!
//! [`RrArena::generate_for`] draws every set from the caller's RNG: a set
//! takes a root draw and then the draws of its reverse BFS, and the next
//! set starts at the draw after. Two facts make that stream parallel:
//!
//! * each set is a deterministic function of the draw offset it starts at
//!   (every `Rng` call takes exactly one `next_u64`, and the BFS keeps no
//!   state from one set to the next);
//! * `Pcg64Mcg::advance` jumps to any offset in O(log k).
//!
//! So a thread can *speculate*: jump to the first draw of a fixed-size
//! segment of the stream, take a set to start there and parse on. That
//! parse is wrong at first, but as soon as one of its set starts is also a
//! start of the true parse, the two agree from there on, since each set
//! decides where the next begins. Two parses of one stream that begin a
//! few draws apart share a start within a few sets (the "Kruskal count").
//!
//! The calling thread walks the true parse in order. At each segment it
//! takes that segment's speculative parse when one is ready, draws true
//! sets serially until its position is one of the parse's starts, and
//! then copies the rest of the parse in one go. A segment nobody has
//! claimed it draws itself, and while another thread is still parsing
//! the segment in front of it, it speculates on a later one instead of
//! waiting. Whatever the speculation does, every set appended is the set
//! the serial loop draws at that position: a parse that never shares a
//! start is passed over serially. The call stops at exactly `count` sets
//! and leaves the caller's RNG where the serial loop would.

use crate::arena::RrArena;
use crate::models::{AdId, PropagationModel};
use crate::rr::{ResolvedModel, RrGenerator, RrStrategy};
use rand::RngCore;
use rand_pcg::Pcg64Mcg;
use rmsa_graph::NodeId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Draws per speculative segment: about 2,000 flixster-syn TIC sets,
/// enough to make the few sets a splice draws serially negligible, and
/// few enough that a parse held for the merge stays small.
const SEGMENT_DRAWS: u64 = 1 << 15;

/// Segments a parse may run ahead of the merge, per thread: the bound on
/// parse buffers held at once.
const AHEAD_PER_THREAD: usize = 2;

/// Sets between two checks of a speculating thread for the end of the
/// call.
const STOP_POLL_SETS: usize = 64;

/// The caller's RNG with a count of the draws taken from it, so `draws`
/// is the offset in the call's stream of the next draw.
struct Counted {
    rng: Pcg64Mcg,
    draws: u64,
}

impl Counted {
    /// The stream `base`, positioned at draw offset `draws`.
    fn at(base: &Pcg64Mcg, draws: u64) -> Self {
        let mut rng = base.clone();
        rng.advance(u128::from(draws));
        Counted { rng, draws }
    }

    /// Skip forward to draw offset `to`.
    fn jump(&mut self, to: u64) {
        self.rng.advance(u128::from(to - self.draws));
        self.draws = to;
    }
}

impl RngCore for Counted {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }
}

/// What every thread of one call reads.
struct Job<'a, 'm, M: ?Sized> {
    source: &'a ResolvedModel<'m, M>,
    ad: AdId,
    strategy: RrStrategy,
    /// The caller's stream at the call's first draw.
    base: &'a Pcg64Mcg,
}

impl<M: PropagationModel + ?Sized> Job<'_, '_, M> {
    fn generator(&self) -> RrGenerator {
        RrGenerator::new(self.source.graph().num_nodes(), self.strategy)
    }
}

/// A speculative parse of one segment: the sets that start in
/// `[segment · SEGMENT_DRAWS, (segment + 1) · SEGMENT_DRAWS)` when a set is
/// taken to start at the segment's first draw.
#[derive(Default)]
struct Parse {
    segment: usize,
    /// Each set's start offset, then the offset of the draw after the last.
    starts: Vec<u64>,
    /// Each set's exclusive end in `nodes`.
    ends: Vec<usize>,
    nodes: Vec<NodeId>,
}

impl Parse {
    /// Parse `segment` afresh; false when `stop` was raised before the end.
    fn run<M: PropagationModel + ?Sized>(
        &mut self,
        segment: usize,
        job: &Job<'_, '_, M>,
        gen: &mut RrGenerator,
        stop: &AtomicBool,
    ) -> bool {
        self.segment = segment;
        self.starts.clear();
        self.ends.clear();
        self.nodes.clear();
        let (from, to) = segment_draws(segment);
        let mut rng = Counted::at(job.base, from);
        self.starts.push(from);
        while rng.draws < to {
            if self.ends.len().is_multiple_of(STOP_POLL_SETS) && stop.load(Ordering::Relaxed) {
                return false;
            }
            gen.draw_into(job.source, job.ad, &mut rng, &mut self.nodes);
            self.ends.push(self.nodes.len());
            self.starts.push(rng.draws);
        }
        true
    }
}

/// The first draw of `segment` and of the one after it.
fn segment_draws(segment: usize) -> (u64, u64) {
    let from = segment as u64 * SEGMENT_DRAWS;
    (from, from + SEGMENT_DRAWS)
}

/// What the merge does next.
enum Step {
    /// Splice in a ready parse of the merge's segment.
    Splice(Parse),
    /// Draw the rest of the merge's segment serially: nobody claimed it.
    Serial,
    /// Parse a later segment while another thread parses this one.
    Speculate(usize, Parse),
}

/// The state the threads of one call coordinate through.
struct Board {
    /// Segment the merge is in; no parse is claimed `ahead` or more
    /// segments in front of it.
    merging: usize,
    /// First segment nobody has claimed.
    unclaimed: usize,
    /// Finished parses the merge has not taken yet.
    ready: Vec<Parse>,
    /// Emptied parse buffers, for reuse.
    spare: Vec<Parse>,
    done: bool,
}

struct Shared {
    board: Mutex<Board>,
    changed: Condvar,
    /// `board.done`, readable without the lock by a thread mid-parse.
    stop: AtomicBool,
    ahead: usize,
}

impl Shared {
    fn new(ahead: usize) -> Self {
        Shared {
            board: Mutex::new(Board {
                merging: 0,
                // Segment 0 starts on the true parse: the merge draws it.
                unclaimed: 1,
                ready: Vec::new(),
                spare: Vec::new(),
                done: false,
            }),
            changed: Condvar::new(),
            stop: AtomicBool::new(false),
            ahead,
        }
    }

    // A panicking thread leaves the board consistent (every update is one
    // assignment or push), so a poisoned lock is still usable.
    fn board(&self) -> MutexGuard<'_, Board> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, board: MutexGuard<'a, Board>) -> MutexGuard<'a, Board> {
        self.changed
            .wait(board)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// A speculating thread: claim segments within reach of the merge,
    /// parse them and hand them over, until the call is done.
    fn speculate<M: PropagationModel + ?Sized>(&self, job: &Job<'_, '_, M>) {
        let mut gen = job.generator();
        loop {
            let (segment, mut parse) = {
                let mut board = self.board();
                while !board.done && board.unclaimed >= board.merging + self.ahead {
                    board = self.wait(board);
                }
                if board.done {
                    return;
                }
                board.unclaimed += 1;
                (board.unclaimed - 1, board.spare.pop().unwrap_or_default())
            };
            if parse.run(segment, job, &mut gen, &self.stop) {
                self.publish(parse);
            }
        }
    }

    fn publish(&self, parse: Parse) {
        self.board().ready.push(parse);
        self.changed.notify_all();
    }

    fn recycle(&self, parse: Parse) {
        self.board().spare.push(parse);
    }

    /// Decide the merge's next step at `segment`, waiting while the only
    /// useful work is another thread's parse of it.
    fn next_step(&self, segment: usize) -> Step {
        let mut board = self.board();
        if board.merging != segment {
            board.merging = segment;
            self.changed.notify_all();
        }
        loop {
            // Parses of segments the merge has passed are of no use.
            while let Some(i) = board.ready.iter().position(|p| p.segment < segment) {
                let stale = board.ready.swap_remove(i);
                board.spare.push(stale);
            }
            if let Some(i) = board.ready.iter().position(|p| p.segment == segment) {
                return Step::Splice(board.ready.swap_remove(i));
            }
            if board.unclaimed <= segment {
                board.unclaimed = segment + 1;
                return Step::Serial;
            }
            if board.unclaimed < segment + self.ahead {
                board.unclaimed += 1;
                let parse = board.spare.pop().unwrap_or_default();
                return Step::Speculate(board.unclaimed - 1, parse);
            }
            board = self.wait(board);
        }
    }

    /// End the call: speculating threads stop and return.
    fn finish(&self) {
        self.board().done = true;
        self.stop.store(true, Ordering::Relaxed);
        self.changed.notify_all();
    }
}

/// Ends the call when dropped, so a panic on the merging thread cannot
/// leave the speculating threads waiting.
struct FinishOnDrop<'a>(&'a Shared);

impl Drop for FinishOnDrop<'_> {
    fn drop(&mut self) {
        self.0.finish();
    }
}

impl RrArena {
    /// Append the next `count` sets of `ad`'s stream from `rng` on
    /// `threads ≥ 2` threads, exactly as the serial loop of
    /// [`RrArena::generate_for`] appends them, and leave `rng` where that
    /// loop leaves it.
    pub(crate) fn generate_spliced<M: PropagationModel + ?Sized>(
        &mut self,
        source: &ResolvedModel<'_, M>,
        ad: AdId,
        count: usize,
        threads: usize,
        rng: &mut Pcg64Mcg,
    ) {
        let base = rng.clone();
        let job = Job {
            source,
            ad,
            strategy: self.strategy,
            base: &base,
        };
        let shared = Shared::new(AHEAD_PER_THREAD * threads);
        let mut merge = Counted::at(&base, 0);
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(|| shared.speculate(&job));
            }
            let _finish = FinishOnDrop(&shared);
            self.merge(&job, &shared, self.len() + count, &mut merge);
        });
        *rng = merge.rng;
    }

    /// Walk the true parse from `rng`'s position until the arena holds
    /// `target` sets.
    fn merge<M: PropagationModel + ?Sized>(
        &mut self,
        job: &Job<'_, '_, M>,
        shared: &Shared,
        target: usize,
        rng: &mut Counted,
    ) {
        let mut gen = job.generator();
        let mut step = Step::Serial;
        loop {
            match step {
                Step::Splice(parse) => {
                    self.splice(&parse, job, &mut gen, rng, target);
                    shared.recycle(parse);
                }
                Step::Serial => {
                    let (_, end) = segment_draws(segment_of(rng));
                    while rng.draws < end && self.len() < target {
                        self.emit_for(job.source, job.ad, &mut gen, rng);
                    }
                }
                Step::Speculate(segment, mut parse) => {
                    if parse.run(segment, job, &mut gen, &shared.stop) {
                        shared.publish(parse);
                    }
                }
            }
            if self.len() >= target {
                return;
            }
            step = shared.next_step(segment_of(rng));
        }
    }

    /// Append true sets from `rng`'s position: serially until the position
    /// is one of `parse`'s starts, then `parse`'s sets from there on, up
    /// to `target` sets. A parse the true one passes without sharing a
    /// start contributes nothing.
    fn splice<M: PropagationModel + ?Sized>(
        &mut self,
        parse: &Parse,
        job: &Job<'_, '_, M>,
        gen: &mut RrGenerator,
        rng: &mut Counted,
        target: usize,
    ) {
        let mut k = 0;
        while self.len() < target {
            k += parse.starts[k..].partition_point(|&start| start < rng.draws);
            match parse.starts.get(k) {
                None => return,
                Some(&start) if start == rng.draws => {
                    let sets = (parse.ends.len() - k).min(target - self.len());
                    self.copy_sets(parse, k..k + sets, job.ad);
                    rng.jump(parse.starts[k + sets]);
                    return;
                }
                Some(_) => self.emit_for(job.source, job.ad, gen, rng),
            }
        }
    }

    /// Append `parse`'s sets `sets` for advertiser `ad`.
    fn copy_sets(&mut self, parse: &Parse, sets: std::ops::Range<usize>, ad: AdId) {
        if sets.is_empty() {
            return;
        }
        let first = if sets.start == 0 {
            0
        } else {
            parse.ends[sets.start - 1]
        };
        let members = &parse.nodes[first..parse.ends[sets.end - 1]];
        let nodes = self.nodes.to_mut();
        reserve_as_pushed(nodes, members.len());
        let base = nodes.len();
        nodes.extend_from_slice(members);
        let offsets = self.offsets.to_mut();
        offsets.extend(
            parse.ends[sets.clone()]
                .iter()
                .map(|&end| base + end - first),
        );
        // Ads are `< num_ads`, far below u32::MAX.
        let ads = self.ads.to_mut();
        ads.extend(std::iter::repeat_n(ad as u32, sets.len()));
    }
}

/// The segment the draw at `rng`'s position falls in.
fn segment_of(rng: &Counted) -> usize {
    (rng.draws / SEGMENT_DRAWS) as usize
}

/// Reserve room for `additional` more members as pushing them one at a
/// time would: `Vec::push` doubles a full buffer, to at least 4. The
/// arena's capacity, and with it `memory_bytes`, is then the serial
/// loop's at every thread count.
fn reserve_as_pushed(nodes: &mut Vec<NodeId>, additional: usize) {
    let needed = nodes.len() + additional;
    let mut capacity = nodes.capacity();
    while capacity < needed {
        capacity = (2 * capacity).max(4);
    }
    nodes.reserve_exact(capacity - nodes.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::UniformIc;
    use rand::SeedableRng;
    use rmsa_graph::generators::barabasi_albert;

    /// Drive the merge alone over synthetic parses of every segment but
    /// the first: each takes sets to start only at offsets where no true
    /// set starts, and holds garbage sets. For `join_at = Some(k)`, from
    /// its `k`-th start on it holds the segment's true starts instead, so
    /// it joins the true parse late; their sets are stored reversed, which
    /// shows which sets the merge copied rather than drew.
    fn merge_over_synthetic_parses(join_at: Option<usize>) {
        let g = barabasi_albert(300, 3, &mut Pcg64Mcg::seed_from_u64(1));
        let m = UniformIc::new(1, 0.2);
        let strategy = RrStrategy::Standard;
        let count = 20_000;
        let base = Pcg64Mcg::seed_from_u64(9);
        let mut serial = RrArena::new(300, strategy);
        let mut serial_rng = base.clone();
        serial.generate_for(&g, &m, 0, count, 1, &mut serial_rng);

        let source = ResolvedModel::new(&g, &m, strategy, [0], count);
        let job = Job {
            source: &source,
            ad: 0,
            strategy,
            base: &base,
        };
        let mut gen = job.generator();
        let mut truth = Counted::at(&base, 0);
        let mut true_starts = Vec::new();
        for _ in 0..count {
            true_starts.push(truth.draws);
            gen.draw_into(&source, 0, &mut truth, &mut Vec::new());
        }
        let segments = segment_of(&truth) + 1;
        assert!(segments > 4, "the stream spans several segments");
        let mut expected: Vec<Vec<NodeId>> =
            (0..count).map(|i| serial.nodes_of(i).to_vec()).collect();
        let shared = Shared::new(2);
        {
            let mut board = shared.board();
            for segment in 1..segments {
                let (from, to) = segment_draws(segment);
                let mut parse = Parse {
                    segment,
                    ..Parse::default()
                };
                let false_starts = (from..to).filter(|d| true_starts.binary_search(d).is_err());
                for start in false_starts.step_by(5).take(join_at.unwrap_or(usize::MAX)) {
                    parse.starts.push(start);
                    parse.nodes.extend([299, 298]);
                    parse.ends.push(parse.nodes.len());
                }
                let mut next = to;
                if join_at.is_some() {
                    let after = parse.starts.last().map_or(from, |&s| s + 1);
                    let first = true_starts.partition_point(|&s| s < after);
                    let last = true_starts.partition_point(|&s| s < to);
                    for i in first..last {
                        expected[i].reverse();
                        parse.starts.push(true_starts[i]);
                        parse.nodes.extend(&expected[i]);
                        parse.ends.push(parse.nodes.len());
                    }
                    next = true_starts.get(last).copied().unwrap_or(truth.draws);
                }
                parse.starts.push(next);
                board.ready.push(parse);
            }
            board.unclaimed = segments;
        }
        let mut arena = RrArena::new(300, strategy);
        let mut merge = Counted::at(&base, 0);
        arena.merge(&job, &shared, count, &mut merge);
        assert_eq!(arena.len(), count);
        for (i, members) in expected.iter().enumerate() {
            assert_eq!(
                arena.nodes_of(i),
                &members[..],
                "set {i}, join at {join_at:?}"
            );
        }
        let copied = (0..count)
            .filter(|&i| expected[i][..] != serial.nodes_of(i)[..])
            .count();
        assert_eq!(copied > 0, join_at.is_some(), "{copied} sets copied");
        assert_eq!(merge.draws, truth.draws);
        assert_eq!(merge.rng.next_u64(), serial_rng.next_u64());
    }

    #[test]
    fn parses_that_never_join_the_true_one_leave_the_serial_parse() {
        merge_over_synthetic_parses(None);
    }

    #[test]
    fn parses_that_join_late_are_spliced_in_where_they_join() {
        merge_over_synthetic_parses(Some(3));
        merge_over_synthetic_parses(Some(0));
    }

    #[test]
    fn reserving_as_pushed_matches_push_growth() {
        for (start, add) in [(0, 1), (0, 9), (3, 1), (4, 1), (5, 100), (64, 1), (1, 1)] {
            let mut pushed: Vec<NodeId> = vec![0; start];
            let mut reserved = pushed.clone();
            // The BFS appends members one push at a time.
            for u in 0..add {
                pushed.push(u as NodeId);
            }
            reserve_as_pushed(&mut reserved, add);
            reserved.extend(0..add as NodeId);
            assert_eq!(reserved.capacity(), pushed.capacity(), "{start} + {add}");
        }
    }
}
