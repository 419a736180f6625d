//! Assignment policies: which eligible job is handed to the next worker.

use prio_core::Schedule;
use prio_graph::NodeId;
use std::collections::VecDeque;

/// Specification of a policy (owned data, reusable across replications).
#[derive(Debug, Clone)]
pub enum PolicySpec {
    /// Oblivious: a fixed total order on jobs; eligible jobs are assigned
    /// smallest-order-position first. Instantiated with the PRIO schedule
    /// this is the paper's PRIO algorithm.
    Oblivious(Schedule),
    /// FIFO: eligible jobs are assigned in the order they became eligible
    /// (DAGMan's behavior).
    Fifo,
    /// The §3.2 integration shortcoming, made measurable: eligible jobs
    /// enter DAGMan's internal queue in FIFO order and at most `maxjobs`
    /// of them are forwarded to the Condor queue, where the oblivious
    /// priorities apply; workers are served from the Condor queue only.
    /// With `maxjobs = usize::MAX` this is [`PolicySpec::Oblivious`];
    /// with `maxjobs = 1` priorities are inert and it degenerates to
    /// FIFO.
    ThrottledOblivious {
        /// The priority order (e.g. the PRIO schedule).
        schedule: Schedule,
        /// DAGMan's `-maxjobs` forwarding throttle (≥ 1).
        maxjobs: usize,
    },
}

impl PolicySpec {
    /// Short display name ("PRIO-style oblivious" orders are just called
    /// by their schedule).
    pub fn name(&self) -> &'static str {
        match self {
            PolicySpec::Oblivious(_) => "oblivious",
            PolicySpec::Fifo => "FIFO",
            PolicySpec::ThrottledOblivious { .. } => "throttled oblivious",
        }
    }

    /// Creates the per-run queue state.
    pub(crate) fn make_queue(&self, num_jobs: usize) -> PolicyQueue<'_> {
        match self {
            PolicySpec::Oblivious(schedule) => {
                assert_eq!(
                    schedule.len(),
                    num_jobs,
                    "oblivious schedule must cover the dag"
                );
                PolicyQueue::Oblivious(ReadySet::new(schedule))
            }
            PolicySpec::Fifo => PolicyQueue::Fifo {
                queue: VecDeque::new(),
            },
            PolicySpec::ThrottledOblivious { schedule, maxjobs } => {
                assert_eq!(
                    schedule.len(),
                    num_jobs,
                    "oblivious schedule must cover the dag"
                );
                assert!(*maxjobs >= 1, "maxjobs must be at least 1");
                PolicyQueue::Throttled {
                    maxjobs: *maxjobs,
                    dagman: VecDeque::new(),
                    condor: ReadySet::new(schedule),
                }
            }
        }
    }
}

/// Mutable queue of eligible-but-unassigned jobs for one simulation run.
#[derive(Debug)]
pub(crate) enum PolicyQueue<'a> {
    Oblivious(ReadySet<'a>),
    Fifo {
        queue: VecDeque<NodeId>,
    },
    Throttled {
        maxjobs: usize,
        /// DAGMan's internal queue (FIFO, priorities not honored here).
        dagman: VecDeque<NodeId>,
        /// The Condor queue (priority-ordered, at most `maxjobs` entries).
        condor: ReadySet<'a>,
    },
}

impl PolicyQueue<'_> {
    /// A job just became eligible.
    pub fn push(&mut self, job: NodeId) {
        match self {
            PolicyQueue::Oblivious(ready) => ready.push(job),
            PolicyQueue::Fifo { queue } => queue.push_back(job),
            PolicyQueue::Throttled {
                maxjobs,
                dagman,
                condor,
            } => {
                dagman.push_back(job);
                refill(*maxjobs, dagman, condor);
            }
        }
    }

    /// Takes the next job to assign, if any.
    pub fn pop(&mut self) -> Option<NodeId> {
        match self {
            PolicyQueue::Oblivious(ready) => ready.pop(),
            PolicyQueue::Fifo { queue } => queue.pop_front(),
            PolicyQueue::Throttled {
                maxjobs,
                dagman,
                condor,
            } => {
                let job = condor.pop();
                if job.is_some() {
                    refill(*maxjobs, dagman, condor);
                }
                job
            }
        }
    }

    /// Number of jobs assignable *right now* (for the throttled policy,
    /// only the Condor-queue residents — the DAGMan queue is invisible to
    /// the matchmaker, which is exactly the §3.2 shortcoming).
    pub fn len(&self) -> usize {
        match self {
            PolicyQueue::Oblivious(ready) => ready.len(),
            PolicyQueue::Fifo { queue } => queue.len(),
            PolicyQueue::Throttled { condor, .. } => condor.len(),
        }
    }
}

/// Forwards DAGMan-queue jobs into the Condor queue up to the throttle.
fn refill(maxjobs: usize, dagman: &mut VecDeque<NodeId>, condor: &mut ReadySet<'_>) {
    while condor.len() < maxjobs {
        match dagman.pop_front() {
            Some(job) => condor.push(job),
            None => break,
        }
    }
}

/// The eligible jobs of an oblivious policy, popped smallest schedule
/// position first.
///
/// Positions form a permutation of `0..n`, so "smallest position first"
/// is a total order without ties and the set of eligible jobs is exactly
/// a set of positions. It is kept as a 64-ary hierarchy of `u64` bitmaps:
/// `levels[0]` has one bit per position, and every higher level has one
/// bit per word of the level below, set iff that word is non-zero. The
/// last level is a single word. Pop descends from it with
/// `trailing_zeros` and maps the position back to its job through the
/// schedule's order, which the set borrows.
#[derive(Debug)]
pub(crate) struct ReadySet<'a> {
    order: &'a [NodeId],
    position: Vec<usize>,
    levels: Vec<Vec<u64>>,
    len: usize,
}

impl<'a> ReadySet<'a> {
    /// An empty set over `schedule`'s positions.
    pub fn new(schedule: &'a Schedule) -> ReadySet<'a> {
        let mut levels = Vec::new();
        let mut bits = schedule.len().max(1);
        loop {
            let words = bits.div_ceil(64);
            levels.push(vec![0u64; words]);
            if words == 1 {
                break;
            }
            bits = words;
        }
        ReadySet {
            order: schedule.order(),
            position: schedule.positions(),
            levels,
            len: 0,
        }
    }

    /// Adds `job`, which must not be in the set.
    pub fn push(&mut self, job: NodeId) {
        let mut i = self.position[job.index()];
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            let was_empty = *word == 0;
            debug_assert!(*word & (1 << (i % 64)) == 0, "job pushed twice");
            *word |= 1 << (i % 64);
            if !was_empty {
                break;
            }
            i /= 64;
        }
        self.len += 1;
    }

    /// Removes and returns the job with the smallest schedule position.
    pub fn pop(&mut self) -> Option<NodeId> {
        if self.len == 0 {
            return None;
        }
        let mut i = 0;
        for level in self.levels.iter().rev() {
            i = i * 64 + level[i].trailing_zeros() as usize;
        }
        let pos = i;
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            *word &= !(1 << (i % 64));
            if *word != 0 {
                break;
            }
            i /= 64;
        }
        self.len -= 1;
        Some(self.order[pos])
    }

    /// Number of jobs in the set.
    pub fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prio_graph::Dag;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::Rng as _;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn oblivious_pops_by_schedule_position() {
        let dag = Dag::from_arcs(3, &[]).unwrap();
        let sched = Schedule::new(&dag, vec![NodeId(2), NodeId(0), NodeId(1)]).unwrap();
        let spec = PolicySpec::Oblivious(sched);
        let mut q = spec.make_queue(3);
        q.push(NodeId(0));
        q.push(NodeId(1));
        q.push(NodeId(2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(NodeId(2)));
        assert_eq!(q.pop(), Some(NodeId(0)));
        assert_eq!(q.pop(), Some(NodeId(1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_pops_in_arrival_order() {
        let mut q = PolicySpec::Fifo.make_queue(3);
        q.push(NodeId(1));
        q.push(NodeId(0));
        assert_eq!(q.pop(), Some(NodeId(1)));
        q.push(NodeId(2));
        assert_eq!(q.pop(), Some(NodeId(0)));
        assert_eq!(q.pop(), Some(NodeId(2)));
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic(expected = "cover the dag")]
    fn oblivious_schedule_must_match_dag_size() {
        let dag = Dag::from_arcs(2, &[]).unwrap();
        let sched = Schedule::new(&dag, vec![NodeId(0), NodeId(1)]).unwrap();
        PolicySpec::Oblivious(sched).make_queue(5);
    }

    #[test]
    fn throttled_honors_priorities_only_inside_the_condor_queue() {
        let dag = Dag::from_arcs(4, &[]).unwrap();
        // Priority order: 3, 2, 1, 0.
        let sched = Schedule::new(&dag, vec![NodeId(3), NodeId(2), NodeId(1), NodeId(0)]).unwrap();
        let spec = PolicySpec::ThrottledOblivious {
            schedule: sched,
            maxjobs: 2,
        };
        let mut q = spec.make_queue(4);
        // Jobs become eligible in FIFO order 0, 1, 2, 3; only two fit in
        // the Condor queue, so the high-priority 3 waits in DAGMan.
        for i in 0..4 {
            q.push(NodeId(i));
        }
        assert_eq!(q.len(), 2, "Condor queue holds maxjobs entries");
        // Of {0, 1}, the higher-priority 1 is assigned first — but NOT 3.
        assert_eq!(q.pop(), Some(NodeId(1)));
        // Slot freed: 2 was forwarded; of {0, 2}, 2 wins.
        assert_eq!(q.pop(), Some(NodeId(2)));
        assert_eq!(q.pop(), Some(NodeId(3)));
        assert_eq!(q.pop(), Some(NodeId(0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn throttled_with_huge_maxjobs_equals_oblivious() {
        let dag = Dag::from_arcs(3, &[]).unwrap();
        let sched = Schedule::new(&dag, vec![NodeId(2), NodeId(0), NodeId(1)]).unwrap();
        let spec = PolicySpec::ThrottledOblivious {
            schedule: sched,
            maxjobs: usize::MAX,
        };
        let mut q = spec.make_queue(3);
        for i in 0..3 {
            q.push(NodeId(i));
        }
        assert_eq!(q.pop(), Some(NodeId(2)));
        assert_eq!(q.pop(), Some(NodeId(0)));
        assert_eq!(q.pop(), Some(NodeId(1)));
    }

    /// The reference [`ReadySet`] is checked against: a min-heap of
    /// `(position, job)` pairs.
    struct HeapOracle {
        position: Vec<usize>,
        heap: BinaryHeap<Reverse<(usize, NodeId)>>,
    }

    impl HeapOracle {
        fn push(&mut self, job: NodeId) {
            self.heap.push(Reverse((self.position[job.index()], job)));
        }

        fn pop(&mut self) -> Option<NodeId> {
            self.heap.pop().map(|Reverse((_, j))| j)
        }
    }

    /// A seeded Fisher–Yates permutation of `0..n` as a schedule.
    fn permutation(n: usize, seed: u64) -> Schedule {
        let mut rng = prio_stats::seeded_rng(seed);
        let mut order: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        Schedule::from_order_unchecked(order)
    }

    /// Drives a [`ReadySet`] and the heap oracle through the same random
    /// pushes and pops. Pushed jobs are drawn from those not in the set,
    /// so a popped job can come back later, as a retried job does.
    fn check_against_heap(n: usize, seed: u64, ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
        let schedule = permutation(n, seed);
        let mut ready = ReadySet::new(&schedule);
        let mut oracle = HeapOracle {
            position: schedule.positions(),
            heap: BinaryHeap::new(),
        };
        let mut outside: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        for &(op, r) in ops {
            if op < 2 && !outside.is_empty() {
                let job = outside.swap_remove((r % outside.len() as u64) as usize);
                ready.push(job);
                oracle.push(job);
            } else {
                let got = ready.pop();
                prop_assert_eq!(got, oracle.pop());
                outside.extend(got);
            }
            prop_assert_eq!(ready.len(), oracle.heap.len());
        }
        while let Some(job) = oracle.pop() {
            prop_assert_eq!(ready.pop(), Some(job));
        }
        prop_assert_eq!(ready.pop(), None);
        prop_assert_eq!(ready.len(), 0);
        Ok(())
    }

    proptest! {
        #[test]
        fn ready_set_pops_like_the_heap_it_replaced(
            n in prop_oneof![
                Just(1usize),
                Just(63usize),
                Just(64usize),
                Just(65usize),
                Just(4095usize),
                Just(4096usize),
                Just(4097usize),
            ],
            seed in any::<u64>(),
            ops in vec((0u8..3, any::<u64>()), 0..600),
        ) {
            check_against_heap(n, seed, &ops)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        /// Above 64³ = 262,144 positions the hierarchy needs four levels.
        #[test]
        fn ready_set_pops_like_the_heap_above_three_levels(
            seed in any::<u64>(),
            ops in vec((0u8..3, any::<u64>()), 0..3000),
        ) {
            let n = 262_144 + 4097;
            let schedule = permutation(n, seed);
            prop_assert_eq!(ReadySet::new(&schedule).levels.len(), 4);
            check_against_heap(n, seed, &ops)?;
        }
    }
}
