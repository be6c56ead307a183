//! The pool's one queue type.
//!
//! A [`Lane`] is a `Mutex<VecDeque<Task>>` on its own cache line — not a
//! lock-free deque. The pool owns one per worker plus one as the global
//! injector; the owner works the front, thieves take from the back. A
//! lock-free injector was measured and moved the fine-grain task rate by
//! ±3 % (EXPERIMENTS.md), so the mutex is what runs.

use crate::task::Task;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Most tasks one [`Lane::take_batch`] moves besides the one it returns.
const BATCH_MAX: usize = 16;

#[repr(align(64))]
pub(crate) struct Lane {
    queue: Mutex<VecDeque<Task>>,
}

impl Lane {
    pub(crate) fn new() -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
        }
    }

    /// Queues a task behind everything already here.
    pub(crate) fn push_back(&self, task: Task) {
        self.queue.lock().push_back(task);
    }

    /// Queues a task at the end the owner pops and `take_batch` takes
    /// from, ahead of everything already here (the priority lane).
    pub(crate) fn push_front(&self, task: Task) {
        self.queue.lock().push_front(task);
    }

    /// Queues a whole set in order under one lock acquisition.
    pub(crate) fn extend(&self, tasks: impl IntoIterator<Item = Task>) {
        self.queue.lock().extend(tasks);
    }

    /// The owner's pop: oldest first.
    pub(crate) fn pop_front(&self) -> Option<Task> {
        self.queue.lock().pop_front()
    }

    /// A thief's pop: the end the owner is not working on.
    pub(crate) fn pop_back(&self) -> Option<Task> {
        self.queue.lock().pop_back()
    }

    /// A racy read is fine for its one caller, the park re-check: parks
    /// are time-bounded.
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.lock().is_empty()
    }

    /// Returns the first task and moves up to half of the rest, capped at
    /// [`BATCH_MAX`], to the back of `dest` in order.
    pub(crate) fn take_batch(&self, dest: &Lane) -> Option<Task> {
        let mut queue = self.queue.lock();
        let first = queue.pop_front()?;
        let batch = (queue.len() / 2).min(BATCH_MAX);
        if batch > 0 {
            dest.queue.lock().extend(queue.drain(..batch));
        }
        Some(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskBody;
    use lg_core::TaskId;

    fn task(tag: u32) -> Task {
        Task::new(TaskId(tag), TaskBody::new(|| {}))
    }

    /// How a case empties its lane.
    #[derive(Clone, Copy)]
    enum Drain {
        Owner,
        Thief,
        /// `take_batch` into a scratch lane that is emptied after each
        /// take — what a worker does with the injector.
        Batch,
    }

    fn drain(lane: &Lane, how: Drain) -> Vec<u32> {
        let scratch = Lane::new();
        let mut seen = Vec::new();
        loop {
            let next = match how {
                Drain::Owner => lane.pop_front(),
                Drain::Thief => lane.pop_back(),
                Drain::Batch => lane.take_batch(&scratch),
            };
            let Some(t) = next else { break };
            seen.push(t.name.0);
            while let Some(t) = scratch.pop_front() {
                seen.push(t.name.0);
            }
        }
        assert!(lane.is_empty() && scratch.is_empty());
        seen
    }

    /// (what is checked, back pushes, front pushes after them, drain,
    /// expected order)
    type Case = (
        &'static str,
        &'static [u32],
        &'static [u32],
        Drain,
        &'static [u32],
    );

    #[test]
    fn ends_and_order() {
        let cases: [Case; 5] = [
            ("owner pops FIFO", &[1, 2, 3], &[], Drain::Owner, &[1, 2, 3]),
            (
                "a thief takes the opposite end",
                &[1, 2, 3],
                &[],
                Drain::Thief,
                &[3, 2, 1],
            ),
            (
                "a front push runs next on a lane",
                &[1, 2],
                &[99],
                Drain::Owner,
                &[99, 1, 2],
            ),
            (
                "a front push leaves the injector first",
                &[1, 2],
                &[99],
                Drain::Batch,
                &[99, 1, 2],
            ),
            (
                "batch takes keep submission order",
                &[0, 1, 2, 3, 4, 5, 6, 7],
                &[],
                Drain::Batch,
                &[0, 1, 2, 3, 4, 5, 6, 7],
            ),
        ];
        for (what, back, front, how, want) in cases {
            let lane = Lane::new();
            assert!(lane.is_empty());
            // Half through `extend`, half one by one: same order either way.
            let (set, singles) = back.split_at(back.len() / 2);
            lane.extend(set.iter().map(|&t| task(t)));
            for &t in singles {
                lane.push_back(task(t));
            }
            for &t in front {
                lane.push_front(task(t));
            }
            assert!(!lane.is_empty());
            assert_eq!(drain(&lane, how), want, "{what}");
        }
    }

    #[test]
    fn take_batch_moves_first_plus_min_of_half_and_sixteen() {
        for (queued, moved) in [(1, 0), (2, 0), (10, 4), (33, 16), (100, 16)] {
            let (lane, dest) = (Lane::new(), Lane::new());
            lane.extend((0..queued).map(task));
            assert_eq!(lane.take_batch(&dest).map(|t| t.name.0), Some(0));
            assert_eq!(drain(&dest, Drain::Owner).len(), moved, "of {queued}");
            assert_eq!(
                drain(&lane, Drain::Owner).len(),
                queued as usize - 1 - moved
            );
        }
        assert!(Lane::new().take_batch(&Lane::new()).is_none());
    }

    #[test]
    fn four_threads_draining_one_injector_conserve_tasks() {
        let injector = Lane::new();
        injector.extend((0..1000).map(task));
        let mut seen: Vec<u32> = std::thread::scope(|s| {
            let drains: Vec<_> = (0..4)
                .map(|_| s.spawn(|| drain(&injector, Drain::Batch)))
                .collect();
            drains
                .into_iter()
                .flat_map(|d| d.join().expect("drain thread"))
                .collect()
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
    }
}
