//! The hand-off between callers and a shard, on the standard library only:
//! a FIFO [`Inbox`] the shard's requests wait in and a [`ReplySlot`] an
//! answer comes back through.
//!
//! Both are one pattern, [`Watched`]: a mutex-guarded value that at most
//! one thread sleeps on. The sleeper registers itself *under the lock*,
//! after it has looked at the value and found nothing to do, and only then
//! parks; whoever changes the value takes the registration under the same
//! lock and unparks it after unlocking. A change is therefore either seen
//! by the sleeper's look or finds the sleeper registered — no wake-up is
//! lost — and a change nobody sleeps on costs no system call. That second
//! half is the point: a caller that serves its own request fills its own
//! slot, and a request pushed while the shard thread is awake wakes nobody.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, Thread};

/// Empty looks at its inbox, one `yield_now` apart, a shard thread takes
/// before it parks. A parked thread costs every fire-and-forget push a
/// wake-up — a system call, and on a shared core a pre-emption of the
/// pusher — where a yielding one costs it nothing; a handful of yields
/// bridges the gaps inside a burst without spinning through an idle period.
const IDLE_LOOKS: usize = 16;

/// A mutex-guarded value that at most one thread sleeps on.
struct Watched<T> {
    cell: Mutex<Cell<T>>,
}

struct Cell<T> {
    value: T,
    /// The thread that found nothing to do and parks until told.
    sleeper: Option<Thread>,
}

impl<T> Watched<T> {
    fn new(value: T) -> Self {
        Watched {
            cell: Mutex::new(Cell {
                value,
                sleeper: None,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Cell<T>> {
        // Nothing panics under this lock: it guards pushes, pops and flags.
        self.cell.lock().expect("port lock")
    }

    /// Look at or change the value without waking the sleeper.
    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.lock().value)
    }

    /// Change the value and wake the sleeper, if there is one.
    fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let (out, sleeper) = {
            let mut cell = self.lock();
            (f(&mut cell.value), cell.sleeper.take())
        };
        if let Some(thread) = sleeper {
            thread.unpark();
        }
        out
    }

    /// Sleep until `ready` finds something.
    fn wait<R>(&self, mut ready: impl FnMut(&mut T) -> Option<R>) -> R {
        loop {
            {
                let mut cell = self.lock();
                if let Some(found) = ready(&mut cell.value) {
                    cell.sleeper = None;
                    return found;
                }
                cell.sleeper = Some(thread::current());
            }
            // A change since the look took the registration and left the
            // token: this returns at once. Spurious returns look again.
            thread::park();
        }
    }
}

enum Answer<T> {
    Pending,
    Ready(T),
    /// The request was dropped unanswered: its shard went down.
    Abandoned,
}

/// Where one waiting caller's answer arrives. Reusable: a caller thread
/// keeps one for all its data requests.
pub(crate) struct ReplySlot<T> {
    answer: Watched<Answer<T>>,
}

impl<T> ReplySlot<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(ReplySlot {
            answer: Watched::new(Answer::Pending),
        })
    }

    /// The sending half for the next request; the slot forgets whatever
    /// an earlier one left in it.
    pub(crate) fn replier(self: &Arc<Self>) -> Replier<T> {
        self.answer.with(|answer| *answer = Answer::Pending);
        Replier(Some(self.clone()))
    }

    /// Block for the answer — already there when the caller served the
    /// request itself. `None`: the request was dropped unanswered.
    pub(crate) fn wait(&self) -> Option<T> {
        self.answer
            .wait(|answer| match std::mem::replace(answer, Answer::Pending) {
                Answer::Pending => None,
                Answer::Ready(value) => Some(Some(value)),
                Answer::Abandoned => Some(None),
            })
    }
}

/// The sending half of a [`ReplySlot`], travelling inside the request.
/// Dropped unsent, it tells the waiter so instead of leaving it parked.
pub(crate) struct Replier<T>(Option<Arc<ReplySlot<T>>>);

impl<T> Replier<T> {
    /// Fill the slot; the waiter is unparked only if it sleeps on it,
    /// which a caller serving its own request does not.
    pub(crate) fn send(mut self, value: T) {
        let slot = self.0.take().expect("a replier sends once");
        slot.answer.update(|answer| *answer = Answer::Ready(value));
    }
}

impl<T> Drop for Replier<T> {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            slot.answer.update(|answer| *answer = Answer::Abandoned);
        }
    }
}

struct Queue<R> {
    requests: VecDeque<R>,
    /// The engine handle is gone: serve what is queued, then exit.
    closed: bool,
    /// A request panicked while it was served: nothing is served again.
    down: bool,
}

/// What a shard thread with nothing in hand finds in its inbox.
pub(crate) enum Look {
    /// Requests are queued.
    Work,
    /// Closed and empty: time to exit.
    Closed,
    /// The shard went down on another thread.
    Down,
}

/// One shard's FIFO request queue. Any thread pushes; only the holder of
/// the shard's state pops (see `engine::Port`).
pub(crate) struct Inbox<R> {
    queue: Watched<Queue<R>>,
}

impl<R> Inbox<R> {
    pub(crate) fn new() -> Self {
        Inbox {
            queue: Watched::new(Queue {
                requests: VecDeque::new(),
                closed: false,
                down: false,
            }),
        }
    }

    /// Enqueue; the queue's length, this request included. With `wake` a
    /// sleeping shard thread is told; without, the pusher is about to
    /// serve the queue itself. `Err`: the shard is down, and the request
    /// comes back to be dropped outside the queue's lock.
    pub(crate) fn push(&self, request: R, wake: bool) -> Result<usize, R> {
        let push = |queue: &mut Queue<R>| {
            if queue.down {
                return Err(request);
            }
            queue.requests.push_back(request);
            Ok(queue.requests.len())
        };
        if wake {
            self.queue.update(push)
        } else {
            self.queue.with(push)
        }
    }

    pub(crate) fn pop(&self) -> Option<R> {
        self.queue.with(|queue| queue.requests.pop_front())
    }

    /// Requests queued right now.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.queue.with(|queue| queue.requests.len())
    }

    /// No request will follow: the shard thread exits once the queue is
    /// empty. Wakes it to notice.
    pub(crate) fn close(&self) {
        self.queue.update(|queue| queue.closed = true);
    }

    /// A request panicked mid-serve and the shard's state cannot be
    /// trusted: refuse every later push, wake the shard thread to exit,
    /// and drop what is queued, which tells each waiting caller (their
    /// [`Replier`]s say so on drop).
    pub(crate) fn go_down(&self) {
        let unserved = self.queue.update(|queue| {
            queue.down = true;
            std::mem::take(&mut queue.requests)
        });
        drop(unserved);
    }

    /// The shard thread's idle wait: a few yielding looks, then sleep
    /// until a push, a close or a failure.
    pub(crate) fn idle(&self) -> Look {
        let look = |queue: &mut Queue<R>| {
            if queue.down {
                Some(Look::Down)
            } else if !queue.requests.is_empty() {
                Some(Look::Work)
            } else if queue.closed {
                Some(Look::Closed)
            } else {
                None
            }
        };
        for _ in 0..IDLE_LOOKS {
            if let Some(found) = self.queue.with(look) {
                return found;
            }
            thread::yield_now();
        }
        self.queue.wait(look)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn a_reply_slot_is_reusable_and_reports_a_dropped_replier() {
        let slot = ReplySlot::new();
        slot.replier().send(7u32);
        assert_eq!(slot.wait(), Some(7));
        drop(slot.replier());
        assert_eq!(slot.wait(), None);
        // The next request starts from a clean slot.
        let replier = slot.replier();
        let waiter = {
            let slot = slot.clone();
            thread::spawn(move || slot.wait())
        };
        replier.send(9);
        assert_eq!(waiter.join().unwrap(), Some(9));
    }

    #[test]
    fn a_down_inbox_drops_its_queue_and_refuses_pushes() {
        let inbox = Inbox::new();
        let slot = ReplySlot::<u32>::new();
        assert_eq!(inbox.push(slot.replier(), true).ok(), Some(1));
        inbox.go_down();
        assert_eq!(slot.wait(), None, "the queued request was abandoned");
        assert!(inbox.push(slot.replier(), true).is_err());
        assert!(matches!(inbox.idle(), Look::Down));
    }

    /// Pushes racing the consumer's decision to sleep are never lost.
    #[test]
    fn no_push_is_lost_to_a_sleeping_consumer() {
        const PUSHES: u64 = 50_000;
        let inbox = Arc::new(Inbox::<u64>::new());
        let sum = Arc::new(AtomicU64::new(0));
        let consumer = {
            let (inbox, sum) = (inbox.clone(), sum.clone());
            thread::spawn(move || loop {
                match inbox.idle() {
                    Look::Work => {
                        while let Some(x) = inbox.pop() {
                            sum.fetch_add(x, Ordering::Relaxed);
                        }
                    }
                    Look::Closed => return,
                    Look::Down => unreachable!(),
                }
            })
        };
        for i in 1..=PUSHES {
            assert!(inbox.push(i, true).is_ok());
            if i % 64 == 0 {
                // Let the consumer drain and go to sleep.
                while inbox.len() > 0 {
                    thread::yield_now();
                }
            }
        }
        inbox.close();
        consumer.join().unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), PUSHES * (PUSHES + 1) / 2);
    }
}
